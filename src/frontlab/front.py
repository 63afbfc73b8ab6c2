"""Traveling-front ODE: first-order system, first integral, orbits, shooting.

A front profile (phi1, phi2)(z) of the combustion model satisfies, with
phi3 = phi1' and phi4 = phi2',

    phi1' = phi3
    phi2' = phi4
    phi3' = -(c phi3 + phi2 g(phi1))
    phi4' = -(1/eps) (c phi4 - kappa phi2 g(phi1))

and carries the first integral

    k = phi3 + c phi1 + (eps/kappa) phi4 + (c/kappa) phi2,

equal to c/kappa on any orbit emanating from the unburned state (0, 1, 0, 0).
For eps = 0 the phi4 equation degenerates and the reduced three-dimensional
field uses phi2' = (kappa/c) phi2 g(phi1) instead.

The connecting orbit is found for eps = 0 by shooting: start a distance
DELTA along the leftward-unstable eigenvector of the unburned state,
integrate toward z = -infinity, and bisect the speed c on the dichotomy
"temperature escapes upward" versus "temperature crashes through zero".
The profile is the last escaping shot of the bisection, the one at c*.
The conserved quantity forces the left temperature limit to 1/kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import ModelParams, eval_g, eval_g_prime

__all__ = [
    "FrontProfile",
    "OrbitResult",
    "ShootingError",
    "StepUnderflowError",
    "vector_field",
    "conserved_k",
    "ode_jacobian",
    "spatial_eigenvalues",
    "integrate_orbit",
    "shoot_speed",
    "write_profile_csv",
]

SCAN_POINTS = 17        # speeds in the bracket scan
DELTA = 1e-8            # offset of the shot start along the unstable direction
ZETA_MAX = 5000.0       # leftward length of one shot


class StepUnderflowError(RuntimeError):
    """Adaptive step size collapsed (stiff region); carries the failing z."""

    def __init__(self, z: float):
        super().__init__(f"step size underflow at z = {z!r}")
        self.z = z


class ShootingError(RuntimeError):
    """No sign change of the shooting functional inside the speed bracket."""


@dataclass
class OrbitResult:
    """Trajectory of one orbit integration with its first-integral drift."""

    z: np.ndarray            # sample points, in integration order
    states: np.ndarray       # (len(z), dim)
    k_values: np.ndarray
    k_drift: float           # max |k(s(z)) - k(s0)|
    nsteps: int


@dataclass
class FrontProfile:
    """Sampled connecting orbit, z ascending; phi4 is zero-filled for eps = 0."""

    z: np.ndarray
    states: np.ndarray       # (len(z), 4)
    c: float
    kappa: float
    epsilon: float
    k_values: np.ndarray
    k_drift: float           # max |k - c/kappa| over the samples
    residual_left: float     # |phi1(left end) - 1/kappa|
    residual_right: float    # distance of the right end from (0, 1, 0, 0)
    phi2_monotone: bool      # diagnostic only, never a hard invariant
    bisection_iterations: int = 0


def vector_field(params: ModelParams, s) -> np.ndarray:
    """Right-hand side of the first-order front system at state s.

    s has length 4 for eps > 0 and length 3 for the reduced eps = 0 system;
    a 4-dimensional call with eps = 0 is rejected because the fourth
    equation divides by eps.
    """
    s = np.asarray(s, dtype=float)
    c, kappa, eps = params.c, params.kappa, params.epsilon
    if s.shape == (4,):
        if eps == 0.0:
            raise ValueError("the 4-dimensional field requires eps > 0; "
                             "use the reduced 3-dimensional state for eps = 0")
        p1, p2, p3, p4 = s
        r = p2 * eval_g(p1)
        return np.array([p3, p4, -(c * p3 + r), -(c * p4 - kappa * r) / eps])
    if s.shape == (3,):
        p1, p2, p3 = s
        r = p2 * eval_g(p1)
        return np.array([p3, (kappa / c) * r, -(c * p3 + r)])
    raise ValueError(f"state must have length 3 (eps = 0) or 4, got shape {s.shape}")


def conserved_k(params: ModelParams, s):
    """First integral phi3 + c phi1 + (eps/kappa) phi4 + (c/kappa) phi2.

    s is one state or a stack of states along the last axis; a float is
    returned for one state, an array for a stack.  Accepts the reduced
    3-dimensional state (phi4 treated as 0).
    """
    s = np.asarray(s, dtype=float)
    p4 = s[..., 3] if s.shape[-1] == 4 else 0.0
    k = (s[..., 2] + params.c * s[..., 0] + params.epsilon / params.kappa * p4
         + params.c / params.kappa * s[..., 1])
    return float(k) if k.ndim == 0 else k


def ode_jacobian(params: ModelParams, s) -> np.ndarray:
    """Jacobian of the first-order field at a state (3- or 4-dimensional)."""
    s = np.asarray(s, dtype=float)
    c, kappa, eps = params.c, params.kappa, params.epsilon
    g = eval_g(s[0])
    gp = eval_g_prime(s[0])
    if s.shape == (4,):
        p2 = s[1]
        return np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-p2 * gp, -g, -c, 0.0],
                [kappa * p2 * gp / eps, kappa * g / eps, 0.0, -c / eps],
            ]
        )
    p2 = s[1]
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [kappa / c * p2 * gp, kappa / c * g, 0.0],
            [-p2 * gp, -g, -c],
        ]
    )


def spatial_eigenvalues(params: ModelParams, which: str = "minus") -> np.ndarray:
    """Spatial decay/growth exponents mu at an end state, from the symbol.

    The exponents solve det(mu^2 D + c mu + B) = 0 with B the reaction
    Jacobian there, i.e. the unweighted symbol evaluated at the imaginary
    frequency xi_1 = -i mu.  The determinant factors per block, giving one
    quadratic (or linear, when the diffusion entry vanishes) per component.
    """
    if which == "minus":
        from .model import jacobian_at_minus

        B = jacobian_at_minus(params)
    elif which == "plus":
        B = np.zeros((2, 2))  # g and g' vanish at the cold unburned state
    else:
        raise ValueError("which must be 'minus' or 'plus'")
    D = np.array([1.0, params.epsilon])
    roots = []
    for j in range(2):
        if D[j] > 0.0:
            roots.extend(np.roots([D[j], params.c, B[j, j]]))
        else:
            roots.append(-B[j, j] / params.c)
    return np.sort_complex(np.asarray(roots, dtype=complex))


# Dormand-Prince 5(4) tableau
_DP_A = (
    np.array(()),
    np.array((1 / 5,)),
    np.array((3 / 40, 9 / 40)),
    np.array((44 / 45, -56 / 15, 32 / 9)),
    np.array((19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    np.array((9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
_DP_C = tuple(float(row.sum()) for row in _DP_A)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def _rk45(rhs: Callable[[float, np.ndarray], np.ndarray],
          s0: np.ndarray,
          span: float,
          rtol: float,
          atol: float,
          stop: Optional[Callable[[float, np.ndarray], Optional[str]]] = None):
    """Embedded Dormand-Prince 5(4) integration over tau in [0, span].

    `stop(tau, s)` may return a reason string to terminate after an accepted
    step.  Returns (tau array, state array, reason, nsteps) with every
    accepted step recorded; reason is "span" when the full interval was
    covered.  Step-size underflow raises StepUnderflowError with the failing
    location.
    """
    s = np.asarray(s0, dtype=float).copy()
    tau = 0.0
    h = min(1e-4, span)
    taus = [0.0]
    states = [s]
    nsteps = 0
    reason = "span"
    k = np.empty((7, s.size))
    while tau < span:
        h = min(h, span - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            raise StepUnderflowError(tau)
        k[0] = rhs(tau, s)
        for i in range(1, 7):
            incr = _DP_A[i] @ k[:i]
            k[i] = rhs(tau + h * _DP_C[i], s + h * incr)
        s5 = s + h * (_DP_B5 @ k)
        err = h * (_DP_E @ k)
        scale = atol + rtol * np.maximum(np.abs(s), np.abs(s5))
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if enorm <= 1.0:
            tau += h
            s = s5  # a fresh array each step, so the recorded states never alias
            nsteps += 1
            taus.append(tau)
            states.append(s)
            if stop is not None:
                why = stop(tau, s)
                if why is not None:
                    reason = why
                    break
        factor = 0.9 * enorm**-0.2 if enorm > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return np.asarray(taus), np.asarray(states), reason, nsteps


def integrate_orbit(params: ModelParams, s0, z_span, tol: float = 1e-10) -> OrbitResult:
    """Integrate the front field from s0 over z in [z_span[0], z_span[1]].

    Adaptive RK45 with absolute and relative tolerance tol; the reported
    k_drift is the max deviation of the first integral from its initial
    value, expected below 10 * tol * |span| for eps > 0.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    s0 = np.asarray(s0, dtype=float)
    dim = 4 if params.epsilon > 0.0 else 3
    if s0.shape != (dim,):
        raise ValueError(f"state must have length {dim} for eps = {params.epsilon}")
    z0, z1 = float(z_span[0]), float(z_span[1])
    direction = 1.0 if z1 >= z0 else -1.0
    span = abs(z1 - z0)

    def rhs(_tau, s):
        return direction * vector_field(params, s)

    try:
        taus, states, _reason, nsteps = _rk45(rhs, s0, span, rtol=tol, atol=tol)
    except StepUnderflowError as exc:
        raise StepUnderflowError(z0 + direction * exc.z) from None
    kvals = conserved_k(params, states)
    return OrbitResult(
        z=z0 + direction * taus,
        states=states,
        k_values=kvals,
        k_drift=float(np.max(np.abs(kvals - kvals[0]))),
        nsteps=nsteps,
    )


def _unstable_direction(c: float) -> np.ndarray:
    """Leftward-unstable eigenvector of the reduced field at (0, 1, 0).

    In the leftward variable the linearization has the single positive
    eigenvalue c with eigenvector (1, 0, -c): the temperature grows first
    and the reactant only responds through the (nonlinear) reaction.  The
    direction is normalized with positive phi1 so the reaction switches on
    and phi2 decreases along the orbit.  It is a level direction of the
    first integral, so k = c/kappa exactly on the shot orbit.
    """
    w = np.array([1.0, 0.0, -c])
    return w / np.linalg.norm(w)


def _reduced_rhs_leftward(c: float, kappa: float):
    """Leftward (zeta = -z) right-hand side of the reduced eps = 0 field."""

    def rhs(_tau, s):
        p1, p2, p3 = s
        r = p2 * eval_g(p1)
        return np.array([-p3, -(kappa / c) * r, c * p3 + r])

    return rhs


def _shot(kappa: float, c: float, tol: float):
    """One leftward shot from the offset start; return (sign, tau, states).

    sign +1: temperature escaped above 1.5/kappa (speed too large);
    sign -1: temperature crashed below zero (speed too small);
    sign 0: neither within ZETA_MAX.  The trajectory is recorded at every
    accepted step (relative tolerance tol, absolute tol * 1e-2).
    """
    s0 = np.array([0.0, 1.0, 0.0]) + DELTA * _unstable_direction(c)

    def stop(_tau, s):
        if s[0] > 1.5 / kappa:
            return "up"
        if s[0] < -1e-6 / kappa:
            return "down"
        return None

    try:
        taus, states, reason, _n = _rk45(_reduced_rhs_leftward(c, kappa), s0, ZETA_MAX,
                                         rtol=tol, atol=tol * 1e-2, stop=stop)
    except StepUnderflowError as exc:
        raise StepUnderflowError(-exc.z) from None  # zeta = -z
    return {"up": 1, "down": -1}.get(reason, 0), taus, states


def shoot_speed(kappa: float, c_bracket, tol: float = 1e-12) -> tuple[float, FrontProfile]:
    """Find the front speed of the reduced eps = 0 system by bisection.

    Scans SCAN_POINTS speeds across c_bracket for a sign change of the
    shooting functional (escape direction of the temperature), then bisects
    to floating-point resolution.  The profile is the last escaping shot,
    the one at c* = hi, trimmed at its closest approach to the burned state
    and returned with z ascending.  The first-integral identity
    k = c/kappa is the convergence certificate.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c_lo, c_hi = float(c_bracket[0]), float(c_bracket[1])
    if not 0.0 < c_lo < c_hi:
        raise ValueError("c_bracket must satisfy 0 < c_lo < c_hi")

    # bracket scan: coarse signs only, so a loose tolerance suffices
    grid = np.linspace(c_lo, c_hi, SCAN_POINTS)
    signs = [_shot(kappa, c, max(tol, 1e-8))[0] for c in grid]
    pair = None
    for i in range(len(grid) - 1):
        if signs[i] == -1 and signs[i + 1] == +1:
            pair = (grid[i], grid[i + 1])
            break
    if pair is None:
        raise ShootingError(
            "no sign change of the shooting functional in the bracket "
            f"[{c_lo}, {c_hi}]: endpoint signs {signs[0]} and {signs[-1]} "
            f"(grid signs {signs})"
        )

    lo, hi = pair
    escaped = None  # (tau, states) of the shot at hi
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        sgn, taus, states = _shot(kappa, mid, tol)
        iterations += 1
        if sgn >= 0:
            hi, escaped = mid, (taus, states)
        else:
            lo = mid
    c_star = hi
    if escaped is None:  # hi never moved: its scan shot ran at the loose tolerance
        escaped = _shot(kappa, c_star, tol)[1:]
    taus, states = escaped

    # trim at the closest approach to the burned equilibrium (1/kappa, 0, 0):
    # beyond it only the leftward-unstable drift remains
    target = np.array([1.0 / kappa, 0.0, 0.0])
    cut = int(np.argmin(np.max(np.abs(states - target), axis=1)))
    z = -taus[cut::-1]
    full = np.zeros((len(z), 4))
    full[:, :3] = states[cut::-1]
    kvals = conserved_k(ModelParams(epsilon=0.0, kappa=kappa, c=c_star), full)
    profile = FrontProfile(
        z=z,
        states=full,
        c=c_star,
        kappa=kappa,
        epsilon=0.0,
        k_values=kvals,
        k_drift=float(np.max(np.abs(kvals - c_star / kappa))),
        residual_left=float(abs(full[0, 0] - 1.0 / kappa)),
        residual_right=float(np.max(np.abs(full[-1] - np.array([0.0, 1.0, 0.0, 0.0])))),
        phi2_monotone=bool(np.all(np.diff(full[:, 1]) >= -1e-12)),
        bisection_iterations=iterations,
    )
    return c_star, profile


def write_profile_csv(path, z, states, k_drift) -> None:
    """Orbit or profile CSV: z, phi1..phi4, and the signed drift of the first integral.

    states holds 3 (eps = 0, phi4 written as 0) or 4 columns; k_drift is the
    first integral minus its reference value at each sample.
    """
    with open(path, "w", newline="") as fh:
        fh.write("z,phi1,phi2,phi3,phi4,k_drift\n")
        for zi, s, dk in zip(z, states, k_drift):
            row = [zi, s[0], s[1], s[2], s[3] if s.size == 4 else 0.0, dk]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
