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

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import ModelParams, eval_g, eval_g_prime

__all__ = [
    "FrontProfile",
    "OrbitResult",
    "ShotRecord",
    "ShootingError",
    "StepUnderflowError",
    "vector_field",
    "conserved_k",
    "ode_jacobian",
    "spatial_eigenvalues",
    "integrate_orbit",
    "shoot_speed",
    "write_profile_csv",
    "write_shots_csv",
]

SCAN_POINTS = 17        # speeds in the bracket scan
DELTA = 1e-8            # offset of the shot start along the unstable direction
ZETA_MAX = 5000.0       # leftward length of one shot


class StepUnderflowError(RuntimeError):
    """Adaptive step size collapsed (stiff region); carries the failing z."""

    def __init__(self, z: float):
        super().__init__(f"step size underflow at z = {z!r}")
        self.z = z


class ShotRecord(NamedTuple):
    """One shot of shoot_speed, in the order the shots were taken."""

    c: float
    tol: float               # relative tolerance of the shot
    sign: int                # +1 escaped up, -1 crashed down, 0 neither
    reason: str              # stop reason: "up", "down" or "span"
    steps: int               # accepted integration steps


class ShootingError(RuntimeError):
    """No sign change of the shooting functional inside the speed bracket.

    `shots` holds the ShotRecord of every shot taken before giving up.
    """

    def __init__(self, message: str, shots: list):
        super().__init__(message)
        self.shots = shots


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
    shots: list = field(default_factory=list)   # ShotRecord of every shot taken


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


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980).  The fifth-order weights are the last row of A, so the seventh stage
# is the field at the accepted state: the next step's first stage (FSAL).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error weights: fifth- minus fourth-order weights
_E1 = _B1 - 5179 / 57600
_E3 = _B3 - 7571 / 16695
_E4 = _B4 - 393 / 640
_E5 = _B5 + 92097 / 339200
_E6 = _B6 - 187 / 2100
_E7 = -1 / 40


def _rk45(rhs: Callable[[Sequence[float]], Sequence[float]],
          s0: Sequence[float],
          span: float,
          rtol: float,
          atol: float,
          stop: Optional[Callable[[Sequence[float]], Optional[str]]] = None):
    """Embedded Dormand-Prince 5(4) integration over tau in [0, span].

    Runs on lists of Python floats: the state and the autonomous field
    rhs(s) have any fixed length, and each stage is written out with the
    tableau constants.  `stop(s)` may return a reason string to terminate
    after an accepted step.  Returns (tau array, state array, reason,
    nsteps) with every accepted step recorded; reason is "span" when the
    full interval was covered.  A step whose error norm is not finite is
    rejected like any other, so a NaN field ends in StepUnderflowError,
    which carries the failing location.
    """
    s = [float(x) for x in s0]
    n = len(s)
    tau = 0.0
    h = min(1e-4, span)
    taus = [0.0]
    states = [s]
    nsteps = 0
    reason = "span"
    k1 = rhs(s)
    while tau < span:
        h = min(h, span - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            raise StepUnderflowError(tau)
        k2 = rhs([y + h * (_A21 * a) for y, a in zip(s, k1)])
        k3 = rhs([y + h * (_A31 * a + _A32 * b) for y, a, b in zip(s, k1, k2)])
        k4 = rhs([y + h * (_A41 * a + _A42 * b + _A43 * c)
                  for y, a, b, c in zip(s, k1, k2, k3)])
        k5 = rhs([y + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                  for y, a, b, c, d in zip(s, k1, k2, k3, k4)])
        k6 = rhs([y + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                  for y, a, b, c, d, e in zip(s, k1, k2, k3, k4, k5)])
        s5 = [y + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
              for y, a, c, d, e, f in zip(s, k1, k3, k4, k5, k6)]
        k7 = rhs(s5)
        sq = 0.0
        for y, z, a, c, d, e, f, g in zip(s, s5, k1, k3, k4, k5, k6, k7):
            err = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
            sq += (err / (atol + rtol * max(abs(y), abs(z)))) ** 2
        enorm = math.sqrt(sq / n)
        if enorm <= 1.0:
            tau += h
            s, k1 = s5, k7  # a fresh list each step, so the recorded states never alias
            nsteps += 1
            taus.append(tau)
            states.append(s)
            if stop is not None:
                why = stop(s)
                if why is not None:
                    reason = why
                    break
        if enorm > 0.0:
            factor = 0.9 * enorm**-0.2
        else:  # zero error grows the step, a NaN norm shrinks it
            factor = 5.0 if enorm == 0.0 else 0.2
        h *= min(5.0, max(0.2, factor))
    return np.asarray(taus), np.asarray(states), reason, nsteps


def _float_field(c: float, kappa: float, eps: float, direction: float):
    """direction * vector_field as a function of a list of Python floats.

    Three-dimensional for eps = 0, four-dimensional otherwise.  The ignition
    rate is math.exp(-1/phi1) for phi1 > 0 and 0 otherwise, the cutoff of
    model.eval_g; math.exp may round the last bit differently from numpy's
    exp, and the rest of the arithmetic is vector_field's.
    """
    # numpy scalars (the bisection's speeds) would slow every operation
    c, kappa, eps, d = float(c), float(kappa), float(eps), float(direction)
    nd = -d
    exp = math.exp
    if eps == 0.0:
        q = d * (kappa / c)

        def reduced(s):
            p1, p2, p3 = s
            r = p2 * (exp(-1.0 / p1) if p1 > 0.0 else 0.0)
            return (d * p3, q * r, nd * (c * p3 + r))

        return reduced

    def full(s):
        p1, p2, p3, p4 = s
        r = p2 * (exp(-1.0 / p1) if p1 > 0.0 else 0.0)
        return (d * p3, d * p4, nd * (c * p3 + r), nd * (c * p4 - kappa * r) / eps)

    return full


def integrate_orbit(params: ModelParams, s0, z_span, tol: float = 1e-10) -> OrbitResult:
    """Integrate the front field from s0 over z in [z_span[0], z_span[1]].

    Adaptive RK45 with absolute and relative tolerance tol; the reported
    k_drift is the max deviation of the first integral from its initial
    value, expected below 10 * tol * |span| for eps > 0.  s0 and z_span
    must be finite.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    s0 = np.asarray(s0, dtype=float)
    dim = 4 if params.epsilon > 0.0 else 3
    if s0.shape != (dim,):
        raise ValueError(f"state must have length {dim} for eps = {params.epsilon}")
    if not np.all(np.isfinite(s0)):
        raise ValueError(f"s0 must be finite, got {s0.tolist()}")
    z0, z1 = float(z_span[0]), float(z_span[1])
    if not (math.isfinite(z0) and math.isfinite(z1)):
        raise ValueError(f"z_span must be finite, got ({z0}, {z1})")
    direction = 1.0 if z1 >= z0 else -1.0
    span = abs(z1 - z0)
    rhs = _float_field(params.c, params.kappa, params.epsilon, direction)
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


def _shot(kappa: float, c: float, tol: float):
    """One leftward shot from the offset start; return (sign, tau, states).

    sign +1: temperature escaped above 1.5/kappa (speed too large);
    sign -1: temperature crashed below zero (speed too small);
    sign 0: neither within ZETA_MAX.  The trajectory is recorded at every
    accepted step (relative tolerance tol, absolute tol * 1e-2).
    """
    s0 = np.array([0.0, 1.0, 0.0]) + DELTA * _unstable_direction(c)
    up, down = 1.5 / kappa, -1e-6 / kappa

    def stop(s):
        if s[0] > up:
            return "up"
        if s[0] < down:
            return "down"
        return None

    try:
        taus, states, reason, _n = _rk45(_float_field(c, kappa, 0.0, -1.0), s0, ZETA_MAX,
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
    k = c/kappa is the convergence certificate.  Every shot is recorded in
    profile.shots (or in the ShootingError's shots).
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c_lo, c_hi = float(c_bracket[0]), float(c_bracket[1])
    if not 0.0 < c_lo < c_hi:
        raise ValueError("c_bracket must satisfy 0 < c_lo < c_hi")

    shots = []

    def shoot(c, shot_tol):
        sign, taus, states = _shot(kappa, c, shot_tol)
        shots.append(ShotRecord(float(c), shot_tol, sign,
                                {1: "up", -1: "down"}.get(sign, "span"), len(taus) - 1))
        return sign, taus, states

    # bracket scan: coarse signs only, so a loose tolerance suffices
    grid = np.linspace(c_lo, c_hi, SCAN_POINTS)
    signs = [shoot(c, max(tol, 1e-8))[0] for c in grid]
    pair = None
    for i in range(len(grid) - 1):
        if signs[i] == -1 and signs[i + 1] == +1:
            pair = (grid[i], grid[i + 1])
            break
    if pair is None:
        raise ShootingError(
            "no sign change of the shooting functional in the bracket "
            f"[{c_lo}, {c_hi}]: endpoint signs {signs[0]} and {signs[-1]} "
            f"(grid signs {signs})",
            shots,
        )

    lo, hi = pair
    escaped = None  # (tau, states) of the shot at hi
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        sgn, taus, states = shoot(mid, tol)
        iterations += 1
        if sgn >= 0:
            hi, escaped = mid, (taus, states)
        else:
            lo = mid
    c_star = hi
    if escaped is None:  # hi never moved: its scan shot ran at the loose tolerance
        escaped = shoot(c_star, tol)[1:]
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
        shots=shots,
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


def write_shots_csv(path, shots) -> None:
    """One row per ShotRecord: c, tol, sign, reason, steps."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ShotRecord._fields) + "\n")
        for shot in shots:
            fh.write(f"{shot.c:.17g},{shot.tol:.17g},{shot.sign},{shot.reason},{shot.steps}\n")
