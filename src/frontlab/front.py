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
integrate toward z = -infinity, and narrow the speed c on the dichotomy
"temperature escapes upward" versus "temperature crashes through zero" to
adjacent floats, by Illinois steps (Dowell & Jarratt, BIT 11, 1971) on
the shots' signed miss.  The profile is the escaping shot at c*.
The conserved quantity forces the left temperature limit to 1/kappa.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import ModelParams

__all__ = [
    "FrontProfile",
    "OrbitResult",
    "ShotRecord",
    "ShootingError",
    "StepUnderflowError",
    "conserved_k",
    "integrate_orbit",
    "shoot_speed",
    "write_profile_csv",
    "write_shots_csv",
]

SCAN_POINTS = 17        # speeds in the bracket scan
DELTA = 1e-8            # offset of the shot start along the unstable direction
ZETA_MAX = 5000.0       # leftward length of one shot
TOL_MIN = 100 * np.finfo(float).eps   # smallest tolerance, the floor of scipy's solve_ivp


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
    miss: float              # sign * exp(-c tau_exit); NaN for scan and sign-0 shots


class ShootingError(RuntimeError):
    """The speed search failed: no sign change of the shooting functional
    inside the speed bracket, a scan pair whose ends do not shoot down and
    up at the search tolerance, or a shot whose step size underflowed.

    `shots` holds the ShotRecord of every shot completed before giving up.
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
    refinement_iterations: int = 0   # shots strictly inside the scan's sign-change pair
    shots: list = field(default_factory=list)   # ShotRecord of every shot taken


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


def _rk45(rhs: Callable[[float, float, float, float], tuple],
          s0: Sequence[float],
          span: float,
          rtol: float,
          atol: float,
          stop: Optional[Callable[[tuple], Optional[str]]] = None):
    """Embedded Dormand-Prince 5(4) integration over tau in [0, span].

    One straight-line step on four Python-float slots y1..y4: s0 has 3 or 4
    entries (the missing slot starts at 0.0) and rhs(p1, p2, p3, p4) returns
    a 4-tuple, whose fourth entry is 0.0 for a three-dimensional field.  With
    atol > 0 a zero slot adds exactly 0.0 to the error sum, so the error
    norm sqrt(sq / n), n = len(s0), is the n-dimensional one bit for bit.
    `stop(s)` gets the accepted state as a 4-tuple and may return a reason
    string to terminate after that step.  Returns (tau array, state array
    of n columns, reason, nsteps) with every accepted step recorded; reason
    is "span" when the full interval was covered.  A step whose error norm
    is not finite is rejected like any other, so a NaN field ends in
    StepUnderflowError, which carries the failing location.
    """
    n = len(s0)
    # the tableau as locals, which the loop reads faster than globals
    A21, A31, A32, A41, A42, A43 = _A21, _A31, _A32, _A41, _A42, _A43
    A51, A52, A53, A54, A61, A62, A63, A64, A65 = (_A51, _A52, _A53, _A54,
                                                   _A61, _A62, _A63, _A64, _A65)
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    E1, E3, E4, E5, E6, E7 = _E1, _E3, _E4, _E5, _E6, _E7
    y1, y2, y3, y4 = [float(x) for x in s0] + [0.0] * (4 - n)
    tau = 0.0
    h = min(1e-4, span)
    # flat float arrays: 40 bytes a step, where a list of tuples takes 224
    taus = array("d", [0.0])
    states = array("d", (y1, y2, y3, y4))
    nsteps = 0
    reason = "span"
    # stage j is the tuple (j1, j2, j3, j4) for j = a (k1) .. g (k7)
    a1, a2, a3, a4 = rhs(y1, y2, y3, y4)
    while tau < span:
        h = min(h, span - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            raise StepUnderflowError(tau)
        b1, b2, b3, b4 = rhs(y1 + h * (A21 * a1), y2 + h * (A21 * a2),
                             y3 + h * (A21 * a3), y4 + h * (A21 * a4))
        c1, c2, c3, c4 = rhs(y1 + h * (A31 * a1 + A32 * b1),
                             y2 + h * (A31 * a2 + A32 * b2),
                             y3 + h * (A31 * a3 + A32 * b3),
                             y4 + h * (A31 * a4 + A32 * b4))
        d1, d2, d3, d4 = rhs(y1 + h * (A41 * a1 + A42 * b1 + A43 * c1),
                             y2 + h * (A41 * a2 + A42 * b2 + A43 * c2),
                             y3 + h * (A41 * a3 + A42 * b3 + A43 * c3),
                             y4 + h * (A41 * a4 + A42 * b4 + A43 * c4))
        e1, e2, e3, e4 = rhs(y1 + h * (A51 * a1 + A52 * b1 + A53 * c1 + A54 * d1),
                             y2 + h * (A51 * a2 + A52 * b2 + A53 * c2 + A54 * d2),
                             y3 + h * (A51 * a3 + A52 * b3 + A53 * c3 + A54 * d3),
                             y4 + h * (A51 * a4 + A52 * b4 + A53 * c4 + A54 * d4))
        f1, f2, f3, f4 = rhs(
            y1 + h * (A61 * a1 + A62 * b1 + A63 * c1 + A64 * d1 + A65 * e1),
            y2 + h * (A61 * a2 + A62 * b2 + A63 * c2 + A64 * d2 + A65 * e2),
            y3 + h * (A61 * a3 + A62 * b3 + A63 * c3 + A64 * d3 + A65 * e3),
            y4 + h * (A61 * a4 + A62 * b4 + A63 * c4 + A64 * d4 + A65 * e4))
        z1 = y1 + h * (B1 * a1 + B3 * c1 + B4 * d1 + B5 * e1 + B6 * f1)
        z2 = y2 + h * (B1 * a2 + B3 * c2 + B4 * d2 + B5 * e2 + B6 * f2)
        z3 = y3 + h * (B1 * a3 + B3 * c3 + B4 * d3 + B5 * e3 + B6 * f3)
        z4 = y4 + h * (B1 * a4 + B3 * c4 + B4 * d4 + B5 * e4 + B6 * f4)
        g1, g2, g3, g4 = rhs(z1, z2, z3, z4)
        # slot scale atol + rtol max(|y|, |z|), max written out: the builtin's
        # result, NaN included, without its call
        sq = ((h * (E1 * a1 + E3 * c1 + E4 * d1 + E5 * e1 + E6 * f1 + E7 * g1))
              / (atol + rtol * (w if (w := abs(z1)) > (u := abs(y1)) else u))) ** 2
        sq += ((h * (E1 * a2 + E3 * c2 + E4 * d2 + E5 * e2 + E6 * f2 + E7 * g2))
               / (atol + rtol * (w if (w := abs(z2)) > (u := abs(y2)) else u))) ** 2
        sq += ((h * (E1 * a3 + E3 * c3 + E4 * d3 + E5 * e3 + E6 * f3 + E7 * g3))
               / (atol + rtol * (w if (w := abs(z3)) > (u := abs(y3)) else u))) ** 2
        sq += ((h * (E1 * a4 + E3 * c4 + E4 * d4 + E5 * e4 + E6 * f4 + E7 * g4))
               / (atol + rtol * (w if (w := abs(z4)) > (u := abs(y4)) else u))) ** 2
        enorm = math.sqrt(sq / n)
        if enorm <= 1.0:
            tau += h
            y1, y2, y3, y4 = z1, z2, z3, z4
            a1, a2, a3, a4 = g1, g2, g3, g4
            nsteps += 1
            taus.append(tau)
            s = (z1, z2, z3, z4)
            states.extend(s)
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
    return np.array(taus), np.array(states).reshape(-1, 4)[:, :n], reason, nsteps


def _float_field(c: float, kappa: float, eps: float, direction: float):
    """direction times the front field, as rhs(p1, p2, p3, p4) -> 4-tuple of Python floats.

    Four-dimensional for eps > 0; for eps = 0 the reduced three-dimensional
    field ignores p4 and returns 0.0 in the fourth slot.  The ignition rate
    is math.exp(-1/phi1) for phi1 > 0 and 0 otherwise, the cutoff of
    model.eval_g; math.exp may round the last bit differently from numpy's
    exp, and the rest of the arithmetic is that of the numpy reference
    vector_field in tests/oracles.py.
    """
    # numpy scalars would slow every operation
    c, kappa, eps, d = float(c), float(kappa), float(eps), float(direction)
    nd = -d
    exp = math.exp
    if eps == 0.0:
        q = d * (kappa / c)

        def reduced(p1, p2, p3, p4):
            r = p2 * (exp(-1.0 / p1) if p1 > 0.0 else 0.0)
            return (d * p3, q * r, nd * (c * p3 + r), 0.0)

        return reduced

    def full(p1, p2, p3, p4):
        r = p2 * (exp(-1.0 / p1) if p1 > 0.0 else 0.0)
        return (d * p3, d * p4, nd * (c * p3 + r), nd * (c * p4 - kappa * r) / eps)

    return full


def _check_finite_and_tol(tol: float, **values) -> None:
    """ValueError unless every named value is finite and TOL_MIN <= tol < inf."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not TOL_MIN <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least {TOL_MIN:.3g} "
                         f"(100 times the machine epsilon), got {tol}")


def integrate_orbit(params: ModelParams, s0, z_span, tol: float = 1e-10) -> OrbitResult:
    """Integrate the front field from s0 over z in [z_span[0], z_span[1]].

    Adaptive RK45 with absolute and relative tolerance tol; the reported
    k_drift is the max deviation of the first integral from its initial
    value, expected below 10 * tol * |span| for eps > 0.  s0 and z_span
    must be finite, and tol at least TOL_MIN.
    """
    _check_finite_and_tol(tol)
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
    """One leftward shot from the offset start; return (sign, miss, tau, states).

    sign +1: temperature escaped above 1.5/kappa (speed too large);
    sign -1: temperature crashed below zero (speed too small);
    sign 0: neither within ZETA_MAX.  miss = sign * exp(-c tau_exit), with
    tau_exit the crossing of the stop threshold interpolated linearly on
    the last accepted step; NaN for sign 0.  Near c* the orbit leaves the
    burned saddle at its unstable rate c, so miss is close to linear in
    c - c*.  The trajectory is recorded at every accepted step (relative
    tolerance tol, absolute tol * 1e-2).
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
    sign = {"up": 1, "down": -1}.get(reason, 0)
    if sign == 0:
        return 0, math.nan, taus, states
    edge = up if sign > 0 else down
    t0, t1 = float(taus[-2]), float(taus[-1])
    x0, x1 = float(states[-2, 0]), float(states[-1, 0])
    tau_exit = t0 + (t1 - t0) * (edge - x0) / (x1 - x0)
    return sign, sign * math.exp(-c * tau_exit), taus, states


def shoot_speed(kappa: float, c_bracket, tol: float = 1e-12) -> tuple[float, FrontProfile]:
    """Find the front speed of the reduced eps = 0 system by shooting.

    Shoots SCAN_POINTS evenly spaced speeds across c_bracket, from the left
    and at a loose tolerance, until the first sign change (-1, +1) of the
    escape direction.  Both ends of that pair are shot again at tol; then
    safeguarded Illinois steps on the shots' signed miss narrow the bracket
    [lo, hi], lo shooting down and hi up (or neither) at tol, until lo and
    hi are adjacent floats.  A step that would not land strictly inside
    the bracket, or that follows a shot without a miss (sign 0), is the
    midpoint.  c* = hi, and the profile is the shot at c*, trimmed at its
    closest approach to the burned state and returned with z ascending.
    The first-integral identity k = c/kappa is the convergence certificate.
    Every shot is recorded in profile.shots (or in the ShootingError's
    shots).  kappa, c_bracket and tol must be finite, and tol at least
    TOL_MIN.
    """
    c_lo, c_hi = float(c_bracket[0]), float(c_bracket[1])
    _check_finite_and_tol(tol, kappa=kappa, c_min=c_lo, c_max=c_hi)
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not 0.0 < c_lo < c_hi:
        raise ValueError("c_bracket must satisfy 0 < c_lo < c_hi")

    shots = []

    def shoot(c, scan=False):
        # the scan needs coarse signs only, so a loose tolerance suffices
        shot_tol = max(tol, 1e-8) if scan else tol
        try:
            sign, miss, taus, states = _shot(kappa, c, shot_tol)
        except StepUnderflowError as exc:
            raise ShootingError(f"the shot at c = {c!r} failed: {exc}", shots) from exc
        shots.append(ShotRecord(c, shot_tol, sign, {1: "up", -1: "down"}.get(sign, "span"),
                                len(taus) - 1, math.nan if scan else miss))
        return sign, miss, taus, states

    grid = [float(c) for c in np.linspace(c_lo, c_hi, SCAN_POINTS)]
    signs = []
    for c in grid:
        signs.append(shoot(c, scan=True)[0])
        if signs[-2:] == [-1, 1]:
            break
    else:
        raise ShootingError(
            "no sign change of the shooting functional in the bracket "
            f"[{c_lo}, {c_hi}]: endpoint signs {signs[0]} and {signs[-1]} "
            f"(grid signs {signs})",
            shots,
        )

    lo, hi = grid[len(signs) - 2], grid[len(signs) - 1]
    sign_lo, f_lo = shoot(lo)[:2]
    sign_hi, f_hi, taus, states = shoot(hi)
    if sign_lo != -1 or sign_hi == -1:
        raise ShootingError(
            f"the scan pair [{lo!r}, {hi!r}] shot {sign_lo} and {sign_hi} "
            f"at tol = {tol!r}, not -1 and +1", shots)
    iterations = 0
    kept = 0  # +1 (-1): the last step replaced hi (lo)
    while math.nextafter(lo, hi) != hi:
        c = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < c < hi:  # also a NaN miss
            c = 0.5 * (lo + hi)
        sign, miss, shot_taus, shot_states = shoot(c)
        iterations += 1
        if sign >= 0:
            hi, f_hi, taus, states = c, miss, shot_taus, shot_states
            if kept > 0:
                f_lo *= 0.5
            kept = 1
        else:
            lo, f_lo = c, miss
            if kept < 0:
                f_hi *= 0.5
            kept = -1
    c_star = hi

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
        refinement_iterations=iterations,
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
    """One row per ShotRecord: c, tol, sign, reason, steps, miss."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ShotRecord._fields) + "\n")
        for shot in shots:
            fh.write(f"{shot.c:.17g},{shot.tol:.17g},{shot.sign},{shot.reason},{shot.steps},"
                     f"{shot.miss:.17g}\n")
