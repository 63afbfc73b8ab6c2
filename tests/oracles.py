"""Reference computations and probes the tests check frontlab with.

The combustion reaction term and its Jacobian, the combustion model posed
as a generic BlockSystem, the quadrature form of
the nonlinearity, finite differences, a sampled Lipschitz constant, the
numpy front field and its Jacobian, the spatial exponents at the end states,
the weighted abscissa in closed form, the intersection norm of a field, a
smallness-threshold scan, the structural identities of a norm series,
sim.step_imex on a field and a Strang step on numpy's n-dimensional real
transforms.
frontlab itself calls none of them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from frontlab.model import (BlockSystem, ModelParams, check_block_structure, eval_g,
                            eval_g_prime, eval_N_times_v_exact, jacobian_at_minus)
from frontlab.norms import norm_unweighted, norm_weighted
from frontlab.sim import (FieldState, Grid, Perturbation, SimulationBlowupError,
                          SimulationError, _propagate, run, step_imex)
from frontlab.spectral import Propagator


def eval_f_combustion(params: ModelParams, u) -> np.ndarray:
    """Reaction term f(u) = (u2 g(u1), -kappa u2 g(u1)) of the model system.

    u has shape (2,) or (2, ...); the output matches.
    """
    u = np.asarray(u, dtype=float)
    r = u[1] * eval_g(u[0])
    return np.stack([r, -params.kappa * r])


def jacobian_combustion(params: ModelParams, u) -> np.ndarray:
    """Analytic Jacobian of the reaction term at a state u of shape (2,)."""
    u = np.asarray(u, dtype=float)
    g = eval_g(u[0])
    gp = eval_g_prime(u[0])
    return np.array(
        [
            [u[1] * gp, g],
            [-params.kappa * u[1] * gp, -params.kappa * g],
        ]
    )




def make_combustion_system(params: ModelParams) -> BlockSystem:
    """Combustion model as a BlockSystem in coordinates shifted to u_minus:
    the generic block path, against which the closed forms of ModelParams
    are checked."""
    kappa = params.kappa
    u_minus = np.array([1.0 / kappa, 0.0])

    def f(v):
        v = np.asarray(v, dtype=float)
        shift = u_minus.reshape((2,) + (1,) * (v.ndim - 1))
        return eval_f_combustion(params, v + shift)

    def jac(v):
        return jacobian_combustion(params, np.asarray(v, dtype=float) + u_minus)

    sys = BlockSystem(
        n1=1,
        n2=1,
        d1=np.array([1.0]),
        d2=np.array([params.epsilon]),
        A1=np.zeros((1, 1)),
        f=f,
        jac=jac,
        c=params.c,
        name="combustion",
    )
    check_block_structure(sys)
    return sys


def eval_N_times_v(sys: BlockSystem, v, quad_nodes: int = 32) -> np.ndarray:
    """Quadrature approximation of N(v) v with N(v) = int_0^1 (Df(tv) - Df(0)) dt.

    Gauss-Legendre nodes on [0, 1]; quad_nodes = 32 keeps the identity
    N(v) v = f(v) - f(0) - Df(0) v below 1e-10 over the unit ball (16 nodes
    leave ~1e-8 errors near the flat cutoff of the ignition rate).
    """
    if quad_nodes < 2:
        raise ValueError(f"quad_nodes must be >= 2, got {quad_nodes}")
    v = np.asarray(v, dtype=float)
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    B = sys.linearization
    N = np.zeros((sys.n, sys.n))
    for ti, wi in zip(t, wt):
        N += wi * (sys.jac(ti * v) - B)
    return N @ v


def sample_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Uniform draw from the n-ball: Gaussian direction times radius * U^(1/n)."""
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    return d * radius * rng.random() ** (1.0 / n)


def lipschitz_probe(sys: BlockSystem, ball_radius: float, trials: int,
                    seed: int) -> float:
    """Sampled Lipschitz constant of v -> N(v) v on the ball of given radius.

    Max over `trials` pairs (v, w) of |N(v)v - N(w)w| / |v - w| in Euclidean
    norm, a finite-dimensional surrogate for the local Lipschitz property of
    the nonlinearity.  Deterministic for a fixed seed.
    """
    if not ball_radius > 0.0:
        raise ValueError(f"ball_radius must be positive, got {ball_radius}")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        v = sample_ball(rng, sys.n, ball_radius)
        w = sample_ball(rng, sys.n, ball_radius)
        dvw = np.linalg.norm(v - w)
        if dvw == 0.0:
            continue
        dn = np.linalg.norm(eval_N_times_v_exact(sys, v) - eval_N_times_v_exact(sys, w))
        best = max(best, float(dn / dvw))
    return best


def divided_difference(func, x: float, order: int, h: float) -> float:
    """Forward divided difference of the given order at x with step h."""
    acc = 0.0
    for j in range(order + 1):
        acc += (-1.0) ** (order - j) * math.comb(order, j) * func(x + j * h)
    return acc / h**order


def central_difference_jacobian(f: Callable[[np.ndarray], np.ndarray],
                                u: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, step 1e-6 (1 + |u|)."""
    u = np.asarray(u, dtype=float)
    n = u.size
    h = 1e-6 * (1.0 + np.linalg.norm(u))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        cols.append((np.asarray(f(u + e)) - np.asarray(f(u - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def vector_field(params: ModelParams, s) -> np.ndarray:
    """Right-hand side of the first-order front system at state s.

    s has length 4 for eps > 0 and length 3 for the reduced eps = 0 system;
    a 4-dimensional call with eps = 0 is rejected because the fourth
    equation divides by eps.  The numpy reference for front._float_field.
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


def ode_jacobian(params: ModelParams, s) -> np.ndarray:
    """Jacobian of the first-order front field at a state (3- or 4-dimensional)."""
    s = np.asarray(s, dtype=float)
    c, kappa, eps = params.c, params.kappa, params.epsilon
    g = eval_g(s[0])
    gp = eval_g_prime(s[0])
    p2 = s[1]
    if s.shape == (4,):
        return np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-p2 * gp, -g, -c, 0.0],
                [kappa * p2 * gp / eps, kappa * g / eps, 0.0, -c / eps],
            ]
        )
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


def abscissa_weighted(params: ModelParams, alpha: float) -> float:
    """Abscissa in the weighted space: max of the two family vertices.

    Evaluates max(alpha^2 - c alpha, eps alpha^2 - c alpha - kappa e^-kappa)
    for any alpha >= 0 (not only the admissible band), which equals
    alpha^2 - c alpha whenever eps < 1 and kappa > 0.
    """
    a = float(alpha)
    if a < 0.0:
        raise ValueError("alpha must be nonnegative")
    first = a**2 - params.c * a
    second = params.epsilon * a**2 - params.c * a - params.kappa * np.exp(-params.kappa)
    return float(max(first, second))


def norm_E(grid, data, alpha: float, k: int = 0) -> float:
    """Intersection-space norm max(|v|_0, |v|_alpha)."""
    return max(norm_unweighted(grid, data, k), norm_weighted(grid, data, alpha, k))


def instability_scan(model, grid: Grid, pert: Perturbation, alpha: float,
                     T: float, dt: float, delta: float,
                     eta0: float = 1e-3, max_doublings: int = 20,
                     record_every: int = 10) -> tuple[Optional[float], list]:
    """Double eta until sup_t |v|_E exceeds delta; empirical smallness threshold.

    Returns (first failing eta or None, history of (eta, sup_E) pairs).
    """
    history = []
    eta = eta0
    for _ in range(max_doublings):
        p = replace(pert, eta=eta, amplitude=None)
        try:
            res = run(model, grid, p, alpha, T, dt, record_every=record_every)
            sup_E = float(np.max(res.series.column("normE_v", 0)))
        except (SimulationError, ValueError):
            history.append((eta, math.inf))
            return eta, history
        history.append((eta, sup_E))
        if sup_E > delta:
            return eta, history
        eta *= 2.0
    return None, history


def validate_series(series) -> None:
    """Assert the structural identities every record of a NormSeries must satisfy."""
    for k in (0, 1):
        v = series.column("norm0_v", k)
        v1 = series.column("norm0_v1", k)
        v2 = series.column("norm0_v2", k)
        va = series.column("normalpha_v", k)
        ve = series.column("normE_v", k)
        if not np.all(ve == np.maximum(v, va)):
            raise AssertionError("norm_E is not the max of the two norms")
        if np.any(v1 > v + 1e-15) or np.any(v2 > v + 1e-15):
            raise AssertionError("component norm exceeds the full norm")
        if np.any(v < 0) or np.any(va < 0):
            raise AssertionError("negative norm recorded")


def step_imex_rfftn(model, grid: Grid, state: FieldState, half: Propagator,
                    steps: int = 1) -> FieldState:
    """sim.step_imex written with np.fft.rfftn/irfftn over the grid axes: the
    reference the one-axis transforms of step_imex must match bit for bit."""
    dt = 2.0 * half.dt
    axes = tuple(range(1, grid.d + 1))
    t = state.t
    vh = np.fft.rfftn(state.data, axes=axes)
    spare = np.empty_like(vh)
    u = np.empty(state.data.shape)
    for _ in range(steps):
        vh, spare = _propagate(half, vh, spare), vh
        np.fft.irfftn(vh, s=grid.shape, axes=axes, out=u)
        stepped, rate = model.midpoint_stage(u, dt)
        if dt > (math.inf if rate == 0.0 else 0.5 / rate):
            raise ValueError(f"dt = {dt} exceeds the explicit-stage stability bound")
        np.fft.rfftn(stepped, axes=axes, out=vh)
        vh, spare = _propagate(half, vh, spare), vh
        t = t + dt
        if not np.all(np.isfinite(vh)):
            raise SimulationBlowupError(t)
    data = np.fft.irfftn(vh, s=grid.shape, axes=axes, out=u)
    return FieldState(t=t, data=data)


def step_fields(model, grid: Grid, state: FieldState, half: Propagator,
                steps: int = 1) -> FieldState:
    """state advanced by sim.step_imex: grid.forward, `steps` Strang steps in
    place on the half spectrum, grid.inverse; state.data is not written to."""
    vh = grid.forward(state.data)
    t = step_imex(model, grid, vh, state.t, half, np.empty_like(vh),
                  np.empty(state.data.shape), steps)
    return FieldState(t=t, data=grid.inverse(vh))
