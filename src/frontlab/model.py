"""Combustion model, general triangular block systems, and the Model interface.

The model system couples a temperature u1 and a reactant mass fraction u2
through the ignition rate g(u1) = exp(-1/u1) for u1 > 0 (zero otherwise):

    u1_t = lap(u1) + u2 g(u1)
    u2_t = eps lap(u2) - kappa u2 g(u1)

In the frame moving with a front of speed c, the burned end state is
u_minus = (1/kappa, 0) and the unburned one is u_plus = (0, 1).  Everything
downstream (spectral symbols, simulation, norms) works with the perturbation
v = u - u_minus, whose nonlinear part is the closed-form quadratic

    H(v) = (1, -kappa)^T * v2 * (g(1/kappa + v1) - g(1/kappa)).

Gasless combustion is this model at eps = 0.  More general systems with the
same block-triangular structure are described by :class:`BlockSystem`; their
nonlinear part is represented as N(v) v with the matrix-valued
N(v) = int_0^1 (Df(t v) - Df(0)) dt.  Both supply :class:`Model`, the one
interface sim, spectral and cli use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

__all__ = [
    "Model",
    "ModelParams",
    "BlockSystem",
    "eval_g",
    "eval_g_prime",
    "jacobian_at_minus",
    "eval_N_times_v_exact",
    "make_exo_endo_system",
    "make_gasless_system",
    "check_block_structure",
]


class Model(Protocol):
    """The perturbation equation v_t = D lap(v) + c dz(v) + B v + N(v) v as
    sim, spectral and cli see it; ModelParams and BlockSystem supply it.

    c, n, n1      : wave speed, component count, size of the first block
    diffusion, linearization : the diagonal of D, shape (n,), and B = Df(0)
    stage_rate(v) : bound on |D(N(v) v)|_inf over a field v of shape (n, ...)
    midpoint_stage(u, dt, work) : advances u in place to u + dt N(u + dt/2
                    N(u)) and returns the stage_rate of the u it was given;
                    work, of shape (n + 1, *u.shape[1:]), is scratch it may
                    overwrite
    describe()    : the model's settings, for snapshot metadata
    """

    @property
    def c(self) -> float: ...
    @property
    def n(self) -> int: ...
    @property
    def n1(self) -> int: ...
    @property
    def diffusion(self) -> np.ndarray: ...
    @property
    def linearization(self) -> np.ndarray: ...
    def stage_rate(self, v: np.ndarray) -> float: ...
    def midpoint_stage(self, u: np.ndarray, dt: float, work: np.ndarray) -> float: ...
    def describe(self) -> dict: ...


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless constants of the combustion model, a :class:`Model` of
    the perturbation equation about u_minus.

    epsilon : reactant/temperature diffusion ratio, 0 <= epsilon < 1
    kappa   : reaction stoichiometry, 0 < kappa < inf
    c       : wave speed, 0 < c < inf
    """

    epsilon: float
    kappa: float
    c: float

    n = 2
    n1 = 1

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must satisfy 0 <= epsilon < 1, got {self.epsilon}")
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")

    @property
    def u_minus(self) -> np.ndarray:
        return np.array([1.0 / self.kappa, 0.0])

    @property
    def u_plus(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    @property
    def diffusion(self) -> np.ndarray:
        return np.array([1.0, self.epsilon])

    @property
    def linearization(self) -> np.ndarray:
        return jacobian_at_minus(self)

    def stage_rate(self, v) -> float:
        """Bound on |DH|_inf over the field v of shape (2, ...)."""
        gp = eval_g_prime(1.0 / self.kappa + v[0])
        m = eval_g(1.0 / self.kappa + v[0]) - np.exp(-self.kappa)
        return max(1.0, self.kappa) * float(np.max(np.abs(v[1] * gp) + np.abs(m)))

    def midpoint_stage(self, u, dt: float, work) -> float:
        """Advance u, of shape (2, ...), in place to u + dt H(u + dt/2 H(u))
        and return stage_rate(u), from one g evaluation per point.

        g(x) at x = 1/kappa + u1 gives g' = g / x^2, the rate and H(u); g at
        the midpoint gives the step.  The three rows of work, each shaped
        like a component of u, hold every intermediate, so the stage
        allocates no array.
        Every operation of H and stage_rate is kept, in their order: the
        result is theirs bit for bit.
        """
        kappa = self.kappa
        ek = np.exp(-kappa)
        x, m, y = work[0:1], work[1:2], work[2:3]  # row slices: arrays also for u of shape (2,)
        np.add(1.0 / kappa, u[:1], out=x)
        _exp_minus(1.0, x, out=m)  # g(x)
        np.multiply(x, x, out=x)
        gp = np.divide(m, np.fmax(x, 5e-324, out=x), out=x)  # 0 / floor = 0 where g is 0
        m -= ek
        np.multiply(u[1:], gp, out=gp)
        np.abs(gp, out=gp)
        gp += np.abs(m, out=y)
        rate = max(1.0, kappa) * float(np.max(gp))
        r = np.multiply(m, u[1:], out=m)  # H(u) = (1, -kappa)^T r
        np.add(np.multiply(r, 0.5 * dt, out=x), u[:1], out=x)  # the midpoint in (x, m)
        np.add(np.multiply(np.multiply(r, -kappa, out=m), 0.5 * dt, out=m), u[1:], out=m)
        r = _exp_minus(1.0, np.add(x, 1.0 / kappa, out=x), out=x)
        r -= ek
        np.multiply(r, m, out=r)
        u[1:] += np.multiply(np.multiply(r, -kappa, out=m), dt, out=m)
        u[:1] += np.multiply(r, dt, out=r)
        return rate

    def describe(self) -> dict:
        return {"kind": "combustion", "epsilon": self.epsilon, "kappa": self.kappa,
                "c": self.c}


@dataclass(frozen=True)
class BlockSystem:
    """General block-triangular reaction-diffusion system in shifted coordinates.

    The state v in R^(n1+n2) measures the deviation from the steady state, so
    f(0) = 0 and the first block satisfies f(v1, 0) = (A1 v1, 0) for a
    constant matrix A1.  Construction does not check this:
    check_block_structure probes it, and make_exo_endo_system calls it.

    f and jac must be stateless callables; f maps an array of shape
    (n, ...) to the same shape (broadcasting over trailing axes), jac maps a
    single state of shape (n,) to the (n, n) Jacobian.

    d1, d2 hold the diagonals of the nonnegative diffusion blocks.  A zero
    entry in d2 (a reactant that does not diffuse) is allowed and flagged
    via :attr:`zero_diffusion` rather than rejected.

    B = Df(0) and f0 = f(0) are evaluated once, at construction, and stored
    read-only.
    """

    n1: int
    n2: int
    d1: np.ndarray
    d2: np.ndarray
    A1: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    c: float = 1.0
    name: str = "block-system"
    B: np.ndarray = field(init=False, repr=False)
    f0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d1", np.atleast_1d(np.asarray(self.d1, dtype=float)))
        object.__setattr__(self, "d2", np.atleast_1d(np.asarray(self.d2, dtype=float)))
        object.__setattr__(self, "A1", np.atleast_2d(np.asarray(self.A1, dtype=float)))
        if self.d1.shape != (self.n1,) or self.d2.shape != (self.n2,):
            raise ValueError("diffusion diagonals must match the block sizes")
        if np.any(self.d1 < 0.0) or np.any(self.d2 < 0.0):
            raise ValueError("diffusion coefficients must be nonnegative")
        if self.A1.shape != (self.n1, self.n1):
            raise ValueError("A1 must be n1 x n1")
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"wave speed c must be positive and finite, got {self.c}")
        zero = np.zeros(self.n)
        for name, value in (("B", self.jac(zero)), ("f0", self.f(zero))):
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def diffusion(self) -> np.ndarray:
        """Full diagonal of the diffusion matrix D."""
        return np.concatenate([self.d1, self.d2])

    @property
    def zero_diffusion(self) -> bool:
        """True when some diffusion coefficient vanishes (flagged, not rejected)."""
        return bool(np.any(self.diffusion == 0.0))

    @property
    def linearization(self) -> np.ndarray:
        """Jacobian of f at the steady state v = 0 (read-only)."""
        return self.B

    def stage_rate(self, v) -> float:
        """Row-sum norm of Df(v) - Df(0) at the field's largest state."""
        flat = np.reshape(v, (self.n, -1))
        peak = flat[:, int(np.argmax(np.sum(flat**2, axis=0)))]
        J = self.jac(peak) - self.B
        return float(np.max(np.sum(np.abs(J), axis=1)))

    def midpoint_stage(self, u, dt: float, work) -> float:
        """Advance u in place to u + dt N(u + dt/2 N(u)) and return
        stage_rate(u), working over the arrays eval_N_times_v_exact returns
        (work is not used): bit for bit the out-of-place form."""
        rate = self.stage_rate(u)
        mid = eval_N_times_v_exact(self, u)
        mid *= 0.5 * dt
        mid += u
        step = eval_N_times_v_exact(self, mid)
        step *= dt
        u += step
        return rate

    def describe(self) -> dict:
        return {"kind": self.name, "c": self.c, "zero_diffusion": self.zero_diffusion}


def _exp_minus(b: float, u: np.ndarray, out=None) -> np.ndarray:
    """exp(-b/u) for u > 0, exactly 0 for u <= 0, in out (which may be u)
    or a new array.

    fmax lifts u <= b 1e-4 (so also u <= 0, -0.0, -inf, NaN and every
    subnormal u) to b 1e-4, where -b/u = -1e4 and exp gives the exact 0, as
    it does for every u up to b 1e-4.  No division overflows or meets a
    subnormal divisor while b 1e-4 is normal (b >= 1e-300; eval_g has b = 1).
    """
    out = np.fmax(u, b * 1e-4, out=np.empty_like(u) if out is None else out)
    np.divide(-b, out, out=out)
    return np.exp(out, out=out)


def _exp_minus_float(a: float, b: float, u: float) -> tuple[float, float]:
    """(a exp(-b/u), its u-derivative a b exp(-b/u) / u^2) at one Python float.

    Zero where _exp_minus gives 0 (u <= b 1e-4, NaN); math.exp in place of
    0-d numpy arrays for the Jacobian of a single state.
    """
    if not u > b * 1e-4:
        return 0.0, 0.0
    e = math.exp(-b / u)
    return a * e, a * (e * b / u / u)


def _exp_minus_prime(b: float, u: np.ndarray) -> np.ndarray:
    """d/du exp(-b/u) = b exp(-b/u) / u^2 for u > 0, exactly 0 for u <= 0."""
    out = _exp_minus(b, u)
    # where exp(-b/u) is 0, u * u may underflow to 0 as well: skip 0 / 0;
    # past u ~ 1.3e154 it overflows to inf, and the quotient is 0
    with np.errstate(over="ignore"):
        u2 = u * u
    return np.divide(out * b, u2, out=out, where=out > 0.0)


def eval_g(u1):
    """Ignition rate g(u1) = exp(-1/u1) for u1 > 0, exactly 0 for u1 <= 0.

    Accepts scalars or arrays; smooth with flat contact at the cutoff.
    """
    out = _exp_minus(1.0, np.asarray(u1, dtype=float))
    if np.ndim(u1) == 0:
        return float(out)
    return out


def eval_g_prime(u1):
    """Derivative g'(u1) = exp(-1/u1)/u1^2 for u1 > 0, 0 otherwise."""
    out = _exp_minus_prime(1.0, np.asarray(u1, dtype=float))
    if np.ndim(u1) == 0:
        return float(out)
    return out


def jacobian_at_minus(params: ModelParams) -> np.ndarray:
    """Jacobian of f at the burned end state u_minus = (1/kappa, 0).

    Closed form ((0, e^-kappa), (0, -kappa e^-kappa)); the zero first column
    is the source of the triangular structure.
    """
    ek = np.exp(-params.kappa)
    return np.array([[0.0, ek], [0.0, -params.kappa * ek]])


def eval_N_times_v_exact(sys: BlockSystem, v) -> np.ndarray:
    """Closed form N(v) v = f(v) - f(0) - Df(0) v of the integral
    N(v) = int_0^1 (Df(t v) - Df(0)) dt, with no quadrature.

    Written in place over the array f returns, unless that array is
    read-only or shares memory with v.
    """
    v = np.asarray(v, dtype=float)
    lin = np.dot(sys.B, v.reshape(sys.n, -1)).reshape(v.shape)
    out = np.asarray(sys.f(v), dtype=float)
    if not out.flags.writeable or np.may_share_memory(out, v):
        out = out.copy()
    out -= sys.f0.reshape((sys.n,) + (1,) * (v.ndim - 1))
    out -= lin
    return out


def make_exo_endo_system(
    d2: float,
    d3: float,
    sigma: float,
    tau: float,
    a: Sequence[float],
    b: Sequence[float],
    c: float = 1.0,
) -> BlockSystem:
    """Three-species system with one exothermic and one endothermic reactant.

    State (y1, y2, y3) = (temperature, exothermic reactant, endothermic
    reactant), rates f_i(u) = a_i exp(-b_i/u) for u > 0 (zero otherwise):

        y1_t = lap(y1) + y2 f2(y1) - sigma y3 f3(y1)
        y2_t = d2 lap(y2) - y2 f2(y1)
        y3_t = d3 lap(y3) - tau y3 f3(y1)

    Block split n1 = 1 (temperature), n2 = 2; A1 = 0 since the reactions
    switch off when the reactants vanish or the temperature is nonpositive.
    """
    a2, a3 = a
    b2, b3 = b
    for nm, val in (("d2", d2), ("d3", d3), ("sigma", sigma), ("tau", tau),
                    ("a2", a2), ("a3", a3), ("b2", b2), ("b3", b3)):
        if not 0.0 < val < np.inf:
            raise ValueError(f"{nm} must be positive and finite, got {val}")

    def f(y):
        y = np.asarray(y, dtype=float)
        r2 = y[1] * (a2 * _exp_minus(b2, y[0]))
        r3 = y[2] * (a3 * _exp_minus(b3, y[0]))
        return np.stack([r2 - sigma * r3, -r2, -tau * r3])

    def jac(y):
        y1, y2, y3 = (float(x) for x in y)
        v2, v2p = _exp_minus_float(a2, b2, y1)
        v3, v3p = _exp_minus_float(a3, b3, y1)
        return np.array(
            [
                [y2 * v2p - sigma * y3 * v3p, v2, -sigma * v3],
                [-y2 * v2p, -v2, 0.0],
                [-tau * y3 * v3p, 0.0, -tau * v3],
            ]
        )

    sys = BlockSystem(
        n1=1,
        n2=2,
        d1=np.array([1.0]),
        d2=np.array([d2, d3]),
        A1=np.zeros((1, 1)),
        f=f,
        jac=jac,
        c=c,
        name="exo-endo",
    )
    check_block_structure(sys)
    return sys


def make_gasless_system(beta: float, c: float = 1.0) -> ModelParams:
    """Gasless combustion u_t = lap(u) + v g(u), v_t = -beta v g(u).

    This is the combustion model at epsilon = 0 and kappa = beta, and runs
    its closed-form kernels.  The fuel equation carries no diffusion, so
    the second entry of its diffusion diagonal is zero.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return ModelParams(0.0, beta, c)


def check_block_structure(sys: BlockSystem, trials: int = 1000, seed: int = 0,
                          tol: float = 1e-12) -> float:
    """Randomized probe of f(v1, 0) = (A1 v1, 0) over `trials` draws.

    The draws are N(0, 2^2) from the stdlib random.Random(seed), which
    spares building a block system the import of numpy.random.  Returns
    the largest residual found; raises if it exceeds tol.
    """
    rng = random.Random(seed)
    draws = [rng.gauss(0.0, 2.0) for _ in range(trials * sys.n1)]
    v1 = np.array(draws).reshape(trials, sys.n1).T  # draw t is column t
    v = np.zeros((sys.n, trials))
    v[:sys.n1] = v1
    expect = np.zeros((sys.n, trials))
    expect[:sys.n1] = sys.A1 @ v1
    worst = float(np.max(np.abs(sys.f(v) - expect)))  # one vectorised f call
    if not worst <= tol:
        raise ValueError(
            f"block structure violated: f(v1, 0) differs from (A1 v1, 0) "
            f"by {worst:.3e} > {tol:.1e}"
        )
    return worst
