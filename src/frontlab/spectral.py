"""Fourier symbols, essential-spectrum sweeps, and exact per-mode propagators.

The constant-coefficient linearization about an end state acts per Fourier
frequency xi as the matrix

    S(xi) = -|xi|^2 D + (i c xi_1 - alpha c) I + (alpha^2 - 2 i xi_1 alpha) D + B

where D is the diagonal diffusion matrix, c the frame speed, B the Jacobian
of the reaction term at the end state, and alpha the exponent of the weight
exp(alpha z) (alpha = 0 recovers the unweighted symbol).  Its eigenvalue
curves over xi in R^d are the essential spectrum; their largest real part is
the spectral abscissa that controls linear decay.

For the combustion model B is upper triangular with real diagonal and the
curves are two explicit parabolas in |xi|:

    lambda_1(xi) = -|xi|^2        + (c - 2 alpha) i xi_1 + alpha^2 - alpha c
    lambda_2(xi) = -eps |xi|^2    + (c - 2 eps alpha) i xi_1
                   + eps alpha^2 - alpha c - kappa e^(-kappa)

so abscissas are closed-form and the grid sweep is confirmation, not the
source of truth.

`exact_propagator` advances every Fourier mode by exp(dt S(xi)): in closed
form (the phi1 form of Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005)
when B is upper triangular without chained off-diagonal entries, which holds
for every shipped model, and by one batched matrix exponential otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import SAMPLE_BLOCK, write_rows
from .model import Model

__all__ = [
    "SymbolMatrix",
    "SpectrumSweep",
    "Propagator",
    "eval_symbol",
    "family_real_parts",
    "closed_form_abscissa",
    "optimal_weight",
    "block_abscissas",
    "auto_extent",
    "sweep_symbol",
    "exact_propagator",
    "semigroup_envelope",
    "write_spectrum_csv",
]

EXTENT_MARGIN = 1e-9   # room auto_extent leaves in its abscissa bound
EXTENT_FLOOR = 4.0     # smallest auto_extent; also the extent of an uncertified sweep


@dataclass(frozen=True, eq=False)
class SymbolMatrix:
    """Evaluation rule xi -> S(xi) for one linearized end-state operator.

    d     : space dimension (>= 1); xi_1 is the frame/weight axis
    D     : diagonal of the diffusion matrix, shape (n,)
    c     : frame speed
    B     : reaction Jacobian at the end state, shape (n, n)
    alpha : weight exponent (0 for the unweighted symbol)

    D and B are kept as read-only float arrays.
    """

    d: int
    D: np.ndarray
    c: float
    B: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("space dimension must be >= 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        for name, value in (("D", self.D), ("B", np.atleast_2d(self.B))):
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, model: Model, d: int = 1, alpha: float = 0.0) -> "SymbolMatrix":
        """Symbol of a model's linearization.

        alpha = 0 gives the unweighted symbol.
        """
        return cls(d=d, D=model.diffusion, c=model.c, B=model.linearization,
                   alpha=float(alpha))

    @property
    def n(self) -> int:
        return len(self.D)

    @property
    def is_triangular(self) -> bool:
        """Upper-triangular B makes S(xi) upper triangular for every xi."""
        return bool(np.all(np.tril(self.B, -1) == 0.0))


def _frequency(sym: SymbolMatrix, xi) -> np.ndarray:
    """xi as a float array of shape (sym.d,); ValueError for any other shape."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (sym.d,):
        raise ValueError(f"expected frequency of dimension {sym.d}, got shape {xi.shape}")
    return xi


def _diagonal_curves(sym: SymbolMatrix, xi2, xi1):
    """Diagonal entries of S(xi) for broadcastable |xi|^2 and xi_1 arrays."""
    xi2 = np.atleast_1d(np.asarray(xi2, dtype=float))[..., None]
    xi1 = np.atleast_1d(np.asarray(xi1, dtype=float))[..., None]
    return (-xi2 * sym.D + (1j * sym.c * xi1 - sym.alpha * sym.c)
            + (sym.alpha**2 - 2j * xi1 * sym.alpha) * sym.D + np.diag(sym.B))


def _symbol_stack(sym: SymbolMatrix, xi2, xi1) -> np.ndarray:
    """S(xi) stacked over broadcastable |xi|^2 and xi_1 arrays, shape (..., n, n).

    The diagonal is _diagonal_curves; off the diagonal S(xi) is B at every xi.
    """
    diag = _diagonal_curves(sym, xi2, xi1)
    B = sym.B
    n = sym.n
    S = np.zeros(diag.shape + (n,), dtype=complex)
    S[...] = B - np.diag(np.diag(B))
    S[..., np.arange(n), np.arange(n)] = diag
    return S


def _sorted_eigvals(sym: SymbolMatrix, xi2, xi1) -> np.ndarray:
    """Eigenvalues of S(xi) at the samples, shape (..., n), by descending real part.

    Triangular symbols give their diagonal exactly; any other symbol takes
    one batched dense solve, whose non-convergence surfaces as
    numpy.linalg.LinAlgError.  Its real parts are compared rounded to 40
    bits of the sample's largest |lambda|, so a pair whose real parts tie
    in exact arithmetic does not come in round-off order: ties go by
    descending imaginary part.
    """
    if sym.is_triangular:
        vals = _diagonal_curves(sym, xi2, xi1)
        order = np.argsort(-vals.real, axis=-1, kind="stable")
    else:
        vals = np.linalg.eigvals(_symbol_stack(sym, xi2, xi1))
        unit = np.ldexp(np.max(np.abs(vals), axis=-1, keepdims=True), -40)
        real = np.round(vals.real / np.where(unit > 0.0, unit, 1.0))
        order = np.lexsort((-vals.imag, -real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def eval_symbol(sym: SymbolMatrix, xi) -> np.ndarray:
    """Symbol matrix S(xi) as a complex (n, n) array.

    Raises ValueError when the frequency dimension does not match sym.d.
    """
    xi = _frequency(sym, xi)
    return _symbol_stack(sym, np.dot(xi, xi), xi[0])[0]


def family_real_parts(sym: SymbolMatrix) -> np.ndarray:
    """Per-family abscissas of a triangular symbol (vertex of each parabola).

    Family j has real part -D_j |xi|^2 + alpha^2 D_j - alpha c + B_jj, maximal
    at xi = 0; a zero diffusion entry makes the family constant in |xi|.
    """
    if not sym.is_triangular:
        raise ValueError("closed-form family abscissas require a triangular symbol")
    return sym.alpha**2 * sym.D - sym.alpha * sym.c + np.diag(sym.B)


def closed_form_abscissa(sym: SymbolMatrix) -> Optional[float]:
    """Exact spectral abscissa for triangular symbols, None otherwise."""
    if not sym.is_triangular:
        return None
    return float(np.max(family_real_parts(sym)))


def optimal_weight(c: float) -> tuple[float, float]:
    """Minimizer of alpha -> alpha^2 - c alpha: alpha* = c/2, value -c^2/4.

    alpha* sits at the closure of the admissible band (0, c/2).
    """
    if not c > 0.0:
        raise ValueError(f"c must be positive, got {c}")
    return c / 2.0, -(c**2) / 4.0


def block_abscissas(model: Model) -> tuple[float, float]:
    """Unweighted abscissas of the two diagonal block operators.

    The largest family vertex B_jj within each block of a triangular symbol.
    For the combustion model the first block (heat plus drift) gives 0 and
    the second -kappa e^-kappa < 0, the sharp unweighted decay rate of v2.
    """
    fams = family_real_parts(SymbolMatrix.of(model))
    return float(np.max(fams[:model.n1])), float(np.max(fams[model.n1:]))


@dataclass
class SpectrumSweep:
    """Sampled eigenvalue curves of a symbol over a frequency grid."""

    xi: np.ndarray          # (n_samples, d)
    eigvals: np.ndarray     # (n_samples, n), sorted by descending real part
    realized_abscissa: float
    extent: float
    certified: bool         # extent large enough that the tail cannot move the abscissa


def auto_extent(sym: SymbolMatrix) -> tuple[float, bool]:
    """Per-axis extent R such that frequencies beyond R cannot raise the abscissa.

    Triangular symbols: each family is a parabola in |xi| with vertex at 0,
    so any family with positive diffusion drops below the overall abscissa by
    |xi|^2 D_j; families with zero diffusion are constant and never exceed it.
    General symbols: the numerical-abscissa bound
    Re lambda(S(xi)) <= -min(D) |xi|^2 + alpha^2 max(D) - alpha c + lam_max(Herm B)
    is inverted when min(D) > 0; otherwise EXTENT_FLOOR is used and the sweep
    is reported as uncertified.  The extent is at least EXTENT_FLOOR and
    leaves EXTENT_MARGIN of room in the bound.
    """
    D = sym.D
    if sym.is_triangular:
        fams = family_real_parts(sym)
        A = float(np.max(fams))
        r2 = 0.0
        for fam, dj in zip(fams, D):
            if dj > 0.0:
                r2 = max(r2, (fam - A + EXTENT_MARGIN) / dj)
        return max(EXTENT_FLOOR, float(np.sqrt(max(r2, 0.0)))), True
    dmin = float(np.min(D))
    B = sym.B
    herm_top = float(np.max(np.linalg.eigvalsh(0.5 * (B + B.T))))
    a0 = float(np.max(np.linalg.eigvals(eval_symbol(sym, np.zeros(sym.d))).real))
    if dmin <= 0.0:
        return EXTENT_FLOOR, False
    r2 = (sym.alpha**2 * float(np.max(D)) - sym.alpha * sym.c + herm_top - a0
          + EXTENT_MARGIN) / dmin
    return max(EXTENT_FLOOR, float(np.sqrt(max(r2, 0.0)))), True


def sweep_symbol(sym: SymbolMatrix, R: Optional[float] = None, m: int = 401) -> SpectrumSweep:
    """Sample the eigenvalue curves on a symmetric per-axis grid of m points.

    m must be odd (>= 3) so the grid contains xi = 0, where the closed-form
    abscissa of the triangular families is attained exactly.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer >= 3, got {m}")
    if R is None:
        R, certified = auto_extent(sym)
    else:
        R = float(R)
        certified = sym.is_triangular
        if not 0.0 < R < np.inf:
            raise ValueError(f"extent R must be positive and finite, got {R}")
    axis = np.linspace(-R, R, m)
    grids = np.meshgrid(*([axis] * sym.d), indexing="ij")
    xi = np.stack([g.ravel() for g in grids], axis=-1)
    vals = _sorted_eigvals(sym, np.sum(xi**2, axis=-1), xi[:, 0])
    return SpectrumSweep(
        xi=xi,
        eigvals=vals,
        realized_abscissa=float(np.max(vals.real)),
        extent=R,
        certified=certified,
    )


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z elementwise, series for small |z|, expm1-based otherwise."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    zb = z[~small]
    x, y = zb.real, zb.imag
    expm1c = (np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2
              ) + 1j * np.exp(x) * np.sin(y)
    out[~small] = expm1c / zb
    return out


@dataclass(frozen=True)
class Propagator:
    """Per-mode exponential exp(dt S(xi)) over a set of frequency samples.

    rows[i] holds (j, E_ij) for the entries that are not identically zero,
    each E_ij an array over the samples.
    """

    dt: float
    rows: tuple


def _closed_form_exponential(sym: SymbolMatrix) -> bool:
    """Upper-triangular B whose strictly upper part N has |N| |N| = 0."""
    N = np.abs(np.triu(sym.B, 1))
    return sym.is_triangular and not np.any(N @ N)


def _closed_form(sym: SymbolMatrix, xi2, xi1, dt) -> tuple:
    """Propagator.rows of the closed-form exponential (see exact_propagator),
    in one evaluation over the samples."""
    B = sym.B
    n = sym.n
    diag = _diagonal_curves(sym, xi2, xi1)
    S = [diag[..., j] for j in range(n)]
    E = [np.exp(s * dt) for s in S]

    def off(i, j):
        z = (S[i] - S[j]) * dt
        flip = z.real > 1.0
        return B[i, j] * dt * np.where(flip, E[i], E[j]) * _phi1(np.where(flip, -z, z))

    return tuple(
        ((i, E[i]),) + tuple((j, off(i, j)) for j in range(i + 1, n) if B[i, j] != 0.0)
        for i in range(n))


def _closed_form_rows(sym: SymbolMatrix, xi2, xi1, dt) -> tuple:
    """_closed_form in blocks of leading-axis rows of at most SAMPLE_BLOCK
    samples (at least one row), each copied into entries allocated once at
    the broadcast shape of the samples and dt, so the temporaries stay at
    block size.  Every operation is elementwise: no entry depends on the
    blocks.  One block's worth of samples is evaluated whole.
    """
    shape = np.broadcast_shapes(np.shape(xi2), np.shape(xi1), np.shape(dt))
    if math.prod(shape) <= SAMPLE_BLOCK:
        return _closed_form(sym, xi2, xi1, dt)
    step = max(1, SAMPLE_BLOCK // math.prod(shape[1:]))
    rows = None
    for lo in range(0, shape[0], step):
        cut = slice(lo, lo + step)
        # an input constant along the leading axis is used whole
        block = [a[cut] if np.ndim(a) == len(shape) and np.shape(a)[0] > 1 else a
                 for a in (xi2, xi1, dt)]
        rows = _fill_rows(rows, shape, cut, _closed_form(sym, *block))
    return rows


def _fill_rows(rows, shape: tuple, cut: slice, part: tuple) -> tuple:
    """The block part written into rows at cut; rows None is allocated at
    shape, with the entries of part."""
    if rows is None:
        rows = tuple(tuple((j, np.empty(shape, dtype=e.dtype)) for j, e in row)
                     for row in part)
    for row, got in zip(rows, part):
        for (_, e), (_, g) in zip(row, got):
            e[cut] = g
    return rows


def exact_propagator(sym: SymbolMatrix, xi2, xi1, dt) -> Propagator:
    """exp(dt S(xi)) at the samples (|xi|^2, xi_1), entry by entry.

    Without chained off-diagonal entries in an upper-triangular B the
    exponential is closed form,

        E_jj = exp(dt S_jj),   E_ij = B_ij dt E_jj phi1(dt (S_ii - S_jj))
                                    = B_ij dt E_ii phi1(dt (S_jj - S_ii)),

    exact also where S_ii = S_jj.  The second form is taken where
    Re dt (S_ii - S_jj) > 1, so phi1 never sees an argument with real part
    above 1: no overflow where S_jj decays much faster than S_ii, and the
    exponential factor underflows only where the entry itself is below
    ~1e-307.  The threshold is 1 rather than 0 so that the first form, and
    its rounding, is kept wherever it is accurate.
    dt may be an array broadcasting against the samples.  The closed form is
    evaluated in blocks of SAMPLE_BLOCK samples.  Any other B takes one
    batched scipy.linalg.expm call over the stacked modes (scalar dt).
    """
    if np.any(np.asarray(dt) < 0.0):
        raise ValueError("dt must be nonnegative")
    n = sym.n
    if _closed_form_exponential(sym):
        return Propagator(dt=dt, rows=_closed_form_rows(sym, xi2, xi1, dt))
    # imported here only: scipy.linalg adds ~29 MiB to a process that needs
    # none of it on the closed-form path
    import scipy.linalg

    E = scipy.linalg.expm(_symbol_stack(sym, xi2, xi1) * dt)
    rows = tuple(tuple((j, np.ascontiguousarray(E[..., i, j])) for j in range(n)
                       if np.any(E[..., i, j] != 0.0))
                 for i in range(n))
    return Propagator(dt=dt, rows=rows)


def _specnorm_upper_2x2(e11, e12, e22):
    """Largest singular value of ((e11, e12), (0, e22)), vectorized."""
    f2 = np.abs(e11) ** 2 + np.abs(e12) ** 2 + np.abs(e22) ** 2
    det2 = np.abs(e11 * e22) ** 2
    disc = np.sqrt(np.maximum(f2**2 - 4.0 * det2, 0.0))
    return np.sqrt(0.5 * (f2 + disc))


def semigroup_envelope(sym: SymbolMatrix, t_grid, xi_grid,
                       cap: float = 1e6) -> tuple[float, float]:
    """Measured constant K in |e^(t L_alpha)| <= K e^(-nu t) with the sharp nu.

    sym is the weighted 1D symbol of a two-component triangular system.  nu
    is its negated closed-form abscissa (positive inside the admissible band
    and at its closure); K_est is the max over the (t, xi) samples of
    e^(nu t) |exp(t S(xi))| in spectral norm, computed with the exact
    propagator.  A value beyond `cap` indicates nu was taken outside the
    valid band and is reported as an error.
    """
    if sym.n != 2 or not sym.is_triangular:
        raise ValueError("the envelope needs a triangular two-component symbol")
    nu = -closed_form_abscissa(sym)
    if not nu > 0.0:
        raise ValueError("weighted abscissa is not negative; alpha outside the valid band")
    t = np.asarray(t_grid, dtype=float).reshape(-1, 1)
    xi = np.asarray(xi_grid, dtype=float).reshape(1, -1)
    if t.size == 0 or xi.size == 0:
        raise ValueError("t_grid and xi_grid must be nonempty")
    if np.any(t < 0.0):
        raise ValueError("t_grid must be nonnegative")
    xi2 = xi**2
    K = 0.0
    step = max(1, SAMPLE_BLOCK // xi.size)  # times per block of SAMPLE_BLOCK samples
    for lo in range(0, len(t), step):
        tb = t[lo:lo + step]
        first, second = exact_propagator(sym, xi2, xi, tb).rows
        e12 = dict(first).get(1, 0.0)
        env = np.exp(nu * tb) * _specnorm_upper_2x2(first[0][1], e12, second[0][1])
        K = float(np.maximum(K, np.max(env)))  # propagates a NaN sample
    if not K <= cap:
        raise RuntimeError(
            f"semigroup envelope exceeded the cap {cap:g} (K_est = {K:.3e}); "
            "the decay rate nu appears to be outside the valid weight band"
        )
    return K, float(nu)


def write_spectrum_csv(path, sweep: SpectrumSweep) -> None:
    """Spectrum CSV: xi_1..xi_d, then re/im of each eigenvalue, 17 significant digits."""
    names = [f"xi_{i + 1}" for i in range(sweep.xi.shape[1])]
    cols = list(sweep.xi.T)
    for j, ev in enumerate(sweep.eigvals.T):
        names += [f"re_lambda_{j + 1}", f"im_lambda_{j + 1}"]
        cols += [ev.real, ev.imag]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        write_rows(fh, cols, ",".join(["%.17g"] * len(cols)) + "\n")
