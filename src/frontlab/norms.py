"""Discrete unweighted/weighted/intersection norms, decay fits, and verdicts.

Norm conventions on a periodic grid: the squared discrete L2 norm is the
cell volume times the sum of squares over all components and grid points;
the H1 variant adds the squared spectral gradient.  The weighted norm
applies the pointwise factor exp(alpha z) along the first grid axis before
measuring, and the intersection norm is the max of the two:

    |v|_E = max(|v|_0, |v|_alpha).

Weighting is a measurement device only: the evolution itself is always the
unweighted equation, and these functions are applied in post-processing.

NormRecorder measures a block of records, handed their half spectra, in one
pass on the kernels of the single-norm functions, with the same values bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .blocks import format_value, write_rows

__all__ = [
    "NormSeries",
    "DecayFit",
    "VerdictReport",
    "norm_unweighted",
    "norm_weighted",
    "NormRecorder",
    "WeightOverflowError",
    "fit_window",
    "fit_decay",
    "verify_stability_theorem",
    "write_norms_csv",
]

WEIGHT_OVERFLOW_LIMIT = 700.0
SUPPORT_CUTOFF = 1e-300
# record times are sums of dt: a record this close to a fit-window edge,
# relative to the largest |t|, is on the edge (round-off there is ~1e-14)
WINDOW_EDGE_RTOL = 1e-9
FIT_SKIP_FRACTION = 0.1   # share of the time range the default fit window drops
MIN_FIT_SAMPLES = 10      # fewest samples fit_decay fits a rate to
VERDICT_SOBOLEV_K = 0     # the verdict's norms are H^0


def _component_view(data: np.ndarray, grid) -> np.ndarray:
    """Reshape to (ncomp, *grid.shape), accepting bare single-component fields."""
    data = np.asarray(data, dtype=float)
    if data.shape == grid.shape:
        return data.reshape((1,) + grid.shape)
    if data.shape[-len(grid.shape):] == grid.shape:
        return data.reshape((-1,) + grid.shape)
    raise ValueError(f"field shape {data.shape} does not match grid shape {grid.shape}")


class _Parseval:
    """sum |dv/dx|^2 = sum w xi^2 |vh|^2 / npoints on the half spectrum
    grid.forward gives; w = 2 on the halved axis except its DC and Nyquist
    bins (no mirror)."""

    def __init__(self, grid):
        self.npoints = float(np.prod(grid.shape))
        self.weight = np.full(grid.spectrum_shape[-1], 2.0)
        self.weight[0] = self.weight[-1] = 1.0
        self.xi2 = [grid.rxi(ax) ** 2 for ax in range(grid.d)]

    def gradient_sums(self, vh: np.ndarray, blocks: Sequence[slice], work: np.ndarray) -> list:
        """Squared spectral gradient per record and block of rows of vh, shape
        (records, rows, *spectrum shape); work, complex of that shape (vh
        itself allowed), is used up."""
        power, scratch = work.real, work.imag
        np.multiply(vh.real, vh.real, out=power)
        power += np.multiply(vh.imag, vh.imag, out=scratch)
        power *= self.weight
        per_record = tuple(range(1, vh.ndim))
        totals = [0.0] * len(blocks)
        for xi2 in self.xi2:
            np.multiply(xi2, power, out=scratch)
            for i, rows in enumerate(blocks):
                totals[i] = totals[i] + np.sum(scratch[:, rows], axis=per_record) / self.npoints
        return totals


def _gradient_sq_sum(grid, comps: np.ndarray) -> float:
    """Sum of squared spectral derivatives over all axes and components."""
    vh = grid.forward(comps)[None]
    return float(_Parseval(grid).gradient_sums(vh, (slice(None),), vh)[0][0])


def _sq_total(grid, comps: np.ndarray, k: int) -> float:
    """Sum of squares of comps, plus the squared gradient for k = 1 (overflow: inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(comps**2))
        if k == 1:
            total += _gradient_sq_sum(grid, comps)
    return total


def _finish(grid, comps: np.ndarray, k: int, total: float) -> float:
    """sqrt(cell volume * total); an overflowed total is taken again on comps
    scaled by a power of two (finite totals are never rescaled)."""
    if not math.isfinite(total):
        peak = float(np.max(np.abs(comps)))
        if 0.0 < peak < math.inf:
            e = math.frexp(peak)[1]
            scaled = _sq_total(grid, np.ldexp(comps, -e), k)
            return math.ldexp(math.sqrt(grid.cell_volume * scaled), e)
    return math.sqrt(grid.cell_volume * total)


class WeightOverflowError(ValueError):
    """A field has support where its weight exp(alpha z) passes exp(700).

    record is the field's index in the block NormRecorder.record measured
    (0 for a single field).
    """

    def __init__(self, message: str, record: int = 0):
        super().__init__(message)
        self.record = record


def _weight(grid, alpha: float) -> np.ndarray:
    """exp(alpha z) shaped to broadcast along the first grid axis of a field
    (the d-th axis from the end); entries past exp(709) are inf."""
    with np.errstate(over="ignore"):
        gamma = np.exp(alpha * grid.coords(0))
    return gamma.reshape((-1,) + (1,) * (len(grid.shape) - 1))


def _check_support(comps: np.ndarray, alpha: float, z: np.ndarray,
                   beyond: np.ndarray, record: int = 0) -> None:
    """Reject a field with support where alpha z > WEIGHT_OVERFLOW_LIMIT (beyond)."""
    if not np.any(beyond) or not np.any(np.abs(comps[:, beyond]) > SUPPORT_CUTOFF):
        return
    support = np.any(np.abs(comps) > SUPPORT_CUTOFF, axis=0)
    axes = tuple(range(1, support.ndim))
    support_z = np.any(support, axis=axes) if axes else support
    max_az = alpha * float(np.max(z[support_z]))
    raise WeightOverflowError(
        f"weighted norm overflow: alpha * z reaches {max_az:.1f} > "
        f"{WEIGHT_OVERFLOW_LIMIT:g} on the field support "
        "(field is boundary-contaminated)", record)


def _weigh(comps: np.ndarray, gamma: np.ndarray, out: np.ndarray) -> np.ndarray:
    """comps * gamma into out (gamma from _weight); exact zeros stay 0."""
    out[...] = 0.0
    return np.multiply(comps, gamma, out=out, where=comps != 0.0)


def norm_unweighted(grid, data, k: int = 0) -> float:
    """Discrete H^k norm (k in {0, 1}) of a (multi-component) field.

    k = 0 is the cell-volume-scaled root sum of squares; k = 1 adds the
    squared gradient obtained by spectral differentiation.
    """
    if k not in (0, 1):
        raise ValueError(f"Sobolev index k must be 0 or 1, got {k}")
    comps = _component_view(data, grid)
    return _finish(grid, comps, k, _sq_total(grid, comps, k))


def norm_weighted(grid, data, alpha: float, k: int = 0) -> float:
    """Weighted norm |exp(alpha z) v|_{H^k} along the first grid axis.

    Rejects fields whose support reaches weights beyond exp(700): such a
    field is boundary-contaminated and the measurement meaningless.  An
    exact zero contributes 0 even where its weight overflows to inf.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    comps = _component_view(data, grid)
    z = grid.coords(0)
    _check_support(comps, alpha, z, alpha * z > WEIGHT_OVERFLOW_LIMIT)
    weighted = _weigh(comps, _weight(grid, alpha), np.empty_like(comps))
    return norm_unweighted(grid, weighted, k)


class NormRecorder:
    """The NormSeries columns of one run's records, one pass per block of records.

    The weight, support bound, Parseval weights and the buffers for the
    stack (v, exp(alpha z) v) of up to `records` fields and the spectrum of
    its weighted rows are built once; the caller hands in the spectra of v.
    Handed grid.forward of the block, values equal norm_unweighted /
    norm_weighted bit for bit, and a block of B records equals B blocks of one.
    """

    def __init__(self, grid, alpha: float, ncomp: int, n1: int, records: int = 1):
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        self.grid, self.alpha, self.n = grid, alpha, ncomp
        self.z = grid.coords(0)
        self.beyond = alpha * self.z > WEIGHT_OVERFLOW_LIMIT
        self.gamma = _weight(grid, alpha)
        self.parseval = _Parseval(grid)
        self.blocks = (slice(0, n1), slice(n1, ncomp), slice(ncomp, 2 * ncomp))
        self.stack = np.empty((records, 2 * ncomp) + grid.shape)
        self.spectrum = np.empty((records, ncomp) + grid.spectrum_shape, dtype=complex)

    def record(self, block: np.ndarray, spectra: np.ndarray) -> list:
        """[{(name, k): norm}] for each field of block, every NormSeries name
        and k = 0, 1; block has shape (records, ncomp, *grid shape) and its
        half spectra (records, ncomp, *spectrum shape); neither is written to.

        A field with support past the weight range raises
        WeightOverflowError naming the first such record.
        """
        n, b = self.n, len(block)
        self._check_block(block)
        stack = self.stack[:b]
        stack[:, :n] = block
        _weigh(block, self.gamma, stack[:, n:])
        per_record = tuple(range(1, stack.ndim))
        with np.errstate(over="ignore", invalid="ignore"):  # as in _sq_total
            grads = self.parseval.gradient_sums(spectra, self.blocks[:2], self.spectrum[:b])
            weighted = self.grid.forward(stack[:, n:], self.spectrum[:b])
            grads += self.parseval.gradient_sums(weighted, (slice(None),), weighted)
            plain = [np.sum(np.square(stack[:, rows], out=stack[:, rows]), axis=per_record)
                     for rows in self.blocks]
            columns = {k: [self._norms(rows, k, s + g if k == 1 else s, block)
                           for rows, s, g in zip(self.blocks, plain, grads)] for k in (0, 1)}
        records = [{} for _ in range(b)]
        for k, (n_v1, n_v2, n_a) in columns.items():
            for norms, v1, v2, a in zip(records, n_v1, n_v2, n_a):
                # block orthogonality: |v|^2 = |v1|^2 + |v2|^2 exactly
                v = math.hypot(v1, v2)
                norms[("norm0_v1", k)] = v1
                norms[("norm0_v2", k)] = v2
                norms[("norm0_v", k)] = v
                norms[("normalpha_v", k)] = a
                norms[("normE_v", k)] = max(v, a)
        return records

    def _check_block(self, block: np.ndarray) -> None:
        """_check_support on the first field of block with support past the weight range."""
        if not np.any(self.beyond):
            return
        reaches = np.any(np.abs(block[:, :, self.beyond]) > SUPPORT_CUTOFF,
                         axis=tuple(range(1, block.ndim)))
        if np.any(reaches):
            i = int(np.argmax(reaches))
            _check_support(block[i], self.alpha, self.z, self.beyond, record=i)

    def _norms(self, rows: slice, k: int, totals: np.ndarray, block: np.ndarray) -> list:
        """_finish of each record's total: one sqrt for the block, and an
        overflowed total taken again on its rows of the record."""
        norms = np.sqrt(self.grid.cell_volume * totals).tolist()
        for i in np.flatnonzero(~np.isfinite(totals)):
            data = block[i]  # the stack holds squares now: rebuild the rows
            comps = (data[rows] if rows.stop <= self.n
                     else _weigh(data, self.gamma, np.empty_like(data)))
            norms[i] = _finish(self.grid, comps, k, float(totals[i]))
        return norms


@dataclass
class NormSeries:
    """Norm table of a simulation run: one row per (time, Sobolev index)."""

    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    columns: dict = field(default_factory=dict)   # (name, k) -> np.ndarray

    NAMES = ("norm0_v1", "norm0_v2", "norm0_v", "normalpha_v", "normE_v")

    @classmethod
    def from_records(cls, times: Sequence[float], records: Sequence[dict]) -> "NormSeries":
        times = np.asarray(times, dtype=float)
        cols = {}
        for key in records[0]:
            cols[key] = np.array([r[key] for r in records])
        return cls(times=times, columns=cols)

    def column(self, name: str, k: int = 0) -> np.ndarray:
        return self.columns[(name, k)]

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class DecayFit:
    """Least-squares exponential fit log(value) ~ log(K) - nu t."""

    nu: float
    K: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int
    decayed_to_zero: bool = False
    first_nonpositive_t: Optional[float] = None


def fit_window(times, window: Optional[tuple] = None) -> tuple[tuple, np.ndarray]:
    """(window, mask of the times inside it) of a decay fit on times.

    The window defaults to the full range with its first FIT_SKIP_FRACTION
    dropped (initial transient).  A time within WINDOW_EDGE_RTOL (relative
    to the largest |t|) of an edge counts as inside, so the samples do not
    depend on round-off in a time axis summed from steps.
    """
    t = np.asarray(times, dtype=float)
    if window is None:
        window = (t[0] + FIT_SKIP_FRACTION * (t[-1] - t[0]), t[-1])
    slack = WINDOW_EDGE_RTOL * float(np.max(np.abs(t), initial=0.0))
    return window, (t >= window[0] - slack) & (t <= window[1] + slack)


def fit_decay(times, values, window: Optional[tuple] = None) -> DecayFit:
    """Fit an exponential decay rate on a time window of a positive series.

    The samples are those fit_window selects; fewer than MIN_FIT_SAMPLES
    raise ValueError.  Nonpositive values inside the window mean the series
    decayed below measurability: the fit is reported with the +inf rate
    sentinel instead of failing.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    window, sel = fit_window(t, window)
    if int(np.sum(sel)) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples in the fit window, "
                         f"got {int(np.sum(sel))}")
    tw, yw = t[sel], y[sel]
    if np.any(yw <= 0.0):
        first_bad = float(tw[np.argmax(yw <= 0.0)])
        return DecayFit(nu=math.inf, K=0.0, r_squared=0.0,
                        window=(float(window[0]), float(window[1])),
                        n_samples=int(np.sum(sel)),
                        decayed_to_zero=True, first_nonpositive_t=first_bad)
    ly = np.log(yw)
    slope, intercept = np.polyfit(tw, ly, 1)
    resid = ly - (slope * tw + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(nu=float(-slope), K=float(np.exp(intercept)), r_squared=r2,
                    window=(float(window[0]), float(window[1])),
                    n_samples=int(np.sum(sel)))


@dataclass
class VerdictReport:
    """Pass/fail per theorem item with the measured constants."""

    items: dict
    overall: bool
    context: dict

    def to_text(self) -> str:
        lines = []
        for key, val in self.context.items():
            lines.append(f"{key}: {format_value(val)}")
        for name in sorted(self.items):
            item = self.items[name]
            for key, val in item.items():
                lines.append(f"{name}_{key}: {format_value(val)}")
        lines.append(f"overall_pass: {str(self.overall).lower()}")
        return "\n".join(lines) + "\n"


def verify_stability_theorem(series: NormSeries, eta: float, delta: float,
                             nu_expected: float, rho_expected: float,
                             rate_floor: float = 0.8,
                             c1_cap: float = 10.0,
                             window: Optional[tuple] = None) -> VerdictReport:
    """Evaluate the stability-theorem items on a recorded norm series, in
    the H^VERDICT_SOBOLEV_K norms.

    (2) sup_t |v(t)|_E <= delta;
    (3) fitted weighted decay rate >= rate_floor * nu_expected, with the
        pointwise constant C3 = max_t |v(t)|_alpha e^(nu_fit t) / |v0|_alpha
        reported;
    (4) sup_t |v1(t)|_0 <= c1_cap * |v0|_E;
    (5) fitted |v2|_0 decay rate >= rate_floor * rho_expected.

    The two sharp linear rates come from the symbol: nu_expected is minus
    the weighted abscissa (c alpha - alpha^2 for combustion), rho_expected
    minus the largest second-block family vertex (kappa e^-kappa).  The
    theorem's constants are existential, so measured values are always
    reported; failures are verdicts, never errors.
    """
    t = series.times
    k = VERDICT_SOBOLEV_K
    vE = series.column("normE_v", k)
    valpha = series.column("normalpha_v", k)
    v1 = series.column("norm0_v1", k)
    v2 = series.column("norm0_v2", k)
    e0 = float(vE[0])

    items = {}
    if np.all(vE == 0.0):
        # zero initial data: the zero solution satisfies everything with
        # zero constants
        items["item2"] = dict(sup_E=0.0, delta=float(delta), passed=True)
        items["item3"] = dict(rate=math.inf, expected=float(nu_expected),
                              floor=rate_floor * float(nu_expected), C=0.0,
                              passed=True)
        items["item4"] = dict(C=0.0, cap=float(c1_cap), passed=True)
        items["item5"] = dict(rate=math.inf, expected=float(rho_expected),
                              floor=rate_floor * float(rho_expected), passed=True)
        overall = True
    else:
        sup_E = float(np.max(vE))
        items["item2"] = dict(sup_E=sup_E, delta=float(delta),
                              passed=bool(sup_E <= delta))

        fit3 = fit_decay(t, valpha, window=window)
        if fit3.decayed_to_zero:
            c3 = 0.0
        else:
            with np.errstate(over="ignore"):
                growth = valpha * np.exp(np.minimum(fit3.nu * t, 700.0))
            c3 = float(np.max(growth) / valpha[0]) if valpha[0] > 0 else math.inf
        items["item3"] = dict(rate=fit3.nu, expected=float(nu_expected),
                              floor=rate_floor * float(nu_expected),
                              C=c3, r_squared=fit3.r_squared,
                              passed=bool(fit3.nu >= rate_floor * nu_expected))

        c4 = float(np.max(v1)) / e0
        items["item4"] = dict(C=c4, cap=float(c1_cap), passed=bool(c4 <= c1_cap))

        fit5 = fit_decay(t, v2, window=window)
        items["item5"] = dict(rate=fit5.nu, expected=float(rho_expected),
                              floor=rate_floor * float(rho_expected),
                              r_squared=fit5.r_squared,
                              passed=bool(fit5.nu >= rate_floor * rho_expected))
        overall = all(it["passed"] for it in items.values())

    context = dict(eta=float(eta), initial_E_norm=e0, rate_floor=rate_floor,
                   sobolev_k=k)
    return VerdictReport(items=items, overall=overall, context=context)


def write_norms_csv(path, series: NormSeries) -> None:
    """Norm-series CSV, one row per (time, k), 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("t,norm0_v1,norm0_v2,norm0_v,normalpha_v,normE_v,k\n")
        for k in (0, 1):
            cols = [series.times] + [series.column(name, k) for name in NormSeries.NAMES]
            write_rows(fh, cols, "%.17g," * len(cols) + f"{k}\n")
