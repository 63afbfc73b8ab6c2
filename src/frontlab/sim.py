"""Pseudo-spectral IMEX evolution of the perturbation equation

    v_t = D lap(v) + c dz(v) + B v + N(v) v

of a model.Model, on a periodic box [-L_1, L_1) x ... with the frame/weight
axis first.  The linear part is advanced exactly per discrete Fourier mode
with :func:`frontlab.spectral.exact_propagator`, built once per run on the
half spectrum of the real transform.  Grid alone holds that layout: its
spectrum_shape, its frequencies rxi and the transform pair forward/inverse
(rfftn/irfftn bit for bit, on the last d axes of any stack of fields), which
sim and norms make every transform with.  N is applied pointwise in physical
space by the model's explicit midpoint stage, in place on the field,
composed in Strang order

    L(h) N(dt) L(h),   h = dt / 2,

which is second order in dt and preserves the zero steady state exactly.
Within a run the adjacent half-steps meet in Fourier space,

    L(h) N(dt) L(h) L(h) N(dt) L(h) ... N(dt) L(h),

so each step_imex step costs one real-transform round trip, into the run's
buffers; a linear run takes its record segments as exp(k dt S) instead.
Periodic truncation replaces the unbounded domain: runs are valid while the
perturbation stays clear of the z boundary, and a weighted-mass check warns
the moment wraparound could contaminate the weighted norm.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import norms as _norms
from .model import Model
from .spectral import Propagator, SymbolMatrix, exact_propagator

__all__ = [
    "Grid",
    "FieldState",
    "Perturbation",
    "RunResult",
    "SimulationError",
    "SimulationBlowupError",
    "build_perturbation",
    "linear_propagator",
    "apply_linear_exact",
    "step_imex",
    "dt_max",
    "record_times",
    "run",
]

BOUNDARY_BAND_FRACTION = 0.05
BOUNDARY_MASS_LIMIT = 1e-8
MAX_RUN_STEPS = 10**8  # a longer run is a configuration error, not a hang
# a linear run's record block: spectra, fields and inverse work here, the
# NormRecorder stack and spectrum: about six real fields per record
RECORD_BLOCK_BYTES = 256 * 1024


class SimulationError(RuntimeError):
    """A guard tripped mid-run, after the initial field passed every check."""


class SimulationBlowupError(SimulationError):
    """NaN/Inf appeared in the evolving field; carries the offending time."""

    def __init__(self, t: float):
        super().__init__(f"non-finite field values at t = {t!r}")
        self.t = t


@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid; axis 0 is the advection/weight axis z.

    L holds the per-axis half-lengths, N the per-axis point counts (powers
    of two, at least 16); the spacing is 2 L / N per axis.
    """

    L: tuple
    N: tuple
    cell_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "L", tuple(float(x) for x in np.atleast_1d(self.L)))
        object.__setattr__(self, "N", tuple(int(x) for x in np.atleast_1d(self.N)))
        if len(self.L) != len(self.N):
            raise ValueError("L and N must have one entry per axis")
        if len(self.L) not in (1, 2):
            raise ValueError("the simulator supports d = 1 and d = 2 only")
        for Lx, Nx in zip(self.L, self.N):
            if not 0.0 < Lx < math.inf:
                raise ValueError(f"half-lengths must be positive and finite, got {Lx}")
            if Nx < 16 or (Nx & (Nx - 1)) != 0:
                raise ValueError(f"point counts must be powers of two >= 16, got {Nx}")
        object.__setattr__(self, "cell_volume",
                           float(np.prod([self.h(ax) for ax in range(self.d)])))

    @property
    def d(self) -> int:
        return len(self.N)

    @property
    def shape(self) -> tuple:
        return self.N

    def h(self, axis: int) -> float:
        return 2.0 * self.L[axis] / self.N[axis]

    def coords(self, axis: int) -> np.ndarray:
        return -self.L[axis] + self.h(axis) * np.arange(self.N[axis])

    def xi(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N[axis], d=self.h(axis))

    @property
    def spectrum_shape(self) -> tuple:
        """Shape of the half spectrum of the real transform: the last axis halved."""
        return self.N[:-1] + (self.N[-1] // 2 + 1,)

    def rxi(self, axis: int) -> np.ndarray:
        """Angular frequencies of axis on the half spectrum, shaped to broadcast
        over spectrum_shape."""
        if axis == self.d - 1:
            xi = 2.0 * np.pi * np.fft.rfftfreq(self.N[axis], d=self.h(axis))
        else:
            xi = self.xi(axis)
        return xi.reshape([-1 if ax == axis else 1 for ax in range(self.d)])

    def forward(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Half spectrum of u over its last d axes, into out if given: rfftn's
        own one-axis calls (rfft over the last axis, then fft over the others
        in descending order), so rfftn bit for bit."""
        out = np.fft.rfft(u, axis=-1, out=out)
        for ax in range(-2, -self.d - 1, -1):
            np.fft.fft(out, axis=ax, out=out)
        return out

    def inverse(self, vh: np.ndarray, out: Optional[np.ndarray] = None,
                work: Optional[np.ndarray] = None) -> np.ndarray:
        """Real field of the half spectrum vh over its last d axes, into out if
        given: irfftn's own one-axis calls (ifft over the others in ascending
        order, then irfft), so irfftn bit for bit.  The iffts write to work,
        which may be vh itself; vh is kept otherwise."""
        for ax in range(-self.d, -1):
            vh = np.fft.ifft(vh, axis=ax, out=work)
        return np.fft.irfft(vh, n=self.N[-1], axis=-1, out=out)


@dataclass
class FieldState:
    """Perturbation field v on a grid at a time.

    data has shape (model.n, *grid.shape); the model's n1 components form
    the first block.
    """

    t: float
    data: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(t=self.t, data=self.data.copy())


@dataclass(frozen=True)
class Perturbation:
    """Initial-perturbation recipe: localized profile times a component mask.

    shape      : 'gaussian' (exp(-((x - center)/width)^2) per axis) or
                 'bump' (compactly supported, vanishing outside the widths)
    amplitude  : literal amplitude, or None to rescale to the target eta
    eta        : target intersection-space norm; overrides amplitude
    center     : per-axis center
    widths     : per-axis widths (> 0)
    mask       : 0/1 per component
    """

    shape: str = "gaussian"
    amplitude: Optional[float] = 1.0
    eta: Optional[float] = None
    center: tuple = (0.0,)
    widths: tuple = (1.0,)
    mask: tuple = (1, 1)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(x) for x in np.atleast_1d(self.center)))
        object.__setattr__(self, "widths", tuple(float(x) for x in np.atleast_1d(self.widths)))
        mask = np.atleast_1d(self.mask).tolist()
        if not all(x in (0, 1) for x in mask):  # booleans included
            raise ValueError(f"mask entries must be 0 or 1, got {self.mask}")
        object.__setattr__(self, "mask", tuple(int(x) for x in mask))
        if self.shape not in ("gaussian", "bump"):
            raise ValueError(f"unknown perturbation shape {self.shape!r}")
        if self.amplitude is not None and not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be nonnegative and finite, got {self.amplitude}")
        if self.eta is not None and not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta}")
        if not all(math.isfinite(x) for x in self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not all(0.0 < w < math.inf for w in self.widths):
            raise ValueError(f"widths must be positive and finite, got {self.widths}")


def build_perturbation(grid: Grid, pert: Perturbation, model: Model,
                       alpha: float) -> tuple[FieldState, dict]:
    """Sample the perturbation on the grid and measure its starting norms.

    Returns (state at t = 0, norms dict with |.|_0, |.|_alpha, |.|_E at
    k = 0), with alpha the weight exponent.  When pert.eta is set, the
    amplitude is rescaled so the intersection norm equals eta exactly, and
    the two norms are measured again.  A profile whose support does not fit
    inside the box is rejected (3 widths for the Gaussian, 1 width for the
    compact bump, per axis).
    """
    ncomp = model.n
    if len(pert.mask) != ncomp:
        raise ValueError(f"mask length {len(pert.mask)} does not match {ncomp} components")
    if len(pert.center) != grid.d or len(pert.widths) != grid.d:
        raise ValueError("center and widths must have one entry per grid axis")
    reach = 3.0 if pert.shape == "gaussian" else 1.0
    for ax in range(grid.d):
        if (pert.center[ax] - reach * pert.widths[ax] < -grid.L[ax]
                or pert.center[ax] + reach * pert.widths[ax] > grid.L[ax]):
            raise ValueError(
                f"perturbation support exceeds the grid on axis {ax}: "
                f"center {pert.center[ax]}, width {pert.widths[ax]}, "
                f"half-length {grid.L[ax]}"
            )
    profile = np.ones(grid.shape)
    for ax in range(grid.d):
        s = (grid.coords(ax) - pert.center[ax]) / pert.widths[ax]
        if pert.shape == "gaussian":
            fac = np.exp(-(s**2))
        else:
            fac = np.zeros_like(s)
            inside = np.abs(s) < 1.0
            fac[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        shape = [1] * grid.d
        shape[ax] = s.size
        profile = profile * fac.reshape(shape)
    amp = 1.0 if pert.amplitude is None else pert.amplitude
    data = np.zeros((ncomp,) + grid.shape)
    for i, m in enumerate(pert.mask):
        if m:
            data[i] = amp * profile

    def measure():
        return _norms.norm_unweighted(grid, data, 0), _norms.norm_weighted(grid, data, alpha, 0)

    norms = measure()  # |v|_E is their max
    if pert.eta is not None and max(norms) == 0.0 < pert.eta:
        raise ValueError("cannot rescale a zero field to a positive eta")
    if pert.eta is not None and max(norms) > 0.0:
        data *= pert.eta / max(norms)
        norms = measure()
    report = {"norm0": norms[0], "normalpha": norms[1], "normE": max(norms)}
    return FieldState(t=0.0, data=data), report


def linear_propagator(model: Model, grid: Grid, dt: float) -> Propagator:
    """exp(dt S(xi)) of the unweighted symbol on every mode of the half spectrum.

    The z-axis Nyquist plane is its own mirror mode, so the advection phase
    would break the conjugate symmetry real fields need; it is projected to
    zero (its content is below rounding for resolved fields).  Its index
    N_z / 2 is the same in 1D, where z is the halved axis, and in 2D, where
    z is the full first axis.  exact_propagator writes the entries into the
    arrays kept here, in row blocks of blocks.SAMPLE_BLOCK samples.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    xi2 = sum(grid.rxi(ax) ** 2 for ax in range(grid.d))
    xi1 = np.broadcast_to(grid.rxi(0), grid.spectrum_shape)
    prop = exact_propagator(SymbolMatrix.of(model, d=grid.d), xi2, xi1, dt)
    for row in prop.rows:
        for _, e in row:
            e[grid.N[0] // 2] = 0.0
    return prop


def _propagate(prop: Propagator, vh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """prop applied to the half spectrum vh of shape (ncomp, *spectrum shape).

    The result is written to out, which must not share memory with vh.
    """
    for i, ((j, e), *rest) in enumerate(prop.rows):
        np.multiply(e, vh[j], out=out[i])
        for j, e in rest:
            out[i] += e * vh[j]
    return out


def apply_linear_exact(grid: Grid, state: FieldState, prop: Propagator) -> FieldState:
    """Advance the linear flow exactly by prop.dt, mode by mode.

    prop is a linear_propagator on this grid.  Every retained mode evolves
    by exactly exp(dt S(xi)); the single z-axis Nyquist plane is projected
    out to keep the map real and a semigroup.
    """
    vh = grid.forward(state.data)
    data = grid.inverse(_propagate(prop, vh, np.empty_like(vh)), work=vh)
    return FieldState(t=state.t + prop.dt, data=data)


def dt_max(model: Model, state: FieldState) -> float:
    """Stability heuristic for the explicit nonlinear stage: 0.5 / |DH|_inf.

    The bound is estimated on the current field values; linear stiffness is
    irrelevant because the linear stage is exact.
    """
    return _stage_bound(model.stage_rate(state.data))


def _stage_bound(rate: float) -> float:
    return math.inf if rate == 0.0 else 0.5 / rate


def _check_stage_bound(bound: float, dt: float, t: float) -> None:
    if dt > bound:
        raise ValueError(f"dt = {dt} exceeds the explicit-stage stability bound "
                         f"{bound:.3e} at t = {t:.6g}")


def step_imex(model: Model, grid: Grid, vh: np.ndarray, t: float, half: Propagator,
              spare: np.ndarray, u: np.ndarray, steps: int = 1) -> float:
    """`steps` Strang steps of dt = 2 half.dt in place on the half spectrum vh
    (exact half linear, explicit midpoint nonlinear, half linear); returns
    t + dt accumulated step by step.

    half is linear_propagator(model, grid, dt / 2), applied twice in Fourier
    space between two explicit stages, so a step costs one real-transform
    round trip: grid.inverse into the field u, of shape (model.n,
    *grid.shape), model.midpoint_stage in place on u (one scratch array
    serves all the steps), and grid.forward of u into spare, shaped like
    vh.  dt is checked against the dt_max bound of
    each stage's field, from the rate midpoint_stage returns (ValueError); a
    non-finite spectrum aborts with the time of the step it appeared in.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = 2.0 * half.dt
    work = np.empty((model.n + 1,) + u.shape[1:])
    for _ in range(steps):
        grid.inverse(_propagate(half, vh, spare), u, vh)
        rate = model.midpoint_stage(u, dt, work)
        _check_stage_bound(_stage_bound(rate), dt, t)
        _propagate(half, grid.forward(u, spare), vh)
        t = t + dt
        if not np.all(np.isfinite(vh)):
            raise SimulationBlowupError(t)
    return t


def _boundary_mass_fractions(grid: Grid, fields: np.ndarray, alpha: float) -> np.ndarray:
    """Weighted-mass fraction in the outer 5% bands of the z axis, per record
    of fields, shape (records, ncomp, *grid.shape).

    The weights exp(2 alpha z) are scaled by exp(-2 alpha z_ref), z_ref the
    largest z where the record is nonzero, so none of them overflows on a
    long box; beyond z_ref the record is zero and its weight is capped at 1.
    An all-zero record has fraction 0.
    """
    z = grid.coords(0)
    band = np.abs(z) >= (1.0 - BOUNDARY_BAND_FRACTION) * grid.L[0]
    nonzero = np.any(fields != 0.0, axis=(1,) + tuple(range(3, fields.ndim)))
    z_ref = z[z.size - 1 - np.argmax(nonzero[:, ::-1], axis=1)]
    gamma2 = np.exp(2.0 * alpha * np.minimum(z - z_ref[:, None], 0.0))
    w = np.square(fields) * gamma2.reshape(gamma2.shape[:1] + (1, z.size) + (1,) * (grid.d - 1))
    per_record = tuple(range(1, fields.ndim))
    total = np.sum(w, axis=per_record)
    with np.errstate(invalid="ignore"):
        frac = np.sum(np.compress(band, w, axis=2), axis=per_record) / total
    frac[total == 0.0] = 0.0
    return frac


def _schedule(T: float, dt: float, record_every: int) -> tuple[int, float]:
    """(steps, step) of a run to time T: dt lowered to land on T exactly.

    ValueError unless T and dt are positive and finite, T / dt is at most
    MAX_RUN_STEPS and record_every is at least 1.
    """
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise ValueError("T and dt must be positive and finite")
    if not T / dt <= MAX_RUN_STEPS:
        raise ValueError(f"T / dt = {T / dt:.3g} steps exceeds the limit of "
                         f"{MAX_RUN_STEPS:.0e} steps per run")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    nsteps = max(1, math.ceil(T / dt - 1e-12))
    return nsteps, T / nsteps


def record_times(T: float, dt: float, record_every: int) -> list:
    """Record times of run(..., T=T, dt=dt, record_every=record_every) from a
    field at t = 0, known before the run: 0, then the time summed step by
    step after every record_every steps and after the last."""
    nsteps, step_dt = _schedule(T, dt, record_every)
    times, t = [0.0], 0.0
    for step in range(1, nsteps + 1):
        t = t + step_dt
        if step % record_every == 0 or step == nsteps:
            times.append(t)
    return times


@dataclass
class RunResult:
    """Norm series, snapshots, and diagnostics of one evolution."""

    series: _norms.NormSeries
    snapshots: list
    warnings: list
    dt: float
    nsteps: int


def run(model: Model, grid: Grid, perturbation: Union[Perturbation, FieldState],
        alpha: float, T: float, dt: float, record_every: int = 1,
        nonlinear: bool = True) -> RunResult:
    """Integrate to time T, recording the norm table every record_every steps.

    alpha is the exponent of the weight exp(alpha z) the norms are measured in.

    dt is adjusted (downward) to land on T exactly; output is deterministic
    for fixed inputs.  A T / dt above MAX_RUN_STEPS (or overflowing) raises
    ValueError.  Snapshots hold the initial and final states.  A
    boundary-contamination warning is recorded (and issued once via
    warnings.warn) when the weighted mass within 5% of the z boundary
    exceeds 1e-8 of the total.  Each record's half spectrum is the previous
    one advanced by a segment of k steps: exp(k dt S) with nonlinear=False,
    one step_imex call otherwise.  Records go back to fields and are measured
    in blocks, one inverse transform and one NormRecorder pass per block (up
    to RECORD_BLOCK_BYTES of buffers when linear, one record when nonlinear).
    Record times are t + dt accumulated step by step.  A FieldState whose
    data is not finite or not (model.n, *grid.shape), and inputs the initial
    field already fails (dt above dt_max, a weighted-norm overflow), raise
    ValueError; a guard that trips later raises SimulationError naming the
    first record it trips at.  The (v1, v2) split of the records is model.n1.
    """
    nsteps, dt_eff = _schedule(T, dt, record_every)
    if isinstance(perturbation, FieldState):
        if perturbation.data.shape != (model.n,) + grid.shape:
            raise ValueError(f"field shape {perturbation.data.shape} is not (model.n, *grid "
                             f"shape) = {(model.n,) + grid.shape}")
        if not np.all(np.isfinite(perturbation.data)):
            raise ValueError("the initial field has non-finite values")
        state = perturbation.copy()
    else:
        state, _ = build_perturbation(grid, perturbation, model, alpha)
    block = 1 if nonlinear else max(1, min(-(-nsteps // record_every),
                                           RECORD_BLOCK_BYTES // (6 * state.data.nbytes)))
    recorder = _norms.NormRecorder(grid, alpha, model.n, model.n1, records=block)
    times, records = [], []
    warnlog: list[str] = []

    def measure(fields: np.ndarray, spectra: np.ndarray, stamps: list):
        """Record a block of fields and their half spectra at times stamps, the
        guards in record order: each record's weight overflow, then its boundary mass."""
        fracs = _boundary_mass_fractions(grid, fields, alpha)
        measured, failure = len(stamps), None
        try:
            records.extend(recorder.record(fields, spectra))
        except _norms.WeightOverflowError as exc:
            measured, failure = exc.record, exc
        over = np.flatnonzero(fracs[:measured] > BOUNDARY_MASS_LIMIT)
        if over.size and not warnlog:
            msg = (f"boundary contamination at t = {stamps[over[0]]:.6g}: weighted mass "
                   f"fraction {fracs[over[0]]:.3e} in the outer 5% of the z axis")
            warnlog.append(msg)
            _warnings.warn(msg, RuntimeWarning, stacklevel=3)
        if failure is not None:
            if not times:  # the initial field: a bad input
                raise failure
            raise SimulationError(f"{failure} at t = {stamps[measured]:.6g}") from failure
        times.extend(stamps)

    # slot 0 carries the last spectrum of the previous block
    spectra = np.empty((block + 1, model.n) + grid.spectrum_shape, dtype=complex)
    fields = np.empty((block,) + state.data.shape)
    grid.forward(state.data, spectra[0])
    measure(state.data[None], spectra[:1], [state.t])
    if nonlinear:
        half = linear_propagator(model, grid, 0.5 * dt_eff)
        _check_stage_bound(dt_max(model, state), dt_eff, state.t)

        def advance(src, dst, steps, t):  # src, the carry slot of a one-record block, is free
            dst[...] = src
            try:
                return step_imex(model, grid, dst, t, half, src, fields[0], steps)
            except ValueError as exc:
                raise SimulationError(str(exc)) from exc
    else:
        segment_props = {}  # steps -> exp(steps dt S), one per segment length

        def advance(src, dst, steps, t):
            if steps not in segment_props:
                segment_props[steps] = linear_propagator(model, grid, steps * dt_eff)
            _propagate(segment_props[steps], src, dst)
            for _ in range(steps):
                t = t + dt_eff
            return t

    t, step = state.t, 0
    while step < nsteps:
        stamps = []
        while len(stamps) < block and step < nsteps:
            steps = min(record_every, nsteps - step)
            t = advance(spectra[len(stamps)], spectra[len(stamps) + 1], steps, t)
            step += steps
            stamps.append(t)
        b = len(stamps)
        grid.inverse(spectra[1:b + 1], fields[:b])
        finite = np.all(np.isfinite(fields[:b]), axis=tuple(range(1, fields.ndim)))
        ok = b if np.all(finite) else int(np.argmin(finite))
        if ok:
            measure(fields[:ok], spectra[1:ok + 1], stamps[:ok])
        if ok < b:
            raise SimulationBlowupError(stamps[ok])
        spectra[0] = spectra[b]
    series = _norms.NormSeries.from_records(times, records)
    # a copy of the final field, made last, would keep the freed run buffers resident
    return RunResult(series=series, snapshots=[state, FieldState(t=t, data=fields[b - 1])],
                     warnings=warnlog, dt=dt_eff, nsteps=nsteps)
