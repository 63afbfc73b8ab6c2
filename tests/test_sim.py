import sys

import numpy as np
import pytest
import scipy.linalg

from frontlab import sim
from frontlab.model import ModelParams, make_exo_endo_system, make_gasless_system
from frontlab.norms import norm_unweighted, norm_weighted
from frontlab.sim import (
    FieldState,
    Grid,
    Perturbation,
    SimulationBlowupError,
    SimulationError,
    apply_linear_exact,
    build_perturbation,
    dt_max,
    linear_propagator,
    record_times,
    run,
    step_imex,
)
from frontlab.spectral import SymbolMatrix, eval_symbol
from oracles import (exact_propagator_oneshot, instability_scan, make_combustion_system,
                     norm_E, step_fields, step_imex_rfftn, traced_peak, validate_series)

ALPHA = 0.4


def params(eps=0.5, kappa=1.0, c=1.0):
    return ModelParams(epsilon=eps, kappa=kappa, c=c)


class TestGrid:
    def test_basic_1d(self):
        g = Grid(L=20.0, N=64)
        assert g.d == 1 and g.shape == (64,)
        assert g.h(0) == pytest.approx(40.0 / 64)
        assert g.coords(0)[0] == -20.0
        assert g.cell_volume == pytest.approx(g.h(0))

    def test_basic_2d(self):
        g = Grid(L=(20.0, 10.0), N=(64, 32))
        assert g.d == 2
        assert g.cell_volume == pytest.approx(g.h(0) * g.h(1))

    @pytest.mark.parametrize("kw", [dict(L=20.0, N=64), dict(L=(20.0, 3.7), N=(64, 32))])
    def test_cell_volume_is_a_stored_value(self, kw):
        # computed once at construction, the same float as the product of the spacings
        g = Grid(**kw)
        assert vars(g)["cell_volume"] == float(np.prod([g.h(ax) for ax in range(g.d)]))
        assert g == Grid(**kw) and hash(g) == hash(Grid(**kw))
        assert "cell_volume" not in repr(g)

    @pytest.mark.parametrize("kw", [
        dict(L=20.0, N=48),        # not a power of two
        dict(L=20.0, N=8),         # too small
        dict(L=-1.0, N=64),
        dict(L=np.inf, N=64),
        dict(L=(20.0, np.nan), N=(64, 32)),
        dict(L=(10.0,), N=(64, 32)),
        dict(L=(10.0, 10.0, 10.0), N=(16, 16, 16)),  # d = 3 unsupported
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            Grid(**kw)


class TestBuildPerturbation:
    def test_zero_amplitude(self):
        g = Grid(L=20.0, N=64)
        state, rep = build_perturbation(g, Perturbation(amplitude=0.0), params(), ALPHA)
        assert np.all(state.data == 0.0)
        assert rep["norm0"] == 0.0 and rep["normE"] == 0.0

    def test_gaussian_norm_closed_form(self):
        # |a exp(-(z/w)^2)|_{L2} = a (pi w^2 / 2)^(1/4) on the line
        g = Grid(L=30.0, N=512)
        for w, a in ((1.0, 1.0), (2.5, 0.3)):
            state, rep = build_perturbation(
                g, Perturbation(amplitude=a, widths=(w,), mask=(1, 0)), params(), ALPHA)
            expect = a * (np.pi * w**2 / 2.0) ** 0.25
            assert rep["norm0"] == pytest.approx(expect, rel=1e-2)

    def test_rescale_to_eta_exact(self):
        g = Grid(L=20.0, N=128)
        p = params()
        state, rep = build_perturbation(
            g, Perturbation(eta=1e-3, center=(5.0,), widths=(2.0,), mask=(0, 1)), p, ALPHA)
        assert rep["normE"] == pytest.approx(1e-3, abs=1e-15)
        measured = norm_E(g, state.data, ALPHA, 0)
        assert abs(measured - 1e-3) <= 1e-12

    def test_bump_compact_support(self):
        g = Grid(L=20.0, N=256)
        state, _ = build_perturbation(
            g, Perturbation(shape="bump", center=(3.0,), widths=(2.0,)), params(), ALPHA)
        z = g.coords(0)
        outside = np.abs(z - 3.0) >= 2.0
        assert np.all(state.data[:, outside] == 0.0)
        assert np.any(state.data != 0.0)

    def test_support_exceeding_grid_rejected(self):
        g = Grid(L=20.0, N=64)
        with pytest.raises(ValueError):
            build_perturbation(g, Perturbation(center=(19.0,), widths=(2.0,)), params(), ALPHA)
        with pytest.raises(ValueError):
            build_perturbation(
                g, Perturbation(shape="bump", center=(0.0,), widths=(25.0,)), params(), ALPHA)

    def test_mask_length_checked(self):
        g = Grid(L=20.0, N=64)
        with pytest.raises(ValueError):
            build_perturbation(g, Perturbation(mask=(1, 1, 1)), params(), ALPHA)

    @pytest.mark.parametrize("mask", [(0, 2), (-1, 1), (0.5, 1)])
    def test_mask_entries_are_zero_or_one(self, mask):
        # these ran silently as (0, 1), (1, 1) and (1, 1)
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            Perturbation(mask=mask)
        assert Perturbation(mask=(True, False)).mask == (1, 0)


class TestLinearExact:
    def test_zero_field_stays_zero(self):
        g = Grid(L=10.0, N=32)
        state = FieldState(t=0.0, data=np.zeros((2, 32)))
        out = apply_linear_exact(g, state, linear_propagator(params(), g, 0.5))
        assert np.all(out.data == 0.0)
        assert out.t == 0.5

    def test_single_mode_decay_factor(self):
        # v2-only single Fourier mode decays by |exp(dt lambda_2(xi))|
        g = Grid(L=np.pi * 8, N=64)
        p = params(eps=0.3, kappa=1.5, c=0.8)
        z = g.coords(0)
        mode_idx = 5
        xi = g.xi(0)[mode_idx]
        data = np.zeros((2, 64))
        data[1] = np.cos(xi * z)
        state = FieldState(t=0.0, data=data)
        dt = 0.7
        out = apply_linear_exact(g, state, linear_propagator(p, g, dt))
        lam2 = -p.epsilon * xi**2 + 1j * p.c * xi - p.kappa * np.exp(-p.kappa)
        expect = abs(np.exp(dt * lam2))
        amp_before = norm_unweighted(g, state.data[1], 0)
        amp_after = norm_unweighted(g, out.data[1], 0)
        assert amp_after / amp_before == pytest.approx(expect, rel=1e-12)

    def test_semigroup_property(self):
        g = Grid(L=15.0, N=128)
        p = params()
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 128))
        state = FieldState(t=0.0, data=data)
        full = apply_linear_exact(g, state, linear_propagator(p, g, 0.8))
        h = linear_propagator(p, g, 0.4)
        half = apply_linear_exact(g, apply_linear_exact(g, state, h), h)
        assert np.max(np.abs(full.data - half.data)) <= 1e-12

    def test_mode_by_mode_matches_symbol_exponential(self):
        g = Grid(L=8.0, N=32)
        p = params(eps=0.2, kappa=2.0, c=1.5)
        sym = SymbolMatrix.of(p, d=1)
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 32))
        dt = 0.35
        out = apply_linear_exact(g, FieldState(t=0.0, data=data), linear_propagator(p, g, dt))
        vh = np.fft.fft(data, axis=1)
        expect_h = np.empty_like(vh)
        for i, xi in enumerate(g.xi(0)):
            if i == g.N[0] // 2:  # Nyquist plane is projected out
                expect_h[:, i] = 0.0
                continue
            E = scipy.linalg.expm(dt * eval_symbol(sym, [xi]))
            expect_h[:, i] = E @ vh[:, i]
        expect = np.fft.ifft(expect_h, axis=1).real
        assert np.max(np.abs(out.data - expect)) <= 1e-12

    def test_2d_mode_exactness(self):
        g = Grid(L=(6.0, 4.0), N=(32, 16))
        p = params()
        sym = SymbolMatrix.of(p, d=2)
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2, 32, 16))
        dt = 0.2
        out = apply_linear_exact(g, FieldState(t=0.0, data=data), linear_propagator(p, g, dt))
        vh = np.fft.fftn(data, axes=(1, 2))
        for i in (0, 3, 17):
            for j in (0, 2, 9):
                xi = np.array([g.xi(0)[i], g.xi(1)[j]])
                E = scipy.linalg.expm(dt * eval_symbol(sym, xi))
                expect = E @ vh[:, i, j]
                got_h = np.fft.fftn(out.data, axes=(1, 2))[:, i, j]
                assert np.max(np.abs(got_h - expect)) <= 1e-8 * max(1.0, np.abs(expect).max())


class TestLinearPropagatorBlocks:
    """The 2D build writes its entries in row blocks of the half spectrum."""

    GRID = Grid((50.0, 25.0), (256, 128))

    def test_working_set(self):
        # kept: three complex (256, 65) entries, 780 KiB; 3,277 KiB traced
        # when the whole half spectrum was evaluated at once
        peak, prop = traced_peak(lambda: linear_propagator(params(), self.GRID, 0.01))
        kept = sum(e.nbytes for row in prop.rows for _, e in row)
        assert kept == 3 * 256 * 65 * 16
        assert peak < kept + 2**20

    def test_entries_match_one_shot(self):
        g = self.GRID
        xi2 = sum(g.rxi(ax) ** 2 for ax in range(2))
        xi1 = np.broadcast_to(g.rxi(0), g.spectrum_shape)
        ref = exact_propagator_oneshot(SymbolMatrix.of(params(), d=2), xi2, xi1, 0.01)
        for row, ref_row in zip(linear_propagator(params(), g, 0.01).rows, ref.rows):
            for (_, e), (_, r) in zip(row, ref_row):
                r[g.N[0] // 2] = 0.0
                assert e.tobytes() == r.tobytes()


class TestPropagatorLifetime:
    def test_rebuilt_systems_get_their_own_propagator(self):
        # exo_endo at the cold state is linear per species: v_t = D_j v_zz + c v_z.
        # Each system is dropped before the next is built, so a propagator
        # keyed by object identity would be handed to its successor.
        g = Grid(L=10.0, N=64)
        xi = g.xi(0)
        rng = np.random.default_rng(11)
        data = 1e-4 * rng.normal(size=(3, 64))
        dt = 0.5
        failures = []
        for k in range(40):
            d2 = 0.1 + 0.02 * k
            model = make_exo_endo_system(d2, 0.25, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0))
            out = apply_linear_exact(g, FieldState(t=0.0, data=data),
                                     linear_propagator(model, g, dt))
            vh = np.fft.fft(data, axis=1)
            for j, d in enumerate((1.0, d2, 0.25)):
                vh[j] *= np.exp((-d * xi**2 + 1j * model.c * xi) * dt)
            vh[:, g.N[0] // 2] = 0.0  # the Nyquist plane is projected out
            exact = np.fft.ifft(vh, axis=1).real
            if np.max(np.abs(out.data - exact)) > 1e-12:
                failures.append(k)
            del model, out
        assert failures == []

    def test_run_builds_one_propagator(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args[-1])
            return real(*args)

        real = sim.exact_propagator
        monkeypatch.setattr(sim, "exact_propagator", counting)
        g = Grid(L=15.0, N=128)
        res = run(params(), g, Perturbation(eta=1e-3, center=(3.0,), widths=(2.0,)), ALPHA,
                  T=1.0, dt=0.05, record_every=5)
        assert res.nsteps == 20
        assert built == [0.5 * res.dt]

    def test_linear_run_builds_one_propagator_per_segment_length(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args[-1])
            return real(*args)

        real = sim.exact_propagator
        monkeypatch.setattr(sim, "exact_propagator", counting)
        g = Grid(L=15.0, N=128)
        pert = Perturbation(eta=1e-3, center=(3.0,), widths=(2.0,))
        # 20 steps recorded every 6: segments of 6, 6, 6 and 2 steps
        res = run(params(), g, pert, ALPHA, T=1.0, dt=0.05, record_every=6, nonlinear=False)
        assert res.nsteps == 20
        assert built == [6 * res.dt, 2 * res.dt]
        built.clear()
        run(params(), g, pert, ALPHA, T=1.0, dt=0.05, record_every=5, nonlinear=False)
        assert built == [5 * res.dt]

    def test_faster_decaying_second_component_runs(self):
        # dt (D_2 - D_1) |xi|^2 far above the exp overflow threshold on the
        # high modes; the v1 profile only advects, v2 feeds it through B12
        from frontlab.model import BlockSystem

        B = np.array([[0.0, 1.0], [0.0, -0.5]])
        model = BlockSystem(n1=1, diffusion=[0.0, 1.0],
                            f=lambda v: np.tensordot(B, v, axes=(1, 0)),
                            jac=lambda v: B.copy(), name="fast-second-toy")
        g = Grid(L=10.0, N=512)  # |xi| up to 80: dt/2 |xi|^2 = 960
        res = run(model, g, Perturbation(amplitude=1e-3, widths=(1.0,)), 0.3,
                  T=0.6, dt=0.3, nonlinear=False)
        assert np.all(np.isfinite(res.snapshots[-1].data))
        assert res.series.column("norm0_v1")[-1] > 0.0

    def test_non_triangular_system_matches_mode_by_mode(self):
        from frontlab.model import BlockSystem

        B = np.array([[0.0, -0.9, 0.4], [0.9, 0.0, -0.2], [0.0, 0.0, -0.5]])
        model = BlockSystem(n1=2, diffusion=[1.0, 0.5, 0.2],
                            f=lambda v: np.tensordot(B, v, axes=(1, 0)),
                            jac=lambda v: B.copy(), name="rotation-toy")
        g = Grid(L=8.0, N=32)
        data = np.random.default_rng(12).normal(size=(3, 32))
        dt = 0.3
        out = apply_linear_exact(g, FieldState(t=0.0, data=data),
                                 linear_propagator(model, g, dt))
        sym = SymbolMatrix.of(model)
        vh = np.fft.fft(data, axis=1)
        for i, xi in enumerate(g.xi(0)):
            vh[:, i] = scipy.linalg.expm(dt * eval_symbol(sym, [xi])) @ vh[:, i]
        vh[:, g.N[0] // 2] = 0.0
        assert np.max(np.abs(out.data - np.fft.ifft(vh, axis=1).real)) <= 1e-12


class TestStepImex:
    def test_zero_state_fixed(self):
        g = Grid(L=10.0, N=64)
        state = FieldState(t=0.0, data=np.zeros((2, 64)))
        for dt in (1e-3, 0.1, 1.0):
            out = step_fields(params(), g, state, linear_propagator(params(), g, 0.5 * dt))
            assert np.all(out.data == 0.0)

    @pytest.mark.filterwarnings("ignore:boundary contamination")
    def test_nonlinear_disabled_equals_linear(self):
        # a linear run's step is the exact flow, equal to two linear half-steps
        g = Grid(L=10.0, N=64)
        p = params()
        rng = np.random.default_rng(3)
        state = FieldState(t=0.0, data=0.1 * rng.normal(size=(2, 64)))
        a = run(p, g, state, ALPHA, T=0.25, dt=0.25, nonlinear=False).snapshots[-1]
        half = linear_propagator(p, g, 0.125)
        b = apply_linear_exact(g, apply_linear_exact(g, state, half), half)
        assert np.max(np.abs(a.data - b.data)) <= 1e-14

    @pytest.mark.filterwarnings("ignore:boundary contamination")
    def test_triangular_decoupling_linear(self):
        # with the nonlinearity disabled the v2 trajectory ignores v1 entirely
        g = Grid(L=10.0, N=64)
        p = params()
        rng = np.random.default_rng(4)
        v2 = 0.3 * rng.normal(size=64)
        s_a = FieldState(t=0.0, data=np.stack([np.zeros(64), v2]))
        s_b = FieldState(t=0.0, data=np.stack([rng.normal(size=64), v2]))
        # five steps in segments of 2, 2 and 1: both segment propagators
        r_a, r_b = (run(p, g, s, ALPHA, T=0.5, dt=0.1, record_every=2, nonlinear=False)
                    for s in (s_a, s_b))
        assert np.max(np.abs(r_a.snapshots[-1].data[1] - r_b.snapshots[-1].data[1])) <= 1e-14

    def test_nan_detection(self):
        g = Grid(L=10.0, N=64)
        data = np.zeros((2, 64))
        data[0, 5] = np.nan
        with pytest.raises(SimulationBlowupError):
            step_fields(params(), g, FieldState(t=2.0, data=data),
                        linear_propagator(params(), g, 0.05))

    def test_dt_stability_bound_enforced(self):
        g = Grid(L=10.0, N=64)
        p = params()
        # huge-amplitude field gives an O(1) Jacobian estimate
        state, _ = build_perturbation(
            g, Perturbation(amplitude=50.0, widths=(2.0,)), p, ALPHA)
        bound = dt_max(p, state)
        assert np.isfinite(bound)
        with pytest.raises(ValueError):
            step_fields(p, g, state, linear_propagator(p, g, 0.5 * 10.0 * bound))

    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("grid", [Grid(L=15.0, N=128), Grid(L=(15.0, 8.0), N=(64, 32))],
                             ids=["1d", "2d"])
    def test_merged_steps_equal_single_steps(self, grid, nonlinear):
        p = params()
        state, _ = build_perturbation(
            grid, Perturbation(amplitude=0.3, center=(0.0,) * grid.d,
                               widths=(2.0,) * grid.d, mask=(1, 1)), p, ALPHA)
        if nonlinear:
            half = linear_propagator(p, grid, 0.05)
            single = state
            for _ in range(7):
                single = step_fields(p, grid, single, half)
            merged = step_fields(p, grid, state, half, steps=7)
        else:  # the linear path of run: one exact propagation per record segment
            single, merged = (run(p, grid, state, ALPHA, T=0.7, dt=0.1, record_every=every,
                                  nonlinear=False).snapshots[-1] for every in (1, 7))
        assert merged.t == single.t
        assert np.max(np.abs(merged.data - single.data)) <= 1e-13

    def test_dt_stability_bound_trips_mid_segment(self):
        # kappa = 6 puts 1/kappa below the peak of g', so the fed v1 raises
        # |DH| and the bound falls from 0.0467 at t = 0 to below dt = 0.04
        g = Grid(L=20.0, N=128)
        p = params(kappa=6.0)
        state, _ = build_perturbation(
            g, Perturbation(amplitude=20.0, center=(5.0,), widths=(2.0,), mask=(0, 1)),
            p, ALPHA)
        assert dt_max(p, state) > 0.04
        half = linear_propagator(p, g, 0.02)
        step_fields(p, g, state, half, steps=4)
        with pytest.raises(ValueError, match=r"bound 3\.968e-02 at t = 0\.16$"):
            step_fields(p, g, state, half, steps=25)
        # inside run the same trip is a mid-run failure, not a bad input
        with pytest.raises(SimulationError, match=r"at t = 0\.16$"):
            run(p, g, state, ALPHA, T=1.0, dt=0.04, record_every=10)
        with pytest.raises(ValueError, match=r"at t = 0$"):
            run(p, g, state, ALPHA, T=1.0, dt=0.05, record_every=10)

    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("grid", [Grid(L=15.0, N=64), Grid(L=(15.0, 8.0), N=(32, 16))],
                             ids=["1d", "2d"])
    def test_calls_share_no_buffers(self, grid, nonlinear):
        # a run's spectra and fields are reused within the run, never across
        # runs: three records, in one block when linear
        p = params()
        state, _ = build_perturbation(
            grid, Perturbation(amplitude=0.3, center=(0.0,) * grid.d,
                               widths=(2.0,) * grid.d, mask=(1, 1)), p, ALPHA)
        before = state.data.copy()

        def advance(st):
            return run(p, grid, st, ALPHA, T=0.3, dt=0.1, nonlinear=nonlinear).snapshots[-1]
        first = advance(state)
        kept = first.data.copy()
        second = advance(first)
        assert np.array_equal(state.data, before)
        assert np.array_equal(first.data, kept)
        assert not np.shares_memory(second.data, first.data)
        assert not np.array_equal(second.data, first.data)

    def test_splitting_order(self):
        # Richardson: observed order of Strang splitting >= 1.9 on smooth data
        g = Grid(L=15.0, N=128)
        p = params()
        state, _ = build_perturbation(
            g, Perturbation(amplitude=0.3, widths=(2.0,), mask=(1, 1)), p, ALPHA)
        T = 1.0
        ends = []
        for nsteps in (10, 20, 40):
            s = state.copy()
            half = linear_propagator(p, g, 0.5 * T / nsteps)
            for _ in range(nsteps):
                s = step_fields(p, g, s, half)
            ends.append(s.data.copy())
        e1 = np.max(np.abs(ends[0] - ends[1]))
        e2 = np.max(np.abs(ends[1] - ends[2]))
        order = np.log2(e1 / e2)
        assert order >= 1.9


def count_transforms(monkeypatch) -> dict:
    """Record the input shape of every numpy transform frontlab.sim has its
    grid make, by name (the caller of Grid.forward or Grid.inverse is in sim)."""
    calls = {}

    def counting(name):
        real = getattr(np.fft, name)

        def transform(*args, **kwargs):
            if sys._getframe(2).f_globals["__name__"] == "frontlab.sim":
                calls.setdefault(name, []).append(args[0].shape)
            return real(*args, **kwargs)
        return transform

    for name in ("rfft", "irfft", "fft", "ifft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name))
    return calls


class TestOneAxisTransforms:
    """Grid's one-axis transform pair is rfftn/irfftn bit for bit."""

    @pytest.mark.parametrize("shape", [(2, 64), (3, 128), (2, 32, 16), (3, 16, 64)])
    def test_match_rfftn_and_irfftn(self, shape):
        # components x grid, alone and as a stack of four records
        grid = Grid(L=(1.0,) * (len(shape) - 1), N=shape[1:])
        axes = tuple(range(-grid.d, 0))
        rng = np.random.default_rng(41)
        for stack in (shape, (4,) + shape):
            u = rng.normal(size=stack)
            vh = np.empty(stack[:-grid.d] + grid.spectrum_shape, dtype=complex)
            assert grid.forward(u, vh) is vh
            assert vh.tobytes() == np.fft.rfftn(u, axes=axes).tobytes()
            assert grid.forward(u).tobytes() == vh.tobytes()
            vh = vh + rng.normal(scale=1e-3, size=vh.shape)  # not a real field's spectrum
            kept = vh.copy()
            want = np.fft.irfftn(vh, s=grid.shape, axes=axes).tobytes()
            out, work = np.empty(stack), np.empty_like(vh)
            assert grid.inverse(vh, out, work) is out
            assert out.tobytes() == want
            assert grid.inverse(vh).tobytes() == want
            assert np.array_equal(vh, kept)
            assert grid.inverse(vh, work=vh).tobytes() == want  # in place over vh

    @pytest.mark.parametrize("model,grid", [
        (params(), Grid(L=15.0, N=128)),
        (params(kappa=3.0), Grid(L=(15.0, 8.0), N=(64, 32))),
        (make_gasless_system(1.3), Grid(L=15.0, N=128)),
        (make_exo_endo_system(0.5, 0.25, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0)), Grid(L=15.0, N=128)),
        (make_combustion_system(params()), Grid(L=(15.0, 8.0), N=(32, 16))),
    ], ids=["combustion-1d", "combustion-2d", "gasless", "exo_endo", "block-2d"])
    def test_step_imex_matches_the_rfftn_reference(self, model, grid):
        state, _ = build_perturbation(
            grid, Perturbation(amplitude=0.4, center=(0.0,) * grid.d,
                               widths=(2.0,) * grid.d, mask=(1,) * model.n), model, ALPHA)
        half = linear_propagator(model, grid, 0.025)
        got = step_fields(model, grid, state, half, steps=6)
        want = step_imex_rfftn(model, grid, state, half, steps=6)
        assert got.t == want.t
        assert got.data.tobytes() == want.data.tobytes()

    def test_a_2d_step_transforms_each_axis_once_each_way(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        g = Grid(L=(10.0, 5.0), N=(32, 16))
        state, _ = build_perturbation(g, Perturbation(amplitude=0.1, center=(0.0, 0.0),
                                                      widths=(2.0, 1.5)), params(), ALPHA)
        vh = g.forward(state.data)
        t = step_imex(params(), g, vh, 0.0, linear_propagator(params(), g, 0.05),
                      np.empty_like(vh), np.empty(state.data.shape), 3)
        assert t == 0.1 + 0.1 + 0.1
        # one round trip per step
        assert calls == {"rfft": [(2, 32, 16)] * 3, "fft": [(2, 32, 9)] * 3,
                         "ifft": [(2, 32, 9)] * 3, "irfft": [(2, 32, 9)] * 3}


class TestRun:
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_one_forward_transform_per_step(self, monkeypatch, nonlinear):
        # 10 steps recorded every 3: segments of 3, 3, 3 and 1 steps.  Both
        # runs transform the initial field once (in 1D one rfft).  A nonlinear
        # run adds one round trip per step and takes each record back to a
        # field (one irfft each); a linear one takes its one block of four
        # records back at once
        calls = count_transforms(monkeypatch)
        res = run(params(), Grid(L=10.0, N=64), Perturbation(amplitude=0.1), ALPHA,
                  T=1.0, dt=0.1, record_every=3, nonlinear=nonlinear)
        segments = 4
        assert res.nsteps == 10
        if nonlinear:
            stepped = [[(2, 33)] * k + [(1, 2, 33)] for k in (3, 3, 3, 1)]
            assert calls == {"rfft": [(2, 64)] * (res.nsteps + 1),
                             "irfft": sum(stepped, [])}
            assert len(calls["irfft"]) == res.nsteps + segments
        else:
            assert calls == {"rfft": [(2, 64)], "irfft": [(segments, 2, 33)]}
        t, expect = 0.0, [0.0]
        for step in range(1, 11):
            t = t + res.dt
            if step % 3 == 0 or step == 10:
                expect.append(t)
        assert res.series.times.tolist() == expect

    @pytest.mark.filterwarnings("ignore:boundary contamination")
    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("T, dt, record_every", [(1.0, 0.1, 3), (2.05, 0.1, 4),
                                                     (0.3, 0.5, 7), (1.0, 0.01, 1)])
    def test_record_times_are_known_before_the_run(self, nonlinear, T, dt, record_every):
        res = run(params(), Grid(L=10.0, N=64), Perturbation(amplitude=0.1), ALPHA,
                  T=T, dt=dt, record_every=record_every, nonlinear=nonlinear)
        assert record_times(T, dt, record_every) == res.series.times.tolist()

    @pytest.mark.parametrize("T, dt, record_every, match", [
        (0.0, 0.1, 1, "T and dt must be positive"), (1.0, 1e-320, 1, "exceeds the limit"),
        (1.0, 0.1, 0, "record_every must be >= 1")])
    def test_record_times_reject_what_run_rejects(self, T, dt, record_every, match):
        for call in (lambda: record_times(T, dt, record_every),
                     lambda: run(params(), Grid(L=10.0, N=64), Perturbation(amplitude=0.1),
                                 ALPHA, T=T, dt=dt, record_every=record_every)):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_field_of_the_wrong_shape_is_rejected(self, nonlinear):
        # three components on the two-component combustion model: a bad
        # input (ValueError), not a blow-up or a guard tripping mid-run
        g = Grid(L=10.0, N=64)
        data = 1e-3 * np.exp(-g.coords(0) ** 2) * np.ones((3, 1))
        with pytest.raises(ValueError, match=r"field shape \(3, 64\) is not"):
            run(params(), g, FieldState(t=0.0, data=data), ALPHA, T=1.0, dt=0.1,
                nonlinear=nonlinear)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_block_split_comes_from_the_model(self, nonlinear):
        # n1 = 2: the same data as a Perturbation or as a FieldState gives the
        # same (v1, v2) records
        from frontlab.model import BlockSystem

        B = np.array([[-0.1, 0.0, 0.4], [0.0, -0.2, 0.3], [0.0, 0.0, -0.5]])
        model = BlockSystem(n1=2, diffusion=[1.0, 0.5, 0.2],
                            f=lambda v: np.tensordot(B, v, axes=(1, 0)),
                            jac=lambda v: B.copy(), name="split-toy")
        g = Grid(L=15.0, N=128)
        pert = Perturbation(amplitude=1e-3, center=(2.0,), widths=(2.0,), mask=(1, 0, 1))
        state = FieldState(t=0.0, data=build_perturbation(g, pert, model, ALPHA)[0].data)
        runs = [run(model, g, start, ALPHA, T=1.0, dt=0.05, record_every=4,
                    nonlinear=nonlinear) for start in (pert, state)]
        a, b = (r.series.columns for r in runs)
        assert a.keys() == b.keys()
        assert all(a[key].tobytes() == b[key].tobytes() for key in a)
        assert a[("norm0_v1", 0)][0] == norm_unweighted(g, state.data[:2])

    def test_linear_segments_match_single_step_records(self):
        # one exact propagation per segment of 3 steps against one per step
        g = Grid(L=15.0, N=128)
        p = params()
        pert = Perturbation(eta=1e-3, center=(2.0,), widths=(2.0,), mask=(1, 1))
        fine = run(p, g, pert, ALPHA, T=2.0, dt=0.05, record_every=1, nonlinear=False)
        coarse = run(p, g, pert, ALPHA, T=2.0, dt=0.05, record_every=3, nonlinear=False)
        t, expect = 0.0, [0.0]
        for _ in range(fine.nsteps):
            t = t + fine.dt
            expect.append(t)
        assert fine.series.times.tolist() == expect
        picks = [i for i in range(fine.nsteps + 1) if i % 3 == 0 or i == fine.nsteps]
        assert coarse.series.times.tolist() == [expect[i] for i in picks]
        for name in ("norm0_v1", "norm0_v2", "norm0_v"):
            for k in (0, 1):
                a = fine.series.column(name, k)[picks]
                b = coarse.series.column(name, k)
                assert np.max(np.abs(a - b) / a) <= 1e-13

    def test_linear_run_detects_non_finite_field(self):
        # a second block growing at rate 400 overflows near t = 1.8: the
        # blow-up names the first record it reaches
        from frontlab.model import BlockSystem

        B = np.array([[0.0, 0.0], [0.0, 400.0]])
        model = BlockSystem(n1=1, diffusion=[1.0, 1.0],
                            f=lambda v: np.tensordot(B, v, axes=(1, 0)),
                            jac=lambda v: B.copy(), name="growing")
        g = Grid(L=10.0, N=64)
        pert = Perturbation(amplitude=1e-3, widths=(1.0,), mask=(0, 1))
        with np.errstate(all="ignore"), pytest.raises(SimulationBlowupError) as exc:
            run(model, g, pert, ALPHA, T=2.5, dt=0.1, record_every=2, nonlinear=False)
        t = 0.0
        for _ in range(18):
            t = t + 0.1
        assert exc.value.t == t

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_non_finite_initial_field_is_rejected(self, nonlinear):
        # a bad input (ValueError) before the first step, not a blow-up mid-run
        data = np.zeros((2, 64))
        data[0, 5], data[1, 7] = np.nan, np.inf
        with pytest.raises(ValueError, match="initial field has non-finite values"):
            run(params(), Grid(L=10.0, N=64), FieldState(t=0.0, data=data), ALPHA,
                T=0.5, dt=0.1, nonlinear=nonlinear)

    def test_nonlinear_run_calls_step_imex_once_per_segment(self, monkeypatch):
        # the benchmark times the product path through the sim.step_imex name
        steps = []

        def counting(*args):
            steps.append(args[-1])
            return step_imex(*args)

        monkeypatch.setattr(sim, "step_imex", counting)
        res = run(params(), Grid(L=10.0, N=64), Perturbation(amplitude=0.1), ALPHA,
                  T=1.0, dt=0.1, record_every=3)
        assert steps == [3, 3, 3, 1]
        assert len(res.series) == 1 + len(steps)

    @pytest.mark.parametrize("grid", [Grid(L=20.0, N=128), Grid(L=(20.0, 6.0), N=(64, 16))],
                             ids=["1d", "2d"])
    def test_nonlinear_records_match_a_chain_of_steps(self, grid):
        # the run advances the record spectra; the chain takes each record
        # through a field and back, which moves the last bits, amplified up
        # to exp(alpha L) in the weighted norm
        p = params()
        pert = Perturbation(amplitude=0.3, center=(5.0,) + (0.0,) * (grid.d - 1),
                            widths=(2.0,) * grid.d, mask=(1, 1))
        res = run(p, grid, pert, ALPHA, T=2.0, dt=0.05, record_every=7)
        state, _ = build_perturbation(grid, pert, p, ALPHA)
        half = linear_propagator(p, grid, 0.5 * res.dt)
        chain = [state]
        for first in range(0, res.nsteps, 7):
            chain.append(step_fields(p, grid, chain[-1], half, min(7, res.nsteps - first)))
        assert res.series.times.tolist() == [s.t for s in chain]
        for k in (0, 1):
            for name, rows, rtol in (("norm0_v1", slice(0, 1), 1e-13),
                                     ("norm0_v2", slice(1, 2), 1e-13),
                                     ("norm0_v", slice(None), 1e-13)):
                want = [norm_unweighted(grid, s.data[rows], k) for s in chain]
                np.testing.assert_allclose(res.series.column(name, k), want, rtol=rtol, atol=0)
            want = [norm_weighted(grid, s.data, ALPHA, k) for s in chain]
            np.testing.assert_allclose(res.series.column("normalpha_v", k), want,
                                       rtol=1e-8, atol=0)
        final = res.snapshots[-1].data
        assert np.max(np.abs(final - chain[-1].data)) <= 1e-13 * np.max(np.abs(final))

    def test_zero_perturbation_all_norms_zero(self):
        g = Grid(L=10.0, N=64)
        res = run(params(), g, Perturbation(amplitude=0.0), ALPHA, T=1.0, dt=0.1)
        for k in (0, 1):
            for name in ("norm0_v1", "norm0_v2", "norm0_v", "normalpha_v", "normE_v"):
                assert np.all(res.series.column(name, k) == 0.0)

    def test_deterministic(self):
        g = Grid(L=15.0, N=128)
        p = params()
        pert = Perturbation(eta=1e-3, center=(5.0,), widths=(2.0,), mask=(0, 1))
        r1 = run(p, g, pert, ALPHA, T=2.0, dt=0.05, record_every=5)
        r2 = run(p, g, pert, ALPHA, T=2.0, dt=0.05, record_every=5)
        assert np.array_equal(r1.series.times, r2.series.times)
        for key in r1.series.columns:
            assert np.array_equal(r1.series.columns[key], r2.series.columns[key])

    def test_norm_series_identities(self):
        g = Grid(L=15.0, N=128)
        res = run(params(), g,
                  Perturbation(eta=1e-2, center=(3.0,), widths=(2.0,), mask=(1, 1)), ALPHA,
                  T=2.0, dt=0.05, record_every=5)
        validate_series(res.series)

    def test_v2_gaussian_block_rate(self):
        # linear-only run: the v2 block decays at exactly kappa e^-kappa
        # when eps = 0 (pure transport plus uniform decay)
        from frontlab.norms import fit_decay

        p = ModelParams(epsilon=0.0, kappa=1.0, c=1.0)
        g = Grid(L=40.0, N=256)
        pert = Perturbation(eta=1e-3, center=(20.0,), widths=(2.0,), mask=(0, 1))
        res = run(p, g, pert, ALPHA, T=10.0, dt=0.05, record_every=10, nonlinear=False)
        fit = fit_decay(res.series.times, res.series.column("norm0_v2", 0))
        assert fit.nu == pytest.approx(np.exp(-1.0), rel=2e-2)
        assert fit.r_squared > 0.999999

    def test_periodic_domain_fidelity(self):
        # doubling L at fixed resolution leaves recorded norms unchanged
        # for perturbations supported well inside the domain
        p = params()
        pert = Perturbation(eta=1e-3, center=(0.0,), widths=(1.5,), mask=(1, 1))
        res_small = run(p, Grid(L=16.0, N=128), pert, ALPHA, T=1.0, dt=0.05, record_every=5)
        res_big = run(p, Grid(L=32.0, N=256), pert, ALPHA, T=1.0, dt=0.05, record_every=5)
        for name in ("norm0_v", "normalpha_v"):
            a = res_small.series.column(name, 0)
            b = res_big.series.column(name, 0)
            assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(a))

    def test_boundary_contamination_warning(self):
        p = params()
        g = Grid(L=20.0, N=128)
        pert = Perturbation(amplitude=1e-3, center=(10.0,), widths=(3.0,), mask=(1, 1))
        with pytest.warns(RuntimeWarning, match="boundary contamination") as caught:
            res = run(p, g, pert, ALPHA, T=0.2, dt=0.05)
        assert res.warnings
        # the warning names the caller of run, not a line inside frontlab
        assert [w.filename for w in caught] == [__file__]

    def test_boundary_warning_past_the_weight_range(self):
        # 2 alpha L = 800 > 709: exp(2 alpha z) overflows at the right end;
        # exp(alpha z) reaches e^400, so a tiny amplitude keeps |v|_alpha finite
        p = params()
        g = Grid(L=1000.0, N=4096)
        pert = Perturbation(amplitude=1e-150, center=(970.0,), widths=(5.0,), mask=(1, 1))
        state, report = build_perturbation(g, pert, p, ALPHA)
        assert np.isfinite(report["normalpha"])
        assert sim._boundary_mass_fractions(g, state.data[None], ALPHA)[0] > 0.5
        with pytest.warns(RuntimeWarning) as caught:
            res = run(p, g, pert, ALPHA, T=0.05, dt=0.05)
        assert [str(w.message).split(" at ")[0] for w in caught] == ["boundary contamination"]
        assert res.warnings

    def test_boundary_fraction_ignores_zero_tail(self):
        # weights past the field's support are capped: a field left of the
        # band gives a fraction of 0 however long the box
        g = Grid(L=1000.0, N=4096)
        state, _ = build_perturbation(
            g, Perturbation(amplitude=1e-3, center=(0.0,), widths=(5.0,)), params(), ALPHA)
        assert sim._boundary_mass_fractions(g, state.data[None], ALPHA)[0] == 0.0
        # exp(2 alpha z) underflows to 0 in the left band of this box
        state, _ = build_perturbation(
            g, Perturbation(amplitude=1e-3, center=(-970.0,), widths=(5.0,)), params(), ALPHA)
        assert sim._boundary_mass_fractions(g, state.data[None], ALPHA)[0] > 0.5
        zero = FieldState(t=0.0, data=np.zeros((2, 4096)))
        assert sim._boundary_mass_fractions(g, zero.data[None], ALPHA)[0] == 0.0

    @staticmethod
    def reference_fraction(grid, data, alpha):
        """The record-by-record boundary fraction the block form replaced."""
        z = grid.coords(0)
        band = np.abs(z) >= (1.0 - sim.BOUNDARY_BAND_FRACTION) * grid.L[0]
        nonzero = np.any(data != 0.0, axis=tuple(ax for ax in range(1 + grid.d) if ax != 1))
        if not np.any(nonzero):
            return 0.0
        gamma2 = np.exp(2.0 * alpha * np.minimum(z - z[nonzero][-1], 0.0))
        w = (data**2) * gamma2.reshape((1, z.size) + (1,) * (grid.d - 1))
        total = float(np.sum(w))
        return 0.0 if total == 0.0 else float(np.sum(w[:, band])) / total

    @pytest.mark.parametrize("grid", [Grid(L=1000.0, N=4096), Grid(L=(20.0, 6.0), N=(64, 32))],
                             ids=["1d", "2d"])
    def test_boundary_fractions_equal_the_record_by_record_form(self, grid):
        z = grid.coords(0).reshape((-1,) + (1,) * (grid.d - 1))
        L = grid.L[0]
        block = np.zeros((6, 2) + grid.shape)
        for i, center in enumerate((0.0, 0.97 * L, -0.97 * L, 0.5 * L)):
            block[i, i % 2] = 1e-3 * np.exp(-((z - center) / (0.01 * L)) ** 2)
        block[4] = np.random.default_rng(8).normal(size=(2,) + grid.shape)  # block[5] stays 0
        got = sim._boundary_mass_fractions(grid, block, ALPHA)
        want = [self.reference_fraction(grid, data, ALPHA) for data in block]
        # the band is summed in memory order, not in the fancy-index order
        # of the reference: the last bits may differ
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert got[1] > 0.5 and got[2] > 0.5 and got[0] == want[0] and got[5] == 0.0

    def test_boundary_fractions_take_one_field_of_temporaries(self):
        # a verify2d record: the weighted squares are the one field-sized
        # temporary (two, 1 MiB here, when the weighting was not in place)
        grid = Grid(L=(50.0, 25.0), N=(256, 128))
        fields = np.random.default_rng(9).normal(size=(1, 2) + grid.shape)
        peak, _ = traced_peak(lambda: sim._boundary_mass_fractions(grid, fields, ALPHA))
        assert peak < 1.25 * fields.nbytes

    def test_snapshots_bracket_run(self):
        g = Grid(L=10.0, N=64)
        res = run(params(), g, Perturbation(eta=1e-3, widths=(1.0,), mask=(0, 1)), ALPHA,
                  T=1.0, dt=0.1)
        assert len(res.snapshots) == 2
        assert res.snapshots[0].t == 0.0
        assert res.snapshots[-1].t == pytest.approx(1.0)


class TestLinearBlocks:
    """A linear run stays in Fourier space and measures its records in blocks."""

    G = Grid(L=20.0, N=64)

    @pytest.mark.filterwarnings("ignore:boundary contamination")
    @pytest.mark.parametrize("grid", [Grid(L=30.0, N=256), Grid(L=(30.0, 8.0), N=(128, 16))],
                             ids=["1d", "2d"])
    def test_records_match_the_closed_form(self, grid):
        # 120 steps recorded every 7: 17 segments of 7 steps and one of 1, in
        # blocks of ten records in 1D (the spectrum is carried across a block
        # boundary) and of one record on the 2D grid
        p = params()
        state, _ = build_perturbation(
            grid, Perturbation(eta=1e-3, center=(5.0,) + (0.0,) * (grid.d - 1),
                               widths=(2.0,) * grid.d, mask=(1, 1)), p, ALPHA)
        res = run(p, grid, state, ALPHA, T=6.0, dt=0.05, record_every=7, nonlinear=False)
        assert len(res.series) == 19
        for i, t in enumerate(res.series.times[1:], start=1):
            exact = apply_linear_exact(grid, state, linear_propagator(p, grid, t)).data
            for name, rows in (("norm0_v1", slice(0, 1)), ("norm0_v2", slice(1, 2)),
                               ("norm0_v", slice(None))):
                for k in (0, 1):
                    want = norm_unweighted(grid, exact[rows], k)
                    assert abs(res.series.column(name, k)[i] - want) <= 1e-13 * want
        assert np.max(np.abs(res.snapshots[-1].data - exact)) <= 1e-13 * np.max(np.abs(exact))

    @staticmethod
    def inject(monkeypatch, extras: dict) -> list:
        """Add extras[j], a field, to the record spectrum the j-th _propagate
        call of a linear run writes; returns the shapes run hands to Grid.inverse
        (whose 1D transform is one irfft)."""
        real, irfft = sim._propagate, np.fft.irfft
        calls, blocks = [], []

        def propagate(prop, vh, out):
            real(prop, vh, out)
            calls.append(1)
            if len(calls) in extras:
                out += np.fft.rfftn(extras[len(calls)], axes=(-1,))
            return out

        def counting(*args, **kwargs):
            if sys._getframe(2).f_globals["__name__"] == "frontlab.sim":
                blocks.append(args[0].shape)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(sim, "_propagate", propagate)
        monkeypatch.setattr(np.fft, "irfft", counting)
        return blocks

    def linear(self, alpha):
        # 10 steps recorded every 2 from a zero field, which stays exactly 0:
        # one block of five records; record j is written by the j-th _propagate
        return run(params(), self.G, FieldState(t=0.0, data=np.zeros((2, 64))), alpha,
                   T=1.0, dt=0.1, record_every=2, nonlinear=False)

    @staticmethod
    def record_time(j):
        t = 0.0
        for _ in range(2 * j):
            t = t + 0.1
        return t

    def band_field(self, center):
        z = self.G.coords(0)
        return np.stack([1e-3 * np.exp(-((z - center) / 0.3) ** 2), np.zeros(64)])

    def test_non_finite_record(self, monkeypatch):
        nan = np.zeros((2, 64))
        nan[0, 10] = np.nan
        blocks = self.inject(monkeypatch, {3: nan})
        with pytest.raises(SimulationBlowupError) as exc:
            self.linear(ALPHA)
        assert exc.value.t == self.record_time(3)
        assert blocks == [(5, 2, 33)]

    def test_weighted_overflow_record(self, monkeypatch, recwarn):
        # alpha L = 800: any support right of z = 17.5 overflows the weight
        blocks = self.inject(monkeypatch, {3: self.band_field(19.0)})
        with pytest.raises(SimulationError, match=r"^weighted norm overflow: alpha \* z "
                           r"reaches .* \(field is boundary-contaminated\) at t = 0\.6$") as exc:
            self.linear(40.0)
        assert type(exc.value) is SimulationError
        assert exc.value.__cause__.record == 2  # the third of the records measured
        assert blocks == [(5, 2, 33)]
        assert len(recwarn) == 0  # the overflowing record is not checked for boundary mass

    def test_boundary_contamination_record(self, monkeypatch):
        blocks = self.inject(monkeypatch, {3: self.band_field(19.5), 4: self.band_field(-19.5)})
        with pytest.warns(RuntimeWarning) as caught:
            res = self.linear(ALPHA)
        assert [str(w.message) for w in caught] == res.warnings
        assert res.warnings[0].startswith(
            f"boundary contamination at t = {self.record_time(3):.6g}: weighted mass fraction")
        assert [w.filename for w in caught] == [__file__]
        assert blocks == [(5, 2, 33)]

    def test_boundary_warning_precedes_a_later_blowup(self, monkeypatch):
        nan = np.zeros((2, 64))
        nan[1, 0] = np.nan
        self.inject(monkeypatch, {2: self.band_field(19.5), 4: nan})
        with pytest.warns(RuntimeWarning, match=r"^boundary contamination at t = 0\.4:"):
            with pytest.raises(SimulationBlowupError) as exc:
                self.linear(ALPHA)
        assert exc.value.t == self.record_time(4)


class TestInstabilityScan:
    def test_finds_threshold(self):
        p = params()
        g = Grid(L=15.0, N=128)
        pert = Perturbation(center=(3.0,), widths=(2.0,), mask=(1, 1))
        threshold, history = instability_scan(
            p, g, pert, ALPHA, T=1.0, dt=0.05, delta=0.05, eta0=1e-3)
        assert threshold is not None
        assert history[-1][1] > 0.05 or history[-1][1] == np.inf
        assert all(h[1] <= 0.05 for h in history[:-1])


class TestBlockSystemPath:
    def test_combustion_system_matches_params_linear(self):
        p = params()
        sys = make_combustion_system(p)
        g = Grid(L=10.0, N=32)
        rng = np.random.default_rng(5)
        data = 0.01 * rng.normal(size=(2, 32))
        state = FieldState(t=0.0, data=data)
        a = apply_linear_exact(g, state, linear_propagator(p, g, 0.3))
        b = apply_linear_exact(g, state, linear_propagator(sys, g, 0.3))
        assert np.max(np.abs(a.data - b.data)) <= 1e-12

    def test_combustion_system_matches_params_nonlinear(self):
        p = params()
        sys = make_combustion_system(p)
        g = Grid(L=10.0, N=32)
        state, _ = build_perturbation(
            g, Perturbation(amplitude=0.2, widths=(2.0,), mask=(1, 1)), p, ALPHA)
        a = step_fields(p, g, state, linear_propagator(p, g, 0.05))
        b = step_fields(sys, g, state, linear_propagator(sys, g, 0.05))
        assert np.max(np.abs(a.data - b.data)) <= 1e-12


class TestGeneralBlockExperiment:
    """Quantitative decay experiment for a custom triangular block system."""

    @staticmethod
    def make_system():
        from frontlab.model import BlockSystem

        a12, b22, g = 0.5, -0.8, 0.1

        def f(v):
            v = np.asarray(v, dtype=float)
            m = g * np.sin(v[0])
            return np.stack([(a12 + m) * v[1], (b22 + m) * v[1]])

        def jac(v):
            v = np.asarray(v, dtype=float)
            return np.array([
                [g * np.cos(v[0]) * v[1], a12 + g * np.sin(v[0])],
                [g * np.cos(v[0]) * v[1], b22 + g * np.sin(v[0])],
            ])

        return BlockSystem(n1=1, diffusion=[1.0, 0.3],
                           f=f, jac=jac, c=1.0, name="toy-triangular")

    def test_spectral_abscissas(self):
        from frontlab.spectral import SymbolMatrix, closed_form_abscissa, sweep_symbol

        sys = self.make_system()
        sym_u = SymbolMatrix.of(sys, d=1)
        assert closed_form_abscissa(sym_u) == 0.0
        sym_w = SymbolMatrix.of(sys, d=1, alpha=0.4)
        # weighted families: alpha^2 D_j - alpha c + B_jj
        expect = max(0.4**2 - 0.4, 0.3 * 0.4**2 - 0.4 - 0.8)
        assert closed_form_abscissa(sym_w) == pytest.approx(expect, abs=1e-15)
        sw = sweep_symbol(sym_w, m=201)
        assert abs(sw.realized_abscissa - expect) <= 1e-9

    def test_decay_experiment(self):
        from frontlab.norms import fit_decay, verify_stability_theorem

        sys = self.make_system()
        g = Grid(L=40.0, N=256)
        pert = Perturbation(eta=1e-3, center=(20.0,), widths=(2.0,), mask=(0, 1))
        with np.errstate(all="ignore"):
            res = run(sys, g, pert, 0.4, T=12.0, dt=0.05, record_every=10)
        # second block decays at its zero-frequency rate 0.8 (plus diffusion)
        fit = fit_decay(res.series.times, res.series.column("norm0_v2", 0),
                        window=(1.0, 12.0))
        assert fit.nu >= 0.8
        rep = verify_stability_theorem(res.series, eta=1e-3, delta=1e-2,
                                       nu_expected=0.24, rho_expected=0.8,
                                       rate_floor=0.8, window=(1.0, 12.0))
        assert rep.overall
