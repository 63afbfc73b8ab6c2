import math

import numpy as np
import pytest

from frontlab.norms import (
    NormRecorder,
    NormSeries,
    WeightOverflowError,
    _gradient_sq_sum,
    fit_decay,
    norm_E,
    norm_unweighted,
    norm_weighted,
    verify_stability_theorem,
    write_norms_csv,
)
from frontlab.sim import Grid


class TestUnweighted:
    def test_zero_field(self):
        g = Grid(L=10.0, N=64)
        assert norm_unweighted(g, np.zeros((2, 64)), 0) == 0.0
        assert norm_unweighted(g, np.zeros(64), 1) == 0.0

    def test_constant_field(self):
        g = Grid(L=10.0, N=64)
        a = 0.7
        V = 20.0
        got = norm_unweighted(g, a * np.ones(64), 0)
        assert got == pytest.approx(a * math.sqrt(V), rel=1e-12)
        # the constant has zero gradient: H1 equals L2
        assert norm_unweighted(g, a * np.ones(64), 1) == pytest.approx(
            a * math.sqrt(V), rel=1e-12)

    def test_single_mode_parseval(self):
        # |a cos(xi z)|_{H1}^2 = a^2 V/2 (1 + xi^2) for a resolved mode
        g = Grid(L=8.0, N=128)
        z = g.coords(0)
        xi = g.xi(0)[3]
        a = 1.3
        field = a * np.cos(xi * z)
        V = 16.0
        expect0 = a * math.sqrt(V / 2.0)
        expect1 = a * math.sqrt(V / 2.0 * (1.0 + xi**2))
        assert norm_unweighted(g, field, 0) == pytest.approx(expect0, rel=1e-12)
        assert norm_unweighted(g, field, 1) == pytest.approx(expect1, rel=1e-12)

    @pytest.mark.parametrize("g", [Grid(L=10.0, N=64), Grid(L=(10.0, 6.0), N=(64, 32))],
                             ids=["1d", "2d"])
    def test_half_spectrum_gradient_matches_full_spectrum(self, g):
        # reference: Parseval over the full complex spectrum
        comps = np.random.default_rng(8).normal(size=(2,) + g.shape)
        axes = tuple(range(1, g.d + 1))
        vh = np.fft.fftn(comps, axes=axes)
        expect = 0.0
        for ax in range(g.d):
            shape = [1] * (g.d + 1)
            shape[ax + 1] = g.N[ax]
            expect += float(np.sum(np.abs(1j * g.xi(ax).reshape(shape) * vh) ** 2))
        expect /= float(np.prod(g.shape))
        assert _gradient_sq_sum(g, comps) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_rejects_bad_k(self):
        g = Grid(L=10.0, N=64)
        with pytest.raises(ValueError):
            norm_unweighted(g, np.zeros(64), 2)

    def test_shape_mismatch(self):
        g = Grid(L=10.0, N=64)
        with pytest.raises(ValueError):
            norm_unweighted(g, np.zeros(32), 0)


class TestWeighted:
    def test_alpha_zero_equals_unweighted(self):
        g = Grid(L=10.0, N=64)
        rng = np.random.default_rng(0)
        f = rng.normal(size=(2, 64))
        for k in (0, 1):
            assert norm_weighted(g, f, 0.0, k) == norm_unweighted(g, f, k)

    def test_left_half_space_decreases(self):
        g = Grid(L=10.0, N=128)
        z = g.coords(0)
        f = np.where(z < 0.0, np.exp(-((z + 5.0) ** 2)), 0.0)
        for alpha in (0.1, 0.4, 1.0):
            assert norm_weighted(g, f, alpha, 0) <= norm_unweighted(g, f, 0)

    def test_shift_multiplies_by_exponential(self):
        # translating the profile by dz scales the weighted norm by e^(alpha dz)
        g = Grid(L=20.0, N=256)
        z = g.coords(0)
        alpha = 0.4
        w = 1.5
        shift_cells = 16
        dz = shift_cells * g.h(0)
        f = np.exp(-(z / w) ** 2)
        f_shifted = np.roll(f, shift_cells)
        r = norm_weighted(g, f_shifted, alpha, 0) / norm_weighted(g, f, alpha, 0)
        assert r == pytest.approx(math.exp(alpha * dz), rel=1e-10)

    def test_overflow_guard(self):
        g = Grid(L=20.0, N=64)
        f = np.ones(64)
        with pytest.raises(ValueError, match="overflow"):
            norm_weighted(g, f, 40.0, 0)

    def test_exact_zeros_where_the_weight_overflows(self):
        # alpha L = 819 > 709 on the long box: exp(alpha z) is inf where the
        # field is exactly 0; same spacing, same perturbation, same norm
        import warnings

        from frontlab.model import ModelParams
        from frontlab.sim import Perturbation, build_perturbation

        p = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
        for pert in (Perturbation(amplitude=1e-3, center=(5.0,), widths=(2.0,)),
                     Perturbation(eta=1e-3, center=(5.0,), widths=(2.0,))):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                long_box, long_rep = build_perturbation(Grid(L=2048.0, N=4096), pert, p, 0.4)
                short_box, short_rep = build_perturbation(Grid(L=512.0, N=1024), pert, p, 0.4)
                long_h1 = norm_weighted(Grid(L=2048.0, N=4096), long_box.data, 0.4, 1)
            assert math.isfinite(long_rep["normalpha"])
            assert long_rep["normalpha"] == pytest.approx(short_rep["normalpha"], rel=1e-12)
            assert long_rep["normE"] == pytest.approx(short_rep["normE"], rel=1e-12)
            short_h1 = norm_weighted(Grid(L=512.0, N=1024), short_box.data, 0.4, 1)
            assert long_h1 == pytest.approx(short_h1, rel=1e-12)

    def test_rejects_negative_alpha(self):
        g = Grid(L=10.0, N=64)
        with pytest.raises(ValueError):
            norm_weighted(g, np.zeros(64), -0.1, 0)


    def test_overflowing_sum_of_squares_is_rescaled(self):
        # |e^(alpha z) v| is about 1e165 at z = 970: its squares overflow,
        # its norm does not; exact scaling by 2^600 must commute with the norm
        import warnings

        from frontlab.model import ModelParams
        from frontlab.sim import Perturbation, build_perturbation

        g = Grid(L=1000.0, N=4096)
        p = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
        pert = Perturbation(amplitude=1e-3, center=(970.0,), widths=(5.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state, report = build_perturbation(g, pert, p, 0.4)
            for k in (0, 1):
                big = norm_weighted(g, state.data, 0.4, k)
                small = norm_weighted(g, np.ldexp(state.data, -600), 0.4, k)
                assert big == pytest.approx(2.0**600 * small, rel=1e-12)
                assert 1e160 < big < math.inf
                raw = np.ldexp(state.data, 540)  # ~1e160 unweighted
                assert norm_unweighted(g, raw, k) == pytest.approx(
                    2.0**540 * norm_unweighted(g, state.data, k), rel=1e-12)
        assert report["normalpha"] == norm_weighted(g, state.data, 0.4, 0)


class TestIntersection:
    def test_max_identity(self):
        g = Grid(L=10.0, N=128)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(2, 128)) * np.exp(-(g.coords(0) / 3.0) ** 2)
        e = norm_E(g, f, 0.4, 0)
        assert e == max(norm_unweighted(g, f, 0), norm_weighted(g, f, 0.4, 0))

    def test_left_field_gives_unweighted(self):
        g = Grid(L=10.0, N=128)
        z = g.coords(0)
        f = np.exp(-((z + 5.0) ** 2))
        assert norm_E(g, f, 0.4, 0) == norm_unweighted(g, f, 0)

    def test_right_field_gives_weighted(self):
        g = Grid(L=10.0, N=128)
        z = g.coords(0)
        f = np.exp(-((z - 5.0) ** 2))
        assert norm_E(g, f, 0.4, 0) == norm_weighted(g, f, 0.4, 0)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 64)
        y = 3.0 * np.exp(-0.7 * t)
        fit = fit_decay(t, y)
        assert fit.nu == pytest.approx(0.7, abs=1e-12)
        assert fit.K == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_modulated_envelope(self):
        t = np.linspace(0.0, 25.0, 200)
        y = np.exp(-t) * (2.0 + np.cos(t))
        fit = fit_decay(t, y)
        assert abs(fit.nu - 1.0) <= 0.1

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 30)
        fit = fit_decay(t, np.full(30, 2.5))
        assert fit.nu == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_sentinel(self):
        t = np.linspace(0.0, 5.0, 30)
        y = np.exp(-t)
        y[20] = 0.0
        fit = fit_decay(t, y)
        assert fit.decayed_to_zero
        assert fit.nu == math.inf
        assert fit.first_nonpositive_t == pytest.approx(t[20])

    def test_needs_ten_samples(self):
        t = np.linspace(0.0, 5.0, 8)
        with pytest.raises(ValueError):
            fit_decay(t, np.exp(-t))

    def test_window_edges_take_summed_record_times(self):
        # 600 steps of dt = 0.05 recorded every 10 steps, the time summed per
        # step: the record at 28 sums to 28 + 2.6e-13, and one at 3 to 3 - 2.7e-15
        times, t = [0.0], 0.0
        for step in range(1, 601):
            t += 0.05
            if step % 10 == 0:
                times.append(t)
        times = np.array(times)
        assert times[56] > 28.0 and times[6] < 3.0
        y = np.exp(-0.3 * times) * (2.0 + np.cos(times))
        for window, n in (((2.0, 28.0), 53), ((3.0, 28.0), 51)):
            fit = fit_decay(times, y, window=window)
            exact = fit_decay(0.5 * np.arange(61), y, window=window)
            assert fit.n_samples == exact.n_samples == n
            assert fit.window == window

    def test_explicit_window(self):
        t = np.linspace(0.0, 20.0, 100)
        y = np.exp(-0.5 * t) + 1e-6  # floor bends the late tail
        fit = fit_decay(t, y, window=(1.0, 10.0))
        assert fit.window == (1.0, 10.0)
        assert abs(fit.nu - 0.5) <= 0.02


def make_series(t, v1, v2, valpha, k_extra=None):
    records = []
    for i in range(len(t)):
        rec = {}
        for k in (0, 1):
            rec[("norm0_v1", k)] = v1[i]
            rec[("norm0_v2", k)] = v2[i]
            rec[("norm0_v", k)] = math.hypot(v1[i], v2[i])
            rec[("normalpha_v", k)] = valpha[i]
            rec[("normE_v", k)] = max(math.hypot(v1[i], v2[i]), valpha[i])
        records.append(rec)
    return NormSeries.from_records(t, records)


# sharp rates of the default combustion model at alpha = 0.4:
# c alpha - alpha^2 = 0.24 and kappa e^-kappa = e^-1
RATES = dict(nu_expected=0.24, rho_expected=math.exp(-1.0))


class TestVerdict:
    def test_zero_data_trivially_passes(self):
        t = np.linspace(0.0, 10.0, 40)
        z = np.zeros_like(t)
        series = make_series(t, z, z, z)
        rep = verify_stability_theorem(series, eta=0.0, delta=1e-2, **RATES)
        assert rep.overall
        assert rep.items["item4"]["C"] == 0.0

    def test_synthetic_pass(self):
        t = np.linspace(0.0, 30.0, 100)
        eta = 1e-3
        v1 = eta * 0.5 * np.ones_like(t)
        v2 = eta * np.exp(-0.37 * t)
        va = eta * np.exp(-0.25 * t)
        series = make_series(t, v1, v2, va)
        rep = verify_stability_theorem(series, eta=eta, delta=10 * eta, **RATES)
        assert rep.overall
        assert rep.items["item3"]["rate"] == pytest.approx(0.25, abs=1e-6)
        assert rep.items["item5"]["rate"] == pytest.approx(0.37, abs=1e-6)

    def test_slow_weighted_rate_fails_item3(self):
        t = np.linspace(0.0, 30.0, 100)
        eta = 1e-3
        v1 = eta * 0.5 * np.ones_like(t)
        v2 = eta * np.exp(-0.37 * t)
        va = eta * np.exp(-0.1 * t)   # below 0.8 * 0.24
        series = make_series(t, v1, v2, va)
        rep = verify_stability_theorem(series, eta=eta, delta=10 * eta, **RATES)
        assert not rep.overall
        assert not rep.items["item3"]["passed"]
        assert rep.items["item5"]["passed"]

    def test_amplitude_bound_fails_item2(self):
        t = np.linspace(0.0, 30.0, 100)
        eta = 1e-3
        v1 = eta * np.ones_like(t)
        v2 = eta * np.exp(-0.37 * t)
        va = eta * np.exp(-0.25 * t) + 50 * eta * np.exp(-((t - 3) ** 2))
        series = make_series(t, v1, v2, va)
        rep = verify_stability_theorem(series, eta=eta, delta=10 * eta, **RATES)
        assert not rep.items["item2"]["passed"]
        assert "sup_E" in rep.items["item2"]

    def test_report_text_format(self):
        t = np.linspace(0.0, 10.0, 40)
        z = np.zeros_like(t)
        series = make_series(t, z, z, z)
        rep = verify_stability_theorem(series, eta=0.0, delta=1e-2, **RATES)
        text = rep.to_text()
        assert "overall_pass: true" in text
        for line in text.strip().splitlines():
            assert ": " in line


class TestSeriesStructure:
    def test_validate_passes_on_consistent_series(self):
        t = np.linspace(0.0, 5.0, 20)
        v1 = np.exp(-t)
        v2 = 0.5 * np.exp(-t)
        va = 0.7 * np.exp(-t)
        series = make_series(t, v1, v2, va)
        series.validate()

    def test_csv_round_trip(self, tmp_path):
        t = np.linspace(0.0, 5.0, 12)
        series = make_series(t, np.exp(-t), 0.5 * np.exp(-t), 0.7 * np.exp(-t))
        path = tmp_path / "norms.csv"
        write_norms_csv(path, series)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm0_v1,norm0_v2,norm0_v,normalpha_v,normE_v,k"
        assert len(lines) == 1 + 2 * 12
        ks = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
        assert ks == {"0", "1"}
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[1]) == 1.0


class TestNormRecorder:
    """One pass per record gives the single-norm values bit for bit."""

    @staticmethod
    def single(g, data, alpha, n1):
        rec = {}
        for k in (0, 1):
            v1 = norm_unweighted(g, data[:n1], k)
            v2 = norm_unweighted(g, data[n1:], k)
            va = norm_weighted(g, data, alpha, k)
            rec.update({("norm0_v1", k): v1, ("norm0_v2", k): v2,
                        ("norm0_v", k): math.hypot(v1, v2), ("normalpha_v", k): va,
                        ("normE_v", k): max(math.hypot(v1, v2), va)})
        return rec

    @pytest.mark.parametrize("n1, ncomp", [(1, 2), (1, 3), (2, 3)])
    @pytest.mark.parametrize("grid", [Grid(L=20.0, N=256), Grid(L=(20.0, 6.0), N=(64, 32))],
                             ids=["1d", "2d"])
    def test_equals_single_norms(self, grid, n1, ncomp):
        rng = np.random.default_rng(ncomp + 7 * n1 + grid.d)
        z = grid.coords(0).reshape((-1,) + (1,) * (grid.d - 1))
        recorder = NormRecorder(grid, 0.4, ncomp, n1)
        for scale in (1e-3, 1.0, 1e40):
            data = scale * rng.normal(size=(ncomp,) + grid.shape) * np.exp(-(z / 4.0) ** 2)
            data[:, z.ravel() > 12.0] = 0.0  # an exact-zero tail
            got, = recorder.record(data[None])
            assert list(got) == list(self.single(grid, data, 0.4, n1))
            assert got == self.single(grid, data, 0.4, n1)
        zero, = recorder.record(np.zeros((1, ncomp) + grid.shape))
        assert all(v == 0.0 for v in zero.values())

    def test_weight_past_exp_709_and_overflowing_sums(self):
        # alpha L = 819 on L = 2048: exp(alpha z) is inf on the exact-zero tail
        g = Grid(L=2048.0, N=4096)
        z = g.coords(0)
        recorder = NormRecorder(g, 0.4, 2, 1)
        bump = np.where(np.abs(z - 5.0) < 40.0, np.exp(-((z - 5.0) / 4.0) ** 2), 0.0)
        for data in (np.stack([bump, -0.5 * bump]), np.stack([0.0 * bump, bump]),
                     np.stack([np.roll(bump, 1495), 1e-3 * np.roll(bump, 1495)])):
            with np.errstate(all="raise"):
                got, = recorder.record(data[None])
            assert got == self.single(g, data, 0.4, 1)
            assert all(math.isfinite(v) for v in got.values())
        # the last field sits at z ~ 1500 where the weight is ~1e260: its
        # weighted squares overflow and are rescaled, as in norm_weighted
        assert got[("normalpha_v", 1)] > 1e200

    def test_overflow_error_text(self):
        g = Grid(L=2048.0, N=4096)
        z = g.coords(0)
        data = np.stack([np.exp(-((z - 1800.0) / 4.0) ** 2), np.zeros_like(z)])
        with pytest.raises(ValueError) as single:
            norm_weighted(g, data, 0.4, 0)
        with pytest.raises(ValueError) as recorded:
            NormRecorder(g, 0.4, 2, 1).record(data[None])
        assert str(recorded.value) == str(single.value)
        assert str(single.value).startswith("weighted norm overflow: alpha * z reaches")

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            NormRecorder(Grid(L=10.0, N=64), -0.1, 2, 1)

    @pytest.mark.parametrize("grid", [Grid(L=20.0, N=256), Grid(L=(20.0, 6.0), N=(64, 32))],
                             ids=["1d", "2d"])
    def test_block_equals_single_records(self, grid):
        # scales from 1e-3 to 1e200 take the overflow rescale in some records
        rng = np.random.default_rng(40 + grid.d)
        z = grid.coords(0).reshape((-1,) + (1,) * (grid.d - 1))
        scales = np.array([1e-3, 1.0, 0.0, 1e40, 1e200, 7.0]).reshape((6,) + (1,) * (grid.d + 1))
        block = scales * rng.normal(size=(6, 3) + grid.shape) * np.exp(-(z / 4.0) ** 2)
        block[3, :, z.ravel() > 12.0] = 0.0
        batched = NormRecorder(grid, 0.4, 3, 1, records=8).record(block)
        single = NormRecorder(grid, 0.4, 3, 1)
        assert len(batched) == 6
        for data, got in zip(block, batched):
            assert got == single.record(data[None])[0] == self.single(grid, data, 0.4, 1)
        assert all(v == 0.0 for v in batched[2].values())

    def test_overflow_names_the_first_record_that_reaches_it(self):
        g = Grid(L=2048.0, N=4096)
        z = g.coords(0)
        bump = np.exp(-((z - 1000.0) / 4.0) ** 2)
        far = np.exp(-((z - 1800.0) / 4.0) ** 2)
        block = np.stack([np.stack([bump, 0.0 * z])] * 5)
        block[2, 1] = far
        block[4, 0] = far
        with pytest.raises(WeightOverflowError) as recorded:
            NormRecorder(g, 0.4, 2, 1, records=5).record(block)
        assert recorded.value.record == 2
        with pytest.raises(WeightOverflowError) as single:
            norm_weighted(g, block[2], 0.4, 0)
        assert single.value.record == 0
        assert str(recorded.value) == str(single.value)
