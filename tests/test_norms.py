import math

import numpy as np
import pytest

from frontlab.norms import (
    NormSeries,
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

    def test_rejects_negative_alpha(self):
        g = Grid(L=10.0, N=64)
        with pytest.raises(ValueError):
            norm_weighted(g, np.zeros(64), -0.1, 0)


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
