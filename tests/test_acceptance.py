"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line with the measured quantities (visible with
pytest -s and in the captured output), and asserts both the scientific
tolerance and the runtime budget.
"""

import time
import warnings

import numpy as np
import pytest

from frontlab.front import integrate_orbit, shoot_speed
from frontlab.model import ModelParams
from frontlab.norms import fit_decay, verify_stability_theorem
from frontlab.sim import (Grid, Perturbation, apply_linear_exact, build_perturbation,
                          linear_propagator, run, FieldState)
from frontlab.spectral import (
    SymbolMatrix,
    closed_form_abscissa,
    optimal_weight,
    sweep_symbol,
    tensor_sum_check,
)
from oracles import (abscissa_weighted, eval_H, eval_N_times_v, make_combustion_system,
                     sample_ball, step_fields)


def random_params(rng) -> tuple[ModelParams, float]:
    """A random combustion model and a weight inside its band (0, c/2)."""
    c = rng.uniform(0.2, 4.0)
    p = ModelParams(
        epsilon=rng.uniform(0.0, 0.99),
        kappa=rng.uniform(0.1, 5.0),
        c=c,
    )
    return p, rng.uniform(0.02, 0.48) * c


def test_criterion_1_spectral_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_sweep = 0.0
    for _ in range(100):
        p, alpha = random_params(rng)
        assert abscissa_weighted(p, alpha) == alpha**2 - p.c * alpha
        sym_u = SymbolMatrix.of(p, d=1)
        sym_w = SymbolMatrix.of(p, d=1, alpha=alpha)
        assert closed_form_abscissa(sym_u) == 0.0
        sw_u = sweep_symbol(sym_u, m=401)
        sw_w = sweep_symbol(sym_w, m=401)
        worst_sweep = max(
            worst_sweep,
            abs(sw_u.realized_abscissa - 0.0),
            abs(sw_w.realized_abscissa - (alpha**2 - p.c * alpha)),
        )
    elapsed = time.time() - t0
    assert worst_sweep <= 1e-6
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: closed forms exact on 100 draws, "
          f"sweep gap {worst_sweep:.2e}, {elapsed:.2f}s")


def test_criterion_2_optimal_weight():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_alpha = worst_val = 0.0
    for _ in range(20):
        c = rng.uniform(0.2, 4.0)
        p = ModelParams(epsilon=0.5, kappa=1.0, c=c)
        astar, vstar = optimal_weight(c)
        assert astar == c / 2.0 and vstar == -(c**2) / 4.0
        grid = np.linspace(c / 1000.0, c * (1 - 1e-9), 1000)
        vals = np.array([abscissa_weighted(p, alpha=a) for a in grid])
        i = int(np.argmin(vals))
        worst_alpha = max(worst_alpha, abs(grid[i] - astar) / (c / 1000.0))
        worst_val = max(worst_val, vals[i] - vstar)
    elapsed = time.time() - t0
    assert worst_alpha <= 1.0 + 1e-9   # within one grid step
    assert worst_val >= 0.0            # grid never beats the closed form
    assert worst_val <= (4.0 / 2000.0) ** 2 * 1.01
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: optimizer within grid resolution on 20 speeds, "
          f"{elapsed:.2f}s")


def test_criterion_3_tensor_sum():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        p, alpha = random_params(rng)
        rep = tensor_sum_check(p, alpha, R=20.0, m=101, d=2)
        worst = max(worst, rep["difference"])
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: d=2 vs d=1 weighted abscissa gap {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_4_block_rates():
    t0 = time.time()
    results = []
    for kappa in (0.5, 1.0, 2.0):
        p = ModelParams(epsilon=0.0, kappa=kappa, c=1.0)
        g = Grid(L=40.0, N=512)
        pert = Perturbation(eta=1e-3, center=(25.0,), widths=(2.0,), mask=(1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run(p, g, pert, 0.4, T=30.0, dt=0.05, record_every=10, nonlinear=False)
        fit = fit_decay(res.series.times, res.series.column("norm0_v2", 0))
        target = kappa * np.exp(-kappa)
        assert abs(fit.nu - target) <= 0.02 * target
        v1 = res.series.column("norm0_v1", 0)
        ratio = float(np.max(v1) / v1[0])
        assert ratio <= 3.0
        # k-consistency surrogate: identical fitted rates at k = 0 and k = 1
        fit1 = fit_decay(res.series.times, res.series.column("norm0_v2", 1))
        assert abs(fit1.nu - fit.nu) <= 0.03 * fit.nu
        results.append((kappa, fit.nu, ratio))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    msg = ", ".join(f"kappa={k}: rate {nu:.4f}, v1 ratio {r:.2f}"
                    for k, nu, r in results)
    print(f"ACCEPTANCE 4 PASS: {msg}, {elapsed:.2f}s")


# sharp rates at eps = 0.5, kappa = 1, c = 1, alpha = 0.4:
# c alpha - alpha^2 and kappa e^-kappa
RATES = dict(nu_expected=1.0 * 0.4 - 0.4**2, rho_expected=np.exp(-1.0))


def test_criterion_5_theorem_experiment_1d():
    t0 = time.time()
    p = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
    g = Grid(L=50.0, N=1024)
    pert = Perturbation(eta=1e-3, center=(40.0,), widths=(2.0,), mask=(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run(p, g, pert, 0.4, T=40.0, dt=0.02, record_every=25)
    rep = verify_stability_theorem(res.series, eta=1e-3, delta=1e-2, **RATES,
                                   rate_floor=0.8, c1_cap=10.0, window=(3.0, 38.0))
    assert rep.items["item2"]["passed"], rep.items["item2"]
    assert rep.items["item3"]["rate"] >= 0.192, rep.items["item3"]
    assert rep.items["item4"]["passed"], rep.items["item4"]
    assert rep.items["item5"]["rate"] >= 0.294, rep.items["item5"]
    assert rep.overall
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 (1D) PASS: sup_E {rep.items['item2']['sup_E']:.2e} <= 1e-2, "
          f"weighted rate {rep.items['item3']['rate']:.3f} >= 0.192, "
          f"v1 const {rep.items['item4']['C']:.2e} <= 10, "
          f"v2 rate {rep.items['item5']['rate']:.3f} >= 0.294, {elapsed:.1f}s")


def test_criterion_5_theorem_experiment_2d():
    t0 = time.time()
    p = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
    g = Grid(L=(50.0, 25.0), N=(256, 128))
    pert = Perturbation(eta=1e-3, center=(40.0, 0.0), widths=(2.0, 3.0), mask=(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run(p, g, pert, 0.4, T=20.0, dt=0.02, record_every=25)
    rep = verify_stability_theorem(res.series, eta=1e-3, delta=1e-2, **RATES,
                                   rate_floor=0.7, c1_cap=10.0, window=(2.0, 19.0))
    assert rep.overall, rep.items
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 (2D) PASS: weighted rate {rep.items['item3']['rate']:.3f}, "
          f"v2 rate {rep.items['item5']['rate']:.3f}, floors at 0.7, {elapsed:.1f}s")


def test_criterion_6_front_structure():
    t0 = time.time()
    c_star, profile = shoot_speed(1.0, (0.1, 2.0), tol=1e-12)
    assert profile.residual_left <= 1e-6
    assert profile.k_drift <= 1e-8

    p2 = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
    rng = np.random.default_rng(106)
    for _ in range(5):
        s0 = np.array([0.0, 1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=4)
        span = 10.0
        res = integrate_orbit(p2, s0, (0.0, span), tol=1e-10)
        assert res.k_drift <= 10 * 1e-10 * span
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6 PASS: c* {c_star:.6f}, left residual "
          f"{profile.residual_left:.2e} <= 1e-6, k drift {profile.k_drift:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_7_nonlinearity_laws():
    t0 = time.time()
    p = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
    sys = make_combustion_system(p)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        v = sample_ball(rng, 2, 1.0)
        worst = max(worst, float(np.max(np.abs(eval_N_times_v(sys, v) - eval_H(p, v)))))
    assert worst <= 1e-10

    # calibrate the quadratic constant, then assert on fresh samples
    K = 2.0
    cal = np.random.default_rng(1070)
    vs = cal.normal(size=(2, 20000))
    vs *= K * cal.random(20000) ** 0.5 / np.linalg.norm(vs, axis=0)
    H = eval_H(p, vs)
    nv = np.linalg.norm(vs, axis=0)
    C_K = 1.05 * float(np.max(np.linalg.norm(H, axis=0) / nv**2))
    fresh = np.random.default_rng(1071)
    vs = fresh.normal(size=(2, 100000))
    vs *= K * fresh.random(100000) ** 0.5 / np.linalg.norm(vs, axis=0)
    H = eval_H(p, vs)
    nv = np.linalg.norm(vs, axis=0)
    violations = int(np.sum(np.linalg.norm(H, axis=0) > C_K * nv**2))
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 7 PASS: quadrature-vs-closed-form gap {worst:.2e} <= 1e-10 "
          f"on 1e3 points, quadratic bound C_K={C_K:.3f} holds on 1e5 samples, "
          f"{elapsed:.1f}s")


def test_criterion_8_integrator_quality():
    t0 = time.time()
    p = ModelParams(epsilon=0.5, kappa=1.0, c=1.0)
    g = Grid(L=15.0, N=128)

    # Strang splitting order via Richardson on a smooth nonlinear run
    state, _ = build_perturbation(
        g, Perturbation(amplitude=0.3, widths=(2.0,), mask=(1, 1)), p, 0.4)
    ends = []
    for nsteps in (10, 20, 40):
        s = state.copy()
        half = linear_propagator(p, g, 0.5 / nsteps)
        for _ in range(nsteps):
            s = step_fields(p, g, s, half)
        ends.append(s.data.copy())
    order = float(np.log2(np.max(np.abs(ends[0] - ends[1]))
                          / np.max(np.abs(ends[1] - ends[2]))))
    assert order >= 1.9

    # exact-propagator semigroup property
    rng = np.random.default_rng(108)
    s0 = FieldState(t=0.0, data=rng.normal(size=(2, 128)))
    full = apply_linear_exact(g, s0, linear_propagator(p, g, 0.8))
    h = linear_propagator(p, g, 0.4)
    half = apply_linear_exact(g, apply_linear_exact(g, s0, h), h)
    semi_gap = float(np.max(np.abs(full.data - half.data)))
    assert semi_gap <= 1e-12

    # machine-precision fixed point at zero
    zero = FieldState(t=0.0, data=np.zeros((2, 128)))
    for dt in (1e-3, 0.1, 1.0):
        assert np.all(step_fields(p, g, zero, linear_propagator(p, g, 0.5 * dt)).data == 0.0)

    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8 PASS: splitting order {order:.2f} >= 1.9, semigroup gap "
          f"{semi_gap:.2e} <= 1e-12, zero state exact, {elapsed:.1f}s")
