import math

import numpy as np
import pytest

from frontlab import front
from frontlab.front import (
    TOL_MIN,
    ShootingError,
    StepUnderflowError,
    _float_field,
    _rk45,
    _shot,
    conserved_k,
    integrate_orbit,
    shoot_speed,
    write_profile_csv,
)
from frontlab.model import ModelParams, eval_g
from oracles import ode_jacobian, spatial_eigenvalues, vector_field


def params(eps=0.5, kappa=1.0, c=1.0):
    return ModelParams(epsilon=eps, kappa=kappa, c=c)


def reference_rk45(rhs, s0, span, rtol, atol, stop=None):
    """The generic Dormand-Prince 5(4) loop on lists of any length, rhs(s) -> list.

    The reference for front._rk45: the same tableau and the same order of
    every operation, one list comprehension per stage.
    """
    s = [float(x) for x in s0]
    n = len(s)
    tau = 0.0
    h = min(1e-4, span)
    taus = [0.0]
    states = [s]
    nsteps = 0
    reason = "span"
    k1 = rhs(s)
    while tau < span:
        h = min(h, span - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            raise StepUnderflowError(tau)
        k2 = rhs([y + h * (front._A21 * a) for y, a in zip(s, k1)])
        k3 = rhs([y + h * (front._A31 * a + front._A32 * b) for y, a, b in zip(s, k1, k2)])
        k4 = rhs([y + h * (front._A41 * a + front._A42 * b + front._A43 * c)
                  for y, a, b, c in zip(s, k1, k2, k3)])
        k5 = rhs([y + h * (front._A51 * a + front._A52 * b + front._A53 * c + front._A54 * d)
                  for y, a, b, c, d in zip(s, k1, k2, k3, k4)])
        k6 = rhs([y + h * (front._A61 * a + front._A62 * b + front._A63 * c + front._A64 * d
                           + front._A65 * e)
                  for y, a, b, c, d, e in zip(s, k1, k2, k3, k4, k5)])
        s5 = [y + h * (front._B1 * a + front._B3 * c + front._B4 * d + front._B5 * e
                       + front._B6 * f)
              for y, a, c, d, e, f in zip(s, k1, k3, k4, k5, k6)]
        k7 = rhs(s5)
        sq = 0.0
        for y, z, a, c, d, e, f, g in zip(s, s5, k1, k3, k4, k5, k6, k7):
            err = h * (front._E1 * a + front._E3 * c + front._E4 * d + front._E5 * e
                       + front._E6 * f + front._E7 * g)
            sq += (err / (atol + rtol * max(abs(y), abs(z)))) ** 2
        enorm = math.sqrt(sq / n)
        if enorm <= 1.0:
            tau += h
            s, k1 = s5, k7
            nsteps += 1
            taus.append(tau)
            states.append(s)
            if stop is not None:
                why = stop(s)
                if why is not None:
                    reason = why
                    break
        if enorm > 0.0:
            factor = 0.9 * enorm**-0.2
        else:
            factor = 5.0 if enorm == 0.0 else 0.2
        h *= min(5.0, max(0.2, factor))
    return np.asarray(taus), np.asarray(states), reason, nsteps


def reference_bisection(kappa, c_bracket, tol=1e-12):
    """The bisection search shoot_speed ran before its Illinois steps; returns c*.

    The SCAN_POINTS-speed scan at the loose tolerance, then the midpoint of
    the first (-1, +1) pair at tol, sign 0 counting as up, until the
    midpoint rounds to an end.
    """
    grid = np.linspace(c_bracket[0], c_bracket[1], front.SCAN_POINTS)
    signs = [_shot(kappa, c, max(tol, 1e-8))[0] for c in grid]
    i = next(i for i in range(len(grid) - 1) if (signs[i], signs[i + 1]) == (-1, 1))
    lo, hi = grid[i], grid[i + 1]
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return float(hi)
        if _shot(kappa, mid, tol)[0] >= 0:
            hi = mid
        else:
            lo = mid


def listed(rhs, n):
    """A four-slot field rhs(p1, p2, p3, p4) as the reference's field of n-lists."""
    pad = [0.0] * (4 - n)
    return lambda s: list(rhs(*s, *pad)[:n])


def reference_kernel(rhs, s0, span, rtol, atol, stop=None):
    """reference_rk45 behind front._rk45's call signature."""
    return reference_rk45(listed(rhs, len(s0)), s0, span, rtol, atol, stop)


class TestVectorField:
    def test_equilibria(self):
        p = params(kappa=2.0)
        burned = np.array([0.5, 0.0, 0.0, 0.0])
        unburned = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.max(np.abs(vector_field(p, burned))) <= 1e-14
        assert np.max(np.abs(vector_field(p, unburned))) <= 1e-14

    def test_direct_value(self):
        p = params(eps=0.5, kappa=1.0, c=1.0)
        out = vector_field(p, np.array([1.0, 1.0, 0.0, 0.0]))
        e1 = np.exp(-1.0)
        assert np.allclose(out, [0.0, 0.0, -e1, 2.0 * e1], atol=1e-12)

    def test_reduced_field(self):
        p = ModelParams(epsilon=0.0, kappa=2.0, c=0.5)
        out = vector_field(p, np.array([1.0, 1.0, 0.3]))
        e1 = np.exp(-1.0)
        assert out[0] == pytest.approx(0.3)
        assert out[1] == pytest.approx((2.0 / 0.5) * e1)
        assert out[2] == pytest.approx(-(0.5 * 0.3 + e1))

    def test_rejects_eps_zero_in_4d(self):
        p = ModelParams(epsilon=0.0, kappa=1.0, c=1.0)
        with pytest.raises(ValueError):
            vector_field(p, np.zeros(4))


class TestFloatField:
    @pytest.mark.parametrize("eps, dim", [(0.0, 3), (0.3, 4)])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_matches_vector_field(self, eps, dim, direction):
        # the integrators' float field against the numpy reference.  math.exp
        # and numpy's exp may round g one ulp apart; with the at most four
        # roundings after it, a component moves by at most 5 ulp of the sum
        # of its terms' sizes.  Where g is cut off both agree bit for bit.
        p = params(eps=eps, kappa=1.7, c=0.8)
        rng = np.random.default_rng(11)
        states = rng.normal(size=(2000, dim))
        states[:50, 0] = -np.abs(states[:50, 0])
        states[50:60, 0] = 0.0
        states[60:110, 0] = rng.uniform(1e-3, 1e-1, 50)
        states[110:120, 0] = np.nextafter(0.0, 1.0) * np.arange(1, 11)
        field = _float_field(p.c, p.kappa, p.epsilon, direction)
        for s in states:
            got = np.array(field(*s.tolist(), *[0.0] * (4 - dim))[:dim])
            ref = direction * vector_field(p, s)
            r = abs(s[1]) * eval_g(s[0])
            terms = ([abs(s[2]), abs(s[3]), p.c * abs(s[2]) + r,
                      (p.c * abs(s[3]) + p.kappa * r) / eps] if dim == 4
                     else [abs(s[2]), p.kappa / p.c * r, p.c * abs(s[2]) + r])
            assert np.all(np.abs(got - ref) <= 5 * np.finfo(float).eps * np.array(terms))
            if s[0] <= 0.0:
                assert got.tobytes() == ref.tobytes()


def assert_same_run(got, ref):
    taus, states, reason, nsteps = got
    assert taus.tobytes() == ref[0].tobytes()
    assert states.shape == ref[1].shape and states.tobytes() == ref[1].tobytes()
    assert (reason, nsteps) == ref[2:]


class TestKernelReference:
    """front._rk45 against the generic list loop, bit for bit."""

    @pytest.mark.parametrize("eps, s0, span", [
        (0.0, (0.1, 0.9, 0.0), 20.0),
        (0.3, (0.1, 0.9, 0.0, 0.05), 8.0),
    ], ids=["reduced", "full"])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_orbit_over_full_span(self, eps, s0, span, direction):
        rhs = _float_field(0.6, 1.3, eps, direction)
        got = _rk45(rhs, s0, span, rtol=1e-10, atol=1e-10)
        assert got[2] == "span" and got[0][-1] == span and got[1].shape[1] == len(s0)
        assert_same_run(got, reference_kernel(rhs, s0, span, rtol=1e-10, atol=1e-10))

    def test_reduced_field_fills_the_fourth_slot_with_zero(self):
        rhs = _float_field(0.6, 1.3, 0.0, -1.0)
        assert rhs(0.3, 0.5, -0.2, 7.0)[3] == 0.0

    @pytest.mark.parametrize("c, reason", [(0.3, "down"), (0.9, "up")])
    def test_stop_callable(self, c, reason):
        # a leftward shot: it stops when the temperature leaves [-1e-6, 1.5]
        s0 = [1e-8, 1.0, -1e-8 * c]

        def stop(s):
            return "up" if s[0] > 1.5 else "down" if s[0] < -1e-6 else None

        rhs = _float_field(c, 1.0, 0.0, -1.0)
        got = _rk45(rhs, s0, 5000.0, rtol=1e-12, atol=1e-14, stop=stop)
        assert got[2] == reason and got[0][-1] < 5000.0
        assert_same_run(got, reference_kernel(rhs, s0, 5000.0, rtol=1e-12, atol=1e-14,
                                              stop=stop))

    def test_nan_field_underflows_at_the_same_tau(self):
        def rhs(p1, p2, p3, p4):
            return (p3, 0.0, np.nan if p1 > 0.2 else -p1, 0.0)

        errors = []
        for kernel in (_rk45, reference_kernel):
            with pytest.raises(StepUnderflowError) as info:
                kernel(rhs, [0.1, 0.9, 1.0], 1.0, rtol=1e-8, atol=1e-8)
            errors.append(info.value.z)
        assert errors[0] > 0.0 and errors[0] == errors[1]

    def test_shoot_speed_with_the_reference_kernel(self, shot_kappa1, monkeypatch):
        c_star, profile = shot_kappa1
        monkeypatch.setattr(front, "_rk45", reference_kernel)
        c_ref, ref = shoot_speed(1.0, (0.1, 2.0), tol=1e-12)
        assert c_ref == c_star and str(ref.shots) == str(profile.shots)
        assert len(ref.shots) == 23 and sum(shot.steps for shot in ref.shots) == 24735
        for name in ("z", "states", "k_values"):
            assert getattr(ref, name).tobytes() == getattr(profile, name).tobytes()
        assert ref.residual_left == profile.residual_left


class TestConservedQuantity:
    def test_end_state_values(self):
        p = ModelParams(epsilon=0.5, kappa=4.0, c=2.0)
        assert conserved_k(p, np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.5)
        assert conserved_k(p, np.array([0.25, 0.0, 0.0, 0.0])) == pytest.approx(0.5)

    def test_direct_arithmetic(self):
        p = params(eps=0.5, kappa=1.0, c=1.0)
        val = conserved_k(p, np.array([0.3, 0.2, 0.1, 0.4]))
        assert val == pytest.approx(0.1 + 0.3 + 0.2 + 0.2, abs=1e-15)

    @pytest.mark.parametrize("eps, dim", [(0.3, 4), (0.0, 3)])
    def test_stack_matches_per_state_values(self, eps, dim):
        p = params(eps=eps, kappa=1.7, c=0.8)
        stack = np.random.default_rng(2).normal(size=(200, dim))
        per_state = [conserved_k(p, s) for s in stack]
        assert all(isinstance(k, float) for k in per_state)
        assert conserved_k(p, stack).tobytes() == np.array(per_state).tobytes()

    def test_gradient_orthogonal_to_field(self):
        # d/dz k(s(z)) = grad k . F(s) = 0: the defining property
        p = params(eps=0.3, kappa=1.7, c=0.8)
        rng = np.random.default_rng(1)
        grad = np.array([p.c, p.c / p.kappa, 1.0, p.epsilon / p.kappa])
        for _ in range(50):
            s = rng.normal(size=4)
            assert abs(grad @ vector_field(p, s)) <= 1e-12 * max(1.0, np.linalg.norm(s))


class TestOrbitIntegration:
    def test_equilibrium_stays_fixed(self):
        p = params(kappa=1.0)
        res = integrate_orbit(p, np.array([1.0, 0.0, 0.0, 0.0]), (0.0, 5.0), tol=1e-10)
        assert np.max(np.abs(res.states - res.states[0])) <= 1e-12

    def test_first_integral_drift(self):
        p = params(eps=0.5, kappa=1.0, c=1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            s0 = np.array([0.0, 1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=4)
            span = (0.0, 8.0)
            res = integrate_orbit(p, s0, span, tol=1e-10)
            assert res.k_drift <= 10 * 1e-10 * 8.0

    def test_drift_at_rounding_floor_for_all_tolerances(self):
        # k is linear in the state and Runge-Kutta steps conserve linear
        # first integrals exactly, so the drift beats the 10 tol span bound
        # at every tolerance instead of scaling with it
        p = params(eps=0.5, kappa=1.0, c=1.0)
        s0 = np.array([0.5, 0.8, -0.2, 0.1])
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            res = integrate_orbit(p, s0, (0.0, 20.0), tol=tol)
            assert res.k_drift <= 1e-13
            assert res.k_drift <= 10 * tol * 20.0

    def test_solution_converges_with_tolerance(self):
        p = params(eps=0.5, kappa=1.0, c=1.0)
        s0 = np.array([0.5, 0.8, -0.2, 0.1])
        ref = integrate_orbit(p, s0, (0.0, 10.0), tol=1e-12).states[-1]
        errs = []
        for tol in (1e-4, 1e-6, 1e-8):
            end = integrate_orbit(p, s0, (0.0, 10.0), tol=tol).states[-1]
            errs.append(np.max(np.abs(end - ref)))
        assert errs[1] <= errs[0] / 10.0
        assert errs[2] <= errs[1] / 10.0

    @pytest.mark.parametrize("s0, span", [
        ((np.nan, 0.9, 0.0, 0.05), (0.0, 8.0)),
        ((0.1, 0.9, np.inf, 0.05), (0.0, 8.0)),
        ((0.1, 0.9, 0.0, 0.05), (0.0, np.nan)),
        ((0.1, 0.9, 0.0, 0.05), (0.0, np.inf)),
        ((0.1, 0.9, 0.0, 0.05), (-np.inf, 0.0)),
    ], ids=["s0_nan", "s0_inf", "span_nan", "span_inf", "span_minus_inf"])
    def test_rejects_non_finite_input(self, s0, span):
        with pytest.raises(ValueError, match="finite"):
            integrate_orbit(params(), np.array(s0), span)

    @pytest.mark.parametrize("kw, tol, named", [
        (dict(kappa=math.inf), 1e-10, "kappa"),
        (dict(c=math.inf), 1e-10, "c"),
        ({}, math.inf, "tol"),
        ({}, 1e-100, "tol"),
    ], ids=["kappa_inf", "c_inf", "tol_inf", "tol_tiny"])
    def test_rejects_non_finite_settings_and_tiny_tol(self, kw, tol, named):
        # a non-finite kappa or c is already refused by ModelParams
        with pytest.raises(ValueError, match=named):
            integrate_orbit(params(**kw), np.array([0.1, 0.9, 0.0, 0.05]), (0.0, 8.0), tol=tol)

    def test_nan_error_norm_ends_in_step_underflow(self):
        # a NaN field gives a NaN error norm: the step is rejected and shrinks
        with pytest.raises(StepUnderflowError):
            _rk45(lambda *s: [np.nan] * len(s), [0.1, 0.9, 0.0], 1.0, rtol=1e-8, atol=1e-8)

    def test_dimension_validation(self):
        p = params()  # eps > 0 wants 4 components
        with pytest.raises(ValueError):
            integrate_orbit(p, np.zeros(3), (0.0, 1.0))
        with pytest.raises(ValueError):
            integrate_orbit(p, np.zeros(4), (0.0, 1.0), tol=0.0)


class TestLinearizationConsistency:
    def test_spatial_exponents_match_ode_jacobian(self):
        # eigenvalues of the first-order system at an end state equal the
        # roots of det(mu^2 D + c mu + B): brute-force eigensolve oracle
        p = params(eps=0.5, kappa=1.3, c=0.9)
        burned = np.array([1.0 / p.kappa, 0.0, 0.0, 0.0])
        J = ode_jacobian(p, burned)
        mu_direct = np.sort_complex(np.linalg.eigvals(J))
        mu_symbol = spatial_eigenvalues(p, "minus")
        assert np.allclose(mu_direct, mu_symbol, atol=1e-10)

    def test_unburned_state_exponents(self):
        p = params(eps=0.5, kappa=1.0, c=0.7)
        unburned = np.array([0.0, 1.0, 0.0, 0.0])
        J = ode_jacobian(p, unburned)
        mu_direct = np.sort_complex(np.linalg.eigvals(J))
        mu_symbol = spatial_eigenvalues(p, "plus")
        assert np.allclose(mu_direct, mu_symbol, atol=1e-12)

    def test_reduced_unburned_spectrum(self):
        # reduced field at (0, 1, 0): eigenvalues {0, 0, -c}
        p = ModelParams(epsilon=0.0, kappa=1.0, c=0.8)
        J = ode_jacobian(p, np.array([0.0, 1.0, 0.0]))
        mu = np.sort(np.linalg.eigvals(J).real)
        assert np.allclose(mu, [-0.8, 0.0, 0.0], atol=1e-12)


@pytest.fixture(scope="module")
def shot_kappa1():
    return shoot_speed(1.0, (0.1, 2.0), tol=1e-12)


@pytest.fixture(scope="module")
def searches(shot_kappa1):
    """search(kappa): shoot_speed(kappa, (0.1, 2.0), tol=1e-12), run once per kappa."""
    cache = {1.0: shot_kappa1}

    def search(kappa):
        if kappa not in cache:
            cache[kappa] = shoot_speed(kappa, (0.1, 2.0), tol=1e-12)
        return cache[kappa]

    return search


class TestShooting:
    def test_left_temperature_limit(self, shot_kappa1):
        c_star, profile = shot_kappa1
        assert 0.1 < c_star < 2.0
        assert profile.residual_left <= 1e-6

    def test_first_integral_certificate(self, shot_kappa1):
        c_star, profile = shot_kappa1
        assert profile.k_drift <= 1e-8

    def test_right_end_is_unburned_state(self, shot_kappa1):
        _, profile = shot_kappa1
        assert profile.residual_right <= 1e-7
        assert profile.z[0] < profile.z[-1]
        assert np.all(np.diff(profile.z) > 0)

    def test_phi2_monotone_diagnostic(self, shot_kappa1):
        _, profile = shot_kappa1
        # observed behavior for ignition nonlinearities; recorded, not asserted
        assert isinstance(profile.phi2_monotone, bool)

    def test_bracket_endpoints_have_opposite_signs(self, shot_kappa1):
        lo_sign = _shot(1.0, 0.1, 1e-10)[0]
        hi_sign = _shot(1.0, 2.0, 1e-10)[0]
        assert lo_sign == -1 and hi_sign == +1

    def test_speed_sits_on_the_shooting_boundary(self, shot_kappa1):
        c_star, _ = shot_kappa1
        assert _shot(1.0, c_star * (1 - 1e-6), 1e-12)[0] == -1
        assert _shot(1.0, c_star * (1 + 1e-6), 1e-12)[0] == +1

    def test_profile_is_the_shot_at_c_star(self, shot_kappa1):
        c_star, profile = shot_kappa1
        sign, _, taus, states = _shot(1.0, c_star, 1e-12)
        n = len(profile.z)
        assert sign == +1
        assert np.array_equal(profile.z, -taus[n - 1::-1])
        assert np.array_equal(profile.states[:, :3], states[n - 1::-1])

    @pytest.mark.parametrize("kappa, ulps", [(0.5, 4), (1.0, 0), (2.0, 0), (4.0, 0)])
    def test_matches_the_bisection_oracle(self, searches, kappa, ulps):
        # at kappa = 0.5 the shot signs are not monotone at float resolution:
        # from this search's c* up they read +1, +1, +1, -1, +1, so the
        # bisection settles on the sign change 4 ulp higher; both are
        # adjacent-float certificates
        c_star, _ = searches(kappa)
        c_ref = reference_bisection(kappa, (0.1, 2.0))
        assert c_ref - c_star == ulps * math.ulp(c_ref)
        assert _shot(kappa, c_ref, 1e-12)[0] == 1
        assert _shot(kappa, math.nextafter(c_ref, 0.0), 1e-12)[0] == -1

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 4.0])
    def test_speed_is_certified_at_float_resolution(self, searches, kappa):
        c_star, _ = searches(kappa)
        assert _shot(kappa, c_star, 1e-12)[0] == 1
        assert _shot(kappa, math.nextafter(c_star, 0.0), 1e-12)[0] == -1

    @pytest.mark.parametrize("kappa", [1.0, 4.0])
    def test_miss_is_linear_on_each_side(self, searches, kappa):
        # the premise of the Illinois steps: miss / (c - c*) is near constant
        # on each side, from 1e-4 down to 1e-6 relative offsets
        c_star, _ = searches(kappa)
        for side in (1.0, -1.0):
            slopes = []
            for rel in (1e-4, 1e-6):
                c = c_star * (1.0 + side * rel)
                sign, miss, _, _ = _shot(kappa, c, 1e-12)
                assert sign == side
                slopes.append(miss / (c - c_star))
            assert slopes[0] > 0.0 and abs(slopes[0] / slopes[1] - 1.0) <= 1e-2

    def test_shots_record_the_miss(self, shot_kappa1):
        _, profile = shot_kappa1
        tight = [shot for shot in profile.shots if shot.tol == 1e-12]
        scan = profile.shots[:len(profile.shots) - len(tight)]
        assert [shot.sign for shot in scan[-2:]] == [-1, 1]
        assert all(shot.tol == 1e-8 and math.isnan(shot.miss) for shot in scan)
        assert [shot.c for shot in tight[:2]] == [shot.c for shot in scan[-2:]]
        assert all(0.0 < shot.sign * shot.miss < 1.0 for shot in tight)
        assert profile.refinement_iterations == len(tight) - 2

    def test_shot_and_step_counts(self, shot_kappa1):
        # deterministic counts: a slower search cannot hide in timing noise
        _, profile = shot_kappa1
        assert len(profile.shots) <= 25
        assert sum(shot.steps for shot in profile.shots) <= 30000

    def test_sign_zero_shot_takes_the_midpoint(self, shot_kappa1, monkeypatch):
        # the second tight shot that escapes up (the first inside the bracket)
        # is reported as "span": it still counts as hi, and has no miss
        tight_ups = []

        def shot(kappa, c, tol):
            sign, miss, taus, states = _shot(kappa, c, tol)
            if tol == 1e-12 and sign == 1:
                tight_ups.append(c)
                if len(tight_ups) == 2:
                    return 0, math.nan, taus, states
            return sign, miss, taus, states

        monkeypatch.setattr(front, "_shot", shot)
        c_star, profile = shoot_speed(1.0, (0.1, 2.0), tol=1e-12)
        k = next(i for i, s in enumerate(profile.shots) if s.reason == "span")
        span = profile.shots[k]
        assert span.sign == 0 and math.isnan(span.miss) and span.c == tight_ups[1]
        lo = max(s.c for s in profile.shots[:k] if s.tol == 1e-12 and s.sign == -1)
        assert profile.shots[k + 1].c == 0.5 * (lo + span.c)
        assert c_star == shot_kappa1[0]

    def test_scan_pair_must_bracket_at_tol(self, monkeypatch):
        # the scan pair's lower end, shot again at tol, escaping up
        def shot(kappa, c, tol):
            sign, miss, taus, states = _shot(kappa, c, tol)
            return (1, 1.0, taus, states) if tol == 1e-12 else (sign, miss, taus, states)

        monkeypatch.setattr(front, "_shot", shot)
        with pytest.raises(ShootingError, match="scan pair") as info:
            shoot_speed(1.0, (0.1, 2.0), tol=1e-12)
        assert [s.tol for s in info.value.shots[-3:]] == [1e-8, 1e-12, 1e-12]

    def test_no_sign_change_reported(self):
        with pytest.raises(ShootingError):
            shoot_speed(1.0, (1.5, 2.0), tol=1e-10)

    def test_rejects_nonpositive_kappa(self):
        for kappa in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="kappa"):
                shoot_speed(kappa, (0.1, 2.0))

    @pytest.mark.parametrize("kappa, bracket, tol, named", [
        (math.inf, (0.1, 2.0), 1e-12, "kappa"),
        (1.0, (math.nan, 2.0), 1e-12, "c_min"),
        (1.0, (0.1, math.inf), 1e-12, "c_max"),
        (1.0, (0.1, 2.0), math.inf, "tol"),
        (1.0, (0.1, 2.0), math.nan, "tol"),
        (1.0, (0.1, 2.0), 1e-300, "tol"),
        (1.0, (0.1, 2.0), 0.99 * TOL_MIN, "tol"),
    ])
    def test_rejects_non_finite_settings_and_tiny_tol(self, kappa, bracket, tol, named):
        with pytest.raises(ValueError, match=named):
            shoot_speed(kappa, bracket, tol=tol)

    def test_step_underflow_ends_the_search(self):
        # the second scan shot (c ~ 6e98) underflows at its first step
        with pytest.raises(ShootingError, match="underflow") as info:
            shoot_speed(1.0, (1.0, 1e100))
        assert [shot.sign for shot in info.value.shots] == [1]

    def test_profile_csv(self, shot_kappa1, tmp_path):
        _, profile = shot_kappa1
        path = tmp_path / "profile.csv"
        drift = profile.k_values - profile.c / profile.kappa
        write_profile_csv(path, profile.z, profile.states, drift)
        lines = path.read_text().splitlines()
        assert lines[0] == "z,phi1,phi2,phi3,phi4,k_drift"
        assert len(lines) == 1 + len(profile.z)
        # phi4 column zero-filled for eps = 0
        assert all(float(ln.split(",")[4]) == 0.0 for ln in lines[1:])
        # a reduced 3-column state stack writes the same zero-filled rows
        reduced = tmp_path / "reduced.csv"
        write_profile_csv(reduced, profile.z, profile.states[:, :3], drift)
        assert reduced.read_bytes() == path.read_bytes()

    def test_profile_csv_cells(self, tmp_path):
        # every cell as f"{x:.17g}", special values included
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -1e300]
        z = np.arange(len(special), dtype=float)
        states = np.stack([special, special[::-1], z, -z], axis=1)
        path = tmp_path / "cells.csv"
        write_profile_csv(path, z, states, np.array(special[3:] + special[:3]))
        expect = "".join(",".join(f"{x:.17g}" for x in (zi, *s, dk)) + "\n"
                         for zi, s, dk in zip(z, states, special[3:] + special[:3]))
        assert path.read_text() == "z,phi1,phi2,phi3,phi4,k_drift\n" + expect
