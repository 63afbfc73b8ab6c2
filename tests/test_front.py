import numpy as np
import pytest

from frontlab.front import (
    ShootingError,
    _shot,
    conserved_k,
    integrate_orbit,
    ode_jacobian,
    shoot_speed,
    spatial_eigenvalues,
    vector_field,
    write_profile_csv,
)
from frontlab.model import ModelParams


def params(eps=0.5, kappa=1.0, c=1.0):
    return ModelParams(epsilon=eps, kappa=kappa, c=c)


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
        lo_sign, _, _ = _shot(1.0, 0.1, 1e-10)
        hi_sign, _, _ = _shot(1.0, 2.0, 1e-10)
        assert lo_sign == -1 and hi_sign == +1

    def test_speed_sits_on_the_shooting_boundary(self, shot_kappa1):
        c_star, _ = shot_kappa1
        assert _shot(1.0, c_star * (1 - 1e-6), 1e-12)[0] == -1
        assert _shot(1.0, c_star * (1 + 1e-6), 1e-12)[0] == +1

    def test_profile_is_the_shot_at_c_star(self, shot_kappa1):
        c_star, profile = shot_kappa1
        sign, taus, states = _shot(1.0, c_star, 1e-12)
        n = len(profile.z)
        assert sign == +1
        assert np.array_equal(profile.z, -taus[n - 1::-1])
        assert np.array_equal(profile.states[:, :3], states[n - 1::-1])

    def test_no_sign_change_reported(self):
        with pytest.raises(ShootingError):
            shoot_speed(1.0, (1.5, 2.0), tol=1e-10)

    def test_rejects_nonpositive_kappa(self):
        for kappa in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="kappa"):
                shoot_speed(kappa, (0.1, 2.0))

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
