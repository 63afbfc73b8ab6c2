import numpy as np
import pytest

from frontlab.model import (
    BlockSystem,
    _exp_minus,
    _exp_minus_float,
    _exp_minus_prime,
    ModelParams,
    check_block_structure,
    eval_N_times_v_exact,
    eval_g,
    eval_g_prime,
    make_exo_endo_system,
    make_gasless_system,
)
from oracles import (
    central_difference_jacobian,
    divided_difference,
    eval_f_combustion,
    eval_H,
    eval_N_times_v,
    jacobian_combustion,
    lipschitz_probe,
    make_combustion_system,
    midpoint_composition,
    traced_peak,
)


def params(eps=0.5, kappa=1.0, c=1.0):
    return ModelParams(epsilon=eps, kappa=kappa, c=c)


class TestParams:
    def test_valid(self):
        p = params()
        assert (p.epsilon, p.kappa, p.c) == (0.5, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(eps=-0.1),
            dict(eps=1.0),
            dict(kappa=0.0),
            dict(kappa=-1.0),
            dict(c=0.0),
            dict(c=-1.0),
            dict(eps=float("nan")),
            dict(kappa=float("nan")),
            dict(kappa=float("inf")),
            dict(c=float("inf")),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            params(**kw)


class TestIgnitionRate:
    def test_cutoff(self):
        assert eval_g(-3.0) == 0.0
        assert eval_g(0.0) == 0.0

    def test_values(self):
        assert eval_g(1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert eval_g(0.5) == pytest.approx(np.exp(-2.0), abs=1e-15)

    def test_vectorized(self):
        u = np.array([-1.0, 0.0, 1.0, 2.0])
        out = eval_g(u)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(np.exp(-1.0))
        assert out[3] == pytest.approx(np.exp(-0.5))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [eval_g, eval_g_prime])
    def test_tiny_positive_argument_is_exactly_zero(self, fn):
        # -1/u overflows for subnormal u, and u * u underflows to 0 for u
        # below ~2e-162: neither may warn or turn g' into 0 / 0 = NaN
        tiny = [5e-324, 1e-310, 2e-308, 1e-200, 1e-3]
        for u in tiny:
            assert fn(u) == 0.0
        assert np.all(fn(np.array(tiny)) == 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1.0, 0.37, 7.5, 5e-300])
    def test_exp_minus_matches_the_masked_form_bitwise(self, b):
        def masked(b, u):  # exp(-b/u) on u > 0, exp(-inf) = 0 elsewhere
            out = np.full_like(u, -np.inf)
            with np.errstate(over="ignore"):
                np.divide(-b, u, out=out, where=u > 0.0)
            return np.exp(out, out=out)

        # around b 1e-4, where u is lifted to: exp(-b/u) is 0 on both sides
        lift = b * 1e-4
        u = np.array([0.0, -0.0, -1.0, -1e-300, -5e-324, 5e-324, 1e-320, 2.2e-308, 1e-200,
                      1e-3, 0.2, 1.0, 3.5, 1e300, np.inf, -np.inf, np.nan, -np.nan,
                      np.nextafter(lift, 0.0), lift, np.nextafter(lift, 1.0), 2.0 * lift])
        for x in (u, u.reshape(2, 11), u[::-1].copy()):
            got = _exp_minus(b, x)
            assert not np.shares_memory(got, x)
            assert got.tobytes() == masked(b, x).tobytes()
        for x in u:
            assert _exp_minus(b, np.asarray(x)).tobytes() == masked(b, np.asarray(x)).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1.0, 0.37, 7.5])
    def test_float_rate_is_exactly_zero_where_the_array_rate_is(self, b):
        lift = b * 1e-4
        for u in (0.0, -0.0, -1.0, -np.inf, np.nan, 5e-324, 1e-310, 2.2e-308,
                  np.nextafter(lift, 0.0), lift, np.nextafter(lift, 1.0), b / 746.0):
            assert _exp_minus(b, np.asarray(u)) == 0.0
            assert _exp_minus_float(2.0, b, u) == (0.0, 0.0)

    def test_flat_contact(self):
        # divided differences of orders 1..4 decay monotonically to 0 as the
        # evaluation point walks toward the cutoff
        for order in range(1, 5):
            vals = []
            for k in range(1, 7):
                x = 10.0**-k
                vals.append(abs(divided_difference(eval_g, x, order, x / 2.0)))
            assert all(b <= a + 1e-300 for a, b in zip(vals, vals[1:])), (order, vals)
            assert vals[-1] == 0.0  # underflown flat tail


class TestReactionTerm:
    def test_end_states_are_zeros(self):
        for p in (params(), params(kappa=2.5)):
            assert np.all(eval_f_combustion(p, [1.0 / p.kappa, 0.0]) == 0.0)  # u_minus
            assert np.all(eval_f_combustion(p, [0.0, 1.0]) == 0.0)  # u_plus

    def test_direct_value(self):
        p = params(kappa=1.0)
        out = eval_f_combustion(p, np.array([1.0, 2.0]))
        assert out[0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
        assert out[1] == pytest.approx(-2.0 * np.exp(-1.0), rel=1e-12)

    def test_second_component_ratio(self):
        rng = np.random.default_rng(1)
        p = params(kappa=1.7)
        for _ in range(100):
            u = rng.normal(scale=2.0, size=2)
            f = eval_f_combustion(p, u)
            assert f[1] == pytest.approx(-p.kappa * f[0], abs=1e-14)



class TestEndStates:
    def test_combustion_pair_annihilates_f(self):
        for kappa in (0.5, 1.0, 3.0):
            p = params(kappa=kappa)
            r_minus = np.max(np.abs(eval_f_combustion(p, [1.0 / kappa, 0.0])))
            r_plus = np.max(np.abs(eval_f_combustion(p, [0.0, 1.0])))
            assert r_minus <= 1e-14 and r_plus <= 1e-14

class TestJacobian:
    def test_closed_form_kappa1(self):
        J = params(kappa=1.0).linearization
        expect = np.array([[0.0, 0.3678794411714423], [0.0, -0.3678794411714423]])
        assert np.allclose(J, expect, atol=1e-12)

    def test_closed_form_kappa2(self):
        J = params(kappa=2.0).linearization
        assert J[0, 1] == pytest.approx(0.1353352832366127, rel=1e-12)
        assert J[1, 1] == pytest.approx(-0.2706705664732254, rel=1e-12)

    def test_first_column_zero(self):
        for kappa in (0.3, 1.0, 4.2):
            J = params(kappa=kappa).linearization
            assert J[0, 0] == 0.0 and J[1, 0] == 0.0

    def test_matches_difference_quotients(self):
        p = params(kappa=1.3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.uniform(0.2, 2.0, size=2)
            J = jacobian_combustion(p, u)
            Jfd = central_difference_jacobian(lambda x: eval_f_combustion(p, x), u)
            assert np.allclose(J, Jfd, atol=1e-7)


class TestPerturbationNonlinearity:
    def test_zeros(self):
        p = params()
        assert np.all(eval_H(p, np.zeros(2)) == 0.0)
        assert np.all(eval_H(p, np.array([5.0, 0.0])) == 0.0)
        assert np.all(eval_H(p, np.array([0.0, 3.0])) == 0.0)

    def test_direct_value(self):
        p = params(kappa=1.0)
        out = eval_H(p, np.array([1.0, 1.0]))
        expect = np.exp(-0.5) - np.exp(-1.0)
        assert out[0] == pytest.approx(expect, rel=1e-12)
        assert out[1] == pytest.approx(-expect, rel=1e-12)

    def test_product_triangle_structure(self):
        rng = np.random.default_rng(11)
        p = params(kappa=2.2)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=2)
            h = eval_H(p, v)
            assert h[1] == pytest.approx(-p.kappa * h[0], abs=1e-14)

    def test_quadratic_smallness(self):
        # calibrate C_K by dense sampling on the ball |v| <= K, then assert
        # the bound |H(v)| <= C_K |v|^2 on fresh samples
        p = params(kappa=1.0)
        K = 2.0
        rng = np.random.default_rng(21)
        ratios = []
        for _ in range(20000):
            v = rng.normal(size=2)
            v *= K * rng.random() ** 0.5 / np.linalg.norm(v)
            nv = np.linalg.norm(v)
            if nv > 1e-12:
                ratios.append(np.linalg.norm(eval_H(p, v)) / nv**2)
        C_K = 1.05 * max(ratios)
        fresh = np.random.default_rng(22)
        for _ in range(100000):
            v = fresh.normal(size=2)
            v *= K * fresh.random() ** 0.5 / np.linalg.norm(v)
            assert np.linalg.norm(eval_H(p, v)) <= C_K * np.linalg.norm(v) ** 2


class TestIntegralNonlinearity:
    def test_rejects_few_nodes(self):
        sys = make_combustion_system(params())
        with pytest.raises(ValueError):
            eval_N_times_v(sys, np.ones(2), quad_nodes=1)

    def test_affine_system_gives_zero(self):
        A = np.array([[0.3, -0.2], [0.0, -1.0]])

        def f(v):
            return np.tensordot(A, np.asarray(v, dtype=float), axes=(1, 0))

        sys = BlockSystem(n1=1, diffusion=[1.0, 0.5], f=f, jac=lambda v: A)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(size=2)
            assert np.allclose(eval_N_times_v(sys, v), 0.0, atol=1e-14)

    def test_zero_in_zero_out(self):
        sys = make_combustion_system(params())
        assert np.all(eval_N_times_v(sys, np.zeros(2)) == 0.0)

    def test_matches_closed_form_H(self):
        p = params(kappa=1.0)
        sys = make_combustion_system(p)
        v = np.array([1.0, 1.0])
        assert np.allclose(eval_N_times_v(sys, v), eval_H(p, v), atol=1e-10)

    def test_quadrature_consistency_on_ball(self):
        # N(v) v == H(v) == f(u- + v) - f(u-) - Df(u-) v to quadrature accuracy
        p = params(kappa=1.0)
        sys = make_combustion_system(p)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            d = rng.normal(size=2)
            v = d / np.linalg.norm(d) * rng.random() ** 0.5
            err = np.max(np.abs(eval_N_times_v(sys, v) - eval_H(p, v)))
            worst = max(worst, err)
        assert worst <= 1e-10

    def test_exact_identity_on_exo_endo(self):
        sys = make_exo_endo_system(0.8, 0.6, 1.2, 0.9, (1.0, 1.5), (1.0, 2.0))
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = rng.normal(scale=0.7, size=3)
            lhs = eval_N_times_v(sys, v)
            rhs = eval_N_times_v_exact(sys, v)
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestExoEndoSystem:
    def test_reactants_zero_kills_reaction(self):
        sys = make_exo_endo_system(1.0, 1.0, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        for y1 in (-1.0, 0.0, 0.5, 3.0):
            assert np.all(sys.f(np.array([y1, 0.0, 0.0])) == 0.0)

    def test_cold_state_kills_reaction(self):
        sys = make_exo_endo_system(1.0, 1.0, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        assert np.all(sys.f(np.array([0.0, 2.0, 3.0])) == 0.0)

    def test_unit_state_value(self):
        sys = make_exo_endo_system(1.0, 1.0, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        out = sys.f(np.ones(3))
        e1 = np.exp(-1.0)
        assert out[0] == pytest.approx(0.0, abs=1e-15)
        assert out[1] == pytest.approx(-e1, rel=1e-12)
        assert out[2] == pytest.approx(-e1, rel=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            make_exo_endo_system(-1.0, 1.0, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            make_exo_endo_system(1.0, 1.0, 0.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            make_exo_endo_system(1.0, 1.0, 1.0, 1.0, (1.0, -2.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            make_exo_endo_system(1.0, 1.0, 1.0, np.inf, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            make_exo_endo_system(1.0, 1.0, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0), c=np.inf)

    def test_block_structure_probe(self):
        sys = make_exo_endo_system(0.5, 0.25, 2.0, 1.5, (1.0, 0.5), (0.8, 1.1))
        assert check_block_structure(sys, trials=1000, seed=42) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_tiny_temperature_rates_are_exactly_zero(self):
        # -b/u overflows for subnormal u and u * u underflows below ~1e-162:
        # neither may warn or turn the rate derivative into 0 / 0 = NaN
        sys = make_exo_endo_system(0.5, 0.25, 2.0, 1.5, (1.0, 0.5), (0.8, 1.1))
        for u in (5e-324, 1e-310, 1e-170, 1e-3, 0.0, -1.0):
            y = np.array([u, 1.0, 1.0])
            assert np.all(sys.f(y) == 0.0)
            assert np.all(sys.jac(y) == 0.0)
        u = np.array([[1e-170, 5e-324, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        assert sys.stage_rate(u) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_float_jacobian_matches_the_numpy_form(self):
        # jac evaluates its one state on Python floats with math.exp; the
        # numpy form of the same rates (0-d arrays, np.exp) agrees to a few
        # ulp, and both are exactly 0 where the temperature is cold
        a, b, sigma, tau = (1.0, 0.5), (0.8, 1.1), 2.0, 1.5
        sys = make_exo_endo_system(0.5, 0.25, sigma, tau, a, b)

        def numpy_rates(T):  # (rate, slope) of each reactant on a 0-d array
            return [(ai * _exp_minus(bi, np.asarray(T)),
                     ai * _exp_minus_prime(bi, np.asarray(T))) for ai, bi in zip(a, b)]

        rng = np.random.default_rng(14)
        temps = [-2.0, -1e-300, -0.0, 0.0, 5e-324, 1e-310, 1e-170, 8e-5, 1e-3, 0.05, 0.1,
                 0.3, 1.0, 7.3, 1e300, np.inf, -np.inf, np.nan]
        for T in temps + list(rng.uniform(0.0, 3.0, size=200)):
            y2, y3 = rng.normal(size=2)
            (r2, s2), (r3, s3) = numpy_rates(T)
            J = np.array([[y2 * s2 - sigma * y3 * s3, r2, -sigma * r3],
                          [-y2 * s2, -r2, 0.0],
                          [-tau * y3 * s3, 0.0, -tau * r3]])
            scale = np.abs(J)
            scale[0, 0] = abs(y2 * s2) + abs(sigma * y3 * s3)  # the one difference of terms
            got = sys.jac(np.array([T, y2, y3]))
            assert np.array_equal(got == 0.0, J == 0.0)
            assert np.all(np.abs(got - J) <= 1e-15 * scale)
            if not T > 0.0:
                assert np.all(got == 0.0)

    def test_jacobian_matches_difference_quotients(self):
        sys = make_exo_endo_system(0.5, 0.25, 2.0, 1.5, (1.0, 0.5), (0.8, 1.1))
        rng = np.random.default_rng(13)
        for _ in range(20):
            y = rng.uniform(0.3, 1.5, size=3)
            assert np.allclose(sys.jac(y), central_difference_jacobian(sys.f, y),
                               atol=1e-6)


def _linear_system(M, n1=1, diffusion=(1.0, 0.5)):
    M = np.asarray(M, dtype=float)
    return BlockSystem(n1=n1, diffusion=list(diffusion),
                       f=lambda v: np.tensordot(M, np.asarray(v, dtype=float), axes=(1, 0)),
                       jac=lambda v: M.copy())


class TestBlockSystemDeclaration:
    """A block system is declared by n1, one diffusion diagonal, f, jac, c
    and name; n, the second block and the first block of B follow."""

    def test_init_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(BlockSystem) if f.init] == [
            "n1", "diffusion", "f", "jac", "c", "name"]

    def test_derived_quantities(self):
        sys = _linear_system([[0.3, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]],
                             n1=1, diffusion=(1.0, 0.5, 0.0))
        assert (sys.n, sys.n1) == (3, 1)
        assert sys.diffusion.tolist() == [1.0, 0.5, 0.0] and sys.zero_diffusion
        assert not sys.diffusion.flags.writeable
        assert check_block_structure(sys) == 0.0  # B[:1, :1] = 0.3 is the first block

    @pytest.mark.parametrize("n1", [0, -1, 3, 1.5])
    def test_rejects_n1_outside_1_to_n(self, n1):
        with pytest.raises(ValueError, match="n1"):
            _linear_system(np.eye(2), n1=n1)

    def test_compares_and_hashes_by_identity(self):
        # a generated == would compare the array fields and raise, and hash fail
        a, b = (_linear_system(np.eye(2)) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_first_block_may_be_everything(self):
        assert _linear_system(np.eye(2), n1=2).n1 == 2

    @pytest.mark.parametrize("diffusion", [(1.0, -0.5), (-1e-300, 1.0), (np.nan, 1.0)])
    def test_rejects_negative_diffusion(self, diffusion):
        with pytest.raises(ValueError, match="nonnegative"):
            _linear_system(np.eye(2), diffusion=diffusion)

    def test_rejects_a_diffusion_matrix(self):
        with pytest.raises(ValueError, match="diagonal"):
            _linear_system(np.eye(2), diffusion=np.eye(2))

    def test_probe_rejects_a_second_block_part(self):
        # f(v1, 0) = (0.3 v1, 0.2 v1): the first block feeds the second
        sys = _linear_system([[0.3, 1.0], [0.2, -1.0]])
        with pytest.raises(ValueError, match="block structure violated"):
            check_block_structure(sys)

    def test_probe_rejects_a_nonlinear_first_block(self):
        # f(v1, 0) = (v1^2, 0) while B[:1, :1] = Df(0)[:1, :1] = 0
        def f(v):
            v = np.asarray(v, dtype=float)
            return np.stack([v[0] ** 2 + v[1], -v[1]])

        def jac(v):
            return np.array([[2.0 * v[0], 1.0], [0.0, -1.0]])

        sys = BlockSystem(n1=1, diffusion=[1.0, 0.5], f=f, jac=jac)
        with pytest.raises(ValueError, match="block structure violated"):
            check_block_structure(sys)


class TestBlockSystemConstants:
    def test_df0_and_f0_taken_once(self):
        import dataclasses

        base = make_exo_endo_system(0.8, 0.6, 1.2, 0.9, (1.0, 1.5), (1.0, 2.0))
        calls = {"f": [], "jac": []}

        def f(v):
            calls["f"].append(np.shape(v))
            return base.f(v)

        def jac(v):
            calls["jac"].append(np.shape(v))
            return base.jac(v)

        sys = BlockSystem(n1=1, diffusion=base.diffusion, f=f, jac=jac)
        assert calls == {"f": [(3,)], "jac": [(3,)]}
        check_block_structure(sys, trials=1000)
        assert calls["f"][1:] == [(3, 1000)]  # one vectorised probe
        u = np.random.default_rng(31).normal(scale=0.5, size=(3, 16))
        for _ in range(3):
            sys.midpoint_stage(u, 0.05, np.empty((4, 16)))
        assert calls["jac"][1:] == [(3,)] * 3  # only the rate's peak state
        assert calls["f"][2:] == [(3, 16)] * 6
        assert np.array_equal(sys.linearization, base.jac(np.zeros(3)))
        assert np.array_equal(sys.f0, np.zeros(3))
        with pytest.raises(ValueError):
            sys.B[0, 0] = 1.0
        with pytest.raises(ValueError):
            sys.f0[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.c = 2.0

    def test_n_times_v_matches_tensordot_reference(self):
        sys = _rotation_toy()
        v = np.random.default_rng(32).normal(size=(3, 8, 5))
        B = sys.jac(np.zeros(3))
        expect = sys.f(v) - sys.f(np.zeros(3)).reshape(3, 1, 1) - np.tensordot(B, v, axes=(1, 0))
        assert np.array_equal(eval_N_times_v_exact(sys, v), expect)


class TestGaslessSystem:
    def test_zero_diffusion_flagged(self):
        # the fuel does not diffuse: the spectrum command flags a zero entry
        # of the diffusion diagonal, a block system its zero_diffusion
        gas = make_gasless_system(1.0)
        assert gas.diffusion.tolist() == [1.0, 0.0]
        assert gas.describe() == {"kind": "combustion", "epsilon": 0.0, "kappa": 1.0,
                                  "c": 1.0}
        assert make_combustion_system(ModelParams(0.0, 1.0, 1.0)).zero_diffusion
        assert not make_combustion_system(params()).zero_diffusion

    def test_matches_combustion_with_eps_zero(self):
        # u_t = lap(u) + v g(u), v_t = -beta v g(u), shifted to (1/beta, 0)
        beta = 1.4
        gas = make_gasless_system(beta, c=0.7)
        assert gas == ModelParams(epsilon=0.0, kappa=beta, c=0.7)
        v = np.random.default_rng(17).normal(size=(2, 50))
        u1, u2 = 1.0 / beta + v[0], v[1]
        f = np.stack([u2 * eval_g(u1), -beta * u2 * eval_g(u1)])
        g_minus = eval_g(1.0 / beta)
        B = np.array([[0.0, g_minus], [0.0, -beta * g_minus]])  # Df at (1/beta, 0)
        assert np.allclose(gas.linearization, B, rtol=1e-15, atol=0.0)
        Bv = B @ v
        # N(v) v = f(u_minus + v) - f(u_minus) - B v, with f(u_minus) = 0
        assert np.all(np.abs(eval_H(gas, v) - (f - Bv)) <= 1e-15 * (np.abs(f) + np.abs(Bv)))

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            make_gasless_system(0.0)
        with pytest.raises(ValueError, match="finite"):
            make_gasless_system(np.inf)


class TestLipschitzProbe:
    def test_affine_gives_zero(self):
        A = np.array([[0.0, 1.0], [0.0, -2.0]])
        sys = BlockSystem(n1=1, diffusion=[1.0, 0.1],
                          f=lambda v: np.tensordot(A, np.asarray(v, float), axes=(1, 0)),
                          jac=lambda v: A)
        assert lipschitz_probe(sys, 1.0, 500, seed=0) <= 1e-13

    def test_vanishes_with_radius(self):
        sys = make_combustion_system(params(kappa=1.0))
        big = lipschitz_probe(sys, 1.0, 2000, seed=1)
        small = lipschitz_probe(sys, 1e-3, 2000, seed=1)
        tiny = lipschitz_probe(sys, 1e-5, 2000, seed=1)
        assert small < 0.1 * big
        assert tiny < 0.1 * small

    def test_stable_across_seeds(self):
        sys = make_combustion_system(params(kappa=1.0))
        vals = [lipschitz_probe(sys, 1.0, 10000, seed=s) for s in (0, 1, 2)]
        assert all(v > 0.0 for v in vals)
        assert max(vals) <= 1.2 * min(vals)

    def test_rejects_bad_radius(self):
        sys = make_combustion_system(params())
        with pytest.raises(ValueError):
            lipschitz_probe(sys, 0.0, 10, seed=0)


def _rotation_toy() -> BlockSystem:
    # non-triangular B plus quadratic terms that vanish with the second block
    B = np.array([[0.0, -0.9, 0.4], [0.9, 0.0, -0.2], [0.0, 0.0, -0.5]])

    def f(v):
        v = np.asarray(v, dtype=float)
        q = np.stack([v[0] * v[2], -v[1] * v[2], 0.3 * v[2] ** 2])
        return np.tensordot(B, v, axes=(1, 0)) + q

    def jac(v):
        v = np.asarray(v, dtype=float)
        return B + np.array([[v[2], 0.0, v[0]], [0.0, -v[2], -v[1]],
                             [0.0, 0.0, 0.6 * v[2]]])

    return BlockSystem(n1=2, diffusion=[1.0, 0.5, 0.2],
                       f=f, jac=jac, name="rotation-toy")


class TestMidpointStage:
    """midpoint_stage leaves in u, bit for bit, the out-of-place composition
    of the nonlinearity, and returns the stage_rate of the u it was given,
    whatever its scratch array holds."""

    @staticmethod
    def assert_composition(model, u, dt):
        with np.errstate(all="ignore"):
            expect, expect_rate = midpoint_composition(model, u, dt)
            rate = model.midpoint_stage(u, dt, np.full((model.n + 1,) + u.shape[1:], np.nan))
        assert isinstance(rate, float)
        assert np.array_equal(u, expect, equal_nan=True)
        assert np.array_equal(rate, expect_rate, equal_nan=True)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 6.0])
    def test_combustion_random_fields(self, kappa):
        rng = np.random.default_rng(21)
        u = rng.normal(scale=0.8, size=(2, 16, 8))
        self.assert_composition(params(kappa=kappa), u, 0.05)

    def test_combustion_edge_values(self):
        p = params(kappa=1.0)
        # x = 1/kappa + u1: below the cutoff, exactly 0, tiny, +-inf, NaN
        u1 = np.array([-3.0, -1.0 - 1e-9, -1.0, -1.0 + 1e-300, -1.0 + 2.0**-52,
                       0.0, 0.25, np.inf, -np.inf, np.nan, 2.0, 1e200])
        for u2 in (0.0, 1.0, -0.4, np.inf, np.nan):
            u = np.stack([u1, np.full_like(u1, u2)])
            self.assert_composition(p, u.copy(), 0.02)
            self.assert_composition(p, u[:, 3:7], 0.02)  # finite rate, on a strided view

    def test_combustion_subnormal_argument(self):
        # 1/kappa = 2^-1021, so x = 1/kappa + u1 is exactly 2^-1074
        p = ModelParams(epsilon=0.0, kappa=2.0**1021, c=1.0)
        u1 = np.array([-(2.0**-1021 - 2.0**-1074), -(2.0**-1021 - 2.0**-1073), 0.0, 1e-3])
        assert 1.0 / p.kappa + u1[0] == 2.0**-1074
        u = np.stack([u1, np.full_like(u1, 1e-310)])
        self.assert_composition(p, u, 0.01)

    def test_combustion_allocates_no_field(self):
        # a verify2d field, 256 KiB a component: every intermediate lives in
        # work (1 MiB of temporaries when the stage made its own)
        u = np.random.default_rng(26).normal(scale=0.5, size=(2, 256, 128))
        work = np.empty((3, 256, 128))
        p = params(kappa=1.0)
        peak, _ = traced_peak(lambda: p.midpoint_stage(u, 1e-4, work))
        assert peak < 16 * 1024

    @pytest.mark.parametrize("u", [[0.1, 0.2], [-1.0, 0.5], [0.0, 0.0], [np.nan, 1.0]])
    def test_combustion_single_state(self, u):
        # one state of shape (2,), as a block system takes one of shape (n,)
        self.assert_composition(params(kappa=1.0), np.array(u), 0.05)

    def test_gasless(self):
        sys = make_gasless_system(1.3)
        rng = np.random.default_rng(22)
        u = rng.normal(scale=0.8, size=(2, 32))
        u[0, :4] = -1.0 / 1.3   # the ignition cutoff
        self.assert_composition(sys, u, 0.05)

    def test_exo_endo(self):
        sys = make_exo_endo_system(0.8, 0.6, 1.2, 0.9, (1.0, 1.5), (1.0, 2.0))
        rng = np.random.default_rng(23)
        self.assert_composition(sys, rng.normal(scale=0.7, size=(3, 8, 4)), 0.05)

    def test_non_triangular_block_system(self):
        rng = np.random.default_rng(24)
        self.assert_composition(_rotation_toy(), rng.normal(size=(3, 24)), 0.1)

    def test_f_returning_its_argument_is_not_written_over(self):
        # f(v) = v is a valid block system (B = I, first block 1) with N = 0, so the
        # stage leaves u as it was; it works in place on what f returns,
        # which here is the field it is given
        ident = BlockSystem(n1=1, diffusion=[1.0, 0.5],
                            f=lambda v: v, jac=lambda v: np.eye(2))
        u = np.random.default_rng(25).normal(size=(2, 16))
        kept = u.copy()
        assert np.all(eval_N_times_v_exact(ident, u) == 0.0)
        self.assert_composition(ident, u, 0.1)
        assert np.array_equal(u, kept)
