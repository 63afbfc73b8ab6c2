import itertools

import numpy as np
import pytest
import scipy.linalg

from frontlab.model import (
    BlockSystem,
    ModelParams,
    make_exo_endo_system,
    make_gasless_system,
)
from frontlab.blocks import SAMPLE_BLOCK
from frontlab.spectral import (
    SpectrumSweep,
    SymbolMatrix,
    _sorted_eigvals,
    auto_extent,
    closed_form_abscissa,
    block_abscissas,
    eval_symbol,
    exact_propagator,
    optimal_weight,
    semigroup_envelope,
    sweep_symbol,
    write_spectrum_csv,
)
from frontlab.sim import Grid
from oracles import (abscissa_weighted, exact_propagator_oneshot, semigroup_envelope_oneshot,
                     traced_peak)


ALPHA = 0.4


def params(eps=0.5, kappa=1.0, c=1.0):
    return ModelParams(epsilon=eps, kappa=kappa, c=c)


def eigvals_at(sym, xi) -> np.ndarray:
    """Eigenvalues of S(xi) at one frequency xi, by descending real part."""
    xi = np.asarray(xi, dtype=float)
    return _sorted_eigvals(sym, np.dot(xi, xi), xi[0])[0]


def expm_series(M: np.ndarray, t: float) -> np.ndarray:
    """Scaled 20-term Taylor series for exp(t M): independent oracle."""
    A = np.asarray(M, dtype=complex) * t
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(A, np.inf), 1e-30)))) + 1)
    A = A / 2**s
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, 21):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


class TestSymbol:
    def test_zero_frequency_is_reaction_jacobian(self):
        p = params(kappa=1.3)
        sym = SymbolMatrix.of(p, d=2)
        ek = np.exp(-p.kappa)
        expect = np.array([[0.0, ek], [0.0, -p.kappa * ek]])
        assert np.allclose(eval_symbol(sym, [0.0, 0.0]), expect, atol=1e-15)

    def test_unweighted_1d_entries(self):
        p = ModelParams(epsilon=0.0, kappa=1.0, c=1.0)
        sym = SymbolMatrix.of(p, d=1)
        M = eval_symbol(sym, [1.0])
        assert M[0, 0] == pytest.approx(-1.0 + 1.0j, abs=1e-15)
        assert M[1, 1] == pytest.approx(1.0j - np.exp(-1.0), abs=1e-12)
        assert M[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert M[1, 0] == 0.0

    def test_weighted_zero_frequency_diagonal(self):
        p = params()
        sym = SymbolMatrix.of(p, d=1, alpha=0.4)
        M = eval_symbol(sym, [0.0])
        assert M[0, 0] == pytest.approx(0.4**2 - 0.4, abs=1e-15)
        assert M[1, 1] == pytest.approx(
            p.epsilon * 0.4**2 - 0.4 - p.kappa * np.exp(-p.kappa), abs=1e-14
        )

    def test_dimension_mismatch(self):
        sym = SymbolMatrix.of(params(), d=2, alpha=ALPHA)
        with pytest.raises(ValueError):
            eval_symbol(sym, [1.0])

    def test_triangularity_for_all_frequencies(self):
        rng = np.random.default_rng(2)
        p = params()
        for alpha in (0.0, 0.2, 0.49):
            sym = SymbolMatrix.of(p, d=3, alpha=alpha)
            for _ in range(50):
                xi = rng.normal(scale=5.0, size=3)
                assert eval_symbol(sym, xi)[1, 0] == 0.0

    def test_weighted_matches_similarity_transform(self):
        # S_alpha(xi) must equal the alpha = 0 symbol at xi_1 + i alpha
        # (substituting the complex shift performs the weight conjugation)
        p = params()
        rng = np.random.default_rng(3)
        sym_w = SymbolMatrix.of(p, d=1, alpha=ALPHA)
        for _ in range(25):
            x = rng.normal(scale=3.0)
            z = x + 1j * ALPHA
            D = np.diag([1.0, p.epsilon])
            expect = -z**2 * D + 1j * p.c * z * np.eye(2) + np.array(
                [[0.0, np.exp(-p.kappa)], [0.0, -p.kappa * np.exp(-p.kappa)]]
            )
            assert np.allclose(eval_symbol(sym_w, [x]), expect, atol=1e-12)


class TestEigvals:
    def test_combustion_curves(self):
        p = params(eps=0.3, kappa=1.5, c=2.0)
        sym = SymbolMatrix.of(p, d=2)
        rng = np.random.default_rng(4)
        for _ in range(50):
            xi = rng.normal(scale=4.0, size=2)
            xi2 = np.dot(xi, xi)
            lam = eigvals_at(sym, xi)
            expect = sorted(
                [
                    -xi2 + 1j * p.c * xi[0],
                    -p.epsilon * xi2 + 1j * p.c * xi[0] - p.kappa * np.exp(-p.kappa),
                ],
                key=lambda z: -z.real,
            )
            assert np.allclose(lam, expect, atol=1e-12)

    def test_diagonal_and_involution(self):
        diag = SymbolMatrix(d=1, D=(0.0, 0.0), c=1.0,
                            B=((-0.5, 0.0), (0.0, -2.0)), alpha=0.0)
        lam = eigvals_at(diag, [0.0])
        assert np.allclose(lam, [-0.5, -2.0], atol=1e-14)
        invol = SymbolMatrix(d=1, D=(0.0, 0.0), c=1.0,
                             B=((0.0, 1.0), (1.0, 0.0)), alpha=0.0)
        lam = eigvals_at(invol, [0.0])
        assert np.allclose(sorted(lam.real), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(lam.imag, 0.0, atol=1e-12)

    def test_conjugate_symmetry(self):
        p = params()
        rng = np.random.default_rng(5)
        for sym in (SymbolMatrix.of(p, d=2),
                    SymbolMatrix.of(p, d=2, alpha=ALPHA)):
            for _ in range(30):
                xi = rng.normal(scale=3.0, size=2)
                lp = np.sort_complex(eigvals_at(sym, xi))
                lm = np.sort_complex(np.conj(eigvals_at(sym, -xi)))
                assert np.allclose(lp, lm, atol=1e-12)

    def test_dense_path_matches_triangular(self):
        sys = make_exo_endo_system(0.5, 0.25, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0), c=1.0)
        sym = SymbolMatrix.of(sys, d=1, alpha=0.2)
        assert sym.is_triangular  # B = 0 at the cold state
        general = SymbolMatrix(d=1, D=sym.D, c=sym.c,
                               B=((0.0, 0.1, 0.0), (0.1, 0.0, 0.0), (0.0, 0.0, -1.0)),
                               alpha=0.2)
        lam = eigvals_at(general, [0.7])
        M = eval_symbol(general, [0.7])
        assert np.allclose(np.sort_complex(lam), np.sort_complex(np.linalg.eigvals(M)),
                           atol=1e-12)


class TestAbscissas:
    def test_unweighted_is_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = ModelParams(
                epsilon=rng.uniform(0.0, 0.99),
                kappa=rng.uniform(0.1, 5.0),
                c=rng.uniform(0.2, 4.0),
            )
            assert closed_form_abscissa(SymbolMatrix.of(p)) == 0.0

    def test_weighted_examples(self):
        p = ModelParams(epsilon=0.3, kappa=2.0, c=1.0)
        assert abscissa_weighted(p, alpha=0.5) == pytest.approx(-0.25, abs=1e-15)
        p2 = params(eps=0.5, kappa=1.0, c=1.0)
        assert abscissa_weighted(p2, alpha=0.4) == pytest.approx(-0.24, abs=1e-15)
        assert abscissa_weighted(p2, alpha=0.0) == 0.0

    def test_branch_dominance_on_grid(self):
        # max(a^2 - c a, eps a^2 - c a - kappa e^-kappa) = a^2 - c a
        eps = np.linspace(0.0, 0.99, 10)
        kap = np.linspace(0.05, 6.0, 20)
        al = np.linspace(0.0, 3.0, 50)
        E, K, A = np.meshgrid(eps, kap, al, indexing="ij")
        first = A**2 - 1.0 * A
        second = E * A**2 - 1.0 * A - K * np.exp(-K)
        assert np.all(second <= first)

    def test_sweep_confirms_closed_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.uniform(0.2, 3.0)
            p = ModelParams(
                epsilon=rng.uniform(0.0, 0.99),
                kappa=rng.uniform(0.1, 4.0),
                c=c,
            )
            weight = rng.uniform(1e-3, 0.499) * c
            for alpha, closed in ((0.0, 0.0), (weight, abscissa_weighted(p, weight))):
                sym = SymbolMatrix.of(p, d=1, alpha=alpha)
                sw = sweep_symbol(sym, m=401)
                assert sw.certified
                assert sw.realized_abscissa <= closed + 1e-12
                assert abs(sw.realized_abscissa - closed) <= 1e-6

    def test_block_abscissas(self):
        assert block_abscissas(params(kappa=1.0)) == (0.0, pytest.approx(-0.3678794411714423))
        assert block_abscissas(params(kappa=2.0))[1] == pytest.approx(-0.2706705664732254)
        for kappa in np.linspace(0.01, 10.0, 40):
            assert block_abscissas(params(kappa=kappa))[1] < 0.0


class TestOptimalWeight:
    def test_closed_form(self):
        assert optimal_weight(2.0) == (1.0, -1.0)
        assert optimal_weight(1.0) == (0.5, -0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_weight(0.0)
        with pytest.raises(ValueError):
            optimal_weight(-1.0)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = rng.uniform(0.2, 4.0)
            p = ModelParams(epsilon=0.4, kappa=1.0, c=c)
            astar, vstar = optimal_weight(c)
            grid = np.linspace(1e-6, c, 1001)
            vals = np.array([abscissa_weighted(p, alpha=a) for a in grid])
            assert vstar <= vals.min() + 1e-12
            assert abs(grid[np.argmin(vals)] - astar) <= c / 1000.0


class TestSweepMachinery:
    def test_auto_extent_certifies(self):
        sym = SymbolMatrix.of(params(), d=1, alpha=ALPHA)
        R, certified = auto_extent(sym)
        assert certified and R >= 4.0

    def test_rejects_even_or_tiny_m(self):
        sym = SymbolMatrix.of(params(), d=1, alpha=ALPHA)
        with pytest.raises(ValueError):
            sweep_symbol(sym, m=400)
        with pytest.raises(ValueError):
            sweep_symbol(sym, m=1)

    @pytest.mark.parametrize("R", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_an_extent_that_is_not_positive_and_finite(self, R):
        # R = inf gave a grid of NaN frequencies and NaN abscissas
        with pytest.raises(ValueError, match="extent R"):
            sweep_symbol(SymbolMatrix.of(params(), d=1, alpha=ALPHA), R=R, m=5)

    def test_symmetry_of_curves(self):
        sym = SymbolMatrix.of(params(), d=1, alpha=ALPHA)
        sw = sweep_symbol(sym, R=10.0, m=101)
        lam = sw.eigvals.reshape(101, 2)
        assert np.allclose(np.sort_complex(lam[0]), np.sort_complex(np.conj(lam[-1])),
                           atol=1e-12)

    def test_tensor_sum(self):
        # transverse frequencies only add (-inf, 0]: the d = 2 sweep's
        # abscissa is the d = 1 sweep's
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            c = rng.uniform(0.3, 2.0)
            p = ModelParams(epsilon=rng.uniform(0.0, 0.9), kappa=rng.uniform(0.2, 3.0), c=c)
            alpha = rng.uniform(0.05, 0.45) * c
            sw1, sw2 = (sweep_symbol(SymbolMatrix.of(p, d=d, alpha=alpha), R=15.0, m=31)
                        for d in (1, 2))
            assert abs(sw1.realized_abscissa - sw2.realized_abscissa) <= 1e-10

    def test_transverse_slice_reproduces_1d(self):
        p = params()
        sym1 = SymbolMatrix.of(p, d=1, alpha=ALPHA)
        sym2 = SymbolMatrix.of(p, d=2, alpha=ALPHA)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(scale=3.0)
            eta = rng.normal(scale=3.0)
            lam1 = eigvals_at(sym1, [x])
            lam2 = eigvals_at(sym2, [x, 0.0])
            assert np.allclose(lam1, lam2, atol=1e-14)
            # transverse frequency shifts each family curve by -D_j eta^2
            fam_1d = np.diag(eval_symbol(sym2, [x, 0.0]))
            fam_2d = np.diag(eval_symbol(sym2, [x, eta]))
            D = np.array([1.0, p.epsilon])
            assert np.allclose(fam_2d, fam_1d - D * eta**2, atol=1e-12)


def upper_symbol(D, B, c=1.0, alpha=0.0):
    return SymbolMatrix(d=1, D=tuple(D), c=c, B=tuple(tuple(row) for row in B), alpha=alpha)


def propagator_matrices(sym, xi, dt):
    """Dense (len(xi), n, n) matrices from exact_propagator on 1D samples xi."""
    xi = np.asarray(xi, dtype=float)
    prop = exact_propagator(sym, xi**2, xi, dt)
    E = np.zeros(xi.shape + (sym.n, sym.n), dtype=complex)
    for i, row in enumerate(prop.rows):
        for j, e in row:
            E[..., i, j] = e
    return E


class TestTriangularPropagator:
    def test_identity_at_zero_matrix(self):
        sym = upper_symbol((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), c=0.0)
        E = propagator_matrices(sym, [0.0, 1.5, -3.0], 0.7)
        assert np.allclose(E, np.eye(2), atol=1e-15)

    def test_confluent_limit(self):
        # equal diffusion and equal diagonal: S_11 = S_22 at every frequency
        sym = upper_symbol((0.6, 0.6), ((-0.3, 1.5), (0.0, -0.3)))
        xi = np.array([0.0, 0.4, -2.0])
        E = propagator_matrices(sym, xi, 0.9)
        s11 = -0.6 * xi**2 + 1j * xi - 0.3
        assert np.allclose(E[:, 0, 1], 1.5 * 0.9 * np.exp(0.9 * s11), rtol=1e-14, atol=0.0)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for k in range(1000):
            D = rng.uniform(0.0, 2.0, size=2)
            B = np.array([[rng.normal(), rng.normal()], [0.0, rng.normal()]])
            if k < 100:  # confluent cluster
                D[1] = D[0]
                B[1, 1] = B[0, 0] + rng.normal(scale=1e-13)
            sym = upper_symbol(D, B, c=rng.uniform(0.2, 2.0), alpha=rng.uniform(0.0, 0.5))
            xi = rng.normal(scale=1.5)
            t = rng.uniform(0.0, 2.0)
            E = propagator_matrices(sym, [xi], t)[0]
            worst = max(worst, float(np.max(np.abs(E - expm_series(eval_symbol(sym, [xi]), t)))))
        assert worst <= 1e-10

    def test_fixed_time_value(self):
        sym = upper_symbol((0.8, 0.3), ((0.37, -0.6), (0.0, -1.4)), c=1.2, alpha=0.25)
        E = propagator_matrices(sym, [0.9], 0.7)[0]
        assert np.allclose(E, expm_series(eval_symbol(sym, [0.9]), 0.7), atol=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            exact_propagator(upper_symbol((1.0, 1.0), ((0.0, 0.0), (0.0, 0.0))),
                             0.0, 0.0, -1.0)


def confluent_toy():
    """d1 = d2, B11 = B22, B12 != 0: S_11 - S_22 vanishes at every frequency."""
    B = np.array([[-0.3, 0.8], [0.0, -0.3]])
    return BlockSystem(n1=1, diffusion=[0.7, 0.7],
                       f=lambda v: np.tensordot(B, np.asarray(v, dtype=float), axes=(1, 0)),
                       jac=lambda v: B.copy(), name="confluent-toy")


def rotation_toy():
    """n1 = 2 with a rotation A1: B is not triangular, so expm is used."""
    B = np.array([[0.0, -0.9, 0.4], [0.9, 0.0, -0.2], [0.0, 0.0, -0.5]])
    return BlockSystem(n1=2, diffusion=[1.0, 0.5, 0.2],
                       f=lambda v: np.tensordot(B, np.asarray(v, dtype=float), axes=(1, 0)),
                       jac=lambda v: B.copy(), name="rotation-toy")


def fast_second_toy():
    """d1 = 0 < d2 with B12 != 0: S_22 decays much faster than S_11 at high xi."""
    B = np.array([[0.0, 1.0], [0.0, -0.5]])
    return BlockSystem(n1=1, diffusion=[0.0, 1.0],
                       f=lambda v: np.tensordot(B, np.asarray(v, dtype=float), axes=(1, 0)),
                       jac=lambda v: B.copy(), name="fast-second-toy")


class TestNonTriangularSweep:
    """The batched dense path of sweep_symbol, sample by sample."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_rows_match_per_sample_eigvals(self, d, alpha):
        sym = SymbolMatrix.of(rotation_toy(), d=d, alpha=alpha)
        assert not sym.is_triangular
        sw = sweep_symbol(sym, R=5.0, m=21)
        assert sw.eigvals.shape == (len(sw.xi), 3)
        for xi, row in zip(sw.xi, sw.eigvals):
            vals = np.linalg.eigvals(eval_symbol(sym, xi))
            tol = 1e-13 * np.max(np.abs(vals))
            assert np.max(np.abs(row.real - np.sort(vals.real)[::-1])) <= tol
            # a pair whose real parts tie in exact arithmetic may come in
            # either order, so the row is matched as a set
            assert min(np.max(np.abs(row[list(order)] - vals))
                       for order in itertools.permutations(range(3))) <= tol
        assert sw.realized_abscissa == np.max(sw.eigvals.real)

    def test_tied_real_parts_keep_their_order_under_one_ulp(self):
        # at alpha = 0 the rotation block gives pairs whose real parts tie in
        # exact arithmetic; moving |xi|^2 by one ulp must not swap them (a
        # swap moves an entry by about twice its imaginary part, while the
        # square-root sensitivity at the pair's exceptional point moves it
        # by about 1e-8)
        sym = SymbolMatrix.of(rotation_toy(), d=2, alpha=0.0)
        sw = sweep_symbol(sym, R=5.0, m=101)
        xi2, xi1 = np.sum(sw.xi**2, axis=-1), sw.xi[:, 0]
        assert np.array_equal(sw.eigvals, _sorted_eigvals(sym, xi2, xi1))
        scale = np.max(np.abs(sw.eigvals), axis=-1)
        for direction in (np.inf, -np.inf):
            moved = _sorted_eigvals(sym, np.nextafter(xi2, direction), xi1)
            swapped = np.max(np.abs(moved - sw.eigvals), axis=-1) > 1e-6 * scale
            assert np.sum(swapped) == 0

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_auto_extent_certifies(self, alpha):
        # min(D) = 0.2 > 0: the numerical-abscissa bound certifies the tail
        sym = SymbolMatrix.of(rotation_toy(), d=2, alpha=alpha)
        R, certified = auto_extent(sym)
        assert certified and R >= 4.0
        sw = sweep_symbol(sym, m=31)
        assert sw.certified and sw.extent == R


class TestExactPropagator:
    """exact_propagator against per-mode scipy.linalg.expm(dt S(xi))."""

    @pytest.mark.parametrize("system", [
        lambda: make_gasless_system(1.0),                      # zero diffusion
        lambda: make_exo_endo_system(0.5, 0.25, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0)),
        confluent_toy,
        rotation_toy,                                          # expm branch
    ], ids=["gasless", "exo_endo", "confluent", "non_triangular"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_per_mode_expm(self, system, alpha):
        sym = SymbolMatrix.of(system(), d=1, alpha=alpha)
        xi = np.linspace(-6.0, 6.0, 41)
        dt = 0.35
        E = propagator_matrices(sym, xi, dt)
        for k, x in enumerate(xi):
            expect = scipy.linalg.expm(dt * eval_symbol(sym, [x]))
            assert np.max(np.abs(E[k] - expect)) <= 1e-12

    def test_faster_decaying_second_component_at_large_dt_xi2(self):
        # dt (D_2 - D_1) |xi|^2 reaches 960: exp(dt S_22) underflows to 0 and
        # exp(dt (S_11 - S_22)) would overflow, yet E_12 is finite
        sym = SymbolMatrix.of(fast_second_toy(), d=1)
        xi = np.linspace(-80.0, 80.0, 161)
        dt = 0.15
        E = propagator_matrices(sym, xi, dt)
        assert np.all(np.isfinite(E))
        for k, x in enumerate(xi):
            expect = scipy.linalg.expm(dt * eval_symbol(sym, [x]))
            assert np.max(np.abs(E[k] - expect)) <= 1e-12
        assert abs(E[-1, 0, 1]) > 1e-5

    def test_skips_identically_zero_entries(self):
        # combustion: E_11, E_12, E_22 only; exo_endo at the cold state: diagonal only
        rows = exact_propagator(SymbolMatrix.of(params()), 1.0, 0.5, 0.1).rows
        assert [[j for j, _ in row] for row in rows] == [[0, 1], [1]]
        exo = make_exo_endo_system(0.5, 0.25, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        rows = exact_propagator(SymbolMatrix.of(exo), 1.0, 0.5, 0.1).rows
        assert [[j for j, _ in row] for row in rows] == [[0], [1], [2]]

    def test_chained_triangular_uses_expm(self):
        # B12 B23 != 0 chains two off-diagonal entries: the phi1 form would
        # miss the second-order term, so the dense branch must be taken
        sym = upper_symbol((1.0, 0.5, 0.2), ((0.0, 0.7, 0.0), (0.0, -0.2, 0.6),
                                             (0.0, 0.0, -0.4)))
        E = propagator_matrices(sym, [0.0, 1.3], 0.5)
        for k, x in enumerate((0.0, 1.3)):
            expect = scipy.linalg.expm(0.5 * eval_symbol(sym, [x]))
            assert np.max(np.abs(E[k] - expect)) <= 1e-12
        assert abs(E[0, 0, 2]) > 1e-3


def assert_same_rows(got, expect):
    """Two Propagator.rows with the same entries, bit for bit."""
    assert [[j for j, _ in row] for row in got] == [[j for j, _ in row] for row in expect]
    for row, ref in zip(got, expect):
        for (_, e), (_, r) in zip(row, ref):
            assert e.shape == r.shape and e.tobytes() == r.tobytes()


class TestBlockedPropagator:
    """The closed form in blocks of SAMPLE_BLOCK samples against one
    evaluation over all samples (tests/oracles.py), bit for bit."""

    @pytest.mark.parametrize("system", [
        params, lambda: params(eps=0.1, kappa=2.0, c=1.3), lambda: make_gasless_system(1.0),
        lambda: make_exo_endo_system(0.5, 0.25, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0)),
        fast_second_toy, confluent_toy,
    ], ids=["combustion", "combustion_b", "gasless", "exo_endo", "fast_second", "confluent"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_1d_samples(self, system, alpha):
        sym = SymbolMatrix.of(system(), d=1, alpha=alpha)
        xi = np.linspace(-80.0, 80.0, 3 * SAMPLE_BLOCK + 17)  # four blocks
        for dt in (0.01, 0.35):
            assert_same_rows(exact_propagator(sym, xi**2, xi, dt).rows,
                             exact_propagator_oneshot(sym, xi**2, xi, dt).rows)

    @pytest.mark.parametrize("system", [params, fast_second_toy])
    def test_2d_half_spectrum(self, system):
        # the linear_propagator layout: 65 samples a row, 63 rows a block
        grid = Grid((50.0, 25.0), (256, 128))
        xi2 = sum(grid.rxi(ax) ** 2 for ax in range(2))
        xi1 = np.broadcast_to(grid.rxi(0), grid.spectrum_shape)
        sym = SymbolMatrix.of(system(), d=2)
        for dt in (0.01, 0.15):
            assert_same_rows(exact_propagator(sym, xi2, xi1, dt).rows,
                             exact_propagator_oneshot(sym, xi2, xi1, dt).rows)

    def test_dt_array(self):
        rng = np.random.default_rng(3)
        sym = SymbolMatrix.of(params(), alpha=ALPHA)
        xi = np.linspace(-15.0, 15.0, 401).reshape(1, -1)
        t = rng.uniform(0.0, 40.0, size=(37, 1))  # 10 times a block: four blocks
        assert_same_rows(exact_propagator(sym, xi**2, xi, t).rows,
                         exact_propagator_oneshot(sym, xi**2, xi, t).rows)
        # scalar samples against a 1D dt, and a row longer than the budget
        assert_same_rows(exact_propagator(sym, 1.0, 0.5, t.ravel()).rows,
                         exact_propagator_oneshot(sym, 1.0, 0.5, t.ravel()).rows)
        long = np.linspace(-15.0, 15.0, SAMPLE_BLOCK + 1).reshape(1, -1)
        assert_same_rows(exact_propagator(sym, long**2, long, t[:3]).rows,
                         exact_propagator_oneshot(sym, long**2, long, t[:3]).rows)

    def test_phi1_mixed_mask(self):
        # off-diagonal arguments below 1e-4 near xi = 0 and above it elsewhere,
        # so blocks with a uniform mask and a block with a mixed one
        sym = upper_symbol((1.0, 0.999), ((-0.2, 0.7), (0.0, -0.2)))
        xi = np.linspace(-3.0, 3.0, 2 * SAMPLE_BLOCK + 1)
        z = 0.4 * (1.0 - 0.999) * xi**2  # |dt (S_11 - S_22)|
        assert np.any(z < 1e-4) and np.any(z > 1e-4)
        assert_same_rows(exact_propagator(sym, xi**2, xi, 0.4).rows,
                         exact_propagator_oneshot(sym, xi**2, xi, 0.4).rows)

    def test_flip_branch(self):
        # Re dt (S_11 - S_22) > 1 on most samples: the E_11 form is taken there
        sym = SymbolMatrix.of(fast_second_toy(), d=1)
        xi = np.linspace(-80.0, 80.0, 2 * SAMPLE_BLOCK + 3)
        rows = exact_propagator(sym, xi**2, xi, 0.15).rows
        assert np.mean(0.15 * xi**2 > 1.0) > 0.9
        assert_same_rows(rows, exact_propagator_oneshot(sym, xi**2, xi, 0.15).rows)
        assert np.all(np.isfinite(rows[0][1][1]))


class TestSemigroupEnvelope:
    def test_pure_heat_symbol_gives_one(self):
        # B = 0, D = I, alpha = 0 analog: kappa e^-kappa coupling removed by
        # taking b = 0 through a custom scan over the scalar heat curve
        t = np.linspace(0.0, 10.0, 101)
        xi = np.linspace(-10.0, 10.0, 201)
        env = np.exp(0.0 * t[:, None]) * np.exp(-(xi[None, :] ** 2) * t[:, None])
        assert env.max() == pytest.approx(1.0)

    def test_combustion_envelope_finite_and_stable(self):
        sym = SymbolMatrix.of(params(), alpha=ALPHA)
        t = np.linspace(0.0, 40.0, 801)
        xi = np.linspace(-15.0, 15.0, 301)
        K1, nu = semigroup_envelope(sym, t, xi)
        assert nu == pytest.approx(0.24, abs=1e-12)
        assert 1.0 <= K1 < 10.0
        t2 = np.linspace(0.0, 40.0, 1601)
        xi2 = np.linspace(-15.0, 15.0, 601)
        K2, _ = semigroup_envelope(sym, t2, xi2)
        assert abs(K2 - K1) <= 0.02 * K1

    def test_envelope_nonincreasing_in_alpha_at_zero_frequency(self):
        p = params()
        t = np.linspace(0.0, 60.0, 1201)
        ks = []
        for alpha in np.linspace(0.05, 0.49, 10):
            K, _ = semigroup_envelope(SymbolMatrix.of(p, alpha=alpha), t, [0.0])
            ks.append(K)
        assert all(b <= a + 1e-12 for a, b in zip(ks, ks[1:]))

    def test_invalid_band_rejected(self):
        p = params()
        with pytest.raises(ValueError):
            # alpha = 0 has zero decay rate: not a valid envelope rate
            semigroup_envelope(SymbolMatrix.of(p), [0.0], [0.0])
        # the documented failure mode: envelope cap exceeded
        with pytest.raises(RuntimeError):
            semigroup_envelope(SymbolMatrix.of(p, alpha=ALPHA), np.linspace(0, 5, 6), [0.0],
                               cap=0.5)

    @pytest.mark.parametrize("empty", ["t", "xi"])
    def test_empty_grid_rejected(self, empty):
        sym = SymbolMatrix.of(params(), alpha=ALPHA)
        t, xi = ([] if empty == "t" else [0.0, 1.0]), ([] if empty == "xi" else [0.0])
        with pytest.raises(ValueError, match="t_grid and xi_grid must be nonempty"):
            semigroup_envelope(sym, t, xi)

    @pytest.mark.parametrize("system,alpha", [
        (params, ALPHA), (lambda: make_gasless_system(1.0), 0.3), (fast_second_toy, 0.3)])
    def test_blocked_K_is_the_one_shot_K(self, system, alpha):
        sym = SymbolMatrix.of(system(), alpha=alpha)
        t = np.linspace(0.0, 40.0, 161)
        xi = np.linspace(-15.0, 15.0, 401)
        K, _ = semigroup_envelope(sym, t, xi)
        assert K == semigroup_envelope_oneshot(sym, t, xi)

    def test_working_set_on_the_shipped_grid(self):
        # 801 times x 401 frequencies, the spectrum command's grid: blocks of
        # 10 times (5,060 KiB traced when blocks held 64 times)
        sym = SymbolMatrix.of(params(), alpha=ALPHA)
        t = np.linspace(0.0, 40.0, 801)
        xi = np.linspace(-15.0, 15.0, 401)
        peak, (K, _) = traced_peak(lambda: semigroup_envelope(sym, t, xi))
        assert peak < 2 * 2**20
        assert K == semigroup_envelope_oneshot(sym, t, xi)


class TestSpectrumCsv:
    def test_format(self, tmp_path):
        sym = SymbolMatrix.of(params(), d=1, alpha=ALPHA)
        sw = sweep_symbol(sym, R=2.0, m=5)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, sw)
        lines = path.read_text().splitlines()
        assert lines[0] == "xi_1,re_lambda_1,im_lambda_1,re_lambda_2,im_lambda_2"
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert float(first[0]) == -2.0
        # 17 significant digits round-trip exactly
        for tok in first[1:]:
            assert float(tok) == float(f"{float(tok):.17g}")

    @pytest.mark.parametrize("d", [1, 2])
    def test_bytes_match_per_cell_format(self, tmp_path, d):
        # more rows than one formatting block, and the special values
        rng = np.random.default_rng(6)
        rows = 2500
        xi = rng.normal(size=(rows, d))
        ev = rng.normal(size=(rows, 2)) ** 5 + 1j * rng.normal(size=(rows, 2))
        ev[:4, 0] = [np.nan, np.inf, -np.inf, -0.0]
        ev[:4, 1] = [complex(-0.0, np.nan), 5e-324, 1e300j, -1e-300]
        sw = SpectrumSweep(xi=xi, eigvals=ev, realized_abscissa=0.0, extent=1.0,
                           certified=True)
        write_spectrum_csv(tmp_path / "s.csv", sw)
        lines = (tmp_path / "s.csv").read_text().splitlines()[1:]
        expect = [",".join([f"{x:.17g}" for x in xr]
                           + [f"{v:.17g}" for e in er for v in (e.real, e.imag)])
                  for xr, er in zip(xi, ev)]
        assert lines == expect
