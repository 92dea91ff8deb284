import numpy as np
import scipy.linalg
import scipy.sparse
import pytest

from expriccati import densecore
from expriccati.densecore import (
    SparsePlusThin,
    compress,
    expm_actions,
    solve_sylvester,
)
from expriccati.errors import DimensionError, DomainError, FiniteEscapeError, SolvabilityError
from expriccati.problems import fdm_sym

from helpers import (
    compress_forming_q,
    expm_longdouble,
    kron_matrix,
    operator_separation,
    random_stable,
    rel_err,
    unvec,
    vec,
)


class TestExpm:
    """The matrix exponential as the action of ``expm_actions`` on the
    identity: SciPy's identities and the rejection of raw input hold for
    the package's own exponential kernel."""

    @staticmethod
    def _expm(a, tau=1.0):
        return expm_actions(a, [tau], np.eye(len(a)))[0]

    def test_zero_matrix(self):
        assert np.allclose(self._expm([[0.0]]), [[1.0]], atol=1e-15)

    def test_diagonal(self):
        out = self._expm(np.diag([1.0, 2.0]))
        assert np.allclose(np.diag(out), [np.e, np.e ** 2], rtol=1e-14)
        assert abs(out[0, 1]) < 1e-15 and abs(out[1, 0]) < 1e-15

    def test_nilpotent_series_terminates(self):
        out = self._expm([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            self._expm(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            self._expm([[np.nan, 0.0], [0.0, 1.0]])

    def test_inverse_identity(self):
        # exp(-A) is the exponential of -A at tau = 1.
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = rng.integers(1, 8)
            a = rng.standard_normal((n, n))
            a *= min(1.0, 10.0 / np.linalg.norm(a, 1))
            resid = self._expm(a) @ self._expm(-a) - np.eye(n)
            assert np.linalg.norm(resid) <= 1e-10

    def test_block_diagonal_splits(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3))
        full = np.zeros((7, 7))
        full[:4, :4] = a
        full[4:, 4:] = b
        out = self._expm(full)
        assert rel_err(out[:4, :4], self._expm(a)) <= 1e-12
        assert rel_err(out[4:, 4:], self._expm(b)) <= 1e-12
        assert np.abs(out[:4, 4:]).max() <= 1e-12


class TestExpmActions:
    def test_matches_per_tau_exponentials(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = rng.integers(2, 12)
            m = rng.standard_normal((n, n)) * rng.choice([0.2, 2.0, 30.0])
            b = rng.standard_normal((n, rng.integers(1, 4)))
            # exp(tau M) with tau < 0 is exp(|tau| (-M)).
            m *= rng.choice([-1.0, 1.0])
            taus = list(rng.uniform(0, 1, size=5))
            for got, tau in zip(expm_actions(m, taus, b), taus):
                assert rel_err(got, expm_longdouble(tau * m) @ b) <= 1e-12

    def test_decaying_scalar_keeps_full_accuracy(self):
        # The chain's series steps must not lose the result to cancellation
        # when it decays (a degree-55 step left exp(-9) 1.3e-9 off).
        for x in np.linspace(0.5, 16.0, 32):
            got = expm_actions([[-x]], [1.0], [[1.0]])[0][0, 0]
            assert abs(got - np.exp(-x)) <= 1e-14 * np.exp(-x)

    def test_non_finite_tau_rejected(self):
        with pytest.raises(DomainError):
            expm_actions(np.eye(2), [0.1, np.inf], np.eye(2))

    def test_negative_tau_rejected(self):
        # exp(tau M) with tau < 0 is asked for as exp(|tau| (-M)).
        with pytest.raises(DomainError, match="nonnegative"):
            expm_actions(np.eye(2), [0.1, -0.1], np.eye(2))

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="3 rows"):
            expm_actions(np.eye(2), [0.1], np.ones((3, 1)))

    @staticmethod
    def _count_products(monkeypatch):
        """Products of any SparsePlusThin with a block, counted."""
        count = [0]
        original = SparsePlusThin.__matmul__

        def spy(self, block):
            count[0] += 1
            return original(self, block)

        monkeypatch.setattr(SparsePlusThin, "__matmul__", spy)
        return count

    def test_node_times_share_one_power_sequence(self, monkeypatch):
        # The shift by the mean diagonal halves the Laplacian's norm, so
        # one interval of degree <= 24 serves all seven node times.
        rng = np.random.default_rng(19)
        a = scipy.sparse.csr_array(fdm_sym(10))
        u, b = 0.1 * rng.standard_normal((100, 2)), 0.1 * rng.standard_normal((100, 2))
        norm1 = np.linalg.norm(a.toarray(), 1) + np.linalg.norm(u, 1) * np.linalg.norm(b.T, 1)
        op = SparsePlusThin(a, u, b.T, norm1)
        nodes = np.polynomial.legendre.leggauss(7)[0]
        h = 3.5 / norm1
        taus = [(1.0 - 0.5 * (x + 1.0)) * h for x in nodes]
        v = rng.standard_normal((100, 4))
        products = self._count_products(monkeypatch)
        got = expm_actions(op, taus, v)
        assert 0 < products[0] <= 24
        dense = a.toarray() - u @ b.T
        for value, tau in zip(got, taus):
            assert rel_err(value, scipy.linalg.expm(tau * dense) @ v) <= 1e-12

    @pytest.mark.parametrize("structured", [False, True])
    def test_multiple_of_identity_is_a_scalar_factor(self, structured, monkeypatch, full_exponentials):
        # tau c = -800 underflows e^(tau c) and +30 grows it; the shift
        # leaves nothing for the series, so no product is taken.
        n = 5
        v = np.random.default_rng(20).standard_normal((n, 3))
        products = self._count_products(monkeypatch)
        for c, tau in [(-2.0, 400.0), (2.0, 15.0)]:
            if structured:
                identity = scipy.sparse.csr_array(scipy.sparse.eye_array(n))
                m = SparsePlusThin(c * identity, np.zeros((n, 1)), np.zeros((1, n)), abs(c))
            else:
                m = c * np.eye(n)
            value, = expm_actions(m, [tau], v)
            assert np.all(np.isfinite(value))
            assert np.array_equal(value, np.exp(tau * c) * v)
        assert products[0] == 0 and full_exponentials == []


class TestExpmActionRoutes:
    """Which operators reach a full ``scipy.linalg.expm`` in expm_actions."""

    N = 30

    def _operator(self, rng):
        """Dissipative tridiagonal A minus a rank-2 U B^T."""
        n = self.N
        a = scipy.sparse.diags(
            [np.ones(n - 1), -4.0 - rng.uniform(0.0, 1.0, n), np.ones(n - 1)], [-1, 0, 1]
        )
        u, b = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        norm1 = np.linalg.norm(a.toarray(), 1) + np.linalg.norm(u, 1) * np.linalg.norm(b.T, 1)
        return SparsePlusThin(scipy.sparse.csr_array(a), u, b.T, norm1)

    @pytest.mark.parametrize("signs", [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0)])
    def test_structured_operator_takes_no_full_exponential(self, signs, full_exponentials):
        rng = np.random.default_rng(16)
        op = self._operator(rng)
        taus = np.array(signs) * np.array([0.3, 0.7, 1.0]) * 60.0 / op.norm1
        v = rng.standard_normal((self.N, 3))
        # exp(tau M) with tau < 0 is exp(|tau| (-M)): one call per sign.
        got = expm_actions(op, taus[taus > 0], v)
        expm_actions(SparsePlusThin(-op.a, -op.u, op.bt, op.norm1), -taus[taus < 0], v)
        assert full_exponentials == []
        dense = op.a.toarray() - op.u @ op.bt
        for value, tau in zip(got, taus[taus > 0]):
            assert rel_err(value, scipy.linalg.expm(tau * dense) @ v) <= 1e-12

    def test_dense_matrix_above_limit_takes_one_per_tau(self, full_exponentials):
        rng = np.random.default_rng(17)
        op = self._operator(rng)
        dense = op.a.toarray() - op.u @ op.bt
        taus = [0.1, 0.5, 1.0]
        span = 20.0 / np.linalg.norm(dense, 1)
        # A block as wide as the matrix: the chain's products would cost
        # more than three full exponentials.
        expm_actions(dense, [span * t for t in taus], rng.standard_normal((self.N, self.N)))
        assert full_exponentials == [self.N] * len(taus)

    def test_long_structured_chain_is_formed_densely(self, full_exponentials, monkeypatch):
        # At max|tau| ||M||_1 = 1e5 the chain would take about 1e6 products
        # with the block, three 30 x 30 exponentials far less.
        def no_chain(*args):
            raise AssertionError("the Taylor chain ran")

        monkeypatch.setattr(densecore, "_taylor_apply", no_chain)
        rng = np.random.default_rng(18)
        op = self._operator(rng)
        stiff = SparsePlusThin(1e4 * op.a, op.u, op.bt, 1e4 * op.norm1)
        taus = np.array([0.3, 0.7, 1.0]) * 1e5 / stiff.norm1
        v = rng.standard_normal((self.N, 3))
        got = expm_actions(stiff, taus, v)
        assert full_exponentials == [self.N] * len(taus)
        dense = stiff.a.toarray() - stiff.u @ stiff.bt
        for value, tau in zip(got, taus):
            assert rel_err(value, scipy.linalg.expm(tau * dense) @ v) <= 1e-12


class TestSolveSylvester:
    def test_scalar(self):
        assert np.allclose(solve_sylvester([[1.0]], [[1.0]], [[2.0]]), [[1.0]])

    def test_diagonal(self):
        w = solve_sylvester(np.diag([1.0, 2.0]), [[3.0]], [[4.0], [5.0]])
        assert np.allclose(w, [[1.0], [1.0]])

    def test_matches_vectorized_solve(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 5))
        d = rng.standard_normal((4, 4)) + 8.0 * np.eye(4)  # keep spectra apart
        f = rng.standard_normal((5, 4))
        w = solve_sylvester(a, d, f)
        oracle = unvec(np.linalg.solve(kron_matrix(a, d), vec(f)), 5, 4)
        assert rel_err(w, oracle) <= 1e-11

    def test_residual_bound_randomized(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m = rng.integers(1, 21)
            n = rng.integers(1, 21)
            a = rng.standard_normal((m, m))
            d = rng.standard_normal((n, n))
            if operator_separation(a, d) <= 1e-6:
                d = d + 10.0 * np.eye(n)
            f = rng.standard_normal((m, n))
            w = solve_sylvester(a, d, f)
            resid = np.linalg.norm(a @ w + w @ d - f)
            bound = 1e-10 * (np.linalg.norm(a) + np.linalg.norm(d)) * np.linalg.norm(w)
            assert resid <= bound + 1e-12 * np.linalg.norm(f)

    def test_singular_pair_reports_condition(self):
        with pytest.raises(SolvabilityError) as info:
            solve_sylvester([[1.0]], [[-1.0]], [[1.0]])
        assert info.value.separation <= 1e-12
        assert info.value.condition == np.inf

    def test_same_steps_as_scipy(self):
        rng = np.random.default_rng(16)
        for m, n in ((1, 1), (5, 3), (12, 9)):
            a = rng.standard_normal((m, m))
            d = rng.standard_normal((n, n)) + 6.0 * np.eye(n)
            f = rng.standard_normal((m, n))
            assert np.array_equal(solve_sylvester(a, d, f), scipy.linalg.solve_sylvester(a, d, f))

    def test_complex_pair_separation_from_schur_forms(self):
        # A has eigenvalues 2 and 1 +- 2i, D has -1 +- 2i: two sums vanish,
        # and the separation read off the 2 x 2 Schur blocks must see it.
        a = np.array([[2.0, 0.3, 0.1], [0.0, 1.0, 2.0], [0.0, -2.0, 1.0]])
        d = np.array([[-1.0, 4.0], [-1.0, -1.0]])
        with pytest.raises(SolvabilityError) as info:
            solve_sylvester(a, d, np.ones((3, 2)))
        assert info.value.separation <= 1e-12
        # -1 +- 3i: the real parts still cancel, the imaginary ones do not.
        apart = np.array([[-1.0, 9.0], [-1.0, -1.0]])
        w = solve_sylvester(a, apart, np.ones((3, 2)))
        assert np.linalg.norm(a @ w + w @ apart - 1.0) <= 1e-12 * np.linalg.norm(w)
        assert operator_separation(a, apart) == pytest.approx(1.0)

    @pytest.mark.parametrize("transposed, forms", [(True, 1), (False, 2)])
    def test_schur_forms_per_solve(self, monkeypatch, transposed, forms):
        calls = []
        original = scipy.linalg.schur

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", spy)
        rng = np.random.default_rng(17)
        a = random_stable(rng, 6, margin=0.5)
        d = a.T if transposed else random_stable(rng, 6, margin=0.5)
        solve_sylvester(a, d, rng.standard_normal((6, 6)))
        assert len(calls) == forms

    def test_transposed_pair_matches_vectorized_solve(self):
        rng = np.random.default_rng(18)
        a = random_stable(rng, 5, margin=0.5)
        f = rng.standard_normal((5, 5))
        w = solve_sylvester(a, a.T, f)
        oracle = unvec(np.linalg.solve(kron_matrix(a, a.T), vec(f)), 5, 5)
        assert rel_err(w, oracle) <= 1e-11
        # The shared Schur form is the one a second factorization returns.
        assert np.array_equal(w, scipy.linalg.solve_sylvester(a, a.T, f))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve_sylvester(np.eye(2), np.eye(2), np.ones((3, 2)))


class TestCompress:
    def test_exact_zero_mode_dropped(self):
        l = np.eye(7)[:, :2]  # exactly orthonormal columns
        l2, c2 = compress(l, np.diag([1.0, 0.0]), tol=0.0)
        assert l2.shape == (7, 1)
        assert np.allclose(c2, [[1.0]])
        assert rel_err(l2 @ c2 @ l2.T, l @ np.diag([1.0, 0.0]) @ l.T) <= 1e-14

    def test_random_orthonormal_zero_mode(self):
        q = np.linalg.qr(np.random.default_rng(18).standard_normal((7, 2)))[0]
        l2, c2 = compress(q, np.diag([1.0, 0.0]), tol=1e-15)
        assert l2.shape == (7, 1)
        assert rel_err(l2 @ c2 @ l2.T, q @ np.diag([1.0, 0.0]) @ q.T) <= 1e-14

    def test_duplicated_column_collapses(self):
        rng = np.random.default_rng(19)
        col = rng.standard_normal((6, 1))
        l = np.hstack([col, col])
        target = l @ l.T  # core = I2; the product is rank one by construction
        l2, c2 = compress(l, np.eye(2), tol=1e-14)
        assert l2.shape[1] == 1
        assert rel_err(l2 @ c2 @ l2.T, target) <= 1e-14

    def test_reconstruction_bound_random(self):
        rng = np.random.default_rng(20)
        l = rng.standard_normal((50, 10))
        core = rng.standard_normal((10, 10))
        core = (core + core.T) / 2
        target = l @ core @ l.T
        l2, c2 = compress(l, core, tol=1e-12)
        assert np.linalg.norm(l2 @ c2 @ l2.T - target) <= 1e-12 * np.linalg.norm(target)
        assert np.allclose(l2.T @ l2, np.eye(l2.shape[1]), atol=1e-13)
        assert l2.shape[1] <= 10

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        l = rng.standard_normal((30, 8))
        core = rng.standard_normal((8, 8))
        core = (core + core.T) / 2
        l1, c1 = compress(l, core, tol=1e-10)
        l2, c2 = compress(l1, c1, tol=1e-10)
        assert l2.shape == l1.shape
        assert rel_err(l2 @ c2 @ l2.T, l1 @ c1 @ l1.T) <= 1e-14

    def test_indefinite_core_kept(self):
        rng = np.random.default_rng(22)
        l = rng.standard_normal((12, 4))
        core = np.diag([2.0, -1.5, 1.0, -0.5])
        l2, c2 = compress(l, core, tol=1e-14)
        assert rel_err(l2 @ c2 @ l2.T, l @ core @ l.T) <= 1e-12
        assert (np.diag(c2) < 0).any()

    def test_vector_core_equals_its_diagonal_matrix(self):
        # A diagonal core given as its vector compresses bit for bit like
        # the matrix form, kept columns, basis and eigenvalues alike.
        rng = np.random.default_rng(23)
        l = rng.standard_normal((15, 6))
        d = np.array([3.0, -1.5, 1e-9, 0.5, -2e-12, 1.0])
        for tol in (0.0, 1e-10, 1e-3):
            lv, cv = compress(l, d, tol)
            lm, cm = compress(l, np.diag(d), tol)
            assert lv.shape[1] < 6 or tol == 0.0
            assert np.array_equal(lv, lm) and np.array_equal(cv, cm)

    def test_vector_core_length_checked(self):
        with pytest.raises(DimensionError):
            compress(np.eye(3)[:, :2], np.ones(3), tol=0.0)

    def test_asymmetric_core_rejected(self):
        with pytest.raises(DomainError):
            compress(np.eye(3)[:, :2], [[1.0, 0.5], [0.0, 1.0]], tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(DomainError):
            compress(np.eye(2), np.eye(2), tol=-1e-3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_factor_rejected(self, bad):
        l = np.eye(3)[:, :2].copy()
        l[1, 0] = bad
        with pytest.raises(DomainError):
            compress(l, np.eye(2), tol=0.0)
        with pytest.raises(DomainError):
            compress(np.eye(3)[:, :2], np.diag([1.0, bad]), tol=0.0)

    def test_overflowing_product_raises(self):
        # The projected core overflows to inf; the drop rule must not turn
        # that into an empty (zero) factor.
        with pytest.raises(FiniteEscapeError), np.errstate(over="ignore"):
            compress(np.array([[1e200]]), np.eye(1), tol=1e-14)

    @staticmethod
    def _factor(case):
        """(L, core vector, tol) of one factor shape the steps produce."""
        rng = np.random.default_rng(24)
        if case == "tall":
            return rng.standard_normal((40, 12)), rng.uniform(0.5, 2.0, 12), 1e-12
        if case == "wide":
            # More columns than rows, as at n = 64: R is 8 x 20 and Q 8 x 8.
            return rng.standard_normal((8, 20)), rng.uniform(0.5, 2.0, 20), 1e-12
        if case == "rank-deficient":
            m = rng.standard_normal((30, 4))
            return np.hstack([m, m @ rng.standard_normal((4, 6))]), np.ones(10), 1e-12
        if case == "indefinite":
            d = np.array([3.0, -2.0, 1.0, -0.5, 1e-9, -1e-13, 2e-14, 0.25])
            return rng.standard_normal((25, 8)), d, 1e-10
        # keep-0: tol = 1 lets the drop rule take every mode.
        return rng.standard_normal((20, 5)), rng.standard_normal(5), 1.0

    @pytest.mark.parametrize("case", ["tall", "wide", "rank-deficient", "indefinite", "keep-0"])
    def test_matches_q_forming_reference(self, case):
        l, d, tol = self._factor(case)
        out, lam = densecore._compress_trusted(l, d, tol)
        ref, ref_lam = compress_forming_q(l, d, tol)
        assert out.shape == ref.shape and lam.shape == ref_lam.shape
        assert lam.size == {"tall": 12, "wide": 8, "rank-deficient": 4, "indefinite": 6}.get(case, 0)
        assert rel_err(lam, ref_lam) <= 1e-14
        # Column signs are fixed by the eigenvectors both share.
        assert rel_err(out, ref) <= 1e-14
        assert np.abs(out.T @ out - np.eye(lam.size)).max(initial=0.0) <= 1e-14
        x = (l * d) @ l.T
        assert np.linalg.norm(x - (out * lam) @ out.T) <= (tol + 1e-14) * np.linalg.norm(x)

    def test_never_forms_q(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(args))
        for case in ("tall", "wide", "keep-0"):
            densecore._compress_trusted(*self._factor(case))
        assert calls == []

    def test_zero_width_passthrough(self):
        l2, c2 = compress(np.zeros((4, 0)), np.zeros((0, 0)), tol=0.1)
        assert l2.shape == (4, 0) and c2.shape == (0, 0)
