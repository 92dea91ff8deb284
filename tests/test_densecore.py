import numpy as np
import scipy.linalg
import pytest

from expriccati.densecore import (
    compress,
    expm,
    expm_actions,
    operator_separation,
    rel_error,
    solve_sylvester,
    sylvester_kron_matrix,
    unvec,
    vec,
)
from expriccati.errors import DimensionError, DomainError, FiniteEscapeError, SolvabilityError

from helpers import kron_matrix, rel_err


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm([[0.0]]), [[1.0]], atol=1e-15)

    def test_diagonal(self):
        out = expm(np.diag([1.0, 2.0]))
        assert np.allclose(np.diag(out), [np.e, np.e ** 2], rtol=1e-14)
        assert abs(out[0, 1]) < 1e-15 and abs(out[1, 0]) < 1e-15

    def test_nilpotent_series_terminates(self):
        out = expm([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            expm([[np.nan, 0.0], [0.0, 1.0]])

    def test_inverse_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = rng.integers(1, 8)
            a = rng.standard_normal((n, n))
            a *= min(1.0, 10.0 / np.linalg.norm(a, 1))
            resid = expm(a) @ expm(-a) - np.eye(n)
            assert np.linalg.norm(resid) <= 1e-10

    def test_block_diagonal_splits(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3))
        full = np.zeros((7, 7))
        full[:4, :4] = a
        full[4:, 4:] = b
        out = expm(full)
        assert rel_err(out[:4, :4], expm(a)) <= 1e-12
        assert rel_err(out[4:, 4:], expm(b)) <= 1e-12
        assert np.abs(out[:4, 4:]).max() <= 1e-12


class TestExpmActions:
    def test_matches_per_tau_exponentials(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = rng.integers(2, 12)
            m = rng.standard_normal((n, n)) * rng.choice([0.2, 2.0, 30.0])
            b = rng.standard_normal((n, rng.integers(1, 4)))
            sign = rng.choice([-1.0, 1.0])
            taus = list(sign * rng.uniform(0, 1, size=5))
            if trial % 3 == 0:
                taus = list(rng.uniform(-1, 1, size=5))  # mixed-sign fallback
            for got, tau in zip(expm_actions(m, taus, b), taus):
                assert rel_err(got, expm(tau * m) @ b) <= 1e-12

    def test_non_finite_tau_rejected(self):
        with pytest.raises(DomainError):
            expm_actions(np.eye(2), [0.1, np.inf], np.eye(2))


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

    def test_kron_route_agrees_with_schur(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 6))
        d = rng.standard_normal((5, 5)) + 9.0 * np.eye(5)
        f = rng.standard_normal((6, 5))
        w1 = solve_sylvester(a, d, f, method="schur")
        w2 = solve_sylvester(a, d, f, method="kron")
        assert rel_err(w1, w2) <= 1e-11

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

    def test_kron_size_cap(self):
        a = np.eye(70)
        d = np.eye(70)
        with pytest.raises(DomainError):
            solve_sylvester(a, d, np.ones((70, 70)), method="kron")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve_sylvester(np.eye(2), np.eye(2), np.ones((3, 2)))


class TestKronMatrix:
    def test_against_reference_construction(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2))
        assert np.allclose(sylvester_kron_matrix(a, d), kron_matrix(a, d))

    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 5))
        assert np.array_equal(unvec(vec(x), 3, 5), x)


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

    def test_zero_width_passthrough(self):
        l2, c2 = compress(np.zeros((4, 0)), np.zeros((0, 0)), tol=0.1)
        assert l2.shape == (4, 0) and c2.shape == (0, 0)


def test_rel_error_zero_reference():
    assert rel_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
