import numpy as np
import pytest
import scipy.linalg

from expriccati import integrators
from expriccati.errors import DomainError
from expriccati.krylov import build_basis, exp_actions_krylov
from expriccati.lowrank import assemble_rhs
from expriccati.problems import fdm_sym, problem_from_spec

from helpers import rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(50)


class TestBuildBasis:
    def test_orthonormal_columns_and_projection(self, rng):
        a = rng.standard_normal((40, 40))
        v = rng.standard_normal((40, 3))
        basis = build_basis(a, v, m=5)
        q = basis.basis
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12
        h_ref = q.T @ a @ q
        assert rel_err(basis.H, h_ref) <= 1e-10

    def test_full_space_clamp(self, rng):
        a = rng.standard_normal((6, 6))
        v = rng.standard_normal((6, 2))
        basis = build_basis(a, v, m=30)  # m*b = 60 > 6
        assert basis.size == 6
        assert basis.coupling == 0.0

    def test_invariant_subspace_deflates(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        v = np.eye(4)[:, :1]
        basis = build_basis(a, v, m=3)
        assert basis.size == 1
        assert basis.coupling <= 1e-12

    def test_rank_deficient_seed_deflated(self, rng):
        col = rng.standard_normal((10, 1))
        v = np.hstack([col, col, rng.standard_normal((10, 1))])
        basis = build_basis(rng.standard_normal((10, 10)), v, m=2)
        # seed block deflates from 3 to 2 columns
        assert basis.basis.shape[1] <= 4

    @pytest.mark.parametrize("scale", [1e-8, 1e14])
    def test_deflation_relative_to_each_block(self, scale):
        # Each product block is deflated against its own norm, not the
        # seed's: a tiny seed must not let roundoff columns into the
        # basis, nor a huge one deflate the real ones.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        v = scale * rng.standard_normal((5, 3))
        q = build_basis(a, v, m=4).basis
        assert q.shape[1] == 5
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12

    def test_zero_seed_rejected(self, rng):
        with pytest.raises(DomainError):
            build_basis(rng.standard_normal((5, 5)), np.zeros((5, 2)), m=3)

    def test_empty_seed_rejected(self, rng):
        with pytest.raises(DomainError):
            build_basis(rng.standard_normal((5, 5)), np.zeros((5, 0)), m=3)

    @pytest.mark.parametrize("rows, m, message", [(4, 3, "4 rows"), (5, 0, "step count")])
    def test_bad_seed_rows_or_step_count_rejected(self, rng, rows, m, message):
        with pytest.raises(DomainError, match=message):
            build_basis(rng.standard_normal((5, 5)), rng.standard_normal((rows, 2)), m=m)


class TestExpAction:
    def test_tau_zero_returns_block(self, rng):
        a = rng.standard_normal((20, 20))
        v = rng.standard_normal((20, 2))
        basis = build_basis(a, v, m=4)
        value, estimate = exp_actions_krylov(basis, [0.0], v)[0]
        assert rel_err(value, v) <= 1e-12
        assert estimate >= 0.0

    def test_full_subspace_exact(self, rng):
        a = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 2))
        basis = build_basis(a, v, m=4)  # 4*2 = 8 = n
        for tau in (0.3, 0.9):
            value, estimate = exp_actions_krylov(basis, [tau], v)[0]
            assert rel_err(value, scipy.linalg.expm(tau * a) @ v) <= 1e-11
            assert estimate <= 1e-10

    def test_invariant_subspace_exact(self):
        a = np.diag([-1.0, -2.0, -3.0])
        v = np.eye(3)[:, :1]
        basis = build_basis(a, v, m=1)
        value, _ = exp_actions_krylov(basis, [0.7], v)[0]
        assert rel_err(value, np.exp(-0.7) * v) <= 1e-13

    def test_non_finite_tau_rejected(self, rng):
        a = rng.standard_normal((5, 5))
        v = rng.standard_normal((5, 1))
        basis = build_basis(a, v, m=2)
        with pytest.raises(DomainError):
            exp_actions_krylov(basis, [np.nan], v)

    def test_row_mismatch_rejected(self, rng):
        basis = build_basis(rng.standard_normal((5, 5)), rng.standard_normal((5, 1)), m=2)
        with pytest.raises(DomainError, match="4 rows"):
            exp_actions_krylov(basis, [0.1], rng.standard_normal((4, 1)))

    def test_residual_estimate_tracks_error(self, rng):
        a = fdm_sym(8)  # n = 64, symmetric
        v = rng.standard_normal((64, 2))
        basis = build_basis(a, v, m=6)
        value, estimate = exp_actions_krylov(basis, [0.01], v)[0]
        true_err = np.linalg.norm(value - scipy.linalg.expm(0.01 * a) @ v)
        assert estimate > 0.0
        # Order-of-magnitude agreement only; the estimate is a surrogate.
        assert true_err <= 100.0 * max(estimate, 1e-16)


class TestAccuracy:
    def test_laplacian_thin_block_vs_dense(self, rng):
        a = fdm_sym(20)  # n = 400
        v = rng.standard_normal((400, 4))
        basis = build_basis(a, v, m=30)
        for tau in (0.001, 0.0005):
            value, _ = exp_actions_krylov(basis, [tau], v)[0]
            oracle = scipy.linalg.expm(tau * a) @ v
            assert rel_err(value, oracle) <= 1e-8

    def test_error_monotone_in_subspace_size(self, rng):
        a = fdm_sym(10)  # n = 100, symmetric
        v = rng.standard_normal((100, 2))
        tau = 0.02
        oracle = scipy.linalg.expm(tau * a) @ v
        errors = []
        for m in (2, 4, 8, 16):
            basis = build_basis(a, v, m=m)
            value, _ = exp_actions_krylov(basis, [tau], v)[0]
            errors.append(rel_err(value, oracle))
        assert all(e1 >= e2 * 0.999 for e1, e2 in zip(errors, errors[1:]))

    def test_one_basis_serves_many_taus(self, rng):
        a = fdm_sym(8)
        v = rng.standard_normal((64, 3))
        shared = build_basis(a, v, m=10)
        h = 0.01
        nodes = np.polynomial.legendre.leggauss(7)[0]
        taus = [(1.0 - 0.5 * (x + 1.0)) * h for x in nodes]
        multi = exp_actions_krylov(shared, taus, v)
        for tau, (value, _) in zip(taus, multi):
            rebuilt = build_basis(a, v, m=10)
            single, _ = exp_actions_krylov(rebuilt, [tau], v)[0]
            assert rel_err(value, single) <= 1e-12

    def test_multi_matches_single(self, rng):
        a = rng.standard_normal((30, 30))
        v = rng.standard_normal((30, 2))
        basis = build_basis(a, v, m=5)
        taus = [0.05, 0.2, 0.11]
        multi = exp_actions_krylov(basis, taus, v)
        for tau, (value, estimate) in zip(taus, multi):
            single, single_est = exp_actions_krylov(basis, [tau], v)[0]
            assert rel_err(value, single) <= 1e-12
            assert abs(estimate - single_est) <= 1e-10 * max(single_est, 1.0)


class TestStiffOperator:
    """The step-0 coefficient A_lin of fdm-sym:k=14 (n = 196), where
    ||h A_lin||_1 = 20 at h = 1e-3 and a 30-block basis on the width-6
    right-hand side deflates to 122 columns."""

    H = 1e-3

    @pytest.fixture(scope="class")
    def step0(self):
        problem = problem_from_spec("fdm-sym:k=14", seed=20240)
        state = problem.initial_factor()
        a_lin, _ = integrators._linearize(problem, state, None, None)
        v = assemble_rhs(problem, state).compressed(state.dim * np.finfo(float).eps).L
        return a_lin, a_lin.a.toarray() - a_lin.u @ a_lin.bt, v

    @pytest.mark.parametrize("structured", [True, False])
    def test_basis_stays_orthonormal_and_exact(self, step0, structured):
        # Block CGS2 alone left this basis 2e-4 to 5e-4 off orthonormal and
        # its actions 2e-4 off the exact ones.
        a_lin, dense, v = step0
        basis = build_basis(a_lin if structured else dense, v, m=30)
        q = basis.basis
        assert np.abs(q.T @ q - np.eye(basis.size)).max() <= 1e-12
        assert rel_err(basis.H, q.T @ dense @ q) <= 1e-12
        nodes = np.polynomial.legendre.leggauss(7)[0]
        taus = [(1.0 - 0.5 * (x + 1.0)) * self.H for x in nodes]
        for tau, (value, estimate) in zip(taus, exp_actions_krylov(basis, taus, v)):
            assert rel_err(value, scipy.linalg.expm(tau * dense) @ v) <= 1e-12
            assert estimate <= 1e-10

    def test_projected_actions_take_the_chain(self, step0, full_exponentials):
        # At twice the step the span max|tau| ||H||_1 is 20; the chain on
        # the 6-column block costs far less than a 122 x 122 exponential
        # per node time.
        a_lin, _, v = step0
        basis = build_basis(a_lin, v, m=30)
        nodes = np.polynomial.legendre.leggauss(7)[0]
        taus = [(1.0 - 0.5 * (x + 1.0)) * 2.0 * self.H for x in nodes]
        pairs = exp_actions_krylov(basis, taus, v)
        assert full_exponentials == []
        e1 = basis.basis.T @ v
        for tau, (value, _) in zip(taus, pairs):
            assert rel_err(value, basis.basis @ (scipy.linalg.expm(tau * basis.H) @ e1)) <= 1e-12
