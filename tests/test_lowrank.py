from math import factorial

import numpy as np
import pytest
import scipy.linalg

import expriccati.lowrank as lowrank
from expriccati.errors import ConfigurationError, DimensionError, DomainError, FiniteEscapeError
from expriccati.integrators import RiccatiProblem
from expriccati.lowrank import (
    LdlFactor,
    assemble_phi_sum,
    assemble_remainder_diff,
    assemble_rhs,
    concat_update,
)
from expriccati.phifun import QuadratureRule
from expriccati.problems import problem_from_spec

from helpers import random_stable, rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(60)


def _symmetric_problem(rng, n, width=3, stable=True):
    a = random_stable(rng, n) if stable else rng.standard_normal((n, n))
    c = rng.standard_normal((2, n))
    b = rng.standard_normal((n, width))
    l0 = rng.standard_normal((n, 2))
    return RiccatiProblem(A=a, C=c, B=b, L0=l0, symmetric=True)


def _random_state(rng, n, r):
    l = rng.standard_normal((n, r))
    core = rng.standard_normal((r, r))
    return LdlFactor(l, (core + core.T) / 2)


class TestLdlFactor:
    def test_reconstruct_and_rank(self, rng):
        state = _random_state(rng, 8, 3)
        assert state.rank == 3 and state.dim == 8
        x = state.reconstruct()
        assert np.allclose(x, x.T)

    def test_zero_factor(self):
        z = LdlFactor.zero(5)
        assert z.rank == 0
        assert np.array_equal(z.reconstruct(), np.zeros((5, 5)))
        assert z.min_eigenvalue() == 0.0
        assert z.fnorm() == 0.0

    def test_asymmetric_core_rejected(self):
        with pytest.raises(DomainError):
            LdlFactor(np.eye(3)[:, :2], [[0.0, 1.0], [0.0, 0.0]])

    def test_general_core_is_diagonalized(self, rng):
        l = rng.standard_normal((8, 3))
        core = rng.standard_normal((3, 3))
        core = core + core.T
        factor = LdlFactor(l, core)
        assert np.array_equal(factor.core, np.diag(np.diagonal(factor.core)))
        assert rel_err(factor.reconstruct(), l @ core @ l.T) <= 1e-14

    def test_diagonal_core_keeps_the_factor(self, rng):
        l = rng.standard_normal((8, 3))
        d = np.array([2.0, -1.0, 0.0])
        factor = LdlFactor(l, np.diag(d))
        assert np.array_equal(factor.L, l) and np.array_equal(factor.core, np.diag(d))

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            LdlFactor(np.eye(3)[:, :2], np.eye(3))

    @pytest.mark.parametrize("shape", [(10, 4), (4, 7)])
    def test_spectrum_from_r_alone(self, rng, shape):
        # mode="r" skips forming Q; R and so the spectrum are bit for bit
        # those of the full thin QR.
        factor = LdlFactor(rng.standard_normal(shape), rng.standard_normal(shape[1]))
        r = np.linalg.qr(factor.L)[1]
        mid = (r * factor._core) @ r.T
        assert np.array_equal(factor._projected_eigenvalues,
                              np.linalg.eigvalsh((mid + mid.T) / 2.0))

    def test_fnorm_and_min_eigenvalue_match_dense(self, rng, monkeypatch):
        state = _random_state(rng, 10, 4)
        compressed = state.compressed(1e-12)
        concatenated = concat_update(state, _random_state(rng, 10, 3), tol=1e-12)
        factors = (state, compressed, concatenated)
        dense = [f.reconstruct() for f in factors]
        smallest = [float(np.linalg.eigvalsh(x).min()) for x in dense]
        for factor, x, lam_min in zip(factors, dense, smallest):
            assert factor.fnorm() == pytest.approx(np.linalg.norm(x), rel=1e-12)
            assert factor.min_eigenvalue() == pytest.approx(lam_min, abs=1e-10)
            # Compression results carry their spectrum: no QR, no eigvalsh.
            monkeypatch.setattr(np.linalg, "qr", None)
            monkeypatch.setattr(np.linalg, "eigvalsh", None)


class TestAssembleRhs:
    def test_zero_state_gives_constant_term(self, rng):
        p = _symmetric_problem(rng, 6)
        out = assemble_rhs(p, LdlFactor.zero(6))
        assert rel_err(out.reconstruct(), p.C.T @ p.C) <= 1e-14

    def test_no_quadratic_generator(self, rng):
        n = 7
        a = random_stable(rng, n)
        c = rng.standard_normal((2, n))
        l0 = rng.standard_normal((n, 2))
        p = RiccatiProblem(A=a, C=c, B=np.zeros((n, 1)), L0=l0, symmetric=True)
        state = p.initial_factor()
        x = state.reconstruct()
        target = p.C.T @ p.C + a @ x + x @ a.T
        assert rel_err(assemble_rhs(p, state).reconstruct(), target) <= 1e-13

    def test_matches_dense_rhs(self, rng):
        p = _symmetric_problem(rng, 20)
        state = _random_state(rng, 20, 3)
        out = assemble_rhs(p, state)
        assert rel_err(out.reconstruct(), p.rhs(state.reconstruct())) <= 1e-12

    def test_balanced_against_a_large_coefficient(self, rng):
        # ||A L|| / ||L|| is about 1e8.  Without the column balancing,
        # P = U + L and M = U - L would carry U U^T twice, and its
        # cancellation would cost about 1e4 times the bound below.
        n, r = 12, 3
        p = _symmetric_problem(rng, n)
        p = RiccatiProblem(A=1e8 * p.A, C=p.C, B=p.B, L0=p.L0, symmetric=True)
        state = _random_state(rng, n, r)
        out = assemble_rhs(p, state)
        x = state.reconstruct()
        terms = (p.Q, p.A @ x, x @ p.A.T, x @ p.G @ x)
        dense = terms[0] + terms[1] + terms[2] - terms[3]
        scale = sum(np.linalg.norm(t) for t in terms)
        assert np.linalg.norm(out.reconstruct() - dense) <= 1e-12 * scale
        nl = p.C.shape[0]
        expected = np.concatenate([np.ones(nl), np.full(r, 0.5), np.full(r, -0.5)])
        assert np.array_equal(out.core, np.diag(expected))

    def test_sparse_coefficient_product(self, rng):
        # fdm-sym:k=14 (n = 196) keeps a CSR copy of A for the low-rank
        # steps; A L goes through it and matches the dense-A assembly.
        p = problem_from_spec("fdm-sym:k=14", seed=20240)
        state = _random_state(rng, p.M, 31)
        dense_a = problem_from_spec("fdm-sym:k=14", seed=20240)
        dense_a.__dict__["_sparse_coefficient"] = None
        expected = assemble_rhs(dense_a, state)

        products = []

        class Counted:
            def __matmul__(self, block):
                products.append(block.shape)
                return csr @ block

        csr, *rest = p._sparse_coefficient
        p.__dict__["_sparse_coefficient"] = (Counted(), *rest)
        out = assemble_rhs(p, state)
        assert products == [(p.M, 31)]
        assert rel_err(out.L, expected.L) <= 1e-14
        assert np.array_equal(out.core, expected.core)

    def test_needs_generators(self, rng):
        from expriccati.integrators import RiccatiProblem

        n = 4
        a = random_stable(rng, n)
        p = RiccatiProblem(A=a, D=a.T, Q=np.eye(n), G=np.eye(n), X0=np.zeros((n, n)),
                           symmetric=True)
        with pytest.raises(ConfigurationError):
            assemble_rhs(p, LdlFactor.zero(n))

    def test_state_dimension_mismatch(self, rng):
        p = _symmetric_problem(rng, 6)
        with pytest.raises(DimensionError, match="dimension 5"):
            assemble_rhs(p, _random_state(rng, 5, 2))

    def test_needs_symmetric_problem(self, rng):
        from expriccati.integrators import RiccatiProblem

        # The generators are attached, but the problem is not symmetric.
        n = 4
        a = random_stable(rng, n)
        p = RiccatiProblem(A=a, D=a.T, Q=np.eye(n), G=np.eye(n), X0=np.zeros((n, n)),
                           C=np.eye(n), B=np.eye(n))
        with pytest.raises(ConfigurationError, match="symmetric problem"):
            assemble_rhs(p, LdlFactor.zero(n))


class TestAssembleRemainderDiff:
    def test_dimension_mismatch(self, rng):
        p = _symmetric_problem(rng, 6)
        with pytest.raises(DimensionError, match="6 versus 5"):
            assemble_remainder_diff(p, _random_state(rng, 6, 2), _random_state(rng, 5, 2))

    def test_identical_states_cancel(self, rng):
        p = _symmetric_problem(rng, 10)
        state = _random_state(rng, 10, 3)
        out = assemble_remainder_diff(p, state, state)
        scale = max(np.abs(state.reconstruct() @ p.G).max(), 1.0)
        assert np.abs(out.reconstruct()).max() <= 1e-13 * scale

    def test_zero_quadratic_generator(self, rng):
        n = 8
        p = RiccatiProblem(
            A=random_stable(rng, n),
            C=rng.standard_normal((2, n)),
            B=np.zeros((n, 2)),
            L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        out = assemble_remainder_diff(p, _random_state(rng, n, 2), _random_state(rng, n, 3))
        assert np.abs(out.reconstruct()).max() == 0.0

    def test_matches_dense_difference(self, rng):
        p = _symmetric_problem(rng, 20)
        state = _random_state(rng, 20, 3)
        stage = _random_state(rng, 20, 4)
        x = state.reconstruct()
        y = stage.reconstruct()
        target = x @ p.G @ y + y @ p.G @ x - y @ p.G @ y - x @ p.G @ x
        assert rel_err(assemble_remainder_diff(p, state, stage).reconstruct(), target) <= 1e-12

    def test_width_is_that_of_the_quadratic_generator(self, rng):
        # -(X - Y) B B^T (X - Y) needs one column per column of B, whatever
        # the ranks of the two factors.
        p = _symmetric_problem(rng, 20)
        out = assemble_remainder_diff(p, _random_state(rng, 20, 3), _random_state(rng, 20, 4))
        assert out.rank == p.B.shape[1]
        assert np.array_equal(out.core, -np.eye(p.B.shape[1]))


class TestAssemblePhiSum:
    @staticmethod
    def _dense_actions(a):
        return lambda taus, block: [scipy.linalg.expm(t * a) @ block for t in taus]

    def test_first_order_weights(self, rng):
        # gamma_j must be h * w_j for the phi_1 stack.  The full core is
        # diagonalized first, so each node's block carries h w_j L C L^T.
        n, h = 5, 0.3
        factor = _random_state(rng, n, 2)
        rule = QuadratureRule.gauss_legendre(4)
        out = assemble_phi_sum(self._dense_actions(np.zeros((n, n))), h, 1, factor, rule, coeff=h)
        r = factor.rank
        for j, w in enumerate(rule.weights):
            cols = slice(j * r, (j + 1) * r)
            block = out.L[:, cols] @ out.core[cols, cols] @ out.L[:, cols].T
            assert rel_err(block, h * w * factor.reconstruct()) <= 1e-14

    def test_zero_step_returns_zero_factor(self, rng):
        factor = _random_state(rng, 4, 2)
        rule = QuadratureRule.gauss_legendre(3)
        out = assemble_phi_sum(self._dense_actions(np.eye(4)), 0.0, 1, factor, rule, coeff=0.0)
        assert out.rank == 0

    def test_third_order_zero_operator(self, rng):
        # With A = 0 the stack reduces to 2h * (sum w_j s_j^2 / 2) * LDL^T
        # = (h/3) LDL^T since the rule integrates s^2 exactly.
        n, h = 6, 0.25
        factor = _random_state(rng, n, 2)
        rule = QuadratureRule.gauss_legendre(7)
        out = assemble_phi_sum(
            self._dense_actions(np.zeros((n, n))), h, 3, factor, rule, coeff=2 * h
        )
        assert rel_err(out.reconstruct(), (h / 3.0) * factor.reconstruct()) <= 1e-13

    def test_unsupported_order_rejected(self, rng):
        factor = _random_state(rng, 4, 1)
        rule = QuadratureRule.gauss_legendre(3)
        with pytest.raises(DomainError):
            assemble_phi_sum(self._dense_actions(np.eye(4)), 0.1, 2, factor, rule, coeff=0.1)

    def test_approximates_phi1_action(self, rng):
        # Dense cross-check of the whole stack against an accurate phi_1.
        from expriccati.sylvop import SylvesterOperator, phi_action_augmented

        n = 8
        a = random_stable(rng, n, scale=0.5)
        factor = _random_state(rng, n, 3)
        rule = QuadratureRule.gauss_legendre(7)
        h = 0.2
        out = assemble_phi_sum(self._dense_actions(a), h, 1, factor, rule, coeff=h)
        op = SylvesterOperator(a, a.T)
        target = h * phi_action_augmented(op, h, 1, factor.reconstruct())
        assert rel_err(out.reconstruct(), target) <= 1e-9


class TestConcatUpdate:
    def test_zero_update_returns_state_unchanged(self, rng):
        state = _random_state(rng, 6, 2)
        out = concat_update(state, LdlFactor.zero(6), tol=1e-12)
        assert out is state

    def test_zero_state_compresses_update(self, rng):
        update = _random_state(rng, 6, 4)
        out = concat_update(LdlFactor.zero(6), update, tol=1e-12)
        assert rel_err(out.reconstruct(), update.reconstruct()) <= 1e-11
        assert out.rank <= update.rank

    def test_sum_reproduced(self, rng):
        state = _random_state(rng, 12, 3)
        update = _random_state(rng, 12, 5)
        out = concat_update(state, update, tol=1e-13)
        target = state.reconstruct() + update.reconstruct()
        assert np.linalg.norm(out.reconstruct() - target) <= 1e-12 * np.linalg.norm(target)
        assert out.rank <= state.rank + update.rank

    @pytest.mark.parametrize("tol", [1e-1, 1e-4, 1e-8])
    def test_general_update_meets_the_bound(self, rng, tol):
        # A symmetric update core that is not diagonal: a graded spectrum
        # in a random basis, so that the pre-pass drops columns of the
        # diagonalized update.
        n, r = 14, 6
        state = _random_state(rng, n, 4)
        q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        core = q @ np.diag([1.0, -0.5, 1e-3, -1e-6, 1e-9, 1e-12]) @ q.T
        update = LdlFactor(rng.standard_normal((n, r)), (core + core.T) / 2)
        assert np.count_nonzero(core - np.diag(np.diagonal(core)))
        out = concat_update(state, update, tol)
        target = state.reconstruct() + update.reconstruct()
        assert np.linalg.norm(out.reconstruct() - target) <= tol * np.linalg.norm(target)
        assert out.rank < state.rank + r

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            concat_update(_random_state(rng, 5, 2), _random_state(rng, 6, 2), tol=0.0)

    def test_negligible_columns_skip_the_compression(self, rng, monkeypatch):
        widths = []
        original = lowrank.compress

        def spy(l, core, tol):
            widths.append(l.shape[1])
            return original(l, core, tol)

        monkeypatch.setattr(lowrank, "compress", spy)
        state = _random_state(rng, 12, 3)
        update_l = rng.standard_normal((12, 5))
        # Columns 1 and 3 weigh about 1e-24 of the state; 0 is exactly zero.
        update_l[:, [1, 3]] *= 1e-12
        update_l[:, 0] = 0.0
        update = LdlFactor(update_l, np.diag([1.0, 2.0, -1.0, 1.0, 0.5]))
        out = concat_update(state, update, tol=1e-13)
        assert widths == [3 + 2]
        target = state.reconstruct() + update.reconstruct()
        assert np.linalg.norm(out.reconstruct() - target) <= 1e-13 * np.linalg.norm(target)
        # At tol = 0 only the exact zero column goes.
        concat_update(state, update, tol=0.0)
        assert widths == [3 + 2, 3 + 4]

    # Worst cases of the pre-pass at tol = 1e-2 with the budget b = share tol:
    # the base diag(1, a) sits near the compression's drop threshold and the
    # update lies along that mode.  Dropping a diagonal update of weight
    # 0.8 b must tighten the tolerance of the rest, or the mode a goes too.
    # Under the core [[0, 1], [1, 0]] each column weighs 0.9 b but carries
    # both cross terms, 1.8 b: over the budget, so neither may be dropped.
    @pytest.mark.parametrize("general", [False, True], ids=["diagonal-core", "general-core"])
    def test_pre_pass_keeps_the_bound_at_the_threshold(self, general):
        tol = 1e-2
        b = lowrank._PREDROP_SHARE * tol
        if general:
            a, weight, cols, core = tol - 1.35 * b, 0.9 * b, [1, 1], [[0.0, 1.0], [1.0, 0.0]]
        else:
            a, weight, cols, core = tol - 0.4 * b, 0.8 * b, [1], [[1.0]]
        base = LdlFactor(np.eye(4)[:, :2], np.diag([1.0, a]))
        update = LdlFactor(np.sqrt(weight) * np.eye(4)[:, cols], core)
        out = concat_update(base, update, tol)
        target = base.reconstruct() + update.reconstruct()
        assert np.linalg.norm(out.reconstruct() - target) <= tol * np.linalg.norm(target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_update_reaches_the_compression(self, rng, bad):
        # The overflowing column is not pre-dropped: the compression fails.
        update = _random_state(rng, 6, 3)
        update.L[0, 1] = bad
        with pytest.raises((FiniteEscapeError, np.linalg.LinAlgError)):
            concat_update(_random_state(rng, 6, 2), update, tol=1e-1)


class TestTruncateOperand:
    """The operand of base + coeff phi_k(hS)(operand), compressed down to
    ``lowrank._operand_floor``, loses the modes whose tail moves the update
    by at most share tol ||base||_F."""

    # A compression's output: orthonormal columns, core sorted by |d|.  The
    # tail norms from the last mode up are 0.375, 0.625, 1.18, 2.32, 4.62.
    CORE = np.array([4.0, -2.0, 1.0, -0.5, 0.375])
    BASE = LdlFactor(np.eye(7)[:, :2], np.array([3.0, -4.0]))  # ||base||_F = 5

    def _operand(self):
        return LdlFactor._from_compressed(np.eye(7)[:, :5], self.CORE.copy())

    @staticmethod
    def _truncate(operand, base, k, coeff, tol):
        return operand.compressed(tol, lowrank._operand_floor(base.fnorm(), k, coeff, tol))

    def _tol(self, tail, k, coeff):
        """The tolerance whose budget on the operand tail is ``tail``."""
        return tail * abs(coeff) / (lowrank._PREDROP_SHARE * self.BASE.fnorm() * factorial(k))

    # The second case is Erow3's correction, 2h phi_3 at h = 0.01: its
    # budget is 3!/(2h) = 300 times share tol ||base||_F.
    @pytest.mark.parametrize("k, coeff", [(1, 0.01), (3, 0.02)], ids=["phi1-h", "phi3-2h"])
    @pytest.mark.parametrize("margin, keep", [(1.0 + 1e-9, 3), (1.0 - 1e-9, 4)])
    def test_drops_exactly_the_tail_within_the_budget(self, k, coeff, margin, keep):
        tol = self._tol(0.625 * margin, k, coeff)
        out = self._truncate(self._operand(), self.BASE, k, coeff, tol)
        assert np.array_equal(out.L, np.eye(7)[:, :keep])
        assert np.array_equal(out._core, self.CORE[:keep])
        assert out.fnorm() == np.linalg.norm(self.CORE[:keep])

    def test_phi3_budget_is_scaled_by_factorial_over_coeff(self):
        # Budget 0.625 for phi_1 with coeff 2h = 0.02; phi_3 with the same
        # coeff and tol has 3! times that, 3.75, which drops three more modes.
        tol = self._tol(0.625 * (1.0 + 1e-9), 1, 0.02)
        assert self._truncate(self._operand(), self.BASE, 1, 0.02, tol).rank == 3
        assert self._truncate(self._operand(), self.BASE, 3, 0.02, tol).rank == 1

    def test_operand_below_the_budget_is_dropped_whole(self):
        tol = self._tol(4.7, 1, 0.01)
        out = self._truncate(self._operand(), self.BASE, 1, 0.01, tol)
        assert out.rank == 0 and out.dim == 7

    def test_nothing_but_zero_modes_goes_at_zero_tolerance(self):
        operand = LdlFactor._from_compressed(np.eye(7)[:, :6], np.append(self.CORE, 0.0))
        out = self._truncate(operand, self.BASE, 1, 0.01, 0.0)
        assert np.array_equal(out._core, self.CORE)

    def test_non_finite_budget_keeps_the_operand(self):
        # ||base||_F = 1e150 with tol = 1e200 overflows the budget, whose
        # floor is then 0.  (The relative tolerance 1e200 alone would drop
        # every mode, so the floor is applied at tolerance 0.)
        base = LdlFactor(np.eye(7)[:, :1], np.array([1e150]))
        floor = lowrank._operand_floor(base.fnorm(), 1, 0.01, 1e200)
        assert floor == 0.0
        assert self._operand().compressed(0.0, floor).rank == 5
