import math

import numpy as np
import pytest

import expriccati.phifun as phifun
from expriccati.errors import DimensionError, DomainError
from expriccati.phifun import QuadratureRule, phi_action_quadrature
from expriccati.sylvop import SylvesterOperator

from helpers import (
    PhiCombination,
    eval_backward,
    eval_forward,
    kronecker_phi,
    phi_scalar,
    phi_series,
    random_stable,
    rel_err,
    rk4_matrix_ode,
    unvec,
    vec,
)


class TestPhiScalar:
    def test_values_at_zero(self):
        assert phi_scalar(1, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert phi_scalar(2, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert phi_scalar(3, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_phi1_closed_form(self):
        assert phi_scalar(1, 1.0) == pytest.approx(np.e - 1.0, rel=1e-14)

    def test_against_series(self):
        assert phi_scalar(3, 0.7) == pytest.approx(phi_series(3, 0.7), rel=1e-13)

    def test_phi0_is_exp(self):
        assert phi_scalar(0, -2.5) == pytest.approx(np.exp(-2.5), rel=1e-15)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            phi_scalar(-1, 0.0)

    def test_recurrence_over_wide_range(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            z = rng.uniform(-50.0, 5.0)
            if abs(z) < 1e-8:
                continue
            for j in range(5):
                lhs = phi_scalar(j + 1, z) * z + 1.0 / math.factorial(j)
                rhs = phi_scalar(j, z)
                # Scale against the terms entering the identity: for very
                # negative z, phi_j(z) underflows toward 0 while the
                # recurrence terms stay O(1/j!).
                scale = max(abs(rhs), 1.0 / math.factorial(j))
                assert abs(lhs - rhs) <= 1e-12 * scale

    def test_series_recurrence_seam(self):
        # Values straddling the switchover must agree with the raw series.
        for z in (-0.11, -0.09, 0.09, 0.11):
            for j in (1, 2, 4):
                assert phi_scalar(j, z) == pytest.approx(phi_series(j, z, 40), rel=1e-13)

    def test_complex_argument(self):
        z = -0.5 + 0.3j
        assert phi_scalar(1, z) == pytest.approx((np.exp(z) - 1) / z, rel=1e-13)


class TestQuadratureRule:
    def test_gauss_legendre_basics(self):
        rule = QuadratureRule.gauss_legendre(7)
        assert len(rule) == 7
        assert abs(rule.weights.sum() - 1.0) <= 1e-14
        assert rule.nodes.min() > 0.0 and rule.nodes.max() < 1.0

    def test_degree_thirteen_exactness(self):
        rule = QuadratureRule.gauss_legendre(7)
        for p in range(14):
            assert np.dot(rule.weights, rule.nodes ** p) == pytest.approx(
                1.0 / (p + 1), rel=1e-13
            )

    def test_invalid_rules_rejected(self):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[0.2, 1.3], weights=[0.5, 0.5])
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[0.2, 0.8], weights=[0.6, 0.6])
        with pytest.raises(DimensionError):
            QuadratureRule(nodes=[0.2, 0.8], weights=[1.0])
        for count in (0, 2.5, float("nan"), "3"):
            with pytest.raises(DomainError):
                QuadratureRule.gauss_legendre(count)

    @pytest.mark.parametrize(
        "nodes, weights", [([float("nan"), 0.5], [0.5, 0.5]), ([0.2, 0.8], [float("nan"), 0.5])]
    )
    def test_nan_rule_rejected(self, nodes, weights):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=nodes, weights=weights)


def _random_operator(rng, m, n, scale=1.0):
    return SylvesterOperator(
        scale * rng.standard_normal((m, m)), scale * rng.standard_normal((n, n))
    )


class TestPhiActionQuadrature:
    def test_k1_zero_operator_returns_operand(self):
        op = SylvesterOperator(np.zeros((3, 3)), np.zeros((2, 2)))
        n = np.arange(6.0).reshape(3, 2)
        rule = QuadratureRule.gauss_legendre(7)
        assert np.allclose(phi_action_quadrature(1, op, 0.4, (n, np.eye(2)), rule), n, atol=1e-14)

    def test_k3_zero_operator_weights(self):
        op = SylvesterOperator(np.zeros((2, 2)), np.zeros((2, 2)))
        n = np.ones((2, 2))
        rule = QuadratureRule.gauss_legendre(7)
        out = phi_action_quadrature(3, op, 1.0, (n, np.eye(2)), rule)
        assert rel_err(out, n / 6.0) <= 1e-14

    def test_scalar_phi1_closed_form(self):
        op = SylvesterOperator([[-1.0]], [[-1.0]])
        rule = QuadratureRule.gauss_legendre(7)
        out = phi_action_quadrature(1, op, 1.0, ([[1.0]], [[1.0]]), rule)
        exact = (np.exp(-2.0) - 1.0) / (-2.0)
        assert abs(out[0, 0] - exact) <= 1e-12

    def test_k0_rejected(self):
        op = SylvesterOperator([[0.0]], [[0.0]])
        with pytest.raises(DomainError):
            phi_action_quadrature(0, op, 1.0, ([[1.0]], [[1.0]]), QuadratureRule.gauss_legendre(3))

    @pytest.mark.parametrize("transposed, chains", [(True, 1), (False, 2)])
    def test_exponentials_per_node(self, monkeypatch, transposed, chains):
        calls = []
        original = phifun.expm_actions

        def spy(m, taus, b):
            calls.append(len(taus))
            return original(m, taus, b)

        monkeypatch.setattr(phifun, "expm_actions", spy)
        rng = np.random.default_rng(33)
        a, d = (random_stable(rng, 4, margin=0.5, scale=0.3) for _ in range(2))
        op = SylvesterOperator(a, a.T if transposed else d)
        mat = rng.standard_normal((4, 4))
        rule = QuadratureRule.gauss_legendre(7)
        got = phi_action_quadrature(3, op, 0.5, (mat, np.eye(4)), rule)
        # All seven node times go to one chain per side, one in all for D = A^T.
        assert calls == [len(rule)] * chains
        # Degree 13 is exact to roundoff at this scale.
        oracle = unvec(kronecker_phi(3, op, 0.5) @ vec(mat), 4, 4)
        assert rel_err(got, oracle) <= 1e-11

    def test_node_doubling_converges_monotonically(self):
        rng = np.random.default_rng(31)
        op = _random_operator(rng, 4, 3)
        h = 5.0 / (np.linalg.norm(op.A, 2) + np.linalg.norm(op.D, 2))
        mat = rng.standard_normal((4, 3))
        oracle = unvec(kronecker_phi(2, op, h) @ vec(mat), 4, 3)
        errors = []
        for count in (2, 4, 8):
            rule = QuadratureRule.gauss_legendre(count)
            errors.append(rel_err(phi_action_quadrature(2, op, h, (mat, np.eye(3)), rule), oracle))
        assert errors[0] > errors[1] > errors[2]


class TestPhiActionQuadratureFactored:
    """The operand as the thin pair (L, R) of N = L R^T against (N, I_N)."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("m, n, transposed", [(6, 6, True), (6, 6, False), (7, 5, False)])
    @pytest.mark.parametrize("span", [0.5, 5.0, 40.0])
    def test_matches_dense_operand(self, full_exponentials, k, m, n, transposed, span):
        rng = np.random.default_rng(34)
        a = random_stable(rng, m, margin=0.5)
        d = a.T if transposed else random_stable(rng, n, margin=0.5)
        op = SylvesterOperator(a, d)
        assert op.transposed == transposed
        h = span / np.linalg.norm(a, 1)
        l, r = rng.standard_normal((m, 2)), rng.standard_normal((n, 2))
        rule = QuadratureRule.gauss_legendre(7)
        factored = phi_action_quadrature(k, op, h, (l, r), rule)
        # The node images come from the Taylor chain, not from full exponentials.
        assert full_exponentials == []
        dense = phi_action_quadrature(k, op, h, (l @ r.T, np.eye(n)), rule)
        assert rel_err(factored, dense) <= 1e-13

    @pytest.mark.parametrize(
        "factors",
        [
            (np.ones((4, 2)), np.ones((3, 3))),  # column counts differ
            (np.ones((5, 2)), np.ones((3, 2))),  # L has N rows
            (np.ones((4, 2)), np.ones((4, 2))),  # R has M rows
            (np.ones((4, 2)),),
            (np.ones((4, 2)), np.ones((3, 2)), np.ones((3, 2))),
        ],
    )
    def test_mis_shaped_factors_rejected(self, factors):
        rng = np.random.default_rng(36)
        op = _random_operator(rng, 4, 3)
        with pytest.raises(DimensionError):
            phi_action_quadrature(3, op, 0.1, factors, QuadratureRule.gauss_legendre(3))

    def test_non_finite_factor_rejected(self):
        op = SylvesterOperator(-np.eye(2), -np.eye(2))
        with pytest.raises(DomainError):
            phi_action_quadrature(
                1, op, 0.1, (np.ones((2, 1)), np.array([[1.0], [np.nan]])),
                QuadratureRule.gauss_legendre(3),
            )


class TestEvalForward:
    def test_single_term_is_operator_exponential(self):
        rng = np.random.default_rng(32)
        op = _random_operator(rng, 3, 3, scale=0.6)
        n0 = rng.standard_normal((3, 3))
        comb = PhiCombination((n0,), op, 0.8)
        assert rel_err(eval_forward(comb), op.exp_action(0.8, n0)) <= 1e-13

    def test_zero_operator_collapses_to_factorials(self):
        op = SylvesterOperator(np.zeros((2, 2)), np.zeros((2, 2)))
        rng = np.random.default_rng(33)
        n0, n1, n2 = (rng.standard_normal((2, 2)) for _ in range(3))
        comb = PhiCombination((n0, n1, n2), op, 0.5)
        assert rel_err(eval_forward(comb), n0 + n1 + n2 / 2.0) <= 1e-14

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(34)
        op = _random_operator(rng, 4, 4, scale=0.5)
        h = 0.7
        operands = tuple(rng.standard_normal((4, 4)) for _ in range(4))
        comb = PhiCombination(operands, op, h)
        expected = np.zeros((4, 4))
        for j, nj in enumerate(operands):
            expected += unvec(kronecker_phi(j, op, h) @ vec(nj), 4, 4)
        assert rel_err(eval_forward(comb), expected) <= 1e-11

    def test_shape_mismatch_rejected(self):
        op = SylvesterOperator(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            PhiCombination((np.zeros((2, 3)),), op, 0.1)


class TestEvalBackward:
    def test_single_term_is_operator_exponential(self):
        rng = np.random.default_rng(36)
        op = _random_operator(rng, 3, 2)
        n0 = rng.standard_normal((3, 2))
        comb = PhiCombination((n0,), op, 0.6)
        assert np.array_equal(eval_backward(comb), op.exp_action(0.6, n0))

    def test_zero_tail_reduces_to_exponential(self):
        rng = np.random.default_rng(35)
        op = _random_operator(rng, 3, 2)
        n0 = rng.standard_normal((3, 2))
        comb = PhiCombination((n0, np.zeros((3, 2))), op, 0.6)
        assert rel_err(eval_backward(comb), op.exp_action(0.6, n0)) <= 1e-12

    def test_scalar_phi1_closed_form(self):
        op = SylvesterOperator([[1.0]], [[1.0]])
        comb = PhiCombination(([[0.0]], [[1.0]]), op, 1.0)
        exact = (np.e ** 2 - 1.0) / 2.0
        assert eval_backward(comb)[0, 0] == pytest.approx(exact, rel=1e-13)
        assert exact == pytest.approx(3.194528049, rel=1e-9)

    def test_agrees_with_forward(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            m, n = rng.integers(1, 6, size=2)
            op = SylvesterOperator(
                random_stable(rng, m, margin=0.5), random_stable(rng, n, margin=0.5)
            )
            operands = tuple(rng.standard_normal((m, n)) for _ in range(3))
            comb = PhiCombination(operands, op, 0.5)
            assert rel_err(eval_backward(comb), eval_forward(comb)) <= 1e-10


class TestPolynomialSourceExpansion:
    def test_matches_fine_step_reference(self):
        rng = np.random.default_rng(37)
        m = 4
        a = random_stable(rng, m, margin=0.5, scale=0.5)
        d = random_stable(rng, m, margin=0.5, scale=0.5)
        op = SylvesterOperator(a, d)
        x0 = rng.standard_normal((m, m))
        derivs = [rng.standard_normal((m, m)) for _ in range(3)]  # degree-2 source

        def source(t):
            return sum(t ** j / math.factorial(j) * nj for j, nj in enumerate(derivs))

        def rhs(t, x):
            return a @ x + x @ d + source(t)

        t_end = 0.8
        reference = rk4_matrix_ode(rhs, x0, t_end, steps=4000)
        operands = (x0,) + tuple(t_end ** (j + 1) * nj for j, nj in enumerate(derivs))
        comb = PhiCombination(operands, op, t_end)
        assert rel_err(eval_forward(comb), reference) <= 1e-8
        assert rel_err(eval_backward(comb), reference) <= 1e-8
