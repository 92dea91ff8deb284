import numpy as np
import pytest
import scipy.linalg

from expriccati import QuadratureRule
from expriccati.errors import DimensionError, DomainError
from expriccati.integrators import RiccatiProblem
from expriccati.oracle import radon_solve
from expriccati.sylvop import (
    _AUGMENTED_NORM_LIMIT,
    _SERIES_NORM_LIMIT,
    SylvesterOperator,
    linearize,
    phi1_action_augmented,
    phi_action_augmented,
)

from helpers import kron_matrix, kronecker_phi, random_stable, rel_err, unvec, vec


@pytest.fixture
def rng():
    return np.random.default_rng(40)


def _stable_pair(rng, m, n):
    # A general pair for steps far into the doubling range: with unstable
    # coefficients exp(hS) grows like exp(2h) and at h = 30 the Kronecker
    # oracle itself is only 1e-11 accurate.
    return SylvesterOperator(random_stable(rng, m, margin=0.5), random_stable(rng, n, margin=0.5))


class TestApply:
    def test_identity_blocks_double(self, rng):
        op = SylvesterOperator(np.eye(3), np.eye(3))
        x = rng.standard_normal((3, 3))
        assert np.allclose(op.apply(x), 2 * x)

    def test_zero_operator(self):
        op = SylvesterOperator(np.zeros((2, 2)), np.zeros((3, 3)))
        assert np.allclose(op.apply(np.ones((2, 3))), 0.0)

    def test_matches_kronecker(self, rng):
        a = rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2))
        x = rng.standard_normal((3, 2))
        op = SylvesterOperator(a, d)
        oracle = unvec(kron_matrix(a, d) @ vec(x), 3, 2)
        assert rel_err(op.apply(x), oracle) <= 1e-14

    def test_dimension_mismatch(self):
        op = SylvesterOperator(np.eye(2), np.eye(3))
        with pytest.raises(DimensionError):
            op.apply(np.ones((3, 2)))


class TestExpAction:
    def test_time_zero_is_identity(self, rng):
        op = SylvesterOperator(rng.standard_normal((3, 3)), rng.standard_normal((2, 2)))
        x = rng.standard_normal((3, 2))
        assert np.array_equal(op.exp_action(0.0, x), x)

    def test_zero_coefficients(self, rng):
        op = SylvesterOperator(np.zeros((2, 2)), np.zeros((2, 2)))
        x = rng.standard_normal((2, 2))
        assert np.allclose(op.exp_action(1.7, x), x, atol=1e-15)

    def test_matches_kronecker_exponential(self, rng):
        a = rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2))
        x = rng.standard_normal((3, 2))
        op = SylvesterOperator(a, d)
        t = 0.7
        oracle = unvec(scipy.linalg.expm(t * kron_matrix(a, d)) @ vec(x), 3, 2)
        assert rel_err(op.exp_action(t, x), oracle) <= 1e-12

    def test_semigroup(self, rng):
        op = SylvesterOperator(rng.standard_normal((4, 4)), rng.standard_normal((3, 3)))
        x = rng.standard_normal((4, 3))
        combined = op.exp_action(0.9, x)
        chained = op.exp_action(0.5, op.exp_action(0.4, x))
        assert rel_err(chained, combined) <= 1e-11


class TestPhi1Augmented:
    def test_homogeneous_when_inhomogeneity_zero(self, rng):
        a = rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2))
        op = SylvesterOperator(a, d)
        x = rng.standard_normal((3, 2))
        h = 0.4
        out = phi1_action_augmented(op, h, np.zeros((3, 2)), x)
        assert rel_err(out, scipy.linalg.expm(h * a) @ x @ scipy.linalg.expm(h * d)) <= 1e-12

    def test_scalar_zero_operator(self):
        op = SylvesterOperator([[0.0]], [[0.0]])
        out = phi1_action_augmented(op, 0.3, [[1.0]], [[0.0]])
        assert out[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_scalar_phi1_closed_form(self):
        op = SylvesterOperator([[-1.0]], [[-1.0]])
        out = phi1_action_augmented(op, 1.0, [[1.0]], [[0.0]])
        exact = (np.exp(-2.0) - 1.0) / (-2.0)
        assert out[0, 0] == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx(0.432332358, rel=1e-8)

    def test_matches_kronecker_identity(self, rng):
        for _ in range(10):
            m, n = rng.integers(1, 5, size=2)
            op = SylvesterOperator(rng.standard_normal((m, m)), rng.standard_normal((n, n)))
            v = rng.standard_normal((m, n))
            x = rng.standard_normal((m, n))
            h = 0.6
            kmat = kron_matrix(op.A, op.D)
            oracle = unvec(
                scipy.linalg.expm(h * kmat) @ vec(x)
                + h * (kronecker_phi(1, op, h) @ vec(v)),
                m,
                n,
            )
            assert rel_err(phi1_action_augmented(op, h, v, x), oracle) <= 1e-11

    def test_matches_kronecker_identity_at_many_doublings(self, rng):
        h = 30.0
        for _ in range(10):
            m, n = rng.integers(1, 5, size=2)
            op = _stable_pair(rng, m, n)
            v = rng.standard_normal((m, n))
            x = rng.standard_normal((m, n))
            oracle = unvec(
                scipy.linalg.expm(h * kron_matrix(op.A, op.D)) @ vec(x)
                + h * (kronecker_phi(1, op, h) @ vec(v)),
                m,
                n,
            )
            assert rel_err(phi1_action_augmented(op, h, v, x), oracle) <= 1e-11


def _stiff_pair(rng):
    # Diagonals from -1 to -3000 under upper triangles of entries up to a
    # few hundred: |h| (||A||_1 + ||D||_1) is about 2e5 at h = 30.
    a = -np.diag([1.0, 10.0, 100.0, 1000.0]) + np.triu(50.0 * rng.standard_normal((4, 4)), 1)
    d = -np.diag([2.0, 300.0, 3000.0]) + np.triu(200.0 * rng.standard_normal((3, 3)), 1)
    return SylvesterOperator(a, d)


def _transposed_pair(rng):
    a = random_stable(rng, 4, margin=0.5)
    return SylvesterOperator(a, a.T)


_SERIES_PAIRS = {
    "transposed": _transposed_pair,
    "general": lambda rng: _stable_pair(rng, 4, 4),
    "rectangular": lambda rng: _stable_pair(rng, 5, 3),
}


class TestPhi1Series:
    """The affine update from the operator's Taylor series at a halved step."""

    @staticmethod
    def _check(op, h, rng):
        v = rng.standard_normal((op.rows, op.cols))
        x = rng.standard_normal((op.rows, op.cols))
        out = phi1_action_augmented(op, h, v, x)
        oracle = unvec(
            scipy.linalg.expm(h * kron_matrix(op.A, op.D)) @ vec(x)
            + h * (kronecker_phi(1, op, h) @ vec(v)),
            op.rows,
            op.cols,
        )
        assert rel_err(out, oracle) <= 1e-11
        block = op.exp_action(h, x) + h * phi_action_augmented(op, h, 1, v)
        assert rel_err(out, block) <= 1e-13

    @pytest.mark.parametrize("h", [-0.5, 0.0, 1e-3, 0.6, 30.0])
    @pytest.mark.parametrize("pair", sorted(_SERIES_PAIRS))
    def test_matches_kronecker_and_block_route(self, rng, pair, h):
        self._check(_SERIES_PAIRS[pair](rng), h, rng)

    @pytest.mark.parametrize("h", [1e-3, 0.6, 30.0])
    def test_stiff_non_normal_pair(self, rng, h):
        self._check(_stiff_pair(rng), h, rng)

    @pytest.mark.parametrize("h", [1e-3, 0.6, 30.0])
    def test_exponentials_at_the_coefficient_sizes_only(self, rng, full_exponentials, h):
        # M = 5, N = 3: never an (M + N) x (M + N) block, whatever the
        # number of doublings.
        op = _stable_pair(rng, 5, 3)
        phi1_action_augmented(op, h, rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
        assert full_exponentials == [5, 3]


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("kernel", ["exp_action", "phi1", "phi3"])
def test_non_finite_step_scale_rejected(rng, kernel, h):
    # 1e308 (||A||_1 + ||D||_1) overflows, so its count of halvings would.
    op = SylvesterOperator(random_stable(rng, 3), random_stable(rng, 2))
    x = rng.standard_normal((3, 2))
    calls = {
        "exp_action": lambda: op.exp_action(h, x),
        "phi1": lambda: phi1_action_augmented(op, h, x, x),
        "phi3": lambda: phi_action_augmented(op, h, 3, x),
    }
    with pytest.raises(DomainError, match="not finite"):
        calls[kernel]()


class TestPhiActionAugmented:
    def test_k0_is_exponential(self, rng):
        op = SylvesterOperator(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        x = rng.standard_normal((2, 2))
        assert np.allclose(phi_action_augmented(op, 0.5, 0, x), op.exp_action(0.5, x))

    def test_matches_kronecker_phi(self, rng):
        for k in (1, 2, 3):
            m, n = rng.integers(1, 5, size=2)
            op = SylvesterOperator(rng.standard_normal((m, m)), rng.standard_normal((n, n)))
            x = rng.standard_normal((m, n))
            h = 0.8
            oracle = unvec(kronecker_phi(k, op, h) @ vec(x), m, n)
            assert rel_err(phi_action_augmented(op, h, k, x), oracle) <= 1e-11

    def test_matches_kronecker_phi_at_many_doublings(self, rng):
        h = 30.0
        for k in (1, 2, 3):
            m, n = rng.integers(1, 5, size=2)
            op = _stable_pair(rng, m, n)
            x = rng.standard_normal((m, n))
            oracle = unvec(kronecker_phi(k, op, h) @ vec(x), m, n)
            assert rel_err(phi_action_augmented(op, h, k, x), oracle) <= 1e-11

    def test_rectangular_shapes(self, rng):
        op = SylvesterOperator(rng.standard_normal((4, 4)), rng.standard_normal((2, 2)))
        x = rng.standard_normal((4, 2))
        oracle = unvec(kronecker_phi(2, op, 0.5) @ vec(x), 4, 2)
        assert rel_err(phi_action_augmented(op, 0.5, 2, x), oracle) <= 1e-11

    def test_negative_index_rejected(self):
        op = SylvesterOperator([[0.0]], [[0.0]])
        with pytest.raises(DomainError):
            phi_action_augmented(op, 0.5, -1, [[1.0]])

    def test_zero_step_is_operand_over_factorial(self, rng):
        # phi_k(0) = 1/k!
        op = SylvesterOperator(rng.standard_normal((3, 3)), rng.standard_normal((2, 2)))
        x = rng.standard_normal((3, 2))
        assert np.array_equal(phi_action_augmented(op, 0.0, 3, x), x / 6.0)


class TestTransposedPair:
    """A pair with D = A^T shares one exponential: exp(tD) = exp(tA)^T."""

    @pytest.fixture
    def op(self, rng):
        return _transposed_pair(rng)

    @pytest.mark.parametrize("transposed, calls", [(True, 1), (False, 2)])
    def test_exponentials_per_exp_action(self, rng, full_exponentials, transposed, calls):
        a = rng.standard_normal((4, 4))
        op = SylvesterOperator(a, a.T if transposed else rng.standard_normal((4, 4)))
        assert op.transposed == transposed
        op.exp_action(0.7, rng.standard_normal((4, 4)))
        assert full_exponentials == [4] * calls

    @pytest.mark.parametrize("transposed", [True, False])
    @pytest.mark.parametrize("h, doubled", [(0.1, False), (3.0, True)])
    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_exponentials_per_augmented_action(
        self, rng, full_exponentials, transposed, h, doubled, k
    ):
        # The phi_1 series takes exp(tA) at size M; the block exponential's
        # top-left block is exp(tA).  Only a general pair takes one more,
        # exp(tD), and the doublings take none.
        a = rng.standard_normal((4, 4))
        op = SylvesterOperator(a, a.T if transposed else rng.standard_normal((4, 4)))
        z = h * (np.linalg.norm(op.A, 1) + np.linalg.norm(op.D, 1))
        assert (z > (_SERIES_NORM_LIMIT if k is None else _AUGMENTED_NORM_LIMIT)) == doubled
        x = rng.standard_normal((4, 4))
        if k is None:
            phi1_action_augmented(op, h, rng.standard_normal((4, 4)), x)
        else:
            phi_action_augmented(op, h, k, x)
        size = 4 if k is None else 4 + k * 4
        assert full_exponentials == ([size] if transposed else [size, 4])

    def test_exp_action_matches_kronecker(self, rng, op):
        x = rng.standard_normal((4, 4))
        oracle = unvec(scipy.linalg.expm(0.7 * kron_matrix(op.A, op.D)) @ vec(x), 4, 4)
        assert rel_err(op.exp_action(0.7, x), oracle) <= 1e-12

    @pytest.mark.parametrize("h", [0.6, 3.0, 30.0])
    def test_phi1_augmented_matches_kronecker(self, rng, op, h):
        v = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 4))
        oracle = unvec(
            scipy.linalg.expm(h * kron_matrix(op.A, op.D)) @ vec(x)
            + h * (kronecker_phi(1, op, h) @ vec(v)),
            4,
            4,
        )
        assert rel_err(phi1_action_augmented(op, h, v, x), oracle) <= 1e-11

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("h", [0.8, 3.0, 30.0])
    def test_phi_augmented_matches_kronecker(self, rng, op, k, h):
        x = rng.standard_normal((4, 4))
        oracle = unvec(kronecker_phi(k, op, h) @ vec(x), 4, 4)
        assert rel_err(phi_action_augmented(op, h, k, x), oracle) <= 1e-11


def _random_problem(rng, m, n):
    return RiccatiProblem(
        A=rng.standard_normal((m, m)),
        D=rng.standard_normal((n, n)),
        Q=rng.standard_normal((m, n)),
        G=rng.standard_normal((n, m)),
        X0=rng.standard_normal((m, n)),
    )


class TestLinearize:
    def test_at_zero_state(self, rng):
        p = _random_problem(rng, 3, 2)
        op, remainder = linearize(p, np.zeros((3, 2)))
        assert np.array_equal(op.A, p.A)
        assert np.array_equal(op.D, p.D)
        assert np.array_equal(remainder, p.Q)

    def test_no_quadratic_term(self, rng):
        p = _random_problem(rng, 3, 3)
        p.G = np.zeros((3, 3))
        x = rng.standard_normal((3, 3))
        op, remainder = linearize(p, x)
        assert np.array_equal(op.A, p.A)
        assert np.array_equal(op.D, p.D)
        assert np.array_equal(remainder, p.Q)

    def test_state_shape_mismatch_rejected(self, rng):
        p = _random_problem(rng, 3, 2)
        with pytest.raises(DimensionError, match="state shape"):
            linearize(p, np.zeros((2, 3)))

    def test_scalar_hand_algebra(self):
        p = RiccatiProblem(A=[[0.0]], D=[[0.0]], Q=[[1.0]], G=[[1.0]], X0=[[0.0]])
        op, remainder = linearize(p, [[0.5]])
        assert op.A[0, 0] == pytest.approx(-0.5)
        assert op.D[0, 0] == pytest.approx(-0.5)
        assert remainder[0, 0] == pytest.approx(1.25)

    def test_remainder_equals_rhs_minus_linear_part(self, rng):
        p = _random_problem(rng, 4, 3)
        x = rng.standard_normal((4, 3))
        op, remainder = linearize(p, x)
        direct = p.rhs(x) - (op.A @ x + x @ op.D)
        scale = max(np.linalg.norm(direct), 1.0)
        assert np.linalg.norm(remainder - direct) <= 1e-13 * scale

    def test_symmetric_problem_gives_transposed_pair(self, rng):
        n = 5
        p = RiccatiProblem(
            A=rng.standard_normal((n, n)),
            C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)),
            L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        y = rng.standard_normal((n, n))
        x = y + y.T
        op, remainder = linearize(p, x)
        assert np.array_equal(op.D, op.A.T)
        assert op.transposed
        assert rel_err(op.D, p.D - p.G @ x) <= 1e-14
        direct = p.rhs(x) - (op.A @ x + x @ op.D)
        scale = max(np.linalg.norm(direct), 1.0)
        assert np.linalg.norm(remainder - direct) <= 1e-13 * scale

    def test_remainder_difference_identity(self, rng):
        p = _random_problem(rng, 3, 3)
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3))
        op, _ = linearize(p, x)

        def remainder_at(state):
            return p.rhs(state) - (op.A @ state + state @ op.D)

        lhs = remainder_at(y) - remainder_at(x)
        rhs = x @ p.G @ y + y @ p.G @ x - y @ p.G @ y - x @ p.G @ x
        assert rel_err(lhs, rhs) <= 1e-12


class TestReuseWithinRoundoff:
    """linearize hands back the previous operator while A - XG and D - GX
    lie within unit roundoff u of its coefficients in the Frobenius norm."""

    U = 2.0 ** -53

    @staticmethod
    def _problem(a, d, rng):
        m, n = a.shape[0], d.shape[0]
        return RiccatiProblem(
            A=a, D=d, Q=rng.standard_normal((m, n)), G=rng.standard_normal((n, m)),
            X0=np.zeros((m, n)),
        )

    @pytest.fixture
    def pair(self, rng):
        # At the zero state A - XG and D - GX are A and D bitwise, and an
        # entry that is zero in both takes a perturbation exactly.
        a, d = rng.standard_normal((4, 4)), rng.standard_normal((3, 3))
        a[0, -1] = d[0, -1] = 0.0
        return a, d

    def _linearized(self, a, d, rng, previous=None):
        p = self._problem(a, d, rng)
        return linearize(p, np.zeros((p.M, p.N)), previous)[0]

    @pytest.mark.parametrize("coefficient", [0, 1])
    @pytest.mark.parametrize("share, reused", [(0.0, True), (0.25, True), (4.0, False)])
    def test_perturbation_against_unit_roundoff(self, rng, pair, coefficient, share, reused):
        previous = self._linearized(*pair, rng)
        perturbed = [c.copy() for c in pair]
        target = perturbed[coefficient]
        target[0, -1] = share * self.U * np.linalg.norm(pair[coefficient])
        assert previous.within_roundoff(*perturbed) == reused
        assert (self._linearized(*perturbed, rng, previous) is previous) == reused

    def test_other_shape_never_reused(self, rng, pair):
        a, d = pair
        previous = self._linearized(a, d, rng)
        assert self._linearized(a, d[:2, :2], rng, previous) is not previous
        assert self._linearized(a[:3, :3], d, rng, previous) is not previous
        assert not previous.within_roundoff(a[:3, :3], d)

    def test_reused_operator_keeps_its_factorizations(self, rng, pair, full_exponentials):
        previous = self._linearized(*pair, rng)
        x = rng.standard_normal((4, 3))
        first = previous.exp_action(0.3, x)
        again = self._linearized(*pair, rng, previous)
        assert np.array_equal(again.exp_action(0.3, x), first)
        assert full_exponentials == [4, 3]


class TestMemoizedExponentials:
    """The kernels take the exponentials of an operator once per step."""

    def test_exp_action(self, rng, full_exponentials):
        op = _stable_pair(rng, 4, 3)
        x = rng.standard_normal((4, 3))
        first = op.exp_action(0.7, x)
        assert np.array_equal(op.exp_action(0.7, x), first)
        assert full_exponentials == [4, 3]
        op.exp_action(0.2, x)
        assert full_exponentials == [4, 3, 4, 3]

    @pytest.mark.parametrize("h", [0.1, 30.0])
    def test_phi1_series_matches_a_fresh_operator(self, rng, full_exponentials, h):
        op = _stable_pair(rng, 5, 3)
        v, x = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        first = phi1_action_augmented(op, h, v, x)
        y = rng.standard_normal((5, 3))
        again = phi1_action_augmented(op, h, y, x)
        assert full_exponentials == [5, 3]
        assert np.array_equal(first, phi1_action_augmented(SylvesterOperator(op.A, op.D), h, v, x))
        assert np.array_equal(again, phi1_action_augmented(SylvesterOperator(op.A, op.D), h, y, x))


class TestIntegralForm:
    def test_reference_solution_satisfies_integral_equation(self, rng):
        m = n = 4
        p = RiccatiProblem(
            A=random_stable(rng, m, margin=0.5, scale=0.5),
            D=random_stable(rng, n, margin=0.5, scale=0.5),
            Q=0.5 * rng.standard_normal((m, n)),
            G=0.5 * rng.standard_normal((n, m)),
            X0=0.3 * rng.standard_normal((m, n)),
        )
        t = 0.8
        x_t = radon_solve(p, t, cond_max=1e3)
        rule = QuadratureRule.gauss_legendre(64)
        total = scipy.linalg.expm(t * p.A) @ p.X0 @ scipy.linalg.expm(t * p.D)
        for s, w in zip(rule.nodes, rule.weights):
            tau = s * t
            x_tau = radon_solve(p, tau, cond_max=1e3)
            left = scipy.linalg.expm((t - tau) * p.A)
            right = scipy.linalg.expm((t - tau) * p.D)
            total += t * w * (left @ (p.Q - x_tau @ p.G @ x_tau) @ right)
        assert rel_err(total, x_t) <= 1e-7
