import time

import numpy as np
import pytest
import scipy.linalg

from expriccati.errors import DomainError, FiniteEscapeError
from expriccati.integrators import RiccatiProblem
from expriccati.oracle import radon_solve, radon_trajectory
from expriccati.problems import problem_from_spec
from expriccati.sylvop import SylvesterOperator

from helpers import kronecker_phi, phi_scalar, random_stable, rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(80)


class TestRadonSolve:
    def test_time_zero_returns_initial_state(self, rng):
        p = problem_from_spec("fdm-sym:k=3", seed=1)
        assert np.array_equal(radon_solve(p, 0.0), p.X0)

    def test_homogeneous_consistency(self, rng):
        m, n = 4, 3
        p = RiccatiProblem(
            A=random_stable(rng, m), D=random_stable(rng, n),
            Q=np.zeros((m, n)), G=np.zeros((n, m)),
            X0=rng.standard_normal((m, n)),
        )
        t = 0.8
        out = radon_solve(p, t, cond_max=1e3)
        assert rel_err(out, scipy.linalg.expm(t * p.A) @ p.X0 @ scipy.linalg.expm(t * p.D)) <= 1e-11

    def test_scalar_closed_form(self):
        p = problem_from_spec("tanh")
        assert radon_solve(p, 1.0)[0, 0] == pytest.approx(np.tanh(1.0), rel=1e-12)

    def test_flow_semigroup(self, rng):
        n = 5
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        s, t = 0.4, 0.35
        direct = radon_solve(p, s + t)
        mid = radon_solve(p, s)
        restarted = RiccatiProblem(
            A=p.A, D=p.D, Q=p.Q, G=p.G, X0=(mid + mid.T) / 2, symmetric=True
        )
        assert rel_err(radon_solve(restarted, t), direct) <= 1e-9

    def test_symmetric_output_stays_symmetric_and_psd(self, rng):
        p = problem_from_spec("fdm-sym:k=5", seed=6)
        x = radon_solve(p, 1.0)
        assert np.linalg.norm(x - x.T) <= 1e-10 * np.linalg.norm(x)
        assert np.linalg.eigvalsh((x + x.T) / 2).min() >= -1e-9 * np.linalg.norm(x)

    def test_derivative_residual(self):
        # Central difference of the flow must match the right-hand side;
        # the scale anchor is ||Q|| so the bound stays meaningful near
        # the steady state where F(X) itself vanishes.
        p = problem_from_spec("fdm-sym:k=8", seed=2)
        t, delta = 1.0, 1e-5
        states = radon_trajectory(p, [t - delta, t, t + delta])
        fd = (states[2] - states[0]) / (2 * delta)
        resid = np.linalg.norm(fd - p.rhs(states[1]))
        assert resid <= 1e-6 * max(np.linalg.norm(p.rhs(states[1])), np.linalg.norm(p.Q))

    def test_stiff_substepping_engages(self):
        # Large stiffness: the propagation must subdivide internally yet
        # still deliver an accurate state.
        p = problem_from_spec("fdm-sym:k=8", seed=2)
        x = radon_solve(p, 1.0)
        assert np.all(np.isfinite(x))
        # Steady state: residual of the algebraic equation is tiny.
        assert np.linalg.norm(p.rhs(x)) <= 1e-7 * np.linalg.norm(p.Q)

    def test_persistent_ill_conditioning_raises(self):
        # A condition bound of 1 holds only for a multiple of an orthogonal
        # U; the 4 x 4 extraction never is one, so every extraction fails
        # and the halving budget runs out.
        p = problem_from_spec("fdm-sym:k=2")
        with pytest.raises(FiniteEscapeError):
            radon_solve(p, 1.0, cond_max=1.0)

    def test_tight_condition_bound_fails_fast(self):
        # Each halving doubles the work: uncapped, this bound took 524 305
        # extractions.  The cap on halvings beyond the norm guard ends it
        # after 9 extractions, and the message names the bound.
        p = problem_from_spec("fdm-sym:k=2")
        started = time.perf_counter()
        with pytest.raises(FiniteEscapeError, match="cond_max"):
            radon_solve(p, 1.0, cond_max=1.0001)
        assert time.perf_counter() - started < 1.0

    def test_norm_guard_halvings_do_not_count_against_the_cap(self):
        # t = 50 takes 9 halvings for the norm guard and one more for the
        # condition bound; only that one counts against the cap of 8.
        p = problem_from_spec("fdm-sym:k=3")
        x = radon_solve(p, 50.0)
        assert np.linalg.norm(p.rhs(x)) <= 1e-7 * np.linalg.norm(p.Q)

    @pytest.mark.parametrize("solver", [radon_solve, radon_trajectory])
    def test_nan_condition_bound_rejected(self, solver):
        # Every comparison with NaN is False, so the guard would accept
        # any extraction.
        with pytest.raises(DomainError, match="cond_max"):
            solver(problem_from_spec("tanh"), 1.0, cond_max=float("nan"))

    @pytest.mark.parametrize("bound", [0.5, 0.0, -1.0])
    def test_condition_bound_below_one_rejected(self, bound):
        # A 1-norm condition number is at least 1: such a bound could never
        # be met, and would read as a failed extraction after 8 halvings.
        with pytest.raises(DomainError, match="cond_max must be >= 1"):
            radon_solve(problem_from_spec("fdm-sym:k=3"), 0.3, cond_max=bound)

    def test_pole_crossing_is_a_continuation(self):
        # x' = 1 + x^2 has a pole at t = pi/2; the linearized flow itself
        # stays regular there and extracting after the pole returns the
        # meromorphic continuation tan(t).  Nonexistence of the ODE
        # solution is only signalled when the extraction degenerates.
        p = RiccatiProblem(A=[[0.0]], D=[[0.0]], Q=[[1.0]], G=[[-1.0]], X0=[[0.0]])
        assert radon_solve(p, 2.0)[0, 0] == pytest.approx(np.tan(2.0), rel=1e-10)

    def test_trajectory_matches_pointwise_solves(self, rng):
        n = 4
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        times = [0.0, 0.25, 0.5, 1.0]
        sweep = radon_trajectory(p, times)
        for t, x in zip(times, sweep):
            assert rel_err(x, radon_solve(p, t)) <= 1e-10

    def test_trajectory_requires_sorted_times(self, rng):
        p = problem_from_spec("tanh")
        with pytest.raises(DomainError):
            radon_trajectory(p, [0.5, 0.2])


class TestKroneckerPhi:
    def test_k0_is_exponential_of_kron_sum(self, rng):
        a = rng.standard_normal((3, 3))
        d = rng.standard_normal((2, 2))
        op = SylvesterOperator(a, d)
        kmat = np.kron(np.eye(2), a) + np.kron(d.T, np.eye(3))
        assert rel_err(kronecker_phi(0, op, 0.7), scipy.linalg.expm(0.7 * kmat)) <= 1e-13

    def test_zero_operator_gives_scaled_identity(self):
        op = SylvesterOperator(np.zeros((2, 2)), np.zeros((2, 2)))
        for k, value in ((1, 1.0), (2, 0.5), (3, 1.0 / 6.0)):
            out = kronecker_phi(k, op, 1.0)
            assert rel_err(out, value * np.eye(4)) <= 1e-14

    def test_matches_eigendecomposition_oracle(self, rng):
        # Diagonalize both coefficients; the vectorized operator has
        # eigenvalues lam_i + mu_j, so phi_k follows from scalar values.
        m = n = 3
        a = rng.standard_normal((m, m))
        d = rng.standard_normal((n, n))
        op = SylvesterOperator(a, d)
        h = 0.9
        lam, va = np.linalg.eig(a)
        mu, wd = np.linalg.eig(d.T)
        for k in (1, 2, 3):
            out = kronecker_phi(k, op, h)
            basis = np.kron(wd, va)
            diag = np.array(
                [phi_scalar(k, h * (li + mj)) for mj in mu for li in lam]
            )
            oracle = (basis @ np.diag(diag) @ np.linalg.inv(basis)).real
            assert rel_err(out, oracle) <= 1e-10

    def test_size_cap(self):
        op = SylvesterOperator(np.zeros((70, 70)), np.zeros((70, 70)))
        with pytest.raises(DomainError):
            kronecker_phi(1, op, 1.0)

    def test_negative_index_rejected(self):
        op = SylvesterOperator([[0.0]], [[0.0]])
        with pytest.raises(DomainError):
            kronecker_phi(-1, op, 1.0)


class TestIntegralForm:
    def test_reference_satisfies_integral_equation(self, rng):
        # 64-node quadrature on the variation-of-constants representation.
        m = n = 6
        p = RiccatiProblem(
            A=random_stable(rng, m, scale=0.4),
            D=random_stable(rng, n, scale=0.4),
            Q=0.5 * rng.standard_normal((m, n)),
            G=0.4 * rng.standard_normal((n, m)),
            X0=0.3 * rng.standard_normal((m, n)),
        )
        t = 1.0
        nodes, weights = np.polynomial.legendre.leggauss(64)
        nodes = 0.5 * (nodes + 1.0) * t
        weights = 0.5 * t * weights
        x_t = radon_solve(p, t, cond_max=1e4)
        taus = np.sort(nodes)
        states = radon_trajectory(p, taus, cond_max=1e4)
        order = np.argsort(nodes)
        total = scipy.linalg.expm(t * p.A) @ p.X0 @ scipy.linalg.expm(t * p.D)
        for pos, idx in enumerate(order):
            tau = nodes[idx]
            x_tau = states[pos]
            total += weights[idx] * (
                scipy.linalg.expm((t - tau) * p.A)
                @ (p.Q - x_tau @ p.G @ x_tau)
                @ scipy.linalg.expm((t - tau) * p.D)
            )
        assert rel_err(total, x_t) <= 1e-6
