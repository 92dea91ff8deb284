import numpy as np
import pytest

import expriccati.integrators as integrators
from expriccati.densecore import SparsePlusThin, expm
from expriccati.errors import ConfigurationError, DimensionError, IntegrationError
from expriccati.integrators import (
    IntegratorConfig,
    RiccatiProblem,
    integrate,
    step_erow3,
    step_expeuler_backward,
    step_expeuler_general,
    step_expeuler_lowrank,
    step_msde_polynomial,
)
from expriccati.lowrank import LdlFactor
from expriccati.oracle import radon_solve
from expriccati.krylov import build_basis
from expriccati.problems import (
    build_symmetric_problem,
    fdm_sym,
    problem_from_spec,
    random_lowrank,
    scalar_tanh_problem,
)
from expriccati.sylvop import SylvesterOperator, linearize, phi_action_augmented

from helpers import random_stable, rel_err, rk4_matrix_ode


@pytest.fixture
def rng():
    return np.random.default_rng(70)


def _tanh_problem():
    return scalar_tanh_problem()


class TestProblemValidation:
    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            RiccatiProblem(A=np.eye(2), D=np.eye(3), Q=np.eye(2), G=np.eye(2),
                           X0=np.zeros((2, 3)))

    def test_symmetric_requires_transpose_pair(self, rng):
        a = rng.standard_normal((3, 3))
        with pytest.raises(ConfigurationError):
            RiccatiProblem(A=a, D=a, Q=np.eye(3), G=np.eye(3),
                           X0=np.zeros((3, 3)), symmetric=True)

    def test_generator_consistency_checked(self, rng):
        n = 3
        a = random_stable(rng, n)
        with pytest.raises(ConfigurationError):
            RiccatiProblem(A=a, D=a.T, Q=np.eye(n), G=np.eye(n),
                           X0=np.zeros((n, n)), C=2 * np.eye(n), symmetric=True)

    @pytest.mark.parametrize(
        "generator, value",
        [("C", np.ones((1, 4))), ("B", np.ones((4, 1))), ("L0", np.ones((2, 1))),
         ("D0", np.eye(2))],
    )
    def test_mis_shaped_generator_rejected(self, generator, value):
        n = 3
        generators = {"C": np.ones((1, n)), "B": np.ones((n, 1)), "L0": np.ones((n, 1)),
                      "D0": np.eye(1)}
        generators[generator] = value
        with pytest.raises(DimensionError, match=generator):
            RiccatiProblem(A=-np.eye(n), D=-np.eye(n), Q=np.ones((n, n)), G=np.ones((n, n)),
                           X0=np.ones((n, n)), symmetric=True, **generators)

    def test_mis_sized_d0_rejected_by_builder(self):
        with pytest.raises(DimensionError, match="D0"):
            build_symmetric_problem(-np.eye(3), np.ones((1, 3)), np.ones((3, 1)),
                                    np.ones((3, 1)), D0=np.eye(2))

    def test_rhs_value(self, rng):
        p = RiccatiProblem(
            A=rng.standard_normal((2, 2)), D=rng.standard_normal((3, 3)),
            Q=rng.standard_normal((2, 3)), G=rng.standard_normal((3, 2)),
            X0=np.zeros((2, 3)),
        )
        x = rng.standard_normal((2, 3))
        expected = p.A @ x + x @ p.D + p.Q - x @ p.G @ x
        assert rel_err(p.rhs(x), expected) <= 1e-15


class TestConfigValidation:
    def test_unknown_scheme_lists_names(self):
        with pytest.raises(ConfigurationError, match="GExpEuler"):
            IntegratorConfig("Nope", 0.1, 1.0)

    def test_grid_must_hit_final_time(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig("GExpEuler", 0.3, 1.0)

    def test_zero_final_time_allowed(self):
        cfg = IntegratorConfig("GExpEuler", 0.1, 0.0)
        assert cfg.step_count == 0

    def test_step_count(self):
        assert IntegratorConfig("GExpEuler", 0.01, 1.0).step_count == 100

    def test_positive_step_required(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig("GExpEuler", 0.0, 1.0)

    def test_default_tolerance_scales_with_dimension(self):
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        assert cfg.resolve_tol(64) == pytest.approx(64 * np.finfo(float).eps)
        assert IntegratorConfig("LrExpEuler", 0.1, 1.0, compression_tol=1e-9).resolve_tol(64) == 1e-9


class TestExpEulerGeneral:
    def test_scalar_first_step(self):
        p = _tanh_problem()
        out = step_expeuler_general(p, np.array([[0.0]]), 0.1)
        assert out[0, 0] == pytest.approx(0.1, abs=1e-14)

    def test_constant_source_linear_problem_is_exact(self):
        p = RiccatiProblem(A=[[-1.0]], D=[[-1.0]], Q=[[1.0]], G=[[0.0]], X0=[[0.0]])
        out = step_expeuler_general(p, np.array([[0.0]]), 1.0)
        exact = (1.0 - np.exp(-2.0)) / 2.0  # (1 - e^{-2t})/2 at t = 1
        assert out[0, 0] == pytest.approx(exact, rel=1e-13)

    def test_homogeneous_case(self, rng):
        m, n = 3, 2
        p = RiccatiProblem(
            A=rng.standard_normal((m, m)), D=rng.standard_normal((n, n)),
            Q=np.zeros((m, n)), G=np.zeros((n, m)), X0=rng.standard_normal((m, n)),
        )
        h = 0.4
        out = step_expeuler_general(p, p.X0, h)
        assert rel_err(out, expm(h * p.A) @ p.X0 @ expm(h * p.D)) <= 1e-12

    def test_equivalent_forms(self, rng):
        # exp(hS)(X) + h phi_1(hS)(remainder)  ==  X + h phi_1(hS)(F(X))
        for _ in range(5):
            m, n = rng.integers(2, 5, size=2)
            p = RiccatiProblem(
                A=rng.standard_normal((m, m)), D=rng.standard_normal((n, n)),
                Q=rng.standard_normal((m, n)), G=rng.standard_normal((n, m)),
                X0=rng.standard_normal((m, n)),
            )
            x = rng.standard_normal((m, n))
            h = 0.2
            first = step_expeuler_general(p, x, h)
            lin = linearize(p, x)
            second = x + h * phi_action_augmented(lin.operator, h, 1, p.rhs(x))
            assert rel_err(first, second) <= 1e-11


class TestExpEulerBackward:
    def test_scalar_hand_computation(self):
        p = RiccatiProblem(A=[[-1.0]], D=[[-1.0]], Q=[[1.0]], G=[[0.0]], X0=[[0.0]])
        out = step_expeuler_backward(p, np.array([[0.0]]), 1.0)
        # W = -0.5, result = e^{-2} (-0.5) + 0 + 0.5
        assert out[0, 0] == pytest.approx(0.5 - 0.5 * np.exp(-2.0), rel=1e-13)
        assert out[0, 0] == pytest.approx(0.432332358, abs=1e-9)

    def test_equilibrium_is_fixed_point(self, rng):
        # Solve a small algebraic Riccati equation by iterating, then step.
        n = 4
        a = random_stable(rng, n)
        p = build_symmetric_problem(
            a, rng.standard_normal((2, n)), rng.standard_normal((n, 2)),
            np.zeros((n, 0)),
        )
        from scipy.linalg import solve_continuous_are

        xinf = solve_continuous_are(a.T, p.B, p.Q, np.eye(p.B.shape[1]))
        assert np.linalg.norm(p.rhs(xinf)) <= 1e-8 * np.linalg.norm(xinf)
        out = step_expeuler_backward(p, xinf, 0.5)
        assert rel_err(out, xinf) <= 1e-9

    def test_agrees_with_general_realization(self, rng):
        for _ in range(5):
            n = 6
            p = RiccatiProblem(
                A=random_stable(rng, n), D=random_stable(rng, n),
                Q=rng.standard_normal((n, n)), G=0.2 * rng.standard_normal((n, n)),
                X0=0.1 * rng.standard_normal((n, n)),
            )
            x = 0.2 * rng.standard_normal((n, n))
            a_step = step_expeuler_general(p, x, 0.05)
            b_step = step_expeuler_backward(p, x, 0.05)
            assert rel_err(b_step, a_step) <= 1e-10


class TestExpEulerLowRank:
    def test_zero_data_stays_zero(self):
        n = 5
        p = build_symmetric_problem(
            -np.eye(n), np.zeros((1, n)), np.zeros((n, 1)), np.zeros((n, 0))
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        traj = integrate(p, cfg)
        assert traj.final.rank == 0
        assert np.array_equal(traj.final_dense(), np.zeros((n, n)))

    def test_zero_step_returns_state(self, rng):
        n = 6
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        state = p.initial_factor()
        out = step_expeuler_lowrank(p, state, 0.0, cfg)
        assert out is state

    def test_matches_dense_realization(self, rng):
        n = 20
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        cfg = IntegratorConfig("LrExpEuler", 0.02, 0.2)
        lr = integrate(p, cfg)
        dense = integrate(p, IntegratorConfig("GExpEuler", 0.02, 0.2))
        assert rel_err(lr.final_dense(), dense.final_dense()) <= 1e-8

    def test_nonsymmetric_problem_rejected(self, rng):
        p = RiccatiProblem(
            A=rng.standard_normal((3, 3)), D=rng.standard_normal((3, 3)),
            Q=np.eye(3), G=np.eye(3), X0=np.zeros((3, 3)),
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        with pytest.raises(ConfigurationError):
            integrate(p, cfg)


class TestErow3:
    def test_scalar_hand_computation(self):
        p = _tanh_problem()
        cfg = IntegratorConfig("Erow3Dense", 0.1, 1.0)
        out = step_erow3(p, np.array([[0.0]]), 0.1, cfg)
        # Stage value 0.1; correction 2h phi_3(0) (-0.01) = -1/3000.
        assert out[0, 0] == pytest.approx(0.1 - 1.0 / 3000.0, abs=1e-12)

    def test_collapses_to_euler_without_quadratic_term(self, rng):
        m = 4
        p = RiccatiProblem(
            A=rng.standard_normal((m, m)), D=rng.standard_normal((m, m)),
            Q=rng.standard_normal((m, m)), G=np.zeros((m, m)),
            X0=rng.standard_normal((m, m)),
        )
        cfg = IntegratorConfig("Erow3Dense", 0.2, 1.0)
        x = rng.standard_normal((m, m))
        assert rel_err(step_erow3(p, x, 0.2, cfg), step_expeuler_general(p, x, 0.2)) <= 1e-13

    def test_lowrank_matches_dense(self, rng):
        n = 16
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        lr = integrate(p, IntegratorConfig("Erow3LowRank", 0.02, 0.2))
        dense = integrate(p, IntegratorConfig("Erow3Dense", 0.02, 0.2))
        assert rel_err(lr.final_dense(), dense.final_dense()) <= 1e-7


class TestConvergenceOrders:
    def test_scalar_orders(self):
        p = _tanh_problem()
        exact = np.tanh(1.0)
        errors = {"GExpEuler": [], "Erow3Dense": []}
        steps = (0.1, 0.05, 0.025)
        for scheme in errors:
            for h in steps:
                traj = integrate(p, IntegratorConfig(scheme, h, 1.0))
                errors[scheme].append(abs(traj.final_dense()[0, 0] - exact))
        for h_big, h_small in zip(errors["GExpEuler"], errors["GExpEuler"][1:]):
            assert 1.8 <= np.log2(h_big / h_small) <= 2.2
        for h_big, h_small in zip(errors["Erow3Dense"], errors["Erow3Dense"][1:]):
            assert 2.7 <= np.log2(h_big / h_small) <= 3.3


class TestMsdePolynomial:
    def test_homogeneous_tail(self, rng):
        m = 3
        op = SylvesterOperator(rng.standard_normal((m, m)), rng.standard_normal((m, m)))
        x0 = rng.standard_normal((m, m))
        out = step_msde_polynomial(op, [x0, np.zeros((m, m))], 0.6)
        assert rel_err(out, op.exp_action(0.6, x0)) <= 1e-12

    def test_zero_operator_collapses_to_taylor(self, rng):
        m = 2
        op = SylvesterOperator(np.zeros((m, m)), np.zeros((m, m)))
        coeffs = [rng.standard_normal((m, m)) for _ in range(4)]
        t = 0.7
        out = step_msde_polynomial(op, coeffs, t)
        expected = coeffs[0] + t * coeffs[1] + t ** 2 / 2 * coeffs[2] + t ** 3 / 6 * coeffs[3]
        assert rel_err(out, expected) <= 1e-13

    def test_matches_reference_integration(self, rng):
        import math

        m = 4
        a = random_stable(rng, m, scale=0.5)
        d = random_stable(rng, m, scale=0.5)
        op = SylvesterOperator(a, d)
        x0 = rng.standard_normal((m, m))
        derivs = [rng.standard_normal((m, m)) for _ in range(3)]

        def rhs(t, x):
            src = sum(t ** j / math.factorial(j) * nj for j, nj in enumerate(derivs))
            return a @ x + x @ d + src

        reference = rk4_matrix_ode(rhs, x0, 0.9, steps=4000)
        out = step_msde_polynomial(op, [x0] + derivs, 0.9)
        assert rel_err(out, reference) <= 1e-8
        out_b = step_msde_polynomial(op, [x0] + derivs, 0.9, recursion="backward")
        assert rel_err(out_b, reference) <= 1e-8


class TestMsdeExactness:
    def test_single_step_solves_constant_source_exactly(self, rng):
        for _ in range(6):
            m, n = rng.integers(1, 11, size=2)
            a = random_stable(rng, m)
            d = random_stable(rng, n)
            p = RiccatiProblem(
                A=a, D=d, Q=rng.standard_normal((m, n)), G=np.zeros((n, m)),
                X0=rng.standard_normal((m, n)),
            )
            h = 20.0 / (np.linalg.norm(a, 2) + np.linalg.norm(d, 2))
            out = step_expeuler_general(p, p.X0, h)
            ref = radon_solve(p, h, cond_max=1e2)
            assert rel_err(out, ref) <= 1e-11


class TestIntegrate:
    def test_zero_horizon_returns_initial_state(self):
        p = _tanh_problem()
        traj = integrate(p, IntegratorConfig("GExpEuler", 0.1, 0.0))
        assert len(traj.states) == 1
        assert traj.times[0] == 0.0

    def test_scalar_closed_form(self):
        p = _tanh_problem()
        traj = integrate(p, IntegratorConfig("GExpEuler", 0.01, 1.0))
        assert abs(traj.final_dense()[0, 0] - np.tanh(1.0)) <= 5e-4
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
        assert np.all(np.diff(traj.times) > 0)

    def test_failing_step_carries_partial_trajectory(self):
        # The scalar problem linearizes to the zero operator at X = 0, so
        # the Sylvester-solve realization must fail at step 0.
        p = _tanh_problem()
        with pytest.raises(IntegrationError) as info:
            integrate(p, IntegratorConfig("BrExpEuler", 0.1, 1.0))
        assert info.value.step_index == 0
        assert len(info.value.trajectory.states) == 1

    def test_store_every_thins_snapshots(self, rng):
        n = 6
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        cfg = IntegratorConfig("GExpEuler", 0.1, 1.0, store_every=5)
        traj = integrate(p, cfg)
        assert len(traj.states) == 3  # t = 0, 0.5, 1.0
        assert len(traj.diagnostics) == 10

    def test_symmetry_preserved_densely(self, rng):
        n = 8
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        traj = integrate(p, IntegratorConfig("GExpEuler", 0.05, 1.0))
        for diag in traj.diagnostics:
            assert diag.symmetry_error <= 1e-12

    # exp(20 a) overflows in the first step: at n = 6, a = 50 in the
    # exponential images; at n = 1, a = 20 only in the projected core of
    # the compression, whose drop rule used to discard the infinite mode
    # and return the zero state.
    @pytest.mark.parametrize("n, a", [(6, 50.0), (1, 20.0)])
    @pytest.mark.parametrize("exp_action", ["dense", "krylov"])
    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_lowrank_overflow_names_failing_step(self, scheme, exp_action, n, a):
        p = build_symmetric_problem(
            a * np.eye(n), np.ones((1, n)), 1e-3 * np.ones((n, 1)), np.ones((n, 1))
        )
        cfg = IntegratorConfig(scheme, 20.0, 100.0, exp_action=exp_action)
        with pytest.raises(IntegrationError) as info, np.errstate(all="ignore"):
            integrate(p, cfg)
        assert info.value.step_index == 0
        assert len(info.value.trajectory.states) == 1

    @pytest.mark.parametrize("exp_action", ["dense", "krylov"])
    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_one_linearization_per_lowrank_step(self, scheme, exp_action, rng, monkeypatch):
        calls = []
        original = integrators._linearized_coefficient

        def spy(problem, state):
            calls.append(state)
            return original(problem, state)

        monkeypatch.setattr(integrators, "_linearized_coefficient", spy)
        n = 10
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        traj = integrate(p, IntegratorConfig(scheme, 0.125, 0.375, exp_action=exp_action))
        # One call per step, linearized at the state the step starts from.
        assert len(calls) == len(traj.diagnostics) == 3
        assert all(call is state for call, state in zip(calls, traj.states))

    def test_lowrank_diagnostics_populated(self, rng):
        n = 10
        p = build_symmetric_problem(
            random_stable(rng, n), rng.standard_normal((2, n)),
            rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 0.5, exp_action="krylov")
        traj = integrate(p, cfg)
        for diag in traj.diagnostics:
            assert diag.rank is not None and diag.rank <= n
            assert diag.dropped is not None and diag.dropped >= 0
            assert diag.krylov_residual is not None
            assert diag.min_eigenvalue is not None


class TestExponentialActionRoutes:
    """fdm-sym:k=14 (n = 196, rank-2 generators) is above the threshold at
    which the low-rank steps keep A_lin as sparse A plus a thin correction."""

    SPEC = "fdm-sym:k=14"
    STEPS = 10
    H = 1e-3

    def _config(self, scheme, exp_action, steps=STEPS):
        return IntegratorConfig(scheme, self.H, steps * self.H, exp_action=exp_action)

    def _run(self, scheme, exp_action):
        problem = problem_from_spec(self.SPEC, seed=20240)
        return problem, integrate(problem, self._config(scheme, exp_action))

    @pytest.mark.parametrize("exp_action", ["dense", "krylov"])
    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_structured_and_dense_coefficients_agree(self, scheme, exp_action, monkeypatch):
        problem, structured = self._run(scheme, exp_action)
        coefficient = integrators._linearized_coefficient(problem, problem.initial_factor())
        assert isinstance(coefficient, SparsePlusThin)
        monkeypatch.setattr(integrators, "_STRUCTURED_COST_RATIO", float("inf"))
        problem, dense = self._run(scheme, exp_action)
        coefficient = integrators._linearized_coefficient(problem, problem.initial_factor())
        assert isinstance(coefficient, np.ndarray)
        assert rel_err(structured.final_dense(), dense.final_dense()) <= 1e-12

    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_krylov_step_matches_dense_step(self, scheme):
        # Step 0 takes a real basis of 180 columns in R^196, which is only
        # good to about 1e-3 there; from the state after it, the Euler
        # stage is a full-space action and Erow3's width-2 correction a
        # converged basis.
        problem = problem_from_spec(self.SPEC, seed=20240)
        state = integrate(problem, self._config(scheme, "dense", steps=1)).final
        stepper = integrators._SCHEME_STEPS[scheme][0]
        details = {}
        krylov = stepper(problem, state, self.H, self._config(scheme, "krylov"), details)
        dense = stepper(problem, state, self.H, self._config(scheme, "dense"))
        assert details["krylov_basis_cols"][0] == 0
        assert rel_err(krylov.reconstruct(), dense.reconstruct()) <= 1e-12

    @pytest.mark.parametrize("scheme, actions", [("LrExpEuler", 1), ("Erow3LowRank", 2)])
    def test_full_space_actions_build_no_basis(self, scheme, actions, monkeypatch):
        widths = []

        def spy(a, v, m):
            widths.append(v.shape[1])
            return build_basis(a, v, m)

        monkeypatch.setattr(integrators, "build_basis", spy)
        problem, traj = self._run(scheme, "krylov")
        m, n = 30, problem.M
        cols = [c for diag in traj.diagnostics for c in diag.krylov_basis_cols]

        # One entry per exponential-action call; a basis only where m
        # blocks fit in R^n, and 0 for the exact full-space action.
        assert len(cols) == actions * self.STEPS
        assert len(widths) == sum(1 for c in cols if c > 0) > 0
        assert all(m * w < n for w in widths)
        assert 0 in cols
        full_space = [d for d in traj.diagnostics if not any(d.krylov_basis_cols)]
        assert all(d.krylov_residual == 0.0 for d in full_space)
        if scheme == "LrExpEuler":
            assert len(full_space) == self.STEPS - 1
