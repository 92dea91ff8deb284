import numpy as np
import pytest
import scipy.linalg

import expriccati
import expriccati.integrators as integrators
import expriccati.lowrank as lowrank
from expriccati.densecore import SparsePlusThin, fro
from expriccati.errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FiniteEscapeError,
    IntegrationError,
)
from expriccati.integrators import (
    IntegratorConfig,
    RiccatiProblem,
    StepDiagnostics,
    integrate,
    step_erow3,
    step_expeuler_backward,
    step_expeuler_general,
    step_expeuler_lowrank,
)
from expriccati.oracle import radon_solve
from expriccati.krylov import _basis_pays, build_basis
from expriccati.problems import problem_from_spec, scalar_tanh_problem
from expriccati.sylvop import (
    SylvesterOperator,
    linearize,
    phi1_action_augmented,
    phi_action_augmented,
)

from helpers import random_stable, rel_err, rk4_matrix_ode, step_msde_polynomial


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
            RiccatiProblem(A=-np.eye(3), C=np.ones((1, 3)), B=np.ones((3, 1)),
                           L0=np.ones((3, 1)), D0=np.eye(2), symmetric=True)

    def test_rhs_value(self, rng):
        p = RiccatiProblem(
            A=rng.standard_normal((2, 2)), D=rng.standard_normal((3, 3)),
            Q=rng.standard_normal((2, 3)), G=rng.standard_normal((3, 2)),
            X0=np.zeros((2, 3)),
        )
        x = rng.standard_normal((2, 3))
        expected = p.A @ x + x @ p.D + p.Q - x @ p.G @ x
        assert rel_err(p.rhs(x), expected) <= 1e-15


class TestGeneratedCoefficients:
    """A symmetric problem builds the coefficients it is not given from its
    generators on first read, once, and does not check them against
    themselves."""

    @staticmethod
    def _generators(rng, n=6):
        return {"A": random_stable(rng, n), "C": rng.standard_normal((2, n)),
                "B": rng.standard_normal((n, 3)), "L0": rng.standard_normal((n, 2))}

    def test_generated_problem_makes_no_consistency_check(self, monkeypatch):
        calls = []
        original = integrators._require_match

        def spy(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(integrators, "_require_match", spy)
        problem_from_spec("fdm-sym:k=5")
        assert calls == []

    def test_built_coefficients_are_the_generator_products(self, rng):
        g = self._generators(rng)
        p = RiccatiProblem(symmetric=True, **g)
        assert np.array_equal(p.D0, np.eye(2))
        assert np.array_equal(p.D, p.A.T)
        assert np.array_equal(p.Q, p.C.T @ p.C)
        assert np.array_equal(p.G, p.B @ p.B.T)
        assert np.array_equal(p.X0, p.L0 @ p.D0 @ p.L0.T)

    def test_given_coefficient_is_still_checked(self, rng):
        g = self._generators(rng)
        with pytest.raises(ConfigurationError, match="C\\^T C"):
            RiccatiProblem(symmetric=True, Q=2.0 * g["C"].T @ g["C"], **g)

    def test_nonsymmetric_initial_core_rejected(self, rng):
        g = self._generators(rng)
        with pytest.raises(ConfigurationError, match="symmetric D0"):
            RiccatiProblem(A=g["A"], C=g["C"], B=g["B"], L0=g["L0"], D0=[[1.0, 1.0], [0.0, 1.0]],
                           symmetric=True)

    def test_overflowing_product_rejected(self, rng):
        # Finite generators whose product is not: C^T C overflows.
        g = self._generators(rng)
        g["C"][0, 0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="Q contains non-finite"):
            RiccatiProblem(symmetric=True, **g)

    @pytest.mark.parametrize("name, generator", [("G", "B"), ("X0", "L0")])
    def test_overflowing_product_of_other_generators_rejected(self, rng, name, generator):
        g = self._generators(rng)
        g[generator][0, 0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(
            DomainError, match=f"{name} contains non-finite"
        ):
            RiccatiProblem(symmetric=True, **g)

    def test_finite_product_of_overflowing_row_norms_is_kept(self, rng):
        # |L0| = 1e160 squares past the float range, so the row-norm bound
        # is inf; L0 D0 L0^T = 1e120 is finite and formed at construction.
        g = self._generators(rng)
        g["L0"] = np.full((6, 1), 1e160)
        p = RiccatiProblem(symmetric=True, D0=[[1e-200]], **g)
        assert "X0" in vars(p)
        assert np.array_equal(p.X0, p.L0 @ p.D0 @ p.L0.T)

    def test_lowrank_run_forms_no_dense_coefficient(self):
        p = problem_from_spec("fdm-sym:k=20")
        integrate(p, IntegratorConfig("LrExpEuler", 1e-3, 3e-3, exp_action="krylov"))
        assert p.N == 400
        assert not {"D", "Q", "G", "X0"} & set(vars(p))
        # The first read builds the coefficient and caches it on the problem.
        assert p.Q is p.Q and "Q" in vars(p)
        assert np.array_equal(p.Q, p.C.T @ p.C)

    def test_nonsymmetric_problem_needs_every_coefficient(self, rng):
        n = 3
        with pytest.raises(ConfigurationError, match="Q"):
            RiccatiProblem(A=rng.standard_normal((n, n)), D=rng.standard_normal((n, n)),
                           G=np.eye(n), X0=np.zeros((n, n)), C=np.ones((1, n)))

    @pytest.mark.parametrize("scheme", ["GExpEuler", "LrExpEuler", "Erow3LowRank"])
    def test_generated_problem_integrates_like_a_given_one(self, rng, scheme):
        g = self._generators(rng)
        a, c, b, l0 = g["A"], g["C"], g["B"], g["L0"]
        given = RiccatiProblem(A=a, D=a.T, Q=c.T @ c, G=b @ b.T, X0=l0 @ l0.T,
                               C=c, B=b, L0=l0, D0=np.eye(2), symmetric=True)
        generated = RiccatiProblem(symmetric=True, **g)
        cfg = IntegratorConfig(scheme, 0.05, 0.2)
        assert np.array_equal(integrate(generated, cfg).final_dense(),
                              integrate(given, cfg).final_dense())


class TestConfigValidation:
    def test_unknown_scheme_lists_names(self):
        with pytest.raises(ConfigurationError, match="GExpEuler"):
            IntegratorConfig("Nope", 0.1, 1.0)

    def test_grid_must_hit_final_time(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig("GExpEuler", 0.3, 1.0)

    def test_decimal_grids_accepted_exactly_when_the_count_is_an_integer(self):
        # h = c 10^-e and t_end = m 10^-e, both parsed from decimal text:
        # the grid is valid exactly when c divides m.  Quotients such as
        # 0.3 / 0.1 = 2.9999999999999996 miss the integer by one ulp.
        rule = IntegratorConfig("GExpEuler", 0.1, 0.0).rule
        for e in range(1, 6):
            for c in (1, 2, 5, 25):
                h = float(f"{c}e-{e}")
                for m in range(1, 1001):
                    t_end = float(f"{m}e-{e}")
                    if m % c:
                        with pytest.raises(ConfigurationError):
                            IntegratorConfig("GExpEuler", h, t_end, rule=rule)
                    else:
                        cfg = IntegratorConfig("GExpEuler", h, t_end, rule=rule)
                        assert cfg.step_count == m // c, (h, t_end)

    def test_zero_final_time_allowed(self):
        cfg = IntegratorConfig("GExpEuler", 0.1, 0.0)
        assert cfg.step_count == 0

    def test_step_count(self):
        assert IntegratorConfig("GExpEuler", 0.01, 1.0).step_count == 100

    def test_positive_step_required(self):
        with pytest.raises(ConfigurationError):
            IntegratorConfig("GExpEuler", 0.0, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("compression_tol", float("nan")), ("compression_tol", -1.0), ("krylov_m", 0),
         ("t_end", float("nan")), ("t_end", float("inf")), ("h", float("inf")),
         ("krylov_m", float("nan")), ("krylov_m", 2.5), ("krylov_m", 3.0)],
    )
    def test_bad_value_rejected_at_construction(self, field, value):
        settings = {"h": 0.1, "t_end": 0.2, field: value}
        with pytest.raises(ConfigurationError):
            IntegratorConfig("LrExpEuler", **settings)

    def test_numpy_integer_counts_accepted(self):
        cfg = IntegratorConfig("LrExpEuler", 0.1, 0.2, krylov_m=np.int64(4))
        assert cfg.krylov_m == 4

    def test_default_tolerance_scales_with_dimension(self):
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        assert cfg.resolve_tol(64) == pytest.approx(64 * np.finfo(float).eps)
        assert IntegratorConfig("LrExpEuler", 0.1, 1.0, compression_tol=1e-9).resolve_tol(64) == 1e-9


class TestExpEulerGeneral:
    def test_scalar_first_step(self):
        p = _tanh_problem()
        out = step_expeuler_general(p, np.array([[0.0]]), 0.1, None, None)
        assert out[0, 0] == pytest.approx(0.1, abs=1e-14)

    def test_constant_source_linear_problem_is_exact(self):
        p = RiccatiProblem(A=[[-1.0]], D=[[-1.0]], Q=[[1.0]], G=[[0.0]], X0=[[0.0]])
        out = step_expeuler_general(p, np.array([[0.0]]), 1.0, None, None)
        exact = (1.0 - np.exp(-2.0)) / 2.0  # (1 - e^{-2t})/2 at t = 1
        assert out[0, 0] == pytest.approx(exact, rel=1e-13)

    def test_homogeneous_case(self, rng):
        m, n = 3, 2
        p = RiccatiProblem(
            A=rng.standard_normal((m, m)), D=rng.standard_normal((n, n)),
            Q=np.zeros((m, n)), G=np.zeros((n, m)), X0=rng.standard_normal((m, n)),
        )
        h = 0.4
        out = step_expeuler_general(p, p.X0, h, None, None)
        assert rel_err(out, scipy.linalg.expm(h * p.A) @ p.X0 @ scipy.linalg.expm(h * p.D)) <= 1e-12

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
            first = step_expeuler_general(p, x, h, None, None)
            operator, _ = linearize(p, x)
            second = x + h * phi_action_augmented(operator, h, 1, p.rhs(x))
            assert rel_err(first, second) <= 1e-11


class TestExpEulerBackward:
    def test_scalar_hand_computation(self):
        p = RiccatiProblem(A=[[-1.0]], D=[[-1.0]], Q=[[1.0]], G=[[0.0]], X0=[[0.0]])
        out = step_expeuler_backward(p, np.array([[0.0]]), 1.0, None, None)
        # W = -0.5, result = e^{-2} (-0.5) + 0 + 0.5
        assert out[0, 0] == pytest.approx(0.5 - 0.5 * np.exp(-2.0), rel=1e-13)
        assert out[0, 0] == pytest.approx(0.432332358, abs=1e-9)

    def test_equilibrium_is_fixed_point(self, rng):
        # Solve a small algebraic Riccati equation by iterating, then step.
        n = 4
        a = random_stable(rng, n)
        p = RiccatiProblem(
            A=a, C=rng.standard_normal((2, n)), B=rng.standard_normal((n, 2)),
            L0=np.zeros((n, 0)), symmetric=True,
        )
        from scipy.linalg import solve_continuous_are

        xinf = solve_continuous_are(a.T, p.B, p.Q, np.eye(p.B.shape[1]))
        assert np.linalg.norm(p.rhs(xinf)) <= 1e-8 * np.linalg.norm(xinf)
        out = step_expeuler_backward(p, xinf, 0.5, None, None)
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
            a_step = step_expeuler_general(p, x, 0.05, None, None)
            b_step = step_expeuler_backward(p, x, 0.05, None, None)
            assert rel_err(b_step, a_step) <= 1e-10


class TestExpEulerLowRank:
    def test_zero_data_stays_zero(self):
        n = 5
        p = RiccatiProblem(
            A=-np.eye(n), C=np.zeros((1, n)), B=np.zeros((n, 1)), L0=np.zeros((n, 0)),
            symmetric=True,
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        traj = integrate(p, cfg)
        assert traj.final.rank == 0
        assert np.array_equal(traj.final_dense(), np.zeros((n, n)))

    def test_zero_step_returns_state(self, rng):
        n = 6
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 1.0)
        state = p.initial_factor()
        out = step_expeuler_lowrank(p, state, 0.0, cfg, StepDiagnostics(step=0, t=0.0))
        assert out is state

    def test_matches_dense_realization(self, rng):
        n = 20
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        cfg = IntegratorConfig("LrExpEuler", 0.02, 0.2)
        lr = integrate(p, cfg)
        dense = integrate(p, IntegratorConfig("GExpEuler", 0.02, 0.2))
        assert rel_err(lr.final_dense(), dense.final_dense()) <= 1e-8

    def test_non_diagonal_initial_core_matches_dense_realization(self, rng):
        # X0 = L0 D0 L0^T with a full D0: the initial factor holds L0 V and
        # the eigenvalues of D0 = V diag(d) V^T.
        n = 20
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)),
            D0=np.array([[2.0, 1.0], [1.0, 2.0]]), symmetric=True,
        )
        initial = p.initial_factor()
        assert np.array_equal(initial.core, np.diag([1.0, 3.0]))
        assert rel_err(initial.reconstruct(), p.X0) <= 1e-14
        # h ||X0 G||_1 is about 7, which the 7-node quadrature resolves
        # (at h = 0.02 it is 30, and both cores end 1e-10 to 1e-5 off).
        lr = integrate(p, IntegratorConfig("LrExpEuler", 0.005, 0.2))
        dense = integrate(p, IntegratorConfig("GExpEuler", 0.005, 0.2))
        assert rel_err(lr.final_dense(), dense.final_dense()) <= 1e-8

    @pytest.mark.parametrize("scheme, dense_scheme",
                             [("LrExpEuler", "GExpEuler"), ("Erow3LowRank", "Erow3Dense")])
    def test_nearly_symmetric_initial_core_accepted(self, scheme, dense_scheme):
        # D0 is 1e-11 off symmetric: within the problem's 1e-10, outside the
        # 1e-12 of a factor's core.  The problem keeps its symmetric part.
        g = problem_from_spec("fdm-sym:k=3,rank=3", seed=20240)
        d0 = np.array([[2.0, 1.0 + 1e-11, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        p = RiccatiProblem(A=g.A, C=g.C, B=g.B, L0=g.L0, D0=d0, symmetric=True)
        assert np.array_equal(p.D0, p.D0.T)
        lr = integrate(p, IntegratorConfig(scheme, 0.01, 0.1))
        dense = integrate(p, IntegratorConfig(dense_scheme, 0.01, 0.1))
        assert rel_err(lr.final_dense(), dense.final_dense()) <= 1e-10

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
        out = step_erow3(p, np.array([[0.0]]), 0.1, cfg, None)
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
        euler = step_expeuler_general(p, x, 0.2, None, None)
        assert rel_err(step_erow3(p, x, 0.2, cfg, None), euler) <= 1e-13

    def test_lowrank_matches_dense(self, rng):
        n = 16
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        lr = integrate(p, IntegratorConfig("Erow3LowRank", 0.02, 0.2))
        dense = integrate(p, IntegratorConfig("Erow3Dense", 0.02, 0.2))
        assert rel_err(lr.final_dense(), dense.final_dense()) <= 1e-7

    def test_dense_quadrature_branch(self, monkeypatch):
        # M * N = 6561 > _EROW3_AUGMENTED_LIMIT: the phi_3 correction
        # goes through the 7-node quadrature, not the augmented exponential.
        calls = []
        original = integrators.phi_action_quadrature

        def spy(*args):
            calls.append(args)
            return original(*args)

        def refuse(*args):
            raise AssertionError("augmented phi_3 called on the quadrature branch")

        monkeypatch.setattr(integrators, "phi_action_quadrature", spy)
        monkeypatch.setattr(integrators, "phi_action_augmented", refuse)
        p = problem_from_spec("fdm-nonsym:k=9", seed=20240)
        traj = integrate(p, IntegratorConfig("Erow3Dense", 0.01, 0.1))
        assert len(calls) == 10
        assert rel_err(traj.final_dense(), radon_solve(p, 0.1)) <= 1e-7

    def test_quadrature_phi3_takes_no_node_exponential(self, full_exponentials):
        # The stage takes one 81 x 81 exponential, exp(tA) of the transposed
        # pair; the phi_3 quadrature on the factor pair of its operand takes
        # none.
        p = problem_from_spec("fdm-nonsym:k=9", seed=20240)
        step_erow3(p, p.X0, 0.01, IntegratorConfig("Erow3Dense", 0.01, 0.1), None)
        assert full_exponentials == [81]

    def test_quadrature_phi3_operand_without_b_takes_a_wide_pair(self, monkeypatch):
        # The same coefficients as a non-symmetric problem without B: the
        # operand -(X - U) G (X - U) goes in as the M-column pair
        # (-(X - U) G, (X - U)^T), and both pairs give the same phi_3.
        seen = []
        original = integrators.phi_action_quadrature

        def spy(*args):
            seen.append((args[3], original(*args)))
            return seen[-1][1]

        monkeypatch.setattr(integrators, "phi_action_quadrature", spy)
        p = problem_from_spec("fdm-nonsym:k=9", seed=20240)
        without_b = RiccatiProblem(A=p.A, D=p.D, Q=p.Q, G=p.G, X0=p.X0)
        cfg = IntegratorConfig("Erow3Dense", 0.01, 0.1)
        for problem in (p, without_b):
            step_erow3(problem, p.X0, 0.01, cfg, None)
        (thin, phi3), (wide, phi3_wide) = seen
        m, width = p.M, p.B.shape[1]
        assert [f.shape for f in thin] == [(m, width), (m, width)]
        assert [f.shape for f in wide] == [(m, m), (m, m)]
        assert rel_err(phi3, phi3_wide) <= 1e-13

    def test_quadrature_phi3_rectangular_problem_without_b(self, rng, monkeypatch):
        m, n = 72, 60  # M * N = 4320 > _EROW3_AUGMENTED_LIMIT
        p = RiccatiProblem(
            A=random_stable(rng, m), D=random_stable(rng, n),
            Q=rng.standard_normal((m, n)), G=0.1 * rng.standard_normal((n, m)),
            X0=0.1 * rng.standard_normal((m, n)),
        )
        seen = []
        original = integrators.phi_action_quadrature

        def spy(*args):
            seen.append((args, original(*args)))
            return seen[-1][1]

        monkeypatch.setattr(integrators, "phi_action_quadrature", spy)
        step_erow3(p, p.X0, 0.01, IntegratorConfig("Erow3Dense", 0.01, 0.1), None)
        [((k, op, h, pair, rule), phi3)] = seen
        assert [f.shape for f in pair] == [(m, m), (n, m)]
        # The node sum with one full exponential per side and node.
        operand = pair[0] @ pair[1].T
        nodes = zip(rule.nodes, rule.weights)
        expected = sum(
            w * s ** 2 / 2.0
            * (scipy.linalg.expm((1.0 - s) * h * op.A) @ operand
               @ scipy.linalg.expm((1.0 - s) * h * op.D))
            for s, w in nodes
        )
        assert k == 3 and rel_err(phi3, expected) <= 1e-13


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
            out = step_expeuler_general(p, p.X0, h, None, None)
            ref = radon_solve(p, h, cond_max=1e2)
            assert rel_err(out, ref) <= 1e-11


class TestIntegrate:
    def test_top_level_exports_the_stepping_api(self):
        # Kernels are imported from their modules.
        assert sorted(expriccati.__all__) == sorted([
            "RiccatiProblem", "IntegratorConfig", "QuadratureRule", "SCHEMES",
            "integrate", "Trajectory", "LdlFactor",
            "problem_from_spec", "load_problem", "radon_solve", "radon_trajectory",
            "ConfigurationError", "DimensionError", "DomainError", "FiniteEscapeError",
            "IntegrationError", "MatrixFormatError", "SolvabilityError", "UsageError",
        ])
        assert all(hasattr(expriccati, name) for name in expriccati.__all__)

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

    def test_symmetry_preserved_densely(self, rng):
        n = 8
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
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
        p = RiccatiProblem(
            A=a * np.eye(n), C=np.ones((1, n)), B=1e-3 * np.ones((n, 1)), L0=np.ones((n, 1)),
            symmetric=True,
        )
        cfg = IntegratorConfig(scheme, 20.0, 100.0, exp_action=exp_action)
        with pytest.raises(IntegrationError) as info, np.errstate(all="ignore"):
            integrate(p, cfg)
        assert info.value.step_index == 0
        assert len(info.value.trajectory.states) == 1

    # x' = x^2 from x(0) = 1 escapes at t = 1 and overflows in step 3; from
    # 1e200 the products of step 0 overflow.  The overflow shows either in
    # the state check or in a kernel's check of an operand it was handed.
    @pytest.mark.parametrize("scheme, x0, step, cause", [
        ("GExpEuler", 1.0, 3, FiniteEscapeError),
        ("BrExpEuler", 1.0, 3, FiniteEscapeError),
        ("Erow3Dense", 1.0, 3, DomainError),
        ("GExpEuler", 1e200, 0, DomainError),
        ("BrExpEuler", 1e200, 0, DomainError),
        ("Erow3Dense", 1e200, 0, DomainError),
    ])
    def test_dense_overflow_names_failing_step(self, scheme, x0, step, cause):
        p = RiccatiProblem(A=[[0.0]], D=[[0.0]], Q=[[0.0]], G=[[-1.0]], X0=[[x0]])
        with pytest.raises(IntegrationError) as info, np.errstate(all="ignore"):
            integrate(p, IntegratorConfig(scheme, 0.5, 5.0))
        assert info.value.step_index == step
        assert len(info.value.trajectory.states) == step + 1
        assert type(info.value.__cause__) is cause

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
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        traj = integrate(p, IntegratorConfig(scheme, 0.125, 0.375, exp_action=exp_action))
        # One call per step, linearized at the state the step starts from.
        assert len(calls) == len(traj.diagnostics) == 3
        assert all(call is state for call, state in zip(calls, traj.states))

    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_lowrank_step_stacks_no_dense_core(self, scheme, monkeypatch):
        # Every core of the phi update is diagonal and travels as a vector,
        # so no step assembles a block-diagonal matrix.
        calls = []
        original = scipy.linalg.block_diag

        def spy(*blocks):
            calls.append(len(blocks))
            return original(*blocks)

        monkeypatch.setattr(scipy.linalg, "block_diag", spy)
        p = problem_from_spec("fdm-sym:k=8", seed=20240)
        traj = integrate(p, IntegratorConfig(scheme, 0.01, 0.01))
        assert len(traj.diagnostics) == 1 and traj.final.rank > 0
        assert calls == []

    def test_lowrank_diagnostics_populated(self, rng):
        n = 10
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        cfg = IntegratorConfig("LrExpEuler", 0.1, 0.5, exp_action="krylov")
        traj = integrate(p, cfg)
        for diag in traj.diagnostics:
            assert diag.rank is not None and diag.rank <= n
            assert diag.dropped is not None and 0 <= diag.dropped <= diag.cols_in
            assert diag.krylov_residual is not None
            assert diag.min_eigenvalue is not None

    @pytest.mark.parametrize("scheme, updates", [("LrExpEuler", 1), ("Erow3LowRank", 2)])
    def test_lowrank_column_counts_add_up(self, rng, monkeypatch, scheme, updates):
        # Per update: (columns in, columns the compression saw, columns out).
        calls, seen = [], []
        concat, compress = integrators.concat_update, lowrank.compress

        def compress_spy(l, core, tol, floor=0.0):
            if seen:
                seen[-1] = l.shape[1]
            return compress(l, core, tol, floor)

        def concat_spy(state, update, tol):
            seen.append(0)
            out = concat(state, update, tol)
            calls.append((state.rank + update.rank, seen.pop(), out.rank))
            return out

        monkeypatch.setattr(lowrank, "compress", compress_spy)
        monkeypatch.setattr(integrators, "concat_update", concat_spy)
        n = 10
        p = RiccatiProblem(
            A=random_stable(rng, n), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        traj = integrate(p, IntegratorConfig(scheme, 0.1, 0.5, compression_tol=1e-6))
        assert len(calls) == updates * len(traj.diagnostics)
        for i, diag in enumerate(traj.diagnostics):
            step = calls[updates * i:updates * (i + 1)]
            assert diag.cols_in == sum(c_in for c_in, _, _ in step)
            assert diag.dropped == sum(c_in - c_out for c_in, _, c_out in step)
        # The compression sees every column that entered.
        assert sum(c_seen for _, c_seen, _ in calls) == sum(c_in for c_in, _, _ in calls)


class TestOperandBudget:
    """Each phi update truncates its compressed operand against the base's
    norm (``lowrank._operand_floor``), not against the operand's own."""

    @pytest.fixture(scope="class")
    def nonsym(self):
        problem = problem_from_spec("fdm-nonsym:k=10", seed=20240)
        return problem, radon_solve(problem, 1.0)

    # The operand keeps a few modes once F(X) has decayed, instead of more
    # and more of them: Sum cols_in was 57 860 (LrExpEuler) and 62 307
    # (Erow3LowRank) with the operand truncated relative to ||F||, and is
    # 17 920 and 21 787 against the base, at the same final error.
    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_fewer_update_columns_at_the_same_accuracy(self, nonsym, scheme):
        problem, reference = nonsym
        traj = integrate(problem, IntegratorConfig(scheme, 0.01, 1.0))
        assert sum(d.cols_in for d in traj.diagnostics) <= 30_000
        assert rel_err(traj.final_dense(), reference) <= 1e-10

    def test_operand_below_the_budget_returns_the_base(self, monkeypatch):
        calls = []
        monkeypatch.setattr(integrators, "expm_actions", lambda *args: calls.append(args))
        problem = problem_from_spec("fdm-sym:k=4", seed=20240)
        state = problem.initial_factor()
        diag = StepDiagnostics(step=0, t=0.01)
        update = integrators._factored_phi_update(
            problem, state, 0.01, IntegratorConfig("LrExpEuler", 0.01, 0.01), diag
        )
        operand = lowrank.LdlFactor(state.L, 1e-20 * state._core)
        assert update(state, operand, 1, 0.01) is state
        assert calls == []
        assert (diag.cols_in, diag.dropped) == (state.rank, 0)

    @pytest.mark.parametrize("scheme, updates", [("LrExpEuler", 1), ("Erow3LowRank", 2)])
    def test_near_steady_krylov_step_records_no_action(self, scheme, updates):
        # From the algebraic Riccati solution (relative residual 1.3e-12)
        # every operand lies below its budget at tol 1e-10, so no update
        # takes an exponential action and the state stays bitwise.
        g = problem_from_spec("fdm-sym:k=4", seed=20240)
        x = scipy.linalg.solve_continuous_are(g.A.T, g.B, g.Q, np.eye(g.B.shape[1]))
        lam, v = np.linalg.eigh((x + x.T) / 2.0)
        keep = lam > 1e-14 * lam.max()
        p = RiccatiProblem(A=g.A, C=g.C, B=g.B, L0=v[:, keep], D0=np.diag(lam[keep]),
                           symmetric=True)
        cfg = IntegratorConfig(scheme, 0.01, 0.03, compression_tol=1e-10, exp_action="krylov")
        traj = integrate(p, cfg)
        assert all(state is traj.states[0] for state in traj.states)
        for diag in traj.diagnostics:
            assert diag.krylov_basis_cols == () and diag.krylov_residual == 0.0
            assert (diag.cols_in, diag.dropped) == (updates * diag.rank, 0)


class TestDenseCorrectionBudget:
    """Erow3Dense skips a phi_3 correction whose operand lies within the
    budget of the low-rank updates (``lowrank._operand_floor``)."""

    @pytest.fixture(scope="class")
    def sym_runs(self):
        # fdm-sym:k=8, h = 0.01, t = 1: the correction operand is quadratic
        # in X - U and falls within its budget from step 27 on.
        problem = problem_from_spec("fdm-sym:k=8", seed=20240)
        calls = []
        original = integrators.phi_action_augmented
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrators, "phi_action_augmented",
                       lambda *args: calls.append(1) or original(*args))
            dense = integrate(problem, IntegratorConfig("Erow3Dense", 0.01, 1.0))
        lowrank_traj = integrate(problem, IntegratorConfig("Erow3LowRank", 0.01, 1.0))
        return problem, dense, lowrank_traj, len(calls)

    def test_fewer_phi3_evaluations_at_the_same_accuracy(self, sym_runs):
        # Without the skip every one of the 100 steps takes an augmented
        # 256 x 256 exponential for its correction.
        problem, dense, _, augmented_calls = sym_runs
        assert augmented_calls <= 40
        assert rel_err(dense.final_dense(), radon_solve(problem, 1.0)) <= 1e-10

    def test_both_realizations_drop_alike(self, sym_runs):
        _, dense, lowrank_traj, augmented_calls = sym_runs
        dense_drops = sum(d.operands_dropped for d in dense.diagnostics)
        assert dense_drops == len(dense.diagnostics) - augmented_calls
        assert abs(dense_drops - sum(d.operands_dropped for d in lowrank_traj.diagnostics)) <= 2

    @pytest.mark.parametrize("scheme, recorded", [
        ("GExpEuler", False), ("BrExpEuler", False), ("LrExpEuler", True),
        ("Erow3Dense", True), ("Erow3LowRank", True),
    ])
    def test_which_schemes_record_the_count(self, scheme, recorded):
        problem = problem_from_spec("fdm-sym:k=4", seed=20240)
        traj = integrate(problem, IntegratorConfig(scheme, 0.01, 0.02))
        assert all((d.operands_dropped == 0) if recorded else (d.operands_dropped is None)
                   for d in traj.diagnostics)

    @pytest.mark.parametrize("spec", ["fdm-sym:k=4", "fdm-nonsym:k=9"],
                             ids=["augmented", "quadrature"])
    @pytest.mark.parametrize("margin, skipped", [(1.0 + 1e-9, True), (1.0 - 1e-9, False)],
                             ids=["below", "above"])
    def test_operand_at_the_budget(self, monkeypatch, spec, margin, skipped):
        calls = []
        for name in ("phi_action_augmented", "phi_action_quadrature"):
            original = getattr(integrators, name)
            monkeypatch.setattr(integrators, name,
                                lambda *args, f=original: calls.append(1) or f(*args))
        p, h = problem_from_spec(spec, seed=20240), 0.01
        operator, remainder = linearize(p, p.X0)
        stage = phi1_action_augmented(operator, h, remainder, p.X0)
        e = p.X0 - stage
        # The tolerance whose floor share tol ||U||_F 3! / (2h) is the
        # operand's norm, times the margin.
        norm = fro((e @ p.G) @ e)
        tol = margin * norm * 2.0 * h / (lowrank._PREDROP_SHARE * fro(stage) * 6.0)
        diag = StepDiagnostics(step=0, t=h)
        cfg = IntegratorConfig("Erow3Dense", h, h, compression_tol=tol)
        out = step_erow3(p, p.X0, h, cfg, diag)
        assert (len(calls), diag.operands_dropped) == ((0, 1) if skipped else (1, 0))
        assert np.array_equal(out, stage) == skipped


class TestExponentialActionRoutes:
    """fdm-sym:k=14 (n = 196, rank-2 generators) is above the threshold at
    which the low-rank steps keep A_lin as sparse A plus a thin correction.

    At h = 1e-3 the exact chain is cheaper than any block Krylov basis
    there (step 0: 4.7 against 10.1 ms), so the route tests take
    ``BASIS_H`` = 0.01, where step 0's Euler stage builds a basis
    (20.5 against 44.6 ms for the exact chain).
    """

    SPEC = "fdm-sym:k=14"
    STEPS = 10
    H = 1e-3
    BASIS_H = 0.01

    def _config(self, scheme, exp_action, steps=STEPS, h=H):
        return IntegratorConfig(scheme, h, steps * h, exp_action=exp_action)

    def _run(self, scheme, exp_action, h=H):
        problem = problem_from_spec(self.SPEC, seed=20240)
        return problem, integrate(problem, self._config(scheme, exp_action, h=h))

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

    @pytest.mark.parametrize(
        "scheme, step",
        [("LrExpEuler", 1), ("Erow3LowRank", 1), ("LrExpEuler", 0), ("Erow3LowRank", 0)],
        ids=["LrExpEuler", "Erow3LowRank", "LrExpEuler-step0", "Erow3LowRank-step0"],
    )
    def test_krylov_step_matches_dense_step(self, scheme, step):
        # Step 0's Euler stage takes a real basis in R^196 (122 columns at
        # this seed); from the state after it, the Euler stage takes the
        # exact action.  Erow3's width-2 correction takes a real basis at
        # both.
        problem = problem_from_spec(self.SPEC, seed=20240)
        h = self.BASIS_H
        state = integrate(problem, self._config(scheme, "dense", steps=step, h=h)).final
        stepper = integrators._SCHEME_STEPS[scheme][0]
        diag = StepDiagnostics(step=step, t=(step + 1) * h)
        krylov = stepper(problem, state, h, self._config(scheme, "krylov", h=h), diag)
        dense = stepper(
            problem, state, h, self._config(scheme, "dense", h=h), StepDiagnostics(step, diag.t)
        )
        assert (diag.krylov_basis_cols[0] > 0) == (step == 0)
        assert rel_err(krylov.reconstruct(), dense.reconstruct()) <= 1e-12

    def test_basis_only_where_it_is_cheaper(self, monkeypatch):
        # fdm-sym:k=20 (n = 400), h = 1e-3: step 0's width-6 operand builds a
        # 122-column basis (17.8 against 25.4 ms for the exact chain).  The
        # width-12 operands of steps 1 and 2 fit 30 blocks into R^400, but
        # the chain is 3-5 times faster than their 331- and 360-column bases.
        widths, verdicts = [], []

        def spy(a, v, m):
            widths.append(v.shape[1])
            return build_basis(a, v, m)

        def pays(a, v, m, taus):
            verdicts.append((v.shape[1], _basis_pays(a, v, m, taus)))
            return verdicts[-1][1]

        monkeypatch.setattr(integrators, "build_basis", spy)
        monkeypatch.setattr(integrators, "_basis_pays", pays)
        problem = problem_from_spec("fdm-sym:k=20", seed=20240)
        traj = integrate(problem, IntegratorConfig("LrExpEuler", 1e-3, 3e-3, exp_action="krylov"))
        assert widths == [6]
        assert verdicts == [(6, True), (12, False), (12, False)]
        assert traj.diagnostics[0].krylov_basis_cols == (122,)
        assert [d.krylov_basis_cols for d in traj.diagnostics[1:]] == [(0,), (0,)]

    @pytest.mark.parametrize("scheme, actions", [("LrExpEuler", 1), ("Erow3LowRank", 2)])
    def test_full_space_actions_build_no_basis(self, scheme, actions, monkeypatch):
        widths = []

        def spy(a, v, m):
            widths.append(v.shape[1])
            return build_basis(a, v, m)

        monkeypatch.setattr(integrators, "build_basis", spy)
        problem, traj = self._run(scheme, "krylov", h=self.BASIS_H)
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


class TestOperatorReuse:
    """A dense run reuses the linearized operator, and its factorizations,
    while the new coefficients lie within unit roundoff of it."""

    DENSE = ("GExpEuler", "BrExpEuler", "Erow3Dense")

    @pytest.fixture(scope="class")
    def problem(self):
        # Past step 20 of 100 the state is at its steady state to roundoff.
        return problem_from_spec("fdm-nonsym:k=6", seed=20240)

    @pytest.fixture(scope="class")
    def reference(self, problem):
        return radon_solve(problem, 1.0)

    @pytest.mark.parametrize("scheme", DENSE)
    def test_steady_state_reuses_factorizations(
        self, scheme, problem, reference, full_exponentials, monkeypatch
    ):
        schur_forms = []
        original = scipy.linalg.schur

        def spy(a, *args, **kwargs):
            schur_forms.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", spy)
        traj = integrate(problem, IntegratorConfig(scheme, 0.01, 1.0))
        steps = len(traj.diagnostics)
        reused = [d.operator_reused for d in traj.diagnostics]
        assert reused[0] is False and all(isinstance(r, bool) for r in reused)
        assert sum(reused) >= 0.75 * steps
        assert len(full_exponentials) < steps and len(schur_forms) < steps
        # Criterion 3's bound, unchanged.
        assert rel_err(traj.final_dense(), reference) <= 1e-10

    @pytest.mark.parametrize("scheme", DENSE)
    def test_repeated_runs_are_bitwise_equal(self, scheme, problem):
        cfg = IntegratorConfig(scheme, 0.01, 0.3)
        first, second = integrate(problem, cfg), integrate(problem, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(first.states, second.states))
        for a, b in zip(first.diagnostics, second.diagnostics):
            a.wall_time = b.wall_time = None
            assert a == b

    @pytest.mark.parametrize("scheme", DENSE)
    def test_next_run_factorizes_at_step_zero(self, scheme, problem):
        cfg = IntegratorConfig(scheme, 0.01, 0.3)
        assert integrate(problem, cfg).diagnostics[-1].operator_reused
        other = problem_from_spec("fdm-nonsym:k=6", seed=7)
        traj = integrate(other, cfg)
        assert traj.diagnostics[0].operator_reused is False
        fresh = integrate(problem_from_spec("fdm-nonsym:k=6", seed=7), cfg)
        assert all(np.array_equal(a, b) for a, b in zip(traj.states, fresh.states))

    @pytest.mark.parametrize("scheme", ["LrExpEuler", "Erow3LowRank"])
    def test_lowrank_steps_record_none(self, scheme):
        problem = problem_from_spec("fdm-sym:k=4", seed=20240)
        traj = integrate(problem, IntegratorConfig(scheme, 0.1, 0.3))
        assert all(d.operator_reused is None for d in traj.diagnostics)
