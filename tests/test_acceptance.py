"""Acceptance suite: one test per shipped criterion, with PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 8 (n = 400 trajectory reproduction) is marked
``slow``; deselect it with ``-m "not slow"`` during development.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from expriccati import QuadratureRule
from expriccati.integrators import IntegratorConfig, RiccatiProblem, integrate
from expriccati.krylov import build_basis, exp_actions_krylov
from expriccati.lowrank import (
    LdlFactor,
    assemble_phi_sum,
    assemble_remainder_diff,
    assemble_rhs,
)
from expriccati.oracle import radon_solve
from expriccati.problems import problem_from_spec, random_lowrank
from expriccati.sylvop import SylvesterOperator, phi1_action_augmented

from helpers import (
    PhiCombination,
    dense_phi,
    eval_backward,
    eval_forward,
    kron_matrix,
    random_stable,
    rel_err,
    unvec,
    vec,
)

SEED = 20240


def _report(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {label}: {status} ({detail})")
    assert passed, f"criterion {number} {label}: {detail}"


def _final_rel_dev(a, b):
    fa, fb = a.final_dense(), b.final_dense()
    return float(np.linalg.norm(fa - fb) / np.linalg.norm(fa))


def _max_rel_dev(a, b, t_min=0.0):
    worst = 0.0
    scale = max(np.linalg.norm(a.dense_state(i)) for i in range(len(a.states)))
    for i, t in enumerate(a.times):
        if t < t_min:
            continue
        worst = max(worst, np.linalg.norm(a.dense_state(i) - b.dense_state(i)) / scale)
    return worst


@pytest.fixture(scope="module")
def fdm_cases():
    """GExpEuler h=0.01 trajectories plus references for the four fdm cases."""
    cases = {}
    for name in ("fdm-sym", "fdm-nonsym"):
        for k in (8, 10):
            spec = f"{name}:k={k}"
            problem = problem_from_spec(spec, seed=SEED)
            started = time.perf_counter()
            trajectory = integrate(problem, IntegratorConfig("GExpEuler", 0.01, 1.0))
            reference = radon_solve(problem, 1.0)
            elapsed = time.perf_counter() - started
            cases[spec] = (problem, trajectory, reference, elapsed)
    return cases


@pytest.fixture(scope="module")
def cross_realization_runs(fdm_cases):
    """All five realizations on the symmetric n = 64 case."""
    problem, g_traj, _, _ = fdm_cases["fdm-sym:k=8"]
    runs = {"GExpEuler": g_traj}
    started = time.perf_counter()
    for scheme in ("BrExpEuler", "LrExpEuler", "Erow3Dense", "Erow3LowRank"):
        runs[scheme] = integrate(problem, IntegratorConfig(scheme, 0.01, 1.0))
    elapsed = time.perf_counter() - started
    return problem, runs, elapsed


class TestCriterion1:
    def test_scalar_closed_form_and_orders(self):
        started = time.perf_counter()
        problem = problem_from_spec("tanh")
        exact = np.tanh(1.0)

        euler = integrate(problem, IntegratorConfig("GExpEuler", 0.01, 1.0))
        err_euler = abs(euler.final_dense()[0, 0] - exact)
        third = integrate(problem, IntegratorConfig("Erow3Dense", 0.01, 1.0))
        err_third = abs(third.final_dense()[0, 0] - exact)

        ladder = (0.1, 0.05, 0.025, 0.0125)
        errs = {"GExpEuler": [], "Erow3Dense": []}
        for scheme in errs:
            for h in ladder:
                traj = integrate(problem, IntegratorConfig(scheme, h, 1.0))
                errs[scheme].append(abs(traj.final_dense()[0, 0] - exact))
        slope = {
            scheme: np.polyfit(np.log(ladder), np.log(values), 1)[0]
            for scheme, values in errs.items()
        }
        elapsed = time.perf_counter() - started

        ok = (
            err_euler <= 5e-4
            and err_third <= 5e-6
            and abs(slope["GExpEuler"] - 2.0) <= 0.2
            and abs(slope["Erow3Dense"] - 3.0) <= 0.3
            and elapsed < 1.0
        )
        _report(
            1,
            "scalar Riccati closed form",
            ok,
            f"euler {err_euler:.2e}, third order {err_third:.2e}, "
            f"slopes {slope['GExpEuler']:.2f}/{slope['Erow3Dense']:.2f}, {elapsed:.2f}s",
        )


class TestCriterion2:
    def test_single_step_solves_constant_source_exactly(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(10):
            m, n = rng.integers(1, 11, size=2)
            a = random_stable(rng, m)
            d = random_stable(rng, n)
            problem = RiccatiProblem(
                A=a, D=d, Q=rng.standard_normal((m, n)), G=np.zeros((n, m)),
                X0=rng.standard_normal((m, n)),
            )
            h = 20.0 / (np.linalg.norm(a, 2) + np.linalg.norm(d, 2))
            traj = integrate(problem, IntegratorConfig("GExpEuler", h, h))
            reference = radon_solve(problem, h, cond_max=1e2)
            worst = max(worst, rel_err(traj.final_dense(), reference))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-11 and elapsed < 5.0
        _report(
            2,
            "linear matrix flow solved exactly in one step",
            ok,
            f"worst relative error {worst:.2e}, {elapsed:.2f}s",
        )


class TestCriterion3:
    def test_fdm_benchmark_accuracy(self, fdm_cases):
        worst = {}
        slowest = 0.0
        for spec, (problem, trajectory, reference, elapsed) in fdm_cases.items():
            err = rel_err(trajectory.final_dense(), reference)
            worst[spec] = err
            slowest = max(slowest, elapsed)
        ok = all(err <= 1e-10 for err in worst.values()) and slowest < 60.0
        detail = ", ".join(f"{spec} {err:.2e}" for spec, err in worst.items())
        _report(3, "fdm benchmark versus linearized-flow reference", ok,
                f"{detail}; slowest case {slowest:.1f}s")


class TestCriterion4:
    def test_cross_realization_agreement(self, cross_realization_runs):
        _, runs, elapsed = cross_realization_runs
        g = runs["GExpEuler"]

        # The Sylvester-solve realization is algebraically exact, so the
        # whole trajectory must agree.  The quadrature-based low-rank
        # realizations resolve the stiff initial transient only to the
        # 7-node accuracy (the deviation decays exponentially and is gone
        # by t = 0.5), so they are compared after the transient and at
        # the final state.
        dev_br = _max_rel_dev(g, runs["BrExpEuler"])
        dev_lr = max(
            _max_rel_dev(g, runs["LrExpEuler"], t_min=0.5),
            _final_rel_dev(g, runs["LrExpEuler"]),
        )
        dev_e3 = max(
            _max_rel_dev(runs["Erow3Dense"], runs["Erow3LowRank"], t_min=0.5),
            _final_rel_dev(runs["Erow3Dense"], runs["Erow3LowRank"]),
        )
        ok = dev_br <= 1e-10 and dev_lr <= 1e-7 and dev_e3 <= 1e-6 and elapsed < 120.0
        _report(
            4,
            "cross-realization agreement at n = 64",
            ok,
            f"Br {dev_br:.2e}, Lr {dev_lr:.2e}, Erow3 {dev_e3:.2e}, {elapsed:.1f}s",
        )


class TestCriterion5:
    def test_vectorized_dense_equivalence(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED + 5)
        worst = 0.0
        for _ in range(100):
            m, n = rng.integers(1, 7, size=2)
            a = rng.standard_normal((m, m))
            d = rng.standard_normal((n, n))
            op = SylvesterOperator(a, d)
            h = float(rng.uniform(0.1, 0.8))
            x = rng.standard_normal((m, n))
            v = rng.standard_normal((m, n))
            kmat = kron_matrix(a, d)

            exp_ref = unvec(scipy.linalg.expm(h * kmat) @ vec(x), m, n)
            worst = max(worst, rel_err(op.exp_action(h, x), exp_ref))

            aug_ref = unvec(
                scipy.linalg.expm(h * kmat) @ vec(x) + h * (dense_phi(1, h * kmat) @ vec(v)), m, n
            )
            worst = max(worst, rel_err(phi1_action_augmented(op, h, v, x), aug_ref))

            operands = tuple(rng.standard_normal((m, n)) for _ in range(3))
            comb = PhiCombination(operands, op, h)
            comb_ref = np.zeros((m, n))
            for j, nj in enumerate(operands):
                comb_ref += unvec(dense_phi(j, h * kmat) @ vec(nj), m, n)
            worst = max(worst, rel_err(eval_forward(comb), comb_ref))

            # Backward recursion needs an invertible operator.
            shift = float(np.abs(np.linalg.eigvals(kmat)).max()) + 1.0
            a_shift = a - shift * np.eye(m)
            op_shift = SylvesterOperator(a_shift, d)
            k_shift = kron_matrix(a_shift, d)
            comb_b = PhiCombination(operands, op_shift, h)
            back_ref = np.zeros((m, n))
            for j, nj in enumerate(operands):
                back_ref += unvec(dense_phi(j, h * k_shift) @ vec(nj), m, n)
            worst = max(worst, rel_err(eval_backward(comb_b), back_ref))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-11 and elapsed < 30.0
        _report(
            5,
            "operator evaluations match vectorized dense computation",
            ok,
            f"worst relative error {worst:.2e} over 100 instances, {elapsed:.1f}s",
        )


class TestCriterion6:
    def test_factored_assemblies_and_compression(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED + 6)
        worst = 0.0
        for n in (20, 35, 50):
            problem = problem_from_spec(f"fdm-sym:k={int(np.sqrt(n))}", seed=SEED)
            n_eff = problem.A.shape[0]
            state = LdlFactor(
                rng.standard_normal((n_eff, 3)),
                np.diag(rng.uniform(0.5, 2.0, size=3)),
            )
            stage = LdlFactor(
                rng.standard_normal((n_eff, 4)),
                np.diag(rng.uniform(0.5, 2.0, size=4)),
            )
            x = state.reconstruct()
            y = stage.reconstruct()

            rhs = assemble_rhs(problem, state)
            worst = max(worst, rel_err(rhs.reconstruct(), problem.rhs(x)))

            diff = assemble_remainder_diff(problem, state, stage)
            target = (
                x @ problem.G @ y + y @ problem.G @ x
                - y @ problem.G @ y - x @ problem.G @ x
            )
            worst = max(worst, rel_err(diff.reconstruct(), target))

            rule = QuadratureRule.gauss_legendre(7)
            h = 0.05
            actions = lambda taus, block: [
                scipy.linalg.expm(t * problem.A) @ block for t in taus
            ]
            stack = assemble_phi_sum(actions, h, 1, rhs, rule, coeff=h)
            per_node = sum(
                h * w * scipy.linalg.expm((1 - s) * h * problem.A) @ rhs.reconstruct()
                @ scipy.linalg.expm((1 - s) * h * problem.A).T
                for s, w in zip(rule.nodes, rule.weights)
            )
            worst = max(worst, rel_err(stack.reconstruct(), per_node))

        # Compression at dim * eps must leave the final trajectory error
        # indistinguishable from the uncompressed (tol = 0) run.
        problem = problem_from_spec("fdm-sym:k=7", seed=SEED)  # n = 49
        reference = radon_solve(problem, 1.0)
        errors = []
        for tol in (None, 0.0):
            cfg = IntegratorConfig("LrExpEuler", 0.01, 1.0, compression_tol=tol)
            traj = integrate(problem, cfg)
            errors.append(rel_err(traj.final_dense(), reference))
        drift = abs(errors[0] - errors[1])
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-12 and drift <= 1e-10 and elapsed < 30.0
        _report(
            6,
            "factored assemblies and compression policy",
            ok,
            f"worst reconstruction {worst:.2e}, compression drift {drift:.2e}, {elapsed:.1f}s",
        )


class TestCriterion7:
    def test_krylov_exponential_actions(self):
        started = time.perf_counter()
        problem = problem_from_spec("fdm-sym:k=20", seed=SEED)  # n = 400
        a = problem.A
        v = random_lowrank(400, 4, seed=SEED + 7)
        basis = build_basis(a, v, m=30)
        h = 0.001
        rule = QuadratureRule.gauss_legendre(7)
        worst = 0.0
        for s in rule.nodes:
            tau = (1.0 - s) * h
            value, _ = exp_actions_krylov(basis, [tau], v)[0]
            oracle = scipy.linalg.expm(tau * a) @ v
            worst = max(worst, rel_err(value, oracle))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-8 and elapsed < 30.0
        _report(
            7,
            "block Krylov actions from a single basis",
            ok,
            f"worst relative error {worst:.2e} over 7 node times, {elapsed:.1f}s",
        )


@pytest.mark.slow
class TestCriterion8:
    def test_large_low_rank_trajectory(self):
        started = time.perf_counter()
        problem = problem_from_spec("fdm-sym:k=20", seed=SEED)  # n = 400
        cfg = IntegratorConfig("LrExpEuler", 0.001, 1.0, exp_action="krylov")
        trajectory = integrate(problem, cfg)
        reference = radon_solve(problem, 1.0, cond_max=1e8)
        err = rel_err(trajectory.final_dense(), reference)
        elapsed = time.perf_counter() - started
        ok = err <= 1e-5 and elapsed < 900.0
        _report(
            8,
            "n = 400 low-rank trajectory with Krylov actions",
            ok,
            f"relative error {err:.2e}, rank {trajectory.final.rank}, {elapsed:.0f}s",
        )


class TestCriterion9:
    def test_symmetry_and_psd_monitoring(self, fdm_cases, cross_realization_runs):
        worst_sym = 0.0
        worst_gap = 0.0  # most negative eigenvalue relative to the state norm
        trajectories = [traj for _, traj, _, _ in fdm_cases.values()]
        trajectories += list(cross_realization_runs[1].values())
        for traj in trajectories:
            for diag in traj.diagnostics:
                assert diag.symmetry_error is not None
                assert diag.min_eigenvalue is not None and diag.fnorm is not None
                worst_sym = max(worst_sym, diag.symmetry_error)
                if diag.fnorm > 0:
                    worst_gap = max(worst_gap, -diag.min_eigenvalue / diag.fnorm)
        ok = worst_sym <= 1e-12 and worst_gap <= 1e-9
        _report(
            9,
            "symmetry and positive-semidefiniteness along trajectories",
            ok,
            f"worst symmetry {worst_sym:.2e}, worst eigenvalue dip {worst_gap:.2e}",
        )
