"""Fixed-step exponential time steppers for matrix Riccati flows.

Five realizations of two schemes are provided.  The second-order
exponential Rosenbrock-Euler step

    X_{n+1} = exp(h S_n)(X_n) + h phi_1(h S_n)(Q + X_n G X_n)
            = X_n + h phi_1(h S_n)(F(X_n))

comes as ``GExpEuler`` (augmented block exponential), ``BrExpEuler``
(one Sylvester solve plus one operator exponential) and ``LrExpEuler``
(LDL^T factors with quadrature).  The third-order two-stage scheme
``Erow3`` perturbs the Euler stage by 2h phi_3(h S_n) applied to the
nonlinear-remainder difference and exists densely and in low-rank form.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from math import ulp

import numpy as np
import scipy.sparse

from .densecore import SparsePlusThin, as_matrix, expm_actions, fro, solve_sylvester
from .errors import (
    ConfigurationError,
    DimensionError,
    FiniteEscapeError,
    IntegrationError,
    SolvabilityError,
)
from .krylov import build_basis, exp_actions_krylov
from .lowrank import (
    LdlFactor,
    assemble_phi_sum,
    assemble_remainder_diff,
    assemble_rhs,
    concat_update,
)
from .phifun import PhiCombination, QuadratureRule, eval_backward, eval_forward, phi_action_quadrature
from .sylvop import linearize, phi1_action_augmented, phi_action_augmented

__all__ = [
    "SCHEMES",
    "RiccatiProblem",
    "IntegratorConfig",
    "StepDiagnostics",
    "Trajectory",
    "step_expeuler_general",
    "step_expeuler_backward",
    "step_expeuler_lowrank",
    "step_erow3",
    "step_msde_polynomial",
    "integrate",
]

# Largest M*N for which Erow3Dense takes phi_3 through the augmented block
# exponential of size M + 3N rather than the quadrature rule.  The
# augmented route is exact but costs a dense (M + 3N)^2 exponential: on
# fdm-nonsym:k=10 (M*N = 10000, a 400 x 400 exponential, one BLAS thread)
# it took 27-33 ms per call against 10-15 ms for the 7-node quadrature,
# which there is 12% off an 80-node rule at step 0.
_EROW3_AUGMENTED_LIMIT = 4096

# The low-rank steps apply A_lin = A - (X B) B^T as a SparsePlusThin
# operator (CSR A plus the thin correction) when
# _STRUCTURED_COST_RATIO * (nnz(A) + 2 n p) <= n^2, p the width of B, and
# as a dense n x n matrix otherwise: each sparse product carries a fixed
# overhead that small dense products do not.  Medians over 20
# LrExpEuler/krylov steps of fdm-sym with rank-2 generators, h = 1e-3,
# three seeds, one BLAS thread (dense / structured): n = 64 92 / 136 ms,
# n = 100 122 / 169 ms, n = 144 221 / 221 ms (195 / 216 ms in another
# run), n = 196 422 / 320 ms, n = 256 1008 / 618 ms, n = 400 2672 /
# 1388 ms.  The ratio 20 puts the crossover between n = 144 and 196.
_STRUCTURED_COST_RATIO = 20


def _require_match(actual, expected, claim):
    """Raise unless two matrices agree to 1e-10 relative; ``claim`` says why."""
    if actual.shape != expected.shape:
        raise DimensionError(f"{claim}: shapes {actual.shape} and {expected.shape} differ")
    if fro(actual - expected) > 1e-10 * max(fro(expected), fro(actual), 1.0):
        raise ConfigurationError(claim)


@dataclass
class RiccatiProblem:
    """Coefficients of X' = A X + X D + Q - X G X, X(0) = X0.

    For symmetric problems (D = A^T, with Q, G, X0 symmetric) the
    generators C (Q = C^T C), B (G = B B^T) and L0, D0 (X0 = L0 D0 L0^T)
    may be attached; the low-rank integrators require them.  All shapes
    are validated on construction, as is the consistency of generators
    with the dense coefficients when both are given.
    """

    A: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    G: np.ndarray
    X0: np.ndarray
    C: np.ndarray = None
    B: np.ndarray = None
    L0: np.ndarray = None
    D0: np.ndarray = None
    symmetric: bool = False

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.D = as_matrix(self.D, "D")
        self.Q = as_matrix(self.Q, "Q")
        self.G = as_matrix(self.G, "G")
        self.X0 = as_matrix(self.X0, "X0")
        m = self.A.shape[0]
        n = self.D.shape[0]
        if self.A.shape != (m, m) or self.D.shape != (n, n):
            raise DimensionError("A and D must be square")
        if self.Q.shape != (m, n):
            raise DimensionError(f"Q must be {m} x {n}, got {self.Q.shape}")
        if self.G.shape != (n, m):
            raise DimensionError(f"G must be {n} x {m}, got {self.G.shape}")
        if self.X0.shape != (m, n):
            raise DimensionError(f"X0 must be {m} x {n}, got {self.X0.shape}")
        for name in ("C", "B", "L0", "D0"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, as_matrix(val, name))
        if self.symmetric:
            if m != n:
                raise ConfigurationError("symmetric problems need D = A^T")
            _require_match(self.D, self.A.T, "symmetric problems need D = A^T")
            _require_match(self.Q, self.Q.T, "symmetric problems need symmetric Q")
            _require_match(self.G, self.G.T, "symmetric problems need symmetric G")
            _require_match(self.X0, self.X0.T, "symmetric problems need symmetric X0")
        if self.C is not None:
            _require_match(self.Q, self.C.T @ self.C, "Q must equal C^T C")
        if self.B is not None:
            _require_match(self.G, self.B @ self.B.T, "G must equal B B^T")
        if self.L0 is not None:
            core = self.D0 if self.D0 is not None else np.eye(self.L0.shape[1])
            if core.shape != (self.L0.shape[1],) * 2:
                raise DimensionError(f"D0 is {core.shape}, L0 has {self.L0.shape[1]} columns")
            _require_match(self.X0, self.L0 @ core @ self.L0.T, "X0 must equal L0 D0 L0^T")

    @property
    def M(self):
        return self.A.shape[0]

    @property
    def N(self):
        return self.D.shape[0]

    @cached_property
    def _sparse_coefficient(self):
        """(CSR copy of A, ||A||_1, ||B^T||_1) when the low-rank steps should
        apply A_lin as a SparsePlusThin operator, else None.

        Built on the first low-rank step, not on construction; A and B are
        not expected to change afterwards.
        """
        n, p = self.B.shape
        if _STRUCTURED_COST_RATIO * (np.count_nonzero(self.A) + 2 * n * p) > n * n:
            return None
        return (
            scipy.sparse.csr_array(self.A),
            float(np.linalg.norm(self.A, 1)),
            float(np.linalg.norm(self.B, np.inf)),
        )

    def rhs(self, x):
        """F(X) = A X + X D + Q - X G X."""
        x = as_matrix(x, "state")
        return self.A @ x + x @ self.D + self.Q - x @ (self.G @ x)

    @property
    def has_lowrank_generators(self):
        return self.symmetric and self.C is not None and self.B is not None

    def initial_factor(self):
        """X0 as an LDL^T factor (needs L0; D0 defaults to the identity)."""
        if not self.has_lowrank_generators or self.L0 is None:
            raise ConfigurationError(
                "low-rank integration needs a symmetric problem with C, B and L0"
            )
        core = self.D0 if self.D0 is not None else np.eye(self.L0.shape[1])
        return LdlFactor(self.L0, core)


@dataclass
class IntegratorConfig:
    """Scheme selection and step parameters for :func:`integrate`.

    ``compression_tol`` of None resolves to dim * machine epsilon at use
    time.  ``exp_action`` selects how the low-rank steps take the
    quadrature images exp(tau A_lin) V: "dense" applies A_lin directly
    (chained Taylor steps, or one full exponential per node time when
    max|tau| ||A_lin||_1 > 16); "krylov" projects onto a block Krylov
    basis of ``krylov_m`` blocks, except when ``krylov_m`` times the block
    width reaches the dimension, where such a basis would span the whole
    space and the exact action of the "dense" route is taken instead.
    The step grid must hit ``t_end`` exactly: t_end / h has to be an
    integer to within half an ulp.
    """

    scheme: str
    h: float
    t_end: float
    rule: QuadratureRule = None
    compression_tol: float = None
    krylov_m: int = 30
    exp_action: str = "dense"
    store_every: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; valid: {', '.join(SCHEMES)}"
            )
        if not self.h > 0:
            raise ConfigurationError("step size must be positive")
        if self.t_end < 0:
            raise ConfigurationError("final time must be nonnegative")
        if self.exp_action not in ("dense", "krylov"):
            raise ConfigurationError("exp_action must be 'dense' or 'krylov'")
        if self.store_every < 1:
            raise ConfigurationError("store_every must be >= 1")
        if self.rule is None:
            self.rule = QuadratureRule.gauss_legendre(7)
        quotient = self.t_end / self.h
        if abs(quotient - round(quotient)) > 0.5 * ulp(max(quotient, 1.0)):
            raise ConfigurationError(
                f"t_end/h = {quotient!r} is not an integer step count"
            )

    @property
    def step_count(self):
        return int(round(self.t_end / self.h))

    def resolve_tol(self, dim):
        if self.compression_tol is not None:
            return self.compression_tol
        return dim * np.finfo(float).eps


@dataclass
class StepDiagnostics:
    """Per-step bookkeeping: cost, factor rank and symmetry/PSD monitors.

    ``krylov_basis_cols`` lists, for each exponential-action call of a
    step with ``exp_action="krylov"``, the column count of the block
    Krylov basis it built, or 0 where it took the exact full-space action
    without a basis; ``krylov_residual`` is the largest residual estimate
    of those calls (0.0 for full-space actions).
    """

    step: int
    t: float
    wall_time: float
    rank: int = None
    dropped: int = None
    fnorm: float = None
    min_eigenvalue: float = None
    symmetry_error: float = None
    krylov_residual: float = None
    krylov_basis_cols: tuple = None


@dataclass
class Trajectory:
    """Snapshots (dense arrays or LDL^T factors) along the step grid."""

    times: np.ndarray
    states: list
    diagnostics: list
    scheme: str

    @property
    def final(self):
        return self.states[-1]

    def final_dense(self):
        return self.dense_state(-1)

    def dense_state(self, index):
        state = self.states[index]
        return state.reconstruct() if isinstance(state, LdlFactor) else state


def step_expeuler_general(problem, x, h, cfg=None, details=None):
    """Rosenbrock-Euler step through the augmented block exponential."""
    lin = linearize(problem, x)
    return phi1_action_augmented(lin.operator, h, lin.remainder, x)


def step_expeuler_backward(problem, x, h, cfg=None, details=None):
    """Rosenbrock-Euler step via one Sylvester solve.

    Solves S_n(W) = F(X_n) and returns exp(h S_n)(W) + X_n - W.  Raises
    SolvabilityError when the linearized operator is near singular; the
    caller may fall back to the general realization.
    """
    lin = linearize(problem, x)
    w = solve_sylvester(lin.A, lin.D, problem.rhs(x))
    return lin.operator.exp_action(h, w) + x - w


def _linearized_coefficient(problem, state):
    """A - X G for a factored symmetric state, using the thin generator of G.

    A SparsePlusThin operator A - (X B) B^T where the problem's A is
    sparse enough for that to pay off (``_STRUCTURED_COST_RATIO``), else
    the dense matrix.
    """
    xb = state.L @ (state.core @ (state.L.T @ problem.B))
    sparse = problem._sparse_coefficient
    if sparse is None:
        return problem.A - xb @ problem.B.T
    a_csr, a_norm1, bt_norm1 = sparse
    return SparsePlusThin(
        a_csr, xb, problem.B.T, a_norm1 + float(np.linalg.norm(xb, 1)) * bt_norm1
    )


def _make_exp_actions(a_lin, cfg, details):
    """Provider mapping (taus, block) -> exponential images of the block."""
    if cfg.exp_action == "krylov":

        def actions(taus, block):
            n, width = block.shape
            if cfg.krylov_m * width >= n:
                # The basis would span the whole space: act exactly instead.
                cols = 0
                pairs = [(value, 0.0) for value in expm_actions(a_lin, taus, block)]
            else:
                dense = a_lin.toarray() if isinstance(a_lin, SparsePlusThin) else a_lin
                basis = build_basis(dense, block, cfg.krylov_m)
                cols = basis.size
                pairs = exp_actions_krylov(basis, taus, block)
            worst = max((est for _, est in pairs), default=0.0)
            if details is not None:
                details["krylov_residual"] = max(
                    details.get("krylov_residual", 0.0), worst
                )
                details["krylov_basis_cols"] = details.get("krylov_basis_cols", ()) + (cols,)
            return [value for value, _ in pairs]

        return actions

    def actions(taus, block):
        return expm_actions(a_lin, taus, block)

    return actions


def _factored_phi_update(problem, state, h, cfg, details):
    """update(base, operand, k, coeff) = base + coeff phi_k(h S_n)(operand)
    in LDL^T form, S_n linearized once at ``state`` for every update.

    Compresses the operand, stacks its quadrature-node images, concatenates
    them onto ``base``, recompresses and adds the dropped columns to
    ``details["dropped"]``.
    """
    tol = cfg.resolve_tol(state.dim)
    actions = _make_exp_actions(_linearized_coefficient(problem, state), cfg, details)

    def update(base, operand, k, coeff):
        phi_sum = assemble_phi_sum(actions, h, k, operand.compressed(tol), cfg.rule, coeff=coeff)
        out = concat_update(base, phi_sum, tol)
        if details is not None:
            details["dropped"] = details.get("dropped", 0) + base.rank + phi_sum.rank - out.rank
        return out

    return update


def step_expeuler_lowrank(problem, state, h, cfg, details=None):
    """Low-rank Rosenbrock-Euler step on LDL^T factors.

    Assembles the factored right-hand side and adds h phi_1(h S_n) of it
    to the state through the factored phi-update.
    """
    update = _factored_phi_update(problem, state, h, cfg, details)
    return update(state, assemble_rhs(problem, state), 1, h)


def step_erow3(problem, x, h, cfg, details=None):
    """Third-order step: Euler stage plus the phi_3 remainder correction.

    Dispatches on the state kind.  Densely the correction is exact through
    the augmented block exponential up to M*N = 4096 and a quadrature
    beyond (``cfg.rule``); in low-rank form both the stage and the
    correction of the factored remainder difference go through one
    factored phi-update, linearized once.
    """
    if isinstance(x, LdlFactor):
        update = _factored_phi_update(problem, x, h, cfg, details)
        stage = update(x, assemble_rhs(problem, x), 1, h)
        return update(stage, assemble_remainder_diff(problem, x, stage), 3, 2.0 * h)

    lin = linearize(problem, x)
    stage = phi1_action_augmented(lin.operator, h, lin.remainder, x)
    xg = x @ problem.G
    sg = stage @ problem.G
    diff = xg @ stage + sg @ x - sg @ stage - xg @ x
    if problem.M * problem.N <= _EROW3_AUGMENTED_LIMIT:
        correction = phi_action_augmented(lin.operator, h, 3, diff)
    else:
        correction = phi_action_quadrature(3, lin.operator, h, diff, cfg.rule)
    return stage + 2.0 * h * correction


def step_msde_polynomial(operator, coeffs, t, recursion="forward"):
    """Exact flow of X' = S(X) + Q(t) for a polynomial inhomogeneity.

    ``coeffs`` is (X_initial, N_1, ..., N_m) where
    Q(t) = sum_{j>=1} t^(j-1)/(j-1)! N_j, i.e. N_{j+1} is the j-th
    derivative of Q at zero.  The value at ``t`` is
    exp(tS)(X_initial) + sum_j t^j phi_j(tS)(N_j), assembled through the
    forward (default) or backward phi recursion.
    """
    coeffs = list(coeffs)
    scaled = [coeffs[0]] + [t ** j * np.asarray(nj, dtype=float) for j, nj in enumerate(coeffs[1:], start=1)]
    comb = PhiCombination(tuple(scaled), operator, t)
    if recursion == "forward":
        return eval_forward(comb)
    if recursion == "backward":
        return eval_backward(comb)
    raise ConfigurationError(f"unknown recursion {recursion!r}")


# Scheme name -> (stepper, whether the state is an LDL^T factor).  Every
# stepper takes (problem, state, h, cfg, details); the dense Euler steps
# ignore the last two.
_SCHEME_STEPS = {
    "GExpEuler": (step_expeuler_general, False),
    "BrExpEuler": (step_expeuler_backward, False),
    "LrExpEuler": (step_expeuler_lowrank, True),
    "Erow3Dense": (step_erow3, False),
    "Erow3LowRank": (step_erow3, True),
}
SCHEMES = tuple(_SCHEME_STEPS)


def _monitor(state, diag):
    if isinstance(state, LdlFactor):
        diag.rank = state.rank
        diag.fnorm = state.fnorm()
        diag.symmetry_error = 0.0
        diag.min_eigenvalue = state.min_eigenvalue()
    else:
        diag.fnorm = fro(state)
        diag.symmetry_error = fro(state - state.T) / max(diag.fnorm, 1e-300)
        sym = (state + state.T) / 2.0
        diag.min_eigenvalue = float(np.linalg.eigvalsh(sym).min())


def integrate(problem, cfg):
    """Fixed-step trajectory of the configured scheme.

    Snapshots are stored every ``cfg.store_every`` steps (the initial and
    final states always included); diagnostics are recorded for every
    step.  A failing step raises IntegrationError carrying the partial
    trajectory and the zero-based index of the step that failed.
    """
    stepper, factored = _SCHEME_STEPS[cfg.scheme]
    state = problem.initial_factor() if factored else problem.X0.copy()

    steps = cfg.step_count
    times = [0.0]
    states = [state]
    diagnostics = []

    for i in range(steps):
        t_next = (i + 1) * cfg.h if i + 1 < steps else cfg.t_end
        details = {}
        started = time.perf_counter()
        try:
            state = stepper(problem, state, cfg.h, cfg, details)
            bad = (
                not np.all(np.isfinite(state.L)) or not np.all(np.isfinite(state.core))
                if isinstance(state, LdlFactor)
                else not np.all(np.isfinite(state))
            )
            if bad:
                raise FiniteEscapeError("state became non-finite")
        except (SolvabilityError, FiniteEscapeError, np.linalg.LinAlgError) as exc:
            partial = Trajectory(
                times=np.array(times), states=states, diagnostics=diagnostics,
                scheme=cfg.scheme,
            )
            raise IntegrationError(
                f"step {i} (t = {t_next - cfg.h:g} -> {t_next:g}) failed: {exc}",
                step_index=i,
                trajectory=partial,
            ) from exc
        elapsed = time.perf_counter() - started

        diag = StepDiagnostics(
            step=i,
            t=t_next,
            wall_time=elapsed,
            rank=state.rank if isinstance(state, LdlFactor) else None,
            dropped=details.get("dropped"),
            krylov_residual=details.get("krylov_residual"),
            krylov_basis_cols=details.get("krylov_basis_cols"),
        )
        if problem.symmetric:
            _monitor(state, diag)
        diagnostics.append(diag)

        if (i + 1) % cfg.store_every == 0 or i + 1 == steps:
            times.append(t_next)
            states.append(state)

    return Trajectory(
        times=np.array(times), states=states, diagnostics=diagnostics, scheme=cfg.scheme
    )
