"""Fixed-step exponential time steppers for matrix Riccati flows.

Five realizations of two schemes are provided.  The second-order
exponential Rosenbrock-Euler step

    X_{n+1} = exp(h S_n)(X_n) + h phi_1(h S_n)(Q + X_n G X_n)
            = X_n + h phi_1(h S_n)(F(X_n))

comes as ``GExpEuler`` (the first form, with the phi_1 integral from a
Taylor series of S_n at a halved step and M- and N-sized exponentials),
``BrExpEuler`` (one Sylvester solve plus one operator exponential) and
``LrExpEuler`` (LDL^T factors with quadrature).  The third-order
two-stage scheme ``Erow3`` perturbs the Euler stage by 2h phi_3(h S_n)
applied to the nonlinear-remainder difference and exists densely and in
low-rank form.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from math import inf, sqrt, ulp
from numbers import Integral

import numpy as np
import scipy.sparse

from .densecore import SparsePlusThin, as_matrix, expm_actions, fro, solve_sylvester, sparse_shift
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FiniteEscapeError,
    IntegrationError,
    SolvabilityError,
)
from .krylov import _basis_pays, build_basis, exp_actions_krylov
from .lowrank import (
    LdlFactor,
    _operand_floor,
    assemble_phi_sum,
    assemble_remainder_diff,
    assemble_rhs,
    concat_update,
)
# The kernel keeps its name: ``perfbench/tracing.py`` hooks it here.
from .sylvop import (
    _reused_or_new,
    linearize,
    phi1_action_augmented,
    phi_action_augmented,
    phi_action_quadrature,
)

__all__ = [
    "SCHEMES",
    "RiccatiProblem",
    "QuadratureRule",
    "IntegratorConfig",
    "StepDiagnostics",
    "Trajectory",
    "step_expeuler_general",
    "step_expeuler_backward",
    "step_expeuler_lowrank",
    "step_erow3",
    "integrate",
]

# Largest M*N for which Erow3Dense takes phi_3 through the augmented block
# exponential of size M + 3N rather than the quadrature rule.  The
# augmented route is exact but costs a dense (M + 3N)^2 exponential: on
# fdm-nonsym:k=10 (M*N = 10000, a 400 x 400 exponential, one BLAS thread)
# it took 27-29 ms per call against 1.5-1.6 ms for the 7-node quadrature
# on the rank-2 factor pair of the operand (one Taylor chain on [L, R],
# D = A^T), which there is 12% off an 80-node rule at step 0.
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

# Routes of the low-rank steps' exponential actions (IntegratorConfig.exp_action).
EXP_ACTIONS = ("dense", "krylov")


def _require_match(actual, expected, claim):
    """Raise unless two matrices agree to 1e-10 relative; ``claim`` says why."""
    if actual.shape != expected.shape:
        raise DimensionError(f"{claim}: shapes {actual.shape} and {expected.shape} differ")
    if fro(actual - expected) > 1e-10 * max(fro(expected), fro(actual), 1.0):
        raise ConfigurationError(claim)


# Coefficient -> (its generator, the rule that builds it, the rule's form,
# the factors of the rule's product: (L, R) for L R^T, (L,) for L L^T).
# D = A^T holds for symmetric problems only, the others wherever the
# generator is attached.
_COEFFICIENT_RULES = {
    "D": ("A", lambda p: p.A.T, "A^T", None),
    "Q": ("C", lambda p: p.C.T @ p.C, "C^T C", lambda p: (p.C.T,)),
    "G": ("B", lambda p: p.B @ p.B.T, "B B^T", lambda p: (p.B,)),
    "X0": ("L0", lambda p: p.L0 @ p.D0 @ p.L0.T, "L0 D0 L0^T", lambda p: (p.L0 @ p.D0, p.L0)),
}

# A product whose entries are bounded by this is built on first read:
# half the largest float leaves room for the rounding of the bound and of
# the product's sums.
_SAFE_ENTRY_BOUND = np.finfo(float).max / 2.0


def _entry_bound(factors):
    """Bound on every |entry| of the product of ``factors`` (see
    ``_COEFFICIENT_RULES``): by Cauchy-Schwarz the largest row norm of L
    times that of R.  inf where a squared row norm overflows."""
    with np.errstate(over="ignore"):
        norms = [sqrt(float(np.einsum("ij,ij->i", f, f).max(initial=0.0))) for f in factors]
    return norms[0] * norms[-1]


class _BuiltOnFirstRead:
    """A coefficient a symmetric problem builds from its generator when it
    is first read, by the rule of ``_COEFFICIENT_RULES``, and caches.

    A non-data descriptor: ``__post_init__`` leaves the instance
    attribute of a deferred coefficient unset, so its first read lands
    here and stores the result on the problem, where later reads find it.
    Read on the class it is None, the dataclass default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, problem, owner=None):
        if problem is None:
            return None
        value = as_matrix(_COEFFICIENT_RULES[self.name][1](problem), self.name)
        vars(problem)[self.name] = value
        return value


@dataclass
class RiccatiProblem:
    """Coefficients of X' = A X + X D + Q - X G X, X(0) = X0.

    For symmetric problems (D = A^T, with Q, G, X0 symmetric) the
    generators C (Q = C^T C), B (G = B B^T) and L0, D0 (X0 = L0 D0 L0^T,
    D0 defaulting to the identity) may be attached; the low-rank
    integrators require them.  A symmetric problem builds each of D, Q, G
    and X0 that is left out from its generator when it is first read, and
    keeps it, so the low-rank integrators, which read only the
    generators, never form the dense n x n products.  Their finiteness is
    checked on construction from the generators' row norms (by
    Cauchy-Schwarz); a product whose bound reaches the overflow range is
    formed at once and rejected if it is not finite.  A non-symmetric
    problem needs all four.  What is given is validated on construction:
    shapes, symmetry (of D0 too, whose symmetric part a symmetric problem
    keeps), and the consistency of each given coefficient with its
    generator.
    """

    A: np.ndarray
    D: np.ndarray = _BuiltOnFirstRead()
    Q: np.ndarray = _BuiltOnFirstRead()
    G: np.ndarray = _BuiltOnFirstRead()
    X0: np.ndarray = _BuiltOnFirstRead()
    C: np.ndarray = None
    B: np.ndarray = None
    L0: np.ndarray = None
    D0: np.ndarray = None
    symmetric: bool = False

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        for name in (*_COEFFICIENT_RULES, "C", "B", "L0", "D0"):
            if getattr(self, name) is not None:
                setattr(self, name, as_matrix(getattr(self, name), name))
        m = self.A.shape[0]
        n = m if self.D is None else self.D.shape[0]
        r = None if self.L0 is None else self.L0.shape[1]
        # Expected shapes; None leaves a dimension free.
        shapes = {"A": (m, m), "D": (n, n), "Q": (m, n), "G": (n, m), "X0": (m, n),
                  "C": (None, m), "B": (m, None), "L0": (m, None), "D0": (r, r)}
        for name, shape in shapes.items():
            value = getattr(self, name)
            if value is not None and any(s not in (None, v) for s, v in zip(shape, value.shape)):
                raise DimensionError(f"{name} has shape {value.shape}, expected {shape}")
        if self.symmetric and m != n:
            raise ConfigurationError("symmetric problems need D = A^T")
        if self.L0 is not None:
            if self.D0 is None:
                self.D0 = np.eye(r)
            elif self.symmetric:
                _require_match(self.D0, self.D0.T, "symmetric problems need symmetric D0")
                # Keep the symmetric part, so that the factor's stricter check
                # accepts what passed here.
                if not np.array_equal(self.D0, self.D0.T):
                    self.D0 = (self.D0 + self.D0.T) / 2.0
        for name, (generator, rule, form, factors) in _COEFFICIENT_RULES.items():
            value = getattr(self, name)
            applies = getattr(self, generator) is not None and (self.symmetric or name != "D")
            if value is not None:
                if self.symmetric and name != "D":
                    _require_match(value, value.T, f"symmetric problems need symmetric {name}")
                if applies:
                    _require_match(value, rule(self), f"{name} must equal {form}")
            elif self.symmetric and applies:
                if factors is None or _entry_bound(factors(self)) <= _SAFE_ENTRY_BOUND:
                    delattr(self, name)  # built on first read
                else:
                    # Finite generators can still overflow in the product.
                    setattr(self, name, as_matrix(rule(self), name))
            else:
                raise ConfigurationError(
                    f"{name} is missing; only a symmetric problem builds it from {generator}"
                )

    @property
    def M(self):
        return self.A.shape[0]

    @property
    def N(self):
        return self.M if self.symmetric else self.D.shape[0]

    @cached_property
    def _sparse_coefficient(self):
        """(CSR copy of A, ``sparse_shift`` of A) when the low-rank steps
        should apply A_lin as a SparsePlusThin operator, else None.

        Built on the first low-rank step, not on construction; A and B are
        not expected to change afterwards.
        """
        n, p = self.B.shape
        if _STRUCTURED_COST_RATIO * (np.count_nonzero(self.A) + 2 * n * p) > n * n:
            return None
        a_csr = scipy.sparse.csr_array(self.A)
        return a_csr, sparse_shift(a_csr)

    def rhs(self, x):
        """F(X) = A X + X D + Q - X G X."""
        x = as_matrix(x, "state")
        return self.A @ x + x @ self.D + self.Q - x @ (self.G @ x)

    @property
    def has_lowrank_generators(self):
        return self.symmetric and self.C is not None and self.B is not None

    def initial_factor(self):
        """X0 as the LDL^T factor L0 D0 L0^T (needs L0)."""
        if not self.has_lowrank_generators or self.L0 is None:
            raise ConfigurationError(
                "low-rank integration needs a symmetric problem with C, B and L0"
            )
        return LdlFactor(self.L0, self.D0)


# Node count of the default Gauss-Legendre rule of the quadrature path.
GAUSS_NODES = 7


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes in [0, 1] with weights that sum to one (exact for constants)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DimensionError("nodes and weights must be 1-D of equal length")
        if nodes.size == 0:
            raise DomainError("rule needs at least one node")
        # Negated comparisons, so NaN nodes or weights fail them too.
        if not (nodes.min() >= 0.0 and nodes.max() <= 1.0):
            raise DomainError("nodes must lie in [0, 1]")
        if not abs(weights.sum() - 1.0) <= 1e-14:
            raise DomainError(f"weights sum to {weights.sum()!r}, expected 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.nodes.size

    @classmethod
    def gauss_legendre(cls, count=GAUSS_NODES):
        """Gauss-Legendre rule mapped from [-1, 1] to [0, 1]."""
        if not (isinstance(count, Integral) and count >= 1):
            raise DomainError(f"node count must be a positive integer, got {count!r}")
        x, w = np.polynomial.legendre.leggauss(count)
        return cls(0.5 * (x + 1.0), 0.5 * w)


@dataclass
class IntegratorConfig:
    """Scheme selection and step parameters for :func:`integrate`.

    ``compression_tol`` of None resolves to dim * machine epsilon at use
    time.  It is the relative tolerance of every compression of the
    low-rank steps, and it also sets the absolute budget of each phi
    update's operand: modes whose tail would move the update by at most
    0.1 tol ||base||_F are dropped before the exponential actions (see
    ``_factored_phi_update``); Erow3Dense skips a phi_3 correction whose
    operand lies within the same budget (see ``step_erow3``).
    ``exp_action`` selects how the low-rank steps take the quadrature
    images exp(tau A_lin) V: "dense" applies A_lin directly (one shifted
    truncated Taylor series per scaling interval for all node times; one
    full exponential per node time where that chain would cost more, see
    ``densecore.expm_actions``; on a step that reused its linearized
    operator, one stacked product with exp(tau A_lin) at the node times,
    taken once, see ``_make_exp_actions``);
    "krylov" projects onto a block Krylov basis of ``krylov_m`` blocks,
    built on A_lin in the same form, where that basis and its projected
    actions cost less than the exact action of the "dense" route, in the
    flop model of ``expm_actions`` (see ``krylov._basis_pays``); the exact
    action is taken instead elsewhere, and always when ``krylov_m`` times
    the block width reaches the dimension, where the basis would span the
    whole space.
    The step grid must hit ``t_end`` exactly: t_end / h has to be an
    integer to within one ulp.
    """

    scheme: str
    h: float
    t_end: float
    rule: QuadratureRule = None
    compression_tol: float = None
    krylov_m: int = 30
    exp_action: str = "dense"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; valid: {', '.join(SCHEMES)}"
            )
        if not 0 < self.h < inf:
            raise ConfigurationError("step size must be positive and finite")
        if not 0 <= self.t_end < inf:
            raise ConfigurationError("final time must be nonnegative and finite")
        if self.compression_tol is not None and not 0 <= self.compression_tol < inf:
            raise ConfigurationError("compression tolerance must be nonnegative and finite")
        # An integer type first: NaN or 2.5 would pass a bare comparison.
        if not (isinstance(self.krylov_m, Integral) and self.krylov_m >= 1):
            raise ConfigurationError(f"krylov_m must be an integer >= 1, got {self.krylov_m!r}")
        if self.exp_action not in EXP_ACTIONS:
            raise ConfigurationError("exp_action must be 'dense' or 'krylov'")
        if self.rule is None:
            self.rule = QuadratureRule.gauss_legendre()
        quotient = self.t_end / self.h
        # One ulp: a decimal grid such as h = 0.1, t_end = 0.3 divides to
        # 2.9999999999999996.
        if abs(quotient - round(quotient)) > ulp(max(quotient, 1.0)):
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
    Krylov basis it built, or 0 where it took the exact action without a
    basis: because the basis would cost more (chosen by cost), or because
    ``krylov_m`` blocks would span the whole space (chosen by full span);
    ``krylov_residual`` is the largest residual estimate of those calls
    (0.0 for exact actions); a Krylov step whose operands were all
    dropped records () and 0.0.  ``cols_in`` counts the
    columns (base plus quadrature stack) that entered a low-rank step's
    recompressions, summed over its updates; ``dropped`` of them did not
    survive, so ``cols_in - dropped`` is the summed width of the results.
    An update whose operand fell below its budget adds only the base's
    columns to ``cols_in`` and none to ``dropped``.  ``operands_dropped``
    counts the step's phi updates whose operand fell wholly within that
    budget and took no exponential action: set by LrExpEuler and both
    Erow3 realizations (Erow3Dense counts a skipped phi_3 correction, so
    the two can be compared step by step), None for the dense Euler steps.
    ``operator_reused`` is True when a step reused the linearized
    operator of an earlier step, because its own lay within unit roundoff
    of it (see ``sylvop.linearize``): a dense step with its
    factorizations, a low-rank step with its exponentials at the node
    times.  It is False when the step linearized afresh, and None on a
    low-rank step whose A_lin is a SparsePlusThin, which is never reused.
    """

    step: int
    t: float
    wall_time: float = None
    rank: int = None
    cols_in: int = None
    dropped: int = None
    operands_dropped: int = None
    fnorm: float = None
    min_eigenvalue: float = None
    symmetry_error: float = None
    krylov_residual: float = None
    krylov_basis_cols: tuple = None
    operator_reused: bool = None


@dataclass
class Trajectory:
    """States (dense arrays or LDL^T factors) at every point of the step grid."""

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


def _linearize(problem, state, diag, memo):
    """(operator, remainder) of the step at ``state``.

    A dense state goes through ``linearize`` (remainder Q + XGX).  A
    factored state gets A_lin = A - (X B) B^T and no remainder: a
    SparsePlusThin where A is sparse enough (``_STRUCTURED_COST_RATIO``),
    else the transposed SylvesterOperator(A_lin, A_lin^T).  Every
    SylvesterOperator is the one the run linearized last, kept in
    ``memo`` (a dict of one :func:`integrate` call), while the new
    coefficients lie within unit roundoff of it; ``diag`` records whether
    it was reused, None for a SparsePlusThin, which is never kept.
    """
    previous = None if memo is None else memo.get("operator")
    if isinstance(state, LdlFactor):
        xb = state.apply(problem.B)
        sparse = problem._sparse_coefficient
        if sparse is not None:
            a_csr, shift = sparse
            return SparsePlusThin(a_csr, xb, problem.B.T, shift), None
        a_lin = problem.A - xb @ problem.B.T
        operator, remainder = _reused_or_new(a_lin, a_lin.T, previous), None
    else:
        operator, remainder = linearize(problem, state, previous)
    if memo is not None:
        memo["operator"] = operator
    if diag is not None:
        diag.operator_reused = operator is previous
    return operator, remainder


def step_expeuler_general(problem, state, h, cfg, diag, memo=None):
    """Rosenbrock-Euler step exp(hS)(X) + h phi_1(hS)(Q + XGX), dense."""
    operator, remainder = _linearize(problem, state, diag, memo)
    return phi1_action_augmented(operator, h, remainder, state)


def step_expeuler_backward(problem, state, h, cfg, diag, memo=None):
    """Rosenbrock-Euler step via one Sylvester solve.

    Solves S_n(W) = F(X_n) and returns exp(h S_n)(W) + X_n - W.  Raises
    SolvabilityError when the linearized operator is near singular, which
    :func:`integrate` reports as an IntegrationError with the step index.
    """
    operator, _ = _linearize(problem, state, diag, memo)
    w = solve_sylvester(operator.A, operator.D, problem.rhs(state), operator.memo)
    return operator.exp_action(h, w) + state - w


def _make_exp_actions(coefficient, cfg, diag):
    """Provider mapping (taus, block) -> exponential images of the block.

    ``coefficient`` is a factored state's A_lin from ``_linearize``.  The
    exact action goes through ``expm_actions``, except on a step that
    reused its SylvesterOperator: there it is one stacked product with
    exp(tau A_lin) at the node times, built on the identity at the first
    such step and kept in the operator's memo.  The Krylov route decides
    on a basis as before and takes the same exact action where it builds
    none; it starts the step's Krylov fields at () and 0.0, so a step
    whose updates were all dropped records no call rather than None.
    """
    a_lin = coefficient if isinstance(coefficient, SparsePlusThin) else coefficient.A

    def exact(taus, block):
        if not diag.operator_reused:
            return expm_actions(a_lin, taus, block)
        stacked = coefficient._memoized(
            "nodes", tuple(taus), lambda: np.vstack(expm_actions(a_lin, taus, np.eye(len(a_lin))))
        )
        return list((stacked @ block).reshape(len(taus), *block.shape))

    if cfg.exp_action == "dense":
        return exact
    diag.krylov_basis_cols, diag.krylov_residual = (), 0.0

    def actions(taus, block):
        n, width = block.shape
        if cfg.krylov_m * width >= n or not _basis_pays(a_lin, block, cfg.krylov_m, taus):
            # The basis would span the whole space, or cost more than the
            # exact action: act exactly instead.
            cols, worst = 0, 0.0
            values = exact(taus, block)
        else:
            basis = build_basis(a_lin, block, cfg.krylov_m)
            pairs = exp_actions_krylov(basis, taus, block)
            cols, worst = basis.size, max((est for _, est in pairs), default=0.0)
            values = [value for value, _ in pairs]
        diag.krylov_residual = max(diag.krylov_residual, worst)
        diag.krylov_basis_cols += (cols,)
        return values

    return actions


def _factored_phi_update(problem, state, h, cfg, diag, memo=None):
    """update(base, operand, k, coeff) = base + coeff phi_k(h S_n)(operand)
    in LDL^T form, S_n linearized once at ``state`` for every update
    (``_linearize``, with the run's ``memo``).

    Compresses the operand at ``tol`` relative to its own norm and down to
    the absolute floor share tol ||base||_F k! / |coeff|
    (``lowrank._operand_floor``), stacks the quadrature-node images of the
    rest, concatenates them onto ``base`` and recompresses at ``tol``.  The
    operand budget is not charged against the recompression's tolerance:
    an update may move by share tol ||base||_F beyond the recompression's
    tol ||result||_F.  The columns that entered the concatenation add to
    ``diag.cols_in``, those the recompression dropped to ``diag.dropped``;
    an update whose operand is dropped whole adds only the base's columns
    to ``cols_in``, none to ``dropped`` and one to
    ``diag.operands_dropped``.
    """
    tol = cfg.resolve_tol(state.dim)
    actions = _make_exp_actions(_linearize(problem, state, diag, memo)[0], cfg, diag)
    diag.operands_dropped = 0

    def update(base, operand, k, coeff):
        operand = operand.compressed(tol, _operand_floor(base.fnorm(), k, coeff, tol))
        diag.operands_dropped += operand.rank == 0
        phi_sum = assemble_phi_sum(actions, h, k, operand, cfg.rule, coeff=coeff)
        out = concat_update(base, phi_sum, tol)
        cols_in = base.rank + phi_sum.rank
        diag.cols_in = (diag.cols_in or 0) + cols_in
        diag.dropped = (diag.dropped or 0) + cols_in - out.rank
        return out

    return update


def step_expeuler_lowrank(problem, state, h, cfg, diag, memo=None):
    """Low-rank Rosenbrock-Euler step on LDL^T factors.

    Assembles the factored right-hand side and adds h phi_1(h S_n) of it
    to the state through the factored phi-update.
    """
    update = _factored_phi_update(problem, state, h, cfg, diag, memo)
    return update(state, assemble_rhs(problem, state), 1, h)


def step_erow3(problem, state, h, cfg, diag, memo=None):
    """Third-order step: Euler stage plus the phi_3 remainder correction.

    Dispatches on the state kind.  Densely the operand -(X - U) G (X - U),
    U the stage, is taken as the factor pair (W_L, W_R):
    (-(X - U) B, (X - U)^T B) of width p where the problem has B, else
    (-(X - U) G, (X - U)^T) of width M.  The correction shares the budget
    of the low-rank updates (``lowrank._operand_floor``, k = 3, coeff 2h,
    base U): where ||W_L W_R^T||_F, exact from the Gram products as
    sqrt(sum (W_L^T W_L) * (W_R^T W_R)), lies within it, U is returned
    without a phi_3 evaluation.  Otherwise the correction is exact
    through the augmented block exponential up to M*N = 4096 and a
    quadrature beyond (``cfg.rule``) on the pair.  In low-rank form both
    the stage and the correction of the factored remainder difference go
    through one factored phi-update, linearized once.
    """
    if isinstance(state, LdlFactor):
        update = _factored_phi_update(problem, state, h, cfg, diag, memo)
        stage = update(state, assemble_rhs(problem, state), 1, h)
        return update(stage, assemble_remainder_diff(problem, state, stage), 3, 2.0 * h)

    operator, remainder = _linearize(problem, state, diag, memo)
    stage = phi1_action_augmented(operator, h, remainder, state)
    # X G U + U G X - U G U - X G X = -(X - U) G (X - U), U the stage;
    # G = B B^T makes it -W_L W_R^T, W_L = (X - U) B, W_R = (X - U)^T B.
    e = state - stage
    if problem.B is None:
        left, right = -(e @ problem.G), e.T
    else:
        left, right = -(e @ problem.B), e.T @ problem.B
    norm = np.sqrt(max(float(np.sum((left.T @ left) * (right.T @ right))), 0.0))
    skip = norm <= _operand_floor(fro(stage), 3, 2.0 * h, cfg.resolve_tol(max(state.shape)))
    if diag is not None:
        diag.operands_dropped = int(skip)
    if skip:
        return stage
    if problem.M * problem.N <= _EROW3_AUGMENTED_LIMIT:
        correction = phi_action_augmented(operator, h, 3, left @ right.T)
    else:
        correction = phi_action_quadrature(3, operator, h, (left, right), cfg.rule)
    return stage + 2.0 * h * correction


# Scheme name -> (stepper, whether the state is an LDL^T factor).  Every
# stepper takes (problem, state, h, cfg, diag, memo), fills the fields of
# the StepDiagnostics ``diag`` its route records and keeps its linearized
# operator in ``memo``, a dict of one integrate call (``_linearize``; a
# SparsePlusThin A_lin is not kept); the dense Euler steps ignore cfg.
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

    The trajectory holds the state at every grid point, the initial one
    included, and the diagnostics of every step.  A failing step raises
    IntegrationError carrying the partial trajectory and the zero-based
    index of the step that failed.  Step operands are built from
    validated input, so a DomainError inside a step means a value became
    non-finite; it fails the step too.  Every scheme reuses the
    linearized operator of an earlier step of this call while the new one
    lies within unit roundoff of it (``_linearize``): a dense scheme with
    its factorizations, a low-rank one on a dense A_lin with its
    exponentials at the node times.  Nothing is kept across calls.
    """
    stepper, factored = _SCHEME_STEPS[cfg.scheme]
    state = problem.initial_factor() if factored else problem.X0.copy()
    memo = {}

    steps = cfg.step_count
    times = [0.0]
    states = [state]
    diagnostics = []

    for i in range(steps):
        t_next = (i + 1) * cfg.h if i + 1 < steps else cfg.t_end
        diag = StepDiagnostics(step=i, t=t_next)
        started = time.perf_counter()
        try:
            state = stepper(problem, state, cfg.h, cfg, diag, memo)
            finite = (
                state.is_finite() if isinstance(state, LdlFactor) else np.all(np.isfinite(state))
            )
            if not finite:
                raise FiniteEscapeError("state became non-finite")
        except (SolvabilityError, FiniteEscapeError, DomainError, np.linalg.LinAlgError) as exc:
            partial = Trajectory(
                times=np.array(times), states=states, diagnostics=diagnostics,
                scheme=cfg.scheme,
            )
            raise IntegrationError(
                f"step {i} (t = {t_next - cfg.h:g} -> {t_next:g}) failed: {exc}",
                step_index=i,
                trajectory=partial,
            ) from exc
        diag.wall_time = time.perf_counter() - started
        diag.rank = state.rank if isinstance(state, LdlFactor) else None
        if problem.symmetric:
            _monitor(state, diag)
        diagnostics.append(diag)
        times.append(t_next)
        states.append(state)

    return Trajectory(
        times=np.array(times), states=states, diagnostics=diagnostics, scheme=cfg.scheme
    )
