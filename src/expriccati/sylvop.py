"""The Sylvester operator X -> AX + XD and its exponential-type actions.

The exponential of the operator factorizes into two ordinary matrix
exponentials, exp(tS)(X) = exp(tA) X exp(tD), which is what makes
exponential integrators for matrix-valued stiff problems practical: no
vectorized MN x MN exponential is ever needed.

The phi functions are phi_0(z) = exp(z) and, for j >= 1,

    phi_j(z) = int_0^1 exp((1-t) z) t^(j-1) / (j-1)! dt,

with phi_{j+1}(z) = (phi_j(z) - 1/j!) / z and phi_j(0) = 1/j!.  The
affine Euler update takes h phi_1(hS)(V) = int_0^h exp(sS)(V) ds from the
Taylor series of S itself at a halved step, so it needs only M- and
N-sized exponentials.  The higher actions are exact from augmented block
exponentials, or a quadrature over the exponential images of a factored
operand N = L R^T.

``linearize`` hands back the previous operator, with the factorizations
it memoizes, while the new coefficients are unchanged to roundoff.
"""

from dataclasses import dataclass, field
from math import factorial, ldexp

import numpy as np
import scipy.linalg

from .densecore import as_matrix, expm_actions, fro, require_square
from .errors import DimensionError, DomainError

__all__ = [
    "SylvesterOperator",
    "linearize",
    "phi1_action_augmented",
    "phi_action_augmented",
    "phi_action_quadrature",
]

# Unit roundoff of float64.  A coefficient within it of a factorized one,
# in the Frobenius norm, is taken to be that coefficient (see linearize).
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class SylvesterOperator:
    """Pair of square coefficients acting on M x N matrices as AX + XD.

    A pair with D = A^T (``transposed``, checked once) shares one expm.
    ``memo`` holds what the kernels computed from the coefficients alone:
    the Schur forms of ``solve_sylvester``, and for the last step each
    was asked for, exp(tA) and exp(tD) of ``exp_action`` and the squared
    exponentials of ``phi1_action_augmented``.
    """

    A: np.ndarray
    D: np.ndarray
    transposed: bool = field(init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", require_square(as_matrix(self.A, "A"), "A"))
        object.__setattr__(self, "D", require_square(as_matrix(self.D, "D"), "D"))
        object.__setattr__(self, "transposed", np.array_equal(self.D, self.A.T))

    @property
    def rows(self):
        return self.A.shape[0]

    @property
    def cols(self):
        return self.D.shape[0]

    def within_roundoff(self, a, d):
        """Whether A_new = ``a`` and D_new = ``d`` lie within unit roundoff
        u of the coefficients: same shapes and ||A_new - A||_F <= u ||A||_F,
        likewise for D."""
        return all(
            new.shape == old.shape and fro(new - old) <= _UNIT_ROUNDOFF * fro(old)
            for new, old in ((a, self.A), (d, self.D))
        )

    def _memoized(self, kind, step, build):
        """build(), kept in ``memo`` under ``kind`` until asked for another step."""
        cached = self.memo.get(kind)
        if cached is None or cached[0] != step:
            cached = self.memo[kind] = (step, build())
        return cached[1]

    def _check_operand(self, x, name="operand"):
        x = as_matrix(x, name)
        if x.shape != (self.rows, self.cols):
            raise DimensionError(
                f"{name} shape {x.shape} does not match operator ({self.rows}, {self.cols})"
            )
        return x

    def _scale(self, h):
        """|h| (||A||_1 + ||D||_1), the bound on ||hS|| that sets the halvings.

        Raises DomainError when it is not finite (h = nan or inf, or a step
        whose count of halvings would overflow).
        """
        z = abs(h) * (float(np.linalg.norm(self.A, 1)) + float(np.linalg.norm(self.D, 1)))
        if not np.isfinite(z):
            raise DomainError(f"step {h!r} gives |h| (||A||_1 + ||D||_1) = {z}, not finite")
        return z

    def apply(self, x):
        """AX + XD."""
        x = self._check_operand(x)
        return self.A @ x + x @ self.D

    def exp_action(self, t, x):
        """exp(tA) X exp(tD), the exact operator exponential applied to X.

        The coefficients were validated on construction, so the
        exponentials come straight from SciPy, once per step t (``memo``);
        exp(tD) = exp(tA)^T for a transposed pair.  A step that ``_scale``
        rejects raises DomainError.
        """
        x = self._check_operand(x)
        if t == 0.0:
            return x.copy()
        self._scale(t)

        def exponentials():
            left = scipy.linalg.expm(t * self.A)
            return left, left.T if self.transposed else scipy.linalg.expm(t * self.D)

        left, right = self._memoized("exp", t, exponentials)
        return left @ x @ right


def linearize(problem, state, previous=None):
    """Linearize X' = AX + XD + Q - XGX at ``state``.

    Returns (SylvesterOperator of A - XG and D - GX, remainder Q + XGX).
    A symmetric problem gets D_lin = A_lin^T (exact at a symmetric state),
    a pair that shares one exponential and one Schur form.

    ``previous``, an operator linearized earlier in the same run, is
    returned in place of a new one, with its memoized factorizations,
    while A_lin and D_lin lie within unit roundoff of its coefficients
    (``SylvesterOperator.within_roundoff``).  A_lin is itself the rounded
    value of A - XG, so a coefficient within u of it is no further off
    than another rounding would be.  The comparison is against the
    coefficients that were factorized, not the last step's, so the
    difference cannot drift.
    """
    x = as_matrix(state, "state")
    if x.shape != (problem.M, problem.N):
        raise DimensionError(
            f"state shape {x.shape} does not match problem ({problem.M}, {problem.N})"
        )
    xg = x @ problem.G
    a_lin = problem.A - xg
    d_lin = a_lin.T if problem.symmetric else problem.D - problem.G @ x
    remainder = problem.Q + xg @ x
    if previous is not None and previous.within_roundoff(a_lin, d_lin):
        return previous, remainder
    return SylvesterOperator(a_lin, d_lin), remainder


# Above this value of |h| (||A||_1 + ||D||_1) the base block exponential
# runs at a halved step and the result is doubled back through the
# semigroup identity; the embedded -hD block would otherwise grow like
# exp(h ||D||) and erode the small phi terms during squaring.
_AUGMENTED_NORM_LIMIT = 4.0
# The phi_1 series runs at a step halved until |t| (||A||_1 + ||D||_1) is
# at most this.  Each halving adds a squaring of exp(tA), and so roughly
# doubles the relative error a slow mode carries through the doublings;
# on the 200 Euler stages of the n = 64 and n = 100 fdm runs, limits of
# 0.25, 0.5 and 1 gave 1.1e-14, 6.0e-15 and 2.9e-15 off a long-double
# reference (the block route 3.5e-15) at costs within 5% of each other.
_SERIES_NORM_LIMIT = 1.0


def _halvings(operator, h, limit):
    """(s, h / 2^s, z / 2^s) for the fewest halvings s that bring
    z = |h| (||A||_1 + ||D||_1) to ``limit``."""
    z = operator._scale(h)
    s = 0 if z <= limit else int(np.ceil(np.log2(z / limit)))
    return s, ldexp(h, -s), ldexp(z, -s)


def _squarings(operator, doublings, left, right):
    """[(exp(2^i tA), exp(2^i tD)) for i = 0..s] from the pair at i = 0,
    squared s times (for a transposed pair the transpose of the left)."""
    powers = [(left, right)]
    for _ in range(doublings):
        left = left @ left
        right = left.T if operator.transposed else right @ right
        powers.append((left, right))
    return powers


def _doubled(t, integrals, powers):
    """Carry [t^j phi_j(tS)(N) for j = 1..k] from t to 2^s t.

    ``powers`` is ``_squarings`` of exp(tA), exp(tD).  Each doubling uses
    the semigroup identity

        I_j(2t) = exp(tS)(I_j(t)) + sum_i t^(j-1-i)/(j-1-i)! I_{i+1}(t),

    which only combines quantities at the scale of the result (no growing
    intermediates, unlike a one-shot exponential at the full step).
    """
    k = len(integrals)
    for left, right in powers[:-1]:
        doubled = []
        for j in range(1, k + 1):
            value = left @ integrals[j - 1] @ right
            for i in range(j):
                value = value + (t ** (j - 1 - i) / factorial(j - 1 - i)) * integrals[i]
            doubled.append(value)
        integrals = doubled
        t *= 2.0
    return integrals


def _phi_integrals(operator, h, k, mat):
    """[h^j phi_j(hS)(N) for j = 1..k], stable at stiff scales.

    One augmented exponential at t = h / 2^s holds tA, the operand
    (balanced to unit norm, undone on extraction) and k copies of -tD
    chained by identities: its block (1, j+1) times exp(tD) is
    t^j phi_j(tS)(N), and its top-left block is exp(tA).  exp(tD) is
    exp(tA)^T for a transposed pair and one more exponential otherwise.  For
    |h| (||A||_1 + ||D||_1) beyond a small limit, s > 0 and ``_doubled``
    carries the values to h.  The coefficients and the operand were
    validated by the caller, so the exponentials go to SciPy directly.
    """
    m, n = operator.rows, operator.cols
    doublings, t, _ = _halvings(operator, h, _AUGMENTED_NORM_LIMIT)
    scale = max(float(np.linalg.norm(mat, 1)), 1e-300)
    block = np.zeros((m + k * n, m + k * n))
    block[:m, :m] = t * operator.A
    block[:m, m:m + n] = mat / scale
    for i in range(k):
        r0 = m + i * n
        block[r0:r0 + n, r0:r0 + n] = -t * operator.D
        if i + 1 < k:
            block[r0:r0 + n, r0 + n:r0 + 2 * n] = np.eye(n)
    e = scipy.linalg.expm(block)
    left = e[:m, :m]
    right = left.T if operator.transposed else scipy.linalg.expm(t * operator.D)
    integrals = [
        (scale * t ** j) * (e[:m, m + (j - 1) * n:m + j * n] @ right)
        for j in range(1, k + 1)
    ]
    return _doubled(t, integrals, _squarings(operator, doublings, left, right))


def _phi1_series(operator, t, z, mat):
    """t phi_1(tS)(N) = sum_k t^(k+1)/(k+1)! S^k(N), for z >= |t| ||S||_1 at most 1.

    Term k is bounded by z^k/(k+1)! times the first, t N, and the sum
    stops before the first term whose bound falls below the unit
    roundoff.  The terms after the first add up to at most 0.72 of it, so
    nothing cancels.
    """
    term = t * mat
    total = term.copy()
    k, bound = 1, z / 2.0
    while bound > 2.0 ** -53:
        term = (t / (k + 1)) * (operator.A @ term + term @ operator.D)
        total += term
        k += 1
        bound *= z / (k + 1)
    return total


def phi1_action_augmented(operator, h, inhom, state):
    """exp(hS)(X) + h phi_1(hS)(V) from M- and N-sized exponentials only.

    At t = h / 2^s, with s the fewest halvings that bring
    |t| (||A||_1 + ||D||_1) to the series limit, the integral
    I(t) = t phi_1(tS)(V) = int_0^t exp(sA) V exp(sD) ds is the Taylor
    series of S itself (``_phi1_series``, two products per term), and
    exp(tA) (with exp(tD) for a general pair) comes from SciPy.  The s
    doublings of ``_doubled`` carry both to h, as they carry the block
    route of ``phi_action_augmented``; no (M+N) x (M+N) block is formed.
    The exponentials and their squarings depend on h and the coefficients
    alone and are taken once per step h (``memo``).  The name stays that
    of the block route it replaced, which ``perfbench/tracing.py`` hooks.
    """
    v = operator._check_operand(inhom, "inhomogeneity")
    x = operator._check_operand(state, "state")
    doublings, t, z = _halvings(operator, h, _SERIES_NORM_LIMIT)

    def powers():
        left = scipy.linalg.expm(t * operator.A)
        right = left.T if operator.transposed else scipy.linalg.expm(t * operator.D)
        return _squarings(operator, doublings, left, right)

    squared = operator._memoized("phi1", h, powers)
    left, right = squared[-1]
    return left @ x @ right + _doubled(t, [_phi1_series(operator, t, z, v)], squared)[0]


def phi_action_augmented(operator, h, k, mat):
    """phi_k(hS)(N) through augmented block exponentials of size M + kN.

    Chains k diagonal copies of -hD coupled by identity blocks above the
    operand block; the top-right M x N block of the exponential, times
    exp(hD) (for D = A^T the transpose of its top-left block exp(hA)), is
    the phi_k action.  k = 0 falls back to the plain operator exponential.
    Exact up to matrix-exponential accuracy; the operand block is
    balanced, and at stiff scales the exponential runs at a halved step
    and is doubled back (``_phi_integrals``).
    """
    if k < 0:
        raise DomainError("phi index must be >= 0")
    if k == 0:
        return operator.exp_action(h, mat)
    x = operator._check_operand(mat, "operand")
    if h == 0.0:
        return x / factorial(k)
    return _phi_integrals(operator, h, k, x)[k - 1] / h ** k


def phi_action_quadrature(k, operator, h, factors, rule):
    """Quadrature approximation of phi_k(hS)(N) for k >= 1, N = L R^T.

    ``factors`` is the pair (L, R) of an M x q and an N x q factor of the
    operand, validated once; a dense N goes in as (N, I_N).  Evaluates
    (1/(k-1)!) sum_j w_j s_j^(k-1) exp(tau_j S)(N) with
    tau_j = (1 - s_j) h >= 0, h >= 0: the node images exp(tau_j A) L and
    exp(tau_j D^T) R come from ``expm_actions``, one Taylor chain for all
    nodes (on [L, R] when D = A^T), and are summed in one product.
    k = 0 is refused.
    """
    if k < 1:
        raise DomainError("quadrature path needs k >= 1; use exp_action for k = 0")
    taus = [(1.0 - s) * h for s in rule.nodes]
    coeffs = rule.weights * rule.nodes ** (k - 1) / factorial(k - 1)
    factors = [as_matrix(f, "factor") for f in factors]
    rows, widths = [f.shape[0] for f in factors], {f.shape[1] for f in factors}
    if rows != [operator.rows, operator.cols] or len(widths) != 1:
        shapes, target = [f.shape for f in factors], (operator.rows, operator.cols)
        raise DimensionError(f"factors of shapes {shapes} do not form a {target} operand")
    if operator.transposed:
        images = np.array(expm_actions(operator.A, taus, np.hstack(factors)))
        lefts, rights = np.split(images, [factors[0].shape[1]], axis=2)
    else:
        lefts = np.array(expm_actions(operator.A, taus, factors[0]))
        rights = np.array(expm_actions(operator.D.T, taus, factors[1]))
    return np.hstack(coeffs[:, None, None] * lefts) @ np.hstack(rights).T
