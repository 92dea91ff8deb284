"""The Sylvester operator X -> AX + XD and its exponential-type actions.

The exponential of the operator factorizes into two ordinary matrix
exponentials, exp(tS)(X) = exp(tA) X exp(tD), which is what makes
exponential integrators for matrix-valued stiff problems practical: no
vectorized MN x MN exponential is ever needed.
"""

from dataclasses import dataclass, field
from math import factorial

import numpy as np
import scipy.linalg

from .densecore import as_matrix, require_square
from .errors import DimensionError, DomainError

__all__ = [
    "SylvesterOperator",
    "linearize",
    "phi1_action_augmented",
    "phi_action_augmented",
]


@dataclass(frozen=True)
class SylvesterOperator:
    """Pair of square coefficients acting on M x N matrices as AX + XD.

    A pair with D = A^T (``transposed``, checked once) shares one expm.
    """

    A: np.ndarray
    D: np.ndarray
    transposed: bool = field(init=False, repr=False, compare=False)

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

    def _check_operand(self, x, name="operand"):
        x = as_matrix(x, name)
        if x.shape != (self.rows, self.cols):
            raise DimensionError(
                f"{name} shape {x.shape} does not match operator ({self.rows}, {self.cols})"
            )
        return x

    def apply(self, x):
        """AX + XD."""
        x = self._check_operand(x)
        return self.A @ x + x @ self.D

    def exp_action(self, t, x):
        """exp(tA) X exp(tD), the exact operator exponential applied to X.

        The coefficients were validated on construction, so the
        exponentials come straight from SciPy; exp(tD) = exp(tA)^T for a
        transposed pair.
        """
        x = self._check_operand(x)
        if t == 0.0:
            return x.copy()
        left = scipy.linalg.expm(t * self.A)
        right = left.T if self.transposed else scipy.linalg.expm(t * self.D)
        return left @ x @ right


def linearize(problem, state):
    """Linearize X' = AX + XD + Q - XGX at ``state``.

    Returns (SylvesterOperator of A - XG and D - GX, remainder Q + XGX).
    A symmetric problem gets D_lin = A_lin^T (exact at a symmetric state),
    a pair that shares one exponential and one Schur form.
    """
    x = as_matrix(state, "state")
    if x.shape != (problem.M, problem.N):
        raise DimensionError(
            f"state shape {x.shape} does not match problem ({problem.M}, {problem.N})"
        )
    xg = x @ problem.G
    a_lin = problem.A - xg
    d_lin = a_lin.T if problem.symmetric else problem.D - problem.G @ x
    return SylvesterOperator(a_lin, d_lin), problem.Q + xg @ x


# Above this value of |h| (||A||_1 + ||D||_1) the base block exponential
# runs at a halved step and the result is doubled back through the
# semigroup identity; the embedded -hD block would otherwise grow like
# exp(h ||D||) and erode the small phi terms during squaring.
_AUGMENTED_NORM_LIMIT = 4.0


def _phi_integrals(operator, h, k, mat):
    """[h^j phi_j(hS)(N) for j = 1..k], exp(hA) and exp(hD), stable at stiff scales.

    One augmented exponential at t = h / 2^s holds tA, the operand
    (balanced to unit norm, undone on extraction) and k copies of -tD
    chained by identities: its block (1, j+1) times exp(tD) is
    t^j phi_j(tS)(N), and its top-left block is exp(tA).  exp(tD) is
    exp(tA)^T for a transposed pair and one more exponential otherwise.
    For |h| (||A||_1 + ||D||_1) beyond a small limit, s > 0 and the values
    are doubled s times through

        I_j(2t) = exp(tS)(I_j(t)) + sum_i t^(j-1-i)/(j-1-i)! I_{i+1}(t),

    which only combines quantities at the scale of the result (no growing
    intermediates, unlike the one-shot augmented exponential).  The
    coefficients and the operand were validated by the caller, so the
    exponentials go to SciPy directly.
    """
    m, n = operator.rows, operator.cols
    z = abs(h) * (
        float(np.linalg.norm(operator.A, 1)) + float(np.linalg.norm(operator.D, 1))
    )
    doublings = (
        0 if z <= _AUGMENTED_NORM_LIMIT
        else int(np.ceil(np.log2(z / _AUGMENTED_NORM_LIMIT)))
    )
    t = h / (1 << doublings)
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
    for _ in range(doublings):
        doubled = []
        for j in range(1, k + 1):
            value = left @ integrals[j - 1] @ right
            for i in range(j):
                value = value + (t ** (j - 1 - i) / factorial(j - 1 - i)) * integrals[i]
            doubled.append(value)
        integrals = doubled
        left = left @ left
        right = left.T if operator.transposed else right @ right
        t *= 2.0
    return integrals, left, right


def phi1_action_augmented(operator, h, inhom, state):
    """exp(hS)(X) + h phi_1(hS)(V) through the augmented block exponential.

    Embeds the inhomogeneity in the block matrix [[A, V], [0, -D]]: the
    top M rows of its scaled exponential applied to [X; I], times exp(hD),
    give the whole affine update; exp(hA) is the block's top-left corner.
    The coupling block is balanced, and at stiff scales the exponential is
    taken at a halved step and doubled back through the semigroup identity
    so the update stays accurate at the scale of the result.
    """
    v = operator._check_operand(inhom, "inhomogeneity")
    x = operator._check_operand(state, "state")
    integrals, left, right = _phi_integrals(operator, h, 1, v)
    return left @ x @ right + integrals[0]


def phi_action_augmented(operator, h, k, mat):
    """phi_k(hS)(N) through augmented block exponentials of size M + kN.

    Chains k diagonal copies of -hD coupled by identity blocks above the
    operand block; the top-right M x N block of the exponential, times
    exp(hD) (for D = A^T the transpose of its top-left block exp(hA)), is
    the phi_k action.  k = 0 falls back to the plain operator exponential.
    Exact up to matrix-exponential accuracy, with the same balancing and
    step-doubling stabilization as the affine update.
    """
    if k < 0:
        raise DomainError("phi index must be >= 0")
    if k == 0:
        return operator.exp_action(h, mat)
    x = operator._check_operand(mat, "operand")
    if h == 0.0:
        return x / factorial(k)
    integrals, _, _ = _phi_integrals(operator, h, k, x)
    return integrals[k - 1] / h ** k
