"""phi functions of Sylvester operators.

The family is phi_0(z) = exp(z) and, for j >= 1,

    phi_j(z) = int_0^1 exp((1-t) z) t^(j-1) / (j-1)! dt,

with the recurrence phi_{j+1}(z) = (phi_j(z) - 1/j!) / z and the values
phi_j(0) = 1/j!.  The quadrature path takes phi_k(hS)(N), k >= 1, on
a factored operand N = L R^T from the exponential images of its factors
at the rule's node times.
"""

from dataclasses import dataclass
from math import factorial
from numbers import Integral

import numpy as np

from .densecore import as_matrix, expm_actions
from .errors import DimensionError, DomainError

__all__ = [
    "QuadratureRule",
    "phi_action_quadrature",
]

# Node count of the default Gauss-Legendre rule of the quadrature path.
GAUSS_NODES = 7


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights on [0, 1].

    Weights must sum to one (exactness for constants); nodes must lie in
    the unit interval.
    """

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
