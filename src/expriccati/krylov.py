"""Block Krylov approximation of matrix-exponential actions on thin blocks.

A single block Arnoldi basis of K_m(A, V) serves every product
exp(tau A) V needed within one integrator step: the quadrature nodes only
change tau, not the subspace.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densecore import (
    _DENSE_ROUTE_RATIO,
    SparsePlusThin,
    _centered,
    _chain_cost,
    as_matrix,
    expm_actions,
    require_square,
)
from .errors import DomainError

__all__ = ["BlockKrylovBasis", "build_basis", "exp_actions_krylov"]


@dataclass
class BlockKrylovBasis:
    """Orthonormal block Krylov basis with its projection.

    ``basis`` holds orthonormal columns spanning K_m(A, V); ``H`` is the
    projection basis^T A basis, formed from the products of A with the
    basis blocks taken while the basis grew.  ``coupling`` is the norm of
    the first discarded block (roundoff-small when the space became
    invariant, 0.0 when it covers everything); together with the trailing
    rows of exp(tau H) it yields the a posteriori residual estimate.
    """

    basis: np.ndarray
    H: np.ndarray
    coupling: float
    last_width: int

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def size(self):
        return self.basis.shape[1]


def _orthonormalize(w, basis):
    """Two-pass block CGS against ``basis``, then rank-revealing QR of the rest.

    Columns are deflated at 1e-12 times the 2-norm of ``w`` itself, the
    scale at which the projections leave their roundoff.  A kept column
    whose diagonal in R is small against the block's norm is mostly the
    roundoff of the projections, so the kept columns pass once more
    against ``basis`` and are re-orthonormalized; without that pass the
    basis of a stiff operator lost orthogonality to 5e-4.  Returns the
    kept orthonormal columns and the norm of the full residual block.
    """
    tol = 1e-12 * float(np.linalg.norm(w, 2))
    if basis is not None:
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
    q, r, _ = scipy.linalg.qr(w, mode="economic", pivoting=True)
    resid_norm = float(np.linalg.norm(r, 2)) if r.size else 0.0
    rank = int(np.sum(np.abs(np.diag(r)) > tol))
    q = q[:, :rank]
    if basis is not None and q.shape[1]:
        q = np.linalg.qr(q - basis @ (basis.T @ q))[0]
    return q, resid_norm


def build_basis(A, V, m):
    """Block Arnoldi basis of K_m(A, V) with m blocks.

    ``A`` is a square matrix or a package-built :class:`SparsePlusThin`,
    which is only multiplied with the blocks and never formed densely.
    Block Gram-Schmidt with one reorthogonalization pass and a third pass
    over the kept columns (see ``_orthonormalize``); each block is
    deflated at 1e-12 times the 2-norm of the seed or product it comes
    from, and the basis never exceeds the dimension.  Iteration stops
    after m blocks, at an invariant subspace, or once the basis spans
    the whole space; ``coupling`` is 0.0 in the last case, where the
    actions on the basis are exact.  ``H`` is basis^T times the products
    of A with the basis blocks, each taken once while the basis grew.  The
    low-rank steppers build a basis only where it and its projected
    actions cost less than the exact action (``_basis_pays``), and never
    when m times the block width reaches the dimension, where it would
    span the whole space.
    """
    if not isinstance(A, SparsePlusThin):
        A = require_square(as_matrix(A, "A"), "A")
    V = as_matrix(V, "V")
    n, b = V.shape
    if A.shape[0] != n:
        raise DomainError(f"A is {A.shape[0]} x {A.shape[0]} but V has {n} rows")
    if b == 0:
        raise DomainError("V must have at least one column")
    if m < 1:
        raise DomainError("subspace step count must be positive")

    basis = block = _orthonormalize(V, None)[0]
    if basis.shape[1] == 0:
        raise DomainError("V must be nonzero")
    products = []
    while True:
        products.append(A @ block)
        if basis.shape[1] >= n:
            # Full span: nothing is left out of the basis.
            coupling = 0.0
            break
        block, coupling = _orthonormalize(products[-1], basis)
        block = block[:, :n - basis.shape[1]]
        if len(products) >= m or block.shape[1] == 0:
            # The residual block is left out of the basis; ~0 at an
            # invariant subspace.
            break
        basis = np.hstack([basis, block])
    return BlockKrylovBasis(
        basis=basis,
        H=basis.T @ np.hstack(products),
        coupling=coupling,
        last_width=products[-1].shape[1],
    )


# Model flops of growing a basis of k columns in R^n, per n k^2: the
# Gram-Schmidt passes, the pivoted QR of each block and H = basis^T [A Q_j],
# with the Python overhead of each block folded in.  Calibrated on the
# actions of LrExpEuler and Erow3LowRank (krylov, m = 30, seven node times)
# captured on fdm-sym at seed 20240, h = 1e-3 unless noted, one BLAS
# thread: a basis with its projected actions against the exact chain, and
# the bound on this constant below (<) or above (>) which the model picks
# the faster of the two.  span is max|tau| times A_lin's 1-norm bound; the
# b = 2 operands are Erow3LowRank's corrections.
#   n     b   k    span  basis / exact ms  bound
#   400   6   122  83    17.8 / 25.4       < 11.6
#   400   12  331  58    80 / 23           > -15
#   400   12  360  35    71 / 14           > -9
#   400   2   60   83    13.5 / 25.0       < 30
#   400   2   60   29    7.6 / 5.3         > 9.5
#   196   6   122  19    10.1 / 4.7        > -1
#   196   2   60   19    5.7 / 2.9         > 5.0
#   196   6   122  189   20.5 / 44.6       < 13.9  (h = 0.01)
#   900   6   122  404   34 / 195          < 115
#   900   11  330  403   373 / 337         > 5.4
#   900   12  360  403   429 / 362         > 0.5
#   900   17  510  404   902 / 297         > -20
#   1600  14  420  1284  601 / 1756        < 60
#   1600  22  602  1284  1314 / 2181       < 34
# Every row holds for a constant in (9.5, 11.6).
_GRAM_SCHMIDT_COST = 10.0


def _size_bound(A, V, m):
    """Upper bound on the column count of ``build_basis(A, V, m)``.

    In exact arithmetic no block of a block Krylov basis is wider than
    the one before it, so the first two blocks, b_1 and b_2 columns wide,
    bound the basis by b_1 + (m - 1) b_2.  The bound was exact on every
    operand in the table above.  It matters at step 0, whose width-6
    operand spans C^T, L0 and A L0: there b_2 = 4, and k = 122, not 180.
    """
    first = _orthonormalize(V, None)[0]
    second = _orthonormalize(A @ first, first)[0]
    return min(A.shape[0], first.shape[1] + (m - 1) * second.shape[1])


def _basis_pays(A, V, m, taus):
    """Whether a basis of m blocks and its projected actions cost less than
    the exact actions exp(tau A) V, in the model flops of ``expm_actions``.

    The exact action takes the cheaper of the Taylor chain and one full
    n x n exponential per tau.  The basis (k columns, ``_size_bound``)
    costs ``_GRAM_SCHMIDT_COST`` n k^2 plus k product columns with A,
    and its projected actions the cheaper of the chain on the k x k H and
    k x k exponentials.  H is not known yet, so its chain takes the
    product count of A's; on the operands above H's own norm was about
    half of A's bound.
    """
    n, b = V.shape
    k = _size_bound(A, V, m)
    products, column = _chain_cost(A, _centered(A)[2], taus)

    def action(dim, cost):
        return min(products * b * cost, _DENSE_ROUTE_RATIO * len(taus) * dim ** 3)

    basis = _GRAM_SCHMIDT_COST * n * k * k + k * column + action(k, k * k)
    return basis < action(n, column)


def _residual_estimate(basis, core):
    if basis.coupling == 0.0 or basis.last_width == 0:
        return 0.0
    tail = core[-basis.last_width:, :]
    return basis.coupling * float(np.linalg.norm(tail))


def exp_actions_krylov(basis, taus, V):
    """Evaluate exp(tau A) V for several tau >= 0 from one basis.

    The subspace is built once.  The projected exponentials act on the
    thin block basis^T V through ``expm_actions``, whose shifted Taylor
    chain serves every tau from one power sequence per scaling interval;
    a full k x k exponential per tau runs only where that chain would
    cost more.  Returns a list of
    ``(value, estimate)`` pairs in the order of ``taus``: the value is
    basis exp(tau H) (basis^T V) and the estimate the generalized residual
    ``coupling`` * ||trailing block of exp(tau H) basis^T V||_F.  The
    estimate is reported, never acted on.
    """
    V = as_matrix(V, "V")
    if V.shape[0] != basis.dim:
        raise DomainError(f"V has {V.shape[0]} rows, basis expects {basis.dim}")
    e1 = basis.basis.T @ V
    cores = expm_actions(basis.H, taus, e1)
    return [
        (basis.basis @ core, _residual_estimate(basis, core)) for core in cores
    ]
