"""Block Krylov approximation of matrix-exponential actions on thin blocks.

A single block Arnoldi basis of K_m(A, V) serves every product
exp(tau A) V needed within one integrator step: the quadrature nodes only
change tau, not the subspace.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densecore import as_matrix, expm_actions, require_square
from .errors import DomainError

__all__ = ["BlockKrylovBasis", "build_basis", "exp_action_krylov", "exp_actions_krylov"]


@dataclass
class BlockKrylovBasis:
    """Orthonormal block Krylov basis with its Hessenberg projection.

    ``basis`` holds orthonormal columns spanning K_m(A, V); ``H`` is the
    block-Hessenberg projection basis^T A basis assembled from the
    orthogonalization coefficients.  ``coupling`` is the norm of the first
    discarded subdiagonal block (roundoff-small when the space became
    invariant, 0.0 when it covers everything); together with the trailing rows of exp(tau H) it
    yields the a posteriori residual estimate.
    """

    basis: np.ndarray
    H: np.ndarray
    block_width: int
    steps: int
    coupling: float
    last_width: int

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def size(self):
        return self.basis.shape[1]


def _orthonormalize(w, basis, tol):
    """Two-pass block MGS against ``basis``, then rank-revealing QR of the rest.

    Returns the kept orthonormal columns, the (rank x w) coefficient block
    in original column order, and the norm of the full residual block.
    """
    coeff = None
    for _ in range(2):
        if basis is not None and basis.shape[1]:
            proj = basis.T @ w
            w = w - basis @ proj
            coeff = proj if coeff is None else coeff + proj
    q, r, piv = scipy.linalg.qr(w, mode="economic", pivoting=True)
    resid_norm = float(np.linalg.norm(r, 2)) if r.size else 0.0
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > tol))
    r_unpermuted = np.zeros_like(r)
    r_unpermuted[:, piv] = r
    return q[:, :rank], r_unpermuted[:rank, :], resid_norm, coeff


def build_basis(A, V, m):
    """Block Arnoldi basis of K_m(A, V) with m blocks.

    Modified Gram-Schmidt with one reorthogonalization pass; blocks that
    lose column rank are deflated at tolerance 1e-12 ||V||.  Iteration
    stops after m blocks, at an invariant subspace, or once the basis
    spans the whole space; ``coupling`` is 0.0 in the last case, where the
    actions on the basis are exact.  A full-space basis costs more than
    the exact action itself, so the low-rank steppers do not build one:
    when m times the block width reaches the dimension they apply the
    exact action without a basis.
    """
    A = require_square(as_matrix(A, "A"), "A")
    V = as_matrix(V, "V")
    n, b = V.shape
    if A.shape[0] != n:
        raise DomainError(f"A is {A.shape[0]} x {A.shape[0]} but V has {n} rows")
    if b == 0:
        raise DomainError("V must have at least one column")
    tol = 1e-12 * float(np.linalg.norm(V, 2))
    if tol == 0.0:
        raise DomainError("V must be nonzero")
    if m < 1:
        raise DomainError("subspace step count must be positive")

    q0, _, _, _ = _orthonormalize(V, None, tol)
    if q0.shape[1] == 0:
        raise DomainError("V must be nonzero")
    blocks = [q0]
    offsets = [0, q0.shape[1]]
    col_coeffs = []
    subdiags = []
    basis = q0
    coupling = 0.0

    j = 0
    while True:
        w = A @ blocks[j]
        q_new, r_new, resid, coeff = _orthonormalize(w, basis, tol)
        col_coeffs.append(coeff)
        if basis.shape[1] >= n:
            # Full span: nothing is left out of the basis.
            break
        if j + 1 >= m or q_new.shape[1] == 0:
            # Residual block left out of the basis; ~0 at an invariant
            # subspace.
            coupling = resid
            break
        blocks.append(q_new)
        subdiags.append(r_new)
        basis = np.hstack([basis, q_new])
        offsets.append(basis.shape[1])
        j += 1

    k = basis.shape[1]
    H = np.zeros((k, k))
    for j, coeff in enumerate(col_coeffs):
        col = slice(offsets[j], offsets[j + 1])
        H[: coeff.shape[0], col] = coeff
        if j < len(subdiags):
            H[offsets[j + 1]:offsets[j + 2], col] = subdiags[j]
    return BlockKrylovBasis(
        basis=basis,
        H=H,
        block_width=b,
        steps=len(blocks),
        coupling=float(coupling),
        last_width=blocks[-1].shape[1],
    )


def _residual_estimate(basis, core):
    if basis.coupling == 0.0 or basis.last_width == 0:
        return 0.0
    tail = core[-basis.last_width:, :]
    return basis.coupling * float(np.linalg.norm(tail))


def exp_action_krylov(basis, tau, V):
    """Approximate exp(tau A) V on the given basis.

    Returns ``(value, estimate)`` where the value is
    basis exp(tau H) (basis^T V) and the estimate is the generalized
    residual ||H_{m+1,m}|| * ||trailing block of exp(tau H) basis^T V||_F.
    The estimate is reported, never acted on.  This is the one-tau case
    of :func:`exp_actions_krylov`.
    """
    return exp_actions_krylov(basis, [tau], V)[0]


def exp_actions_krylov(basis, taus, V):
    """Evaluate exp(tau A) V for several tau values from one basis.

    The subspace is built once and the projected exponentials share work
    through the chained thin-block evaluation.  Returns a list of
    ``(value, estimate)`` pairs in the order of ``taus``.
    """
    V = as_matrix(V, "V")
    if V.shape[0] != basis.dim:
        raise DomainError(f"V has {V.shape[0]} rows, basis expects {basis.dim}")
    e1 = basis.basis.T @ V
    cores = expm_actions(basis.H, taus, e1)
    return [
        (basis.basis @ core, _residual_estimate(basis, core)) for core in cores
    ]
