"""Dense linear-algebra kernels shared by the rest of the package.

Everything operates on plain 2-D float64 ``numpy`` arrays, except that
:func:`expm_actions` also takes a :class:`SparsePlusThin` operator.  The
public functions validate their raw input, except :func:`compress`,
which only ever gets package-built factors; values the package builds
itself are handed to SciPy and NumPy directly instead of being re-checked
on every internal call.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionError, DomainError, FiniteEscapeError, SolvabilityError

__all__ = [
    "as_matrix",
    "require_square",
    "fro",
    "expm_actions",
    "SparsePlusThin",
    "sparse_shift",
    "solve_sylvester",
    "compress",
]

def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D float array, rejecting non-finite entries."""
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def require_square(a, name="matrix"):
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def fro(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a, "fro"))


class SparsePlusThin:
    """The n x n operator A - U B^T: a sparse A plus a thin correction.

    ``a`` is a SciPy sparse matrix, ``u`` and ``bt`` are n x p and p x n
    arrays.  ``shift`` is ``sparse_shift(a)``, the shift the Taylor chain
    takes; operators that share one A pass it in, otherwise the chain
    computes it on each call.  A product with an n x b block costs about
    b (nnz(A) + 2 n p) flops instead of the b n^2 of the dense matrix.
    The package builds these from validated coefficients, so nothing is
    checked here.
    """

    def __init__(self, a, u, bt, shift=None):
        self.a = a
        self.u = u
        self.bt = bt
        self.shift = shift

    @property
    def shape(self):
        return self.a.shape

    def __matmul__(self, block):
        out = self.a @ block
        out -= self.u @ (self.bt @ block)
        return out


def sparse_shift(a):
    """(mu, A - mu I as CSR, ||A - mu I||_1) for a sparse A, mu = trace(A) / n."""
    n = a.shape[0]
    mu = float(a.diagonal().sum()) / n if n else 0.0
    shifted = scipy.sparse.csr_array(a - mu * scipy.sparse.eye_array(n))
    return mu, shifted, float(abs(shifted).sum(axis=0).max(initial=0.0))


def _centered(m):
    """(mu, M - mu I, a bound on ||M - mu I||_1) with mu = trace(M) / n.

    For a SparsePlusThin mu is the mean diagonal of A, which operators
    sharing one A share, and the bound is ||A - mu I||_1 + ||U||_1 ||B^T||_1.
    """
    if isinstance(m, SparsePlusThin):
        mu, a_shifted, a_norm = m.shift if m.shift is not None else sparse_shift(m.a)
        bound = a_norm + float(np.linalg.norm(m.u, 1) * np.linalg.norm(m.bt, 1))
        return mu, SparsePlusThin(a_shifted, m.u, m.bt), bound
    n = m.shape[0]
    mu = float(np.trace(m)) / n if n else 0.0
    centered = m - mu * np.eye(n)
    return mu, centered, np.linalg.norm(centered, 1)


# theta_m of Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2), 2011), Table
# 3.1, for double precision: the degree-m truncated Taylor series of
# exp(M) has relative backward error below 2^-53 once ||M||_1 <= theta_m.
# The table stops at m = 24, not 55: on a direction that decays like
# e^-theta the series sums terms of size up to e^theta, so one step loses
# about e^(2 theta) ulps to cancellation, 85 at theta_24 = 2.22 but 4e8 at
# theta_55 = 9.9, where exp(-9) came out 1.3e-9 off.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22,
}
# expm_actions takes one full exponential per tau instead of the chain
# when m s b c > _DENSE_ROUTE_RATIO len(taus) n^3: m s products with the
# b-column block, c flops a column, n^2 for a dense matrix and
# _SPARSE_PRODUCT_COST (nnz(A) + 2 n p) for a SparsePlusThin, which is
# then formed densely.  The chain grows linearly with the norm, a full
# exponential only with its logarithm.  Seven Gauss node times, one BLAS
# thread: dense fdm-like operators broke even at a ratio of 5-12 for
# n = 64, 12-15 for n = 100 and 200 (n = 100, b = 80, span 16: 8.1 against
# 7.6 ms) and 6-8 for n = 400; A_lin of fdm-sym:k=14 and k=20 (b = 10 to
# 40) at 0.4-5 counting a sparse flop as one (n = 400, b = 10, span 400:
# 129 against 331 ms), so a sparse flop counts 8.  A SparsePlusThin chain
# under _CHAIN_FLOOR model flops (milliseconds) always runs, so a small
# structured operator is never formed densely.  A dense matrix has the
# floor _DENSE_CHAIN_FLOOR, for accuracy rather than speed: on small
# non-normal matrices with large growth the full route's squarings lose
# digits the chain keeps (n = 2, span 40, seven node times: 8.0e-14
# against 5.8e-16 off a long-double exponential; 5.2e-12 against 3.0e-15
# on another draw), at 1.3 against 0.11 ms.  Under the floor the chain
# takes at most 1e5 / (b n^2) products of about 4 us each (0.1 s at n = 2
# and b = 1, a few ms from n = 10 on).  From n = 64 on the full route's
# own threshold, 10 len(taus) n^3, lies far above the floor.
_DENSE_ROUTE_RATIO = 10.0
_SPARSE_PRODUCT_COST = 8.0
_CHAIN_FLOOR = 1e7
_DENSE_CHAIN_FLOOR = 1e5


def _taylor_parameters(norm):
    """Degree m and scaling s minimizing m s subject to norm / s <= theta_m."""
    if norm == 0.0:
        return 0, 0
    steps = {m: int(np.ceil(norm / theta)) for m, theta in _THETA.items()}
    degree = min(steps, key=lambda m: m * steps[m])
    return degree, steps[degree]


def _chain_cost(m, norm, taus):
    """(m s, c) of the Taylor chain for [exp(tau M) B for tau in taus].

    m s is the product count of the chain, with the (m, s) of
    ``_taylor_parameters`` for max tau ``norm``; c is the model flops of
    one product column: n^2 for a dense matrix, _SPARSE_PRODUCT_COST
    (nnz(A) + 2 n p) for a SparsePlusThin.  A block of b columns costs
    m s b c.
    """
    degree, s = _taylor_parameters(max(taus, default=0.0) * norm)
    if isinstance(m, SparsePlusThin):
        return degree * s, _SPARSE_PRODUCT_COST * (m.a.nnz + 2 * m.u.size)
    return degree * s, m.shape[0] ** 2


def _taylor_apply(m, mu, norm, taus, b):
    """[exp(tau (M + mu I)) B for tau in taus], all taus >= 0, with
    ``norm`` >= ||M||_1.

    (m, s) come from ``_taylor_parameters(max tau norm)`` and cut
    [0, max tau] into s intervals of length step.  Each interval writes
    the powers (step M)^k V / k!, k <= m, of its start V once, and every
    tau in it, and its end, is the one product of the rows
    theta^k, theta = (tau - start) / step, with those powers.  The factor
    e^((tau - start) mu) is applied per interval, so that e^(tau mu)
    cannot underflow against a growing series.
    """
    t_end = max(taus, default=0.0)
    if t_end == 0.0:
        return [b.copy() for _ in taus]
    degree, s = _taylor_parameters(t_end * norm)
    s = max(s, 1)
    step = t_end / s
    taus = np.asarray(taus)
    interval = np.clip(np.ceil(taus / step) - 1, 0, s - 1)
    powers = np.empty((degree + 1,) + b.shape)
    exponents = np.arange(degree + 1)
    results = [None] * len(taus)
    start = b
    for j in range(s):
        members = np.flatnonzero(interval == j)
        offsets = np.append(taus[members] - j * step, step)
        powers[0] = start
        for k in range(1, degree + 1):
            np.multiply(m @ powers[k - 1], step / k, out=powers[k])
        values = ((offsets / step)[:, None] ** exponents) @ powers.reshape(degree + 1, -1)
        values *= np.exp(mu * offsets)[:, None]
        for i, value in zip(members, values):
            results[i] = value.reshape(b.shape)
        start = values[-1].reshape(b.shape)
    return results


def expm_actions(m, taus, b):
    """[exp(tau M) B for tau in taus >= 0], sharing work across the tau values.

    ``m`` is a square matrix or a package-built :class:`SparsePlusThin`,
    which the chain only multiplies with thin blocks.  The Taylor chain
    of Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2), 2011, Alg. 3.2)
    shifts M by mu = trace(M) / n (for a SparsePlusThin, the mean
    diagonal of its sparse part) and chooses the degree m and the number
    s of scaling intervals once for max tau ||M - mu I||_1 (see
    ``_centered``).  Each interval applies the powers of M - mu I to its
    start once, and every tau in it is one product with them (see
    ``_taylor_apply``).  When the chain's products
    would cost more than one dense exponential per tau (see
    ``_DENSE_ROUTE_RATIO``), every tau takes a full ``scipy.linalg.expm``
    instead, of a SparsePlusThin formed densely.  Results come back in
    the order of ``taus``.  For exp(tau M) with tau < 0, pass -M and
    |tau|.
    """
    if not isinstance(m, SparsePlusThin):
        m = require_square(as_matrix(m, "matrix"), "matrix")
    b = as_matrix(b, "block")
    n = m.shape[0]
    if b.shape[0] != n:
        raise DimensionError(f"block has {b.shape[0]} rows, matrix is {n} square")
    taus = [float(t) for t in taus]
    # NaN fails the comparison too.
    if not all(0.0 <= t < np.inf for t in taus):
        raise DomainError("tau values must be finite and nonnegative")
    mu, centered, norm = _centered(m)
    products, column = _chain_cost(m, norm, taus)
    floor = _CHAIN_FLOOR if isinstance(m, SparsePlusThin) else _DENSE_CHAIN_FLOOR
    if products * b.shape[1] * column > max(_DENSE_ROUTE_RATIO * len(taus) * n ** 3, floor):
        if isinstance(m, SparsePlusThin):
            m = m.a.toarray() - m.u @ m.bt
        return [scipy.linalg.expm(t * m) @ b for t in taus]
    return _taylor_apply(centered, mu, norm, taus, b)


def _separation(la, mu):
    """Smallest |lambda + mu| over two lists of eigenvalues."""
    return float(np.abs(la[:, None] + mu[None, :]).min())


def _schur_eigenvalues(t):
    """Eigenvalues of a real Schur form, read off its diagonal blocks.

    LAPACK standardizes each 2 x 2 block to [[a, b], [c, a]] with b c < 0,
    whose eigenvalues are a +- i sqrt(|b c|); the other diagonal entries
    are real eigenvalues.
    """
    lam = np.diag(t).astype(complex)
    first = np.flatnonzero(np.diagonal(t, -1))
    im = np.sqrt(np.abs(t[first + 1, first] * t[first, first + 1]))
    lam[first] += 1j * im
    lam[first + 1] -= 1j * im
    return lam


def _check_separation(sep, a, d):
    scale = max(fro(a) + fro(d), 1.0)
    if sep <= 1e-12 * scale:
        raise SolvabilityError(
            f"Sylvester operator is numerically singular: spectral separation "
            f"{sep:.3e} against coefficient scale {scale:.3e}",
            separation=sep,
            condition=scale / sep if sep > 0 else float("inf"),
        )


def _schur_forms(a, d):
    """(R, U, S, V): real Schur forms A = U R U^T and D^T = V S V^T, one
    form for both when D^T equals A, after the separation check passed."""
    r, u = scipy.linalg.schur(a, output="real")
    s, v = (r, u) if np.array_equal(d.T, a) else scipy.linalg.schur(d.T, output="real")
    _check_separation(_separation(_schur_eigenvalues(r), _schur_eigenvalues(s)), a, d)
    return r, u, s, v


def solve_sylvester(a, d, rhs, memo=None):
    """Solve the Sylvester equation ``A W + W D = RHS``.

    Reduces A and D^T to real Schur form and back-substitutes with LAPACK
    ``trsyl`` (Bartels-Stewart, the same steps as
    ``scipy.linalg.solve_sylvester``); one Schur form serves both when
    D^T equals A.  The separation check reads the spectra off the Schur
    forms.

    Parameters
    ----------
    a, d : array_like
        Square coefficients of sizes M and N.  The spectra of A and -D
        must be disjoint for unique solvability.
    rhs : array_like
        M x N right-hand side.
    memo : dict, optional
        Kept with the coefficients (``SylvesterOperator.memo``): it holds
        their Schur forms once they passed the separation check, and a
        later solve with the same coefficients and dict reuses them.

    Raises
    ------
    SolvabilityError
        When the spectra of A and -D (nearly) intersect; the exception
        carries the measured separation and a condition estimate.
    """
    a = require_square(as_matrix(a, "A"), "A")
    d = require_square(as_matrix(d, "D"), "D")
    rhs = as_matrix(rhs, "RHS")
    if rhs.shape != (a.shape[0], d.shape[0]):
        raise DimensionError(
            f"RHS shape {rhs.shape} does not match ({a.shape[0]}, {d.shape[0]})"
        )
    if rhs.size == 0:
        return np.zeros(rhs.shape)

    forms = None if memo is None else memo.get("schur")
    if forms is None:
        forms = _schur_forms(a, d)
        if memo is not None:
            memo["schur"] = forms
    r, u, s, v = forms
    f = np.dot(np.dot(u.T, rhs), v)
    trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (r, s, f))
    y, scale, info = trsyl(r, s, f, tranb="C")
    if info < 0:
        raise DomainError(f"trsyl rejected argument {-info}")
    return np.dot(np.dot(u, scale * y), v.T)


def compress(l, d, tol, floor=0.0):
    """Truncate L diag(d) L^T, an n x r factor with a (possibly indefinite)
    diagonal core held as its vector, to a relative tolerance tol >= 0.

    Returns (L', d'), r' <= r orthonormal columns and the kept
    eigenvalues, with ||L diag(d) L^T - L' diag(d') L'^T||_F <= tol
    ||L diag(d) L^T||_F.  The factor is package-built and not re-checked;
    ``LdlFactor(L, core).compressed(tol)`` validates one from outside.
    Householder QR of L (``geqrf``), then ``eigh`` of R diag(d) R^T; Q is
    never formed, the reflectors go to the kept eigenvectors alone
    (``ormqr``).  Eigenvalues are dropped from the small end while both
    |lambda| <= tol max|lambda| and the dropped tail's norm stays within
    tol ||lambda||, so exact zero modes always go.  A positive ``floor``
    also drops the longest suffix of the kept modes whose own tail norm
    is at most ``floor``, an absolute budget, before any mode is formed.
    """
    if tol < 0:
        raise DomainError("compression tolerance must be nonnegative")
    if l.shape[1] == 0:
        return l.copy(), np.zeros(0)

    # Householder QR without forming Q: R is the top k = min(n, r) rows of
    # geqrf's output, and the reflectors in its first k columns are
    # applied to the kept eigenvectors alone (none when keep = 0).  The
    # workspaces hold 64 entries per column, above LAPACK's block size.
    n, width = l.shape
    k = min(n, width)
    geqrf, ormqr = scipy.linalg.get_lapack_funcs(("geqrf", "ormqr"), (l,))
    qr, tau, _, _ = geqrf(l, lwork=64 * width)
    r = np.triu(qr[:k])
    mid = (r * d) @ r.T
    mid = (mid + mid.T) / 2.0
    lam, u = np.linalg.eigh(mid)
    if not np.all(np.isfinite(lam)):
        # An overflow upstream (in a step: the exponential images) shows here.
        raise FiniteEscapeError("compressed factor has non-finite eigenvalues")
    order = np.argsort(-np.abs(lam))
    lam = lam[order]
    u = u[:, order]

    # |lam| decreases and the tail norm of the dropped modes shrinks along
    # the index, so both conditions hold on a suffix, which is dropped.
    mags = np.abs(lam)
    tail = np.sqrt(np.cumsum(lam[::-1] ** 2))[::-1]
    drop = (mags <= tol * mags.max(initial=0.0)) & (tail <= tol * np.linalg.norm(lam))
    keep = lam.size - int(np.count_nonzero(drop))
    if floor > 0.0:
        kept_tail = np.sqrt(np.cumsum(lam[:keep][::-1] ** 2))[::-1]
        keep = int(np.count_nonzero(kept_tail > floor))
    padded = np.zeros((n, keep))
    padded[:k] = u[:, :keep]
    return ormqr("L", "N", qr[:, :k], tau, padded, max(64 * keep, 1))[0], lam[:keep]
