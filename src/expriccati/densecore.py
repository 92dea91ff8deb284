"""Dense linear-algebra kernels shared by the rest of the package.

Everything operates on plain 2-D float64 ``numpy`` arrays, except that
:func:`expm_actions` also takes a :class:`SparsePlusThin` operator.  The
public functions validate their raw input; values the package builds
itself are handed to SciPy and NumPy directly instead of being re-checked
on every internal call.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, FiniteEscapeError, SolvabilityError

__all__ = [
    "as_matrix",
    "require_square",
    "fro",
    "rel_error",
    "vec",
    "unvec",
    "expm",
    "expm_actions",
    "SparsePlusThin",
    "sylvester_kron_matrix",
    "operator_separation",
    "solve_sylvester",
    "check_factor",
    "compress",
    "KRON_LIMIT",
]

# Largest M*N for which a vectorized MN x MN matrix of the Sylvester
# operator (its solve or its phi functions) may be formed explicitly.
KRON_LIMIT = 4096


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


def rel_error(approx, exact):
    """Frobenius-norm error of ``approx`` relative to ``exact``."""
    exact = np.asarray(exact, dtype=float)
    scale = fro(exact)
    diff = fro(np.asarray(approx, dtype=float) - exact)
    return diff if scale == 0.0 else diff / scale


def vec(x):
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((rows, cols), order="F")


def expm(a):
    """Matrix exponential of a square real matrix.

    Validating wrapper around SciPy's scaling-and-squaring implementation
    with degree-13 diagonal Pade approximants, for raw input.  Kernels that
    exponentiate blocks they assembled from validated coefficients call
    ``scipy.linalg.expm`` directly.
    """
    arr = require_square(as_matrix(a, "expm operand"), "expm operand")
    if arr.size == 0:
        return arr.copy()
    return scipy.linalg.expm(arr)


class SparsePlusThin:
    """The n x n operator A - U B^T: a sparse A plus a thin correction.

    ``a`` is a SciPy sparse matrix, ``u`` and ``bt`` are n x p and p x n
    arrays, and ``norm1`` bounds the 1-norm by ||A||_1 + ||U||_1 ||B^T||_1.
    A product with an n x b block costs about b (nnz(A) + 2 n p) flops
    instead of the b n^2 of the dense matrix.  Scaling by a number scales
    A and U.  The package builds these from validated coefficients, so
    nothing is checked here.
    """

    # NumPy scalars defer to __rmul__ instead of broadcasting over the object.
    __array_ufunc__ = None

    def __init__(self, a, u, bt, norm1):
        self.a = a
        self.u = u
        self.bt = bt
        self.norm1 = norm1

    @property
    def shape(self):
        return self.a.shape

    def __matmul__(self, block):
        out = self.a @ block
        out -= self.u @ (self.bt @ block)
        return out

    def __mul__(self, c):
        return SparsePlusThin(self.a * c, self.u * c, self.bt, abs(c) * self.norm1)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1.0 / c)

    def toarray(self):
        """The dense n x n matrix."""
        return self.a.toarray() - self.u @ self.bt


def _norm1(m):
    """1-norm of a dense matrix, or the bound a SparsePlusThin carries."""
    return m.norm1 if isinstance(m, SparsePlusThin) else np.linalg.norm(m, 1)


# Scaled-Taylor application of exp(M) to a thin block: 22 terms leave a
# remainder below 4e-23 once ||M/2^s||_1 <= 1.  Above the norm limit a
# full exponential is cheaper than the repeated applications.
_TAYLOR_TERMS = 22
_TAYLOR_NORM_LIMIT = 16.0


def _taylor_apply(m, b):
    norm = _norm1(m)
    if norm == 0.0:
        return b.copy()
    s = max(0, int(np.ceil(np.log2(norm))))
    sub = m / (1 << s) if s else m
    out = b
    for _ in range(1 << s):
        term = out
        acc = out.copy()
        for k in range(1, _TAYLOR_TERMS + 1):
            term = sub @ term / k
            acc += term
        out = acc
    return out


def expm_actions(m, taus, b):
    """[exp(tau M) B for tau in taus], sharing work across the tau values.

    ``m`` is a square matrix or a package-built :class:`SparsePlusThin`;
    the chain below only multiplies it with thin blocks and scales it, so
    the structured operator is never formed densely there.  When every tau
    has the same sign and max|tau| ||M||_1 stays modest, the products are
    evaluated along the chain exp(tau' M) B = exp((tau' - tau) M)
    (exp(tau M) B) so each increment only costs a short scaled-Taylor
    application to the thin block.  Outside that regime (mixed signs, or
    norms where intermediate growth would erode accuracy) every tau gets
    its own full exponential, of the operator densified once.  Results
    come back in the order of ``taus``.
    """
    if not isinstance(m, SparsePlusThin):
        m = require_square(as_matrix(m, "matrix"), "matrix")
    b = as_matrix(b, "block")
    if b.shape[0] != m.shape[0]:
        raise DimensionError(
            f"block has {b.shape[0]} rows, matrix is {m.shape[0]} square"
        )
    taus = [float(t) for t in taus]
    if any(not np.isfinite(t) for t in taus):
        raise DomainError("tau values must be finite")
    m_norm = _norm1(m)
    same_sign = all(t >= 0.0 for t in taus) or all(t <= 0.0 for t in taus)
    span = max((abs(t) for t in taus), default=0.0) * m_norm
    if not same_sign or span > _TAYLOR_NORM_LIMIT:
        dense = m.toarray() if isinstance(m, SparsePlusThin) else m
        return [scipy.linalg.expm(t * dense) @ b for t in taus]
    results = [None] * len(taus)
    current = b
    prev = 0.0
    for idx in np.argsort(np.abs(taus)):
        current = _taylor_apply((taus[idx] - prev) * m, current)
        prev = taus[idx]
        results[idx] = current
    return results


def sylvester_kron_matrix(a, d):
    """Matrix of X -> AX + XD acting on the column-stacked vec(X)."""
    a = require_square(as_matrix(a, "A"), "A")
    d = require_square(as_matrix(d, "D"), "D")
    return np.kron(np.eye(d.shape[0]), a) + np.kron(d.T, np.eye(a.shape[0]))


def _separation(la, mu):
    """Smallest |lambda + mu| over two lists of eigenvalues."""
    return float(np.abs(la[:, None] + mu[None, :]).min())


def operator_separation(a, d):
    """Smallest |lambda_i(A) + mu_j(D)| over the two spectra.

    Zero separation means X -> AX + XD is singular.
    """
    return _separation(np.linalg.eigvals(a), np.linalg.eigvals(d))


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


def solve_sylvester(a, d, rhs, method="auto"):
    """Solve the Sylvester equation ``A W + W D = RHS``.

    Parameters
    ----------
    a, d : array_like
        Square coefficients of sizes M and N.  The spectra of A and -D
        must be disjoint for unique solvability.
    rhs : array_like
        M x N right-hand side.
    method : {"auto", "schur", "kron"}
        "schur" reduces A and D^T to real Schur form and back-substitutes
        with LAPACK ``trsyl`` (Bartels-Stewart, the same steps as
        ``scipy.linalg.solve_sylvester``); the separation check reads the
        spectra off the two Schur forms.  "kron" assembles and solves the
        vectorized MN x MN system directly; it is refused above
        M*N = 4096 and doubles as an independent cross-check of the Schur
        route.  "auto" selects "schur".

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
    if method == "auto":
        method = "schur"
    if method not in ("schur", "kron"):
        raise DomainError(f"unknown Sylvester method {method!r}")
    if rhs.size == 0:
        return np.zeros(rhs.shape)

    if method == "schur":
        r, u = scipy.linalg.schur(a, output="real")
        s, v = scipy.linalg.schur(d.T, output="real")
        _check_separation(_separation(_schur_eigenvalues(r), _schur_eigenvalues(s)), a, d)
        f = np.dot(np.dot(u.T, rhs), v)
        trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (r, s, f))
        y, scale, info = trsyl(r, s, f, tranb="C")
        if info < 0:
            raise DomainError(f"trsyl rejected argument {-info}")
        return np.dot(np.dot(u, scale * y), v.T)

    _check_separation(operator_separation(a, d), a, d)
    size = a.shape[0] * d.shape[0]
    if size > KRON_LIMIT:
        raise DomainError(
            f"vectorized solve limited to M*N <= {KRON_LIMIT}, got {size}"
        )
    k = sylvester_kron_matrix(a, d)
    return unvec(np.linalg.solve(k, vec(rhs)), a.shape[0], d.shape[0])


def check_factor(l, core):
    """Validate the pair of a thin factor L and its symmetric core C.

    Both must be finite, C square with as many rows as L has columns, and
    symmetric to 1e-12 relative.  Returns the pair as float arrays.
    """
    l = as_matrix(l, "L")
    core = require_square(as_matrix(core, "core"), "core")
    if l.shape[1] != core.shape[0]:
        raise DimensionError(
            f"factor has {l.shape[1]} columns but core is {core.shape[0]} x {core.shape[1]}"
        )
    if core.size:
        asym = float(np.abs(core - core.T).max())
        if asym > 1e-12 * max(float(np.abs(core).max()), 1e-300):
            raise DomainError(f"core is not symmetric (max asymmetry {asym:.3e})")
    return l, core


def compress(l, core, tol):
    """Truncate a product ``L C L^T`` to a relative tolerance.

    Parameters
    ----------
    l : array_like
        n x r factor.
    core : array_like
        r x r symmetric core; indefinite cores are fine.
    tol : float
        Nonnegative relative tolerance.  The returned pair (L', C')
        satisfies ``||L C L^T - L' C' L'^T||_F <= tol * ||L C L^T||_F``.

    Returns
    -------
    (ndarray, ndarray)
        L' with orthonormal columns (r' <= r of them) and a diagonal C'.

    Notes
    -----
    Thin QR of L followed by a symmetric eigendecomposition of the
    projected core.  Eigenvalues are dropped from the small end while
    both ``|lambda| <= tol * max|lambda|`` and the norm of the dropped
    tail stays within the reconstruction budget ``tol * ||lambda||``;
    exact zero modes are always dropped.
    """
    return _compress_trusted(*check_factor(l, core), tol)


def _compress_trusted(l, core, tol):
    """:func:`compress` for package-built factors, without ``check_factor``."""
    if tol < 0:
        raise DomainError("compression tolerance must be nonnegative")
    if l.shape[1] == 0:
        return l.copy(), core.copy()

    q, r = np.linalg.qr(l)
    mid = r @ ((core + core.T) / 2.0) @ r.T
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
    return q @ u[:, :keep], np.diag(lam[:keep])
