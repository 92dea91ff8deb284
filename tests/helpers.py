"""Shared fixtures-in-spirit: random instances and the oracles the tests
check the package against (vectorized phi functions, scalar phi values,
a long-double exponential, the forward and backward recursions for
sum_j phi_j(hS)(N_j) and the exact polynomial-source flow built on them,
scalar references of the benchmark problem generators) plus the writer of
saved problems."""

import os
from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.linalg import expm as dense_expm

from expriccati import matio
from expriccati.densecore import as_matrix, solve_sylvester
from expriccati.errors import ConfigurationError, DimensionError, DomainError
from expriccati.sylvop import SylvesterOperator, phi_action_augmented


# Largest M*N for which kronecker_phi forms the vectorized MN x MN matrix
# of the Sylvester operator explicitly.
KRON_LIMIT = 4096


def random_stable(rng, n, margin=1.0, scale=1.0):
    """Random matrix with every eigenvalue in the open left half-plane."""
    a = scale * rng.standard_normal((n, n))
    radius = float(np.abs(np.linalg.eigvals(a)).max())
    return a - (radius + margin) * np.eye(n)


def kron_matrix(a, d):
    """Vectorized form of X -> AX + XD (column-stacked convention)."""
    return np.kron(np.eye(d.shape[0]), a) + np.kron(d.T, np.eye(a.shape[0]))


def operator_separation(a, d):
    """Smallest |lambda_i(A) + mu_j(D)| over the two spectra.

    Zero separation means X -> AX + XD is singular.
    """
    la, mu = np.linalg.eigvals(a), np.linalg.eigvals(d)
    return float(np.abs(la[:, None] + mu[None, :]).min())


def vec(x):
    return np.asarray(x).reshape(-1, order="F")


def unvec(v, m, n):
    return np.asarray(v).reshape((m, n), order="F")


def dense_phi(k, mat):
    """phi_k of a square matrix via the nilpotent block augmentation."""
    n = mat.shape[0]
    if k == 0:
        return dense_expm(mat)
    size = n * (k + 1)
    block = np.zeros((size, size))
    block[:n, :n] = mat
    for i in range(k):
        block[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    return dense_expm(block)[:n, k * n:]


def phi_series(k, z, terms=30):
    """Reference phi_k by the plain power series sum_m z^m / (m+k)!."""
    import math

    return sum(z ** m / math.factorial(m + k) for m in range(terms))


def rk4_matrix_ode(rhs, x0, t_end, steps):
    """Classical fixed-step RK4 on a matrix ODE X' = rhs(t, X)."""
    x = np.array(x0, dtype=float)
    h = t_end / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2, x + h / 2 * k1)
        k3 = rhs(t + h / 2, x + h / 2 * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def rel_err(approx, exact):
    exact = np.asarray(exact, dtype=float)
    scale = np.linalg.norm(exact)
    diff = np.linalg.norm(np.asarray(approx, dtype=float) - exact)
    return diff if scale == 0 else diff / scale


def expm_longdouble(a):
    """exp(a) in long double: a 30-term Taylor series of a / 2^s,
    ||a / 2^s||_1 <= 1/2, squared s times, rounded to float64."""
    a = np.asarray(a, dtype=np.longdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm else 0
    sub = a / np.longdouble(2) ** s
    term = out = np.eye(a.shape[0], dtype=np.longdouble)
    for k in range(1, 31):
        term = sub @ term / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out.astype(float)


# Below this magnitude the upward recurrence from exp(z) cancels badly,
# so phi_scalar sums a truncated power series instead.
SERIES_CUTOFF = 0.1
SERIES_TERMS = 25


def phi_scalar(j, z):
    """phi_j at a scalar (real or complex) argument."""
    if j < 0:
        raise DomainError("phi index must be >= 0")
    if j == 0:
        return np.exp(z)
    if abs(z) < SERIES_CUTOFF:
        # Horner on sum_m z^m / (m+j)!
        acc = 1.0 / factorial(SERIES_TERMS - 1 + j)
        for m in range(SERIES_TERMS - 2, -1, -1):
            acc = acc * z + 1.0 / factorial(m + j)
        return acc
    val = np.exp(z)
    for i in range(j):
        val = (val - 1.0 / factorial(i)) / z
    return val


def kronecker_phi(k, operator, h):
    """Dense phi_k of the vectorized operator matrix h (I x A + D^T x I).

    Applying the returned MN x MN matrix to vec(X) and reshaping
    reproduces phi_k(hS)(X).  The matrix is formed explicitly and refused
    above M*N = KRON_LIMIT.  For k >= 1 the value is the top-right block
    of the exponential of the standard nilpotent augmentation of size
    MN (k + 1).
    """
    if k < 0:
        raise DomainError("phi index must be >= 0")
    mn = operator.rows * operator.cols
    if mn > KRON_LIMIT:
        raise DomainError(f"vectorized phi limited to M*N <= {KRON_LIMIT}, got {mn}")
    kmat = kron_matrix(operator.A, operator.D)
    if k == 0:
        return dense_expm(h * kmat)
    size = mn * (k + 1)
    block = np.zeros((size, size))
    block[:mn, :mn] = h * kmat
    for i in range(k):
        r0 = i * mn
        block[r0:r0 + mn, r0 + mn:r0 + 2 * mn] = np.eye(mn)
    return dense_expm(block)[:mn, k * mn:]


@dataclass(frozen=True)
class PhiCombination:
    """Operands of the linear combination sum_{j=0..k} phi_j(hS)(N_j)."""

    operands: tuple
    operator: SylvesterOperator
    h: float

    def __post_init__(self):
        if len(self.operands) == 0:
            raise DomainError("combination needs at least the phi_0 operand")
        shape = (self.operator.rows, self.operator.cols)
        coerced = []
        for idx, op in enumerate(self.operands):
            mat = as_matrix(op, f"operand {idx}")
            if mat.shape != shape:
                raise DimensionError(
                    f"operand {idx} has shape {mat.shape}, expected {shape}"
                )
            coerced.append(mat)
        object.__setattr__(self, "operands", tuple(coerced))

    @property
    def order(self):
        return len(self.operands) - 1


def eval_forward(comb):
    """Evaluate sum_j phi_j(hS)(N_j) by the forward recursion.

    Builds W_0 = N_0, W_j = hS(W_{j-1}) + N_j and returns
    phi_k(hS)(W_k) + sum_{j<k} W_j / j!, so only the single trailing
    phi_k action remains, taken exactly through the augmented block
    exponential.
    """
    op = comb.operator
    k = comb.order
    w = comb.operands[0]
    if k == 0:
        return op.exp_action(comb.h, w)
    low = np.zeros_like(w)
    for j in range(1, k + 1):
        low = low + w / factorial(j - 1)
        w = comb.h * op.apply(w) + comb.operands[j]
    return phi_action_augmented(op, comb.h, k, w) + low


def eval_backward(comb):
    """Evaluate sum_j phi_j(hS)(N_j) by the backward recursion.

    Costs k Sylvester solves with the scaled coefficients (hA, hD) plus a
    single operator exponential: W_k = (hS)^{-1} N_k,
    W_j = (hS)^{-1}(N_j + W_{j+1}), and the value is
    phi_0(hS)(N_0 + W_1) - sum_{j>=1} W_j / (j-1)!.  Requires hS to be
    invertible (disjoint spectra of hA and -hD).
    """
    op = comb.operator
    k = comb.order
    if k == 0:
        return op.exp_action(comb.h, comb.operands[0])
    ha = comb.h * op.A
    hd = comb.h * op.D
    w = solve_sylvester(ha, hd, comb.operands[k])
    corr = w / factorial(k - 1)
    for j in range(k - 1, 0, -1):
        w = solve_sylvester(ha, hd, comb.operands[j] + w)
        corr = corr + w / factorial(j - 1)
    return op.exp_action(comb.h, comb.operands[0] + w) - corr


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


def save_problem(directory, problem):
    """Write the generator files read back by ``problems.load_problem``."""
    if not problem.has_lowrank_generators:
        raise DomainError("only symmetric problems with generators can be saved")
    os.makedirs(directory, exist_ok=True)
    matio.write_matrix_market(os.path.join(directory, "A.mtx"), problem.A)
    matio.write_matrix_market(os.path.join(directory, "B.mtx"), problem.B)
    matio.write_matrix_market(os.path.join(directory, "C.mtx"), problem.C)
    if problem.L0 is not None and problem.L0.shape[1]:
        matio.write_matrix_market(os.path.join(directory, "L0.mtx"), problem.L0)
        matio.write_matrix_market(os.path.join(directory, "D0.mtx"), problem.D0)


def compress_forming_q(l, d, tol):
    """Reference compression of L diag(d) L^T that forms the thin Q of L.

    ``np.linalg.qr`` gives Q and R; the eigenvectors of R diag(d) R^T kept
    by the drop rule of ``densecore.compress`` are mapped back by Q.
    Returns the kept factor and eigenvalues, largest magnitude first.
    """
    q, r = np.linalg.qr(l)
    mid = (r * d) @ r.T
    lam, u = np.linalg.eigh((mid + mid.T) / 2.0)
    order = np.argsort(-np.abs(lam))
    lam, u = lam[order], u[:, order]
    mags = np.abs(lam)
    tail = np.sqrt(np.cumsum(lam[::-1] ** 2))[::-1]
    drop = (mags <= tol * mags.max(initial=0.0)) & (tail <= tol * np.linalg.norm(lam))
    keep = lam.size - int(np.count_nonzero(drop))
    return q @ u[:, :keep], lam[:keep]


_MASK64 = (1 << 64) - 1


def splitmix64_reference(n, r, seed):
    """Reference ``random_lowrank``: the stateful SplitMix64 stream, one
    Python-int word per entry, filled column-major."""
    state = seed & _MASK64
    vals = []
    for _ in range(n * r):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        vals.append(((z >> 11) + 0.5) * 2.0 ** -53)
    return np.array(vals, dtype=float).reshape((n, r), order="F")


def fdm2d_reference(k, fx=None, fy=None):
    """Reference ``fdm2d_matrix``: the 5-point stencil, one grid point at a
    time with a bounds check per neighbour."""
    spacing = 1.0 / (k + 1)
    fx = fx or (lambda x, y: 0.0)
    fy = fy or (lambda x, y: 0.0)
    inv_h2 = 1.0 / spacing ** 2
    inv_2h = 1.0 / (2.0 * spacing)
    a = np.zeros((k * k, k * k))
    for j in range(k):
        y = (j + 1) * spacing
        for i in range(k):
            x = (i + 1) * spacing
            p = j * k + i
            a[p, p] = -4.0 * inv_h2
            cx = fx(x, y) * inv_2h
            cy = fy(x, y) * inv_2h
            if i + 1 < k:
                a[p, p + 1] = inv_h2 - cx
            if i > 0:
                a[p, p - 1] = inv_h2 + cx
            if j + 1 < k:
                a[p, p + k] = inv_h2 - cy
            if j > 0:
                a[p, p - k] = inv_h2 + cy
    return a
