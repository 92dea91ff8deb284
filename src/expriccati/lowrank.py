"""LDL^T-factored states and the factored right-hand-side assemblies.

Symmetric Riccati problems with thin generators never need the full dense
state: the right-hand side, the quadrature images and the step update all
stay products of a thin factor with a small symmetric (possibly
indefinite) core.  Column compression after each concatenation keeps the
factor width bounded.  Every core is diagonal and travels as the vector
of its diagonal: a full core given to the constructor is diagonalized
once by ``check_factor``, the right-hand side is assembled in diagonal
form, a compression returns a diagonal core and the node stack scales
it.
"""

from functools import cached_property
from math import factorial

import numpy as np

from .densecore import check_factor
# Factors built here come from validated pieces, so they are compressed
# without the public ``compress``'s re-check.  The name stays ``compress``:
# ``perfbench/tracing.py`` hooks ``expriccati.lowrank.compress``.
from .densecore import _compress_trusted as compress
from .errors import ConfigurationError, DimensionError, DomainError

__all__ = [
    "LdlFactor",
    "assemble_rhs",
    "assemble_remainder_diff",
    "assemble_phi_sum",
    "concat_update",
]


class LdlFactor:
    """Thin factorization X = L diag(d) L^T with a small diagonal core.

    The core is held as the vector d; ``core`` forms the matrix diag(d)
    on first read.  The constructor takes L with a symmetric core C, as a
    matrix or as the vector of a diagonal, which ``check_factor``
    validates and diagonalizes: a diagonal C keeps L as given, any other
    C = V diag(d) V^T stores L V.  Factors the package assembles from
    validated ones are built by ``_trusted`` without the re-check.
    """

    def __init__(self, L, core):
        self.L, self._core = check_factor(L, core)

    @classmethod
    def _trusted(cls, l, d):
        factor = object.__new__(cls)
        factor.L, factor._core = l, d
        return factor

    @classmethod
    def _from_compressed(cls, l, d):
        """Factor of a ``compress`` result: L has orthonormal columns, so the
        core vector d is the nonzero spectrum."""
        factor = cls._trusted(l, d)
        factor.__dict__["_projected_eigenvalues"] = d
        return factor

    @classmethod
    def zero(cls, dim):
        return cls._trusted(np.zeros((dim, 0)), np.zeros(0))

    @property
    def dim(self):
        return self.L.shape[0]

    @property
    def rank(self):
        return self.L.shape[1]

    @cached_property
    def core(self):
        """The core as the r x r matrix diag(d)."""
        return np.diag(self._core)

    def reconstruct(self):
        """Dense L diag(d) L^T."""
        return (self.L * self._core) @ self.L.T

    def apply(self, b):
        """X b = L (d * (L^T b)) without forming X."""
        return self.L @ (self._core[:, None] * (self.L.T @ b))

    def is_finite(self):
        return bool(np.all(np.isfinite(self.L)) and np.all(np.isfinite(self._core)))

    def compressed(self, tol, floor=0.0):
        """The factor compressed at ``tol``, less its modes whose tail lies
        within the absolute ``floor`` (see ``_compress_trusted``)."""
        return LdlFactor._from_compressed(*compress(self.L, self._core, tol, floor))

    @cached_property
    def _projected_eigenvalues(self):
        """Nonzero spectrum of L diag(d) L^T, computed once per factor."""
        if self.rank == 0:
            return np.zeros(0)
        r = np.linalg.qr(self.L, mode="r")
        mid = (r * self._core) @ r.T
        return np.linalg.eigvalsh((mid + mid.T) / 2.0)

    def fnorm(self):
        """||L diag(d) L^T||_F without forming the dense product."""
        return float(np.linalg.norm(self._projected_eigenvalues))

    def min_eigenvalue(self):
        """Smallest eigenvalue of the represented matrix."""
        lam = self._projected_eigenvalues
        smallest = float(lam.min()) if lam.size else 0.0
        if self.rank < self.dim:
            smallest = min(smallest, 0.0)
        return smallest


def _require_generators(problem):
    if not problem.has_lowrank_generators:
        raise ConfigurationError(
            "low-rank assemblies need a symmetric problem with the generators "
            "C (of Q) and B (of G)"
        )


def assemble_rhs(problem, state):
    """Factored Riccati right-hand side at a factored state, diagonal core.

    For X = L diag(c) L^T,  F = C^T C + A X + X A^T - X B B^T X  equals
    C^T C + U L^T + L U^T  with

        U = (A L) diag(c) - 1/2 L K K^T,     K = diag(c) L^T B,

    and  U L^T + L U^T = 1/2 P P^T - 1/2 M M^T  for P = U Lam^-1 + L Lam
    and M = U Lam^-1 - L Lam.  The balancing Lam = diag(alpha_i),
    alpha_i = sqrt(||u_i|| / ||l_i||) (1 where either norm is 0), makes
    ||p_i|| and ||m_i|| about sqrt(||u_i|| ||l_i||), so the cancellation
    between P P^T and M M^T stays at the scale of the result however far
    ||A L|| and ||L|| lie apart.  The factor is [C^T, P, M] with the core
    vector [1..., 1/2..., -1/2...], exact up to roundoff and not
    compressed.  A L takes the CSR copy of A where the problem keeps one
    (n >= 196 on fdm).
    """
    _require_generators(problem)
    l, c = state.L, state._core
    if l.shape[0] != problem.M:
        raise DimensionError(f"state lives in dimension {l.shape[0]}, problem in {problem.M}")
    ct = problem.C.T
    sparse = problem._sparse_coefficient
    al = (problem.A if sparse is None else sparse[0]) @ l
    k = c[:, None] * (l.T @ problem.B)
    u = al * c - 0.5 * ((l @ k) @ k.T)
    l_norms, u_norms = (np.sqrt(np.einsum("ij,ij->j", m, m)) for m in (l, u))
    both = (l_norms > 0.0) & (u_norms > 0.0)
    alpha = np.sqrt(np.divide(u_norms, l_norms, out=np.ones_like(l_norms), where=both))
    u, l = u / alpha, l * alpha
    nl, r = ct.shape[1], l.shape[1]
    core = np.concatenate([np.ones(nl), np.full(r, 0.5), np.full(r, -0.5)])
    return LdlFactor._trusted(np.hstack([ct, u + l, u - l]), core)


def assemble_remainder_diff(problem, state, stage):
    """Factored nonlinear-remainder difference between a state and a stage.

    With the linearization taken at ``state``, the remainder difference at
    ``stage`` equals  X G Y + Y G X - Y G Y - X G X = -(X - Y) G (X - Y)
    (X the state, Y the stage), which for G = B B^T is W (-I) W^T with
    W = (X - Y) B = L_x (C_x L_x^T B) - L_y (C_y L_y^T B), one column per
    column of B.  Subtracting the factors before any product keeps the
    cancellation between X and Y out of the core.
    """
    _require_generators(problem)
    if state.dim != stage.dim:
        raise DimensionError(f"factor dimensions differ: {state.dim} versus {stage.dim}")
    diff = state.apply(problem.B) - stage.apply(problem.B)
    return LdlFactor._trusted(diff, -np.ones(problem.B.shape[1]))


def assemble_phi_sum(exp_actions, h, k, factor, rule, coeff):
    """Stack quadrature-node exponential images of a factor.

    Builds Y = [E(tau_0) L, ..., E(tau_p) L] with tau_j = (1 - s_j) h >= 0
    and the diagonal core [gamma_0 d, ..., gamma_p d], gamma_j = coeff w_j
    s_j^(k-1) / (k-1)!, so that Y diag(gamma_j d) Y^T approximates
    coeff * phi_k(hS)(L diag(d) L^T) under the symmetric pairing (the
    right exponentials are the transposes of the left ones).

    ``exp_actions`` maps (list of tau >= 0, block) to the list of
    exp(tau A_lin) block products; it is either a dense exponential
    provider or a block Krylov one, so the same assembly serves both.
    Only k = 1 (gamma_j = coeff w_j) and k = 3 (gamma_j = coeff w_j
    s_j^2 / 2) ever occur in the steppers and other orders are refused.
    """
    if k not in (1, 3):
        raise DomainError(f"phi order must be 1 or 3, got {k}")
    if h == 0.0 or coeff == 0.0 or factor.rank == 0:
        return LdlFactor.zero(factor.dim)
    l, d = factor.L, factor._core
    taus = [(1.0 - s) * h for s in rule.nodes]
    images = exp_actions(taus, l)
    gammas = [
        coeff * w * s ** (k - 1) / factorial(k - 1)
        for s, w in zip(rule.nodes, rule.weights)
    ]
    return LdlFactor._trusted(np.hstack(list(images)), np.concatenate([g * d for g in gammas]))


# Share of the relative tolerance that a phi update may spend on update
# columns dropped before the QR: operand modes (``_operand_floor``) and
# stack columns (``concat_update``).  On the n = 400 Krylov run 0.1 passes
# 13.4k of 37.1k stack columns on to the QR (0.01: 18.0k of 35.0k) at the
# same final error to 5 digits; its steps took 11-25% less time than with
# 0.01 in six of seven runs (2-core host, one BLAS thread).  At 1.0 the
# worst final error of both low-rank schemes on fdm-sym:k=8 over five seeds
# rose from 1.09e-14 to 1.71e-14, 0.2 digits.
_PREDROP_SHARE = 0.1


def _operand_floor(base_norm, k, coeff, tol):
    """Operand norm that base + coeff phi_k(hS)(operand) cannot resolve
    against a base of Frobenius norm ``base_norm``.

    The node stack's weights sum to coeff / k!, and ||exp(tau A_lin)|| <= 1
    for a dissipative A_lin, so an operand part of Frobenius norm e moves
    the update by at most about |coeff| e / k!.  Below the floor
    share tol ``base_norm`` k! / |coeff| (share = ``_PREDROP_SHARE``) that
    is at most share tol ``base_norm``.  The floor is absolute: it does not
    shrink with ||operand||, which tends to 0 near a steady state while the
    base does not.  Both realizations of a scheme take it: the low-rank
    update compresses its operand down to it (dropping the operand whole
    when its norm lies below), and Erow3Dense skips a phi_3 correction
    whose operand lies below it.  A non-finite floor, or a zero coeff,
    gives 0, which drops nothing.
    """
    floor = _PREDROP_SHARE * tol * base_norm * factorial(k) / abs(coeff) if coeff else 0.0
    return floor if np.isfinite(floor) else 0.0


def concat_update(state, update, tol):
    """Concatenate two factors and re-compress at ``tol``.

    Returns X' with ``||X - X'||_F <= tol ||X||_F`` for X = X_b + X_u, the
    sum of ``state`` (the base, X_b) and ``update`` (X_u = L diag(d) L^T).

    Before the compression, update columns whose contribution is provably
    negligible are dropped:

    - Column i weighs w_i = |d_i| ||l_i||^2.  Removing a set D of columns
      changes X by at most E = sum_{i in D} w_i.
    - nu = max(||X_b||_F - sum_i w_i, ||diag(X)||_2, 0) <= ||X||_F, since
      ||X_u||_F <= sum_i w_i.  ||X_b||_F is the norm of the base's
      spectrum, which a compressed base carries.
    - The smallest-weight columns are dropped while E <= share tol nu
      (share = ``_PREDROP_SHARE``), and the rest is compressed at
      tol' = (tol nu - E) / (nu + E).  Then ||X - X'||_F <= E +
      tol' (||X||_F + E) <= tol ||X||_F, because (tol x - E) / (x + E)
      grows with x.

    Exact zero columns (w_i = 0) are dropped at any tolerance.
    """
    if update.dim != state.dim:
        raise DimensionError(
            f"factor dimensions differ: {state.dim} versus {update.dim}"
        )
    if update.rank == 0:
        return state
    sl, sd = state.L, state._core
    ul, ud = update.L, update._core
    norms = np.sqrt(np.einsum("ij,ij->j", ul, ul))
    weights = norms * (np.abs(ud) * norms)
    x_diag = (sl * sl) @ sd + (ul * ul) @ ud
    nu = max(state.fnorm() - float(weights.sum()), float(np.linalg.norm(x_diag)), 0.0)
    order = np.argsort(weights)
    bound = np.cumsum(weights[order])
    dropped = 0
    # A non-finite update is kept whole, so that ``compress`` reports it.
    if np.isfinite(bound[-1]) and np.isfinite(nu):
        dropped = int(np.searchsorted(bound, _PREDROP_SHARE * tol * nu, side="right"))
    if dropped:
        keep = np.sort(order[dropped:])
        ul, ud = ul[:, keep], ud[keep]
        err = float(bound[dropped - 1])
        if err > 0.0:
            tol = (tol * nu - err) / (nu + err)
    big = np.hstack([sl, ul])
    return LdlFactor._from_compressed(*compress(big, np.concatenate([sd, ud]), tol))
