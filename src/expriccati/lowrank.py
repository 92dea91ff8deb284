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

# ``perfbench/tracing.py`` hooks ``expriccati.lowrank.compress``.
from .densecore import as_matrix, compress, require_square
from .errors import ConfigurationError, DimensionError, DomainError

__all__ = [
    "LdlFactor",
    "assemble_rhs",
    "assemble_remainder_diff",
    "assemble_phi_sum",
    "concat_update",
]


def check_factor(l, core):
    """Validate a thin factor L with its symmetric core C, and diagonalize C.

    Both finite; C is square, one row per column of L and symmetric to
    1e-12 relative, or the vector of a diagonal core.  Returns float
    (L', d) with L' diag(d) L'^T = L C L^T: a diagonal C as its diagonal
    with L bit for bit unchanged, any other C = V diag(d) V^T as (L V, d).
    This is the only place where the package accepts a full core.
    """
    l = as_matrix(l, "L")
    diagonal = np.ndim(core) == 1
    core = as_matrix(core, "core")
    core = core[0] if diagonal else require_square(core, "core")
    if l.shape[1] != core.shape[0]:
        raise DimensionError(f"factor has {l.shape[1]} columns but core has shape {core.shape}")
    if diagonal:
        return l, core
    asym = float(np.abs(core - core.T).max(initial=0.0))
    if asym > 1e-12 * max(float(np.abs(core).max(initial=0.0)), 1e-300):
        raise DomainError(f"core is not symmetric (max asymmetry {asym:.3e})")
    d = np.diagonal(core).copy()
    if np.array_equal(core, np.diag(d)):
        return l, d
    d, v = np.linalg.eigh(core)
    return l @ v, d


class LdlFactor:
    """Thin factorization X = L diag(d) L^T with a small diagonal core.

    The core is held as the vector d; ``core`` forms the matrix diag(d)
    on first read.  The constructor takes L with a symmetric core C, a
    matrix or the vector of a diagonal, through ``check_factor``; factors
    the package assembles from validated ones are built by ``_trusted``.
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
        within the absolute ``floor`` (see ``densecore.compress``)."""
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


# Share of the relative tolerance that a phi update may spend on its
# operand before the exponential actions (``_operand_floor``).  0.1 was
# chosen when a pre-QR drop of stack columns shared it and was not re-tuned
# when that drop went.  With the operand truncated at 0.1 the compressions
# of the n = 400 Krylov run took 15.9k instead of 36.9k columns in (seed
# 20240) at the same final error; at 1.0 the worst final error of both
# low-rank schemes on fdm-sym:k=8 over five seeds rose from 1.09e-14 to
# 1.71e-14, 0.2 digits.
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
    sum of ``state`` (the base, X_b) and ``update`` (X_u).  The
    compression's eigenvalue drop decides which parts of the sum lie
    within ``tol``.
    """
    if update.dim != state.dim:
        raise DimensionError(
            f"factor dimensions differ: {state.dim} versus {update.dim}"
        )
    if update.rank == 0:
        return state
    big = np.hstack([state.L, update.L])
    return LdlFactor._from_compressed(
        *compress(big, np.concatenate([state._core, update._core]), tol)
    )
