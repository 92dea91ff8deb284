"""LDL^T-factored states and the factored right-hand-side assemblies.

Symmetric Riccati problems with thin generators never need the full dense
state: the right-hand side, the quadrature images and the step update all
stay products of a thin factor with a small symmetric (possibly
indefinite) core.  Column compression after each concatenation keeps the
factor width bounded.
"""

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class LdlFactor:
    """Thin factorization X = L C L^T with a small symmetric core C.

    The constructor validates its input; factors the package assembles
    from validated ones are built by ``_trusted`` without the re-check.
    """

    L: np.ndarray
    core: np.ndarray

    def __post_init__(self):
        l, core = check_factor(self.L, self.core)
        object.__setattr__(self, "L", l)
        object.__setattr__(self, "core", core)

    @classmethod
    def _trusted(cls, l, core):
        factor = object.__new__(cls)
        object.__setattr__(factor, "L", l)
        object.__setattr__(factor, "core", core)
        return factor

    @classmethod
    def zero(cls, dim):
        return cls._trusted(np.zeros((dim, 0)), np.zeros((0, 0)))

    @property
    def dim(self):
        return self.L.shape[0]

    @property
    def rank(self):
        return self.L.shape[1]

    def reconstruct(self):
        """Dense L C L^T."""
        return self.L @ self.core @ self.L.T

    def compressed(self, tol):
        return LdlFactor._trusted(*compress(self.L, self.core, tol))

    @cached_property
    def _projected_eigenvalues(self):
        """Nonzero spectrum of L C L^T, computed once per factor."""
        if self.rank == 0:
            return np.zeros(0)
        r = np.linalg.qr(self.L)[1]
        mid = r @ self.core @ r.T
        return np.linalg.eigvalsh((mid + mid.T) / 2.0)

    def fnorm(self):
        """||L C L^T||_F without forming the dense product."""
        return float(np.linalg.norm(self._projected_eigenvalues))

    def min_eigenvalue(self):
        """Smallest eigenvalue of the represented matrix."""
        lam = self._projected_eigenvalues
        smallest = float(lam.min()) if lam.size else 0.0
        if self.rank < self.dim:
            smallest = min(smallest, 0.0)
        return smallest


def _require_generators(problem):
    if not getattr(problem, "symmetric", False):
        raise ConfigurationError("low-rank assemblies need a symmetric problem")
    if problem.C is None or problem.B is None:
        raise ConfigurationError(
            "low-rank assemblies need the generators C (of Q) and B (of G)"
        )


def assemble_rhs(problem, state):
    """Factored Riccati right-hand side at a factored state.

    For X = L C_x L^T the value  C^T C + A X + X A^T - X B B^T X  equals
    Lt Ct Lt^T with Lt = [C^T, A L, L] and the block core

        [[I, 0,   0         ],
         [0, 0,   C_x       ],
         [0, C_x, -K K^T    ]],     K = C_x L^T B.

    The reconstruction is exact; no compression is applied here.
    """
    _require_generators(problem)
    l = state.L
    cx = state.core
    if l.shape[0] != problem.A.shape[0]:
        raise DimensionError(
            f"state lives in dimension {l.shape[0]}, problem in {problem.A.shape[0]}"
        )
    ct = problem.C.T
    al = problem.A @ l
    k = cx @ (l.T @ problem.B)
    nl, r = ct.shape[1], l.shape[1]
    big = np.hstack([ct, al, l])
    core = np.zeros((nl + 2 * r, nl + 2 * r))
    core[:nl, :nl] = np.eye(nl)
    core[nl:nl + r, nl + r:] = cx
    core[nl + r:, nl:nl + r] = cx
    core[nl + r:, nl + r:] = -k @ k.T
    return LdlFactor._trusted(big, core)


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
        raise DimensionError(
            f"factor dimensions differ: {state.dim} versus {stage.dim}"
        )
    xb = state.L @ (state.core @ (state.L.T @ problem.B))
    yb = stage.L @ (stage.core @ (stage.L.T @ problem.B))
    return LdlFactor._trusted(xb - yb, -np.eye(problem.B.shape[1]))


def assemble_phi_sum(exp_actions, h, k, factor, rule, coeff):
    """Stack quadrature-node exponential images of a factor.

    Builds Y = [E(tau_0) L, ..., E(tau_p) L] with tau_j = (1 - s_j) h and
    the block-diagonal core of gamma_j C, gamma_j = coeff w_j s_j^(k-1) /
    (k-1)!, so that Y diag(gamma_j C) Y^T approximates
    coeff * phi_k(hS)(L C L^T) under the symmetric pairing (the right
    exponentials are the transposes of the left ones).

    ``exp_actions`` maps (list of tau, block) to the list of
    exp(tau A_lin) block products; it is either a dense exponential
    provider or a block Krylov one, so the same assembly serves both.
    Only k = 1 (gamma_j = coeff w_j) and k = 3 (gamma_j = coeff w_j
    s_j^2 / 2) ever occur in the steppers and other orders are refused.
    """
    if k not in (1, 3):
        raise DomainError(f"phi order must be 1 or 3, got {k}")
    if h == 0.0 or coeff == 0.0 or factor.rank == 0:
        return LdlFactor.zero(factor.dim)
    taus = [(1.0 - s) * h for s in rule.nodes]
    images = exp_actions(taus, factor.L)
    gammas = [
        coeff * w * s ** (k - 1) / factorial(k - 1)
        for s, w in zip(rule.nodes, rule.weights)
    ]
    big = np.hstack(list(images))
    core = scipy.linalg.block_diag(*[g * factor.core for g in gammas])
    return LdlFactor._trusted(big, core)


def concat_update(state, update, tol):
    """Concatenate two factors and re-compress at ``tol``."""
    if update.dim != state.dim:
        raise DimensionError(
            f"factor dimensions differ: {state.dim} versus {update.dim}"
        )
    if update.rank == 0:
        return state
    big = np.hstack([state.L, update.L])
    core = scipy.linalg.block_diag(state.core, update.core)
    return LdlFactor._trusted(*compress(big, core, tol))
