"""Reference solutions of the Riccati flow.

The Riccati flow linearizes exactly: with

    [U; V]' = H [U; V],   H = [[-D, G], [Q, A]],   U(0) = I,  V(0) = X0,

the solution is X(t) = V(t) U(t)^{-1}.  Over an interval tau the flow map
X -> (Phi21 + Phi22 X)(Phi11 + Phi12 X)^{-1}, Phi = exp(tau H), is held as

    M(X) = P + Psi X (I + Gamma X)^{-1} Lam,

read off one exponential at tau = t / 2^s, with s the fewest halvings
that give |tau| ||H||_1 <= 1.  Then s doublings M <- M o M, each with
one LU of an N x N matrix (the structure-preserving doubling of Chu, Fan
& Lin, Linear Algebra Appl. 396, 2005), give the map at t: the cost
grows with log(|t| ||H||_1), and no state is extracted on the way.  The
map stays regular where X(t) has a pole, so a pole is passed and the
result is its meromorphic continuation, unless one of the solves
degenerates.

``cond_max`` bounds the LAPACK ``gecon`` 1-norm condition estimate of
every matrix factored: Phi11, each I + Gamma P of the doublings, and the
final I + Gamma X0.  Beyond it, or on a non-finite value, the call raises
FiniteEscapeError: a finite escape near a doubling level or the end, or a
bound too tight for this flow.
"""

import math

import numpy as np
import scipy.linalg

from .densecore import as_matrix
from .errors import DomainError, FiniteEscapeError

__all__ = ["radon_solve", "radon_trajectory"]


def _inverse(a, cond_max):
    """``a^{-1}`` from one LU whose condition estimate is at most ``cond_max``."""
    anorm = np.linalg.norm(a, 1)
    getrf, getri, getri_lwork, gecon = scipy.linalg.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork", "gecon"), (a,)
    )
    lu, piv, info = getrf(a)
    rcond = gecon(lu, anorm, norm="1")[0] if info == 0 and np.isfinite(anorm) else 0.0
    if not rcond * cond_max >= 1.0:  # also refuses a NaN estimate
        raise FiniteEscapeError(
            f"a flow-map solve had a condition estimate above cond_max = {cond_max!r} "
            f"or a non-finite value: a finite escape, or a bound too tight for this flow"
        )
    # getri and a product took half the time of getrs's triangular solves
    # at N = 400 with 2N right-hand sides (one OpenBLAS thread)
    return getri(lu, piv, lwork=int(getri_lwork(a.shape[0])[0]))[0]


def _flow_map(h_matrix, n, span, cond_max):
    """(P, Psi, Gamma, Lam) of the flow map over ``span``; ``n`` is the size of D."""
    # the fewest halvings s with |span| ||H||_1 <= 2^s
    mantissa, exponent = math.frexp(abs(span) * np.linalg.norm(h_matrix, 1))
    halvings = max(0, exponent - (mantissa == 0.5))
    phi = scipy.linalg.expm(math.ldexp(span, -halvings) * h_matrix)
    lam = _inverse(phi[:n, :n], cond_max)
    gamma = lam @ phi[:n, n:]
    p = phi[n:, :n] @ lam
    psi = phi[n:, n:] - phi[n:, :n] @ gamma
    for _ in range(halvings):
        # M <- M o M: every update is a product with W^{-1}, W = I + Gamma P
        w_inv = _inverse(np.eye(n) + gamma @ p, cond_max)
        lam_w, psi_p_w = lam @ w_inv, psi @ (p @ w_inv)
        p, psi, gamma, lam = (
            p + psi_p_w @ lam,
            (psi - psi_p_w @ gamma) @ psi,
            gamma + (lam_w @ gamma) @ psi,
            lam_w @ lam,
        )
    return p, psi, gamma, lam


def _apply(flow_map, x, cond_max):
    p, psi, gamma, lam = flow_map
    out = p + psi @ (x @ (_inverse(np.eye(x.shape[1]) + gamma @ x, cond_max) @ lam))
    if not np.all(np.isfinite(out)):
        raise FiniteEscapeError("the flow map overflowed: a finite escape")
    return out


def radon_solve(problem, t, cond_max=1e4):
    """Reference solution of the Riccati flow at time ``t`` (negative allowed).

    One exponential of H = [[-D, G], [Q, A]] at t / 2^s, |t / 2^s| ||H||_1
    <= 1, and s doublings of the flow map it gives, applied to X0 (see the
    module docstring).  A pole of X before ``t`` is passed, giving the
    meromorphic continuation, unless a solve degenerates.

    ``cond_max`` bounds the 1-norm condition estimate of every LU the
    call factors: Phi11 = exp(t / 2^s H)[:N, :N], I + Gamma P at each
    doubling and the final I + Gamma X0.  A solve beyond it, or a
    non-finite value, raises FiniteEscapeError: the numerical signature
    of a Riccati blow-up, or of a bound too tight for the flow.  No
    refinement is tried.  A bound below 1 (or NaN) is refused: no
    factorization could meet it.
    """
    return radon_trajectory(problem, [t], cond_max)[0]


def radon_trajectory(problem, times, cond_max=1e4):
    """Reference states at nondecreasing finite times (starting anywhere).

    Each state is the previous one carried by the flow map over the
    interval between them; one map is built per distinct interval length
    of the call, so an equally spaced sweep costs one exponential.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if times.size and np.any(np.diff(times) < 0):
        raise DomainError("times must be nondecreasing")
    # A 1-norm condition number is at least 1, so a lower bound could
    # never be met; NaN fails every comparison and would be no guard.
    if not cond_max >= 1.0:
        raise DomainError(f"cond_max must be >= 1, got {cond_max!r}")
    h_matrix = np.block([[-problem.D, problem.G], [problem.Q, problem.A]])
    n = problem.D.shape[0]
    maps = {}
    out = []
    x = as_matrix(problem.X0, "X0").copy()
    current = 0.0
    for t in times:
        span = t - current
        if span != 0.0:
            if span not in maps:
                maps[span] = _flow_map(h_matrix, n, span, cond_max)
            x = _apply(maps[span], x, cond_max)
        current = t
        out.append(x)
    return out
