"""Reference solutions of the Riccati flow.

The Riccati flow linearizes exactly: with

    [U; V]' = [[-D, G], [Q, A]] [U; V],   U(0) = I,  V(0) = X0,

the solution is X(t) = V(t) U(t)^{-1} as long as U stays invertible.
Propagating the block system with a cached matrix exponential over equal
substeps, and renormalizing U to the identity after every substep,
yields a reference of near machine accuracy that is independent of the
integrators under test.
"""

import warnings

import numpy as np
import scipy.linalg

from .densecore import as_matrix
from .errors import DomainError, FiniteEscapeError

__all__ = ["radon_solve", "radon_trajectory"]

# Keep ||dt H||_1 at most this large before even attempting a propagator;
# avoids pointless exponentials that would overflow anyway.
_NORM_GUARD = 24.0
# Most halvings of an interval for the norm guard, and most that
# conditioning may force beyond those.  Each doubles the work: uncapped,
# cond_max = 1.0001 took 524 305 extractions on fdm-sym:k=2.  The fdm problems
# need at most 3 (k = 3-10 at t <= 1 with cond_max 1e2 and 1e4).
_MAX_HALVINGS = 40
_MAX_COND_HALVINGS = 8


def _flow_matrix(problem):
    return np.block([[-problem.D, problem.G], [problem.Q, problem.A]])


def _condition_estimate(lu, anorm):
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, _ = gecon(lu, anorm, norm="1")
    return np.inf if rcond == 0.0 else 1.0 / rcond


def _propagate(block, x, cond_max):
    """One substep: apply the propagator block and extract the new state.

    Returns None when the extraction is too ill-conditioned (or produced
    non-finite values), signalling the caller to refine the substep.
    """
    n = x.shape[1]
    u = block[:n, :n] + block[:n, n:] @ x
    v = block[n:, :n] + block[n:, n:] @ x
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exactly-singular U is a refine signal
        try:
            lu, piv = scipy.linalg.lu_factor(u, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError):
            return None
    if not np.all(np.isfinite(lu)):
        return None
    if _condition_estimate(lu, np.linalg.norm(u, 1)) > cond_max:
        return None
    # X_next = V U^{-1}, via U^T applied from the left to V^T.
    return scipy.linalg.lu_solve((lu, piv), v.T, trans=1, check_finite=False).T


class _FlowPropagator:
    """Adaptive equal-substep propagation of the linearized flow.

    The substep count per requested interval is a power of two; it only
    grows, and the propagator exponential is cached per substep size, so
    repeated intervals of the same length cost matrix products only.
    """

    def __init__(self, problem, cond_max):
        # A 1-norm condition number is at least 1, so a lower bound could
        # never be met; NaN fails every comparison and would be no guard.
        if not cond_max >= 1.0:
            raise DomainError(f"cond_max must be >= 1, got {cond_max!r}")
        self.h_matrix = _flow_matrix(problem)
        self.h_norm = np.linalg.norm(self.h_matrix, 1)
        self.cond_max = cond_max
        self.depth = 0
        self._cache = {}

    def _propagator(self, dt):
        if dt not in self._cache:
            self._cache.clear()  # only the current substep size is ever reused
            self._cache[dt] = scipy.linalg.expm(dt * self.h_matrix)
        return self._cache[dt]

    def advance(self, x, span):
        if span == 0.0:
            return x
        guard = 0
        while guard < _MAX_HALVINGS and abs(span) * self.h_norm / (1 << guard) > _NORM_GUARD:
            guard += 1
        self.depth = max(self.depth, guard)
        steps_left = 1 << self.depth
        dt = span / steps_left
        while steps_left > 0:
            nxt = _propagate(self._propagator(dt), x, self.cond_max)
            if nxt is None:
                if self.depth - guard >= _MAX_COND_HALVINGS:
                    raise FiniteEscapeError(
                        f"flow extraction stayed non-finite or above cond_max = "
                        f"{self.cond_max!r} after {_MAX_COND_HALVINGS} halvings beyond the "
                        f"norm guard: a finite escape, or a bound too tight for this flow"
                    )
                self.depth += 1
                steps_left *= 2
                dt /= 2.0
                continue
            x = nxt
            steps_left -= 1
        return x


def radon_solve(problem, t, cond_max=1e4):
    """Reference solution of the Riccati flow at time ``t``.

    Propagates the linear block system from [I; X0] and extracts
    X = V U^{-1}; the interval is split into 2^d equal substeps with d
    raised until the extraction stays well-conditioned (1-norm condition
    of U below ``cond_max``) and finite, restarting from the propagated
    state after every substep.  Raises FiniteEscapeError when 8 halvings
    beyond the depth that keeps ||dt H||_1 <= 24 are not enough: the
    numerical signature of a Riccati blow-up, or of a ``cond_max`` too
    tight for the flow.

    ``cond_max`` trades substep count for accuracy: the extraction loses
    roughly eps * cond(U) per substep.  The default keeps the reference
    around 1e-11 relative accuracy on stable problems.  A bound below 1
    (or NaN) is refused: no extraction could meet it.
    """
    return radon_trajectory(problem, [t], cond_max)[0]


def radon_trajectory(problem, times, cond_max=1e4):
    """Reference states at nondecreasing finite times (starting anywhere).

    One flow propagator is shared across the whole sweep so equal spacing
    reuses a single cached exponential.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if times.size and np.any(np.diff(times) < 0):
        raise DomainError("times must be nondecreasing")
    flow = _FlowPropagator(problem, cond_max)
    out = []
    x = as_matrix(problem.X0, "X0").copy()
    current = 0.0
    for t in times:
        x = flow.advance(x, t - current)
        current = t
        out.append(x)
    return out
