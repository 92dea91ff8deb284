"""Property tests of compression, the factored assemblies and the
exponential actions.

Instances are drawn from a seeded NumPy generator: hypothesis picks the
sizes, the seed, the spread of the core spectrum and the tolerance, and
shrinks failures towards small dimensions and ranks (rank 0 included).
The vectorized drop rule of ``compress`` is also checked against a plain
loop over the eigenvalues, which must keep the same number of columns.
The exponential actions on a sparse-plus-thin operator are checked
against a full exponential of its dense matrix, on the Taylor chain, its
full-exponential fallback and mixed-sign times, and through the
semigroup identity.  Without the quadratic term (G = 0) one step of each
dense scheme must reproduce the exact flow of the vectorized operator.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from expriccati.densecore import SparsePlusThin, compress, expm_actions, unvec, vec
from expriccati.integrators import _SCHEME_STEPS, IntegratorConfig, RiccatiProblem
from expriccati.lowrank import LdlFactor, assemble_remainder_diff, assemble_rhs
from expriccati.oracle import kronecker_phi
from expriccati.problems import build_symmetric_problem
from expriccati.sylvop import SylvesterOperator

from helpers import random_stable

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

dims = st.integers(min_value=1, max_value=24)
ranks = st.integers(min_value=0, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
# Decades between the largest and the smallest core eigenvalue.
spreads = st.floats(min_value=0.0, max_value=18.0)
tols = st.sampled_from([0.0, 1e-16, 1e-13, 1e-10, 1e-7, 1e-4, 1e-2, 1e-1])


def _indefinite_core(rng, r, spread):
    """Symmetric r x r core with random signs and a graded spectrum."""
    q = np.linalg.qr(rng.standard_normal((r, r)))[0] if r else np.zeros((0, 0))
    mags = 10.0 ** -rng.uniform(0.0, spread, r)
    signs = rng.choice([-1.0, 1.0], r)
    core = q @ np.diag(signs * mags) @ q.T
    return (core + core.T) / 2.0


def _factor(rng, n, r, spread):
    return LdlFactor(rng.standard_normal((n, r)), _indefinite_core(rng, r, spread))


def _factor_with_spectrum(rng, n, lam):
    """Non-orthonormal factor whose product has exactly the eigenvalues ``lam``.

    L = Q M with orthonormal Q and a well-conditioned triangular M, and
    core M^-1 V diag(lam) V^T M^-T, so L C L^T = (QV) diag(lam) (QV)^T.
    """
    k = lam.size
    q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    m = np.triu(0.3 * rng.standard_normal((k, k)), 1) + np.diag(rng.uniform(1.0, 2.0, k))
    m_inv = np.linalg.inv(m)
    core = m_inv @ v @ np.diag(lam) @ v.T @ m_inv.T
    return LdlFactor(q @ m, (core + core.T) / 2.0)


def _spectrum_near_tolerance(rng, r, spread, tol, clustered):
    """Random-sign spectrum with a unit top mode and ``clustered`` modes just
    below the relative drop threshold tol (exact zeros when tol = 0)."""
    mags = 10.0 ** -rng.uniform(0.0, spread, r)
    mags[0] = 1.0
    mags[r - clustered:] = tol * rng.uniform(0.3, 1.0, clustered)
    return rng.choice([-1.0, 1.0], r) * mags


def _symmetric_problem(rng, n):
    return build_symmetric_problem(
        rng.standard_normal((n, n)),
        rng.standard_normal((int(rng.integers(1, 4)), n)),
        rng.standard_normal((n, int(rng.integers(1, 4)))),
        rng.standard_normal((n, 1)),
    )


def _fro(a):
    return float(np.linalg.norm(a))


@PROPERTY_SETTINGS
@given(
    n=dims, r=ranks, seed=seeds, spread=spreads, tol=tols,
    clustered=ranks, controlled=st.booleans(),
)
def test_compress_meets_its_bound(n, r, seed, spread, tol, clustered, controlled):
    rng = np.random.default_rng(seed)
    if controlled and r:
        r = min(n, r)
        lam = _spectrum_near_tolerance(rng, r, spread, tol, min(clustered, r - 1))
        factor = _factor_with_spectrum(rng, n, lam)
    else:
        factor = _factor(rng, n, r, spread)
    l_out, c_out = compress(factor.L, factor.core, tol)

    assert l_out.shape[0] == n
    assert l_out.shape[1] == c_out.shape[0] == c_out.shape[1] <= min(n, r)
    assert np.array_equal(c_out, np.diag(np.diag(c_out)))
    gram = l_out.T @ l_out
    assert _fro(gram - np.eye(gram.shape[0])) <= 1e-12 * max(1, gram.shape[0])

    dense = factor.reconstruct()
    # Roundoff of the QR and the eigendecomposition, at the scale of the
    # factors rather than of the (possibly cancelling) product.
    roundoff = 1e-13 * (r + 1) * _fro(factor.L) ** 2 * _fro(factor.core)
    assert _fro(dense - l_out @ c_out @ l_out.T) <= tol * _fro(dense) + roundoff


def _loop_keep(lam, tol):
    """Reference drop rule: walk up from the smallest mode while both
    |lambda| <= tol max|lambda| and the dropped norm stays within tol ||lambda||."""
    amax = float(np.abs(lam[0])) if lam.size else 0.0
    if amax == 0.0:
        return 0
    total = float(np.linalg.norm(lam))
    keep, dropped_sq = lam.size, 0.0
    for i in range(lam.size - 1, -1, -1):
        if abs(lam[i]) > tol * amax or np.sqrt(dropped_sq + lam[i] ** 2) > tol * total:
            break
        dropped_sq += lam[i] ** 2
        keep = i
    return keep


@PROPERTY_SETTINGS
@given(n=dims, r=ranks, seed=seeds, spread=spreads, tol=tols, clustered=ranks)
def test_compress_keeps_as_many_columns_as_the_loop_rule(n, r, seed, spread, tol, clustered):
    rng = np.random.default_rng(seed)
    r = min(n, max(r, 1))
    lam = _spectrum_near_tolerance(rng, r, spread, tol, min(clustered, r - 1))
    factor = _factor_with_spectrum(rng, n, lam)
    # The spectrum compress sees: the same operations in the same order.
    rr = np.linalg.qr(factor.L)[1]
    mid = rr @ ((factor.core + factor.core.T) / 2.0) @ rr.T
    lam = np.linalg.eigh((mid + mid.T) / 2.0)[0]
    lam = lam[np.argsort(-np.abs(lam))]
    assert compress(factor.L, factor.core, tol)[1].shape[0] == _loop_keep(lam, tol)


@PROPERTY_SETTINGS
@given(n=dims, r=ranks, seed=seeds, spread=spreads)
def test_assemble_rhs_reconstructs_dense_formula(n, r, seed, spread):
    rng = np.random.default_rng(seed)
    problem = _symmetric_problem(rng, n)
    state = _factor(rng, n, r, spread)
    x = state.reconstruct()

    factored = assemble_rhs(problem, state).reconstruct()
    terms = (problem.Q, problem.A @ x, x @ problem.A.T, x @ problem.G @ x)
    dense = terms[0] + terms[1] + terms[2] - terms[3]
    assert _fro(factored - dense) <= 1e-12 * max(sum(_fro(t) for t in terms), 1e-300)


@PROPERTY_SETTINGS
@given(n=dims, r_state=ranks, r_stage=ranks, seed=seeds, spread=spreads)
def test_assemble_remainder_diff_reconstructs_dense_formula(n, r_state, r_stage, seed, spread):
    rng = np.random.default_rng(seed)
    problem = _symmetric_problem(rng, n)
    state = _factor(rng, n, r_state, spread)
    stage = _factor(rng, n, r_stage, spread)
    x, y, g = state.reconstruct(), stage.reconstruct(), problem.G

    factored = assemble_remainder_diff(problem, state, stage).reconstruct()
    terms = (x @ g @ y, y @ g @ x, y @ g @ y, x @ g @ x)
    dense = terms[0] + terms[1] - terms[2] - terms[3]
    assert factored.shape == (n, n)
    assert _fro(factored - dense) <= 1e-12 * max(sum(_fro(t) for t in terms), 1e-300)


def _sparse_plus_thin(rng, n, band, p):
    """Banded sparse A with a dominant negative diagonal, minus a thin U B^T.

    The 1-norm bound is formed as the low-rank steps form it.
    """
    a = np.triu(np.tril(rng.standard_normal((n, n)), band), -band)
    np.fill_diagonal(a, 0.0)
    off = np.maximum(np.abs(a).sum(axis=0), np.abs(a).sum(axis=1))
    np.fill_diagonal(a, -off - rng.uniform(0.1, 1.0, n))
    u = 0.5 * rng.standard_normal((n, p))
    b = 0.5 * rng.standard_normal((n, p))
    norm1 = np.linalg.norm(a, 1) + np.linalg.norm(u, 1) * np.linalg.norm(b.T, 1)
    return SparsePlusThin(scipy.sparse.csr_array(a), u, b.T, norm1)


# From n = 3: scipy's closed-form 2 x 2 exponential, the reference here,
# is itself up to 6e-13 off on these operators.
op_dims = st.integers(min_value=3, max_value=40)
bands = st.integers(min_value=0, max_value=3)
widths = st.integers(min_value=1, max_value=3)
# max|tau| ||M||_1: the Taylor chain runs up to 16, a full exponential per
# tau above.
spans = st.one_of(
    st.floats(min_value=0.0, max_value=16.0), st.floats(min_value=16.5, max_value=40.0)
)


@PROPERTY_SETTINGS
@given(
    n=op_dims, band=bands, p=widths, cols=widths, seed=seeds, span=spans,
    count=st.integers(min_value=1, max_value=7), signs=st.sampled_from(["+", "-", "mixed"]),
)
def test_structured_actions_match_full_exponentials(n, band, p, cols, seed, span, count, signs):
    rng = np.random.default_rng(seed)
    op = _sparse_plus_thin(rng, n, band, p)
    if signs == "-":
        # Negative times on the negated operator keep tau M dissipative:
        # backwards in time the growth e^span would swamp 1e-12.
        op = -1.0 * op
    dense = op.a.toarray() - op.u @ op.bt
    v = rng.standard_normal((n, cols))
    fractions = np.append(rng.uniform(0.0, 1.0, count - 1), 1.0)
    sign = {"+": 1.0, "-": -1.0, "mixed": rng.choice([-1.0, 1.0], count)}[signs]
    taus = sign * fractions * span / op.norm1

    for got, tau in zip(expm_actions(op, taus, v), taus):
        exact = scipy.linalg.expm(tau * dense) @ v
        assert _fro(got - exact) <= 1e-12 * _fro(exact)


@PROPERTY_SETTINGS
@given(
    n=op_dims, band=bands, p=widths, cols=widths, seed=seeds,
    span=st.floats(min_value=0.0, max_value=16.0), split=st.floats(min_value=0.0, max_value=1.0),
    structured=st.booleans(),
)
def test_exponential_actions_compose(n, band, p, cols, seed, span, split, structured):
    """exp((s + t) M) V = exp(s M) exp(t M) V."""
    rng = np.random.default_rng(seed)
    op = _sparse_plus_thin(rng, n, band, p)
    m = op if structured else op.a.toarray() - op.u @ op.bt
    v = rng.standard_normal((n, cols))
    total = span / op.norm1
    s, t = split * total, (1.0 - split) * total

    whole = expm_actions(m, [s + t], v)[0]
    composed = expm_actions(m, [s], expm_actions(m, [t], v)[0])[0]
    assert _fro(whole - composed) <= 1e-12 * _fro(whole)


@PROPERTY_SETTINGS
@given(
    m=st.integers(min_value=1, max_value=5), n=st.integers(min_value=1, max_value=5),
    seed=seeds, h=st.floats(min_value=0.01, max_value=2.0),
)
def test_dense_steps_are_exact_without_quadratic_term(m, n, seed, h):
    """For G = 0 one step is exp(hS)(X0) + h phi_1(hS)(Q), S(X) = AX + XD."""
    rng = np.random.default_rng(seed)
    a, d = random_stable(rng, m), random_stable(rng, n)
    q, x0 = rng.standard_normal((m, n)), rng.standard_normal((m, n))
    problem = RiccatiProblem(A=a, D=d, Q=q, G=np.zeros((n, m)), X0=x0)
    operator = SylvesterOperator(a, d)
    flow = unvec(kronecker_phi(0, operator, h) @ vec(x0), m, n)
    source = h * unvec(kronecker_phi(1, operator, h) @ vec(q), m, n)

    for scheme in ("GExpEuler", "BrExpEuler", "Erow3Dense"):
        stepper = _SCHEME_STEPS[scheme][0]
        got = stepper(problem, x0, h, IntegratorConfig(scheme, h, h))
        assert _fro(got - flow - source) <= 1e-12 * (_fro(flow) + _fro(source)), scheme
