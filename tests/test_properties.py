"""Property tests of compression, the factored assemblies and the
exponential actions.

Instances are drawn from a seeded NumPy generator: hypothesis picks the
sizes, the seed, the spread of the core spectrum and the tolerance, and
shrinks failures towards small dimensions and ranks (rank 0 included).
The vectorized drop rule of ``compress`` is also checked against a plain
loop over the eigenvalues, which must keep the same number of columns, and
``concat_update``, which drops negligible update columns before it
compresses, must meet the same bound on the sum of its two factors.
The exponential actions on a sparse-plus-thin operator, which always take
the Taylor chain, are checked against a long-double exponential of its
dense matrix, at spans up to 40 and at mixed-sign times, and through the
semigroup identity.  A block Krylov basis of either operator kind must be
orthonormal and carry the projection of its operator, and act exactly
once it spans the space.  Without the quadratic term (G = 0) one step
of each dense scheme must reproduce the exact flow of the vectorized
operator.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expriccati.densecore import SparsePlusThin, compress, expm_actions
from expriccati.integrators import _SCHEME_STEPS, IntegratorConfig, RiccatiProblem
from expriccati.krylov import build_basis, exp_actions_krylov
from expriccati.lowrank import LdlFactor, assemble_remainder_diff, assemble_rhs, concat_update
from expriccati.sylvop import SylvesterOperator

from helpers import expm_longdouble, kronecker_phi, random_stable, unvec, vec

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
    return RiccatiProblem(
        A=rng.standard_normal((n, n)),
        C=rng.standard_normal((int(rng.integers(1, 4)), n)),
        B=rng.standard_normal((n, int(rng.integers(1, 4)))),
        L0=rng.standard_normal((n, 1)), symmetric=True,
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


def _graded_update(rng, n, r, decades, diagonal):
    """Update whose column weights ||l_i||^2 |C_ii| spread over about
    ``decades`` decades, as the quadrature-node images of a step do; with
    a diagonal or a general symmetric core."""
    l = rng.standard_normal((n, r)) * 10.0 ** -rng.uniform(0.0, decades / 4.0, r)
    if diagonal:
        core = np.diag(rng.choice([-1.0, 1.0], r) * 10.0 ** -rng.uniform(0.0, decades / 2.0, r))
    else:
        core = _indefinite_core(rng, r, decades / 2.0)
    return LdlFactor(l, core)


@PROPERTY_SETTINGS
@given(
    n=dims, r_base=ranks, r_update=ranks, seed=seeds, spread=spreads, tol=tols,
    decades=st.floats(min_value=0.0, max_value=20.0),
    base_kind=st.sampled_from(["general", "compressed", "zero"]),
    update_kind=st.sampled_from(["diagonal", "general", "cancelling"]),
)
# A non-orthonormal base with a non-identity core, as at step 0; an update
# that cancels it up to a graded remainder; a zero base under a general core.
@example(n=12, r_base=4, r_update=10, seed=1, spread=3.0, tol=1e-2, decades=20.0,
         base_kind="general", update_kind="diagonal")
@example(n=12, r_base=4, r_update=10, seed=2, spread=3.0, tol=1e-1, decades=20.0,
         base_kind="general", update_kind="cancelling")
@example(n=12, r_base=0, r_update=10, seed=3, spread=0.0, tol=1e-1, decades=20.0,
         base_kind="zero", update_kind="general")
def test_concat_update_meets_its_bound(
    n, r_base, r_update, seed, spread, tol, decades, base_kind, update_kind
):
    rng = np.random.default_rng(seed)
    if base_kind == "zero":
        base = LdlFactor.zero(n)
    else:
        base = _factor(rng, n, r_base, spread)
        if base_kind == "compressed":
            base = base.compressed(0.0)
    update = _graded_update(rng, n, r_update, decades, update_kind != "general")
    if update_kind == "cancelling":
        # X_u = -X_b + a graded remainder 1e-6 its size: ||X_b|| - sum w_i < 0.
        scale = 1e-6 * max(base.fnorm(), 1.0)
        update = LdlFactor(
            np.hstack([base.L, update.L]),
            scipy.linalg.block_diag(-base.core, scale * update.core),
        )
    out = concat_update(base, update, tol)

    assert out.rank <= base.rank + update.rank
    if update.rank:
        # A compression result (an empty update returns the base as it is).
        assert np.array_equal(out.core, np.diag(np.diag(out.core)))
        gram = out.L.T @ out.L
        assert _fro(gram - np.eye(out.rank)) <= 1e-12 * max(1, out.rank)

    dense = base.reconstruct() + update.reconstruct()
    big = np.hstack([base.L, update.L])
    core = scipy.linalg.block_diag(base.core, update.core)
    roundoff = 1e-13 * (big.shape[1] + 1) * _fro(big) ** 2 * _fro(core)
    assert _fro(dense - out.reconstruct()) <= tol * _fro(dense) + roundoff


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
# Expanding the four products into one block core left this draw 4.3e-12
# of the term scale off an exact rational reference.
@example(n=1, r_state=1, r_stage=12, seed=5696, spread=17.5)
# ||Y||^2 ||G|| = 1.3e-3 against ||Y G Y|| = 6.8e-9 here: a float64
# reference Y G Y is 9.2e-21 off, the factored result 1.1e-22 off the
# long-double one.
@example(n=22, r_state=0, r_stage=6, seed=79247395, spread=13.0)
# ||Y||^2 ||G|| = 4.9 against ||Y G Y|| = 3.1e-5 here: the float64 G is
# B B^T rounded, 5e-16 off, and that alone put a reference formed from G
# 1.4e-12 of the term scale off; formed from B it is 6e-15 off.
@example(n=15, r_state=0, r_stage=3, seed=13987, spread=4.0)
def test_assemble_remainder_diff_reconstructs_dense_formula(n, r_state, r_stage, seed, spread):
    rng = np.random.default_rng(seed)
    problem = _symmetric_problem(rng, n)
    state = _factor(rng, n, r_state, spread)
    stage = _factor(rng, n, r_stage, spread)
    # The reference in long double, so that its own roundoff in the
    # cancelling products stays below the bound, with G = B B^T formed
    # there too, as the factored form takes it.
    x, y = (f.L.astype(np.longdouble) @ f.core @ f.L.T for f in (state, stage))
    b = problem.B.astype(np.longdouble)
    g = b @ b.T

    factored = assemble_remainder_diff(problem, state, stage).reconstruct()
    terms = (x @ g @ y, y @ g @ x, y @ g @ y, x @ g @ x)
    dense = terms[0] + terms[1] - terms[2] - terms[3]
    assert factored.shape == (n, n)
    scale = sum(_fro(t.astype(float)) for t in terms)
    assert _fro((factored - dense).astype(float)) <= 1e-12 * max(scale, 1e-300)


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


op_dims = st.integers(min_value=3, max_value=40)
bands = st.integers(min_value=0, max_value=3)
widths = st.integers(min_value=1, max_value=3)
# max|tau| ||M||_1.  These small structured operators stay under the
# chain's floor, so every draw takes the chain.
spans = st.floats(min_value=0.0, max_value=40.0)


@PROPERTY_SETTINGS
@given(
    n=op_dims, band=bands, p=widths, cols=widths, seed=seeds, span=spans,
    count=st.integers(min_value=1, max_value=7), growing=st.booleans(),
)
# scipy.linalg.expm is 1.2e-12 off a 50-digit value on this draw, too far
# to serve as the reference (exp(tau M) grows for tau < 0, here taken as
# exp(|tau| (-M))); the chain is 2.8e-16 off.
@example(n=3, band=0, p=1, cols=1, seed=0, span=17.0, count=1, growing=True)
# One dominant decaying direction: with the series degree up to 55 the
# chain was 6.3e-12 off here, from cancellation.
@example(n=3, band=0, p=1, cols=1, seed=7248, span=9.0, count=1, growing=False)
def test_structured_actions_match_full_exponentials(n, band, p, cols, seed, span, count, growing):
    # A long double that is only a double would make the reference no
    # better than the route under test.
    assert np.finfo(np.longdouble).eps < 1e-18
    rng = np.random.default_rng(seed)
    op = _sparse_plus_thin(rng, n, band, p)
    if growing:
        # exp(tau M) for tau < 0 is asked for as exp(|tau| (-M)).
        op = SparsePlusThin(-op.a, -op.u, op.bt, op.norm1)
    dense = op.a.toarray() - op.u @ op.bt
    v = rng.standard_normal((n, cols))
    taus = np.append(rng.uniform(0.0, 1.0, count - 1), 1.0) * span / op.norm1

    for got, tau in zip(expm_actions(op, taus, v), taus):
        exact = expm_longdouble(tau * dense) @ v
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
    n=st.integers(min_value=1, max_value=12), band=bands, p=widths, cols=widths, seed=seeds,
    deficient=st.booleans(), m=st.integers(min_value=1, max_value=6), structured=st.booleans(),
    span=st.floats(min_value=0.0, max_value=16.0),
)
# The three exits: after m blocks, after a rank-deficient seed deflates,
# and at full span.
@example(n=12, band=1, p=1, cols=1, seed=1, deficient=False, m=2, structured=True, span=4.0)
@example(n=9, band=2, p=2, cols=3, seed=2, deficient=True, m=3, structured=False, span=4.0)
@example(n=6, band=1, p=1, cols=2, seed=3, deficient=False, m=6, structured=True, span=4.0)
def test_krylov_basis_carries_its_projection(n, band, p, cols, seed, deficient, m, structured, span):
    rng = np.random.default_rng(seed)
    op = _sparse_plus_thin(rng, n, band, p)
    dense = op.a.toarray() - op.u @ op.bt
    v = rng.standard_normal((n, cols))
    if deficient and cols > 1:
        v[:, -1] = v[:, :-1] @ rng.standard_normal(cols - 1)

    basis = build_basis(op if structured else dense, v, m)
    q = basis.basis
    assert _fro(q.T @ q - np.eye(basis.size)) <= 1e-12
    h_ref = q.T @ (dense @ q)
    assert _fro(basis.H - h_ref) <= 1e-12 * _fro(h_ref)
    if basis.size < n:
        return
    assert basis.coupling == 0.0
    taus = rng.uniform(0.0, 1.0, 3) * span / op.norm1
    for tau, (value, estimate) in zip(taus, exp_actions_krylov(basis, taus, v)):
        exact = scipy.linalg.expm(tau * dense) @ v
        assert _fro(value - exact) <= 1e-10 * _fro(exact)
        assert estimate == 0.0


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
        got = stepper(problem, x0, h, IntegratorConfig(scheme, h, h), None)
        assert _fro(got - flow - source) <= 1e-12 * (_fro(flow) + _fro(source)), scheme
