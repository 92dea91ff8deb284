"""Benchmark problem generators, seeded random data and file loading.

The convection-diffusion family discretizes

    Laplace(u) - fx(x, y) u_x - fy(x, y) u_y

with the standard 5-point stencil on the unit square (homogeneous
Dirichlet boundary).  ``fdm-sym`` is the pure Laplacian (symmetric
negative definite); ``fdm-nonsym`` adds the convection fields 10x and
100y.  Random fixtures come from a self-contained SplitMix64 stream so
every platform reproduces them bit for bit.
"""

import os
import re

import numpy as np

from . import matio
from .errors import DomainError, MatrixFormatError, UsageError
from .integrators import RiccatiProblem

__all__ = [
    "fdm2d_matrix",
    "fdm_sym",
    "fdm_nonsym",
    "random_lowrank",
    "scalar_tanh_problem",
    "problem_from_spec",
    "load_problem",
    "PROBLEM_FORMATS",
]


def fdm2d_matrix(k, fx=None, fy=None):
    """Negative stiffness matrix of the convection-diffusion operator.

    Five-point discretization with ``k`` interior grid points per side
    (n = k^2): uniform spacing 1/(k+1), centered first-order differences
    for the convection terms, x-fastest lexicographic node ordering.  The
    convection coefficients ``fx`` and ``fy`` are scalar callables of the
    grid coordinates, called once per node (None means zero).  With both
    zero the matrix is the (negative definite) 5-point Laplacian.
    """
    if k < 1:
        raise DomainError("grid needs at least one interior point per side")
    spacing = 1.0 / (k + 1)
    fx = fx or (lambda x, y: 0.0)
    fy = fy or (lambda x, y: 0.0)
    inv_h2 = 1.0 / spacing ** 2
    inv_2h = 1.0 / (2.0 * spacing)

    # Node p = j*k + i sits at ((i + 1) h, (j + 1) h); one field call per node.
    nodes = [((i + 1) * spacing, (j + 1) * spacing) for j in range(k) for i in range(k)]
    cx = np.array([fx(x, y) for x, y in nodes], dtype=float) * inv_2h
    cy = np.array([fy(x, y) for x, y in nodes], dtype=float) * inv_2h
    p = np.arange(k * k)
    j, i = np.divmod(p, k)
    a = np.zeros((p.size, p.size))
    a[p, p] = -4.0 * inv_h2
    for inside, step, values in (
        (i + 1 < k, 1, inv_h2 - cx), (i > 0, -1, inv_h2 + cx),
        (j + 1 < k, k, inv_h2 - cy), (j > 0, -k, inv_h2 + cy),
    ):
        a[p[inside], p[inside] + step] = values[inside]
    return a


def fdm_sym(k):
    """Symmetric benchmark matrix (pure 5-point Laplacian)."""
    return fdm2d_matrix(k)


def fdm_nonsym(k):
    """Nonsymmetric benchmark matrix with convection fields 10x and 100y."""
    return fdm2d_matrix(k, fx=lambda x, y: 10.0 * x, fy=lambda x, y: 100.0 * y)


def random_lowrank(n, r, seed):
    """Deterministic n x r random matrix, uniform on (0, 1).

    SplitMix64 stream seeded with ``seed``, filled column-major; each
    entry is the top 53 bits of a word, offset by half an ulp.  Word m
    (from 1) mixes seed + m * 0x9E3779B97F4A7C15 mod 2^64, so the stream
    is computed from that counter formula in wrapping uint64 arithmetic.
    The generator is fixed by this package, not the platform, so
    fixtures reproduce everywhere.
    """
    if r > n:
        raise DomainError(f"cannot draw {r} columns in dimension {n}")
    if r < 0 or n < 0:
        raise DomainError("dimensions must be nonnegative")
    words = np.arange(1, n * r + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + seed % 2 ** 64
    words = (words ^ (words >> 30)) * 0xBF58476D1CE4E5B9
    words = (words ^ (words >> 27)) * 0x94D049BB133111EB
    words ^= words >> 31
    return (((words >> 11) + 0.5) * 2.0 ** -53).reshape((n, r), order="F")


def scalar_tanh_problem():
    """The 1 x 1 flow x' = 1 - x^2, x(0) = 0, with solution tanh(t)."""
    return RiccatiProblem(A=[[0.0]], C=[[1.0]], B=[[1.0]], L0=np.zeros((1, 0)), symmetric=True)


PROBLEM_FORMATS = (
    "tanh",
    "fdm-sym:k=<points>[,rank=<r>]",
    "fdm-nonsym:k=<points>[,rank=<r>]",
    "file:<directory>",
)


def _parse_options(text, spec):
    options = {}
    for item in filter(None, text.split(",")):
        match = re.fullmatch(r"(\w+)=(\d+)", item)
        if match is None or match.group(1) in options:
            raise UsageError(f"bad or repeated option {item!r} in problem spec {spec!r}")
        options[match.group(1)] = int(match.group(2))
    return options


def problem_from_spec(spec, seed=0):
    """Build a benchmark problem from a CLI-style spec string.

    Known formats: "tanh"; "fdm-sym:k=8"; "fdm-nonsym:k=10";
    "file:/some/dir".  The fdm problems draw uniform (0, 1) generators
    B and C of width ``rank`` (default 2) from sub-seeds ``seed`` and
    ``seed + 1`` and the initial factor L0 from ``seed + 2``.
    """
    if spec == "tanh":
        return scalar_tanh_problem()
    if spec.startswith("file:"):
        return load_problem(spec[len("file:"):])
    for name, builder in (("fdm-sym", fdm_sym), ("fdm-nonsym", fdm_nonsym)):
        prefix = name + ":"
        if spec.startswith(prefix):
            options = _parse_options(spec[len(prefix):], spec)
            if "k" not in options:
                raise UsageError(f"problem spec {spec!r} needs k=<points>")
            rank = options.get("rank", 2)
            a = builder(options["k"])
            n = a.shape[0]
            b = random_lowrank(n, rank, seed)
            c = random_lowrank(n, rank, seed + 1).T
            l0 = random_lowrank(n, rank, seed + 2)
            return RiccatiProblem(A=a, C=c, B=b, L0=l0, symmetric=True)
    raise UsageError(
        f"unknown problem spec {spec!r}; formats: {', '.join(PROBLEM_FORMATS)}"
    )


def load_problem(directory):
    """Assemble a symmetric problem from a directory of MatrixMarket files.

    Expects A.mtx, B.mtx and C.mtx; optional L0.mtx and D0.mtx.  A missing
    L0 gives X0 = 0.
    """
    def _read(name, required=False):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return matio.read_matrix_market(path)
        if required:
            raise MatrixFormatError(f"missing required file {name}", path=path)
        return None

    a = _read("A.mtx", required=True)
    b = _read("B.mtx", required=True)
    c = _read("C.mtx", required=True)
    l0 = _read("L0.mtx")
    d0 = _read("D0.mtx")
    if l0 is None:
        l0 = np.zeros((a.shape[0], 0))
        d0 = None
    return RiccatiProblem(A=a, C=c, B=b, L0=l0, D0=d0, symmetric=True)
