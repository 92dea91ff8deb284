"""Benchmark problem generators, seeded random data and file loading.

The convection-diffusion family discretizes

    Laplace(u) - fx(x, y) u_x - fy(x, y) u_y - freact(x, y) u

with the standard 5-point stencil on the unit square (homogeneous
Dirichlet boundary).  ``fdm-sym`` is the pure Laplacian (symmetric
negative definite); ``fdm-nonsym`` adds the convection fields 10x and
100y.  Random fixtures come from a self-contained SplitMix64 stream so
every platform reproduces them bit for bit.
"""

import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import matio
from .densecore import as_matrix
from .errors import DimensionError, DomainError, MatrixFormatError, UsageError
from .integrators import RiccatiProblem

__all__ = [
    "Fdm2dSpec",
    "fdm2d_matrix",
    "fdm_sym",
    "fdm_nonsym",
    "random_lowrank",
    "build_symmetric_problem",
    "scalar_tanh_problem",
    "problem_from_spec",
    "load_problem",
    "save_problem",
    "PROBLEM_FORMATS",
]


@dataclass(frozen=True)
class Fdm2dSpec:
    """Five-point discretization with k interior grid points per side.

    The convection coefficients ``fx``, ``fy`` and the reaction ``freact``
    are callables of the grid coordinates (None means zero); the matrix
    size is n = k^2.
    """

    k: int
    fx: Optional[Callable[[float, float], float]] = None
    fy: Optional[Callable[[float, float], float]] = None
    freact: Optional[Callable[[float, float], float]] = None


def fdm2d_matrix(spec):
    """Negative stiffness matrix of the convection-diffusion operator.

    Uniform interior grid with spacing 1/(k+1), centered first-order
    differences for the convection terms, x-fastest lexicographic node
    ordering.  With all coefficient functions zero the matrix is the
    (negative definite) 5-point Laplacian.
    """
    if spec.k < 1:
        raise DomainError("grid needs at least one interior point per side")
    k = spec.k
    spacing = 1.0 / (k + 1)
    n = k * k
    fx = spec.fx or (lambda x, y: 0.0)
    fy = spec.fy or (lambda x, y: 0.0)
    freact = spec.freact or (lambda x, y: 0.0)
    inv_h2 = 1.0 / spacing ** 2
    inv_2h = 1.0 / (2.0 * spacing)

    a = np.zeros((n, n))
    for j in range(k):
        y = (j + 1) * spacing
        for i in range(k):
            x = (i + 1) * spacing
            p = j * k + i
            a[p, p] = -4.0 * inv_h2 - freact(x, y)
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


def fdm_sym(k):
    """Symmetric benchmark matrix (pure 5-point Laplacian)."""
    return fdm2d_matrix(Fdm2dSpec(k))


def fdm_nonsym(k):
    """Nonsymmetric benchmark matrix with convection fields 10x and 100y."""
    return fdm2d_matrix(
        Fdm2dSpec(k, fx=lambda x, y: 10.0 * x, fy=lambda x, y: 100.0 * y)
    )


_MASK64 = (1 << 64) - 1


def _splitmix64(seed):
    """Infinite SplitMix64 stream of 64-bit words."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _uniform01(words):
    # 53 high bits, offset by half an ulp so Box-Muller never sees 0.
    return ((next(words) >> 11) + 0.5) * 2.0 ** -53


def random_lowrank(n, r, seed, distribution="uniform01"):
    """Deterministic n x r random matrix.

    SplitMix64 stream seeded with ``seed``, filled column-major.
    "uniform01" draws from (0, 1); "normal01" applies the Box-Muller
    transform to consecutive uniform pairs.  The generator is fixed by
    this package, not the platform, so fixtures reproduce everywhere.
    """
    if r > n:
        raise DomainError(f"cannot draw {r} columns in dimension {n}")
    if r < 0 or n < 0:
        raise DomainError("dimensions must be nonnegative")
    words = _splitmix64(seed)
    count = n * r
    if distribution == "uniform01":
        vals = [_uniform01(words) for _ in range(count)]
    elif distribution == "normal01":
        vals = []
        while len(vals) < count:
            u1 = _uniform01(words)
            u2 = _uniform01(words)
            radius = math.sqrt(-2.0 * math.log(u1))
            vals.append(radius * math.cos(2.0 * math.pi * u2))
            vals.append(radius * math.sin(2.0 * math.pi * u2))
        vals = vals[:count]
    else:
        raise DomainError(f"unknown distribution {distribution!r}")
    return np.array(vals).reshape((n, r), order="F")


def build_symmetric_problem(A, C, B, L0, D0=None):
    """Symmetric Riccati problem from its thin generators.

    D = A^T, Q = C^T C, G = B B^T and X0 = L0 D0 L0^T with D0 defaulting
    to the identity.  A zero-width L0 gives X0 = 0.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    L0 = as_matrix(L0, "L0")
    core = np.eye(L0.shape[1]) if D0 is None else as_matrix(D0, "D0")
    n = A.shape[0]
    if C.shape[1] != n or B.shape[0] != n or L0.shape[0] != n:
        raise DimensionError(
            f"generator shapes {C.shape}, {B.shape}, {L0.shape} do not match dimension {n}"
        )
    if core.shape != (L0.shape[1],) * 2:
        raise DimensionError(f"D0 is {core.shape}, L0 has {L0.shape[1]} columns")
    return RiccatiProblem(
        A=A,
        D=A.T,
        Q=C.T @ C,
        G=B @ B.T,
        X0=L0 @ core @ L0.T,
        C=C,
        B=B,
        L0=L0,
        D0=core,
        symmetric=True,
    )


def scalar_tanh_problem():
    """The 1 x 1 flow x' = 1 - x^2, x(0) = 0, with solution tanh(t)."""
    return build_symmetric_problem(
        A=[[0.0]], C=[[1.0]], B=[[1.0]], L0=np.zeros((1, 0))
    )


PROBLEM_FORMATS = (
    "tanh",
    "fdm-sym:k=<points>[,rank=<r>]",
    "fdm-nonsym:k=<points>[,rank=<r>]",
    "file:<directory>",
)


def _parse_options(text, spec):
    options = {}
    for item in text.split(","):
        if not item:
            continue
        match = re.fullmatch(r"(\w+)=(\d+)", item)
        if match is None:
            raise UsageError(f"bad option {item!r} in problem spec {spec!r}")
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
            return build_symmetric_problem(a, c, b, l0)
    raise UsageError(
        f"unknown problem spec {spec!r}; formats: {', '.join(PROBLEM_FORMATS)}"
    )


def load_problem(directory):
    """Assemble a symmetric problem from a directory of MatrixMarket files.

    Expects A.mtx, B.mtx and C.mtx; optional L0.mtx and D0.mtx.  A missing
    L0 gives X0 = 0.
    """
    def _read(name, required=False):
        path = matio.problem_file(directory, name)
        if path is None:
            if required:
                raise MatrixFormatError(
                    f"missing required file {name}", path=os.path.join(directory, name)
                )
            return None
        return matio.read_matrix(path)

    a = _read("A.mtx", required=True)
    b = _read("B.mtx", required=True)
    c = _read("C.mtx", required=True)
    l0 = _read("L0.mtx")
    d0 = _read("D0.mtx")
    if l0 is None:
        l0 = np.zeros((a.shape[0], 0))
        d0 = None
    return build_symmetric_problem(a, c, b, l0, d0)


def save_problem(directory, problem):
    """Write the generator files read back by :func:`load_problem`."""
    if not problem.has_lowrank_generators:
        raise DomainError("only symmetric problems with generators can be saved")
    os.makedirs(directory, exist_ok=True)
    matio.write_matrix_market(os.path.join(directory, "A.mtx"), problem.A)
    matio.write_matrix_market(os.path.join(directory, "B.mtx"), problem.B)
    matio.write_matrix_market(os.path.join(directory, "C.mtx"), problem.C)
    if problem.L0 is not None and problem.L0.shape[1]:
        matio.write_matrix_market(os.path.join(directory, "L0.mtx"), problem.L0)
        if problem.D0 is not None:
            matio.write_matrix_market(os.path.join(directory, "D0.mtx"), problem.D0)
