import os
import sys

import pytest

# One OpenBLAS thread, set before NumPy and SciPy load their pools: on
# 2 cores two threads made small LAPACK calls up to 60x slower and
# criterion 1 missed its wall-time bound.  An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import scipy.linalg

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def full_exponentials(monkeypatch):
    """Sizes of the matrices handed to ``scipy.linalg.expm`` during a test."""
    sizes = []
    original = scipy.linalg.expm

    def spy(a):
        sizes.append(a.shape[0])
        return original(a)

    monkeypatch.setattr(scipy.linalg, "expm", spy)
    return sizes
