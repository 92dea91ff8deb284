import os
import sys

import pytest
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
