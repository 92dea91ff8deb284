"""Matrix file I/O: real MatrixMarket files through ``scipy.io``.

Reads ``array`` and ``coordinate`` files with ``general`` or
``symmetric`` symmetry into dense arrays.  The writer emits ``array``
``general`` files with the shortest decimal that reproduces each
float64, so a write/read round trip is bitwise.
"""

import re

import numpy as np
import scipy.io

from .densecore import as_matrix
from .errors import MatrixFormatError

__all__ = ["read_matrix_market", "write_matrix_market"]


def _scipy_read(reader, path):
    """Call ``reader(path)``, turning its ``Line <n>: `` errors into MatrixFormatError."""
    try:
        return reader(path)
    except ValueError as exc:
        found = re.match(r"Line (\d+): (.*)", str(exc), re.DOTALL)
        line, message = (int(found[1]), found[2]) if found else (0, str(exc))
        raise MatrixFormatError(message, path=path, line=line) from None


def read_matrix_market(path):
    """Read a real MatrixMarket file (array/coordinate, general/symmetric)."""
    path = str(path)
    rows, cols, _, layout, field, symmetry = _scipy_read(scipy.io.mminfo, path)
    if field != "real" or symmetry not in ("general", "symmetric"):
        raise MatrixFormatError(f"unsupported field/symmetry {field} {symmetry}", path=path, line=1)
    # SciPy's fast_matrix_market reader (seen in 1.17) ends the process
    # on two shapes: a non-square symmetric file corrupts its heap, an
    # array file without rows divides by zero.
    if symmetry == "symmetric" and rows != cols:
        raise MatrixFormatError(f"symmetric matrix of shape ({rows}, {cols})", path=path, line=1)
    if layout == "array" and rows == 0:
        return np.zeros((0, cols))
    data = _scipy_read(scipy.io.mmread, path)
    return data.toarray() if layout == "coordinate" else data


def write_matrix_market(path, a):
    """Write a real matrix as a MatrixMarket ``array`` ``general`` file."""
    scipy.io.mmwrite(path, as_matrix(a, "matrix"), symmetry="general")
