import numpy as np
import pytest
import scipy.io
import scipy.sparse

from expriccati.errors import MatrixFormatError
from expriccati.matio import read_matrix_market, write_matrix_market


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_array_roundtrip_bitwise(tmp_path, rng):
    a = rng.standard_normal((5, 3)) * np.pi
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    assert np.array_equal(read_matrix_market(path), a)


def test_coordinate_roundtrip_bitwise(tmp_path, rng):
    a = rng.standard_normal((6, 6))
    a[np.abs(a) < 0.8] = 0.0
    path = tmp_path / "a.mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_array(a), symmetry="general")
    assert np.array_equal(read_matrix_market(path), a)


def test_symmetric_layouts_roundtrip(tmp_path, rng):
    # The package writes only general files; scipy writes the symmetric
    # fixtures, one per layout, that the reader must expand.
    a = rng.standard_normal((5, 5))
    a = a + a.T
    for layout, data in (("array", a), ("coordinate", scipy.sparse.coo_array(a))):
        path = tmp_path / f"s_{layout}.mtx"
        scipy.io.mmwrite(path, data, symmetry="symmetric")
        assert scipy.io.mminfo(path)[3:] == (layout, "real", "symmetric")
        assert np.array_equal(read_matrix_market(path), a)


def test_header_only_file_is_parse_error(tmp_path):
    path = tmp_path / "broken.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n")
    with pytest.raises(MatrixFormatError):
        read_matrix_market(path)


def test_bad_value_reports_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 1\n1.5\nnot-a-number\n"
    )
    with pytest.raises(MatrixFormatError) as info:
        read_matrix_market(path)
    assert info.value.line == 4


def test_truncated_array_data_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrix_market(path)


def test_coordinate_out_of_bounds_rejected(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix_market(path)
    assert info.value.line == 3


def test_unsupported_field_rejected(tmp_path):
    path = tmp_path / "cplx.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrix_market(path)


def test_missing_banner_reports_line_one(tmp_path):
    path = tmp_path / "plain.mtx"
    path.write_text("2 1\n1.0\n2.0\n")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix_market(path)
    assert info.value.line == 1


def test_empty_array_roundtrip(tmp_path):
    path = tmp_path / "empty.mtx"
    write_matrix_market(path, np.zeros((0, 3)))
    assert read_matrix_market(path).shape == (0, 3)


def test_non_square_symmetric_rejected(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n6\n")
    with pytest.raises(MatrixFormatError) as info:
        read_matrix_market(path)
    assert info.value.line == 1
