import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronspin.errors import ParseError
from kronspin.matrix_io import format_matrix, load_matrix, parse_matrix, save_matrix

from conftest import complex_matrices

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def per_entry_format(a) -> str:
    """Oracle for format_matrix: the entry-by-entry writer on numpy scalars."""
    a = np.asarray(a, dtype=np.complex128)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        entries = []
        for z in row:
            re_part = float(z.real)
            im_part = float(z.imag)
            if im_part == 0.0 and not np.signbit(im_part):
                entries.append(repr(re_part))
            else:
                sign = "-" if (im_part < 0.0 or np.signbit(im_part)) else "+"
                entries.append(f"{re_part!r}{sign}{abs(im_part)!r}i")
        lines.append(" ".join(entries))
    return "\n".join(lines) + "\n"


class TestFormat:
    def test_real_matrix(self):
        text = format_matrix(np.array([[1.0, -0.5], [2e-3, 0.0]]))
        assert text == "2 2\n1.0 -0.5\n0.002 0.0\n"

    def test_complex_entries(self):
        text = format_matrix(np.array([[1j, -0.5 - 2j]]))
        assert text == "1 2\n0.0+1.0i -0.5-2.0i\n"

    def test_negative_zero_imag_survives(self):
        text = format_matrix(np.array([[complex(1.0, -0.0)]]))
        assert text == "1 1\n1.0-0.0i\n"

    def test_positive_zero_imag_collapses_to_real(self):
        assert format_matrix(np.array([[complex(2.0, 0.0)]])) == "1 1\n2.0\n"

    def test_trailing_newline(self):
        assert format_matrix(np.eye(1)).endswith("\n")

    def test_matches_per_entry_oracle_on_edge_values(self):
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308,
                           1e300, -1e300, 0.1, -1.0, 123456789.0])
        a = np.empty((values.size, values.size), dtype=np.complex128)
        a.real = values[:, None]
        a.imag = values[None, :]
        assert format_matrix(a) == per_entry_format(a)

    @given(complex_matrices())
    @settings(max_examples=30)
    def test_matches_per_entry_oracle(self, a):
        assert format_matrix(a) == per_entry_format(a)


class TestParse:
    def test_simple(self):
        got = parse_matrix("2 2\n1 0\n0 1\n")
        assert np.array_equal(got, np.eye(2))
        assert got.dtype == np.complex128

    def test_complex_forms(self):
        got = parse_matrix("1 4\n0+1i -0.5-2i 3 1e-3+2.5e-1i\n")
        assert np.array_equal(got, [[1j, -0.5 - 2j, 3.0, 0.001 + 0.25j]])

    def test_extra_whitespace_and_trailing_blank_lines(self):
        got = parse_matrix("1 2\n  1    2  \n\n\n")
        assert np.array_equal(got, [[1.0, 2.0]])

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("")
        assert err.value.line == 1

    def test_bad_header_token_count(self):
        with pytest.raises(ParseError, match="header"):
            parse_matrix("2\n1 2\n")

    def test_bad_dimension_value(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("2 x\n")
        assert err.value.line == 1
        assert err.value.column == 3

    def test_zero_dimension(self):
        with pytest.raises(ParseError, match="positive"):
            parse_matrix("0 2\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 2 data row"):
            parse_matrix("2 2\n1 2\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError, match="data row"):
            parse_matrix("1 2\n1 2\n3 4\n")

    def test_wrong_entry_count_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1 3\n1 2\n")
        assert err.value.line == 2

    def test_malformed_entry_reports_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("2 2\n1 2\n3 4+5j\n")
        assert err.value.line == 3
        assert err.value.column == 3

    def test_bare_imaginary_is_rejected(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_matrix("1 1\n1i\n")

    @pytest.mark.parametrize("text, line, column", [
        ("\u00b2 2\n1 2\n", 1, 1),       # superscript two as a dimension
        ("1 \u0662\n1 2\n", 1, 3),       # Arabic-Indic two as a dimension
        ("1 2\n1 \u0663\n", 2, 3),       # Arabic-Indic three as an entry
        ("1 1\n1e\u0663+2i\n", 2, 1),    # ... in an exponent
    ])
    def test_non_ascii_digits_are_parse_errors(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_matrix(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, line, column", [
        ("1 1\n1e400\n", 2, 1),
        ("2 2\n1 2\n3  -2e308\n", 3, 4),
        ("1 2\n0+0i 1-1e309i\n", 2, 6),
    ])
    def test_overflowing_entries_are_parse_errors(self, text, line, column):
        with pytest.raises(ParseError, match="overflows") as err:
            parse_matrix(text)
        assert (err.value.line, err.value.column) == (line, column)


class TestRoundTrip:
    @given(complex_matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)))
    @settings(max_examples=60)
    def test_parse_of_format_is_bitwise(self, a):
        back = parse_matrix(format_matrix(a))
        assert a.tobytes() == back.tobytes()

    @given(finite, finite)
    @settings(max_examples=60)
    def test_single_entry_extremes(self, re_part, im_part):
        a = np.array([[complex(re_part, im_part)]])
        back = parse_matrix(format_matrix(a))
        assert a.tobytes() == back.tobytes()

    def test_signed_zeros_all_four(self):
        a = np.array([[complex(0.0, 0.0), complex(-0.0, 0.0)],
                      [complex(0.0, -0.0), complex(-0.0, -0.0)]])
        back = parse_matrix(format_matrix(a))
        assert a.tobytes() == back.tobytes()

    def test_file_round_trip(self, tmp_path, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "m.txt"
        save_matrix(a, path)
        assert a.tobytes() == load_matrix(path).tobytes()

    def test_load_prefixes_path_on_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\nwat\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert str(path) in str(err.value)
        assert err.value.line == 2

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.txt")
