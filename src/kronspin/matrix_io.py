"""Plain-text matrix format: a "rows cols" header line, then one line per
row with whitespace-separated entries.

An entry is either a bare real ("1", "-0.5", "2e-3") or real plus signed
imaginary part with an "i" suffix ("0+1i", "-0.5-2i").  The writer renders
floats with repr, the shortest decimal that round-trips to the same double,
and emits the imaginary part whenever its bit pattern is nonzero (so "-0.0i"
survives); re-parsing a written matrix therefore reproduces it bitwise.
Parse failures report 1-based line and column numbers.
"""

from __future__ import annotations

import math
import re

import numpy as np

from ._common import as_matrix
from .errors import ParseError

# digits are ASCII only: str.isdigit and a Unicode \d also accept digits
# such as "²" or "٣", which int() rejects or float() reads as a value
_UNSIGNED = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_ENTRY_RE = re.compile(rf"^([+-]?{_UNSIGNED})(?:([+-])({_UNSIGNED})i)?$")
_TOKEN_RE = re.compile(r"\S+")


def _format_entry(re_part: float, im_part: float) -> str:
    negative_im = math.copysign(1.0, im_part) < 0.0
    if im_part == 0.0 and not negative_im:
        return repr(re_part)
    return f"{re_part!r}{'-' if negative_im else '+'}{abs(im_part)!r}i"


def format_matrix(a) -> str:
    """Render a matrix in the text format (includes the trailing newline)."""
    a = as_matrix(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    # one row at a time: Python floats format fast, and converting the whole
    # matrix at once would hold every entry as a Python object
    for row in a:
        lines.append(" ".join(map(_format_entry, row.real.tolist(), row.imag.tolist())))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the text format; raises ParseError with line/column on failure."""
    lines = text.split("\n")
    # trailing blank lines are fine; anything else must line up exactly
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input, expected a 'rows cols' header", line=1, column=1)

    header = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(lines[0])]
    if len(header) != 2:
        raise ParseError(
            f"header must be 'rows cols', got {len(header)} token(s)", line=1, column=1
        )
    dims = []
    for token, col in header:
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            raise ParseError(f"dimension must be a positive integer, got {token!r}",
                             line=1, column=col)
        dims.append(int(token))
    rows, cols = dims

    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} data row(s), got {len(lines) - 1}",
                         line=min(len(lines), rows) + 1, column=1)

    # the array is built from entries already read: a header alone may claim
    # more entries than memory holds
    entries = []
    for r in range(rows):
        line_no = r + 2
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(lines[r + 1])]
        if len(tokens) != cols:
            col = tokens[cols][1] if len(tokens) > cols else len(lines[r + 1]) + 1
            raise ParseError(f"row has {len(tokens)} entries, expected {cols}",
                             line=line_no, column=col)
        for token, col in tokens:
            match = _ENTRY_RE.match(token)
            if match is None:
                raise ParseError(f"malformed entry {token!r}", line=line_no, column=col)
            re_part = float(match.group(1))
            im_part = 0.0
            if match.group(2) is not None:
                im_part = float(match.group(3))
                if match.group(2) == "-":
                    im_part = -im_part
            entries.append(complex(re_part, im_part))
    out = np.array(entries, dtype=np.complex128).reshape(rows, cols)
    # float() reads a decimal past the double range, such as 1e400, as inf
    overflow = np.flatnonzero(~np.isfinite(out))
    if overflow.size:
        r, c = divmod(int(overflow[0]), cols)
        match = list(_TOKEN_RE.finditer(lines[r + 1]))[c]
        raise ParseError(f"entry {match.group(0)!r} overflows a double",
                         line=r + 2, column=match.start() + 1)
    return out


def save_matrix(a, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a))


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    except ParseError as err:
        raise ParseError(f"{path}: {err.raw_message}", line=err.line, column=err.column) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from None
