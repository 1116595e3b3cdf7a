"""Shared matrix validation helpers.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128: the array
shape carries (rows, cols) and the buffer is the row-major entry sequence.
Validation happens at public API boundaries; internal code works on arrays
that have already been checked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError

# Frobenius-norm comparison tolerance, overridable per call.  The Kronecker
# identity checks scale it by max(1, ||rhs||_F), so for them it is relative
# to the operand scale; the zero-factor and non-commutation checks use it as
# an absolute bound.
DEFAULT_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a 2-D complex128 array with finite entries."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix with positive dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_square(values, name: str = "matrix") -> np.ndarray:
    a = as_matrix(values)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a


def is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool: True is an int to Python
    but names no site, count or seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A real number with a finite double value; False, not a raw TypeError
    or OverflowError, for anything else (a string, None, a complex number,
    an integer past the double range)."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def to_number(kind, value, what: str):
    """``kind(value)`` for ``kind`` float or complex; ContractError naming
    ``what`` when it cannot be formed: for an integer past the double range
    or a value that is no number, text included, though ``kind`` would parse
    a numeric string such as "1.5"."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return kind(value)
        except OverflowError:
            raise ContractError(f"{what} must be finite, got an integer past the double "
                                "range") from None
        except (TypeError, ValueError):
            pass
    raise ContractError(f"{what} must be a number, got {value!r}")


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, the distance measure behind every residual report.

    ``np.linalg.norm`` squares the entries, so it overflows once the norm
    passes about 1.3e154; a matrix of finite entries is then rescaled by its
    largest entry magnitude, and the result is inf only when the norm itself
    is past the double range.  A finite plain norm is returned unchanged."""
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if math.isinf(norm):
            scale = float(np.max(np.abs(a)))
            if math.isfinite(scale):
                norm = scale * float(np.linalg.norm(a / scale))
    return norm
