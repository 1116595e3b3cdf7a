"""Kronecker product, its algebraic laws as executable checks, and the
perfect-shuffle similarity between the two factor orders.

The product is computed by the block rule: entry (i*rb + k, j*cb + l) of
kron(a, b) is a[i, j] * b[k, l].  The eight classical laws (zero factor,
identity factor, distributivity in either factor, scalar mixing, inversion,
mixed product, non-commutation) are exposed through ``check_property`` as
residual reports so callers can run them on arbitrary inputs.  The inversion
law is checked in its correct form (A x B)^-1 = A^-1 x B^-1; the transposed
variant B^-1 x A^-1, which circulates in some write-ups, is reported as a
separately labeled diagnostic that is expected to fail for generic operands
(it differs from the true inverse by exactly the shuffle conjugation below).

kron(a, b) and kron(b, a) are never equal in general, but they are always
related by permutation matrices: kron(b, a) = K_row * kron(a, b) * K_col^T
where K_row, K_col are commutation (perfect-shuffle) matrices built from the
row and column dimensions.  For square operands K_row = K_col, giving the
familiar similarity P * kron(a, b) * P^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._common import DEFAULT_TOL, as_matrix, as_square, frobenius
from .errors import ShapeError, SizingError
from . import dense_linalg

# Cap on output entries: 2^26 complex doubles = 1 GiB, the point past which a
# dense Kronecker product stops being a sane object to materialize.
MAX_KRON_ELEMENTS = 1 << 26

PROPERTY_NAMES = {
    1: "P1 zero factor",
    2: "P2 identity factor",
    3: "P3 sum in left factor",
    4: "P4 sum in right factor",
    5: "P5 scalar factors",
    6: "P6 inverse (corrected)",
    7: "P7 mixed product",
    8: "P8 non-commutation",
}


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check, measured in Frobenius norm.

    ``passed`` means residual <= tolerance for every check except the
    non-commutation one, where the claim under test is an inequality and
    passing means the two products actually differ.  For the identities
    P2-P7, ``tolerance`` is the caller's tol scaled by max(1, ||rhs||_F);
    P1 and P8 carry the caller's tol unscaled.  ``diagnostic`` rows
    document expected failures (the as-printed inverse form) and are excluded
    from pass/fail aggregation.  ``extras`` carries companion reports emitted
    by the same check.
    """

    property_name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""
    diagnostic: bool = False
    extras: tuple["ResidualReport", ...] = field(default=())


def kron(a, b) -> np.ndarray:
    """Kronecker product by the explicit block rule.  Raises SizingError when
    the output would exceed the entry cap or an entry overflows a double."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows * cols > MAX_KRON_ELEMENTS:
        raise SizingError(
            f"kron output would be {rows}x{cols} = {rows * cols} entries, "
            f"above the {MAX_KRON_ELEMENTS}-entry cap"
        )
    # result[(i*rb + k), (j*cb + l)] = a[i, j] * b[k, l].  The complex product
    # is expanded by hand with a fixed evaluation order for the cross terms;
    # the compiled complex-multiply loop may contract them into fused ops
    # whose rounding depends on operand order, which would break the exact
    # permutation relation between kron(a, b) and kron(b, a).
    av, bv = a[:, None, :, None], b[None, :, None, :]
    # finite factors can still overflow: 1e308 * 1e308 is no double
    with np.errstate(over="raise"):
        try:
            re = av.real * bv.real - av.imag * bv.imag
            im = av.real * bv.imag + av.imag * bv.real
        except FloatingPointError:
            raise SizingError(
                f"kron output {rows}x{cols} has an entry past the double range"
            ) from None
    blocks = np.empty(re.shape, dtype=np.complex128)
    blocks.real = re
    blocks.imag = im
    return blocks.reshape(rows, cols)


def commutation_permutation(m: int, n: int) -> np.ndarray:
    """Index form of the commutation matrix: position i*n + j maps to j*m + i.

    Returns the integer array q with q[i*n + j] = j*m + i; the dense matrix P
    of ``commutation_matrix`` has P[q[k], k] = 1.  The inverse permutation is
    commutation_permutation(n, m).
    """
    if m < 1 or n < 1:
        raise ShapeError(f"permutation dimensions must be >= 1, got ({m}, {n})")
    return np.arange(m * n).reshape(n, m).T.ravel()


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """Dense mn x mn permutation matrix P with kron(b, a) = P kron(a, b) P^T
    for all square a (m x m) and b (n x n); exactly one 1 per row and column.
    """
    q = commutation_permutation(m, n)
    p = np.zeros((m * n, m * n), dtype=np.complex128)
    p[q, np.arange(m * n)] = 1.0
    return p


def shuffle_conjugate(mat, a_shape: tuple[int, int], b_shape: tuple[int, int]) -> np.ndarray:
    """Apply the factor-swap permutations to a kron(a, b)-shaped matrix.

    Returns K_row * mat * K_col^T computed as pure index moves (no floating
    arithmetic), where K_row = commutation_matrix(a_shape[0], b_shape[0]) and
    K_col = commutation_matrix(a_shape[1], b_shape[1]).  When ``mat`` is
    kron(a, b) for operands of the stated shapes the result is kron(b, a)
    bitwise.  For square operands both permutations coincide and this is the
    similarity P mat P^T.
    """
    mat = as_matrix(mat)
    (ma, na), (mb, nb) = a_shape, b_shape
    if mat.shape != (ma * mb, na * nb):
        raise ShapeError(
            f"matrix shape {mat.shape} does not match factor shapes {a_shape} x {b_shape}"
        )
    # (P M Q^T)[P(r), Q(c)] = M[r, c]; gather form uses the inverse maps,
    # and the inverse of the (m, n) shuffle is the (n, m) shuffle.
    inv_row = commutation_permutation(mb, ma)
    inv_col = commutation_permutation(nb, na)
    return mat[np.ix_(inv_row, inv_col)]


def similarity_transform(c, a) -> np.ndarray:
    """Change of basis D = C^-1 A C; D and A share their eigenvalue multiset."""
    c = as_square(c, "basis change")
    a = as_square(a, "operator")
    if c.shape != a.shape:
        raise ShapeError(f"dimension mismatch: basis change {c.shape}, operator {a.shape}")
    c_inv = dense_linalg.inverse(c)
    return c_inv @ a @ c


def noncommutativity_witness(a, b, tol: float = DEFAULT_TOL):
    """First entry at which kron(a, b) and kron(b, a) differ, or None.

    Returns the (row, col) of the first row-major entry whose difference
    exceeds ``tol``.  None means the two products agree, which happens for
    equal operands and for identity (or other coinciding) cases.
    """
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"operands must share dimension, got {a.shape} and {b.shape}")
    diff = np.abs(kron(a, b) - kron(b, a))
    hits = np.argwhere(diff > tol)
    if hits.size == 0:
        return None
    return int(hits[0][0]), int(hits[0][1])


def _is_scalar_identity(m: np.ndarray, tol: float) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return frobenius(m - m[0, 0] * np.eye(m.shape[0])) <= tol


def _check_finite(residual: float, bound: float) -> None:
    """Refuse with SizingError, as kron refuses an overflowing entry, a
    residual or bound past the double range: it judges nothing, and a report
    cannot carry it as a JSON number."""
    if not (math.isfinite(residual) and math.isfinite(bound)):
        raise SizingError(f"residual {residual} or its bound {bound} is past the double range")


def _report(name, lhs, rhs, tol, note="", diagnostic=False, extras=()):
    """Judge an identity lhs == rhs relative to the operand scale: the bound
    is tol * max(1, ||rhs||_F), so rounding in large products is not a
    failure and small ones are still held to tol absolutely."""
    residual = frobenius(lhs - rhs)
    bound = tol * max(1.0, frobenius(rhs))
    _check_finite(residual, bound)
    return ResidualReport(
        property_name=name,
        residual=residual,
        tolerance=bound,
        passed=residual <= bound,
        note=note,
        diagnostic=diagnostic,
        extras=tuple(extras),
    )


def _derived(m: np.ndarray) -> np.ndarray:
    """A sum or product of the operands, refused with SizingError, as kron
    refuses an overflowing entry, when an entry overflowed the double range."""
    if not np.isfinite(m).all():
        raise SizingError(
            f"a derived {m.shape[0]}x{m.shape[1]} operand has an entry past the double range"
        )
    return m


def _need(operands, count, index):
    if len(operands) != count:
        raise ShapeError(
            f"property {index} takes {count} operand(s), got {len(operands)}"
        )


# an overflowing sum or product of the operands is refused by _derived, so
# numpy's overflow warning would only repeat it
@np.errstate(over="ignore")
def check_property(index: int, operands, scalars=None, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Evaluate both sides of one Kronecker law and report the residual.

    Operand conventions: 1, 2, 5, 6, 8 take (a, b); 3 takes (a1, a2, b) for
    (a1 + a2) x b; 4 takes (a, b1, b2) for a x (b1 + b2); 7 takes
    (a1, b1, a2, b2) for (a1 b1) x (a2 b2).  Property 5 needs two scalars.
    Property 6 needs square operands that ``dense_linalg.inverse`` accepts:
    a, b and kron(a, b) (whose condition number is the product of theirs)
    must each have a reciprocal 1-norm condition number of at least
    RCOND_TOL, else SingularityError is raised.  It attaches the as-printed
    transposed form as a diagnostic extra.  Property 8 passes when the two
    products differ, with equal operands and scalar-identity pairs accepted
    as the documented commuting exceptions.  P2-P7 are judged against
    tol * max(1, ||rhs||_F); P1 and P8 against tol itself.  Raises
    SizingError when a product, or a sum or product of the operands, has an
    entry past the double range, and when a residual or its bound is.
    """
    operands = [as_matrix(op) for op in operands]

    if index == 1:
        _need(operands, 2, index)
        a, b = operands
        lhs1 = kron(a, np.zeros_like(b))
        lhs2 = kron(np.zeros_like(a), b)
        residual = max(frobenius(lhs1), frobenius(lhs2))
        return ResidualReport(PROPERTY_NAMES[1], residual, tol, residual <= tol,
                              note="a x 0 and 0 x b against the zero matrix")

    if index == 2:
        _need(operands, 2, index)
        a, b = operands
        ra, rb = a.shape[0], b.shape[0]
        return _report(PROPERTY_NAMES[2],
                       kron(np.eye(ra, dtype=np.complex128), np.eye(rb, dtype=np.complex128)),
                       np.eye(ra * rb, dtype=np.complex128), tol,
                       note=f"I_{ra} x I_{rb} against I_{ra * rb}")

    if index == 3:
        _need(operands, 3, index)
        a1, a2, b = operands
        if a1.shape != a2.shape:
            raise ShapeError(f"summands must share shape, got {a1.shape} and {a2.shape}")
        return _report(PROPERTY_NAMES[3], kron(_derived(a1 + a2), b),
                       kron(a1, b) + kron(a2, b), tol)

    if index == 4:
        _need(operands, 3, index)
        a, b1, b2 = operands
        if b1.shape != b2.shape:
            raise ShapeError(f"summands must share shape, got {b1.shape} and {b2.shape}")
        return _report(PROPERTY_NAMES[4], kron(a, _derived(b1 + b2)),
                       kron(a, b1) + kron(a, b2), tol)

    if index == 5:
        _need(operands, 2, index)
        if scalars is None or len(scalars) != 2:
            raise ShapeError("property 5 needs two scalars (s, t)")
        a, b = operands
        s, t = scalars
        return _report(PROPERTY_NAMES[5], kron(_derived(s * a), _derived(t * b)),
                       (s * t) * kron(a, b), tol, note=f"s={s}, t={t}")

    if index == 6:
        _need(operands, 2, index)
        a = as_square(operands[0], "a")
        b = as_square(operands[1], "b")
        kron_inv = dense_linalg.inverse(kron(a, b))
        a_inv = dense_linalg.inverse(a)
        b_inv = dense_linalg.inverse(b)
        literal = _report(
            "P6 inverse (as printed)", kron_inv, kron(b_inv, a_inv), tol,
            note="transposed-factor form; expected to fail unless the shuffle fixes kron(a,b)^-1",
            diagnostic=True,
        )
        return _report(PROPERTY_NAMES[6], kron_inv, kron(a_inv, b_inv), tol,
                       extras=(literal,))

    if index == 7:
        _need(operands, 4, index)
        a1, b1, a2, b2 = operands
        if a1.shape[1] != b1.shape[0] or a2.shape[1] != b2.shape[0]:
            raise ShapeError("inner dimensions must agree for both ordinary products")
        return _report(PROPERTY_NAMES[7],
                       kron(_derived(a1 @ b1), _derived(a2 @ b2)),
                       kron(a1, a2) @ kron(b1, b2), tol)

    if index == 8:
        _need(operands, 2, index)
        a, b = operands
        residual = frobenius(kron(a, b) - kron(b, a))
        _check_finite(residual, tol)
        if residual > tol:
            return ResidualReport(PROPERTY_NAMES[8], residual, tol, True,
                                  note="products differ as claimed")
        if _is_scalar_identity(a, tol) and _is_scalar_identity(b, tol):
            note, ok = "commute (identity case)", True
        elif a.shape == b.shape and frobenius(a - b) <= tol:
            note, ok = "commute (equal operands)", True
        else:
            note, ok = "commute (unexpected coincidence)", False
        return ResidualReport(PROPERTY_NAMES[8], residual, tol, ok, note=note)

    raise ShapeError(f"property index must be 1..8, got {index}")
