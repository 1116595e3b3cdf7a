"""A Hermitian eigensolver and a guarded inverse on LAPACK.

``eigh`` checks Hermiticity, symmetrizes, zeroes entries below LAPACK's own
backward error, and hands the matrix to LAPACK through ``numpy.linalg.eigh``
/ ``eigvalsh``.  Purely real symmetric inputs
(common here: isotropic spin Hamiltonians are real) are solved in float64.
The result is put in canonical form: ascending values, each eigenvector's
first largest-magnitude component real nonnegative, exact ties ordered by
that component's index.  ``inverse`` is LAPACK through ``numpy.linalg.inv``
plus one singularity guard: a matrix whose reciprocal 1-norm condition number
1 / (||A||_1 ||A^-1||_1) is below ``RCOND_TOL`` is refused, whatever its scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import DEFAULT_TOL, as_square, frobenius
from .errors import ContractError, SingularityError, SizingError

# Reciprocal 1-norm condition number below which a matrix counts as singular.
# Scale-invariant: c * A gives the same value for every nonzero c.
RCOND_TOL = 1e-12
# Relative Hermiticity tolerance for eigh input checking.
HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted real eigenvalues, optionally paired with eigenvector columns.

    ``dimension`` is the dimension of the operator the values came from; a
    full dense solve carries exactly ``dimension`` eigenvalues, a partial
    (extremal) solve carries fewer.  When eigenvectors are present, column k
    pairs with eigenvalue k and each column's phase is fixed so that its
    first largest-magnitude component is real nonnegative.
    """

    eigenvalues: np.ndarray
    dimension: int
    eigenvectors: np.ndarray | None = None


def inverse(a) -> np.ndarray:
    """Matrix inverse via LAPACK; SingularityError when the matrix is exactly
    singular or its reciprocal 1-norm condition number is below RCOND_TOL."""
    a = as_square(a)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"matrix is exactly singular ({err})") from None
    rcond = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(a_inv, 1))
    # written so that a NaN or overflowed condition number is refused too
    if not rcond >= RCOND_TOL:
        raise SingularityError(f"reciprocal condition number {rcond:.3e} below {RCOND_TOL}")
    return a_inv


def _canonical_order(values: np.ndarray, vectors: np.ndarray | None):
    """Sort eigenvalues ascending; fix each vector's phase so its first
    largest-magnitude component is real nonnegative; break exact eigenvalue
    ties by that component's index."""
    if vectors is None:
        return np.sort(values), None
    anchors = np.empty(len(values), dtype=np.int64)
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        j = int(np.argmax(np.abs(col)))
        anchors[k] = j
        mag = abs(col[j])
        if mag > 0:
            vectors[:, k] = col * (np.conj(col[j]) / mag)
    order = np.lexsort((anchors, values))
    return values[order], vectors[:, order]


def _zero_tiny_entries(w: np.ndarray) -> None:
    """Set to zero, in place, the nonzero entries of magnitude below
    eps * max|w| / n.

    LAPACK's Householder reduction can lose the spectrum when entries span
    hundreds of orders of magnitude: a 9x9 Kronecker product with entries
    near 1e-3 and 1e-213 came back with eigenvalues off by 4e-8.  Together
    these entries have 2-norm below eps * max|w| <= eps * ||w||_2, LAPACK's
    own backward error, so zeroing them moves no eigenvalue by more than
    that.  Rows are read in blocks so no full-size magnitude array is held."""
    n = w.shape[0]
    step = max(1, (1 << 20) // n)
    blocks = [w[i:i + step] for i in range(0, n, step)]
    floor = np.finfo(np.float64).eps * max(float(np.abs(b).max()) for b in blocks) / n
    for block in blocks:
        mag = np.abs(block)
        # exact zeros are left alone, so a -0.0 keeps its sign
        block[(mag < floor) & (mag > 0)] = 0


def eigh(a, want_vectors: bool = True) -> Spectrum:
    """Full spectrum of a Hermitian matrix via LAPACK (numpy.linalg).

    Raises SizingError when an entry of a + a^H, which LAPACK would meet as
    a failure to converge, or an eigenvalue is past the double range."""
    a = as_square(a)
    n = a.shape[0]
    # formed once and contiguous, so neither use reads a strided view; freed
    # before the eigensolve, whose peak it would otherwise raise
    adjoint = np.ascontiguousarray(a.conj().T)
    if frobenius(a - adjoint) > HERMITICITY_RTOL * max(frobenius(a), 1.0):
        raise ContractError(
            f"input is not Hermitian to {HERMITICITY_RTOL} relative tolerance"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        herm = a + adjoint
        del adjoint
        herm *= 0.5
    if not np.isfinite(herm).all():
        raise SizingError(f"the {n}x{n} matrix plus its adjoint has an entry past the double range")
    w = herm.real if np.count_nonzero(herm.imag) == 0 else herm
    _zero_tiny_entries(w)
    if want_vectors:
        values, v = np.linalg.eigh(w)
    else:
        values, v = np.linalg.eigvalsh(w), None
    if not np.isfinite(values).all():
        raise SizingError(f"an eigenvalue of the {n}x{n} matrix is past the double range")
    values, v = _canonical_order(values, v)
    if v is not None:
        v = np.ascontiguousarray(v, dtype=np.complex128)
    return Spectrum(eigenvalues=values, dimension=n, eigenvectors=v)


def spectrum_multiset_equal(s1: Spectrum, s2: Spectrum, tol: float = DEFAULT_TOL) -> bool:
    """True iff both spectra have the same dimension and their sorted
    eigenvalue sequences agree pairwise within ``tol``."""
    if s1.dimension != s2.dimension or len(s1.eigenvalues) != len(s2.eigenvalues):
        return False
    return bool(np.max(np.abs(np.sort(s1.eigenvalues) - np.sort(s2.eigenvalues)), initial=0.0) <= tol)
