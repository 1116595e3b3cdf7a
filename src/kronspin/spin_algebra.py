"""Pauli operators, site lifting and dense commutators.

A single-site operator acts on an n-site register by taking Kronecker
products with 2 x 2 identities on every other site: site 1 is the leftmost
factor, so site k of n maps to bit n - k of the state index (site 1 is the
most significant bit).  ``lift`` builds that Kronecker chain itself.  The
bare Pauli matrices carry no 1/2; the total spin components S_axis and S^2,
which do (hbar = 1), are built in ``matfree_engine`` as sums of Kronecker
terms and scattered into dense matrices from there.

Dense construction is capped at DENSE_SITE_CAP sites (matrix dimension
4096); past that the matrix-free engine is the supported path.
"""

from __future__ import annotations

import numpy as np

from ._common import as_matrix, as_square, frobenius, is_integer
from .errors import CapacityError, ContractError, ShapeError, SiteRangeError
from .kron_core import kron

AXES = ("x", "y", "z")

# Dense ceiling: 4096^2 complex doubles is ~256 MB per matrix.
DENSE_SITE_CAP = 12

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli(axis: str) -> np.ndarray:
    """Standard 2 x 2 Pauli matrix for axis 'x', 'y' or 'z'."""
    if axis not in _PAULI:
        raise ContractError(f"axis must be one of {AXES}, got {axis!r}")
    return _PAULI[axis].copy()


def _check_capacity(n: int, what: str) -> None:
    if n > DENSE_SITE_CAP:
        # 2^n is written as a power: Python refuses to print an int of more
        # than 4300 digits
        raise CapacityError(
            f"{what} for n={n} sites (dimension 2^{n}) exceeds the dense cap of "
            f"{DENSE_SITE_CAP} sites (dimension 2^{DENSE_SITE_CAP} = {2 ** DENSE_SITE_CAP}); "
            "use the matrix-free engine"
        )


def lift(local, site: int, n: int) -> np.ndarray:
    """Embed a 2 x 2 operator at one site of an n-site register.

    Returns I_2 x ... x local x ... x I_2 with ``local`` in slot ``site``
    (1-based, leftmost factor first); for n = 1 this is ``local`` itself.
    A ``site`` or ``n`` that is not an integer, or is a bool, is refused with
    ContractError: no slot would equal it, and ``local`` would be dropped.
    """
    local = as_matrix(local)
    if local.shape != (2, 2):
        raise ShapeError(f"local operator must be 2x2, got {local.shape}")
    if not (is_integer(site) and is_integer(n)):
        raise ContractError(f"site and site count must be integers, got site {site!r} of {n!r}")
    if n < 1:
        raise SiteRangeError(f"site count must be >= 1, got {n}")
    if not 1 <= site <= n:
        raise SiteRangeError(f"site {site} out of range 1..{n}")
    _check_capacity(n, "dense lift")
    eye2 = np.eye(2, dtype=np.complex128)
    out = local if site == 1 else eye2
    for k in range(2, n + 1):
        out = kron(out, local if k == site else eye2)
    return out


def commutator(a, b) -> np.ndarray:
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"operands must share dimension, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def conserved_residual(h, q) -> float:
    """Frobenius norm of [h, q]; zero iff q is conserved under h."""
    return frobenius(commutator(h, q))
