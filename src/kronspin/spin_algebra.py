"""Pauli operators, site lifting, total spin components and S^2.

A single-site operator acts on an n-site register by taking Kronecker
products with 2 x 2 identities on every other site: site 1 is the leftmost
factor, so site k of n maps to bit n - k of the state index (site 1 is the
most significant bit).  Total spin components carry the physical 1/2
prefactor (hbar = 1); the bare Pauli matrices never do.

``lift`` builds the Kronecker chain itself.  The dense totals are filled
straight from the bits of the state index instead: site k of S_axis puts
sigma[b, b] on the diagonal and sigma[1 - b, b] at (s ^ bit, s), where b is
the site's bit of s; S^2 is n(4 - n)/4 I plus one SWAP per site pair, i.e.
the number of aligned pairs on the diagonal and a 1 at (s ^ mask_ij, s)
whenever bits i and j of s differ.  Every entry is a short sum of exact
quarter-integers, so the fill equals the lifted and multiplied forms
bitwise with O(n^2 2^n) arithmetic and no 2^n x 2^n matrix product.

Dense construction is capped at DENSE_SITE_CAP sites (matrix dimension
4096); past that the matrix-free engine is the supported path.
"""

from __future__ import annotations

import numpy as np

from ._common import DEFAULT_TOL, as_matrix, as_square, frobenius
from .errors import CapacityError, ShapeError, SiteRangeError
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
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _PAULI[axis].copy()


def _check_capacity(n: int, what: str) -> None:
    if n > DENSE_SITE_CAP:
        raise CapacityError(
            f"{what} for n={n} sites exceeds the dense cap of {DENSE_SITE_CAP} "
            f"(dimension {2 ** DENSE_SITE_CAP}); use the matrix-free engine"
        )


def lift(local, site: int, n: int) -> np.ndarray:
    """Embed a 2 x 2 operator at one site of an n-site register.

    Returns I_2 x ... x local x ... x I_2 with ``local`` in slot ``site``
    (1-based, leftmost factor first); for n = 1 this is ``local`` itself.
    """
    local = as_matrix(local)
    if local.shape != (2, 2):
        raise ShapeError(f"local operator must be 2x2, got {local.shape}")
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


def _site_bits(n: int) -> np.ndarray:
    """(n, 2^n) array whose row k - 1 holds site k's bit (bit n - k) of
    every state index 0 .. 2^n - 1."""
    shifts = np.arange(n - 1, -1, -1)[:, None]
    return (np.arange(1 << n)[None, :] >> shifts) & 1


def total_component(axis: str, n: int) -> np.ndarray:
    """Total spin component S_axis = (1/2) * sum over sites of the lifted
    Pauli matrix; the 1/2 is the spin-1/2 prefactor with hbar = 1."""
    sigma = pauli(axis)
    if n < 1:
        raise SiteRangeError(f"site count must be >= 1, got {n}")
    _check_capacity(n, "dense total component")
    dim = 1 << n
    states = np.arange(dim)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for k, bits in enumerate(_site_bits(n)):
        total[states, states] += sigma[bits, bits]
        total[states ^ (1 << (n - 1 - k)), states] += sigma[1 - bits, bits]
    total *= 0.5
    return total


def total_spin_squared(n: int) -> np.ndarray:
    """S^2 = S_x^2 + S_y^2 + S_z^2 = n(4 - n)/4 I + sum_{i<j} SWAP_ij;
    eigenvalues s(s+1) with s in {n/2, n/2 - 1, ..., (n mod 2)/2}."""
    if n < 1:
        raise SiteRangeError(f"site count must be >= 1, got {n}")
    _check_capacity(n, "dense total spin squared")
    dim = 1 << n
    bits = _site_bits(n)
    diag = np.full(dim, n * (4 - n) / 4)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n - 1):
        for j in range(i + 1, n):
            differ = bits[i] ^ bits[j]
            diag += 1 - differ
            flipped = np.flatnonzero(differ)
            mask = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
            total[flipped ^ mask, flipped] = 1.0
    np.fill_diagonal(total, diag)
    return total


def commutator(a, b) -> np.ndarray:
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"operands must share dimension, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def conserved_residual(h, q) -> float:
    """Frobenius norm of [h, q]; zero iff q is conserved under h."""
    return frobenius(commutator(h, q))
