"""Spin-1/2 NMR Hamiltonians: Zeeman field along z plus isotropic exchange.

The general form on n sites is

    H = -mu_b0 * sum_k sigma_z(k)
        + sum_{(i,j) in E} J_ij * (sigma_x(i) sigma_x(j) + sigma_y(i) sigma_y(j)
                                   + sigma_z(i) sigma_z(j))

with sigma_axis(k) the Pauli matrix lifted to site k (bit n - k of the state
index, the convention of ``spin_algebra.lift``).  The dense builder fills
this from the bits b_k of each basis state s rather than multiplying lifted
matrices: the diagonal collects -mu_b0 (1 - 2 b_k) site by site, then
J_ij (1 - 2 (b_i xor b_j)) edge by edge in stored order, and each edge's
flip-flop part sigma_x sigma_x + sigma_y sigma_y puts 2 J_ij at
(s ^ mask_ij, s) for every s whose bits i and j differ (it vanishes on
aligned pairs).  That is O((n + |E|) 2^n) arithmetic on a zeroed matrix, and
with this accumulation order every entry equals the lifted-product form and
the matrix-free engine's ``to_dense`` bitwise.  ``build_general(spec,
z_scale)`` multiplies every sigma_z sigma_z coupling by z_scale, the XXZ
anisotropy Delta; 1 gives the isotropic form above.  The two- and three-site
builders are the general builder applied to fixed edge lists.

``verify_h2_decomposition`` mechanically reproduces the two-site Hamiltonian
from a weighted S_z and the squares of the weighted total components: each
square collapses to 2 a^2 (E x E + sigma x sigma), the identity shift is
discarded as a constant energy offset, and the remainder is matched against
build_h2 with J read off as 2 a^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._common import DEFAULT_TOL, frobenius
from .errors import ContractError, SiteRangeError
from .kron_core import ResidualReport, kron
from .spin_algebra import AXES, _check_capacity, pauli
# kept importable here: benchmark/tracing.py wraps hamiltonian_builder.lift
from .spin_algebra import lift  # noqa: F401

# Eq-level algebraic identities (squared weighted components) must hold to
# rounding error, far below the report tolerance.
INTERMEDIATE_TOL = 1e-12


@dataclass(frozen=True)
class CouplingEdge:
    """Exchange coupling J between two distinct sites, stored with i < j."""

    i: int
    j: int
    strength: float

    def __post_init__(self):
        if not all(isinstance(site, int) and not isinstance(site, bool)
                   for site in (self.i, self.j)):
            raise ContractError(f"edge sites must be integers, got ({self.i!r}, {self.j!r})")
        if self.i < 1 or self.j < 1:
            raise SiteRangeError(f"edge sites must be >= 1, got ({self.i}, {self.j})")
        if self.i == self.j:
            raise ContractError(f"self-coupling at site {self.i} is not allowed")
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)
        object.__setattr__(self, "strength", float(self.strength))
        if not math.isfinite(self.strength):
            raise ContractError(f"coupling strength must be finite, got {self.strength}")


@dataclass(frozen=True)
class HamiltonianSpec:
    """n sites, Zeeman energy mu_b0 (the product mu * B0), and coupling edges."""

    n_sites: int
    mu_b0: float
    couplings: tuple[CouplingEdge, ...] = ()

    def __post_init__(self):
        if (not isinstance(self.n_sites, int) or isinstance(self.n_sites, bool)
                or self.n_sites < 1):
            raise ContractError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        object.__setattr__(self, "mu_b0", float(self.mu_b0))
        if not math.isfinite(self.mu_b0):
            raise ContractError(f"mu_b0 must be finite, got {self.mu_b0}")
        object.__setattr__(self, "couplings", tuple(self.couplings))
        seen = set()
        for edge in self.couplings:
            if not isinstance(edge, CouplingEdge):
                raise ContractError(f"couplings must be CouplingEdge instances, got {edge!r}")
            if edge.j > self.n_sites:
                raise SiteRangeError(
                    f"edge ({edge.i}, {edge.j}) runs past n_sites = {self.n_sites}"
                )
            if (edge.i, edge.j) in seen:
                raise ContractError(f"duplicate coupling between sites {edge.i} and {edge.j}")
            seen.add((edge.i, edge.j))


@dataclass(frozen=True)
class WeightTriple:
    """Per-axis weights for the total-component decomposition check."""

    a_x: float
    a_y: float
    a_z: float

    def __post_init__(self):
        for name in ("a_x", "a_y", "a_z"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")


def build_general(spec: HamiltonianSpec, z_scale: float = 1.0) -> np.ndarray:
    """Dense Hamiltonian for an arbitrary valid spec, with every zz coupling
    scaled by ``z_scale`` (the XXZ anisotropy Delta; 1 is isotropic)."""
    n = spec.n_sites
    _check_capacity(n, "dense Hamiltonian")
    dim = 1 << n
    # row k - 1 holds site k's bit (bit n - k) of every state index
    bits = (np.arange(dim)[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    diag = np.zeros(dim)
    for site_bits in bits:
        diag += (-spec.mu_b0) * (1 - 2 * site_bits)
    h = np.zeros((dim, dim), dtype=np.complex128)
    for edge in spec.couplings:
        differ = bits[edge.i - 1] ^ bits[edge.j - 1]
        diag += (edge.strength * z_scale) * (1 - 2 * differ)
        flipped = np.flatnonzero(differ)
        mask = (1 << (n - edge.i)) | (1 << (n - edge.j))
        h[flipped ^ mask, flipped] = 2.0 * edge.strength
    np.fill_diagonal(h, diag)
    return h


def build_h2(mu_b0: float, j12: float) -> np.ndarray:
    """Two-site Hamiltonian
    -mu_b0 (sz x E + E x sz) + j12 (sx x sx + sy x sy + sz x sz)."""
    return build_general(HamiltonianSpec(2, mu_b0, (CouplingEdge(1, 2, j12),)))


def build_h3(mu_b0: float, j12: float, j23: float, j31: float) -> np.ndarray:
    """Three-site Hamiltonian with couplings on edges (1,2), (2,3), (3,1);
    every factor sits at its own site slot."""
    return build_general(
        HamiltonianSpec(
            3,
            mu_b0,
            (CouplingEdge(1, 2, j12), CouplingEdge(2, 3, j23), CouplingEdge(3, 1, j31)),
        )
    )


def _weighted_component(axis: str, weight: float) -> np.ndarray:
    sigma = pauli(axis)
    eye2 = np.eye(2, dtype=np.complex128)
    return weight * (kron(sigma, eye2) + kron(eye2, sigma))


def component_square_residual(axis: str, weight: float) -> float:
    """Residual of (a (sigma x E + E x sigma))^2 = 2 a^2 (E x E + sigma x sigma),
    with the left side expanded product by product."""
    sigma = pauli(axis)
    eye2 = np.eye(2, dtype=np.complex128)
    left_factor = kron(sigma, eye2)
    right_factor = kron(eye2, sigma)
    w2 = weight * weight
    expanded = w2 * (
        left_factor @ left_factor
        + left_factor @ right_factor
        + right_factor @ left_factor
        + right_factor @ right_factor
    )
    closed = (2.0 * w2) * (kron(eye2, eye2) + kron(sigma, sigma))
    return frobenius(expanded - closed)


def verify_h2_decomposition(weights: WeightTriple, mu_b0: float,
                            tol: float = DEFAULT_TOL) -> ResidualReport:
    """Rebuild the two-site Hamiltonian from the weighted S_z plus the squared
    weighted components and report the residual against build_h2.

    The linear z term enters with coefficient a_z; each squared component
    contributes 2 a^2 (E x E + sigma x sigma) (checked as an intermediate
    identity at 1e-12); the total identity shift 2 (a_x^2 + a_y^2 + a_z^2) is
    dropped as a constant offset.  The comparison target is
    build_h2(mu_b0, J) with the caller's mu_b0 (consistent when
    mu_b0 = -a_z) and J = 2 * mean(a^2), the least-squares isotropic match;
    anisotropic weights therefore surface as a residual, not an exception.
    """
    mu_b0 = float(mu_b0)
    sq = (weights.a_x ** 2, weights.a_y ** 2, weights.a_z ** 2)
    spread = max(sq) - min(sq)

    intermediate = 0.0
    total = _weighted_component("z", weights.a_z)  # the linear Zeeman-like term
    eye4 = np.eye(4, dtype=np.complex128)
    for axis, a in zip(AXES, (weights.a_x, weights.a_y, weights.a_z)):
        comp = _weighted_component(axis, a)
        square = comp @ comp
        closed = (2.0 * a * a) * (eye4 + kron(pauli(axis), pauli(axis)))
        intermediate = max(intermediate, frobenius(square - closed))
        total = total + square
    total = total - (2.0 * (sq[0] + sq[1] + sq[2])) * eye4

    j_match = 2.0 * (sq[0] + sq[1] + sq[2]) / 3.0
    rhs = build_h2(mu_b0, j_match)
    residual = frobenius(total - rhs)
    note = (
        f"matched J = 2*mean(a^2) = {j_match:.9g}; Zeeman term uses caller mu_b0 = {mu_b0:.9g} "
        f"(consistent iff mu_b0 = -a_z = {-weights.a_z:.9g}); squared-weight spread {spread:.3e}; "
        f"intermediate square-identity residual {intermediate:.3e}"
    )
    passed = residual <= tol and intermediate <= INTERMEDIATE_TOL
    return ResidualReport(
        property_name="H2 decomposition",
        residual=residual,
        tolerance=tol,
        passed=passed,
        note=note,
    )


def spec_to_dict(spec: HamiltonianSpec) -> dict:
    return {
        "n_sites": spec.n_sites,
        "mu_b0": spec.mu_b0,
        "couplings": [{"i": e.i, "j": e.j, "J": e.strength} for e in spec.couplings],
    }


def _json_number(value, what: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContractError(f"{what} must be a JSON number, got {value!r}")
    return value


def spec_from_dict(data: dict) -> HamiltonianSpec:
    if not isinstance(data, dict):
        raise ContractError(f"spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"n_sites", "mu_b0", "couplings"}
    if unknown:
        raise ContractError(f"unknown spec keys: {sorted(unknown)}")
    try:
        n_sites = _json_number(data["n_sites"], "n_sites")
        mu_b0 = _json_number(data["mu_b0"], "mu_b0")
    except KeyError as missing:
        raise ContractError(f"spec is missing key {missing.args[0]!r}") from None
    couplings = data.get("couplings", [])
    if not isinstance(couplings, list):
        raise ContractError(f"couplings must be a list, got {couplings!r}")
    edges = []
    for entry in couplings:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "J"}:
            raise ContractError(f"coupling entries need keys i, j, J; got {entry!r}")
        edges.append(CouplingEdge(*(_json_number(entry[key], f"coupling {key}")
                                    for key in ("i", "j", "J"))))
    return HamiltonianSpec(n_sites, mu_b0, tuple(edges))


def load_spec(path) -> HamiltonianSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: HamiltonianSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")
