"""Spin-1/2 NMR Hamiltonians: Zeeman field along z plus isotropic exchange.

The general form on n sites is

    H = -mu_b0 * sum_k sigma_z(k)
        + sum_{(i,j) in E} J_ij * (sigma_x(i) sigma_x(j) + sigma_y(i) sigma_y(j)
                                   + sigma_z(i) sigma_z(j))

with sigma_axis(k) the Pauli matrix lifted to site k (bit n - k of the state
index, the convention of ``spin_algebra.lift``).  It has one construction:
the edge list (i, j, J, J * z_scale) of the spec is the matrix-free
engine's operator (``matfree_engine.spec_to_kronsum``), whose plan is the
diagonal of Zeeman and zz terms plus two flip-flop moves of weight 2 J per
edge, and ``build_general`` scatters that plan's flip form into a dense
matrix.  Every entry equals the lifted-product form and the engine's
``to_dense`` bitwise.  ``build_general(spec, z_scale)`` multiplies every
sigma_z sigma_z coupling by z_scale, the XXZ anisotropy Delta; 1 gives the
isotropic form above.  The two- and three-site builders are the general
builder applied to fixed edge lists.

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

from ._common import DEFAULT_TOL, frobenius, is_integer
from .errors import ContractError, ParseError, SiteRangeError, SizingError
from .kron_core import ResidualReport, kron
from .matfree_engine import _check_site_count, _scatter_dense, spec_to_kronsum
from .spin_algebra import AXES, _check_capacity, pauli
# kept importable here: benchmark/tracing.py wraps hamiltonian_builder.lift
from .spin_algebra import lift  # noqa: F401

# Eq-level algebraic identities (squared weighted components) must hold to
# rounding error, far below the report tolerance.
INTERMEDIATE_TOL = 1e-12


def _finite_float(value, what: str) -> float:
    """``float(value)``; ContractError when that is not finite or, for an
    integer past the double range, cannot be formed at all."""
    try:
        number = float(value)
    except OverflowError:
        raise ContractError(f"{what} must be finite, got an integer past the double "
                            "range") from None
    if not math.isfinite(number):
        raise ContractError(f"{what} must be finite, got {number}")
    return number


@dataclass(frozen=True)
class CouplingEdge:
    """Exchange coupling J between two distinct sites, stored as Python ints
    with i < j."""

    i: int
    j: int
    strength: float

    def __post_init__(self):
        if not (is_integer(self.i) and is_integer(self.j)):
            raise ContractError(f"edge sites must be integers, got ({self.i!r}, {self.j!r})")
        if self.i < 1 or self.j < 1:
            raise SiteRangeError(f"edge sites must be >= 1, got ({self.i}, {self.j})")
        if self.i == self.j:
            raise ContractError(f"self-coupling at site {self.i} is not allowed")
        lo, hi = sorted((int(self.i), int(self.j)))
        object.__setattr__(self, "i", lo)
        object.__setattr__(self, "j", hi)
        object.__setattr__(self, "strength", _finite_float(self.strength, "coupling strength"))


@dataclass(frozen=True)
class HamiltonianSpec:
    """n sites, Zeeman energy mu_b0 (the product mu * B0), and coupling edges."""

    n_sites: int
    mu_b0: float
    couplings: tuple[CouplingEdge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _check_site_count(self.n_sites))
        object.__setattr__(self, "mu_b0", _finite_float(self.mu_b0, "mu_b0"))
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
            object.__setattr__(self, name, _finite_float(getattr(self, name), name))


def build_general(spec: HamiltonianSpec, z_scale: float = 1.0) -> np.ndarray:
    """Dense Hamiltonian for an arbitrary valid spec, with every zz coupling
    scaled by ``z_scale`` (the XXZ anisotropy Delta; 1 is isotropic): the
    flip form of its edge list's plan, scattered.  Raises SizingError when
    the summed values pass the double range."""
    _check_capacity(spec.n_sites, "dense Hamiltonian")
    return _scatter_dense(spec_to_kronsum(spec, z_scale).plan)


def build_h2(mu_b0: float, j12: float) -> np.ndarray:
    """Two-site Hamiltonian
    -mu_b0 (sz x E + E x sz) + j12 (sx x sx + sy x sy + sz x sz)."""
    return build_general(HamiltonianSpec(2, mu_b0, (CouplingEdge(1, 2, j12),)))


def build_h3(mu_b0: float, j12: float, j23: float, j31: float) -> np.ndarray:
    """Three-site Hamiltonian with couplings on edges (1,2), (2,3), (3,1);
    every factor sits at its own site slot."""
    edges = (CouplingEdge(1, 2, j12), CouplingEdge(2, 3, j23), CouplingEdge(3, 1, j31))
    return build_general(HamiltonianSpec(3, mu_b0, edges))


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
    Raises SizingError when the summed squares 2 (a_x^2 + a_y^2) + 4 a_z^2
    are past the double range.
    """
    mu_b0 = float(mu_b0)
    sq = (weights.a_x * weights.a_x, weights.a_y * weights.a_y, weights.a_z * weights.a_z)
    # the largest entry the squares reach is 2 (a_x^2 + a_y^2) + 4 a_z^2;
    # finite, it also bounds each squared weight and the shift 2 sum(a^2)
    if not math.isfinite(2.0 * (sq[0] + sq[1] + 2.0 * sq[2])):
        raise SizingError(f"the squares of weights ({weights.a_x:g}, {weights.a_y:g}, "
                          f"{weights.a_z:g}) sum past the double range")
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
    with np.errstate(over="ignore"):  # a distance past the double range reads inf
        residual = frobenius(total - rhs)
    note = (
        f"matched J = 2*mean(a^2) = {j_match:.9g}; Zeeman term uses caller mu_b0 = {mu_b0:.9g} "
        f"(consistent iff mu_b0 = -a_z = {-weights.a_z:.9g}); squared-weight spread {spread:.3e}; "
        f"intermediate square-identity residual {intermediate:.3e}"
    )
    passed = residual <= tol and intermediate <= INTERMEDIATE_TOL
    return ResidualReport("H2 decomposition", residual, tol, passed, note=note)


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
    """Read a spec file; ParseError when it is not UTF-8 text, not JSON, or
    holds an integer literal longer than Python converts (4300 digits by
    default)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON: {err}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from None
    except ValueError as err:  # the integer digit limit
        raise ParseError(f"{path}: unreadable number: {err}") from None
    return spec_from_dict(data)


def save_spec(spec: HamiltonianSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")
