"""Kronecker-product algebra and spin-1/2 Hamiltonian toolkit.

Layers, bottom to top: ``dense_linalg`` (a Hermitian eigensolver and a
guarded inverse on LAPACK via numpy), ``kron_core`` (the product, its laws
as executable checks, the perfect-shuffle similarity), ``spin_algebra``
(Pauli operators lifted to n-site registers), ``matfree_engine`` (sums of
Kronecker terms, among them the spec Hamiltonian, S_axis and S^2, as a
diagonal plus strided moves for 2^n state vectors, written from the edge
list for H and S^2, the dense Hamiltonian and spin totals scattered from its
flip form, and a Lanczos extremal eigensolver), ``hamiltonian_builder``
(Zeeman + isotropic exchange Hamiltonians from declarative specs, built
dense through ``matfree_engine``'s scatter), ``matrix_io`` (text matrix
round-tripping) and ``cli`` (batch front end).
"""

from .errors import (
    CapacityError,
    ContractError,
    ConvergenceError,
    KronspinError,
    ParseError,
    ShapeError,
    SingularityError,
    SiteRangeError,
    SizingError,
)
from .dense_linalg import Spectrum, eigh, inverse, spectrum_multiset_equal
from .kron_core import (
    MAX_KRON_ELEMENTS,
    PROPERTY_NAMES,
    ResidualReport,
    check_property,
    commutation_matrix,
    commutation_permutation,
    kron,
    noncommutativity_witness,
    shuffle_conjugate,
    similarity_transform,
)
from .spin_algebra import (
    AXES,
    DENSE_SITE_CAP,
    commutator,
    conserved_residual,
    lift,
    pauli,
)
from .hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    WeightTriple,
    build_general,
    build_h2,
    build_h3,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    verify_h2_decomposition,
)
from .matfree_engine import (
    KronSum,
    KronTerm,
    commutator_norm,
    lanczos_extremal,
    matvec,
    spec_to_kronsum,
    to_dense,
    total_component,
    total_component_kronsum,
    total_spin_squared,
    total_spin_squared_kronsum,
)
from .matrix_io import format_matrix, load_matrix, parse_matrix, save_matrix

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "CapacityError",
    "ContractError",
    "ConvergenceError",
    "CouplingEdge",
    "DENSE_SITE_CAP",
    "HamiltonianSpec",
    "KronSum",
    "KronTerm",
    "KronspinError",
    "MAX_KRON_ELEMENTS",
    "PROPERTY_NAMES",
    "ParseError",
    "ResidualReport",
    "ShapeError",
    "SingularityError",
    "SiteRangeError",
    "SizingError",
    "Spectrum",
    "WeightTriple",
    "build_general",
    "build_h2",
    "build_h3",
    "check_property",
    "commutation_matrix",
    "commutation_permutation",
    "commutator",
    "commutator_norm",
    "conserved_residual",
    "eigh",
    "format_matrix",
    "inverse",
    "kron",
    "lanczos_extremal",
    "lift",
    "load_matrix",
    "load_spec",
    "matvec",
    "noncommutativity_witness",
    "parse_matrix",
    "pauli",
    "save_matrix",
    "save_spec",
    "shuffle_conjugate",
    "similarity_transform",
    "spec_from_dict",
    "spec_to_dict",
    "spec_to_kronsum",
    "spectrum_multiset_equal",
    "to_dense",
    "total_component",
    "total_component_kronsum",
    "total_spin_squared",
    "total_spin_squared_kronsum",
    "verify_h2_decomposition",
]
