"""Kronecker-product algebra and spin-1/2 Hamiltonian toolkit.

Layers, bottom to top: ``kron_core`` (the product, its laws as executable
checks, the perfect-shuffle similarity), ``dense_linalg`` (dense matrix
algebra and a Hermitian eigensolver on LAPACK via numpy), ``spin_algebra``
(Pauli operators lifted to n-site registers), ``hamiltonian_builder``
(Zeeman + isotropic exchange Hamiltonians from declarative specs),
``matfree_engine`` (the same operators, S_axis and S^2 compiled once into a
diagonal plus strided moves for 2^n state vectors, the dense spin totals
scattered from that form, and a Lanczos extremal eigensolver),
``matrix_io`` (text matrix round-tripping) and ``cli`` (batch front end).
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
from .dense_linalg import (
    Spectrum,
    add,
    conj_transpose,
    eigh,
    identity,
    inverse,
    matmul,
    scale,
    spectrum_multiset_equal,
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
    "add",
    "build_general",
    "build_h2",
    "build_h3",
    "check_property",
    "commutation_matrix",
    "commutation_permutation",
    "commutator",
    "commutator_norm",
    "conj_transpose",
    "conserved_residual",
    "eigh",
    "format_matrix",
    "identity",
    "inverse",
    "kron",
    "lanczos_extremal",
    "lift",
    "load_matrix",
    "load_spec",
    "matmul",
    "matvec",
    "noncommutativity_witness",
    "parse_matrix",
    "pauli",
    "save_matrix",
    "save_spec",
    "scale",
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
