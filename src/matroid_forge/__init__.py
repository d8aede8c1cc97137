"""matroid-forge: exact matroid erections, formality, and minor obstructions."""

__version__ = "0.1.0"

from .charpoly import IntPolynomial, characteristic_polynomial, splits_over_integers
from .erection import (
    ErectionCheck,
    ErectionFamily,
    check_erection_blocks,
    enumerate_erections,
    free_erection,
    is_k_closed,
    spanning_k_closed_sets,
    tautness_witness,
)
from .errors import (
    EmptyGroundSet,
    FormatError,
    GroundSetMismatch,
    GroundSetTooLarge,
    MatroidForgeError,
    RankTooLow,
    SearchBudgetExceeded,
    ValidationError,
    ZeroFunctional,
)
from .linalg import (
    ExactMatrix,
    PrimeField,
    Rationals,
    RelationSpace,
    column_matroid,
    formalization,
    is_formal,
    kernel_basis,
    realizes,
    weight3_subspace,
)
from .matroid import (
    Matroid,
    PointedMap,
    are_isomorphic,
    contract,
    delete,
    is_quotient,
    is_weak_map_image,
    matroid_from_flats,
    removal_map,
    simplify,
    truncation,
)
from .minors import (
    MinorWitness,
    ObstructionReport,
    fano_matroid,
    find_minor,
    non_fano_matroid,
    realizability_obstruction,
)
from .formats import (
    bundled_data_dir,
    load_matrix,
    load_matroid,
    load_sets,
    parse_matrix_text,
    parse_matroid_text,
    parse_sets_text,
    serialize_matrix,
    serialize_matroid,
    serialize_sets,
)
from .reproduce import CheckResult, ReproReport, run_reproduce

__all__ = [
    "IntPolynomial", "characteristic_polynomial", "splits_over_integers",
    "ErectionCheck", "ErectionFamily",
    "check_erection_blocks", "enumerate_erections", "free_erection",
    "is_k_closed", "spanning_k_closed_sets", "tautness_witness",
    "EmptyGroundSet", "FormatError", "GroundSetMismatch",
    "GroundSetTooLarge", "MatroidForgeError", "RankTooLow",
    "SearchBudgetExceeded", "ValidationError", "ZeroFunctional",
    "ExactMatrix", "PrimeField", "Rationals", "RelationSpace",
    "column_matroid", "formalization", "is_formal", "kernel_basis",
    "realizes", "weight3_subspace",
    "Matroid", "PointedMap", "are_isomorphic", "contract",
    "delete", "is_quotient", "is_weak_map_image",
    "matroid_from_flats", "removal_map", "simplify", "truncation",
    "MinorWitness", "ObstructionReport", "fano_matroid", "find_minor",
    "non_fano_matroid", "realizability_obstruction",
    "bundled_data_dir", "load_matrix", "load_matroid", "load_sets",
    "parse_matrix_text", "parse_matroid_text", "parse_sets_text",
    "serialize_matrix", "serialize_matroid", "serialize_sets",
    "CheckResult", "ReproReport", "run_reproduce",
]
