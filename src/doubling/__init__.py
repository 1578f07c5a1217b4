"""Exact-arithmetic measure doubling on finite and finitely generated groups.

Doubling constants, quotient projections with Fubini-compatible weights,
fiber/layer-cake/spillover machinery, Ruzsa-distance calculus, certified
structure-set extraction, the sharpness witness construction, and a
deterministic scan harness.  Every theorem-facing number is exact: checks
compare integer counts, and reports carry Fractions.
"""

from .constructions import (
    MatrixFamily,
    SharpnessInstance,
    build_sharpness_instance,
    cantor_analog,
    matrix_family,
    matrix_family_square_count,
    powers_diff_count,
)
from .errors import CapError, ConsistencyError, SpecError
from .extract import ExtractionCertificate, admissible_thresholds, extract_subset
from .fibers import (
    FiberProfile,
    LevelFamily,
    SpilloverResult,
    containment_check,
    fiber_profile,
    layer_cake,
    level_family,
    spillover_check,
)
from .groups import (
    CyclicGroup,
    DihedralGroup,
    MatrixGroup,
    ProductGroup,
    SymmetricGroup,
    TableGroup,
    WeightedGroup,
    build_group,
    quaternion_group,
    validate_axioms,
)
from .harness import (
    ALL_SUITES,
    ScanConfig,
    catalog,
    evaluate_instance,
    iter_instance_specs,
    parse_group_selector,
    replay,
    scan,
)
from .metrics import (
    DoublingStats,
    RuzsaSq,
    coset_criterion_scan,
    doubling_stats,
    is_coset_of_subgroup,
    quotient_doubling_check,
    ruzsa_sq,
    ruzsa_triangle_check,
)
from .quotients import (
    QuotientStructure,
    all_subgroups,
    closure,
    normal_subgroups,
    projection_quotient,
    quotient,
)
from .sets import (
    GSubset,
    decode_subset,
    diff_set,
    inv_set,
    is_symmetric,
    mul_set,
    square,
    subset,
    translate,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES",
    "CapError",
    "ConsistencyError",
    "CyclicGroup",
    "DihedralGroup",
    "DoublingStats",
    "ExtractionCertificate",
    "FiberProfile",
    "GSubset",
    "LevelFamily",
    "MatrixFamily",
    "MatrixGroup",
    "ProductGroup",
    "QuotientStructure",
    "RuzsaSq",
    "ScanConfig",
    "SharpnessInstance",
    "SpecError",
    "SpilloverResult",
    "SymmetricGroup",
    "TableGroup",
    "WeightedGroup",
    "admissible_thresholds",
    "all_subgroups",
    "build_group",
    "closure",
    "build_sharpness_instance",
    "cantor_analog",
    "catalog",
    "containment_check",
    "coset_criterion_scan",
    "decode_subset",
    "diff_set",
    "doubling_stats",
    "evaluate_instance",
    "extract_subset",
    "fiber_profile",
    "inv_set",
    "is_coset_of_subgroup",
    "is_symmetric",
    "iter_instance_specs",
    "layer_cake",
    "level_family",
    "matrix_family",
    "matrix_family_square_count",
    "mul_set",
    "normal_subgroups",
    "parse_group_selector",
    "powers_diff_count",
    "projection_quotient",
    "quaternion_group",
    "quotient",
    "quotient_doubling_check",
    "replay",
    "ruzsa_sq",
    "ruzsa_triangle_check",
    "scan",
    "spillover_check",
    "square",
    "subset",
    "translate",
    "validate_axioms",
]
