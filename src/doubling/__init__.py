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
    matrix_family,
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
    doubling_stats,
    quotient_doubling_check,
    ruzsa_sq,
)
from .quotients import (
    QuotientStructure,
    closure,
    normal_subgroups,
    projection_quotient,
    quotient,
)
from .sets import (
    GSubset,
    decode_subset,
    inv_set,
    mul_set,
    subset,
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
    "build_group",
    "closure",
    "build_sharpness_instance",
    "catalog",
    "containment_check",
    "decode_subset",
    "doubling_stats",
    "evaluate_instance",
    "extract_subset",
    "fiber_profile",
    "inv_set",
    "iter_instance_specs",
    "layer_cake",
    "level_family",
    "matrix_family",
    "mul_set",
    "normal_subgroups",
    "parse_group_selector",
    "projection_quotient",
    "quotient",
    "quotient_doubling_check",
    "replay",
    "ruzsa_sq",
    "scan",
    "spillover_check",
    "subset",
    "validate_axioms",
]
