"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Heavy scans are shared between criteria through cached helpers.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from doubling import (
    CyclicGroup,
    DihedralGroup,
    ProductGroup,
    ScanConfig,
    SymmetricGroup,
    build_sharpness_instance,
    catalog,
    extract_subset,
    normal_subgroups,
    scan,
)
from doubling.groups import build_group
from oracles import coset_criterion_scan, matrix_family_square_count, powers_diff_count, quaternion_group

SLICE = ["cyclic:12", "cyclic:16", "dihedral:4", "q8", "symmetric:3", "symmetric:4"]


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _pairs(groups) -> int:
    from doubling import parse_group_selector

    total = 0
    for spec in groups:
        g = build_group(parse_group_selector(spec))
        total += len(normal_subgroups(g))
    return total


@lru_cache(maxsize=None)
def symmetric_exhaustive_report():
    config = ScanConfig(
        groups=["cyclic:12", "dihedral:4"],
        subset_mode={"kind": "exhaustive", "symmetric_only": True},
        suites=("layer-cake", "spillover", "quotient-sym"),
    )
    return scan(config)


@lru_cache(maxsize=None)
def random_catalog_report():
    groups = catalog(weights=("counting",), include_products=False)
    per_pair = math.ceil(10_000 / _pairs(groups))
    config = ScanConfig(
        groups=groups,
        subset_mode={"kind": "random", "count": per_pair, "seed": 20_240},
        suites=("layer-cake", "spillover", "quotient-cube", "quotient-k1k2"),
    )
    return scan(config)


@lru_cache(maxsize=None)
def paired_suite_report():
    per_pair = math.ceil(1_000 / _pairs(SLICE))
    config = ScanConfig(
        groups=SLICE,
        subset_mode={"kind": "random", "count": per_pair, "seed": 31_337},
        suites=("layer-cake", "spillover", "containment"),
    )
    return scan(config)


@lru_cache(maxsize=None)
def extraction_report():
    per_pair = math.ceil(1_000 / _pairs(SLICE))
    config = ScanConfig(
        groups=SLICE,
        subset_mode={"kind": "random", "count": per_pair, "seed": 4_242},
        suites=("extract",),
        alphas=(Fraction(3, 2), Fraction(2), Fraction(3)),
    )
    return scan(config)


@lru_cache(maxsize=None)
def ruzsa_triple_report():
    per_pair = math.ceil(1_000 / _pairs(SLICE))
    config = ScanConfig(
        groups=SLICE,
        subset_mode={"kind": "random", "count": per_pair, "seed": 9_001},
        suites=("ruzsa-axioms",),
    )
    return scan(config)


def _suite_clean(report, suite) -> bool:
    runs = report["aggregate"]["suite_runs"][suite]
    violations = [v for v in report["aggregate"]["violations"] if v["suite"] == suite]
    return runs["passes"] == runs["runs"] and not violations


def test_criterion_1_exact_counts():
    ok = True
    for n in range(1, 9):
        ok = ok and powers_diff_count(n) == n * (n - 1) + 1
        ok = ok and matrix_family_square_count(n) == 4 * n * n + 1
    _report(1, "power-difference and matrix-square counts, N=1..8, exact", ok)


def test_criterion_2_sharpness_asymptotics():
    inst = build_sharpness_instance(2, 1000, 250_000)
    ok = inst.mu_piA2 == 17
    # quotient doubling within 3% of 17, exact rational comparison
    ok = ok and abs(inst.quotient_doubling - 17) * 100 <= 3 * 17
    # measured doubling constant within 2% of 5
    ok = ok and abs(inst.stats.K - 5) * 100 <= 2 * 5
    ratios = []
    for m in (2500, 25_000, 250_000):
        small = build_sharpness_instance(2, 1000, m)
        ok = ok and small.mu_piA2 == 17
        ratios.append(small.quotient_doubling)
    ok = ok and ratios[0] < ratios[1] < ratios[2]
    _report(
        2,
        "sharpness instance: mu_Q(piA^2) = 17 exactly, ratios within tolerance, "
        "monotone in m",
        ok,
    )


def test_criterion_3_symmetric_square_bound():
    report = symmetric_exhaustive_report()
    runs = report["aggregate"]["suite_runs"]["quotient-sym"]
    # 127 symmetric subsets x 6 normal subgroups, per group
    ok = runs["runs"] == 2 * 127 * 6
    ok = ok and _suite_clean(report, "quotient-sym")
    _report(
        3,
        "exhaustive symmetric subsets of Z12 and D4 over every normal subgroup: "
        "zero violations of the squared bound",
        ok,
    )


def test_criterion_4_general_bounds():
    report = random_catalog_report()
    ok = report["aggregate"]["instances"] >= 10_000
    ok = ok and _suite_clean(report, "quotient-cube")
    ok = ok and _suite_clean(report, "quotient-k1k2")
    _report(
        4,
        f"{report['aggregate']['instances']} seeded random subsets across the catalog: "
        "zero violations of the cubed and two-constant bounds",
        ok,
    )


def test_criterion_5_layer_cake_and_spillover():
    ok = True
    for report in (symmetric_exhaustive_report(), random_catalog_report()):
        ok = ok and _suite_clean(report, "layer-cake")
        ok = ok and _suite_clean(report, "spillover")
    paired = paired_suite_report()
    ok = ok and paired["aggregate"]["instances"] >= 1_000
    for suite in ("layer-cake", "spillover", "containment"):
        ok = ok and _suite_clean(paired, suite)
    _report(
        5,
        "layer-cake equality and spillover inequality exact on all criterion-3/4 "
        "instances; superlevel containments on 1000+ seeded pairs",
        ok,
    )


def test_criterion_6_extraction_certificates():
    report = extraction_report()
    ok = report["aggregate"]["instances"] >= 1_000
    ok = ok and _suite_clean(report, "extract")
    # plus the constructed witness instance, materialized
    inst = build_sharpness_instance(2, 4, 25)
    group = inst.group()
    a = inst.subset(group)
    q = inst.quotient_structure(group)
    for alpha in (Fraction(3, 2), Fraction(2), Fraction(3)):
        cert = extract_subset(a, q, alpha)
        ok = ok and cert.measure_ratio > (alpha - 1) / alpha
        ok = ok and cert.quotient_doubling < alpha * cert.K
    _report(
        6,
        f"{report['aggregate']['instances']} extractions at alpha in {{3/2, 2, 3}} "
        "plus the witness instance: every certificate exact, zero internal errors",
        ok,
    )


def test_criterion_7_distance_axioms():
    exhaustive_groups = [
        CyclicGroup(12),
        CyclicGroup(16),
        DihedralGroup(4),
        DihedralGroup(8),
        quaternion_group(),
        SymmetricGroup(3),
        ProductGroup([CyclicGroup(2), CyclicGroup(4)]),
    ]
    ok = True
    for g in exhaustive_groups:
        checked, mismatches = coset_criterion_scan(g)
        ok = ok and checked == 2 ** g.order - 1 and not mismatches
    triples = ruzsa_triple_report()
    ok = ok and triples["aggregate"]["instances"] >= 1_000
    ok = ok and _suite_clean(triples, "ruzsa-axioms")
    _report(
        7,
        "distance-zero iff coset, exhaustive over order <= 16 groups (both "
        "directions); symmetry, triangle, translation on 1000+ seeded triples",
        ok,
    )


def test_criterion_8_determinism_of_a_seeded_scan():
    def run():
        config = ScanConfig(
            groups=["cyclic:12", "dihedral:4"],
            subset_mode={"kind": "random", "count": 50, "seed": 2_024},
            suites=(
                "layer-cake",
                "spillover",
                "containment",
                "ruzsa-axioms",
                "quotient-sym",
                "quotient-cube",
                "quotient-k1k2",
                "extract",
            ),
            emit_instances=True,
        )
        return json.dumps(scan(config), sort_keys=True, indent=2)

    ok = run() == run()
    _report(8, "the same seed, scanned twice: byte-identical JSON reports", ok)
