"""Reports written from integer counts, checked against the Fraction path.

`rationals.put` takes a numerator and a denominator, aggregation and the CSV
export read the counts of `InstanceReport`s, and `scan` evaluates the subset
layers it built, shared by the normal subgroups of an exhaustive scan, under
the quotients of the normal subgroups it enumerated, without decoding its
ids.  Each of these fast paths is compared here with the plain path:
`Fraction` arithmetic, and `replay`'s validating parser with a fresh layer
per id.
"""

import json
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from doubling import (
    ScanConfig, WeightedGroup, catalog, evaluate_instance, iter_instance_specs,
    parse_group_selector, replay, scan,
)
from doubling import harness, quotients
from doubling.cli import indented_json, main
from doubling.sets import GSubset
from doubling.harness import ALL_SUITES, TOP_WITNESSES, InstanceReport, _fold_aggregate, report_csv
from doubling.metrics import DoublingStats
from doubling.rationals import fmt, put, shadow


def assert_scan_equals_replay(config: ScanConfig) -> None:
    """Each emitted report equals `replay` of its id, and the artifact has the
    same bytes at -j 1 and -j 2."""
    report = scan(config)
    assert report["instances"]
    config.parallelism = 2
    assert indented_json(scan(config)) == indented_json(report)
    for rep in report["instances"]:
        assert replay(rep.id) == rep.to_json()


def catalog_cut() -> list:
    """A seeded random cut of the catalog, products and both weights included."""
    return Random(3).sample(catalog(max_product_order=32), 10)


CONFIGS = {
    "dihedral:4": (["dihedral:4"], {"kind": "exhaustive"}),
    "catalog-cut": (catalog_cut(), {"kind": "random", "count": 2, "seed": 9}),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_aggregate_is_the_same_with_and_without_instances(name):
    groups, mode = CONFIGS[name]
    runs = {
        (jobs, emit): scan(ScanConfig(groups, mode, parallelism=jobs, emit_instances=emit))
        for jobs in (1, 2) for emit in (False, True)
    }
    reference = runs[1, False]
    assert reference["aggregate"]["instances"] > 20
    assert set(reference["aggregate"]["suite_runs"]) == set(ALL_SUITES)
    for (jobs, emit), report in runs.items():
        assert report["aggregate"] == reference["aggregate"], (jobs, emit)
        assert ("instances" in report) is emit
    assert runs[1, True] == runs[2, True]


def _reachable(obj):
    """Every object reachable from obj through containers and attributes."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack += [*x.keys(), *x.values()]
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack += list(x)
        elif hasattr(x, "__dict__"):
            stack += list(vars(x).values())


def test_a_pickled_instance_report_holds_counts_only():
    groups, mode = CONFIGS["catalog-cut"]
    ids = iter_instance_specs(ScanConfig(groups, mode))
    for instance_id in ids:
        report = evaluate_instance(instance_id)
        again = pickle.loads(pickle.dumps(report))
        assert again == report and again.to_json() == report.to_json()
        kinds = {type(x) for x in _reachable(again)}
        assert not any(issubclass(k, (WeightedGroup, GSubset, Fraction)) for k in kinds), kinds
        leaves = {k for k in kinds if not issubclass(k, (tuple, list, dict))}
        assert leaves <= {str, int, bool, type(None)}, leaves


def test_exhaustive_all_suite_scan_equals_replay():
    assert_scan_equals_replay(
        ScanConfig(["dihedral:4"], {"kind": "exhaustive"}, suites=ALL_SUITES, emit_instances=True)
    )


def test_catalog_cut_scan_equals_replay():
    groups, mode = CONFIGS["catalog-cut"]
    assert_scan_equals_replay(ScanConfig(groups, mode, emit_instances=True))


def test_random_scan_over_a_catalog_group_and_a_catalog_product_equals_replay():
    counting = catalog(weights=("counting",), max_product_order=24)
    groups = [
        next(g for g in counting if g["type"] == "dihedral" and g["n"] == 4),
        next(g for g in counting if g["type"] == "product" and g["factors"][1].get("name") == "Q8"),
    ]
    mode = {"kind": "random", "count": 3, "seed": 13}
    assert_scan_equals_replay(ScanConfig(groups, mode, emit_instances=True))


def test_a_cli_scan_decodes_no_subgroup(tmp_path, capsys, monkeypatch):
    groups, mode = CONFIGS["catalog-cut"]
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"groups": groups, "subset_mode": mode, "emit_instances": True}))
    calls, decode = [], quotients.decode_elements
    monkeypatch.setattr(quotients, "decode_elements", lambda *args: calls.append(args) or decode(*args))
    harness._quotient.cache_clear()
    out = tmp_path / "out.json"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    assert calls == []
    monkeypatch.undo()
    instances = json.loads(out.read_text())["instances"]
    assert len(instances) > 20
    for rep in instances:
        assert replay(rep["id"]) == rep


def test_random_scan_equals_replay():
    q8_z2 = {"type": "product", "factors": [parse_group_selector("q8"), {"type": "cyclic", "n": 2}]}
    mode = {"kind": "random", "count": 4, "seed": 5}
    assert_scan_equals_replay(
        ScanConfig(["symmetric:4", q8_z2], mode, subgroup_weight="normalized", emit_instances=True)
    )


@given(st.integers(), st.integers(min_value=1))
def test_put_from_counts_matches_the_fraction(num, den):
    exact = Fraction(num, den)
    assert put({}, "x", num, den) == {"x": fmt(exact), "x_dec": shadow(exact)}
    assert fmt(num, den) == fmt(exact)


COUNT = st.integers(min_value=1, max_value=10**6)


def fake_report(k, k2, qd, symmetric: bool, instance_id: str = "i") -> InstanceReport:
    """K = a/b, K2 = c/d and the quotient doubling e/f as counts: |A| = bd,
    |A^2| = ad, |A^-1 A| = cb, |piA^2| = e and |piA| = f."""
    (a, b), (c, d), (e, f) = k, k2, qd
    return InstanceReport(instance_id, 1, 1, DoublingStats(b * d, a * d, c * b, symmetric), f, e, ())


@given(st.lists(st.tuples(st.tuples(COUNT, COUNT), st.tuples(COUNT, COUNT),
                          st.tuples(COUNT, COUNT), st.booleans()), min_size=1, max_size=6))
def test_csv_floats_match_the_fraction_path(rows):
    # quotient doublings above the bound give negative margins
    lines = report_csv({"instances": [fake_report(*row) for row in rows]}).splitlines()[2:]
    for line, (k, k2, qd, symmetric) in zip(lines, rows):
        size = k[1] * k2[1]
        k, k2, qd = Fraction(*k), Fraction(*k2), Fraction(*qd)
        bound = k * k if symmetric else k * k2
        values = [float(k), float(k2), float(qd), float(bound), float(bound - qd)]
        assert line == f'"i",1,1,{size},' + ",".join(repr(v) for v in values)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 4), (3, 2), (5, 3), (10, 6)]),
                          st.booleans(), st.integers(min_value=0, max_value=30)),
                max_size=3 * TOP_WITNESSES))
def test_witness_order_matches_a_fraction_sort(entries):
    # |A| = |A^2| = 1, so the probe value is |piA^2| / |piA| = num / den
    reports = [
        InstanceReport(f"id-{tag:02d}", 1, 1, DoublingStats(1, 1, 1, symmetric), den, num, ())
        for (num, den), symmetric, tag in entries
    ]
    agg = _fold_aggregate(reports)
    for name, keep in (("general_probe", lambda r: True), ("symmetric_probe", lambda r: r.stats.symmetric)):
        ranked = sorted(
            ((Fraction(r.to_json()["probe"]["over_k2"]), r.id) for r in reports if keep(r)),
            key=lambda e: (-e[0], e[1]),
        )[:TOP_WITNESSES]
        expected = [{"value": fmt(v), "value_dec": float(v), "id": i} for v, i in ranked]
        assert agg[name]["witnesses"] == expected
        if ranked:
            assert (agg[name]["max"], agg[name]["max_dec"]) == (fmt(ranked[0][0]), float(ranked[0][0]))
        else:
            assert agg[name]["max"] is None
