"""Reports written from integer counts, checked against the Fraction path.

`rationals.put` takes a numerator and a denominator, aggregation and the CSV
export read "p/q" strings as integers, and `scan` evaluates the specs it
built without re-parsing its ids.  Each of these fast paths is compared here
with the plain path: `Fraction` arithmetic, and `replay`'s validating parser.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from doubling import ScanConfig, parse_group_selector, replay, scan
from doubling.harness import ALL_SUITES, TOP_WITNESSES, _fold_aggregate, report_csv
from doubling.rationals import fmt, put, shadow


def assert_scan_equals_replay(config: ScanConfig) -> None:
    report = scan(config)
    assert report["instances"]
    for rep in report["instances"]:
        assert replay(rep["id"]) == rep


def test_exhaustive_all_suite_scan_equals_replay():
    assert_scan_equals_replay(
        ScanConfig(["dihedral:4"], {"kind": "exhaustive"}, suites=ALL_SUITES, emit_instances=True)
    )


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


def fake_report(k, k2, qd, symmetric: bool, instance_id: str = "i") -> dict:
    doubling = put(put({"symmetric": symmetric}, "K", *k), "K2", *k2)
    return put(
        {"id": instance_id, "sizes": {"group": 1, "subgroup": 1, "subset": 1}, "doubling": doubling},
        "quotient_doubling",
        *qd,
    )


@given(st.lists(st.tuples(st.tuples(COUNT, COUNT), st.tuples(COUNT, COUNT),
                          st.tuples(COUNT, COUNT), st.booleans()), min_size=1, max_size=6))
def test_csv_floats_match_the_fraction_path(rows):
    # quotient doublings above the bound give negative margins
    lines = report_csv({"instances": [fake_report(*row) for row in rows]}).splitlines()[2:]
    for line, (k, k2, qd, symmetric) in zip(lines, rows):
        k, k2, qd = Fraction(*k), Fraction(*k2), Fraction(*qd)
        bound = k * k if symmetric else k * k2
        values = [float(k), float(k2), float(qd), float(bound), float(bound - qd)]
        assert line == '"i",1,1,1,' + ",".join(repr(v) for v in values)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 4), (3, 2), (5, 3), (10, 6)]),
                          st.booleans(), st.integers(min_value=0, max_value=30)),
                max_size=3 * TOP_WITNESSES))
def test_witness_order_matches_a_fraction_sort(entries):
    reports = []
    for (num, den), symmetric, tag in entries:
        probe = put({"symmetric": symmetric}, "over_k2", num, den)
        reports.append({"id": f"id-{tag:02d}", "violations": [], "suites": {}, "probe": probe})
    agg = _fold_aggregate(reports)
    for name, keep in (("general_probe", lambda r: True), ("symmetric_probe", lambda r: r["probe"]["symmetric"])):
        ranked = sorted(
            ((Fraction(r["probe"]["over_k2"]), r["id"]) for r in reports if keep(r)),
            key=lambda e: (-e[0], e[1]),
        )[:TOP_WITNESSES]
        expected = [{"value": fmt(v), "value_dec": float(v), "id": i} for v, i in ranked]
        assert agg[name]["witnesses"] == expected
        if ranked:
            assert (agg[name]["max"], agg[name]["max_dec"]) == (fmt(ranked[0][0]), float(ranked[0][0]))
        else:
            assert agg[name]["max"] is None
