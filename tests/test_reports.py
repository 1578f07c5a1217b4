"""Reports written from integer counts, checked against the Fraction path.

`rationals.put` takes a numerator and a denominator, aggregation and the CSV
export read the counts of `InstanceReport`s, and `scan` evaluates the subset
layers it built, shared by the normal subgroups of an exhaustive scan, under
the quotients of the normal subgroups it enumerated, without decoding its
ids.  The CLI writer renders each distinct suite record once per artifact.
Each of these fast paths is compared here with the plain path: `Fraction`
arithmetic, `replay`'s validating parser with a fresh layer per id, and
`json.dumps` of every report's `to_json()`.
"""

import gc
import inspect
import io
import json
import pickle
import sys
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from doubling import (
    ScanConfig, WeightedGroup, build_group, catalog, evaluate_instance, iter_instance_specs, mul_set,
    normal_subgroups, parse_group_selector, quotient, replay, scan,
)
from doubling import harness, quotients
from doubling.cli import _dump, main
from doubling.context import SubsetContext
from doubling.sets import GSubset, inv_set
from doubling.harness import ALL_SUITES, TOP_WITNESSES, InstanceReport, _fold_aggregate, canonical_json, report_csv
from doubling.metrics import DoublingStats
from doubling.rationals import fmt, put
from oracles import packed_profile, reference_suites, top_witnesses, translate


def _artifact(doc) -> str:
    """The text `_dump` writes for doc into a buffer."""
    buf = io.StringIO()
    _dump(doc, buf)
    return buf.getvalue()


def assert_scan_equals_replay(config: ScanConfig) -> None:
    """Each emitted report equals `replay` of its id."""
    report = scan(config)
    assert report["instances"]
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
    runs = {emit: scan(ScanConfig(groups, mode, emit_instances=emit)) for emit in (False, True)}
    reference = runs[False]
    assert reference["aggregate"]["instances"] > 20
    assert set(reference["aggregate"]["suite_runs"]) == set(ALL_SUITES)
    for emit, report in runs.items():
        assert report["aggregate"] == reference["aggregate"], emit
        assert ("instances" in report) is emit


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
        # one record may serve several reports, so the containers are tuples
        containers = kinds - {str, int, bool, type(None)}
        assert all(issubclass(k, tuple) for k in containers), containers


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
    out = tmp_path / "out.json"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    assert calls == []
    monkeypatch.undo()
    instances = json.loads(out.read_text())["instances"]
    assert len(instances) > 20
    for rep in instances:
        assert replay(rep["id"]) == rep


# five small groups, 40 random subsets per normal subgroup: enough instances
# that share a fiber profile of A but not the counts or the profiles of B, AB
# and BA for each key mutant below to give replay mismatches
SHARED_PROFILES = (["cyclic:4", "dihedral:3", "cyclic:6", "q8", "dihedral:4"],
                   {"kind": "random", "count": 40, "seed": 5})


def test_a_scan_sharing_fiber_profiles_equals_replay():
    report = scan(ScanConfig(*SHARED_PROFILES, emit_instances=True))
    assert report["aggregate"]["instances"] == 880
    mismatched = [rep.id for rep in report["instances"] if replay(rep.id) != rep.to_json()]
    assert mismatched == [], f"{len(mismatched)} reports differ from their replay"


KEY_GROUPS = catalog(weights=("counting",), max_product_order=32)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_shift_sum_key_equals_the_counted_fiber_profiles(data):
    """Each normal subgroup's key, read from the combined row of all of them,
    holds the stats and its packed fiber profiles of A and, for spillover, of
    B, AB and BA, `width` bits apart; under H = {e} (pi is G renumbered) the
    counts |A|, |AB| and |BA| in the slots of A, AB and BA, and none of B."""
    group = build_group(data.draw(st.sampled_from(KEY_GROUPS)))
    elems = sorted(group.elements())
    a, b = (GSubset(group, frozenset(data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=16))))
            for _ in range(2))
    shared = SubsetContext(a, b)
    stats = shared.stats
    subs = normal_subgroups(group)
    quotients = [quotient(group, sub) for sub in subs]
    runs = [(None, lambda q=q: q, len(sub.elements)) for sub, q in zip(subs, quotients)]
    spill, alone = (harness._Packing(elems, runs, s) for s in (True, False))
    tables = [[harness._ResultsTable(p, *field) for field in p.fields] for p in (spill, alone)]
    for q, table, table_a in zip(quotients, *tables):
        ab, ba = mul_set(a, b), mul_set(b, a)
        if len(q.subgroup.elements) == 1:
            fields = [len(a), 0, len(ab), len(ba)]
        else:
            fields = [packed_profile(q, x) for x in (a, b, ab, ba)]
        assert table.key(shared, stats) == (stats, sum(f << i * spill.width for i, f in enumerate(fields)))
        assert table_a.key(shared, stats) == (stats, fields[0])


# the quotient-side runs (`InstanceContext` builds) of two scans with every
# suite: a key that divides layers more finely than the suites read misses more
QUOTIENT_RUNS = [
    (["dihedral:6"], {"kind": "exhaustive", "max_size": 3}, 307),
    # random partners B: 1,397 runs if |B| enters the key under H = {e}
    (["cyclic:30"], {"kind": "random", "count": 200, "seed": 1}, 1359),
]


@pytest.mark.parametrize("groups, mode, runs", QUOTIENT_RUNS, ids=["dihedral:6 size 3", "cyclic:30 random"])
def test_a_scan_runs_the_quotient_suites_once_per_key(monkeypatch, groups, mode, runs):
    contexts, context = [], harness.InstanceContext
    monkeypatch.setattr(harness, "InstanceContext", lambda *args: contexts.append(args) or context(*args))
    scan(ScanConfig(groups, mode))
    assert len(contexts) == runs


KEY_MUTANTS = [
    ("_ResultsTable", "return stats, self.packing", "return None, self.packing"),
    ("_Packing", "sum(map(row, shared.b_points)) << t | ", ""),
    ("_Packing", """ | sum(map(row, ab)) << 2 * t
                                | sum(map(row, ba)) << 3 * t""", ""),
    # w - 1 bits cannot hold a count of |H|: profiles collide
    ("_Packing", "w = size.bit_length() if", "w = size.bit_length() - 1 if"),
    # a subgroup's slice of the combined row: one bit short, or its neighbour's
    ("_Packing", "((1 << bits) - 1) * (spread", "((1 << bits - 1) - 1) * (spread"),
    ("_Packing", "layout.append((off, ", "layout.append((off + bits, "),
    # under H = {e}, the count field: one bit short, or left out of the row
    ("_Packing", "or len(elems).bit_length()", "or len(elems).bit_length() - 1"),
    ("_Packing", "self.slices.append(", "size > 1 and self.slices.append("),
]


def _patched(monkeypatch, name: str, snippet: str, mutant: str) -> None:
    """Install, for this test only, `name` with its `snippet` replaced by `mutant`."""
    module = sys.modules[getattr(harness, name).__module__]  # where it is defined
    source = inspect.getsource(getattr(module, name))
    # the snippet must be there: an edit to the key fails here, loudly
    assert source.count(snippet) == 1, f"{name} no longer holds {snippet!r}"
    monkeypatch.setattr(module, name, getattr(module, name))  # restored after the test
    exec(compile(source.replace(snippet, mutant), module.__file__, "exec"), vars(module))
    monkeypatch.setattr(harness, name, getattr(module, name))  # the copy that `harness` reads


@pytest.mark.parametrize("name, snippet, mutant", KEY_MUTANTS,
                         ids=["no stats", "no B", "no AB and BA", "shift by w - 1",
                              "mask one bit short", "the next subgroup's offset",
                              "H = {e}: count one bit short", "H = {e}: no count"])
def test_each_results_table_key_mutant_fails_the_replay_test(monkeypatch, name, snippet, mutant):
    _patched(monkeypatch, name, snippet, mutant)
    with pytest.raises(AssertionError):
        test_a_scan_sharing_fiber_profiles_equals_replay()


def test_a_key_that_reads_b_under_the_trivial_subgroup_misses_more(monkeypatch):
    """|B| in the H = {e} key divides layers that every suite treats alike."""
    _patched(monkeypatch, "_Packing", "spread if size > 1 else spread - (1 << off)", "spread")
    with pytest.raises(AssertionError):
        test_a_scan_runs_the_quotient_suites_once_per_key(monkeypatch, *QUOTIENT_RUNS[1])


TRIVIAL_KEY_GROUPS = catalog(max_product_order=32)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_results_table_hit_under_the_trivial_subgroup_equals_the_set_based_reference(data):
    """Under H = {e}, random (A, B, C) fill a results table, or hit it when
    their counts repeat, and the conjugates of the first by g hit it: every
    record equals `oracles.reference_suites`."""
    group = build_group(data.draw(st.sampled_from(TRIVIAL_KEY_GROUPS)))
    elems = sorted(group.elements())
    draws = [[GSubset(group, frozenset(data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=4))))
              for _ in range(3)] for _ in range(4)]
    g = data.draw(st.sampled_from(elems))
    draws.append([translate(x, left=g, right=group.inv(g)) for x in draws[0]])
    q = quotient(group, normal_subgroups(group)[0], data.draw(st.sampled_from(["counting", "normalized"])))
    assert len(q.subgroup.elements) == 1
    alphas = [(x, Fraction(x)) for x in ("3/2", "2", "3")]
    packing = harness._Packing(elems, [(None, lambda: q, 1)], True)  # ALL_SUITES run spillover
    table = harness._ResultsTable(packing, *packing.fields[0])
    for a, b, c in draws:
        report = evaluate_instance("id", (SubsetContext(a, b, c), lambda: q, ALL_SUITES, alphas, table))
        pi_size, pi_square, expected = reference_suites(q, a, b, c, None, alphas)
        assert (report.pi_size, report.pi_square) == (pi_size, pi_square)
        assert {name: record.to_json() for name, record, _ in report.suites} == expected
    # the conjugates hit the entry of the first draw
    assert len(table) < len(draws)


def _extract_runs(monkeypatch) -> list:
    """[id, how many times the extract suite ran for it] per evaluated instance."""
    runs: list = []
    evaluate, extract = harness.evaluate_instance, harness.SUITES["extract"]

    def counted_evaluate(instance_id, job=None):
        runs.append([instance_id, 0])
        return evaluate(instance_id, job)

    def counted_extract(ctx, alphas):
        runs[-1][1] += 1
        return extract(ctx, alphas)

    monkeypatch.setattr(harness, "evaluate_instance", counted_evaluate)
    monkeypatch.setitem(harness.SUITES, "extract", counted_extract)
    return runs


def test_an_exhaustive_verify_runs_the_quotient_suites_once_per_fiber_profile(tmp_path, monkeypatch):
    runs, contexts = _extract_runs(monkeypatch), []
    context = harness.InstanceContext
    monkeypatch.setattr(harness, "InstanceContext", lambda *args: contexts.append(args) or context(*args))
    argv = ["verify", "--group", "dihedral:6", "--max-subset-size", "3", "-j", "1"]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert len(runs) == 2086
    # only a miss builds an InstanceContext: a table hit, ruzsa-axioms included, builds none
    assert len(contexts) == sum(n for _, n in runs)
    # the suites run once per distinct key of each normal subgroup: the stats
    # and the packed fiber profiles of A, B = A^-1, AB and BA, under H = {e}
    # (pi is G renumbered) their counts, |B| = |A| aside (16 keys of 298
    # subsets; 307 runs in all)
    per_subgroup: dict = {}
    for instance_id, n in runs:
        subgroup = canonical_json(json.loads(instance_id)["subgroup"])
        per_subgroup[subgroup] = per_subgroup.get(subgroup, 0) + n
    group = build_group(parse_group_selector("dihedral:6"))
    subsets = [GSubset(group, frozenset(c)) for k in (1, 2, 3) for c in combinations(sorted(group.elements()), k)]
    expected = {}
    for sub in normal_subgroups(group):
        q, keys = quotient(group, sub), set()
        for a in subsets:
            b = inv_set(a)
            ab, ba = mul_set(a, b), mul_set(b, a)
            stats = DoublingStats(len(a), len(mul_set(a, a)), len(mul_set(b, a)), b.elements == a.elements)
            keys.add((stats, len(ab), len(ba)) if len(sub.elements) == 1
                     else (stats, *(packed_profile(q, x) for x in (a, b, ab, ba))))
        expected[canonical_json({"elements": sub.encode(), "weight": "counting"})] = len(keys)
    assert per_subgroup == expected
    trivial = canonical_json({"elements": [group.encode_element(group.identity)], "weight": "counting"})
    assert expected[trivial] < len(subsets) // 10


def test_replay_and_single_instance_subgroups_run_every_suite(monkeypatch):
    config = ScanConfig(["dihedral:4", "cyclic:6"], {"kind": "random", "count": 1, "seed": 0},
                        emit_instances=True)
    jobs = [job for *_, job in harness._jobs(config)]
    assert [table for *_, table in jobs] == [None] * len(jobs)
    runs = _extract_runs(monkeypatch)
    report = scan(config)
    for rep in report["instances"]:
        replay(rep.id)
    assert len(runs) == 2 * len(jobs) and {n for _, n in runs} == {1}


def test_random_scan_equals_replay():
    q8_z2 = {"type": "product", "factors": [parse_group_selector("q8"), {"type": "cyclic", "n": 2}]}
    mode = {"kind": "random", "count": 4, "seed": 5}
    assert_scan_equals_replay(
        ScanConfig(["symmetric:4", q8_z2], mode, subgroup_weight="normalized", emit_instances=True)
    )


@pytest.fixture(scope="module")
def memo_scans() -> dict:
    """Scans whose artifacts repeat suite records: an exhaustive all-suite
    dihedral:4, where results-table hits share record objects, and a random
    scan of the catalog cut to order 32 in both weights."""
    return {
        "dihedral:4": scan(ScanConfig(["dihedral:4"], {"kind": "exhaustive"}, emit_instances=True)),
        "catalog-32": scan(ScanConfig(catalog(max_product_order=32), {"kind": "random", "count": 1, "seed": 0},
                                      emit_instances=True)),
    }


def _records(report: dict) -> list:
    """Each suite record and `DoublingStats` of the scan's instances."""
    return [r for rep in report["instances"] for r in (*(record for _, record, _ in rep.suites), rep.stats)]


@pytest.mark.parametrize("name", ["dihedral:4", "catalog-32"])
def test_the_writer_renders_each_record_as_to_json_does(memo_scans, name):
    report = memo_scans[name]
    records = _records(report)
    assert len(set(records)) < len(records)  # the writer's memo hits
    plain = dict(report, instances=[rep.to_json() for rep in report["instances"]])
    kept = dict(report, instances=[rep.to_json(True) for rep in report["instances"]])
    assert _artifact(kept) == json.dumps(plain, sort_keys=True, indent=2)


def _field_types(x, at: tuple, types: dict) -> None:
    """Add the exact type of each leaf of x to types[its position]: a
    record's field by name, an entry of a tuple of (str key, values...)
    entries by its key and index, and the items of any other tuple as one."""
    t = type(x)
    if hasattr(t, "_fields"):
        for field, v in zip(t._fields, x):
            _field_types(v, at + (t.__name__, field), types)
    elif t is tuple and x and all(type(e) is tuple and type(e[0]) is str for e in x):
        for key, *values in x:
            for i, v in enumerate(values):
                _field_types(v, at + (key, i), types)
    elif t is tuple:
        for v in x:
            _field_types(v, at + ("*",), types)
    else:
        types.setdefault(at, set()).add(t)


def test_each_field_of_a_record_type_holds_one_exact_type(memo_scans):
    """The writer renders a record once per artifact, keyed on its value:
    sound only if equal records render alike, which True == 1 and
    hash(True) == hash(1) would break within one field."""
    types: dict = {}
    for report in memo_scans.values():
        for record in _records(report):
            _field_types(record, (), types)
    assert len(types) > 50
    assert {at: kinds for at, kinds in types.items() if len(kinds) > 1} == {}


@given(st.integers(), st.integers(min_value=1))
def test_put_from_counts_matches_the_fraction(num, den):
    exact = Fraction(num, den)
    assert put({}, "x", num, den) == {"x": fmt(exact), "x_dec": exact.numerator / exact.denominator}
    assert fmt(num, den) == fmt(exact)


COUNT = st.integers(min_value=1, max_value=10**6)


def fake_report(k, k2, qd, symmetric: bool, instance_id: str = "i") -> InstanceReport:
    """K = a/b, K2 = c/d and the quotient doubling e/f as counts: |A| = bd,
    |A^2| = ad, |A^-1 A| = cb, |piA^2| = e and |piA| = f."""
    (a, b), (c, d), (e, f) = k, k2, qd
    return InstanceReport(instance_id, 1, 1, DoublingStats(b * d, a * d, c * b, symmetric), f, e, (), 0)


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
        InstanceReport(f"id-{tag:02d}", 1, 1, DoublingStats(1, 1, 1, symmetric), den, num, (), 0)
        for (num, den), symmetric, tag in entries
    ]
    agg = _fold_aggregate(enumerate(reports))
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


def test_each_probe_keeps_the_entries_of_a_full_sort_with_ties_and_repeated_ids():
    # singletons: every probe value is 1, and a group of order 2 repeats its ids
    mode = {"kind": "random", "count": 12, "seed": 4, "density": {"size": 1}}
    report = scan(ScanConfig(["cyclic:2", "q8", "dihedral:4"], mode, suites=["quotient-sym"], emit_instances=True))
    reports = report["instances"]
    assert len({rep.id for rep in reports}) < len(reports)
    assert {Fraction(*rep.probe) for rep in reports} == {1}
    entries = [harness._Ranked(rep) for rep in reports]
    symmetric = [e for e, rep in zip(entries, reports) if rep.stats.symmetric]
    assert TOP_WITNESSES < len(symmetric) < len(entries)
    for name, kept in (("general_probe", entries), ("symmetric_probe", symmetric)):
        witnesses = report["aggregate"][name]["witnesses"]
        assert witnesses == [{"value": fmt(e.num, e.den), "value_dec": e.num / e.den, "id": e.id}
                             for e in top_witnesses(kept)]
        assert report["aggregate"][name]["max"] == witnesses[0]["value"]


def test_the_fold_holds_no_more_entries_than_its_witnesses():
    def reports(n):
        for i in range(n):
            if i % 100 == 0:
                live = sum(isinstance(obj, harness._Ranked) for obj in gc.get_objects())
                assert live <= 2 * TOP_WITNESSES + 1, f"{live} probe entries live after {i} reports"
            stats = DoublingStats(1, 1, 1, i % 3 == 0)
            yield InstanceReport(f"id-{i % 250:03d}", 1, 1, stats, 1 + i % 7, 1 + i % 5, (), 0)

    agg = _fold_aggregate(enumerate(reports(1000)))
    assert agg["instances"] == 1000
    assert len(agg["general_probe"]["witnesses"]) == len(agg["symmetric_probe"]["witnesses"]) == TOP_WITNESSES
