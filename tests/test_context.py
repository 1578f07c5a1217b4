"""The per-instance evaluation context and the suite table behind it.

The standalone public functions are the reference: every suite fragment that
`evaluate_instance` writes must equal the fragment rebuilt from them, while
no product set is computed twice within one instance.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import doubling
from doubling import (
    ConsistencyError,
    CyclicGroup,
    GSubset,
    QuotientStructure,
    ScanConfig,
    build_group,
    containment_check,
    doubling_stats,
    evaluate_instance,
    extract_subset,
    fiber_profile,
    inv_set,
    iter_instance_specs,
    layer_cake,
    mul_set,
    normal_subgroups,
    quotient,
    quotient_doubling_check,
    ruzsa_sq,
    scan,
    spillover_check,
    subset,
)
from doubling.context import InstanceContext, Memo, SubsetContext
from doubling.groups import quaternion_table
from doubling.harness import ALL_SUITES, _load_id, _ruzsa_suite, canonical_json, catalog
from doubling.quotients import projection_quotient, quotient_from_description
from doubling.rationals import parse, put
from oracles import LAYER_CODE, handle_sets, record_law_calls, reference_suites, translate, triangle_holds

def put_exact(d: dict, key: str, x: Fraction) -> dict:
    return put(d, key, x.numerator, x.denominator)


VARIANTS = {"quotient-sym": "symmetric", "quotient-cube": "cube", "quotient-k1k2": "two-constant"}


def sample_ids() -> list[str]:
    product = {
        "type": "product",
        "factors": [{"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}],
    }
    random_mode = {"kind": "random", "count": 4, "seed": 11}
    ids = iter_instance_specs(ScanConfig(["dihedral:4", "q8", product], random_mode))
    exhaustive = {"kind": "exhaustive", "max_size": 2}
    ids += iter_instance_specs(ScanConfig(["cyclic:6"], exhaustive, subgroup_weight="normalized"))
    # without partners the suites fall back to B = A (spillover, containment)
    # and to B = A^-1, C = A^2 (Ruzsa axioms)
    bare = []
    for instance_id in ids[::9]:
        spec = json.loads(instance_id)
        for key in ("subset_b", "subset_c", "translate"):
            spec.pop(key, None)
        bare.append(json.dumps(spec, sort_keys=True))
    return ids + bare


def reference_report(instance_id: str) -> dict:
    """The doubling header and suite fragments, rebuilt from the public functions."""
    spec = json.loads(instance_id)
    group = build_group(spec["group"])
    q = quotient_from_description(group, spec["subgroup"])

    def decode(key):
        if key not in spec:
            return None
        return GSubset(group, frozenset(group.decode_element(v) for v in spec[key]))

    a, b, c = decode("subset"), decode("subset_b"), decode("subset_c")
    stats = doubling_stats(a)
    suites: dict = {}
    for suite in spec.get("suites", []):
        if suite == "layer-cake":
            lhs, rhs = layer_cake(a, q)
            frag = put_exact(put_exact({"pass": True}, "lhs", lhs), "rhs", rhs)
        elif suite == "spillover":
            res = spillover_check(a, b if b is not None else a, q)
            frag = {"pass": True}
            for key in ("lhs_left", "lhs_right", "rhs_left", "rhs_right"):
                put_exact(frag, key, getattr(res, key))
        elif suite == "containment":
            frag = {"pass": containment_check(a, b if b is not None else a, q)}
        elif suite == "ruzsa-axioms":
            bb = b if b is not None else inv_set(a)
            cc = c if c is not None else mul_set(a, a)
            vaa, vab = ruzsa_sq(a, a).value, ruzsa_sq(a, bb).value
            frag = {
                "self_at_least_one": vaa >= 1,
                "symmetry": vab == ruzsa_sq(bb, a).value,
                "triangle": triangle_holds(a, bb, cc),
            }
            if "translate" in spec:
                g, h = (group.decode_element(v) for v in spec["translate"])
                moved = ruzsa_sq(translate(a, left=g), translate(bb, left=h)).value
                frag["translation"] = moved == vab
            frag["pass"] = all(frag.values())
            put_exact(frag, "value_aa", vaa)
        elif suite in VARIANTS:
            if VARIANTS[suite] == "symmetric" and not stats.symmetric:
                frag = {"skipped": "subset is not symmetric"}
            else:
                frag = quotient_doubling_check(a, q, VARIANTS[suite]).to_json()
        else:
            frag = {}
            for alpha_s in spec["alphas"]:
                entry = extract_subset(a, q, parse(alpha_s)).to_json(include_elements=False)
                frag[alpha_s] = dict(entry, **{"pass": True})
        suites[suite] = frag
    pi_a = q.image(a)
    qd = Fraction(len(mul_set(pi_a, pi_a).elements), len(pi_a.elements))
    return {"doubling": stats.to_json(), "quotient_doubling": qd, "suites": suites}


@pytest.fixture(scope="module")
def ids():
    return sample_ids()


def test_fragments_match_the_standalone_functions(ids):
    assert len(ids) > 100
    for instance_id in ids:
        report = evaluate_instance(instance_id).to_json()
        ref = reference_report(instance_id)
        assert report["doubling"] == ref["doubling"], instance_id
        assert parse(report["quotient_doubling"]) == ref["quotient_doubling"], instance_id
        assert report["suites"] == ref["suites"], instance_id
        assert report["violations"] == []


GL2Z_POOL = [(c, m) for c in range(3) for m in ((1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0),
                                               (0, -1, 1, 0), (1, -1, 0, 1), (2, 1, 1, 1))]
# (group spec, the kept factors of its projection quotients, an element pool
# for a group that cannot list its elements); a group of order <= 64 also
# takes a quotient by each of its normal subgroups
REFERENCE_GROUPS = [
    ({"type": "cyclic", "n": 8}, [], None),
    ({"type": "dihedral", "n": 4, "weight": "normalized"}, [], None),
    ({"type": "symmetric", "n": 4}, [], None),
    ({"type": "table", "table": quaternion_table(), "name": "Q8"}, [], None),
    # tuple handles on a Cayley table
    ({"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}]},
     [[0], [1], [0, 1]], None),
    # order 72: products factor by factor on the handles (`OpLaw`)
    ({"type": "product", "factors": [{"type": "cyclic", "n": 9}, {"type": "dihedral", "n": 4}]}, [[0], [1]], None),
    # the lazy GL2Z factor kept, as in the sharpness witness
    ({"type": "product", "factors": [{"type": "cyclic", "n": 3}, {"type": "gl2z"}]}, [[1]], GL2Z_POOL),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_suite_record_equals_the_set_based_reference(data):
    spec, keeps, pool = data.draw(st.sampled_from(REFERENCE_GROUPS))
    group = build_group(spec)
    pool = pool or sorted(group.elements())
    subsets = st.lists(st.sampled_from(pool), min_size=1, max_size=6).map(lambda xs: GSubset(group, frozenset(xs)))
    a = data.draw(subsets)
    partners = data.draw(st.sampled_from(["exhaustive", "random", "none"]))
    b = c = translators = None
    if partners == "exhaustive":  # as an exhaustive scan derives them from A
        b, c, translators = inv_set(a), mul_set(a, a), (min(a.elements), max(a.elements))
    elif partners == "random":
        b, c = data.draw(subsets), data.draw(subsets)
        translators = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    descs = [{"keep": keep} for keep in keeps]
    if group.order is not None and group.order <= 64:
        subs = normal_subgroups(group)
        which = data.draw(st.sampled_from(["trivial", "whole", "any"]))
        sub = {"trivial": subs[0], "whole": subs[-1]}.get(which) or data.draw(st.sampled_from(subs))
        descs.append({"elements": sub.encode(), "weight": data.draw(st.sampled_from(["counting", "normalized"]))})
    desc = data.draw(st.sampled_from(descs))
    alphas = data.draw(st.sampled_from([["3/2", "2", "3"], ["5/4"], ["11/10", "7/2"]]))
    fields = {"group": spec, "subgroup": desc, "subset": a.encode(), "suites": list(ALL_SUITES), "alphas": alphas}
    if b is not None:
        fields.update(subset_b=b.encode(), subset_c=c.encode(), translate=list(map(group.encode_element, translators)))
    report = evaluate_instance(canonical_json(fields))
    q = quotient_from_description(group, desc)
    pi_size, pi_square, expected = reference_suites(q, a, b, c, translators, [(x, parse(x)) for x in alphas])
    assert (report.pi_size, report.pi_square) == (pi_size, pi_square)
    assert {name: record.to_json() for name, record, _ in report.suites} == expected


# the catalog (products with tuple handles among them) under its normal
# subgroups and projections, a projection onto a product table (tuple handles
# in the quotient too), and Z_m x GL2Z under each projection, as `extract` runs it
POINT_GROUPS = catalog(weights=("counting",), max_product_order=32)
THREE_FACTORS = {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 3},
                                                {"type": "symmetric", "n": 3}]}
GL2Z_MATRICES = sorted({m for _, m in GL2Z_POOL})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_layer_and_instance_point_sets_equal_the_handle_based_oracle(data):
    """Every set `SubsetContext` and `InstanceContext` form on the laws'
    points, read back as handles, equals `oracles.handle_sets`."""
    kind = data.draw(st.sampled_from(["catalog", "three factors", "gl2z"]))
    if kind == "gl2z":
        m = data.draw(st.integers(1, 5))
        group = build_group({"type": "product", "factors": [{"type": "cyclic", "n": m}, {"type": "gl2z"}]})
        pool = [(c, x) for c in range(m) for x in GL2Z_MATRICES]
        q = projection_quotient(group, data.draw(st.sampled_from([[1], [0, 1]])))
    else:
        group = build_group(THREE_FACTORS if kind == "three factors" else data.draw(st.sampled_from(POINT_GROUPS)))
        pool = sorted(group.elements())
        keeps = [[0, 2]] if kind == "three factors" else [[0], [1]] if group.kind == "product" else []
        quotients = [lambda keep=keep: projection_quotient(group, keep) for keep in keeps]
        quotients += [lambda sub=sub: quotient(group, sub) for sub in normal_subgroups(group)]
        q = data.draw(st.sampled_from(quotients))()
    subsets = st.frozensets(st.sampled_from(pool), min_size=1, max_size=8).map(lambda xs: GSubset(group, xs))
    a, b = data.draw(subsets), data.draw(st.none() | subsets)
    ctx, expected = InstanceContext(a, q, b), handle_sets(q, a, b)
    law, qlaw, shared = group.law, q.quotient.law, ctx.shared
    assert shared.stats == expected["stats"]
    assert [law.handles(x) for x in shared.ab_ba] == expected["ab_ba"]
    assert {h: n for c, n in ctx.fibers(shared.points).items() for h in qlaw.handles([c])} == expected["fibers"]
    assert [(n, qlaw.handles(lv), held) for n, lv, held in ctx.levels_a] == expected["levels"]
    assert [(n, qlaw.handles(x), qlaw.handles(y)) for n, x, y in ctx.spill] == expected["spill"]
    assert [(n, qlaw.handles(lv), *counts) for n, lv, *counts in ctx.thresholds] == expected["thresholds"]


def test_a_quotient_builds_its_point_map_on_first_read():
    # `image` and `fiber_profile` read handles alone: neither law is built for `coset`
    group = build_group(PRODUCT_SPEC)
    q = projection_quotient(group, [1])
    a = subset(group, sorted(group.elements())[:3])
    q.image(a), fiber_profile(a, q)
    assert group._law is None and q.quotient._law is None and "coset" not in vars(q)
    assert [q.coset(p) for p in group.law.points(a.elements)] == q.quotient.law.points(map(q.project, a.elements))


# ruzsa-axioms on a Cayley table, a product on the table path (order 64), a
# product on the op path (order 72) and the lazy GL2Z factor, each replayed
# from its id; (group spec, an element pool for a group that cannot list its elements)
RUZSA_GROUPS = [
    ({"type": "symmetric", "n": 4}, None),
    ({"type": "product", "factors": [{"type": "dihedral", "n": 4},
                                     {"type": "table", "table": quaternion_table(), "name": "Q8"}]}, None),
    ({"type": "product", "factors": [{"type": "cyclic", "n": 9}, {"type": "dihedral", "n": 4}]}, None),
    ({"type": "product", "factors": [{"type": "cyclic", "n": 3}, {"type": "gl2z"}]}, GL2Z_POOL),
]


def ruzsa_reference(group, a: frozenset, b, c, translators) -> dict:
    """The ruzsa-axioms fragment as the paper states it, on handles alone:
    value(X, Y) = |{x y^-1}|^2 / (|X| |Y|) from the group's `op` and `inv`,
    with B = A^-1 and C = A A where the id gives none."""
    def value(x, y):
        return Fraction(len({group.op(u, group.inv(v)) for u in x for v in y}) ** 2, len(x) * len(y))

    b = {group.inv(x) for x in a} if b is None else b
    c = {group.op(x, y) for x in a for y in a} if c is None else c
    out = {"self_at_least_one": value(a, a) >= 1, "symmetry": value(a, b) == value(b, a),
           "triangle": value(a, c) <= value(a, b) * value(b, c)}
    if translators is not None:
        g, h = translators
        out["translation"] = value({group.op(g, x) for x in a}, {group.op(h, y) for y in b}) == value(a, b)
    out["pass"] = all(out.values())
    return put_exact(out, "value_aa", value(a, a))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_ruzsa_record_equals_a_plain_set_oracle(data):
    spec, pool = data.draw(st.sampled_from(RUZSA_GROUPS))
    group = build_group(spec)
    elems = st.sampled_from(pool or sorted(group.elements()))
    sets = st.frozensets(elems, min_size=1, max_size=6)
    a, b, c = data.draw(sets), data.draw(st.none() | sets), data.draw(st.none() | sets)
    translators = data.draw(st.none() | st.tuples(elems, elems))
    subgroup = {"keep": [1]} if spec["type"] == "product" else {"elements": [group.encode_element(group.identity)]}
    fields = {"group": spec, "subgroup": subgroup, "subset": GSubset(group, a).encode(), "suites": ["ruzsa-axioms"]}
    for key, x in (("subset_b", b), ("subset_c", c)):
        if x is not None:
            fields[key] = GSubset(group, x).encode()
    if translators is not None:
        fields["translate"] = list(map(group.encode_element, translators))
    (_, record, _), = evaluate_instance(canonical_json(fields)).suites
    assert record.to_json() == ruzsa_reference(group, a, b, c, translators)


def record_calls(monkeypatch, name: str, key) -> list:
    """Route every package binding of `sets.<name>` through a recorder of `key(args)`."""
    original = getattr(doubling.sets, name)
    calls: list = []

    def recording(*args):
        calls.append(key(*args))
        return original(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("doubling") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return calls


def layer_operands(calls: list) -> list:
    """The subset layer's calls among those `record_law_calls` kept, each
    keyed on its law and its operands' point sets."""
    return [(id(law), *map(frozenset, args)) for law, code, *args in calls if code in LAYER_CODE]


def test_no_product_set_is_computed_twice_per_instance(ids, monkeypatch):
    calls = record_law_calls(monkeypatch, "product")
    for instance_id in ids:
        calls.clear()
        evaluate_instance(instance_id)
        keys = layer_operands(calls)
        assert keys, instance_id
        assert len(keys) == len(set(keys)), instance_id


def test_no_inverse_set_is_computed_twice_per_instance(ids, monkeypatch):
    calls = record_law_calls(monkeypatch, "inverse")
    for instance_id in ids:
        calls.clear()
        evaluate_instance(instance_id)
        keys = layer_operands(calls)
        assert len(keys) == len(set(keys)), instance_id


def test_g_level_products_do_not_scale_with_the_normal_subgroups(monkeypatch):
    # an exhaustive scan forms each G-level product once per subset, in the
    # subset layer every normal subgroup's instance shares: the products of
    # the layer and of the ruzsa suite (building a quotient multiplies too)
    calls = record_law_calls(monkeypatch, "product")
    g_level, instances = {}, {}
    for subgroups in ("all", "proper"):
        calls.clear()
        report = scan(ScanConfig(["dihedral:4"], {"kind": "exhaustive"}, subgroups=subgroups))
        g_level[subgroups] = sum(code in LAYER_CODE or code is _ruzsa_suite.__code__ for _, code, *_ in calls)
        instances[subgroups] = report["aggregate"]["instances"]
    assert instances == {"all": 255 * 6, "proper": 255 * 4}
    assert g_level["all"] == g_level["proper"] > 0


PRODUCT_SPEC = {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}]}


@pytest.mark.parametrize("mode", [{"kind": "random", "count": 3, "seed": 2}, {"kind": "exhaustive", "max_size": 2}],
                         ids=["random", "exhaustive"])
def test_a_scan_forms_no_product_or_inverse_on_handles(monkeypatch, mode):
    # a scan multiplies and inverts its layers' points: `mul_set` and
    # `inv_set` are the library's alone
    calls = record_calls(monkeypatch, "mul_set", lambda x, y: x) + record_calls(monkeypatch, "inv_set", lambda x: x)
    report = scan(ScanConfig(["dihedral:4", "q8", PRODUCT_SPEC], mode))
    assert report["aggregate"]["instances"] > 0 and calls == []


def test_threshold_rows_count_b_as_the_restriction_to_the_level(ids, monkeypatch):
    restricted = []
    original = QuotientStructure.restrict_to_cosets

    def recording(self, a, cosets):
        restricted.append(cosets)
        return original(self, a, cosets)

    monkeypatch.setattr(QuotientStructure, "restrict_to_cosets", recording)
    for instance_id in ids:
        evaluate_instance(instance_id)
    assert restricted == []  # the extract suite reads |B| from the rows
    for instance_id in ids[::7]:
        shared, spec = _load_id(instance_id)[0], json.loads(instance_id)
        q = quotient_from_description(build_group(spec["group"]), spec["subgroup"])
        ctx = InstanceContext(shared, q)
        for n, level, _, _, held in ctx.thresholds:
            assert held == len(original(q, ctx.a, ctx.law.handles(level)).elements)
    # fibers 3, 2 and 1 in Z12 / {0, 4, 8}: three levels holding 6, 5 and 3 elements
    z12 = CyclicGroup(12)
    rows = InstanceContext(subset(z12, {0, 4, 8, 1, 5, 2}), quotient(z12, {0, 4, 8})).thresholds
    assert [(n, held) for n, *_, held in rows] == [(1, 6), (2, 5), (3, 3)]
    # extract_subset materializes B once, for the chosen level
    cert = extract_subset(ctx.a, q, Fraction(2))
    assert len(restricted) == 1 and cert.b_size == len(cert.B.elements)


def test_layer_and_quotient_products_live_apart():
    # Z6 / {0, 3} is Z3 on coset ids 0, 1, 2: pi(A) and A have equal point
    # sets, but G-level products live in the layer and quotient ones in the instance
    z6 = CyclicGroup(6)
    q = quotient(z6, {0, 3})
    a = subset(z6, {0, 1, 2})
    ctx = InstanceContext(a, q)
    assert ctx.pi_a == a.elements
    assert ctx.shared.a_square == {0, 1, 2, 3, 4} and ctx.shared.stats.square == 5
    assert ctx.pi_square == 3 and ctx.product[ctx.pi_a, ctx.pi_a] == {0, 1, 2}


def test_a_memo_forms_each_value_once():
    formed = []
    memo = Memo(lambda x, y: formed.append((x, y)) or x + y)
    assert memo[1, 2] == memo[1, 2] == 3 and formed == [(1, 2)]
    # the instance's quotient products are the one memo: the layer forms each of its sets once, as a `once`
    a = subset(CyclicGroup(4), {1})
    layer = SubsetContext(a)
    assert layer.stats and layer.ab_ba and not any(isinstance(value, Memo) for value in vars(layer).values())
    assert isinstance(InstanceContext(a, quotient(a.owner, {0, 2})).product, Memo)


def test_a_partner_from_another_group_is_refused():
    # the layer's memo keys on each operand's group, so mul_set still checks B's
    q = quotient(CyclicGroup(6), {0, 3})
    a, b = subset(q.ambient, {0, 1}), subset(CyclicGroup(7), {0, 1})
    for check in (spillover_check, containment_check):
        with pytest.raises(ValueError, match="different groups"):
            check(a, b, q)
    # one of an equal group is A's: its products are A's
    assert spillover_check(a, subset(CyclicGroup(6), {0, 1}), q) == spillover_check(a, a, q)


def test_fubini_mismatch_raises_consistency_error():
    q = quotient(CyclicGroup(6), {0, 3})
    with pytest.raises(ConsistencyError, match="Fubini"):
        QuotientStructure(q.ambient, q.subgroup, q.quotient, q.project, Fraction(2))


def test_fubini_check_survives_optimized_mode():
    code = (
        "from fractions import Fraction\n"
        "from doubling import ConsistencyError, CyclicGroup, QuotientStructure, quotient\n"
        "q = quotient(CyclicGroup(6), {0, 3})\n"
        "try:\n"
        "    QuotientStructure(q.ambient, q.subgroup, q.quotient, q.project, Fraction(2))\n"
        "except ConsistencyError:\n"
        "    print('raised')\n"
    )
    src = str(Path(doubling.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "raised"
