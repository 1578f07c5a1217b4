import gc
import json
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from doubling import (
    CapError,
    ScanConfig,
    SpecError,
    build_group,
    catalog,
    evaluate_instance,
    iter_instance_specs,
    normal_subgroups,
    parse_group_selector,
    replay,
    scan,
    validate_axioms,
)
from doubling import harness
from doubling.context import SubsetContext
from doubling.harness import (
    ALL_SUITES, _exhaustive_layers, _exhaustive_units, _jobs, canonical_json, report_csv,
)
from oracles import LAYER_CODE, jobs_in_id_order, record_law_calls, whole_ids


def small_config(**overrides):
    base = dict(
        groups=["cyclic:12", "dihedral:4"],
        subset_mode={"kind": "random", "count": 12, "seed": 7},
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
    )
    base.update(overrides)
    return ScanConfig(**base)


def test_catalog_contents():
    specs = catalog()
    assert {"type": "cyclic", "n": 12, "weight": "counting"} in specs
    assert {"type": "symmetric", "n": 4, "weight": "counting"} in specs
    assert {"type": "symmetric", "n": 4, "weight": "normalized"} in specs
    names = {build_group(s).name for s in specs if s["type"] == "table"}
    assert "Q8" in names
    # dihedral entries stay within order 16
    orders = [2 * s["n"] for s in specs if s["type"] == "dihedral"]
    assert orders and max(orders) <= 16


def test_catalog_products_bounded():
    specs = catalog(weights=("counting",))
    for spec in specs:
        g = build_group(spec)
        assert g.order is not None and g.order <= 64


def test_catalog_sample_passes_validation():
    specs = catalog(weights=("counting",))
    for spec in specs[:12]:
        validate_axioms(build_group(spec))


def test_selector_parsing():
    assert parse_group_selector("cyclic:9") == {"type": "cyclic", "n": 9}
    assert parse_group_selector("q8")["name"] == "Q8"
    with pytest.raises(SpecError):
        parse_group_selector("wat")
    with pytest.raises(SpecError):
        parse_group_selector("cyclic:x")


def test_scan_is_deterministic_for_fixed_seed():
    r1 = scan(small_config())
    r2 = scan(small_config())
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_rerun_identical_on_product_group():
    spec = {
        "type": "product",
        "factors": [{"type": "dihedral", "n": 8}, {"type": "cyclic", "n": 3}],
    }
    config = lambda: ScanConfig(
        groups=[spec],
        subset_mode={"kind": "random", "count": 5, "seed": 99},
        suites=("quotient-cube", "quotient-k1k2"),
    )
    r1, r2 = scan(config()), scan(config())
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["aggregate"]["violations"] == []


def test_different_seeds_differ():
    r1 = scan(small_config())
    r2 = scan(small_config(subset_mode={"kind": "random", "count": 12, "seed": 8}))
    assert json.dumps(r1, sort_keys=True) != json.dumps(r2, sort_keys=True)


def test_scan_zero_violations_and_summary():
    report = scan(small_config())
    agg = report["aggregate"]
    assert agg["violations"] == []
    assert agg["instances"] == len(iter_instance_specs(small_config()))
    runs = agg["suite_runs"]
    assert runs["layer-cake"]["passes"] == runs["layer-cake"]["runs"]
    assert runs["quotient-sym"]["runs"] + runs["quotient-sym"]["skipped"] == agg["instances"]
    assert agg["general_probe"]["max"] is not None
    assert len(agg["general_probe"]["witnesses"]) <= 10


def test_symmetric_probe_never_exceeds_one():
    # exhaustive symmetric subsets: the squared bound means ratio/K^2 <= 1
    from doubling.rationals import parse

    config = ScanConfig(
        groups=["cyclic:12", "dihedral:4", "q8"],
        subset_mode={"kind": "exhaustive", "symmetric_only": True},
        suites=("quotient-sym",),
    )
    report = scan(config)
    assert parse(report["aggregate"]["symmetric_probe"]["max"]) <= 1


def test_replay_matches_scan_reports():
    config = small_config(emit_instances=True)
    report = scan(config)
    for rep in [r.to_json() for r in report["instances"][:5]]:
        again = replay(rep["id"])
        assert again == rep
        replay(rep["id"], expected=rep)  # no raise


def test_replay_flags_mismatch():
    from doubling import ConsistencyError

    config = small_config(emit_instances=True)
    rep = scan(config)["instances"][0].to_json()
    tampered = json.loads(json.dumps(rep))
    tampered["quotient_doubling"] = "999/1"
    with pytest.raises(ConsistencyError):
        replay(rep["id"], expected=tampered)


def test_exhaustive_generation_counts():
    config = ScanConfig(
        groups=["cyclic:6"],
        subset_mode={"kind": "exhaustive"},
        suites=("layer-cake",),
    )
    ids = iter_instance_specs(config)
    # 4 normal subgroups x 63 nonempty subsets
    assert len(ids) == 4 * 63


def test_exhaustive_symmetric_only_counts():
    config = ScanConfig(
        groups=["cyclic:12"],
        subset_mode={"kind": "exhaustive", "symmetric_only": True},
        suites=("quotient-sym",),
    )
    ids = iter_instance_specs(config)
    # 7 inverse orbits -> 127 symmetric subsets, 6 normal subgroups
    assert len(ids) == 6 * 127
    report = scan(config)
    assert report["aggregate"]["suite_runs"]["quotient-sym"]["runs"] == 6 * 127
    assert report["aggregate"]["violations"] == []


def exhaustive_layers(group, config):
    """A scan's subset layers of `group`, walked over the units that its count checked."""
    elems = list(group.elements())
    return list(_exhaustive_layers(group, elems, _exhaustive_units(group, elems, config)[0], config))


def _mask_walk(group, max_size):
    """Every union of inverse pairs {x, x^-1} with at most max_size elements,
    by every bit mask over the pairs in ascending order."""
    units = list(dict.fromkeys(frozenset((x, group.inv(x))) for x in group.elements()))
    members = (frozenset(x for i, u in enumerate(units) if mask >> i & 1 for x in u)
               for mask in range(1, 1 << len(units)))
    return [m for m in members if len(m) <= max_size]


@pytest.mark.parametrize("selector", ["dihedral:6", "cyclic:24", "q8", "symmetric:4"])
def test_symmetric_only_layers_with_a_max_size_follow_the_mask_walk(selector):
    group = build_group(parse_group_selector(selector))
    for max_size in (1, 2, 3, 4):
        config = ScanConfig([selector], {"kind": "exhaustive", "symmetric_only": True, "max_size": max_size})
        layers = exhaustive_layers(group, config)
        assert [shared.a.elements for shared in layers] == _mask_walk(group, max_size), (selector, max_size)


def test_exhaustive_max_size():
    config = ScanConfig(
        groups=["cyclic:20"],
        subset_mode={"kind": "exhaustive", "max_size": 2},
        suites=("layer-cake",),
    )
    ids = iter_instance_specs(config)
    # 20 singletons + C(20,2) pairs, times 6 normal subgroups
    assert len(ids) == 6 * (20 + 190)


def test_exhaustive_cap_without_max_size():
    config = ScanConfig(
        groups=["cyclic:20"],
        subset_mode={"kind": "exhaustive"},
        suites=("layer-cake",),
    )
    # a scan's rejection names the group it read
    with pytest.raises(SpecError, match=r"^/groups/0: exhaustive mode without max_size enumerates 1048575 "
                                        r"subsets of Z20; the cap is 2\^16 - 1$"):
        iter_instance_specs(config)


@pytest.mark.parametrize("selector, mode, count", [
    # the sum over k <= max_size of C(u, k) over u elements, against 2^16 - 1
    ("symmetric:4", {"max_size": 4}, 24 + 276 + 2024 + 10626),
    ("symmetric:4", {"max_size": 6}, 24 + 276 + 2024 + 10626 + 42504 + 134596),
    ("cyclic:40", {"max_size": 40}, 2**40 - 1),
    # 2 self-inverse elements and 31 inverse pairs {x, x^-1}: the sum of
    # C(2, j) C(31, p) over 0 < j + p with j + 2p <= max_size
    ("cyclic:64", {"max_size": 2, "symmetric_only": True}, 2 + 1 + 31),
    ("cyclic:64", {"max_size": 4, "symmetric_only": True}, 2 + 1 + 31 * (1 + 2 + 1) + 465),
    ("cyclic:64", {"max_size": 5, "symmetric_only": True}, 2 + 1 + 31 * (1 + 2 + 1) + 465 * (1 + 2)),
])
def test_exhaustive_cap_with_max_size(selector, mode, count):
    group = build_group(parse_group_selector(selector))
    config = ScanConfig([selector], {"kind": "exhaustive", **mode}, suites=("layer-cake",))
    if count < 2**16:
        layers = exhaustive_layers(group, config)
        assert len(layers) == count
    else:
        with pytest.raises(SpecError, match=rf"^/groups/0: exhaustive mode with max_size {mode['max_size']} "
                                            rf"enumerates {count} subsets of .*; the cap is 2\^16 - 1$"):
            iter_instance_specs(config)


WALK_GROUPS = [spec for spec in catalog(weights=("counting",), max_product_order=12)
               if build_group(spec).order <= 12]


def _every_qualifying_union(group, max_size, symmetric_only):
    """Every nonempty subset of at most max_size elements, symmetric under
    symmetric_only, picked from all 2^|G| subsets; ordered by size, then by
    the element indices, for a plain max_size, else by the bit mask with a
    bit for the first index of each inverse pair (each element without
    symmetric_only)."""
    elems = list(group.elements())
    index = {x: i for i, x in enumerate(elems)}
    every = [frozenset(x for i, x in enumerate(elems) if mask >> i & 1) for mask in range(1, 1 << len(elems))]
    kept = [a for a in every if len(a) <= (max_size or len(elems))
            and (not symmetric_only or a == {group.inv(x) for x in a})]
    if max_size is not None and not symmetric_only:
        return sorted(kept, key=lambda a: (len(a), sorted(index[x] for x in a)))
    unit = (lambda x: min(index[x], index[group.inv(x)])) if symmetric_only else index.__getitem__
    return sorted(kept, key=lambda a: sum(1 << i for i in set(map(unit, a))))


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(WALK_GROUPS), max_size=st.sampled_from([None, 1, 2, 3, 4]),
       symmetric_only=st.booleans())
def test_exhaustive_layers_equal_a_brute_force_walk_and_the_count_the_cap_checked(spec, max_size, symmetric_only):
    group = build_group(spec)
    mode = {"kind": "exhaustive", "symmetric_only": symmetric_only}
    if max_size is not None:
        mode["max_size"] = max_size
    config = ScanConfig([spec], mode, suites=("layer-cake",))
    expected = _every_qualifying_union(group, max_size, symmetric_only)
    layers = exhaustive_layers(group, config)
    assert [shared.a.elements for shared in layers] == expected
    # the cap counted exactly the layers formed: one fewer allowed is refused
    with mock.patch.object(harness, "MAX_SUBSETS", len(expected) - 1):
        with pytest.raises(CapError, match=f" enumerates {len(expected)} subsets of "):
            exhaustive_layers(group, config)


def test_proper_subgroup_selector():
    config = ScanConfig(
        groups=["cyclic:6"],
        subset_mode={"kind": "exhaustive"},
        suites=("layer-cake",),
        subgroups="proper",
    )
    ids = iter_instance_specs(config)
    # only the order-2 and order-3 subgroups remain
    assert len(ids) == 2 * 63
    sizes = {len(json.loads(i)["subgroup"]["elements"]) for i in ids}
    assert sizes == {2, 3}


def test_density_variants_are_deterministic():
    for density in ("1/4", "1/2", {"size": 3}):
        config = lambda: ScanConfig(
            groups=["cyclic:12"],
            subset_mode={"kind": "random", "count": 8, "seed": 5, "density": density},
            suites=("layer-cake",),
        )
        first = iter_instance_specs(config())
        assert first == iter_instance_specs(config())
        if isinstance(density, dict):
            for instance_id in first:
                assert len(json.loads(instance_id)["subset"]) == 3


def test_random_mode_requires_seed():
    with pytest.raises(SpecError, match="seed"):
        ScanConfig(
            groups=["cyclic:6"],
            subset_mode={"kind": "random", "count": 5},
            suites=("layer-cake",),
        )


def test_config_validation_errors():
    with pytest.raises(SpecError, match="suites"):
        ScanConfig(
            groups=["cyclic:6"],
            subset_mode={"kind": "exhaustive"},
            suites=("bogus",),
        )
    with pytest.raises(SpecError, match="alpha"):
        ScanConfig(
            groups=["cyclic:6"],
            subset_mode={"kind": "exhaustive"},
            suites=("extract",),
            alphas=("1/2",),
        )
    with pytest.raises(SpecError, match="^/groups: expected a nonempty list"):
        ScanConfig(groups=[], subset_mode={"kind": "exhaustive"})
    with pytest.raises(SpecError):
        ScanConfig.from_json({"groups": ["cyclic:6"]})
    with pytest.raises(SpecError):
        ScanConfig.from_json(
            {"groups": ["cyclic:6"], "subset_mode": {"kind": "exhaustive"}, "oops": 1}
        )


def test_resolved_config_excludes_parallelism():
    # a scan runs in one process: no worker count to pass or to resolve
    assert "parallelism" not in small_config().resolved()
    with pytest.raises(TypeError):
        small_config(parallelism=1)


def test_instance_id_is_canonical_json():
    ids = iter_instance_specs(small_config())
    for instance_id in ids[:3]:
        assert instance_id == canonical_json(json.loads(instance_id))
        report = evaluate_instance(instance_id).to_json()
        assert report["id"] == instance_id


# product groups, one nested, a table group whose name is not ASCII, and one structure in two weights
NESTED = {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "product", "factors": [
    {"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}]}]}
ID_GROUPS = [
    "dihedral:4",
    {"type": "dihedral", "n": 4, "weight": "normalized"},
    "q8",
    {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}]},
    NESTED,
    {"type": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "name": "Z\u2083 \u00e9t\u00e9"},
]
ID_MODES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("exhaustive"), "max_size": st.integers(1, 2)},
                          optional={"symmetric_only": st.booleans()}),
    st.fixed_dictionaries({"kind": st.just("random"), "count": st.integers(1, 3), "seed": st.integers(0, 99)},
                          optional={"density": st.sampled_from(["mixed", "1/4", {"size": 2}])}),
)


@settings(max_examples=60, deadline=None)
@given(
    groups=st.lists(st.sampled_from(ID_GROUPS), min_size=1, max_size=2, unique_by=canonical_json),
    mode=ID_MODES,
    suites=st.lists(st.sampled_from(ALL_SUITES), unique=True),
    alphas=st.lists(st.sampled_from(["3/2", "2", "7/3"]), min_size=1, max_size=2, unique=True),
    subgroups=st.sampled_from(["all", "proper"]),
    weight=st.sampled_from(["counting", "normalized"]),
)
@example(groups=ID_GROUPS[-1:], mode={"kind": "exhaustive", "max_size": 1}, suites=[], alphas=["2"],
         subgroups="proper", weight="counting")
def test_ids_from_rendered_pieces_equal_the_whole_canonical_json(groups, mode, suites, alphas, subgroups, weight):
    config = ScanConfig(groups, mode, suites=suites, alphas=alphas, subgroups=subgroups, subgroup_weight=weight)
    if subgroups == "proper" and groups == ID_GROUPS[-1:]:  # Z3 has no subgroup 1 < |H| < 3
        with pytest.raises(SpecError, match="^/subgroups: no group has a normal subgroup"):
            next(_jobs(config))
        return
    pairs = jobs_in_id_order(config)
    ids = [instance_id for instance_id, _ in pairs]
    assert ids == whole_ids(config, pairs)
    assert all(instance_id == canonical_json(json.loads(instance_id)) for instance_id in ids)
    # each id holds the fields of every instance, and optional ones only besides
    keys = {frozenset(json.loads(i)) for i in ids}
    optional = {"alphas", "subset_b", "subset_c", "translate"}
    assert all(k - optional == {"group", "subgroup", "subset", "suites"} for k in keys)


def test_a_scan_builds_one_lattice_per_group_structure(monkeypatch):
    names = []

    def counted(group):
        names.append(group.name)
        return normal_subgroups(group)

    monkeypatch.setattr(harness, "normal_subgroups", counted)
    specs = catalog(max_product_order=12)
    config = ScanConfig(specs, {"kind": "random", "count": 1, "seed": 3}, suites=["quotient-k1k2"])
    assert len(iter_instance_specs(config)) > len(specs)
    assert names == [build_group(spec).name for spec in specs[:len(specs) // 2]]
    # the same structure in both weights, nested factors included, with and without a weight key
    normalized = {"type": "product", "factors": [{**NESTED["factors"][0], "weight": "normalized"}, {
        **NESTED["factors"][1], "factors": [{**f, "weight": "normalized"} for f in NESTED["factors"][1]["factors"]]}]}
    names.clear()
    groups = ["dihedral:4", NESTED, {"type": "dihedral", "n": 4, "weight": "normalized"}, normalized]
    mode = {"kind": "exhaustive", "max_size": 1}
    # the default weight written out is the same group as "dihedral:4"
    with pytest.raises(SpecError, match="^/groups/4: repeats the group at /groups/0"):
        ScanConfig([*groups, {"type": "dihedral", "n": 4, "weight": "counting"}], mode)
    config = ScanConfig(groups, mode, suites=["spillover", "quotient-k1k2"])
    pairs = jobs_in_id_order(config)
    ids = [instance_id for instance_id, _ in pairs]
    assert names == ["D4", "Z2xZ2xS3"]
    assert ids == whole_ids(config, pairs)
    # each group's subgroups are its own: the scan's reports are the replayed ones
    assert [evaluate_instance(i, job).to_json() for i, job in pairs] == [replay(i) for i in ids]


def test_a_scan_evaluates_a_group_before_it_builds_the_next_groups_layers(monkeypatch):
    events, live, built = [], {}, []
    layers, evaluate, build = harness._exhaustive_layers, harness.evaluate_instance, harness.build_group

    def logged(group, *args):
        events.append(group.name)
        # the layers of the groups before: at most the one the last job held
        live[group.name] = sum(isinstance(x, SubsetContext) and x.a.owner is not group for x in gc.get_objects())
        return layers(group, *args)

    monkeypatch.setattr(harness, "_exhaustive_layers", logged)
    monkeypatch.setattr(harness, "evaluate_instance", lambda *args: events.append("evaluate") or evaluate(*args))
    monkeypatch.setattr(harness, "build_group", lambda *args: built.append(weakref.ref(g := build(*args))) or g)
    config = ScanConfig(["cyclic:4", "dihedral:3"], {"kind": "exhaustive", "max_size": 2}, suites=["layer-cake"])
    assert scan(config)["aggregate"]["instances"] == 3 * 10 + 3 * 21
    assert events.index("Z4") < events.index("evaluate") < events.index("D3")
    assert live["D3"] <= 1
    # the groups that the config checked and that the scan ran on: none outlives the scan
    gc.collect()
    assert len(built) == 4 and [ref() for ref in built] == [None] * 4
    monkeypatch.undo()
    assert [instance_id for instance_id, _ in jobs_in_id_order(config)] == iter_instance_specs(config)


ORDER_GROUPS = ["cyclic:6", "dihedral:3", "q8"]
ORDER_SUITES = ("layer-cake", "spillover", "ruzsa-axioms", "quotient-sym")


def _failing(monkeypatch):
    """Patch layer-cake to fail where |piA| is 2, a quotient-side fact the
    results table shares, and ruzsa-axioms where |A| is 1, a fact of the layer."""
    layer_cake, ruzsa = harness.SUITES["layer-cake"], harness.SUITES["ruzsa-axioms"]

    def cake(ctx, alphas):
        record, failed = layer_cake(ctx, alphas)
        return record, failed + ("two cosets",) if len(ctx.pi_a) == 2 else failed

    def axioms(shared, alphas):
        record, failed = ruzsa(shared, alphas)
        return record, failed + ("a singleton",) if len(shared.a.elements) == 1 else failed

    monkeypatch.setitem(harness.SUITES, "layer-cake", cake)
    monkeypatch.setitem(harness.SUITES, "ruzsa-axioms", axioms)


@pytest.mark.parametrize("mode", [{"kind": "exhaustive", "max_size": 2},
                                  {"kind": "exhaustive", "max_size": 3, "symmetric_only": True}])
@pytest.mark.parametrize("subgroups", ["all", "proper"])
def test_a_layer_major_scan_keeps_the_id_order_of_instances_and_violations(monkeypatch, mode, subgroups):
    config = ScanConfig(ORDER_GROUPS, mode, suites=ORDER_SUITES, subgroups=subgroups, emit_instances=True)
    ids = iter_instance_specs(config)
    assert [rep.id for rep in scan(config)["instances"]] == ids
    _failing(monkeypatch)
    # folded as evaluated, layer by layer, when no instance is emitted
    folded = scan(ScanConfig(ORDER_GROUPS, mode, suites=ORDER_SUITES, subgroups=subgroups))
    violations = folded["aggregate"]["violations"]
    assert scan(config)["aggregate"]["violations"] == violations
    # replayed one id at a time, in id order, with no results table
    expected = [{"id": i, "suite": name, "detail": d}
                for i in ids for name, _, failed in evaluate_instance(i).suites for d in failed or ()]
    assert violations == expected
    # violations under several subgroups of a group, so that the layer-major order differs
    assert len({canonical_json(json.loads(v["id"])["subgroup"]) for v in violations}) > len(ORDER_GROUPS)


def test_instance_ids_build_no_quotient_no_row_and_no_product_but_c(monkeypatch):
    """The set-up that perfbench times ends at `iter_instance_specs`: no
    evaluation work may move there."""
    built, packed = [], []
    quotient_by, pack = harness._quotient_by, harness._Packing.__call__
    monkeypatch.setattr(harness, "_quotient_by", lambda *args: built.append(args) or quotient_by(*args))
    monkeypatch.setattr(harness._Packing, "__call__", lambda *args: packed.append(args) or pack(*args))
    calls = record_law_calls(monkeypatch, "product")
    config = ScanConfig(["dihedral:4", "cyclic:6"], {"kind": "exhaustive", "max_size": 3})
    ids = iter_instance_specs(config)
    layers = {(canonical_json(spec["group"]), canonical_json(spec["subset"])) for spec in map(json.loads, ids)}
    assert len(ids) > len(layers) > 1
    assert built == [] and packed == []
    # one product per layer: its C = A A (the lattice walks multiply too)
    products = [args for _, code, *args in calls if code in LAYER_CODE]
    assert len(products) == len(layers) and all(x is y for x, y in products)
    monkeypatch.undo()
    assert scan(config)["aggregate"]["instances"] == len(ids)


@pytest.mark.parametrize("group, refusal", [
    ("gl2z", "GL2Z is infinite"),
    ("cyclic:70", "subgroup enumeration capped at order 64"),
    ("symmetric:4", "exhaustive mode with max_size 6 enumerates 190050 subsets"),
])
def test_every_group_refusal_comes_before_the_first_evaluation(monkeypatch, group, refusal):
    calls = []
    evaluate = harness.evaluate_instance
    monkeypatch.setattr(harness, "evaluate_instance", lambda *args: calls.append(args) or evaluate(*args))
    config = ScanConfig(["cyclic:4", group], {"kind": "exhaustive", "max_size": 6}, suites=["layer-cake"])
    with pytest.raises(SpecError, match=f"^/groups/1: {refusal}"):
        scan(config)
    assert calls == []


def test_a_proper_scan_that_finds_no_subgroup_is_refused_before_the_first_evaluation(monkeypatch):
    calls = []
    evaluate = harness.evaluate_instance
    monkeypatch.setattr(harness, "evaluate_instance", lambda *args: calls.append(args) or evaluate(*args))
    mode = {"kind": "random", "count": 1, "seed": 0}
    config = ScanConfig(["cyclic:5", "cyclic:7"], mode, subgroups="proper")
    for run in (iter_instance_specs, scan):
        with pytest.raises(SpecError, match="^/subgroups: no group has a normal subgroup 1 < "):
            run(config)
    assert calls == []
    # one group with such a subgroup is enough: Z4's {0, 2}
    assert len(iter_instance_specs(ScanConfig(["cyclic:5", "cyclic:4"], mode, subgroups="proper"))) == 1


def test_a_spec_holding_tuples_is_read_as_its_lists():
    c2, s3 = {"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}
    mode = {"kind": "exhaustive", "max_size": 1}
    as_tuple = ScanConfig([{"type": "product", "factors": (c2, s3)}], mode, suites=["layer-cake"])
    as_list = ScanConfig([{"type": "product", "factors": [c2, s3]}], mode, suites=["layer-cake"])
    assert iter_instance_specs(as_tuple) == iter_instance_specs(as_list)
    assert parse_group_selector({"type": "product", "factors": (c2, s3)})["factors"] == (c2, s3)


def test_csv_export():
    report = scan(small_config(emit_instances=True))
    text = report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# lossy")
    assert lines[1].split(",")[0] == "instance"
    assert len(lines) == 2 + report["aggregate"]["instances"]
    with pytest.raises(ValueError):
        report_csv(scan(small_config()))


def test_probe_values_allow_reconstruction():
    report = scan(small_config(emit_instances=True))
    from doubling.rationals import parse

    for rep in [r.to_json() for r in report["instances"][:10]]:
        k = parse(rep["doubling"]["K"])
        qd = parse(rep["quotient_doubling"])
        assert parse(rep["probe"]["over_k2"]) == qd / (k * k)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12) | st.sampled_from(["cyclic:4", "q8", "exhaustive", "random", "mixed"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
CONFIG_FIELDS = list(ScanConfig.FIELDS)
MODE_KEYS = ["kind", "count", "seed", "density", "max_size", "symmetric_only"]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CONFIG_FIELDS + [f"subset_mode/{k}" for k in MODE_KEYS]),
    JSON_VALUES,
    st.sampled_from([{"kind": "random", "count": 2, "seed": 1}, {"kind": "exhaustive"}]),
)
def test_scan_config_raises_only_spec_errors(field, value, mode):
    doc = {"groups": ["cyclic:4"], "subset_mode": dict(mode)}
    if field.startswith("subset_mode/"):
        doc["subset_mode"][field.split("/")[1]] = value
    else:
        doc[field] = value
    try:
        ScanConfig.from_json(doc)
    except SpecError:
        pass
