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
    inv_set,
    iter_instance_specs,
    layer_cake,
    mul_set,
    quotient,
    quotient_doubling_check,
    ruzsa_sq,
    scan,
    ruzsa_triangle_check,
    spillover_check,
    subset,
    translate,
)
from doubling.context import InstanceContext
from doubling.harness import _load_id
from doubling.quotients import quotient_from_description
from doubling.rationals import parse, put

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
                "triangle": ruzsa_triangle_check(a, bb, cc),
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


def test_no_product_set_is_computed_twice_per_instance(ids, monkeypatch):
    calls = record_calls(monkeypatch, "mul_set", lambda x, y: (x.owner, x.elements, y.elements))
    for instance_id in ids:
        calls.clear()
        evaluate_instance(instance_id)
        assert calls, instance_id
        assert len(calls) == len(set(calls)), instance_id


def test_no_inverse_set_is_computed_twice_per_instance(ids, monkeypatch):
    calls = record_calls(monkeypatch, "inv_set", lambda x: (x.owner, x.elements))
    for instance_id in ids:
        calls.clear()
        evaluate_instance(instance_id)
        assert len(calls) == len(set(calls)), instance_id


def test_g_level_products_do_not_scale_with_the_normal_subgroups(monkeypatch):
    # an exhaustive scan forms each G-level product once per subset, in the
    # subset layer every normal subgroup's instance shares
    owners = record_calls(monkeypatch, "mul_set", lambda x, y: x.owner)
    g_level, instances = {}, {}
    for subgroups in ("all", "proper"):
        owners.clear()
        report = scan(ScanConfig(["dihedral:4"], {"kind": "exhaustive"}, subgroups=subgroups))
        g_level[subgroups] = sum(owner.kind == "dihedral" for owner in owners)
        instances[subgroups] = report["aggregate"]["instances"]
    assert instances == {"all": 255 * 6, "proper": 255 * 4}
    assert g_level["all"] == g_level["proper"] > 0


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
            assert held == len(original(q, ctx.a, level.elements).elements)
    # fibers 3, 2 and 1 in Z12 / {0, 4, 8}: three levels holding 6, 5 and 3 elements
    z12 = CyclicGroup(12)
    rows = InstanceContext(subset(z12, {0, 4, 8, 1, 5, 2}), quotient(z12, {0, 4, 8})).thresholds
    assert [(n, held) for n, *_, held in rows] == [(1, 6), (2, 5), (3, 3)]
    # extract_subset materializes B once, for the chosen level
    cert = extract_subset(ctx.a, q, Fraction(2))
    assert len(restricted) == 1 and cert.b_size == len(cert.B.elements)


def test_memo_keys_on_the_owner_group():
    # Z6 / {0, 3} is Z3 on coset ids 0, 1, 2: pi(A) and A have equal element sets
    z6 = CyclicGroup(6)
    q = quotient(z6, {0, 3})
    a = subset(z6, {0, 1, 2})
    ctx = InstanceContext(a, q)
    assert ctx.pi_a.elements == a.elements
    assert len(ctx.mul(a, a).elements) == 5
    assert len(ctx.mul(ctx.pi_a, ctx.pi_a).elements) == 3
    assert ctx.mul(ctx.pi_a, ctx.pi_a).owner is q.quotient


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
