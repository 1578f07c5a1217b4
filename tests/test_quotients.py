import itertools
import json
from collections import Counter
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import doubling
from doubling import (
    CapError,
    CyclicGroup,
    MatrixGroup,
    ProductGroup,
    SymmetricGroup,
    TableGroup,
    build_group,
    catalog,
    mul_set,
    normal_subgroups,
    projection_quotient,
    quotient,
    subset,
)
from doubling import ScanConfig, groups, harness
from doubling.groups import TABLE_CAP, CayleyTable, OpLaw, WeightedGroup, quaternion_table
from doubling.errors import SpecError
from doubling.quotients import closure, quotient_from_description
from oracles import is_normal, is_subgroup, quaternion_group, searched_identity_and_inverses, walked_lattice


def test_cyclic_subgroup_lattice():
    subs = normal_subgroups(CyclicGroup(6))
    assert [len(s) for s in subs] == [1, 2, 3, 6]


def test_closure_generates_subgroups():
    from doubling import closure

    z12 = CyclicGroup(12)
    assert closure(z12, {4}) == {0, 4, 8}
    assert closure(z12, {5}) == set(range(12))
    s3 = SymmetricGroup(3)
    t = next(i for i in range(1, 6) if s3.op(i, i) == 0)
    assert closure(s3, {t}) == {0, t}
    # two distinct transpositions generate everything
    t2 = next(i for i in range(t + 1, 6) if s3.op(i, i) == 0)
    assert closure(s3, {t, t2}) == set(range(6))


def test_s3_normal_subgroups():
    s3 = SymmetricGroup(3)
    subs = normal_subgroups(s3)
    assert [len(s) for s in subs] == [1, 3, 6]
    # the order-3 one is the even permutations (oracle: inversion parity)
    a3 = next(s for s in subs if len(s) == 3)
    for idx in a3.elements:
        p = s3.perms[idx]
        inversions = sum(
            1 for i, j in itertools.combinations(range(3), 2) if p[i] > p[j]
        )
        assert inversions % 2 == 0


def test_q8_subgroups_all_normal():
    q8 = quaternion_group()
    # oracle: brute force over all 2^8 subsets
    elems = list(range(8))
    brute = [
        frozenset(s)
        for size in range(1, 9)
        for s in itertools.combinations(elems, size)
        if is_subgroup(q8, frozenset(s))
    ]
    brute.sort(key=lambda s: (len(s), sorted(s)))
    assert brute == walked_lattice(q8)[0]
    assert len(brute) == 6
    assert all(is_normal(q8, s) for s in brute)
    assert [s.elements for s in normal_subgroups(q8)] == brute


def test_s4_normal_subgroups():
    subs = normal_subgroups(SymmetricGroup(4))
    assert [len(s) for s in subs] == [1, 4, 12, 24]


def test_subgroup_enum_caps():
    with pytest.raises(CapError):
        normal_subgroups(CyclicGroup(65))
    with pytest.raises(ValueError):
        normal_subgroups(MatrixGroup())


def test_quotient_weights_counting():
    z6 = CyclicGroup(6)
    q = quotient(z6, {0, 3})
    assert q.quotient.order == 3
    assert q.quotient_weight == 1
    assert q.subgroup_weight == 1
    assert q.quotient_weight * q.subgroup_weight == z6.weight


def test_quotient_weights_normalized_subgroup():
    q = quotient(CyclicGroup(6), {0, 3}, "normalized")
    assert q.subgroup_weight == Fraction(1, 2)
    assert q.quotient_weight == 2


def test_s3_mod_a3_is_order_two():
    s3 = SymmetricGroup(3)
    a3 = next(s for s in normal_subgroups(s3) if len(s) == 3)
    q = quotient(s3, a3)
    assert q.quotient.order == 2
    other = 1 - q.project(s3.identity)
    assert q.quotient.op(other, other) == q.project(s3.identity)


def test_quotient_rejects_bad_subgroups():
    z6 = CyclicGroup(6)
    with pytest.raises(ValueError, match="subgroup"):
        quotient(z6, {0, 1})
    s3 = SymmetricGroup(3)
    # {e, transposition} is a subgroup but not normal
    transposition = next(
        i for i in range(6) if i != 0 and s3.op(i, i) == 0
    )
    with pytest.raises(ValueError, match="normal"):
        quotient(s3, {0, transposition})


def test_quotient_by_a_subgroup_of_an_equal_group():
    g, twin = CyclicGroup(12), CyclicGroup(12)
    q = quotient(g, subset(twin, {0, 6}))
    assert q.subgroup.owner is g and q.quotient.order == 6
    # the same rule as mul_set across the two groups
    assert mul_set(subset(g, {1}), subset(twin, {2})).elements == {3}
    with pytest.raises(ValueError, match="different groups"):
        quotient(g, subset(CyclicGroup(6), {0, 3}))


def test_projection_quotient_drops_coordinates():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(4)])
    q = projection_quotient(g, [1])
    assert q.quotient.order == 4
    assert q.subgroup.elements == {(0, 0), (1, 0)}
    assert q.project((1, 3)) == 3
    assert q.quotient_weight * q.subgroup_weight == g.weight


def test_projection_keep_all_is_identity():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(3)])
    q = projection_quotient(g, [0, 1])
    a = subset(g, {(0, 1), (1, 2)})
    assert q.image(a).elements == a.elements
    assert q.subgroup.elements == {(0, 0)}


def test_projection_quotient_errors():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(3)])
    with pytest.raises(ValueError, match="nonempty"):
        projection_quotient(g, [])
    with pytest.raises(ValueError, match="range"):
        projection_quotient(g, [2])
    lazy = ProductGroup([MatrixGroup(), CyclicGroup(3)])
    with pytest.raises(ValueError, match="finite"):
        projection_quotient(lazy, [1])


def test_projection_homomorphism():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(4), CyclicGroup(3)])
    q = projection_quotient(g, [1, 2])
    a = subset(g, {(0, 1, 2), (1, 3, 0)})
    b = subset(g, {(1, 2, 1)})
    assert q.image(mul_set(a, b)).elements == mul_set(q.image(a), q.image(b)).elements


def test_image_of_product_is_product_of_images():
    z6 = CyclicGroup(6)
    q = quotient(z6, {0, 3})
    a = subset(z6, {0, 1})
    b = subset(z6, {2, 5})
    assert q.image(mul_set(a, b)).elements == mul_set(q.image(a), q.image(b)).elements


def test_fubini_identity():
    # mu_G(A) equals the quotient-weighted sum of fiber lengths
    from doubling import fiber_profile

    for mode in ("counting", "normalized"):
        z12 = CyclicGroup(12)
        q = quotient(z12, {0, 4, 8}, mode)
        a = subset(z12, {0, 1, 2, 5, 9, 11})
        prof = fiber_profile(a, q)
        total = sum((q.quotient_weight * f for f in prof.fibers.values()), Fraction(0))
        assert total == a.measure


def test_quotient_independent_of_element_labels():
    # relabel Z6 by a permutation; measures of projected sets must not move
    z6 = CyclicGroup(6)
    perm = [2, 4, 0, 5, 1, 3]
    inv_perm = {v: i for i, v in enumerate(perm)}
    table = [
        [perm[(inv_perm[i] + inv_perm[j]) % 6] for j in range(6)] for i in range(6)
    ]
    relabeled = TableGroup(table, name="Z6-relabeled")

    q1 = quotient(z6, {0, 3})
    q2 = quotient(relabeled, {perm[0], perm[3]})
    a1 = subset(z6, {0, 1, 3})
    a2 = subset(relabeled, {perm[0], perm[1], perm[3]})
    assert q1.quotient.order == q2.quotient.order
    assert q1.image(a1).measure == q2.image(a2).measure
    from doubling import fiber_profile

    f1 = sorted(fiber_profile(a1, q1).fibers.values())
    f2 = sorted(fiber_profile(a2, q2).fibers.values())
    assert f1 == f2


def closed_under_products(group, elems: frozenset) -> bool:
    """The plain reference: H holds the identity and HH is inside H."""
    return group.identity in elems and all(group.op(x, y) in elems for x in elems for y in elems)


def test_is_subgroup_matches_the_product_check_on_every_small_subset():
    groups = [build_group(spec) for spec in catalog(weights=("counting",))]
    small = [g for g in groups if g.order <= 12]
    assert len(small) > 20
    for group in small:
        elems = list(group.elements())
        # every subset, the empty one and those missing the identity included
        for mask in range(1 << len(elems)):
            h = frozenset(x for i, x in enumerate(elems) if mask >> i & 1)
            assert is_subgroup(group, h) == closed_under_products(group, h), (group.name, sorted(h))


def test_is_subgroup_on_the_op_path():
    # Z_100 is above the table cap and GL2Z is infinite: both multiply with `op`
    z100 = CyclicGroup(100)
    for d in (1, 2, 4, 5, 10, 20, 25, 50, 100):
        h = frozenset(range(0, 100, d))
        assert is_subgroup(z100, h)
        assert not is_subgroup(z100, h - {0})
        if d > 1:
            assert not is_subgroup(z100, h | {1})
    gl2z = MatrixGroup()
    rotation, flip = (0, -1, 1, 0), (0, 1, 1, 0)
    square = closure(gl2z, {rotation, flip})
    assert len(square) == 8
    for size in range(len(square) + 1):
        for h in itertools.combinations(sorted(square), size):
            h = frozenset(h)
            assert is_subgroup(gl2z, h) == closed_under_products(gl2z, h)
    # an element of infinite order leaves any finite set: False, and it ends
    assert not is_subgroup(gl2z, frozenset({gl2z.identity, (1, 1, 0, 1)}))


def test_lattice_lists_subgroups_in_canonical_order():
    # the lattice sorts table indices; they must sort as the handles do.  It
    # ignores weights, so one weight covers every structure of the catalog;
    # the walk over normal closures must give what the walk over all subgroups does
    groups = [build_group(spec) for spec in catalog(weights=("counting",))]
    assert {"Z2xS4", "Q8xQ8"} <= {g.name for g in groups}
    assert max(g.order for g in groups) == TABLE_CAP
    for group in groups:
        subs, normal = walked_lattice(group)
        assert subs == sorted(subs, key=lambda s: (len(s), sorted(s))), group.name
        # the oracle's generator test against gH = Hg formed in full
        assert normal == [s for s in subs if is_normal(group, s)], group.name
        assert [s.elements for s in normal_subgroups(group)] == normal, group.name


@pytest.mark.parametrize("factors, count", [
    ([{"type": "cyclic", "n": 2}] * 6, 2825),
    ([{"type": "dihedral", "n": 4}, {"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 2}], 78),
], ids=["(C2)^6", "D4xZ2xZ2"])
def test_lattice_matches_the_walk_over_all_subgroups_past_the_catalog(factors, count):
    # every subgroup of (C2)^6 is normal, one closure per element; D4 x Z2 x Z2
    # has conjugacy classes of two elements, whose closures are not <x>
    group = build_group({"type": "product", "factors": factors})
    normal = [s.elements for s in normal_subgroups(group)]
    assert len(normal) == count
    assert normal == walked_lattice(group)[1]


@pytest.mark.parametrize("weight", ["counting", "normalized"])
def test_a_scan_builds_the_quotient_that_quotient_checks_and_builds(weight):
    # a scan builds each lattice subgroup's quotient with no second normality
    # test; `quotient` tests the same subgroup and must build the same thing
    config = ScanConfig(catalog(), {"kind": "random", "count": 1, "seed": 0}, subgroup_weight=weight)
    jobs = [job for *_, job in harness._jobs(config)]
    assert len(jobs) > 1000
    for _, make_quotient, *_ in jobs:
        scanned = make_quotient()
        group, sub = scanned.ambient, scanned.subgroup
        checked = quotient(group, sub.elements, weight)
        assert {x: scanned.project(x) for x in group.elements()} == {x: checked.project(x) for x in group.elements()}
        assert scanned.quotient.table == checked.quotient.table
        assert scanned.quotient.name == checked.quotient.name
        assert (scanned.subgroup_weight, scanned.quotient_weight) == (checked.subgroup_weight, checked.quotient_weight)
        assert (scanned.subgroup.owner, scanned.subgroup.elements) == (group, checked.subgroup.elements)


def test_lattice_on_the_op_path_matches_the_table_path(monkeypatch):
    specs = [
        {"type": "dihedral", "n": 4},
        {"type": "table", "table": quaternion_group().table, "name": "Q8"},
        {"type": "product", "factors": [{"type": "symmetric", "n": 3}, {"type": "cyclic", "n": 2}]},
        {"type": "symmetric", "n": 4},
        {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "product", "factors": [
            {"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}]}]},
    ]

    def lattices() -> list:
        groups = [build_group(spec) for spec in specs]
        walked = [walked_lattice(g) for g in groups]
        # the walk over normal closures gives what the walk over all subgroups does
        assert [[s.elements for s in normal_subgroups(g)] for g in groups] == [normal for _, normal in walked]
        return walked

    on_tables = lattices()
    with monkeypatch.context() as patch:
        patch.setattr(WeightedGroup, "law", property(OpLaw))
        assert all(isinstance(build_group(spec).law, OpLaw) for spec in specs)
        on_op = lattices()
    assert [len(subs) for subs, _ in on_tables] == [10, 6, 16, 30, 54]
    assert on_op == on_tables


def test_weight_variants_compute_the_same_lattice():
    # the lattice ignores weights; each variant computes its own
    counting, normalized = (catalog(weights=(mode,)) for mode in ("counting", "normalized"))
    seen = []
    for c_spec, n_spec in zip(counting, normalized):
        c, n = build_group(c_spec), build_group(n_spec)
        if c.name not in ("Q8", "D4", "D4xS3"):
            continue
        assert n.name == c.name and n.weight == Fraction(1, n.order) != c.weight
        assert walked_lattice(n) == walked_lattice(c), c.name
        assert [s.elements for s in normal_subgroups(n)] == [s.elements for s in normal_subgroups(c)], c.name
        seen.append(c.name)
    assert seen == ["D4", "Q8", "D4xS3"]


def test_replay_with_a_large_subgroup_of_a_large_group_ends(tmp_path):
    # 15,625 multiples of 64 in Z_10^6: |H|^2 = 2.4e8 products for the HH check
    spec = {
        "group": {"type": "cyclic", "n": 1000000},
        "subgroup": {"elements": list(range(0, 1000000, 64))},
        "subset": [0, 1],
    }
    id_file = tmp_path / "id.txt"
    id_file.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(Path(doubling.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "doubling.cli", "replay", "--id", f"@{id_file}"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["sizes"] == {"group": 1000000, "subgroup": 15625, "subset": 2}
    assert report["doubling"]["K"] == "3/2"


# Z3 with its identity at index 2, alone and in products on either side
Z3_RELABELED = {"type": "table", "table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]], "name": "Z3r"}
RELABELED = [Z3_RELABELED] + [
    {"type": "product", "factors": factors}
    for other in ({"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}, Z3_RELABELED)
    for factors in ([Z3_RELABELED, other], [other, Z3_RELABELED])
]


def test_every_law_has_the_identity_and_inverses_a_search_finds():
    for spec in catalog(weights=("counting",)) + RELABELED:
        group = build_group(spec)
        laws = [group.law] + [quotient(group, sub).quotient.law for sub in normal_subgroups(group)]
        for law in laws:
            assert (law.identity, law.inv) == searched_identity_and_inverses(law.rows), group.name
        assert group.law.points([group.identity]) == [group.law.identity], group.name
    # (2, 0) is the identity of Z3r x Z2, at mixed-radix index 2 * 2 + 0, and under
    # H = {e} the quotient numbers its cosets as the group numbers its elements
    product = build_group(RELABELED[1])
    assert product.law.identity == 4
    assert quotient(product, {(2, 0)}).quotient.identity == 4


def test_every_catalog_quotient_satisfies_the_axioms():
    # quotients are built unchecked, as groups by construction: the check is here
    count = 0
    for spec in catalog() + RELABELED:
        group = build_group(spec)
        for sub in normal_subgroups(group):
            for weight in ("counting", "normalized"):
                groups.validate_axioms(quotient(group, sub, weight).quotient)
                count += 1
    assert count > 8000


def test_quotient_runs_no_table_check(monkeypatch):
    built = [build_group(spec) for spec in catalog(weights=("counting",)) + RELABELED]
    lattices = [(group, normal_subgroups(group)) for group in built]
    calls = Counter()
    for name in ("_light_test", "validate_axioms"):
        real = getattr(groups, name)

        def counted_check(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(groups, name, counted_check)
    init = TableGroup.__init__

    def counted(self, table, *args, **kwargs):
        calls.update(["law" if isinstance(table, CayleyTable) else "rows from outside"])
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(TableGroup, "__init__", counted)
    quotients = len([quotient(group, sub) for group, subs in lattices for sub in subs])
    assert calls == {"law": quotients}
    # rows from outside are checked; a law is taken as it is, even one no check would pass
    TableGroup(quaternion_table())
    assert calls == {"law": quotients, "rows from outside": 1, "_light_test": 1}
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    # no identity, bools for entries, not associative
    for rows in ([[0, 0], [0, 0]], [[0, True], [True, 0]], loop):
        TableGroup(CayleyTable(rows, None, 0))
        with pytest.raises(ValueError):
            TableGroup(rows)


def test_quotient_checks_no_element_of_a_gsubset_again(monkeypatch):
    built = [build_group(spec) for spec in catalog(weights=("counting",), max_product_order=32)]
    products = [(group, normal_subgroups(group)) for group in built if isinstance(group, ProductGroup)]
    calls = []
    contains = ProductGroup.contains
    monkeypatch.setattr(ProductGroup, "contains", lambda self, x: calls.append(x) or contains(self, x))
    quotients = [quotient(group, sub) for group, subs in products for sub in subs]
    assert len(quotients) > 100 and calls == []
    # a plain iterable is still checked, element by element
    group, subs = products[0]
    assert quotient(group, sorted(subs[-1].elements)).quotient.order == 1
    assert len(calls) == group.order
    with pytest.raises(ValueError, match="is not an element of"):
        quotient(group, [*subs[0].elements, (0, 99)])


def test_replay_decodes_each_subgroup_element_once(monkeypatch):
    calls = []
    contains = CyclicGroup.contains
    monkeypatch.setattr(CyclicGroup, "contains", lambda self, x: calls.append(x) or contains(self, x))
    group = CyclicGroup(4096)
    q = quotient_from_description(group, {"elements": list(range(0, 4096, 64)), "weight": "counting"}, "/subgroup")
    assert q.quotient.order == 64 and len(q.subgroup.elements) == 64
    # decoding checked each element: `quotient` checks none of them again
    assert calls == []
    with pytest.raises(SpecError, match=r"^/subgroup/elements/2: expected element index 0\.\.4095, got 4096$"):
        quotient_from_description(group, {"elements": [0, 64, 4096]}, "/subgroup")
