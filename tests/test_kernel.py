"""The Cayley-table kernel against references written here with `group.op`.

Every finite group of order <= TABLE_CAP runs its set algorithms on integer
indices through its Cayley table; the functions below recompute the same
results one `op` call at a time, the way the package did before the kernel.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from doubling import (
    CyclicGroup,
    GSubset,
    MatrixGroup,
    ProductGroup,
    SymmetricGroup,
    all_subgroups,
    build_group,
    catalog,
    closure,
    inv_set,
    mul_set,
    normal_subgroups,
    quotient,
    translate,
)
from doubling import harness, quotients
from doubling.groups import TABLE_CAP, CayleyTable, OpLaw, WeightedGroup, op_table
from doubling.harness import ScanConfig, evaluate_instance, iter_instance_specs
from doubling.quotients import is_normal, is_subgroup

GROUPS = [build_group(spec) for spec in catalog(weights=("counting",))]
SMALL = [g for g in GROUPS if g.order <= 12]


def test_catalog_reaches_the_cap_with_s4_and_the_q8_products():
    names = {g.name for g in GROUPS}
    assert {"S4", "Z2xS4", "Z4xQ8", "D4xQ8", "Q8xQ8"} <= names
    assert max(g.order for g in GROUPS) == TABLE_CAP
    assert all(isinstance(g.law, CayleyTable) for g in GROUPS)


# -- references through op ----------------------------------------------------


def ref_product(group, xs, ys) -> frozenset:
    return frozenset(group.op(x, y) for x in xs for y in ys)


def ref_closure(group, seed) -> frozenset:
    out = {group.identity, *seed}
    while True:
        grown = out | ref_product(group, out, out)
        if grown == out:
            return frozenset(out)
        out = grown


def ref_is_normal(group, sub) -> bool:
    return all(group.op(group.op(g, h), group.inv(g)) in sub for g in group.elements() for h in sub)


def ref_subgroups(group) -> set:
    e, rest = group.identity, [x for x in group.elements() if x != group.identity]
    found = set()
    for mask in range(1 << len(rest)):
        sub = frozenset([e] + [x for i, x in enumerate(rest) if mask >> i & 1])
        if all(group.op(x, y) in sub for x in sub for y in sub):
            found.add(sub)
    return found


def ref_quotient(group, sub) -> tuple[dict, list]:
    """Coset ids in order of first appearance, and the coset table."""
    proj: dict = {}
    reps: list = []
    for x in group.elements():
        if x not in proj:
            for h in sub:
                proj[group.op(x, h)] = len(reps)
            reps.append(x)
    return proj, [[proj[group.op(r, s)] for s in reps] for r in reps]


# -- the tables -----------------------------------------------------------------


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_table_equals_the_one_built_with_op(group):
    elems, _, rows = op_table(group)
    law = group.law
    assert law.rows == rows
    assert [law.elements[i] if law.elements else i for i in range(group.order)] == elems
    assert law.identity == elems.index(group.identity)
    assert law.inv == [elems.index(group.inv(x)) for x in elems]


def test_indexed_kinds_index_through_their_handles():
    for group in GROUPS:
        assert (group.law.elements is None) == (group.kind != "product"), group.name


# -- product and inverse sets ------------------------------------------------------


@st.composite
def group_and_subsets(draw):
    group = draw(st.sampled_from(GROUPS))
    elems = list(group.elements())
    pick = st.frozensets(st.sampled_from(elems), min_size=1, max_size=len(elems))
    return group, draw(pick), draw(pick)


@settings(max_examples=300, deadline=None)
@given(group_and_subsets())
def test_mul_set_and_inv_set_match_op(case):
    group, xs, ys = case
    a, b = GSubset(group, xs), GSubset(group, ys)
    assert mul_set(a, b).elements == ref_product(group, xs, ys)
    assert inv_set(a).elements == frozenset(group.inv(x) for x in xs)
    g = next(iter(ys))
    assert translate(a, left=g, right=g).elements == ref_product(group, ref_product(group, [g], xs), [g])


# -- subgroups --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(group_and_subsets())
def test_closure_matches_op(case):
    group, seed, _ = case
    assert closure(group, seed) == ref_closure(group, seed)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: g.name)
def test_lattice_matches_brute_force(group):
    brute = ref_subgroups(group)
    subs = all_subgroups(group)
    assert set(subs) == brute and len(subs) == len(brute)
    assert [len(s) for s in subs] == sorted(len(s) for s in subs)
    normals = [s.elements for s in normal_subgroups(group)]
    assert normals == [s for s in subs if ref_is_normal(group, s)]
    for sub in brute:
        assert is_subgroup(group, sub)
        assert is_normal(group, sub) == ref_is_normal(group, sub)


@pytest.mark.parametrize("group", [g for g in GROUPS if g.order <= 32 or g.name in ("Z2xS4", "Q8xQ8")],
                         ids=lambda g: g.name)
def test_quotient_coset_table_and_projection_match_op(group):
    for sub in normal_subgroups(group):
        q = quotient(group, sub)
        proj, table = ref_quotient(group, sub.elements)
        assert {x: q.project(x) for x in group.elements()} == proj
        assert q.quotient.table == table


# -- the op path ----------------------------------------------------------------------


def test_groups_without_a_table_multiply_through_op():
    gl = ProductGroup([MatrixGroup(), CyclicGroup(3)])
    big = ProductGroup([CyclicGroup(8), SymmetricGroup(3), CyclicGroup(2)])  # order 96
    assert isinstance(gl.law, OpLaw) and isinstance(big.law, OpLaw)
    s = ((0, 1, 1, 0), 1)
    t = ((1, 1, 0, 1), 2)
    a = GSubset(gl, frozenset([s, t, gl.identity]))
    assert mul_set(a, a).elements == ref_product(gl, a.elements, a.elements)
    assert inv_set(a).elements == frozenset(gl.inv(x) for x in a.elements)
    assert closure(gl, [s]) == ref_closure(gl, [s])
    assert len(closure(gl, [s])) == 6
    for seed in ([(1, 1, 0)], [(2, 3, 1), (4, 0, 0)]):
        assert closure(big, seed) == ref_closure(big, seed)
    sub = closure(big, [(4, 0, 0), (0, 3, 0)])
    assert is_normal(big, sub) == ref_is_normal(big, sub)
    q = quotient(big, sub)
    proj, table = ref_quotient(big, sub)
    assert {x: q.project(x) for x in big.elements()} == proj
    assert q.quotient.table == table


def test_is_subgroup_rejects_what_op_rejects():
    for group in SMALL:
        for combo in itertools.islice(itertools.combinations(group.elements(), 3), 40):
            sub = frozenset(combo)
            expected = group.identity in sub and ref_product(group, sub, sub) <= sub
            assert is_subgroup(group, sub) == expected


# -- every suite, table path against op path --------------------------------------

S3_X_Z2 = {"type": "product", "factors": [{"type": "symmetric", "n": 3}, {"type": "cyclic", "n": 2}]}
SUITE_GROUPS = ["dihedral:4", "q8", S3_X_Z2, "symmetric:4"]


def _clear_caches() -> None:
    harness._group.cache_clear()
    harness._quotient.cache_clear()
    quotients._cached_lattice.cache_clear()


def _all_suite_reports() -> list[dict]:
    """Every suite on all singletons and on seeded random subsets, per normal subgroup."""
    ids = []
    for mode in ({"kind": "exhaustive", "max_size": 1}, {"kind": "random", "count": 3, "seed": 11}):
        ids += iter_instance_specs(ScanConfig(groups=SUITE_GROUPS, subset_mode=mode))
    return [evaluate_instance(i) for i in ids]


def test_every_suite_reports_the_same_on_the_op_path(monkeypatch):
    _clear_caches()
    try:
        on_tables = _all_suite_reports()
        with monkeypatch.context() as patch:
            patch.setattr(WeightedGroup, "law", property(OpLaw))
            _clear_caches()
            assert isinstance(build_group({"type": "symmetric", "n": 4}).law, OpLaw)
            on_op = _all_suite_reports()
    finally:
        _clear_caches()
    assert len(on_tables) > 300
    assert {name for r in on_tables for name in r["suites"]} == set(harness.ALL_SUITES)
    assert on_op == on_tables
