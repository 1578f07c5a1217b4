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
    DihedralGroup,
    GSubset,
    MatrixGroup,
    ProductGroup,
    SymmetricGroup,
    build_group,
    build_sharpness_instance,
    catalog,
    closure,
    inv_set,
    mul_set,
    normal_subgroups,
    quotient,
)
from doubling import groups, harness, quotients
from doubling.groups import TABLE_CAP, CayleyTable, OpLaw, WeightedGroup, op_table
from doubling.harness import ScanConfig, evaluate_instance, iter_instance_specs
from oracles import is_normal, is_subgroup, quaternion_group, translate, walked_lattice

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
    subs = walked_lattice(group)[0]
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
    for sub in walked_lattice(group)[0]:
        if not ref_is_normal(group, sub):
            with pytest.raises(ValueError, match="not normal"):
                quotient(group, sub)
            continue
        q = quotient(group, sub)
        proj, table = ref_quotient(group, sub)
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


# -- products on the op path, factor by factor -------------------------------------

MATRICES = [
    (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0),
    (2, 1, 1, 1), (1, 2, 0, 1), (-1, 0, 0, 1), (1, 0, 3, 1), (3, 2, 1, 1),
]
# GL2Z, cyclic groups below and above TABLE_CAP, D4, S3, Q8 and a nested product
FACTORS = [
    MatrixGroup(), CyclicGroup(5), CyclicGroup(100), DihedralGroup(4), SymmetricGroup(3),
    quaternion_group(), ProductGroup([CyclicGroup(2), DihedralGroup(3)]),
]


def elements_of(group):
    if isinstance(group, MatrixGroup):
        return st.sampled_from(MATRICES)
    if isinstance(group, ProductGroup):
        return st.tuples(*map(elements_of, group.factors))
    return st.integers(0, group.order - 1)


@st.composite
def product_and_sides(draw):
    group = ProductGroup(draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4)))
    side = st.lists(elements_of(group), max_size=12)
    return group, draw(side), draw(side)


@settings(max_examples=300, deadline=None)
@given(product_and_sides())
def test_product_groups_multiply_factor_by_factor_as_op_does(case):
    group, xs, ys = case
    law = OpLaw(group)
    # both sides whole, then the one-element shapes `_grow` and `_cosets` pass
    for left, right in ((xs, ys), (xs[:1], ys), (xs, ys[:1])):
        expected = ref_product(group, left, right)
        assert law.product(left, right) == expected
        assert law.product(iter(left), right) == expected


def test_a_factor_above_the_table_bound_multiplies_pair_by_pair(monkeypatch):
    # 100 distinct GL2Z components on each side: 10^4 pairs > TABLE_CAP^2,
    # so that factor runs down its column with one op call per pair
    group = ProductGroup([MatrixGroup(), CyclicGroup(3)])
    lower = [(1, i, 0, 1) if i % 2 else (1, 0, i, 1) for i in range(100)]
    xs = [(w, j) for w in lower for j in (0, 1)]
    ys = [((i + 1, i, 1, 1), i % 3) for i in range(100)]
    assert 100 * 100 > TABLE_CAP * TABLE_CAP
    cases = [(xs, ys, ref_product(group, xs, ys)), (ys, xs, ref_product(group, ys, xs))]
    assert cases[0][2] != cases[1][2]
    calls = []
    big = group.factors[0]
    monkeypatch.setattr(big, "op", lambda a, b, op=big.op: calls.append(1) or op(a, b))
    for left, right, expected in cases:
        calls.clear()
        assert OpLaw(group).product(left, right) == expected
        # a table over the 100 x 100 distinct components would make 10^4 calls
        assert len(calls) == len(left) * len(right) == 20000


def test_the_witness_square_takes_one_table_per_factor(monkeypatch):
    a = build_sharpness_instance(2, 5, 36).subset()
    group = a.owner
    assert isinstance(group.law, OpLaw) and len(group.factors) == 3
    expected = ref_product(group, a.elements, a.elements)
    components = [set(column) for column in zip(*a.elements)]
    calls = [0] * len(group.factors)

    def counted(i, op):
        def wrapped(x, y):
            calls[i] += 1
            return op(x, y)
        return wrapped

    for i, f in enumerate(group.factors):
        monkeypatch.setattr(f, "op", counted(i, f.op))

    def no_product_op(x, y):
        raise AssertionError("ProductGroup.op called on the op path")

    monkeypatch.setattr(group, "op", no_product_op)
    assert mul_set(a, a).elements == expected
    # |U_i| * |V_i| per factor: 5 * 5 + 5 * 5 + 36 * 36 = 1346, against 244^2 pairs
    assert sum(calls) <= sum(len(c) * len(c) for c in components) == 1346


# -- products on the op path, fiber by fiber -----------------------------------------

UNIPOTENTS = [(1, k, 0, 1) for k in range(-60, 61)]  # they commute with each other
LOWER = [(1, 0, k, 1) for k in range(-60, 61)]  # and not with these
# GL2Z with enough matrices to be a last factor whose components pair more
# than TABLE_CAP^2 ways, Z100000 likewise with ints, small kinds and a nested product
FIBER_FACTORS = [
    MatrixGroup(), CyclicGroup(5), CyclicGroup(100000), DihedralGroup(4),
    ProductGroup([CyclicGroup(2), DihedralGroup(3)]),
]
# (prefixes, fiber size) per side: large fibers, then sides either side of the
# entry rule |X||Y| >= 16 (|X| + |Y|) and 16 * prefix pairs <= |X||Y|
SHAPES = [
    ((2, 40), (3, 40)), ((3, 30), (1, 60)),
    ((1, 32), (1, 32)), ((1, 31), (1, 32)),  # the first test at equality, then one short
    ((4, 8), (4, 8)), ((4, 8), (4, 7)),
    ((8, 4), (8, 4)),  # both tests at equality
    ((11, 3), (11, 3)),  # the first test holds, the second fails
]


def pool(group) -> list:
    """Distinct elements to draw fibers and prefixes from."""
    if isinstance(group, MatrixGroup):
        return list(dict.fromkeys(MATRICES + UNIPOTENTS + LOWER))
    if group.order > 1000:
        return list(range(0, group.order, 997))
    return list(group.elements())


def takes_the_fiber_path(xs, ys) -> bool:
    pairs = len(xs) * len(ys)
    prefix_pairs = len({x[:-1] for x in xs}) * len({y[:-1] for y in ys})
    return pairs >= 16 * (len(xs) + len(ys)) and 16 * prefix_pairs <= pairs


@st.composite
def fibered_side(draw, group, shape):
    """A union of fibers over distinct prefixes, as many as `shape` asks where the pools allow."""
    *heads, last = group.factors
    prefixes, size = shape
    prefix = st.tuples(*[st.sampled_from(pool(f)) for f in heads])
    limit = 1
    for f in heads:
        limit *= len(pool(f))
    chosen = draw(st.lists(prefix, min_size=min(prefixes, limit), max_size=min(prefixes, limit), unique=True))
    size = min(size, len(pool(last)))
    fiber = st.lists(st.sampled_from(pool(last)), min_size=size, max_size=size, unique=True)
    return [(*p, w) for p in chosen for w in draw(fiber)]


@st.composite
def product_and_fibered_sides(draw):
    group = ProductGroup(draw(st.lists(st.sampled_from(FIBER_FACTORS), min_size=1, max_size=3)))
    left, right = draw(st.sampled_from(SHAPES))
    return group, draw(fibered_side(group, left)), draw(fibered_side(group, right))


def spy_on_the_fiber_path(monkeypatch) -> list:
    taken = []
    real = groups._product_by_fiber
    monkeypatch.setattr(groups, "_product_by_fiber", lambda *args: taken.append(1) or real(*args))
    return taken


@settings(max_examples=150, deadline=None)
@given(product_and_fibered_sides())
def test_fibered_sides_multiply_as_op_does(case):
    group, xs, ys = case
    law = OpLaw(group)
    with pytest.MonkeyPatch.context() as monkeypatch:
        taken = spy_on_the_fiber_path(monkeypatch)
        for left, right in ((xs, ys), (ys, xs), (xs[:1], ys), (xs, ys[:1]), ([], ys), (xs, [])):
            taken.clear()
            assert law.product(left, right) == ref_product(group, left, right)
            assert bool(taken) == (bool(left) and bool(right) and takes_the_fiber_path(left, right))


S5 = [(0, 0), (1, 1), (4, 3)]  # prefixes of Z5 x Z5
FIBER_CASES = {
    # GL2Z as a prefix factor, over Z36 residues
    "gl2z-prefix": ([MatrixGroup(), CyclicGroup(36)],
                    [(m, r) for m in MATRICES[:3] for r in range(30)],
                    [(m, r) for m in MATRICES[3:6] for r in range(6, 36)]),
    # GL2Z last: 80 x 80 distinct matrices, above TABLE_CAP^2, multiplied pair by pair
    "gl2z-last": ([CyclicGroup(5), MatrixGroup()],
                  [(h, m) for h in (0, 2) for m in UNIPOTENTS[h * 40:h * 40 + 40]],
                  [(h, m) for h in (1, 3) for m in LOWER[h * 20:h * 20 + 40]]),
    # Z100000 last: 100 x 100 distinct residues, above TABLE_CAP^2
    "wide-last": ([CyclicGroup(5), CyclicGroup(5), CyclicGroup(100000)],
                  [(*p, 997 * k + p[0]) for p in S5 for k in range(100)],
                  [(*p, 31 * k) for p in S5[:2] for k in range(100)]),
    # a nested product as a prefix factor and as the last factor
    "nested-prefix": ([ProductGroup([CyclicGroup(2), DihedralGroup(3)]), CyclicGroup(100)],
                      [((i, j), r) for i, j in ((0, 1), (1, 4)) for r in range(0, 100, 3)],
                      [((1, 5), r) for r in range(50)]),
    "nested-last": ([MatrixGroup(), ProductGroup([CyclicGroup(2), DihedralGroup(4)])],
                    [(m, (i, j)) for m in MATRICES[:2] for i in range(2) for j in range(8)],
                    [(m, (i, j)) for m in MATRICES[4:6] for i in range(2) for j in range(8)]),
}


@pytest.mark.parametrize("factors, xs, ys", FIBER_CASES.values(), ids=FIBER_CASES.keys())
def test_the_fiber_path_multiplies_as_op_does(monkeypatch, factors, xs, ys):
    group = ProductGroup(factors)
    assert takes_the_fiber_path(xs, ys) and takes_the_fiber_path(ys, xs)
    taken = spy_on_the_fiber_path(monkeypatch)
    for left, right in ((xs, ys), (ys, xs)):
        assert OpLaw(group).product(left, right) == ref_product(group, left, right)
    assert len(taken) == 2


def test_the_witness_square_takes_the_fiber_path_and_a_grow_step_does_not(monkeypatch):
    a = build_sharpness_instance(2, 5, 36).subset()
    group, xs = a.owner, list(a.elements)
    taken = spy_on_the_fiber_path(monkeypatch)
    assert mul_set(a, a).elements == ref_product(group, xs, xs)
    assert len(taken) == 1
    # `_grow` multiplies what it reached by one element at a time
    assert group.law.product(xs, [xs[7]]) == ref_product(group, xs, [xs[7]])
    assert len(taken) == 1


@pytest.mark.parametrize("group, sub", [
    (CyclicGroup(4096), frozenset(range(0, 4096, 64))),
    (DihedralGroup(40), frozenset(range(0, 40, 4))),
    (DihedralGroup(40), frozenset([0, 40])),  # {e, s}: not normal
    (SymmetricGroup(5), closure(SymmetricGroup(5), [3, 30])),  # A5, two generators
    (SymmetricGroup(5), closure(SymmetricGroup(5), [6, 13])),  # order 24: not normal
    (SymmetricGroup(5), closure(SymmetricGroup(5), [3, 8])),  # order 12: not normal
], ids=["Z4096-by-64Z", "D40-by-rot4", "D40-e-s", "S5-A5", "S5-order-24", "S5-order-12"])
def test_the_coset_walk_stopping_at_cover_matches_the_full_walk(group, sub):
    assert isinstance(group.law, OpLaw)
    assert is_subgroup(group, sub)
    normal = ref_is_normal(group, sub)
    assert is_normal(group, sub) == normal
    if not normal:
        with pytest.raises(ValueError, match="not normal"):
            quotient(group, sub)
        return
    q = quotient(group, sub)
    proj, table = ref_quotient(group, sub)
    assert {x: q.project(x) for x in group.elements()} == proj
    assert q.quotient.table == table


def test_the_coset_walk_forms_left_cosets_alone(monkeypatch):
    """Per coset, |H| products form gH, and the normality test conjugates the
    generators of H by its representative, two products each: about half the
    2 |H| of comparing gH with Hg."""
    group, sub = CyclicGroup(4096), frozenset(range(0, 4096, 64))
    calls, seen, op = [], [], CyclicGroup.op

    def counted(walk):
        def wrapped(*args):
            seen.append(args)
            with monkeypatch.context() as patch:
                patch.setattr(CyclicGroup, "op", lambda self, x, y: calls.append(1) or op(self, x, y))
                return walk(*args)
        return wrapped

    for name in ("_cosets", "_conjugates_into"):
        monkeypatch.setattr(quotients, name, counted(getattr(quotients, name)))
    quotient(group, sub)
    # the walk, then the test on the generators `_grow` picked (at most
    # log2 |H| = 6 of them) and the 64 representatives the walk chose
    (_, h, _), (_, _, gens, reps) = seen
    assert len(h) == 64 and len(reps) == 64
    assert 1 <= len(gens) <= 6 and set(gens) <= sub
    assert len(calls) == 64 * (64 + 2 * len(gens)) <= 64 * (64 + 12)


def test_a_scan_tests_no_normality_and_replay_tests_it_once(monkeypatch):
    # the lattice builds normal subgroups only, and a scan builds their
    # quotients with neither the subgroup walk nor a normality test, while a
    # replayed id's subgroup comes from outside and is checked in full
    config = ScanConfig(SUITE_GROUPS, {"kind": "random", "count": 2, "seed": 5})
    calls = {"_generators": 0, "_conjugates_into": 0}

    def counted(name, original):
        def wrapped(*args):
            calls[name] += 1
            return original(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(quotients, name, counted(name, getattr(quotients, name)))
    ids = iter_instance_specs(config)
    report = harness.scan(config)
    assert report["aggregate"]["instances"] == len(ids) > 0
    assert calls == {"_generators": 0, "_conjugates_into": 0}
    calls.update(dict.fromkeys(calls, 0))
    evaluate_instance(ids[-1])
    assert calls["_generators"] >= 1 and calls["_conjugates_into"] == 1


# -- every suite, table path against op path --------------------------------------

S3_X_Z2 = {"type": "product", "factors": [{"type": "symmetric", "n": 3}, {"type": "cyclic", "n": 2}]}
SUITE_GROUPS = ["dihedral:4", "q8", S3_X_Z2, "symmetric:4"]


def _all_suite_reports() -> list[dict]:
    """Every suite on all singletons and on seeded random subsets, per normal subgroup."""
    ids = []
    for mode in ({"kind": "exhaustive", "max_size": 1}, {"kind": "random", "count": 3, "seed": 11}):
        ids += iter_instance_specs(ScanConfig(groups=SUITE_GROUPS, subset_mode=mode))
    return [evaluate_instance(i).to_json() for i in ids]


def test_every_suite_reports_the_same_on_the_op_path(monkeypatch):
    on_tables = _all_suite_reports()
    with monkeypatch.context() as patch:
        patch.setattr(WeightedGroup, "law", property(OpLaw))
        assert isinstance(build_group({"type": "symmetric", "n": 4}).law, OpLaw)
        on_op = _all_suite_reports()
    assert len(on_tables) > 300
    assert {name for r in on_tables for name in r["suites"]} == set(harness.ALL_SUITES)
    assert on_op == on_tables
