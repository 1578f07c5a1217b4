import itertools
import re

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from doubling import (
    CapError,
    CyclicGroup,
    DihedralGroup,
    MatrixGroup,
    ProductGroup,
    SpecError,
    SymmetricGroup,
    TableGroup,
    build_group,
    catalog,
    validate_axioms,
)
from doubling.groups import CayleyTable, _IndexedGroup, _associative_at, _grow, op_table
from oracles import quaternion_group


def test_cyclic_counting_measure():
    g = CyclicGroup(6)
    assert g.order * g.weight == 6
    assert g.weight == 1


def test_cyclic_normalized_measure():
    g = CyclicGroup(6, "normalized")
    assert g.weight == Fraction(1, 6)
    assert g.order * g.weight == 1


def test_cyclic_law():
    g = CyclicGroup(6)
    assert g.op(4, 5) == 3
    assert g.inv(2) == 4
    assert g.identity == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_dihedral_axioms(n):
    validate_axioms(DihedralGroup(n))


def test_dihedral_order_convention():
    # parameter is the polygon; D4 is the square's symmetry group, order 8
    assert DihedralGroup(4).order == 8
    d = DihedralGroup(4)
    # reflections are involutions
    for k in range(4, 8):
        assert d.op(k, k) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_axioms(n):
    validate_axioms(SymmetricGroup(n))


def test_symmetric_orders():
    assert SymmetricGroup(4).order == 24
    assert SymmetricGroup(5).order == 120
    with pytest.raises(CapError):
        SymmetricGroup(6)


def test_symmetric_composition_matches_permutations():
    g = SymmetricGroup(3)
    for a in range(6):
        for b in range(6):
            p, q = g.perms[a], g.perms[b]
            composed = tuple(p[q[i]] for i in range(3))
            assert g.perms[g.op(a, b)] == composed


def test_quaternion_group():
    q8 = quaternion_group()
    assert q8.order == 8
    validate_axioms(q8)
    # i^2 = j^2 = k^2 = -1, and exactly one element of order 2
    assert q8.op(2, 2) == 1
    assert q8.op(4, 4) == 1
    assert q8.op(6, 6) == 1
    assert sum(1 for a in range(8) if a != 0 and q8.op(a, a) == 0) == 1


def test_table_group_rejects_broken_tables():
    # a monoid whose identity is 1; 0 is idempotent but no identity
    with pytest.raises(ValueError, match="^element 0 has no inverse$"):
        TableGroup([[0, 0], [0, 1]])
    for table in ([[1, 0], [1, 0]], [[1, 1], [1, 0]]):
        with pytest.raises(ValueError, match="^table has no identity element$"):
            TableGroup(table)
    # associative magma with identity but missing inverses
    with pytest.raises(ValueError, match="^element 1 has no inverse$"):
        TableGroup([[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    # order-5 loop: identity and two-sided inverses, but (1*1)*2 != 1*(1*2)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    first = next(
        (a, b, c)
        for a, b, c in itertools.product(range(5), repeat=3)
        if loop[loop[a][b]][c] != loop[a][loop[b][c]]
    )
    message = "non-associative operation at (%d,%d,%d)" % first
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        TableGroup(loop)


def test_true_is_never_a_group_parameter():
    for cls in (CyclicGroup, DihedralGroup, SymmetricGroup):
        with pytest.raises(ValueError):
            cls(True)
    with pytest.raises(SpecError) as err:
        TableGroup([[0, True], [True, 0]])
    assert err.value.path == "/table/0"


def test_product_group_componentwise():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(4)])
    assert g.order == 8
    assert g.op((1, 3), (1, 2)) == (0, 1)
    assert g.inv((1, 3)) == (1, 1)
    assert g.weight == 1
    validate_axioms(g)


def test_product_weight_multiplies():
    g = ProductGroup([CyclicGroup(2, "normalized"), CyclicGroup(4, "counting")])
    assert g.weight == Fraction(1, 2)


def test_matrix_group_basics():
    g = MatrixGroup()
    m1 = (0, 1, 1, 2)
    assert m1[0] * m1[3] - m1[1] * m1[2] == -1
    assert g.inv(m1) == (-2, 1, 1, 0)
    assert g.op(m1, g.inv(m1)) == g.identity
    assert g.contains(m1)
    assert not g.contains((1, 0, 0, 2))  # det 2
    with pytest.raises(ValueError):
        list(g.elements())


def test_build_group_specs():
    assert build_group({"type": "cyclic", "n": 6, "weight": "counting"}).order == 6
    assert build_group({"type": "dihedral", "n": 8}).order == 16
    assert build_group({"type": "gl2z"}).order is None
    g = build_group(
        {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 3}]}
    )
    assert g.order == 6


def test_build_group_error_paths():
    with pytest.raises(SpecError) as err:
        build_group({"type": "nope"})
    assert err.value.path == "/type"
    with pytest.raises(SpecError) as err:
        build_group({"type": "cyclic", "n": -1})
    assert err.value.path == "/n"
    with pytest.raises(SpecError) as err:
        build_group({"type": "cyclic", "n": 4, "weight": "uniform"})
    assert err.value.path == "/weight"
    with pytest.raises(SpecError) as err:
        build_group({"type": "cyclic", "n": 4, "extra": True})
    assert err.value.path == "/extra"
    with pytest.raises(SpecError) as err:
        build_group(
            {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic"}]}
        )
    assert err.value.path == "/factors/1/n"


def test_spec_round_trip():
    specs = [
        {"type": "cyclic", "n": 6, "weight": "normalized"},
        {"type": "dihedral", "n": 4, "weight": "counting"},
        {
            "type": "product",
            "factors": [
                {"type": "cyclic", "n": 2, "weight": "counting"},
                {"type": "symmetric", "n": 3, "weight": "counting"},
            ],
        },
    ]
    for spec in specs:
        g = build_group(spec)
        again = build_group(g.spec())
        assert again.spec() == g.spec()
        assert again.weight == g.weight


def test_element_encoding_round_trip():
    g = ProductGroup([CyclicGroup(2), MatrixGroup()])
    x = (1, (0, 1, 1, 2))
    assert g.decode_element(g.encode_element(x)) == x
    with pytest.raises(SpecError) as err:
        g.decode_element([1, [[1, 0], [0, 2]]])
    assert "/1" in err.value.path


def test_canonical_element_order():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(3)])
    elems = list(g.elements())
    assert elems == sorted(elems)
    assert elems[0] == (0, 0)


def _first_nonassociative(t):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or None."""
    return next(
        (abc for abc in itertools.product(range(len(t)), repeat=3)
         if t[t[abc[0]][abc[1]]][abc[2]] != t[abc[0]][t[abc[1]][abc[2]]]),
        None,
    )


def _walk_generators(t, e):
    """The generators `_grow` picks on its walk from e over every element of
    the table t, as `_light_test` takes them."""
    gens = []
    _grow(CayleyTable(t, None, e), {e}, gens, range(len(t)))
    return gens


def test_light_test_agrees_with_the_full_scan_on_every_catalog_group():
    for spec in catalog(weights=("counting",)):
        group = build_group(spec)
        if group.order < 2:
            continue
        _, index, t = op_table(group)
        gens = _walk_generators(t, index[group.identity])
        # greedy generators of a group: each one at least doubles the subgroup reached
        assert 2 ** len(gens) <= group.order, group.name
        assert _associative_at(t, gens) and _associative_at(t, range(group.order)), group.name


@st.composite
def loops(draw):
    """A group table with entries of non-identity rows swapped, away from the
    identity's row, column and every entry equal to it: the identity and
    inverse laws still hold, associativity usually not."""
    n = draw(st.integers(3, 10))
    group = draw(st.sampled_from([CyclicGroup(n), DihedralGroup(max(2, n // 2))]))
    t = op_table(group)[2]
    n = len(t)
    for _ in range(draw(st.integers(0, 4))):
        a, b1, b2 = (draw(st.integers(1, n - 1)) for _ in range(3))
        if 0 not in (t[a][b1], t[a][b2]):
            t[a][b1], t[a][b2] = t[a][b2], t[a][b1]
    return t


@settings(max_examples=200, deadline=None)
@given(loops())
def test_light_test_agrees_with_the_full_scan_on_broken_tables(t):
    gens = _walk_generators(t, 0)
    first = _first_nonassociative(t)
    assert _associative_at(t, gens) is (first is None)
    assert _associative_at(t, range(len(t))) is (first is None)
    if first is None:
        TableGroup(t)
    else:
        message = "non-associative operation at (%d,%d,%d)" % first
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            TableGroup(t)


class OpTable(_IndexedGroup):
    """A table read through `op`, with a given identity and inverses, and no
    check of its own: the op-path reference for a broken table group."""

    kind = "op-table"

    def __init__(self, table, identity, inverses) -> None:
        self.rows, self.e, self.inverses = table, identity, inverses
        super().__init__("op-table", len(table))

    def op(self, a, b):
        return self.rows[a][b]

    def inv(self, a):
        return self.inverses[a]

    @property
    def identity(self):
        return self.e


@st.composite
def broken_tables(draw):
    """(a group table, the same table with swapped and overwritten entries)."""
    n = draw(st.integers(3, 10))
    group = draw(st.sampled_from([CyclicGroup(n), DihedralGroup(max(2, n // 2))]))
    base = op_table(group)[2]
    n = len(base)
    t = [list(row) for row in base]
    for _ in range(draw(st.integers(0, 3))):
        a, b1, b2 = (draw(st.integers(0, n - 1)) for _ in range(3))
        t[a][b1], t[a][b2] = t[a][b2], t[a][b1]
    for _ in range(draw(st.integers(0, 1))):
        t[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return base, t


def _failure(check, group):
    try:
        check(group)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(broken_tables())
def test_validate_axioms_reads_a_table_group_table_with_the_op_path_verdict(tables):
    base, t = tables
    group = TableGroup(base)
    # break the table after it was built and checked; identity and inverses stay
    group.table[:] = t
    reference = OpTable(t, group.identity, [group.inv(a) for a in range(len(t))])
    expected = _failure(validate_axioms, reference)
    assert _failure(validate_axioms, group) == expected
    # the same first failing triple, identity or inverse as the op path
    first = _first_nonassociative(t)
    if expected is not None and expected.startswith("non-associative"):
        assert expected == "non-associative operation at (%d,%d,%d)" % first


def test_table_generators_reach_every_element_by_left_nested_products():
    t = op_table(SymmetricGroup(4))[2]
    gens = _walk_generators(t, 0)
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {t[x][g] for x in frontier for g in gens} - reached
        reached |= frontier
    assert reached == set(range(24)) and len(gens) <= 4
