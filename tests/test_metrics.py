import itertools
import random

import pytest
from fractions import Fraction

from doubling import (
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
    doubling_stats,
    mul_set,
    normal_subgroups,
    quotient,
    quotient_doubling_check,
    ruzsa_sq,
    subset,
)
from oracles import coset_criterion_scan, is_coset_of_subgroup, quaternion_group, translate, triangle_holds


def test_subgroup_has_trivial_doubling():
    z12 = CyclicGroup(12)
    h = subset(z12, {0, 4, 8})
    stats = doubling_stats(h)
    assert stats.K == stats.K2 == 1
    assert stats.symmetric


def test_interval_doubling():
    stats = doubling_stats(subset(CyclicGroup(12), {0, 1, 2}))
    assert stats.K == Fraction(5, 3)


def test_doubling_against_nested_loop_oracle():
    z12 = CyclicGroup(12)
    a = {0, 1, 5}
    sums = set()
    for x in a:
        for y in a:
            sums.add((x + y) % 12)
    diffs = set()
    for x in a:
        for y in a:
            diffs.add((y - x) % 12)  # A^-1 A
    stats = doubling_stats(subset(z12, a))
    assert stats.K == Fraction(len(sums), len(a))
    assert stats.K2 == Fraction(len(diffs), len(a))


def test_doubling_needs_nonempty():
    from doubling import GSubset

    with pytest.raises(ValueError):
        doubling_stats(GSubset(CyclicGroup(3)))


def test_k_at_least_one():
    rng = random.Random(3)
    d4 = DihedralGroup(4)
    for _ in range(100):
        a = subset(d4, rng.sample(range(8), rng.randint(1, 8)))
        stats = doubling_stats(a)
        assert stats.K >= 1 and stats.K2 >= 1


def test_k2_bounded_by_k_squared():
    rng = random.Random(4)
    for g in (CyclicGroup(12), DihedralGroup(4), SymmetricGroup(3), quaternion_group()):
        n = g.order
        for _ in range(200):
            a = subset(g, rng.sample(range(n), rng.randint(1, n)))
            stats = doubling_stats(a)
            assert stats.K2 <= stats.K * stats.K


def test_ruzsa_value_of_subgroup_is_one():
    z12 = CyclicGroup(12)
    h = subset(z12, {0, 6})
    assert ruzsa_sq(h, h).value == 1


def test_ruzsa_left_cosets_of_same_subgroup():
    s3 = SymmetricGroup(3)
    h_elems = next(s for s in normal_subgroups(s3) if len(s) == 3).elements
    h = subset(s3, h_elems)
    a = translate(h, left=1)
    b = translate(h, left=2)
    assert ruzsa_sq(a, b).value == 1


def test_ruzsa_value_example():
    z12 = CyclicGroup(12)
    a = subset(z12, {0, 1, 2})
    b = subset(z12, {0, 6})
    # |A - B| = 6 by direct enumeration
    assert ruzsa_sq(a, b).value == Fraction(36, 6)


def test_ruzsa_symmetry_and_self_bound():
    rng = random.Random(9)
    d4 = DihedralGroup(4)
    for _ in range(100):
        a = subset(d4, rng.sample(range(8), rng.randint(1, 6)))
        b = subset(d4, rng.sample(range(8), rng.randint(1, 6)))
        assert ruzsa_sq(a, b).value == ruzsa_sq(b, a).value
        assert ruzsa_sq(a, a).value >= 1


def test_triangle_with_b_equal_a():
    z12 = CyclicGroup(12)
    a = subset(z12, {0, 2, 5})
    c = subset(z12, {1, 7})
    assert triangle_holds(a, a, c)


def test_triangle_on_cosets_is_equality():
    z12 = CyclicGroup(12)
    h = subset(z12, {0, 4, 8})
    a = translate(h, left=1)
    b = translate(h, left=2)
    c = translate(h, left=3)
    assert ruzsa_sq(a, c).value == 1
    assert triangle_holds(a, b, c)


def test_triangle_random_sweep():
    rng = random.Random(10)
    for g in (CyclicGroup(12), DihedralGroup(4), SymmetricGroup(3)):
        n = g.order
        for _ in range(300):
            a = subset(g, rng.sample(range(n), rng.randint(1, n)))
            b = subset(g, rng.sample(range(n), rng.randint(1, n)))
            c = subset(g, rng.sample(range(n), rng.randint(1, n)))
            assert triangle_holds(a, b, c)


def test_left_translation_invariance_everywhere():
    s3 = SymmetricGroup(3)
    a = subset(s3, {0, 1})
    b = subset(s3, {0, 3})
    base = ruzsa_sq(a, b).value
    for g in range(6):
        for h in range(6):
            moved = ruzsa_sq(translate(a, left=g), translate(b, left=h)).value
            assert moved == base


def test_right_translation_is_not_invariant_nonabelian():
    # regression guard for the convention choice: with numerator mu(A B^-1),
    # right-translating the second argument can change the value in a
    # nonabelian group, so the implemented invariance is left/left
    s3 = SymmetricGroup(3)
    a = subset(s3, {0, 1})
    base = ruzsa_sq(a, a).value
    assert base == 1  # {e, transposition} is a subgroup
    changed = []
    for b_right in range(6):
        moved = ruzsa_sq(a, translate(a, right=b_right)).value
        changed.append(moved != base)
    assert any(changed)


def test_two_sided_translation_invariant_abelian():
    z12 = CyclicGroup(12)
    a = subset(z12, {0, 1, 5})
    b = subset(z12, {2, 3})
    base = ruzsa_sq(a, b).value
    for g in (1, 5, 11):
        for h in (2, 7):
            moved = ruzsa_sq(translate(a, left=g), translate(b, right=h)).value
            assert moved == base


def test_coset_detection():
    z12 = CyclicGroup(12)
    assert is_coset_of_subgroup(z12, frozenset({2, 6, 10}))  # 2 + {0,4,8}
    assert not is_coset_of_subgroup(z12, frozenset({0, 1, 3}))
    s3 = SymmetricGroup(3)
    t = next(i for i in range(1, 6) if s3.op(i, i) == 0)
    assert is_coset_of_subgroup(s3, frozenset({0, t}))


def test_coset_criterion_exhaustive_small():
    for g in (CyclicGroup(6), SymmetricGroup(3), quaternion_group()):
        checked, mismatches = coset_criterion_scan(g)
        assert checked == 2 ** g.order - 1
        assert mismatches == []


def test_quotient_doubling_check_subgroup_union():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    a = subset(z12, {0, 6, 3, 9})  # subgroup, union of H-cosets
    res = quotient_doubling_check(a, q, "symmetric")
    assert res.quotient_doubling == 1
    assert res.passed


def test_quotient_doubling_check_variants_all_pass():
    rng = random.Random(21)
    d4 = DihedralGroup(4)
    q = quotient(d4, {0, 2})
    for _ in range(200):
        a = subset(d4, rng.sample(range(8), rng.randint(1, 8)))
        for variant in ("cube", "two-constant"):
            assert quotient_doubling_check(a, q, variant).passed


def test_quotient_doubling_symmetric_requires_symmetry():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    with pytest.raises(ValueError, match="symmetric"):
        quotient_doubling_check(subset(z12, {1}), q, "symmetric")
    with pytest.raises(ValueError, match="variant"):
        quotient_doubling_check(subset(z12, {0}), q, "nope")


def test_quotient_doubling_exhaustive_symmetric_z12():
    z12 = CyclicGroup(12)
    orbits = [(0,), (6,), (1, 11), (2, 10), (3, 9), (4, 8), (5, 7)]
    for h in normal_subgroups(z12):
        q = quotient(z12, h.elements)
        for mask in range(1, 1 << len(orbits)):
            elems = [x for i, o in enumerate(orbits) if mask >> i & 1 for x in o]
            res = quotient_doubling_check(subset(z12, elems), q, "symmetric")
            assert res.passed


def test_check_sides_are_recomputable():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    a = subset(z12, {0, 1, 2})
    res = quotient_doubling_check(a, q, "cube")
    pi_a = q.image(a)
    assert res.lhs == mul_set(pi_a, pi_a).measure
    assert res.rhs == res.bound * pi_a.measure
    assert res.passed == (res.lhs <= res.rhs)
