import pytest

from doubling import (
    ConsistencyError,
    CyclicGroup,
    DihedralGroup,
    GSubset,
    containment_check,
    fiber_profile,
    inv_set,
    layer_cake,
    level_family,
    quotient,
    spillover_check,
    subset,
)
from doubling.context import InstanceContext


@pytest.fixture
def z6_mod_h():
    z6 = CyclicGroup(6)
    return z6, quotient(z6, {0, 3})


def test_fiber_one_element_per_coset(z6_mod_h):
    z6, q = z6_mod_h
    prof = fiber_profile(subset(z6, {0, 1}), q)
    assert prof.fibers == {q.project(0): 1, q.project(1): 1}
    assert frozenset(prof.fibers) == {q.project(0), q.project(1)}


def test_fiber_of_subgroup_is_full(z6_mod_h):
    z6, q = z6_mod_h
    prof = fiber_profile(subset(z6, {0, 3}), q)
    assert prof.fibers == {q.project(0): len(q.subgroup.elements) * q.subgroup_weight}


def test_fiber_values_bounded_by_subgroup_measure(z6_mod_h):
    z6, q = z6_mod_h
    prof = fiber_profile(subset(z6, {0, 1, 2, 3, 4}), q)
    for v in prof.fibers.values():
        assert 0 < v <= len(q.subgroup.elements) * q.subgroup_weight


def test_layer_cake_empty(z6_mod_h):
    z6, q = z6_mod_h
    assert layer_cake(GSubset(z6), q) == (0, 0)


def test_layer_cake_mixed_fibers(z6_mod_h):
    z6, q = z6_mod_h
    # fibers 2 and 1: rhs telescopes to 1*2 + 1*1
    lhs, rhs = layer_cake(subset(z6, {0, 1, 3}), q)
    assert lhs == rhs == 3


def test_layer_cake_constant_fiber(z6_mod_h):
    z6, q = z6_mod_h
    a = subset(z6, {0, 3, 1, 4})  # two full cosets
    prof = fiber_profile(a, q)
    values = set(prof.fibers.values())
    assert len(values) == 1
    c = values.pop()
    _, rhs = layer_cake(a, q)
    assert rhs == c * q.coset_subset(prof.fibers).measure


def test_level_family_nested(z6_mod_h):
    z6, q = z6_mod_h
    family = level_family(fiber_profile(subset(z6, {0, 1, 3, 2}), q))
    assert list(family.thresholds) == sorted(family.thresholds)
    for bigger, smaller in zip(family.levels, family.levels[1:]):
        assert smaller.elements <= bigger.elements
    # the lowest level is the whole support
    assert family.levels[0].elements == frozenset(fiber_profile(subset(z6, {0, 1, 3, 2}), q).fibers)


def test_spillover_diagonal(z6_mod_h):
    z6, q = z6_mod_h
    a = subset(z6, {0, 1})
    res = spillover_check(a, a, q)
    assert (res.lhs_left, res.rhs_left, res.rhs_right) == (3, 3, 3)


def test_spillover_with_subgroup_saturated_equality():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    h = subset(z12, {0, 6})
    a = subset(z12, {0, 6, 1, 7})  # union of two cosets
    res = spillover_check(a, h, q)
    assert res.rhs_left == len(q.subgroup.elements) * q.subgroup_weight * q.image(a).measure
    assert res.lhs_left == res.rhs_left  # AH = A for saturated A


def test_spillover_right_form_uses_reversed_product():
    # nonabelian with trivial subgroup: the layered right side equals mu(BA),
    # which can strictly exceed mu(AB)
    d4 = DihedralGroup(4)
    q = quotient(d4, {0})
    a = subset(d4, {0, 1, 2, 7})
    b = subset(d4, {2, 4, 5, 7})
    res = spillover_check(a, b, q)
    assert res.lhs_left == 7 and res.rhs_left == 7
    assert res.lhs_right == 8 and res.rhs_right == 8
    assert res.lhs_right > res.lhs_left


def test_spillover_random_instances_hold():
    import random

    rng = random.Random(5)
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 4, 8})
    for _ in range(200):
        a = subset(z12, rng.sample(range(12), rng.randint(1, 8)))
        b = subset(z12, rng.sample(range(12), rng.randint(1, 8)))
        spillover_check(a, b, q)  # raises on violation


def test_containment_examples(z6_mod_h):
    z6, q = z6_mod_h
    a = subset(z6, {0, 1})
    assert containment_check(a, a, q)
    # A = {e}: level sets contain themselves
    assert containment_check(subset(z6, {0}), subset(z6, {1, 2, 4}), q)


def test_containment_seeded_sweep():
    import random

    rng = random.Random(11)
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    for _ in range(300):
        a = subset(z12, rng.sample(range(12), rng.randint(1, 6)))
        b = subset(z12, rng.sample(range(12), rng.randint(1, 6)))
        assert containment_check(a, b, q)


def test_inverse_profile_mirrors_cosets(z6_mod_h):
    z6, q = z6_mod_h
    a = subset(z6, {0, 1, 2, 4})
    f_a = fiber_profile(a, q).fibers
    f_inv = fiber_profile(inv_set(a), q).fibers
    assert f_inv == {q.quotient.inv(c): v for c, v in f_a.items()}


def test_inverse_levels_are_inverted_sets(z6_mod_h):
    z6, q = z6_mod_h
    a = subset(z6, {0, 1, 2, 4})
    family = level_family(fiber_profile(a, q))
    family_inv = level_family(fiber_profile(inv_set(a), q))
    assert family.thresholds == family_inv.thresholds
    for level, level_inv in zip(family.levels, family_inv.levels):
        assert {q.quotient.inv(c) for c in level.elements} == level_inv.elements


def test_fiber_profile_owner_mismatch(z6_mod_h):
    _, q = z6_mod_h
    other = subset(CyclicGroup(7), {0})
    with pytest.raises(ValueError):
        fiber_profile(other, q)


def test_layer_cake_mismatch_raises(z6_mod_h, monkeypatch):
    import doubling.fibers

    z6, q = z6_mod_h
    a = subset(z6, {0, 1})  # fibers 1 and 1: one level of two cosets

    def drops_a_coset(a, q):
        """A context whose lowest level lacks one coset, so the layered count
        sum falls one short of |A|."""
        ctx = InstanceContext(a, q)
        (n, level, held), *rest = ctx.levels_a
        ctx.levels_a = [(n, frozenset(sorted(level)[1:]), held), *rest]
        return ctx

    monkeypatch.setattr(doubling.fibers, "InstanceContext", drops_a_coset)
    with pytest.raises(ConsistencyError, match="layer-cake identity failed") as info:
        layer_cake(a, q)
    assert info.value.payload == {"lhs": "2/1", "rhs": "1/1", "subset": [0, 1]}
