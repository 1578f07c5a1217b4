import pytest
from fractions import Fraction

from doubling import (
    CyclicGroup,
    MatrixGroup,
    inv_set,
    mul_set,
    quotient,
    subset,
)
from doubling.context import SubsetContext
from oracles import translate


def test_interval_sumset():
    z6 = CyclicGroup(6)
    a = subset(z6, {0, 1})
    ab = mul_set(a, a)
    assert ab.elements == {0, 1, 2}
    assert ab.measure == 3


def test_full_group_absorbs():
    z6 = CyclicGroup(6)
    full = subset(z6, range(6))
    tiny = subset(z6, {4})
    assert mul_set(full, tiny).elements == set(range(6))
    assert mul_set(tiny, full).elements == set(range(6))


def test_matrix_products_five_distinct():
    g = MatrixGroup()
    m1 = (0, 1, 1, 2)
    m1_inv = g.inv(m1)
    a = subset(g, {g.identity, m1, m1_inv})
    sq = mul_set(a, a)
    # oracle: the five matrices written out by hand
    expected = {
        (1, 0, 0, 1),
        m1,
        m1_inv,
        (1, 2, 2, 5),    # m1 * m1
        (5, -2, -2, 1),  # m1_inv * m1_inv
    }
    assert sq.elements == expected
    assert len(sq) == 5


def test_inverse_set_examples():
    z6 = CyclicGroup(6)
    assert inv_set(subset(z6, {1, 2})).elements == {5, 4}
    g = MatrixGroup()
    assert inv_set(subset(g, {(0, 1, 1, 2)})).elements == {(-2, 1, 1, 0)}


def test_inverse_involution_preserves_measure():
    z6 = CyclicGroup(6, "normalized")
    a = subset(z6, {1, 2, 3})
    assert inv_set(inv_set(a)).elements == a.elements
    assert inv_set(a).measure == a.measure == Fraction(1, 2)


def test_symmetric_set_is_own_inverse():
    z6 = CyclicGroup(6)
    a = subset(z6, {0, 1, 5})
    assert SubsetContext(a).symmetric
    assert inv_set(a).elements == a.elements
    assert not SubsetContext(subset(z6, {1})).symmetric


def test_owner_mismatch_rejected():
    a = subset(CyclicGroup(6), {0})
    b = subset(CyclicGroup(7), {0})
    with pytest.raises(ValueError, match="different groups"):
        mul_set(a, b)


def test_owners_of_one_signature_and_different_fraction_weights_are_different_groups():
    half, third = CyclicGroup(4, Fraction(1, 2)), CyclicGroup(4, Fraction(1, 3))
    # a Fraction weight is not in the spec, so the two share a signature
    assert half.signature == third.signature
    with pytest.raises(ValueError, match="different groups"):
        mul_set(subset(half, {1}), subset(third, {1}))
    assert mul_set(subset(half, {1}), subset(CyclicGroup(4, Fraction(1, 2)), {1})).elements == {2}
    # the quotients of Z4 by {0, 2} under the counting and the normalized subgroup weight
    z4 = CyclicGroup(4)
    by_count, by_mass = quotient(z4, {0, 2}, "counting"), quotient(z4, {0, 2}, "normalized")
    assert by_count.quotient.signature == by_mass.quotient.signature
    assert (by_count.quotient.weight, by_mass.quotient.weight) == (1, 2)
    with pytest.raises(ValueError, match="different groups"):
        mul_set(by_count.image(subset(z4, {1})), by_mass.image(subset(z4, {1})))


def test_subset_validates_membership():
    with pytest.raises(ValueError):
        subset(CyclicGroup(6), {7})


def test_diff_set_and_translate():
    z12 = CyclicGroup(12)
    a = subset(z12, {0, 1, 2})
    b = subset(z12, {0, 6})
    assert mul_set(a, inv_set(b)).elements == {0, 1, 2, 6, 7, 8}
    assert translate(a, left=3).elements == {3, 4, 5}
    assert translate(a, right=11).elements == {11, 0, 1}


def test_measure_is_count_times_weight():
    g = CyclicGroup(10, "normalized")
    a = subset(g, {0, 3, 7})
    assert a.measure == Fraction(3, 10)


def test_decode_subset_validation():
    from doubling import SpecError, decode_subset

    z6 = CyclicGroup(6)
    assert decode_subset(z6, {"elements": [1, 4]}).elements == {1, 4}
    with pytest.raises(SpecError):
        decode_subset(z6, [1, 4])
    with pytest.raises(SpecError):
        decode_subset(z6, {"elements": [1], "extra": 0})
    with pytest.raises(SpecError) as err:
        decode_subset(z6, {"elements": [1, 9]})
    assert err.value.path == "/elements/1"
