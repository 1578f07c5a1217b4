"""Property-based checks of the exact identities and inequalities."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from doubling import (
    CyclicGroup,
    DihedralGroup,
    GSubset,
    SymmetricGroup,
    containment_check,
    doubling_stats,
    inv_set,
    layer_cake,
    mul_set,
    normal_subgroups,
    quotient,
    ruzsa_sq,
    spillover_check,
    extract_subset,
)
from doubling.rationals import fmt, parse
from oracles import quaternion_group, triangle_holds

GROUPS = [
    CyclicGroup(6),
    CyclicGroup(8),
    CyclicGroup(12),
    DihedralGroup(3),
    DihedralGroup(4),
    SymmetricGroup(3),
    quaternion_group(),
]
NORMALS = [normal_subgroups(g) for g in GROUPS]


def pick_subset(group, mask):
    elems = frozenset(i for i in range(group.order) if mask >> i & 1)
    return GSubset(group, elems)


group_idx = st.integers(min_value=0, max_value=len(GROUPS) - 1)


def mask_for(idx):
    return st.integers(min_value=1, max_value=2 ** GROUPS[idx].order - 1)


@st.composite
def instance(draw, subsets=1):
    idx = draw(group_idx)
    group = GROUPS[idx]
    subs = NORMALS[idx]
    h = subs[draw(st.integers(min_value=0, max_value=len(subs) - 1))]
    picked = [pick_subset(group, draw(mask_for(idx))) for _ in range(subsets)]
    return group, h, picked


@given(instance(subsets=2))
def test_product_set_size_bounds(data):
    _, _, (a, b) = data
    ab = mul_set(a, b)
    assert len(ab) <= len(a) * len(b)
    assert len(ab) >= max(len(a), len(b))


@given(instance(subsets=1))
def test_inverse_is_involution(data):
    _, _, (a,) = data
    assert inv_set(inv_set(a)).elements == a.elements
    assert inv_set(a).measure == a.measure


@given(instance(subsets=2))
def test_projection_is_homomorphic_on_sets(data):
    group, h, (a, b) = data
    q = quotient(group, h.elements)
    assert q.image(mul_set(a, b)).elements == mul_set(q.image(a), q.image(b)).elements


@given(instance(subsets=1))
def test_layer_cake_identity(data):
    group, h, (a,) = data
    q = quotient(group, h.elements)
    lhs, rhs = layer_cake(a, q)
    assert lhs == rhs == a.measure


@given(instance(subsets=2))
def test_spillover_never_violated(data):
    group, h, (a, b) = data
    q = quotient(group, h.elements)
    res = spillover_check(a, b, q)  # raises on violation
    assert res.lhs_left >= res.rhs_left
    assert res.lhs_right >= res.rhs_right


@given(instance(subsets=2))
@settings(max_examples=50)
def test_superlevel_containments(data):
    group, h, (a, b) = data
    q = quotient(group, h.elements)
    assert containment_check(a, b, q)


@given(instance(subsets=3))
def test_triangle_inequality(data):
    _, _, (a, b, c) = data
    assert triangle_holds(a, b, c)


@given(instance(subsets=2))
def test_ruzsa_symmetry(data):
    _, _, (a, b) = data
    assert ruzsa_sq(a, b).value == ruzsa_sq(b, a).value


@given(instance(subsets=1))
def test_directional_constant_bounded(data):
    _, _, (a,) = data
    stats = doubling_stats(a)
    assert stats.K2 <= stats.K * stats.K


@given(instance(subsets=1), st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]))
@settings(max_examples=60)
def test_extraction_certificates(data, alpha):
    group, h, (a,) = data
    q = quotient(group, h.elements)
    cert = extract_subset(a, q, alpha)
    assert cert.B.elements <= a.elements
    assert cert.measure_ratio > (alpha - 1) / alpha
    assert cert.quotient_doubling < alpha * cert.K


@given(st.fractions())
def test_rational_strings_round_trip(x):
    assert parse(fmt(x)) == x


@given(st.one_of(st.fractions(), st.integers(), st.booleans()))
def test_fmt_and_shadow_on_every_reported_type(x):
    # reports pass only Fractions, ints and bools; pinned against Fraction(x)
    exact = Fraction(x)
    assert fmt(x) == f"{exact.numerator}/{exact.denominator}"
    assert x.numerator / x.denominator == exact.numerator / exact.denominator


def test_fmt_and_shadow_fixed_values():
    assert [fmt(v) for v in (17, -3, 0, True, False, Fraction(6, -4))] == [
        "17/1", "-3/1", "0/1", "1/1", "0/1", "-3/2"
    ]
    assert [v.numerator / v.denominator for v in (17, True, Fraction(1, 3))] == [17.0, 1.0, 1 / 3]
