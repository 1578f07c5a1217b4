import json
from math import isqrt

import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

from doubling import (
    ConsistencyError,
    CyclicGroup,
    SpecError,
    build_sharpness_instance,
    doubling_stats,
    fiber_profile,
    inv_set,
    layer_cake,
    matrix_family,
    mul_set,
    projection_quotient,
    quotient_doubling_check,
)
from doubling import constructions
from doubling.constructions import (
    _block_product,
    _cantor_radix,
    _progressions,
    _sumset_mod,
    load_instance,
)
from oracles import cantor_analog, matrix_family_square_count, powers_diff_count


@pytest.mark.parametrize(
    "n,expected", [(1, 1), (2, 3), (3, 7), (8, 57)]
)
def test_power_difference_counts(n, expected):
    assert powers_diff_count(n) == expected


def test_power_difference_formula_small_range():
    for n in range(1, 11):
        assert powers_diff_count(n) == n * (n - 1) + 1


@pytest.mark.parametrize("n,expected", [(1, 5), (2, 17), (8, 257)])
def test_matrix_square_counts(n, expected):
    assert matrix_family_square_count(n) == expected


def test_matrix_square_formula_small_range():
    for n in range(1, 11):
        assert matrix_family_square_count(n) == 4 * n * n + 1


def test_matrix_family_shape():
    fam = matrix_family(3)
    assert len(fam.members) == 6
    for k, mat in enumerate(fam.members[:3], start=1):
        assert mat == (0, 1, 1, 2 ** k)
        a, b, c, d = mat
        assert a * d - b * c == -1


def test_cantor_analog_m25():
    c = cantor_analog(25)
    assert len(c) == 13
    assert c.measure == Fraction(13, 25)
    elems = c.elements
    assert elems == {(-x) % 25 for x in elems}
    assert {(a + b) % 25 for a in elems for b in elems} == set(range(25))


def test_cantor_analog_m4_degenerate():
    assert cantor_analog(4).elements == {0, 1, 2, 3}


def test_cantor_analog_m9():
    c = cantor_analog(9)
    assert len(c) == 7
    assert {(a + b) % 9 for a in c.elements for b in c.elements} == set(range(9))


def test_cantor_analog_nonsquare_modulus():
    c = cantor_analog(25000)
    assert len(c) == 448
    assert c.elements == {(-x) % 25000 for x in c.elements}


def test_cantor_analog_rejects_bad_moduli():
    with pytest.raises(ValueError):
        cantor_analog(3)
    with pytest.raises(ValueError):
        cantor_analog(7)  # prime, no usable radix


def test_cantor_analog_explicit_group():
    g = CyclicGroup(25, "normalized")
    c = cantor_analog(25, g)
    assert c.owner is g
    with pytest.raises(ValueError):
        cantor_analog(25, CyclicGroup(26, "normalized"))


@pytest.mark.parametrize("n,h,m", [(1, 4, 25), (2, 4, 25), (2, 5, 36), (3, 2, 25)])
def test_small_instance_matches_brute_force(n, h, m):
    inst = build_sharpness_instance(n, h, m)
    group = inst.group()
    a = inst.subset(group)
    q = inst.quotient_structure(group)

    assert a.measure == inst.mu_A
    assert mul_set(a, a).measure == inst.mu_A2
    pi_a = q.image(a)
    assert pi_a.measure == inst.mu_piA
    assert mul_set(pi_a, pi_a).measure == inst.mu_piA2

    stats = doubling_stats(a)
    assert stats.K == inst.stats.K
    assert stats.K2 == inst.stats.K2
    assert stats.symmetric
    assert inv_set(a).elements == a.elements

    lhs, rhs = layer_cake(a, q)
    assert lhs == rhs


def test_quotient_square_measure_is_parameter_free():
    for n, h, m in [(1, 4, 25), (1, 10, 100), (2, 4, 25), (3, 7, 49)]:
        inst = build_sharpness_instance(n, h, m)
        assert inst.mu_piA2 == 4 * n * n + 1
        assert inst.mu_piA2 == inst.quotient_target


def test_exact_closed_forms():
    inst = build_sharpness_instance(2, 1000, 250000)
    c = len(inst.cantor)
    assert c == 1498 and inst.r == 500
    assert inst.mu_A == 1 + Fraction(4 * c, 1000 * 250000)
    assert inst.mu_piA == 1 + Fraction(4 * c, 250000)
    # the squared-set correction comes only from the h factor
    assert inst.mu_A2 == 5 + Fraction(4 * 3, 1000)
    assert inst.mu_piA2 == 17


def test_quotient_ratio_monotone_in_m():
    ratios = [
        build_sharpness_instance(2, 50, m).quotient_doubling
        for m in (100, 2500, 10000)
    ]
    assert ratios[0] < ratios[1] < ratios[2] < 17


def test_instance_diagonal_spillover_and_thresholds():
    from fractions import Fraction as F

    from doubling import admissible_thresholds, spillover_check

    inst = build_sharpness_instance(2, 4, 25)
    group = inst.group()
    a = inst.subset(group)
    q = inst.quotient_structure(group)
    res = spillover_check(a, a, q)
    assert res.lhs_left == inst.mu_A2
    assert res.lhs_left >= res.rhs_left and res.lhs_right >= res.rhs_right
    # the full-fiber threshold (value 1: whole H_h over an identity-block
    # coset) is admissible at alpha = 2
    s_set = admissible_thresholds(a, q, F(2))
    assert F(1) in s_set


def test_symmetric_bound_check_passes_on_instance():
    inst = build_sharpness_instance(2, 4, 25)
    group = inst.group()
    a = inst.subset(group)
    q = inst.quotient_structure(group)
    res = quotient_doubling_check(a, q, "symmetric")
    assert res.passed
    # same inequality on the closed-form numbers, cross-multiplied
    big = build_sharpness_instance(2, 1000, 250000)
    assert big.quotient_doubling <= big.stats.K * big.stats.K


def test_fibering_over_torus_factor():
    # project onto the first two factors: the kernel is the torus stand-in,
    # fibers are 1 on the identity-matrix block and mu(C) on family cosets
    inst = build_sharpness_instance(1, 4, 25)
    group = inst.group()
    a = inst.subset(group)
    q = projection_quotient(group, [0, 1])
    prof = fiber_profile(a, q)
    eye = (1, 0, 0, 1)
    mu_c = Fraction(len(inst.cantor), 25)
    for hh in range(4):
        assert prof.fibers[(hh, eye)] == 1
    for w in inst.family.members:
        assert prof.fibers[(0, w)] == mu_c


def test_instance_json_round_trip():
    inst = build_sharpness_instance(2, 4, 25)
    doc = json.loads(json.dumps(inst.to_json(), sort_keys=True))
    assert doc["measures"]["mu_piA2"] == "17/1"
    assert doc["targets"] == {"K": 5, "quotient_doubling": 17}
    group, a, q = load_instance(doc)
    assert a.measure == inst.mu_A
    assert q.image(a).measure == inst.mu_piA
    stats = doubling_stats(a)
    assert stats.K == inst.stats.K


def test_large_instance_emits_without_elements():
    inst = build_sharpness_instance(2, 1000, 2500)
    doc = inst.to_json(materialize_cap=10_000)
    assert doc["subset"] is None
    with pytest.raises(SpecError, match="materialized"):
        load_instance(doc)


def test_materialization_cap_enforced():
    inst = build_sharpness_instance(2, 1000, 2500)
    with pytest.raises(ValueError, match="cap"):
        inst.subset(cap=1000)


def test_build_parameter_validation():
    with pytest.raises(ValueError):
        build_sharpness_instance(0, 4, 25)
    with pytest.raises(ValueError):
        build_sharpness_instance(1, 1, 25)
    with pytest.raises(ValueError):
        build_sharpness_instance(1, 4, 7)


def test_witness_blocks_hold_one_rectangle_per_matrix():
    inst = build_sharpness_instance(3, 5, 36)
    cantor = frozenset(inst.cantor)
    assert inst.blocks == {
        (1, 0, 0, 1): (True, None),
        **{w: (False, cantor) for w in inst.family.members},
    }
    square = _block_product(inst.blocks, inst.blocks, 36, {})
    assert len(square) == 4 * 3 * 3 + 1
    assert all(z is None for _, z in square.values())
    # nested rectangles on one matrix merge into the larger one
    eye = (1, 0, 0, 1)
    w = inst.family.members[0]
    w_inv = inst.family.members[3]
    left = {eye: (True, None), w: (False, cantor)}
    right = {eye: (False, cantor), w_inv: (False, cantor)}
    # W * W^-1 puts {1} x Z_m on I, inside the H x Z_m from I * I
    assert _block_product(left, right, 36, {})[eye] == (True, None)
    assert _block_product(right, left, 36, {})[eye] == (True, None)


def test_block_product_rejects_non_nested_rectangles():
    eye = (1, 0, 0, 1)
    w = (0, 1, 1, 2)
    w_inv = (-2, 1, 1, 0)
    # I*I and W*W^-1 both land on I: H x {0} against {1} x {1}
    left = {eye: (True, frozenset({0})), w: (False, frozenset({1}))}
    right = {eye: (False, frozenset({0})), w_inv: (False, frozenset({0}))}
    with pytest.raises(ConsistencyError, match="non-nested") as info:
        _block_product(left, right, 5, {})
    assert info.value.payload == {"matrix": [1, 0, 0, 1]}


# -- the bitset sumset against the pair-at-a-time set ---------------------------


@st.composite
def residue_pair(draw):
    m = draw(st.integers(1, 300))
    residues = st.integers(0, m - 1)
    runs = st.lists(st.tuples(residues, st.integers(1, m)), max_size=4).map(
        lambda runs: frozenset((s + i) % m for s, n in runs for i in range(n))
    )
    # equal runs at one spacing, like the Cantor analog's rZ_m
    spaced = st.tuples(residues, st.integers(1, 6), st.integers(1, m), st.integers(1, 40)).map(
        lambda p: frozenset((p[0] + i * p[2] + j) % m for i in range(p[3]) for j in range(p[1]))
    )
    sets = st.one_of(
        st.just(frozenset()), st.just(frozenset(range(m))), st.frozensets(residues), runs, spaced
    )
    return draw(sets), draw(sets), m


@given(residue_pair())
@example((frozenset(), frozenset(range(5)), 5))
@example((frozenset(range(7)), frozenset({3}), 7))
@example((frozenset({0, 1}), frozenset({0, 2}), 5))
@example((frozenset({0}), frozenset({0}), 1))
def test_sumset_mod_matches_the_set_of_pair_sums(data):
    x, y, m = data
    progressions = _progressions(y)
    assert y == {b + i * step + j for b, n, step, count in progressions
                 for i in range(count) for j in range(n)}
    sums = frozenset((a + b) % m for a in x for b in y)
    expected = None if len(sums) == m else sums
    cache: dict = {}
    got = _sumset_mod(x, y, m, cache)
    assert got == expected
    assert got is None or type(got) is frozenset
    assert cache == {frozenset((x, y)): expected}
    # x + y = y + x: the reversed call is a cache hit on the same object
    assert _sumset_mod(y, x, m, cache) is cache[frozenset((x, y))]


def test_cantor_raises_when_c_misses_a_needed_point(monkeypatch):
    # m = 25, r = 5: without the multiples +-10 of r, C = {-5..5} is still
    # symmetric, but C + C = {-10..10} misses 11..14
    builtin_range = range
    monkeypatch.setattr(
        constructions,
        "range",
        lambda *args: [v for v in builtin_range(*args) if v not in (10, 15)],
        raising=False,
    )
    with pytest.raises(ConsistencyError, match="does not cover Z_m"):
        constructions._cantor(25, {})


def _cantor_radix_by_linear_scan(m: int) -> int | None:
    root = isqrt(m)
    if root * root == m:
        return root
    best = None
    for r in range(2, m // 2 + 1):
        if m % r == 0 and (best is None or 2 * r + m // r - 2 < best[0]):
            best = (2 * r + m // r - 2, r)
    return None if best is None else best[1]


def test_cantor_radix_matches_the_linear_scan():
    for m in range(4, 3001):
        expected = _cantor_radix_by_linear_scan(m)
        if expected is None:
            with pytest.raises(ValueError, match=f"modulus {m} is prime"):
                _cantor_radix(m)
        else:
            assert _cantor_radix(m) == expected, m
