import random

import pytest
from fractions import Fraction

from doubling import (
    CyclicGroup,
    DihedralGroup,
    GSubset,
    admissible_thresholds,
    extract_subset,
    fiber_profile,
    mul_set,
    normal_subgroups,
    quotient,
    subset,
)
from oracles import quaternion_group


def brute_force_thresholds(a, q, alpha):
    """Independent oracle: recompute fibers by hand and test the defining
    inequality with plain Fraction arithmetic."""
    counts = {}
    for x in a.elements:
        c = q.project(x)
        counts[c] = counts.get(c, 0) + 1
    fibers = {c: n * q.subgroup_weight for c, n in counts.items()}
    k = mul_set(a, a).measure / a.measure
    out = []
    for s in sorted(set(fibers.values())):
        level_cosets = frozenset(c for c, v in fibers.items() if v >= s)
        level = q.coset_subset(level_cosets)
        if level.measure == 0:
            continue
        if mul_set(level, level).measure < alpha * k * level.measure:
            out.append(s)
    return out


def test_subgroup_extraction():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    h = subset(z12, {0, 4, 8})
    alpha = Fraction(2)
    s_set = admissible_thresholds(h, q, alpha)
    assert len(s_set) == 1
    cert = extract_subset(h, q, alpha)
    assert cert.B.elements == h.elements
    assert cert.measure_ratio == 1
    assert cert.quotient_doubling == 1


def test_z12_frozen_example():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    a = subset(z12, {0, 1, 2, 6})
    alpha = Fraction(2)
    assert admissible_thresholds(a, q, alpha) == [1, 2]
    cert = extract_subset(a, q, alpha)
    assert cert.chosen_s == 1
    assert cert.B.elements == a.elements
    assert cert.measure_ratio == 1
    assert cert.quotient_doubling == Fraction(5, 3)
    assert cert.K == 2


def test_oracle_equivalence():
    rng = random.Random(17)
    groups = [CyclicGroup(12), DihedralGroup(4), quaternion_group(), CyclicGroup(16)]
    for g in groups:
        subs = normal_subgroups(g)
        for _ in range(60):
            h = subs[rng.randrange(len(subs))]
            q = quotient(g, h.elements)
            a = subset(g, rng.sample(range(g.order), rng.randint(1, g.order)))
            for alpha in (Fraction(3, 2), Fraction(2), Fraction(3)):
                assert admissible_thresholds(a, q, alpha) == brute_force_thresholds(
                    a, q, alpha
                )


def test_monotone_in_alpha():
    rng = random.Random(19)
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 4, 8})
    for _ in range(100):
        a = subset(z12, rng.sample(range(12), rng.randint(1, 12)))
        small = set(admissible_thresholds(a, q, Fraction(3, 2)))
        big = set(admissible_thresholds(a, q, Fraction(3)))
        assert small <= big


def test_certificate_invariants_random():
    rng = random.Random(23)
    groups = [CyclicGroup(12), DihedralGroup(4), quaternion_group()]
    for g in groups:
        subs = normal_subgroups(g)
        for _ in range(80):
            h = subs[rng.randrange(len(subs))]
            q = quotient(g, h.elements)
            a = subset(g, rng.sample(range(g.order), rng.randint(1, g.order)))
            for alpha in (Fraction(3, 2), Fraction(2)):
                cert = extract_subset(a, q, alpha)
                assert cert.B.elements <= a.elements
                assert cert.measure_ratio > (alpha - 1) / alpha
                assert cert.quotient_doubling < alpha * cert.K
                # B keeps whole fibers: saturation
                prof_a = fiber_profile(a, q)
                prof_b = fiber_profile(cert.B, q)
                level = {c for c, v in prof_a.fibers.items() if v >= cert.chosen_s}
                assert set(prof_b.fibers) == level
                for c in level:
                    assert prof_b.fibers[c] == prof_a.fibers[c]


def test_extraction_rejects_bad_inputs():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    a = subset(z12, {0, 1})
    with pytest.raises(ValueError, match="alpha"):
        extract_subset(a, q, Fraction(1))
    with pytest.raises(ValueError):
        extract_subset(GSubset(z12), q, Fraction(2))


def test_certificate_json_shape():
    z12 = CyclicGroup(12)
    q = quotient(z12, {0, 6})
    cert = extract_subset(subset(z12, {0, 1, 2, 6}), q, Fraction(2))
    doc = cert.to_json()
    assert doc["alpha"] == "2/1"
    assert doc["measure_ratio"] == "1/1"
    assert doc["B"] == [0, 1, 2, 6]
    assert doc["admissible"] == ["1/1", "2/1"]
    slim = cert.to_json(include_elements=False)
    assert "B" not in slim and slim["B_size"] == 4
