"""Each theorem check at its boundary, and the mutants those boundaries kill.

A check compares integer counts.  The boundary tests set the counts through
`Rigged`, an `InstanceContext` whose levels, spillover rows, |piA^2|, sets
AB and BA or threshold rows (|B| included) the test chooses, and `_rigged`,
the |XY^-1| counts of three sets with those the test chooses in their place:
equal sides pass, and a side one count too large fails (for the strict extraction
inequalities, equal sides fail and one count more passes).
`test_each_mutant_fails_a_boundary_test` disables or loosens each check in
turn and asserts that its boundary test then fails.
"""

import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest

import doubling.extract as extract
import doubling.fibers as fibers
import doubling.harness as harness
import doubling.metrics as metrics
from doubling import (ConsistencyError, CyclicGroup, GSubset, build_group, inv_set, mul_set, normal_subgroups,
                      quotient, subset)
from doubling.context import InstanceContext, SubsetContext
from doubling.groups import CayleyTable

Z12 = CyclicGroup(12)
Q = quotient(Z12, {0, 6})  # Z12 / {0, 6}, a cyclic quotient of order 6


class Rigged(InstanceContext):
    """An InstanceContext with some properties set by the test, by keyword:
    `levels_a`, `spill`, `pi_square`, `ab_ba` (AB and BA as point sets) or
    `thresholds` (A's threshold rows)."""

    def __init__(self, a, q=Q, b=None, **fixed):
        super().__init__(a, q, b)
        if "ab_ba" in fixed:  # the layer's
            vars(self.shared)["ab_ba"] = fixed.pop("ab_ba")
        vars(self).update(fixed)


def _less(x):
    """The point set X without its least element."""
    return x - {min(x)}


# -- layer cake: |A| == the layered count sum -------------------------------------

A_LC = subset(Z12, {0, 1, 2})  # one element in each of three cosets: one level


def _levels_with(cosets):
    return [(1, frozenset(cosets), len(cosets))]


def test_layer_cake_boundary():
    cosets = sorted(InstanceContext(A_LC, Q).pi_a)
    assert fibers.check_layer_cake(Rigged(A_LC)) == (True, 3, 3)
    # a level one coset short leaves |A| one count too large, and one coset over
    # leaves the layered sum one count too large
    short = Rigged(A_LC, levels_a=_levels_with(cosets[1:]))
    assert fibers.check_layer_cake(short) == (False, 3, 2)
    extra = [c for c in Q.quotient.elements() if c not in cosets][0]
    over = Rigged(A_LC, levels_a=_levels_with([*cosets, extra]))
    assert fibers.check_layer_cake(over) == (False, 3, 4)


def test_layer_cake_suite_reports_a_failure_with_the_passing_keys():
    cosets = sorted(InstanceContext(A_LC, Q).pi_a)
    record, violations = harness._layer_cake_suite(Rigged(A_LC), [])
    assert violations == () and record.to_json()["pass"] is True
    short = Rigged(A_LC, levels_a=_levels_with(cosets[1:]))
    failed, violations = harness._layer_cake_suite(short, [])
    assert violations == ("layer-cake identity failed",)
    assert failed.to_json() == {**record.to_json(), "pass": False, "rhs": "2/1", "rhs_dec": 2.0}


# -- spillover: |AB| >= left and |BA| >= right --------------------------------------

A_SP, B_SP = subset(Z12, {0, 2}), subset(Z12, {0, 6, 1})  # B has fibers 2 and 1
AB_SP, BA_SP = mul_set(A_SP, B_SP).elements, mul_set(B_SP, A_SP).elements  # Z12's points are its handles


def test_spillover_boundary():
    # the real counts sit at equality on both sides
    assert fibers.check_spillover(Rigged(A_SP, b=B_SP)) == (True, 6, 6, 6, 6)
    low_ab = Rigged(A_SP, b=B_SP, ab_ba=(_less(AB_SP), BA_SP))
    assert fibers.check_spillover(low_ab) == (False, 5, 6, 6, 6)
    low_ba = Rigged(A_SP, b=B_SP, ab_ba=(AB_SP, _less(BA_SP)))
    assert fibers.check_spillover(low_ba) == (False, 6, 5, 6, 6)


def test_spillover_suite_and_wrapper_report_a_failure(monkeypatch):
    record, violations = harness._spillover_suite(Rigged(A_SP, b=B_SP), [])
    assert violations == () and record.to_json()["pass"] is True
    low = Rigged(A_SP, b=B_SP, ab_ba=(_less(AB_SP), BA_SP))
    failed, violations = harness._spillover_suite(low, [])
    assert violations == ("spillover inequality failed",)
    assert failed.to_json() == {**record.to_json(), "pass": False, "lhs_left": "5/1", "lhs_left_dec": 5.0}

    monkeypatch.setattr(fibers, "InstanceContext", lambda a, q, b: Rigged(a, q, b, ab_ba=(_less(AB_SP), BA_SP)))
    with pytest.raises(ConsistencyError, match="spillover inequality failed") as info:
        fibers.spillover_check(A_SP, B_SP, Q)
    assert info.value.payload == {
        "lhs_left": "5/1", "lhs_right": "6/1", "rhs_left": "6/1", "rhs_right": "6/1",
        "subset_a": [0, 2], "subset_b": [0, 1, 6],
    }


# -- containment: each coset of pi(A) level_n(B) meets AB in >= n elements -------------


def _tight(ctx, side):
    """The least fibers the check accepts of AB (side 0) or BA (side 1): per
    coset, the largest n whose product pi(A) level_n(B), or level_n(B) pi(A),
    holds it."""
    out = Counter()
    for n, *products in ctx.spill:
        for c in products[side]:
            out[c] = n
    return out


def _with_fibers(fibers_of):
    """A subset of Z12 meeting each coset c of Q in fibers_of[c] elements."""
    return GSubset(Z12, frozenset(x for c, n in fibers_of.items()
                                  for x in sorted(x for x in Z12.elements() if Q.project(x) == c)[:n]))


def _containment_contexts(side=0):
    """Contexts whose AB (side 0) or BA (side 1) sits at the least fibers the
    check accepts, and one element short of them; the other product is real."""
    tight = _tight(InstanceContext(A_SP, Q, B_SP), side)
    top = max(tight, key=lambda c: (tight[c], c))
    assert tight[top] == 2
    short = tight - Counter({top: 1})
    rigged = []
    for fibers_of in (tight, short):
        products = [AB_SP, BA_SP]
        products[side] = _with_fibers(fibers_of).elements
        rigged.append(Rigged(A_SP, b=B_SP, ab_ba=tuple(products)))
    return rigged


def test_containment_boundary():
    equal, short = _containment_contexts()
    assert fibers.check_containment(equal) is True
    assert fibers.check_containment(short) is False


def test_containment_boundary_on_the_ba_side():
    equal, short = _containment_contexts(side=1)
    assert fibers.check_containment(equal) is True
    assert fibers.check_containment(short) is False


def test_containment_suite_reports_a_failure():
    equal, short = _containment_contexts()
    assert harness._containment_suite(equal, [])[1] == ()
    record, violations = harness._containment_suite(short, [])
    assert violations == ("superlevel containment failed",) and record.to_json() == {"pass": False}


# -- Ruzsa: value(A,C) <= value(A,B) value(B,C), d(A,A) >= 0, symmetry, translation ---

A_R, B_R, C_R = subset(Z12, {0, 1}), subset(Z12, {0, 2}), subset(Z12, {0, 3})
R_SIZES = len(A_R), len(B_R)


def _rigged(**fixed) -> list:
    """|A A^-1|, |A B^-1|, |B A^-1|, |A C^-1| and |B C^-1| of A_R, B_R and
    C_R, in the order `ruzsa_axioms` takes them, each formed on the sets
    unless `fixed` sets it by its name (`ab` for |A B^-1|)."""
    sets = {"a": A_R, "b": B_R, "c": C_R}
    counts = {x + y: len(mul_set(sets[x], inv_set(sets[y])).elements) for x, y in ("aa", "ab", "ba", "ac", "bc")}
    assert set(fixed) <= set(counts)
    return list({**counts, **fixed}.values())


def _triangle(d_ac):
    # |A C^-1| |B| against |A B^-1| |B C^-1| = 2 * 5
    return metrics.ruzsa_triangle(d_ac, 2, 5, len(B_R))


def test_ruzsa_triangle_boundary():
    assert _triangle(5) is True
    assert _triangle(6) is False


def _self_flag(d_aa):
    return metrics.ruzsa_axioms(*R_SIZES, *_rigged(aa=d_aa))


def test_ruzsa_self_distance_boundary():
    assert _self_flag(2)["self_at_least_one"] is True
    assert _self_flag(1)["self_at_least_one"] is False


def _symmetry_flag(d_ba):
    # |A B^-1| = 4 against |B A^-1|
    return metrics.ruzsa_axioms(*R_SIZES, *_rigged(ab=4, ba=d_ba))["symmetry"]


def test_ruzsa_symmetry_boundary():
    assert _symmetry_flag(4) is True
    assert _symmetry_flag(5) is False
    assert _symmetry_flag(3) is False


def _translation_flag(moved):
    # |gA (hB)^-1| against |A B^-1| = 4
    return metrics.ruzsa_axioms(*R_SIZES, *_rigged(ab=4), moved)["translation"]


def test_ruzsa_translation_boundary():
    assert _translation_flag(4) is True
    assert _translation_flag(5) is False
    assert _translation_flag(3) is False


# A = {0, 1} and its partners B = A^-1, C = A^2 as an exhaustive scan makes them
R_LAYER = subset(Z12, {0, 1}), subset(Z12, {0, 11}), subset(Z12, {0, 1, 2})


def _ruzsa_record(d_aa):
    """The suite's result on R_LAYER with |A A^-1| set to d_aa."""
    axioms = metrics.ruzsa_axioms
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "ruzsa_axioms", lambda a, b, aa, *counts: axioms(a, b, d_aa, *counts))
        return harness._ruzsa_suite(SubsetContext(*R_LAYER), [])


def test_ruzsa_suite_reports_a_failure():
    record, violations = _ruzsa_record(2)
    assert violations == () and record.to_json()["pass"] is True
    record, violations = _ruzsa_record(1)
    assert violations == ("a distance axiom failed",)
    assert record.to_json()["self_at_least_one"] is False and record.to_json()["pass"] is False


def test_ruzsa_suite_keeps_one_record_per_subset_layer(monkeypatch):
    shared, runs = SubsetContext(*R_LAYER), []
    axioms = metrics.ruzsa_axioms
    monkeypatch.setattr(harness, "ruzsa_axioms", lambda *args: runs.append(args) or axioms(*args))
    records = [harness._ruzsa_suite(shared, []) for _ in range(3)]
    # one run, on the layer's points: the layer keeps the record, and of the
    # sets the suite reads only A's points, A^-1 and B's points (C is given)
    assert len(runs) == 1 and all(r is shared.ruzsa for r in records)
    assert set(vars(shared)) == {"a", "b", "c", "translators", "ruzsa", "law", "points", "inverse", "b_points"}


def test_ruzsa_suite_forms_each_product_and_inverse_once(monkeypatch):
    calls = Counter()
    for name in ("product", "inverse"):
        original = getattr(CayleyTable, name)
        def counted(law, *args, name=name, original=original):
            calls[name] += 1
            return original(law, *args)

        monkeypatch.setattr(CayleyTable, name, counted)
    # as an exhaustive scan makes the layer: the six counts, gA and hB; A^-1, B^-1, C^-1 and (hB)^-1
    harness._ruzsa_suite(SubsetContext(*R_LAYER, translators=(0, 1)), [])
    assert calls == {"product": 8, "inverse": 4}
    # as a replayed id without partners: five counts, C = A A being A B^-1; A^-1 (which is B) and C^-1
    calls.clear()
    harness._ruzsa_suite(SubsetContext(R_LAYER[0]), [])
    assert calls == {"product": 5, "inverse": 2}


# -- quotient doubling: |piA^2| <= bound * |piA| ---------------------------------------

A_SUB = subset(Z12, {0, 4, 8})  # a subgroup: K = 1, and |piA^2| = |piA| = 3


@pytest.mark.parametrize("variant", metrics.VARIANTS)
def test_quotient_bound_boundary(variant):
    equal = metrics.check_quotient_bound(Rigged(A_SUB), variant)
    assert equal.pi_square * equal.bound_den == equal.bound_num * equal.pi_size
    assert equal.passed is True
    over = metrics.check_quotient_bound(Rigged(A_SUB, pi_square=4), variant)
    assert over.pi_square == 4 and over.passed is False


def test_quotient_suite_reports_a_failure():
    record, violations = harness.SUITES["quotient-cube"](Rigged(A_SUB, pi_square=4), [])
    assert violations == ("quotient doubling exceeded the cube bound",) and record.to_json()["pass"] is False


# -- extraction: admissible rows and the measure floor ----------------------------------

A_EX = subset(Z12, {0, 1, 2, 3})  # one element in each of four cosets; |A^2| = 7
TWO = Fraction(2)


def _row(n_cosets, square):
    # one element of A_EX per coset, so |B| = n_cosets
    cosets = sorted(InstanceContext(A_EX, Q).pi_a)[:n_cosets]
    return (1, frozenset(cosets), n_cosets, square, n_cosets)


def test_admissible_filter_boundary():
    # admissible iff |LL| |A| < alpha |A^2| |L|: here 4 |LL| < 2 * 7 * 2 = 28
    row = _row(2, 6)
    assert extract._admissible_rows(Rigged(A_EX, thresholds=[row]), TWO) == [row]
    assert extract._admissible_rows(Rigged(A_EX, thresholds=[_row(2, 7)]), TWO) == []


def test_extraction_floor_boundary():
    # mu(B) > (alpha - 1)/alpha mu(A): |B| 2 > 1 * 4 fails at |B| = 2 and holds at 3
    with pytest.raises(ConsistencyError, match="measure bound"):
        extract.certify(Rigged(A_EX, thresholds=[_row(2, 1)]), TWO)
    cert = extract.certify(Rigged(A_EX, thresholds=[_row(3, 1)]), TWO)
    assert (cert.b_size, cert.admissible_n) == (3, (1,))


FLOOR_GROUPS = ["cyclic:12", "dihedral:6", "q8", "symmetric:4", "dihedral:8",
                {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "dihedral", "n": 4}]}]


@pytest.mark.parametrize("spec", FLOOR_GROUPS, ids=["Z12", "D6", "Q8", "S4", "D8", "Z2xD4"])
def test_the_first_admissible_row_meets_the_floor(spec):
    """What `certify` rests on: as n rises the held count |B_n| strictly
    falls, and the smallest admissible threshold keeps
    mu(B) > (alpha - 1)/alpha mu(A), over random subsets of several groups
    under each normal subgroup."""
    group = build_group(harness.parse_group_selector(spec))
    elems, rng = sorted(group.elements()), random.Random(f"floor {spec}")
    for sub in normal_subgroups(group):
        q = quotient(group, sub)
        for _ in range(25):
            a = GSubset(group, frozenset(rng.sample(elems, rng.randint(1, len(elems)))))
            ctx = InstanceContext(a, q)
            ns, held = [row[0] for row in ctx.thresholds], [row[4] for row in ctx.thresholds]
            assert all(x < y for x, y in zip(ns, ns[1:])) and all(x > y for x, y in zip(held, held[1:]))
            for alpha in (Fraction(11, 10), Fraction(3, 2), TWO):
                first = extract._admissible_rows(ctx, alpha)[0]
                assert Fraction(first[4], len(a.elements)) > (alpha - 1) / alpha


def test_extract_suite_counts_a_failed_alpha():
    record, violations = harness._extract_suite(Rigged(A_EX, thresholds=[_row(2, 1)]), [("2", TWO)])
    assert violations == ("extraction failed at alpha=2",) and record.to_json() == {"2": {"pass": False}}
    suites = (("extract", record, violations),)
    rep = harness.InstanceReport("x", 12, 2, metrics.DoublingStats(4, 7, 7, False), 4, 7, suites,
                                 harness._outcome(suites))
    aggregate = harness._fold_aggregate([(0, rep)])
    assert aggregate["suite_runs"] == {"extract": {"runs": 1, "passes": 0, "skipped": 0}}


# -- the mutants ---------------------------------------------------------------------

MUTANTS = [
    (fibers, "check_spillover", "ab >= left and ba >= right", "True", test_spillover_boundary),
    (fibers, "check_containment", "ab.get(c, 0) < n", "False", test_containment_boundary),
    (fibers, "check_containment", "ba.get(c, 0) < n", "False", test_containment_boundary_on_the_ba_side),
    (metrics, "ruzsa_triangle", "return ac * b", "return True or ac * b", test_ruzsa_triangle_boundary),
    (metrics, "ruzsa_axioms", '"self_at_least_one": aa >= a', '"self_at_least_one": True',
     test_ruzsa_self_distance_boundary),
    (metrics, "ruzsa_axioms", '"symmetry": ab == ba', '"symmetry": True', test_ruzsa_symmetry_boundary),
    (metrics, "ruzsa_axioms", 'flags["translation"] = moved == ab', 'flags["translation"] = True',
     test_ruzsa_translation_boundary),
    (harness, "_ruzsa_suite", "ok = all(flags.values())", "ok = True", test_ruzsa_suite_reports_a_failure),
    (harness, "_containment_suite", "ok = check_containment(ctx)", "ok = True",
     test_containment_suite_reports_a_failure),
    (metrics, "check_quotient_bound", "p2 * den <= num * p", "True",
     lambda: [test_quotient_bound_boundary(v) for v in metrics.VARIANTS]),
    (metrics, "check_quotient_bound", "p2 * den <= num * p", "p2 * den <= 2 * num * p",
     lambda: [test_quotient_bound_boundary(v) for v in metrics.VARIANTS]),
    (extract, "certify", "b_size * an > (an - ad) * size", "True", test_extraction_floor_boundary),
    (extract, "_admissible_rows", "row[3] * size * ad < an * a2 * row[2]", "True", test_admissible_filter_boundary),
    (fibers, "check_layer_cake", "size == layered", "True", test_layer_cake_boundary),
]


def _mutant_ids() -> list[str]:
    """name:mutant per entry, and name:snippet -> mutant where that repeats an earlier id."""
    ids: list = []
    for _, name, snippet, mutant, _ in MUTANTS:
        ids.append(f"{name}:{snippet} -> {mutant}" if f"{name}:{mutant}" in ids else f"{name}:{mutant}")
    return ids


@pytest.mark.parametrize("module, name, snippet, mutant, boundary", MUTANTS, ids=_mutant_ids())
def test_each_mutant_fails_a_boundary_test(monkeypatch, module, name, snippet, mutant, boundary):
    boundary()  # passes on the real check
    source = inspect.getsource(getattr(module, name))
    # the snippet must be there: an edit to the check fails here, loudly
    assert source.count(snippet) == 1, f"{name} no longer holds {snippet!r}"
    monkeypatch.setattr(module, name, getattr(module, name))  # restored after the test
    exec(compile(source.replace(snippet, mutant), module.__file__, "exec"), vars(module))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        boundary()
