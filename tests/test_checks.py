"""Each theorem check at its boundary, and the mutants those boundaries kill.

A check compares integer counts.  The boundary tests set the counts through
`Rigged`, an `InstanceContext` whose product sizes, AB fibers, levels or
threshold rows (|B| included) the test chooses, and `RiggedLayer`, a
`SubsetContext` whose Ruzsa counts it chooses: equal sides pass, and a side
one count too large fails (for the strict extraction inequalities, equal
sides fail and one count more passes).  `test_each_mutant_fails_a_boundary_test`
disables or loosens each check in turn and asserts that its boundary test
then fails.
"""

import inspect
from collections import Counter
from fractions import Fraction

import pytest

import doubling.extract as extract
import doubling.fibers as fibers
import doubling.harness as harness
import doubling.metrics as metrics
from doubling import ConsistencyError, CyclicGroup, quotient, subset
from doubling.context import InstanceContext, SubsetContext

Z12 = CyclicGroup(12)
Q = quotient(Z12, {0, 6})  # Z12 / {0, 6}, a cyclic quotient of order 6


def _key(x, y=None):
    return (x.owner, x.elements) if y is None else (x.owner, x.elements, y.owner, y.elements)


class Rigged(InstanceContext):
    """An InstanceContext with some counts set by the test.

    `sizes` maps (X, Y) to |XY|; `ab` replaces the fibers of AB alone (not
    of BA); `levels_of` maps X to its levels; `rows` replaces A's threshold
    rows."""

    def __init__(self, a, q=Q, b=None, sizes=(), ab=None, levels_of=(), rows=None):
        super().__init__(a, q, b)
        self.sizes = {_key(*xy): n for xy, n in dict(sizes).items()}
        self.levels_of = {_key(x): lv for x, lv in dict(levels_of).items()}
        self.ab, self.rows = ab, rows

    def size(self, x, y):
        n = self.sizes.get(_key(x, y))
        return super().size(x, y) if n is None else n

    def fibers(self, x):
        if self.ab is not None and x is self.mul(self.a, self.b):
            return self.ab
        return super().fibers(x)

    def levels(self, x):
        out = self.levels_of.get(_key(x))
        return super().levels(x) if out is None else out

    @property
    def thresholds(self):
        return self.rows if self.rows is not None else super().thresholds


class RiggedLayer(SubsetContext):
    """A SubsetContext whose |XY^-1| the test sets: `diffs` maps (X, Y) to it."""

    def __init__(self, a, b=None, c=None, diffs=()):
        super().__init__(a, b, c)
        self.diffs = {_key(*xy): n for xy, n in dict(diffs).items()}

    def diff_size(self, x, y):
        n = self.diffs.get(_key(x, y))
        return super().diff_size(x, y) if n is None else n


# -- layer cake: |A| == the layered count sum -------------------------------------

A_LC = subset(Z12, {0, 1, 2})  # one element in each of three cosets: one level


def _levels_with(cosets):
    return [(1, Q.coset_subset(cosets), len(cosets))]


def test_layer_cake_boundary():
    cosets = sorted(InstanceContext(A_LC, Q).pi_a.elements)
    assert fibers.check_layer_cake(Rigged(A_LC)) == (True, 3, 3)
    # a level one coset short leaves |A| one count too large, and one coset over
    # leaves the layered sum one count too large
    short = Rigged(A_LC, levels_of={A_LC: _levels_with(cosets[1:])})
    assert fibers.check_layer_cake(short) == (False, 3, 2)
    extra = [c for c in Q.quotient.elements() if c not in cosets][0]
    over = Rigged(A_LC, levels_of={A_LC: _levels_with([*cosets, extra])})
    assert fibers.check_layer_cake(over) == (False, 3, 4)


def test_layer_cake_suite_reports_a_failure_with_the_passing_keys():
    cosets = sorted(InstanceContext(A_LC, Q).pi_a.elements)
    record, violations = harness._layer_cake_suite(Rigged(A_LC), [])
    assert violations == () and record.to_json()["pass"] is True
    short = Rigged(A_LC, levels_of={A_LC: _levels_with(cosets[1:])})
    failed, violations = harness._layer_cake_suite(short, [])
    assert violations == ("layer-cake identity failed",)
    assert failed.to_json() == {**record.to_json(), "pass": False, "rhs": "2/1", "rhs_dec": 2.0}


# -- spillover: |AB| >= left and |BA| >= right --------------------------------------

A_SP, B_SP = subset(Z12, {0, 2}), subset(Z12, {0, 6, 1})  # B has fibers 2 and 1


def test_spillover_boundary():
    # the real counts sit at equality on both sides
    assert fibers.check_spillover(Rigged(A_SP, b=B_SP), B_SP) == (True, 6, 6, 6, 6)
    low_ab = Rigged(A_SP, b=B_SP, sizes={(A_SP, B_SP): 5})
    assert fibers.check_spillover(low_ab, B_SP) == (False, 5, 6, 6, 6)
    low_ba = Rigged(A_SP, b=B_SP, sizes={(B_SP, A_SP): 5})
    assert fibers.check_spillover(low_ba, B_SP) == (False, 6, 5, 6, 6)


def test_spillover_suite_and_wrapper_report_a_failure(monkeypatch):
    record, violations = harness._spillover_suite(Rigged(A_SP, b=B_SP), [])
    assert violations == () and record.to_json()["pass"] is True
    low = Rigged(A_SP, b=B_SP, sizes={(A_SP, B_SP): 5})
    failed, violations = harness._spillover_suite(low, [])
    assert violations == ("spillover inequality failed",)
    assert failed.to_json() == {**record.to_json(), "pass": False, "lhs_left": "5/1", "lhs_left_dec": 5.0}

    monkeypatch.setattr(fibers, "InstanceContext", lambda a, q, b: Rigged(a, q, b, sizes={(A_SP, B_SP): 5}))
    with pytest.raises(ConsistencyError, match="spillover inequality failed") as info:
        fibers.spillover_check(A_SP, B_SP, Q)
    assert info.value.payload == {
        "lhs_left": "5/1", "lhs_right": "6/1", "rhs_left": "6/1", "rhs_right": "6/1",
        "subset_a": [0, 2], "subset_b": [0, 1, 6],
    }


# -- containment: each coset of pi(A) level_n(B) meets AB in >= n elements -------------


def _tight_ab(ctx):
    """The least AB fibers the check accepts: per coset, the largest n whose
    product pi(A) level_n(B) holds it."""
    out = Counter()
    for n, level, _ in ctx.levels(ctx.b):
        for c in ctx.mul(ctx.pi_a, level).elements:
            out[c] = n
    return out


def _containment_contexts():
    tight = _tight_ab(InstanceContext(A_SP, Q, B_SP))
    top = max(tight, key=lambda c: (tight[c], c))
    assert tight[top] == 2
    return Rigged(A_SP, b=B_SP, ab=tight), Rigged(A_SP, b=B_SP, ab=tight - Counter({top: 1}))


def test_containment_boundary():
    equal, short = _containment_contexts()
    assert fibers.check_containment(equal, B_SP) is True
    assert fibers.check_containment(short, B_SP) is False


def test_containment_suite_reports_a_failure():
    equal, short = _containment_contexts()
    assert harness._containment_suite(equal, [])[1] == ()
    record, violations = harness._containment_suite(short, [])
    assert violations == ("superlevel containment failed",) and record.to_json() == {"pass": False}


# -- Ruzsa: value(A,C) <= value(A,B) value(B,C), and d(A,A) >= 0 ------------------------

A_R, B_R, C_R = subset(Z12, {0, 1}), subset(Z12, {0, 2}), subset(Z12, {0, 3})


def _triangle(d_ac):
    # |A C^-1| |B| against |A B^-1| |B C^-1| = 2 * 5
    ctx = RiggedLayer(A_R, B_R, C_R, diffs={(A_R, B_R): 2, (B_R, C_R): 5, (A_R, C_R): d_ac})
    return metrics.ruzsa_triangle(ctx, A_R, B_R, C_R)


def test_ruzsa_triangle_boundary():
    assert _triangle(5) is True
    assert _triangle(6) is False


def _self_flag(d_aa):
    return metrics.ruzsa_axioms(RiggedLayer(A_R, B_R, C_R, diffs={(A_R, A_R): d_aa}), B_R, C_R)


def test_ruzsa_self_distance_boundary():
    assert _self_flag(2)["self_at_least_one"] is True
    assert _self_flag(1)["self_at_least_one"] is False


def _ruzsa_layer(d_aa):
    # A = {0, 1} and its partners B = A^-1, C = A^2 as an exhaustive scan makes them
    a, b, c = subset(Z12, {0, 1}), subset(Z12, {0, 11}), subset(Z12, {0, 1, 2})
    return RiggedLayer(a, b, c, diffs={(a, a): d_aa})


def test_ruzsa_suite_reports_a_failure():
    record, violations = harness._ruzsa_suite(InstanceContext(_ruzsa_layer(2), Q), [])
    assert violations == () and record.to_json()["pass"] is True
    record, violations = harness._ruzsa_suite(InstanceContext(_ruzsa_layer(1), Q), [])
    assert violations == ("a distance axiom failed",)
    assert record.to_json()["self_at_least_one"] is False and record.to_json()["pass"] is False


def test_ruzsa_suite_keeps_one_record_per_subset_layer(monkeypatch):
    shared, runs = _ruzsa_layer(2), []
    axioms = metrics.ruzsa_axioms
    monkeypatch.setattr(harness, "ruzsa_axioms", lambda s, *args: runs.append(s) or axioms(s, *args))
    records = [harness._ruzsa_suite(InstanceContext(shared, quotient(Z12, sub)), [])
               for sub in ({0, 6}, {0, 4, 8}, {0})]
    # one run, on a scratch copy: the layer keeps the record and none of its sets
    assert len(runs) == 1 and runs[0] is not shared and all(r is shared.ruzsa for r in records)
    assert shared._products == {} and shared._inverses == {}


# -- quotient doubling: |piA^2| <= bound * |piA| ---------------------------------------

A_SUB = subset(Z12, {0, 4, 8})  # a subgroup: K = 1, and |piA^2| = |piA| = 3


@pytest.mark.parametrize("variant", metrics.VARIANTS)
def test_quotient_bound_boundary(variant):
    pi_a = InstanceContext(A_SUB, Q).pi_a
    equal = metrics.check_quotient_bound(Rigged(A_SUB), variant)
    assert equal.pi_square * equal.bound_den == equal.bound_num * equal.pi_size
    assert equal.passed is True
    over = metrics.check_quotient_bound(Rigged(A_SUB, sizes={(pi_a, pi_a): 4}), variant)
    assert over.pi_square == 4 and over.passed is False


def test_quotient_suite_reports_a_failure():
    pi_a = InstanceContext(A_SUB, Q).pi_a
    record, violations = harness.SUITES["quotient-cube"](Rigged(A_SUB, sizes={(pi_a, pi_a): 4}), [])
    assert violations == ("quotient doubling exceeded the cube bound",) and record.to_json()["pass"] is False


# -- extraction: admissible rows and the measure floor ----------------------------------

A_EX = subset(Z12, {0, 1, 2, 3})  # one element in each of four cosets; |A^2| = 7
TWO = Fraction(2)


def _row(n_cosets, square):
    # one element of A_EX per coset, so |B| = n_cosets
    cosets = sorted(InstanceContext(A_EX, Q).pi_a.elements)[:n_cosets]
    return (1, Q.coset_subset(cosets), n_cosets, square, n_cosets)


def test_admissible_filter_boundary():
    # admissible iff |LL| |A| < alpha |A^2| |L|: here 4 |LL| < 2 * 7 * 2 = 28
    row = _row(2, 6)
    assert extract._admissible_rows(Rigged(A_EX, rows=[row]), TWO) == [row]
    assert extract._admissible_rows(Rigged(A_EX, rows=[_row(2, 7)]), TWO) == []


def test_extraction_floor_boundary():
    # mu(B) > (alpha - 1)/alpha mu(A): |B| 2 > 1 * 4 fails at |B| = 2 and holds at 3
    with pytest.raises(ConsistencyError, match="measure bound"):
        extract.certify(Rigged(A_EX, rows=[_row(2, 1)]), TWO)
    cert = extract.certify(Rigged(A_EX, rows=[_row(2, 1), _row(3, 1)]), TWO)
    assert (cert.b_size, cert.admissible_n) == (3, (1, 1))


def test_extract_suite_counts_a_failed_alpha():
    record, violations = harness._extract_suite(Rigged(A_EX, rows=[_row(2, 1)]), [("2", TWO)])
    assert violations == ("extraction failed at alpha=2",) and record.to_json() == {"2": {"pass": False}}
    rep = harness.InstanceReport("x", 12, 2, metrics.DoublingStats(4, 7, 7, False), 4, 7,
                                 (("extract", record, violations),))
    aggregate = harness._fold_aggregate([rep])
    assert aggregate["suite_runs"] == {"extract": {"runs": 1, "passes": 0, "skipped": 0}}


# -- the mutants ---------------------------------------------------------------------

MUTANTS = [
    (fibers, "check_spillover", "ab >= left and ba >= right", "True", test_spillover_boundary),
    (fibers, "check_containment", "ab[c] < n", "False", test_containment_boundary),
    (metrics, "ruzsa_triangle", "return ctx.diff_size(a, c)", "return True or ctx.diff_size(a, c)",
     test_ruzsa_triangle_boundary),
    (metrics, "ruzsa_axioms", '"self_at_least_one": ctx.diff_size(a, a) >= len(a.elements)',
     '"self_at_least_one": True', test_ruzsa_self_distance_boundary),
    (harness, "_ruzsa_suite", "ok = all(flags.values())", "ok = True", test_ruzsa_suite_reports_a_failure),
    (harness, "_containment_suite", "ok = check_containment(ctx, ctx.b if ctx.b is not None else ctx.a)",
     "ok = True", test_containment_suite_reports_a_failure),
    (metrics, "check_quotient_bound", "p2 * den <= num * p", "True",
     lambda: [test_quotient_bound_boundary(v) for v in metrics.VARIANTS]),
    (metrics, "check_quotient_bound", "p2 * den <= num * p", "p2 * den <= 2 * num * p",
     lambda: [test_quotient_bound_boundary(v) for v in metrics.VARIANTS]),
    (extract, "certify", "b_size * alpha.numerator > (alpha.numerator - alpha.denominator) * size",
     "True", test_extraction_floor_boundary),
    (extract, "_admissible_rows", "row[3] * size * alpha.denominator < alpha.numerator * a2 * row[2]",
     "True", test_admissible_filter_boundary),
    (fibers, "check_layer_cake", "size == layered", "True", test_layer_cake_boundary),
]


@pytest.mark.parametrize("module, name, snippet, mutant, boundary", MUTANTS,
                         ids=[f"{m[1]}:{m[3]}" for m in MUTANTS])
def test_each_mutant_fails_a_boundary_test(monkeypatch, module, name, snippet, mutant, boundary):
    boundary()  # passes on the real check
    source = inspect.getsource(getattr(module, name))
    # the snippet must be there: an edit to the check fails here, loudly
    assert source.count(snippet) == 1, f"{name} no longer holds {snippet!r}"
    monkeypatch.setattr(module, name, getattr(module, name))  # restored after the test
    exec(compile(source.replace(snippet, mutant), module.__file__, "exec"), vars(module))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        boundary()
