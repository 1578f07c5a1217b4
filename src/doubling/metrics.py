"""Doubling constants, exact Ruzsa-distance calculus, and quotient bounds.

The Ruzsa distance d(A,B) = log(mu(A B^-1) / sqrt(mu(A) mu(B))) is never
stored as a logarithm: everything works with the squared multiplicative form
mu(AB^-1)^2 / (mu(A) mu(B)), which is rational, and all bound checks reduce
to cross-multiplied integer comparisons (the uniform weights cancel).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .context import InstanceContext
from .quotients import QuotientStructure, is_subgroup
from .rationals import put
from .sets import GSubset, translate

VARIANTS = ("symmetric", "cube", "two-constant")


class DoublingStats(namedtuple("DoublingStats", "size square inv_square symmetric")):
    """K = mu(A^2)/mu(A); K2 = mu(A^-1 A)/mu(A); K1 aliases K.

    Held as the counts |A|, |A^2| and |A^-1 A| (or any measures in one common
    unit); the constants are exact properties over them."""

    __slots__ = ()

    @property
    def K(self) -> Fraction:
        return Fraction(self.square, self.size)

    K1 = K

    @property
    def K2(self) -> Fraction:
        return Fraction(self.inv_square, self.size)

    def to_json(self) -> dict:
        out: dict = {"symmetric": self.symmetric}
        put(out, "K", self.square, self.size)
        put(out, "K1", self.square, self.size)
        put(out, "K2", self.inv_square, self.size)
        return out


def stats_of(ctx: InstanceContext) -> DoublingStats:
    return DoublingStats(len(ctx.a.elements), ctx.square, ctx.inv_square, ctx.symmetric)


def doubling_stats(a: GSubset) -> DoublingStats:
    if not a.elements:
        raise ValueError("doubling constants need a nonempty subset")
    return stats_of(InstanceContext(a))


class RuzsaSq(namedtuple("RuzsaSq", "value")):
    """mu(A B^-1)^2 / (mu(A) mu(B)): the square of exp(d(A, B))."""

    __slots__ = ()


def ruzsa_sq(a: GSubset, b: GSubset) -> RuzsaSq:
    if not a.elements or not b.elements:
        raise ValueError("Ruzsa distance needs nonempty subsets")
    d = InstanceContext(a, b=b).diff_size(a, b)
    return RuzsaSq(Fraction(d * d, len(a.elements) * len(b.elements)))


# The Ruzsa axioms compare values |XY^-1|^2 / (|X||Y|) with the denominators
# cleared: every flag below is a comparison of counts.


def ruzsa_triangle(ctx: InstanceContext, a: GSubset, b: GSubset, c: GSubset) -> bool:
    """value(A,C) <= value(A,B) * value(B,C); |A| and |C| cancel, leaving |B|."""
    return ctx.diff_size(a, c) * len(b.elements) <= ctx.diff_size(a, b) * ctx.diff_size(b, c)


def ruzsa_axioms(ctx: InstanceContext, b: GSubset, c: GSubset, translators=None) -> dict:
    """The axiom flags for A, B, C, and for (gA, hB) when translators (g, h) are given."""
    a = ctx.a
    flags = {
        "self_at_least_one": ctx.diff_size(a, a) >= len(a.elements),
        "symmetry": ctx.diff_size(a, b) == ctx.diff_size(b, a),
        "triangle": ruzsa_triangle(ctx, a, b, c),
    }
    if translators is not None:
        # left translation keeps |A| and |B|, so the distance is kept iff the count is
        g, h = translators
        moved = ctx.diff_size(translate(a, left=g), translate(b, left=h))
        flags["translation"] = moved == ctx.diff_size(a, b)
    return flags


def ruzsa_triangle_check(a: GSubset, b: GSubset, c: GSubset) -> bool:
    """value(A,C) <= value(A,B) * value(B,C), the triangle inequality squared."""
    return ruzsa_triangle(InstanceContext(a, b=b, c=c), a, b, c)


class QuotientDoublingCheck(namedtuple(
    "QuotientDoublingCheck", "variant pi_size pi_square bound_num bound_den weight_num weight_den passed"
)):
    """One quotient-doubling bound: mu_Q(piA^2) against bound * mu_Q(piA).

    Held as integers: |piA| and |piA^2|, the bound (K^2, K^3 or K1*K2) as
    bound_num/bound_den, and the quotient weight as weight_num/weight_den;
    the measures are exact properties over them."""

    __slots__ = ()

    @property
    def quotient_weight(self) -> Fraction:
        return Fraction(self.weight_num, self.weight_den)

    @property
    def lhs(self) -> Fraction:
        """mu_Q(pi A^2)"""
        return self.pi_square * self.quotient_weight

    @property
    def rhs(self) -> Fraction:
        """bound * mu_Q(pi A)"""
        return self.bound * self.pi_size * self.quotient_weight

    @property
    def bound(self) -> Fraction:
        return Fraction(self.bound_num, self.bound_den)

    @property
    def quotient_doubling(self) -> Fraction:
        return Fraction(self.pi_square, self.pi_size)

    def to_json(self) -> dict:
        out: dict = {"variant": self.variant, "pass": self.passed}
        wn, wd = self.weight_num, self.weight_den
        put(out, "lhs", self.pi_square * wn, wd)
        put(out, "rhs", self.bound_num * self.pi_size * wn, self.bound_den * wd)
        put(out, "bound", self.bound_num, self.bound_den)
        put(out, "quotient_doubling", self.pi_square, self.pi_size)
        return out


def check_quotient_bound(ctx: InstanceContext, variant: str) -> QuotientDoublingCheck:
    """|piA^2| <= bound * |piA| with the bound as an integer ratio; uniform
    weights cancel on both sides.  A False flag is recorded, never raised."""
    a, a2 = len(ctx.a.elements), ctx.square
    if variant == "symmetric":
        num, den = a2 * a2, a * a
    elif variant == "cube":
        num, den = a2 * a2 * a2, a * a * a
    else:
        num, den = a2 * ctx.inv_square, a * a
    p, p2 = len(ctx.pi_a.elements), ctx.size(ctx.pi_a, ctx.pi_a)
    w = ctx.q.quotient_weight
    return QuotientDoublingCheck(variant, p, p2, num, den, w.numerator, w.denominator, p2 * den <= num * p)


def quotient_doubling_check(
    a: GSubset, q: QuotientStructure, variant: str
) -> QuotientDoublingCheck:
    """Check one bound on the doubling of pi(A).

    variant "symmetric":    needs A = A^-1; bound K^2
    variant "cube":         any A;          bound K^3
    variant "two-constant": any A;          bound K1 * K2

    A False flag on valid inputs is a theorem-violation event: recorded by
    callers with a replay certificate, never raised here.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not a.elements:
        raise ValueError("quotient doubling needs a nonempty subset")
    ctx = InstanceContext(a, q)
    if variant == "symmetric" and not ctx.symmetric:
        raise ValueError('variant "symmetric" needs a symmetric subset')
    return check_quotient_bound(ctx, variant)


def is_coset_of_subgroup(group, elems: frozenset) -> bool:
    """Is A a (left or right) coset of some subgroup?

    Equivalent test: a0^-1 A is a subgroup for any fixed a0 in A.
    """
    if not elems:
        return False
    ia0 = group.inv(min(elems, key=group.element_key))
    return is_subgroup(group, translate(GSubset(group, elems), left=ia0).elements)


def coset_criterion_scan(group) -> tuple[int, list[tuple]]:
    """Exhaustively verify: d(A,A) = 0 iff A is a coset of a subgroup.

    Runs over every nonempty subset of a finite group.  The left side is the
    product-set count |A A^-1| == |A|; the right side is the independent
    closure test.  Returns (number of subsets checked, mismatch witnesses).
    """
    n = group.order
    if n is None:
        raise ValueError("exhaustive scan needs a finite group")
    law = group.law
    elems = list(group.elements())
    pts = list(law.all_points())

    mismatches: list[tuple] = []
    for mask in range(1, 1 << n):
        members = [p for i, p in enumerate(pts) if mask >> i & 1]
        distance_zero = len(law.product(members, list(law.inverse(members)))) == len(members)
        h = law.product(law.inverse(members[:1]), members)
        coset = law.product(h, list(h)) <= h
        if distance_zero != coset:
            mismatches.append(tuple(x for i, x in enumerate(elems) if mask >> i & 1))
    return (1 << n) - 1, mismatches
