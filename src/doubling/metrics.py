"""Doubling constants, exact Ruzsa-distance calculus, and quotient bounds.

The Ruzsa distance d(A,B) = log(mu(A B^-1) / sqrt(mu(A) mu(B))) is never
stored as a logarithm: everything works with the squared multiplicative form
mu(AB^-1)^2 / (mu(A) mu(B)), which is rational, and all bound checks reduce
to cross-multiplied integer comparisons (the uniform weights cancel).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .context import DoublingStats, InstanceContext, SubsetContext
from .quotients import QuotientStructure
from .rationals import put
from .sets import GSubset, require_owner

VARIANTS = ("symmetric", "cube", "two-constant")


def doubling_stats(a: GSubset) -> DoublingStats:
    if not a.elements:
        raise ValueError("doubling constants need a nonempty subset")
    return SubsetContext(a).stats


class RuzsaSq(namedtuple("RuzsaSq", "value")):
    """mu(A B^-1)^2 / (mu(A) mu(B)): the square of exp(d(A, B))."""

    __slots__ = ()


def ruzsa_sq(a: GSubset, b: GSubset) -> RuzsaSq:
    if not a.elements or not b.elements:
        raise ValueError("Ruzsa distance needs nonempty subsets")
    require_owner(b, a.owner)
    law = a.owner.law
    d = len(law.product(law.points(a.elements), law.inverse(law.points(b.elements))))
    return RuzsaSq(Fraction(d * d, len(a.elements) * len(b.elements)))


# The Ruzsa axioms compare values |XY^-1|^2 / (|X||Y|) with the denominators
# cleared: every flag below is a comparison of the counts it is handed, and
# `ac` stands for |A C^-1|, `ab` for |A B^-1|, and so on.


def ruzsa_triangle(ac: int, ab: int, bc: int, b: int) -> bool:
    """value(A,C) <= value(A,B) * value(B,C); |A| and |C| cancel, leaving |B| = `b`."""
    return ac * b <= ab * bc


def ruzsa_axioms(a: int, b: int, aa: int, ab: int, ba: int, ac: int, bc: int, moved: int | None = None) -> dict:
    """The axiom flags from |A|, |B| and the counts |XY^-1| of sets A, B, C,
    and translation's from `moved` = |gA (hB)^-1| when translators (g, h) are given."""
    flags = {
        "self_at_least_one": aa >= a,
        "symmetry": ab == ba,
        "triangle": ruzsa_triangle(ac, ab, bc, b),
    }
    if moved is not None:
        # left translation keeps |A| and |B|, so the distance is kept iff the count is
        flags["translation"] = moved == ab
    return flags


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
    a, a2, inv_square = ctx.shared.stats[:3]
    if variant == "symmetric":
        num, den = a2 * a2, a * a
    elif variant == "cube":
        num, den = a2 * a2 * a2, a * a * a
    else:
        num, den = a2 * inv_square, a * a
    p, p2 = len(ctx.pi_a), ctx.pi_square
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
    if variant == "symmetric" and not ctx.shared.symmetric:
        raise ValueError('variant "symmetric" needs a symmetric subset')
    return check_quotient_bound(ctx, variant)

