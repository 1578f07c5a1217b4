"""Fiber lengths, superlevel families, the layer-cake identity, and spillover.

The fiber length of A at a coset gH is f_A(gH) = w_H * |A intersect gH|,
which is representative-independent.  Since f_A takes finitely many values,
every "integral over t" below collapses to a telescoping sum over the
distinct realized fiber values; everything stays an exact rational.

In this finite setting the sigma-compact modification of a superlevel family
is the identity (every subset of a finite or discrete group is closed), so
superlevel sets are used directly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .context import InstanceContext
from .errors import ConsistencyError
from .quotients import QuotientStructure
from .rationals import fmt
from .sets import GSubset


class FiberProfile(namedtuple("FiberProfile", "quotient source fibers")):
    """The fiber length function of one subset over one quotient.

    `fibers` maps cosets with positive fiber to their exact value; its key
    set is exactly pi(A).
    """

    __slots__ = ()

    @property
    def support(self) -> frozenset:
        return frozenset(self.fibers)

    def thresholds(self) -> list[Fraction]:
        """Distinct realized fiber values, increasing."""
        return sorted(set(self.fibers.values()))

    def superlevel(self, t: Fraction) -> frozenset:
        """Cosets with fiber length >= t (any t, not only realized values)."""
        if t <= 0:
            return self.support
        return frozenset(c for c, v in self.fibers.items() if v >= t)


class LevelFamily(namedtuple("LevelFamily", "thresholds levels")):
    """Superlevel sets at each realized threshold; nested downward."""

    __slots__ = ()


def fiber_profile(a: GSubset, q: QuotientStructure) -> FiberProfile:
    w = q.subgroup_weight
    return FiberProfile(q, a, {c: n * w for c, n in InstanceContext(a, q).fibers(a).items()})


def level_family(profile: FiberProfile) -> LevelFamily:
    levels = InstanceContext(profile.source, profile.quotient).levels(profile.source)
    w = profile.quotient.subgroup_weight
    return LevelFamily(tuple(n * w for n, _, _ in levels), tuple(lv for _, lv, _ in levels))


def _layered(levels, size_at) -> int:
    """Sum over levels of (n - previous n) * size_at(level)."""
    total = prev = 0
    for n, level, _ in levels:
        total, prev = total + (n - prev) * size_at(level), n
    return total


def check_layer_cake(ctx: InstanceContext) -> tuple[bool, int, int]:
    """|A| against the layered count sum, both in units of w_G: returns
    (holds, size, layered).

    A threshold step delta_t = delta_n * w_H times mu_Q(level) = |level| * w_Q
    is delta_n * |level| * w_G, since w_H * w_Q = w_G; so w_G cancels.
    """
    size = len(ctx.a.elements)
    layered = _layered(ctx.levels(ctx.a), lambda level: len(level.elements))
    return size == layered, size, layered


def layer_cake(a: GSubset, q: QuotientStructure) -> tuple[Fraction, Fraction]:
    """mu_G(A) against the sum over thresholds of delta_t * mu_Q(superlevel).

    The two sides are computed independently and must agree exactly; a
    mismatch is an internal-consistency failure and raises.
    """
    holds, *counts = check_layer_cake(InstanceContext(a, q))
    lhs, rhs = (n * q.ambient.weight for n in counts)
    if not holds:
        payload = {"lhs": fmt(lhs), "rhs": fmt(rhs), "subset": a.encode()}
        raise ConsistencyError("layer-cake identity failed", payload)
    return lhs, rhs


class SpilloverResult(namedtuple("SpilloverResult", "lhs_left lhs_right rhs_left rhs_right")):
    """Both spillover inequalities with all four sides.

    lhs_left  = mu_G(AB) >= rhs_left  = sum of delta_t * mu_Q(pi(A) * level_t(B))
    lhs_right = mu_G(BA) >= rhs_right = sum of delta_t * mu_Q(level_t(B) * pi(A))

    The right-hand form pairs with BA: in a nonabelian group mu(AB) can be
    strictly smaller than the layered sum for level * pi(A).
    """

    __slots__ = ()


def check_spillover(ctx: InstanceContext, b: GSubset) -> tuple[bool, int, int, int, int]:
    """Both spillover inequalities, compared as counts in units of w_G; returns
    (holds, lhs_left, lhs_right, rhs_left, rhs_right) in those units."""
    a, pi_a = ctx.a, ctx.pi_a
    ab, ba = ctx.size(a, b), ctx.size(b, a)
    left = _layered(ctx.levels(b), lambda level: ctx.size(pi_a, level))
    right = _layered(ctx.levels(b), lambda level: ctx.size(level, pi_a))
    return ab >= left and ba >= right, ab, ba, left, right


def spillover_check(a: GSubset, b: GSubset, q: QuotientStructure) -> SpilloverResult:
    """Check both spillover inequalities; raise on any violation."""
    holds, *counts = check_spillover(InstanceContext(a, q, b), b)
    result = SpilloverResult(*(n * q.ambient.weight for n in counts))
    if not holds:
        payload = {k: fmt(v) for k, v in result._asdict().items()}
        payload.update(subset_a=a.encode(), subset_b=b.encode())
        raise ConsistencyError("spillover inequality failed", payload)
    return result


def check_containment(ctx: InstanceContext, b: GSubset) -> bool:
    """Each coset of pi(A) * level_n(B) meets AB in at least n elements; mirrored for BA."""
    a, pi_a = ctx.a, ctx.pi_a
    ab, ba = ctx.fibers(ctx.mul(a, b)), ctx.fibers(ctx.mul(b, a))
    for n, level, _ in ctx.levels(b):
        if any(ab[c] < n for c in ctx.mul(pi_a, level).elements):
            return False
        if any(ba[c] < n for c in ctx.mul(level, pi_a).elements):
            return False
    return True


def containment_check(a: GSubset, b: GSubset, q: QuotientStructure) -> bool:
    """Verify pi(A) * level_t(B) lands inside the t-superlevel of AB (both sides).

    True for every valid input; a False return is a bug detector, not an
    expected outcome.
    """
    return check_containment(InstanceContext(a, q, b), b)
