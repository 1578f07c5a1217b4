"""Structure-set extraction: a saturated subset keeping most of the measure
while its projection has quotient doubling below alpha * K.

For alpha > 1 the admissible thresholds are the realized fiber values s with
mu_Q(piA_s * piA_s) < alpha * K * mu_Q(piA_s); the set is never empty, and
taking the smallest admissible s yields B = preimage(piA_s) intersect A with
mu(B) > (alpha-1)/alpha * mu(A) strictly.  Both certificate inequalities are
rechecked exactly before returning.  The classical case split on whether the
admissible thresholds accumulate at zero collapses here: there are finitely
many thresholds and they are all positive.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .context import InstanceContext
from .errors import ConsistencyError
from .quotients import QuotientStructure
from .rationals import fmt, put
from .sets import GSubset


class ExtractionCertificate(namedtuple(
    "ExtractionCertificate",
    "alpha_num alpha_den size square chosen_n b_size level_size level_square admissible_n "
    "weight_num weight_den B",
)):
    """The certified set B for one alpha, held as integers: alpha as
    alpha_num/alpha_den, |A|, |A^2|, the chosen level n (threshold
    s = n * w_H), |B|, |L| and |L L| for its level L, the admissible levels
    and w_H as weight_num/weight_den, and B itself (None until `with_b`).
    The measures are exact properties."""

    __slots__ = ()

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.alpha_num, self.alpha_den)

    @property
    def subgroup_weight(self) -> Fraction:
        return Fraction(self.weight_num, self.weight_den)

    @property
    def K(self) -> Fraction:
        return Fraction(self.square, self.size)

    @property
    def chosen_s(self) -> Fraction:
        return self.chosen_n * self.subgroup_weight

    @property
    def measure_ratio(self) -> Fraction:
        """mu(B) / mu(A)"""
        return Fraction(self.b_size, self.size)

    @property
    def quotient_doubling(self) -> Fraction:
        """mu_Q(piB^2) / mu_Q(piB)"""
        return Fraction(self.level_square, self.level_size)

    def to_json(self, include_elements: bool = True) -> dict:
        an, ad = self.alpha_num, self.alpha_den
        wn, wd = self.weight_num, self.weight_den
        out: dict = {"B_size": self.b_size}
        put(out, "alpha", an, ad)
        put(out, "K", self.square, self.size)
        put(out, "chosen_s", self.chosen_n * wn, wd)
        put(out, "measure_ratio", self.b_size, self.size)
        put(out, "quotient_doubling", self.level_square, self.level_size)
        put(out, "measure_floor", an - ad, an)
        put(out, "doubling_ceiling", an * self.square, ad * self.size)
        out["admissible"] = [fmt(n * wn, wd) for n in self.admissible_n]
        if include_elements:
            out["B"] = self.B.encode()
        return out


def _admissible_rows(ctx: InstanceContext, alpha: Fraction) -> list[tuple]:
    """Threshold rows with mu_Q(L*L) < alpha * K * mu_Q(L), cross-multiplied over integers."""
    an, ad = alpha.numerator, alpha.denominator
    if an <= ad:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not ctx.a.elements:
        raise ValueError("extraction needs a nonempty subset")
    size, a2 = len(ctx.a.elements), ctx.shared.square
    return [row for row in ctx.thresholds if row[3] * size * ad < an * a2 * row[2]]


def admissible_thresholds(a: GSubset, q: QuotientStructure, alpha: Fraction) -> list[Fraction]:
    """Realized fiber values whose superlevel set already has small doubling."""
    rows = _admissible_rows(InstanceContext(a, q), Fraction(alpha))
    return [n * q.subgroup_weight for n, *_ in rows]


def certify(ctx: InstanceContext, alpha: Fraction) -> ExtractionCertificate:
    """Certify the structure set for one alpha from the threshold counts; `with_b` adds B.

    Takes the smallest admissible threshold (largest B): if it misses the
    measure floor, every later one does, as |B_n| strictly falls when n rises.
    A miss, or no admissible threshold, contradicts the underlying theorem and
    raises with a replay payload.
    """
    admissible = _admissible_rows(ctx, alpha)
    an, ad, w, size = alpha.numerator, alpha.denominator, ctx.q.subgroup_weight, len(ctx.a.elements)
    if not admissible:
        raise ConsistencyError(
            "no admissible threshold: contradiction with the extraction theorem",
            {"alpha": fmt(alpha), "subset": ctx.a.encode()},
        )
    levels = tuple([row[0] for row in admissible])
    n, _, level_size, level_square, b_size = admissible[0]
    # mu(B) > (alpha-1)/alpha * mu(A), cross-multiplied
    if b_size * an > (an - ad) * size:
        return ExtractionCertificate(
            an, ad, size, ctx.shared.square, n, b_size,
            level_size, level_square, levels, w.numerator, w.denominator, None,
        )
    raise ConsistencyError(
        "no admissible threshold satisfies the measure bound: implementation bug",
        {"alpha": fmt(alpha), "subset": ctx.a.encode(), "admissible": [fmt(n * w) for n in levels]},
    )


def with_b(ctx: InstanceContext, cert: ExtractionCertificate) -> ExtractionCertificate:
    """`cert` with B itself: A meet the preimage of its chosen level."""
    level = next(lv for n, lv, *_ in ctx.thresholds if n == cert.chosen_n)
    return cert._replace(B=ctx.q.restrict_to_cosets(ctx.a, ctx.law.handles(level)))


def extract_subset(a: GSubset, q: QuotientStructure, alpha: Fraction) -> ExtractionCertificate:
    """Build the certified structure set for one alpha, B included; see `certify`."""
    ctx = InstanceContext(a, q)
    return with_b(ctx, certify(ctx, Fraction(alpha)))


def threshold_trace(ctx: InstanceContext, cert: ExtractionCertificate) -> list[str]:
    """One human-readable line per row of the threshold table `certify` read, each marked as `cert` records it."""
    alpha, admissible = cert.alpha, frozenset(cert.admissible_n)
    w_h, w_q = ctx.q.subgroup_weight, ctx.q.quotient_weight
    k = Fraction(ctx.shared.square, len(ctx.a.elements))
    return [
        f"s={fmt(n * w_h)}: mu_Q(level^2)={fmt(square * w_q)} "
        f"vs alpha*K*mu_Q(level)={fmt(alpha * k * size * w_q)} -> "
        + ("admissible" if n in admissible else "rejected")
        for n, _, size, square, _ in ctx.thresholds
    ]
