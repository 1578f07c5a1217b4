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
    and w_H as weight_num/weight_den, and B itself.  The measures are exact
    properties."""

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
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not ctx.a.elements:
        raise ValueError("extraction needs a nonempty subset")
    size, a2 = len(ctx.a.elements), ctx.square
    return [
        row for row in ctx.thresholds
        if row[3] * size * alpha.denominator < alpha.numerator * a2 * row[2]
    ]


def admissible_thresholds(a: GSubset, q: QuotientStructure, alpha: Fraction) -> list[Fraction]:
    """Realized fiber values whose superlevel set already has small doubling."""
    rows = _admissible_rows(InstanceContext(a, q), Fraction(alpha))
    return [n * q.subgroup_weight for n, *_ in rows]


def certify(ctx: InstanceContext, alpha: Fraction) -> ExtractionCertificate:
    """Build the certified structure set for one alpha.

    Prefers the smallest admissible threshold (largest B); if that one missed
    the measure floor, scans upward.  Exhausting the admissible set without a
    valid certificate contradicts the underlying theorem and raises with a
    replay payload.
    """
    a, q = ctx.a, ctx.q
    admissible = _admissible_rows(ctx, alpha)
    w, size = q.subgroup_weight, len(a.elements)
    if not admissible:
        raise ConsistencyError(
            "no admissible threshold: contradiction with the extraction theorem",
            {"alpha": fmt(alpha), "subset": a.encode()},
        )
    levels = tuple(row[0] for row in admissible)
    for n, level, level_size, level_square in admissible:
        b = q.restrict_to_cosets(a, level.elements)
        # mu(B) > (alpha-1)/alpha * mu(A), cross-multiplied
        if len(b.elements) * alpha.numerator > (alpha.numerator - alpha.denominator) * size:
            return ExtractionCertificate(
                alpha.numerator, alpha.denominator, size, ctx.square, n, len(b.elements),
                level_size, level_square, levels, w.numerator, w.denominator, b,
            )
    raise ConsistencyError(
        "no admissible threshold satisfies the measure bound: implementation bug",
        {"alpha": fmt(alpha), "subset": a.encode(), "admissible": [fmt(n * w) for n in levels]},
    )


def extract_subset(a: GSubset, q: QuotientStructure, alpha: Fraction) -> ExtractionCertificate:
    """Build the certified structure set for one alpha; see `certify`."""
    return certify(InstanceContext(a, q), Fraction(alpha))


def threshold_trace(ctx: InstanceContext, alpha: Fraction) -> list[str]:
    """One human-readable line per row of the threshold table `certify` reads."""
    admissible = {row[0] for row in _admissible_rows(ctx, alpha)}
    w_h, w_q = ctx.q.subgroup_weight, ctx.q.quotient_weight
    k = Fraction(ctx.square, len(ctx.a.elements))
    return [
        f"s={fmt(n * w_h)}: mu_Q(level^2)={fmt(square * w_q)} "
        f"vs alpha*K*mu_Q(level)={fmt(alpha * k * size * w_q)} -> "
        + ("admissible" if n in admissible else "rejected")
        for n, _, size, square in ctx.thresholds
    ]
