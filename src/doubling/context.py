"""The evaluation context of one instance, in two layers.

`SubsetContext` holds all that reads no quotient, so an exhaustive scan
builds one per subset of a group and shares it among the instances of every
normal subgroup.  `InstanceContext` reads it under the quotient by one
normal subgroup, on the points of the quotient's law; a `_Packing` packs
a layer's fiber profiles under many normal subgroups into one int.  All
sizes are integer counts: the weights are uniform, so they cancel from every
comparison and enter only where a report is written.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .groups import once
from .quotients import QuotientStructure
from .rationals import put
from .sets import GSubset, require_owner


class Memo(dict):
    """form(*key) by key: each value is formed at its first lookup and kept."""

    __slots__ = ("form",)  # no instance dict: a scan holds one memo per subset layer

    def __init__(self, form) -> None:  # empty, as `dict.__new__` made it
        self.form = form

    def __missing__(self, key: tuple):
        value = self[key] = self.form(*key)
        return value


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


class SubsetContext:
    """A with optional partners B and C and translators (g, h), in one group,
    which B's must be.  A and B (A where none is given) are listed once as
    points of `law`, and A^-1, A A, A^-1 A, AB and BA formed once from them;
    `ruzsa` holds the ruzsa-axioms (record, violations) once that suite ran."""

    def __init__(self, a: GSubset, b: GSubset | None = None, c: GSubset | None = None, translators=None):
        if b is not None:
            require_owner(b, a.owner)
        self.a, self.b, self.c, self.translators, self.ruzsa = a, b, c, translators, None
        self.law = a.owner.law
        self.points = self.law.points(a.elements)

    @once
    def b_points(self) -> list:
        return self.points if self.b is None else self.law.points(self.b.elements)

    @once
    def inverse(self) -> set:
        return self.law.inverse(self.points)

    @once
    def symmetric(self) -> bool:
        return self.inverse.issuperset(self.points)  # |A^-1| = |A|

    @once
    def a_square(self) -> set:
        return self.law.product(self.points, self.points)

    @once
    def inv_square(self) -> set:
        """A^-1 A: A A where A is symmetric."""
        return self.a_square if self.symmetric else self.law.product(self.inverse, self.points)

    @once
    def ab_ba(self) -> tuple[set, set]:
        """AB and BA: A A where B is A, and BA is A^-1 A where B is A^-1."""
        a, b, inverse = self.points, self.b_points, self.inverse
        if b is a or self.b.elements == self.a.elements:
            return self.a_square, self.a_square
        ba = self.inv_square if len(b) == len(inverse) and inverse.issuperset(b) else self.law.product(b, a)
        return self.law.product(a, b), ba

    @once
    def stats(self) -> DoublingStats:
        return DoublingStats(len(self.points), len(self.a_square), len(self.inv_square), self.symmetric)


def _levels(fibers: dict) -> list[tuple[int, frozenset, int]]:
    """(n, the cosets a set meets in >= n elements, its elements in them) per realized n, increasing."""
    counts = sorted(fibers.values())
    return [(n, frozenset([c for c, k in fibers.items() if k >= n]), sum(counts[i:]))
            for i, n in enumerate(counts) if i == 0 or n != counts[i - 1]]


class InstanceContext:
    """A subset layer, `shared`, under the quotient `q`: `a` is A (with its
    partner `b`, A itself if none is given) or a `SubsetContext` holding them.
    Cosets are points of `law`, the quotient's, read off the layer's points
    by `q.coset`.  A's levels, pi(A) (its lowest level) and |pi(A)^2| are
    built at once, the rest on first use; each level and product is built once."""

    def __init__(self, a: GSubset | SubsetContext, q: QuotientStructure, b: GSubset | None = None) -> None:
        self.shared = a if isinstance(a, SubsetContext) else SubsetContext(a, b)
        self.a, self.q, self.law = self.shared.a, q, q.quotient.law
        require_owner(self.a, q.ambient)
        self.product = Memo(self.law.product)
        self.levels_a = _levels(self.fibers(self.shared.points))
        self.pi_a = self.levels_a[0][1] if self.levels_a else frozenset()
        self.pi_square = len(self.product[self.pi_a, self.pi_a])

    def fibers(self, points) -> dict:
        """Coset -> |X meet coset| over the cosets X meets, X given by its points."""
        out: dict = {}
        for c in map(self.q.coset, points):
            out[c] = out.get(c, 0) + 1
        return out

    @once
    def spill(self) -> list[tuple[int, set, set]]:
        """(n, pi(A) L, L pi(A)) per level (n, L) of B: what spillover and containment read."""
        pi_a, product = self.pi_a, self.product
        levels = self.levels_a if self.shared.b is None else _levels(self.fibers(self.shared.b_points))
        return [(n, product[pi_a, level], product[level, pi_a]) for n, level, _ in levels]

    @once
    def thresholds(self) -> list[tuple[int, frozenset, int, int, int]]:
        """(n, level L, |L|, |L L|, |B_n|) per level of A, B_n being A meet
        the preimage of L: with |A| and |A^2|, all that extraction reads."""
        return [(n, lv, len(lv), len(self.product[lv, lv]), held) for n, lv, held in self.levels_a]


class _Packing:
    """A layer's fiber profiles under the normal subgroups of some runs in one
    int: H has [G:H] w bits from its `off`, w = |H|.bit_length(), X's count at
    coset c in the w bits from c w (w bits hold a count up to |H|; a `quotient`'s
    cosets are 0..[G:H]-1), but for H = {e}: pi is G renumbered, so, as H = G, it
    has one field of |G|.bit_length() bits, the count |X| (w = 0).  So the sum
    over X's points x of the `row`, a list by point (a table's, 0..|G|-1) of the
    sum over H of 1 << off + c(x) w built at the first key, packs them all.  A
    layer packs A and, with `spill`, B, AB and BA, `width` apart; H's (off, mask)
    in `fields`, all that its results-table key holds but the stats, reads H's
    field of each, but |B| under H = {e}, which no suite reads.  The last layer
    packed is kept: a scan evaluates a layer's instances in a row."""

    def __init__(self, elems: list, runs: list, spill: bool) -> None:
        """Lay out `runs`, each (id prefix, quotient maker, |H|), and give each its (off, mask) in `fields`."""
        self.elems, self.spill, self.slices, self.row, self.layer = elems, spill, [], None, None
        layout, off = [], 0
        for _, make_quotient, size in runs:
            w = size.bit_length() if size > 1 else 0
            bits = len(elems) // size * w or len(elems).bit_length()
            self.slices.append((make_quotient, off, w))
            layout.append((off, bits, size))
            off += bits
        self.width = off
        spread = sum(1 << s * off for s in range(4))  # a mask's field at each packed set
        self.fields = [(at, ((1 << bits) - 1) * (spread if size > 1 else spread - (1 << off)))
                       for at, bits, size in layout]

    def __call__(self, shared: SubsetContext) -> int:
        if shared is not self.layer:
            if self.row is None:
                cosets = [(make_quotient().coset, off, w) for make_quotient, off, w in self.slices]
                self.row = [sum(1 << off + coset(p) * w for coset, off, w in cosets) for p in range(len(self.elems))]
            row, t = self.row.__getitem__, self.width
            self.layer, self.packed = shared, sum(map(row, shared.points))
            if self.spill:  # a scan that runs spillover or containment always draws B
                ab, ba = shared.ab_ba
                self.packed |= (sum(map(row, shared.b_points)) << t | sum(map(row, ab)) << 2 * t
                                | sum(map(row, ba)) << 3 * t)
        return self.packed
