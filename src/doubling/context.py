"""The evaluation context of one instance, in two layers.

`SubsetContext` holds all that reads no quotient, so an exhaustive scan
builds one per subset of a group and shares it among the instances of every
normal subgroup.  `InstanceContext` reads it under the quotient by one
normal subgroup and keeps its quotient products to itself.  All sizes are
integer counts: the weights are uniform, so they cancel from every
comparison and enter only where a report is written.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .quotients import QuotientStructure
from .sets import GSubset, inv_set, mul_set, require_owner


def _memo(table: dict, key, make, *args):
    out = table.get(key)
    if out is None:
        out = table[key] = make(*args)
    return out


class SubsetContext:
    """A with optional partners B and C and translators (g, h), in one group.

    Product and inverse sets are memoized by their operands' elements;
    `symmetric`, `square` and `inv_square` are the `DoublingStats` counts, and
    `ruzsa` holds the ruzsa-axioms (record, violations) once that suite ran."""

    def __init__(self, a: GSubset, b: GSubset | None = None, c: GSubset | None = None, translators=None):
        self.a, self.b, self.c, self.translators, self.ruzsa = a, b, c, translators, None
        self._products, self._inverses = {}, {}

    def mul(self, x: GSubset, y: GSubset) -> GSubset:
        return _memo(self._products, (x.elements, y.elements), mul_set, x, y)

    def inv(self, x: GSubset) -> GSubset:
        return _memo(self._inverses, x.elements, inv_set, x)

    def diff_size(self, x: GSubset, y: GSubset) -> int:
        """|X Y^-1|, the count behind the Ruzsa distance."""
        return len(self.mul(x, self.inv(y)).elements)

    def scratch(self) -> SubsetContext:
        """A shallow copy whose memos start as these and then grow apart: for
        sets that one suite alone reads, dropped with the copy."""
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), _products=dict(self._products), _inverses=dict(self._inverses))
        return out

    @cached_property
    def symmetric(self) -> bool:
        return self.a.elements == self.inv(self.a).elements

    @cached_property
    def square(self) -> int:
        return len(self.mul(self.a, self.a).elements)

    @cached_property
    def inv_square(self) -> int:
        return len(self.mul(self.inv(self.a), self.a).elements)


class InstanceContext:
    """A subset layer, `shared`, under the quotient `q`: `a` is A (with its
    partner `b`) or a `SubsetContext` holding them.  `pi_a` and `thresholds`
    fill on first use."""

    def __init__(self, a: GSubset | SubsetContext, q: QuotientStructure, b: GSubset | None = None) -> None:
        self.shared = a if isinstance(a, SubsetContext) else SubsetContext(a, b)
        self.a, self.b, self.q = self.shared.a, self.shared.b, q
        self._products, self._levels = {}, {}
        self._pi_a = self._thresholds = None

    def mul(self, x: GSubset, y: GSubset) -> GSubset:
        """X Y: memoized here for quotient subsets, by the subset layer otherwise."""
        if x.owner is self.q.quotient:
            return _memo(self._products, (x.elements, y.elements), mul_set, x, y)
        return self.shared.mul(x, y)

    def size(self, x: GSubset, y: GSubset) -> int:
        return len(self.mul(x, y).elements)

    @property
    def pi_a(self) -> GSubset:
        if self._pi_a is None:
            self._pi_a = self.q.image(self.a)
        return self._pi_a

    def fibers(self, x: GSubset) -> Counter:
        """Coset -> |X meet coset| over the cosets X meets."""
        require_owner(x, self.q.ambient)
        return Counter(map(self.q.project, x.elements))

    def levels(self, x: GSubset) -> list[tuple[int, GSubset, int]]:
        """(n, the cosets meeting X in at least n elements, how many elements
        of X those cosets hold) per realized n, increasing."""
        out = self._levels.get(x.elements)
        if out is None:
            fibers = self.fibers(x)
            counts, held = Counter(fibers.values()), len(x.elements)
            out = self._levels[x.elements] = []
            for n in sorted(counts):
                out.append((n, self.q.coset_subset(c for c, k in fibers.items() if k >= n), held))
                held -= n * counts[n]
        return out

    @property
    def thresholds(self) -> list[tuple[int, GSubset, int, int, int]]:
        """(n, level L, |L|, |L L|, |B_n|) per level of A, B_n being A meet
        the preimage of L: with |A| and |A^2|, all that extraction reads."""
        if self._thresholds is None:
            levels = self.levels(self.a)
            self._thresholds = [(n, lv, len(lv.elements), self.size(lv, lv), held) for n, lv, held in levels]
        return self._thresholds
