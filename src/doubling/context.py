"""One evaluation context per instance: every product set computed once.

All sizes here are integer counts: the weights are uniform, so they cancel
from every comparison and enter only where a report is written.
"""

from __future__ import annotations

from collections import Counter

from .quotients import QuotientStructure
from .sets import GSubset, inv_set, mul_set


class InstanceContext:
    """A with its quotient and optional partners B and C.

    `symmetric`, `square`, `inv_square`, `pi_a` and `thresholds` read plain
    attributes that each fill on first use."""

    def __init__(self, a: GSubset, q: QuotientStructure | None = None,
                 b: GSubset | None = None, c: GSubset | None = None) -> None:
        self.a, self.q, self.b, self.c = a, q, b, c
        self._products: dict = {}
        self._inverses: dict = {}
        self._levels: dict = {}
        self._symmetric = self._square = self._inv_square = self._pi_a = self._thresholds = None

    def mul(self, x: GSubset, y: GSubset) -> GSubset:
        """X Y, memoized by owner too: pi(A) and A may have equal element sets."""
        key = (x.owner, x.elements, y.elements)
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = mul_set(x, y)
        return out

    def size(self, x: GSubset, y: GSubset) -> int:
        return len(self.mul(x, y).elements)

    def inv(self, x: GSubset) -> GSubset:
        """X^-1, memoized like `mul`."""
        key = (x.owner, x.elements)
        out = self._inverses.get(key)
        if out is None:
            out = self._inverses[key] = inv_set(x)
        return out

    def diff_size(self, x: GSubset, y: GSubset) -> int:
        """|X Y^-1|, the count behind the Ruzsa distance."""
        return self.size(x, self.inv(y))

    @property
    def inv_a(self) -> GSubset:
        return self.inv(self.a)

    @property
    def symmetric(self) -> bool:
        if self._symmetric is None:
            self._symmetric = self.a.elements == self.inv_a.elements
        return self._symmetric

    @property
    def square(self) -> int:
        if self._square is None:
            self._square = self.size(self.a, self.a)
        return self._square

    @property
    def inv_square(self) -> int:
        if self._inv_square is None:
            self._inv_square = self.size(self.inv_a, self.a)
        return self._inv_square

    @property
    def pi_a(self) -> GSubset:
        if self._pi_a is None:
            self._pi_a = self.q.image(self.a)
        return self._pi_a

    def fibers(self, x: GSubset) -> Counter:
        """Coset -> |X meet coset| over the cosets X meets."""
        q = self.q
        if x.owner is not q.ambient and x.owner.signature != q.ambient.signature:
            raise ValueError("subset does not live in the ambient group of this quotient")
        return Counter(map(q.project, x.elements))

    def levels(self, x: GSubset) -> list[tuple[int, GSubset]]:
        """(n, the cosets meeting X in at least n elements) per realized n, increasing."""
        key = (x.owner, x.elements)
        out = self._levels.get(key)
        if out is None:
            fibers = self.fibers(x)
            out = self._levels[key] = [
                (n, self.q.coset_subset(c for c, k in fibers.items() if k >= n))
                for n in sorted(set(fibers.values()))
            ]
        return out

    @property
    def thresholds(self) -> list[tuple[int, GSubset, int, int]]:
        """(n, level L, |L|, |L L|) per level of A; with |A| and |A^2| this is
        all that extraction reads, for every alpha."""
        if self._thresholds is None:
            self._thresholds = [(n, lv, len(lv.elements), self.size(lv, lv)) for n, lv in self.levels(self.a)]
        return self._thresholds
