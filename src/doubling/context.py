"""The evaluation context of one instance, in two layers.

`SubsetContext` holds all that reads no quotient, so an exhaustive scan
builds one per subset of a group and shares it among the instances of every
normal subgroup.  `InstanceContext` reads it under the quotient by one
normal subgroup, on the points of the quotient's law.  All sizes are integer
counts: the weights are uniform, so they cancel from every comparison and
enter only where a report is written.
"""

from __future__ import annotations

from functools import cached_property

from .quotients import QuotientStructure
from .sets import GSubset, inv_set, mul_set, require_owner


class once(cached_property):
    """`functools.cached_property` without the lock Python 3.11 takes on each
    first read: the value shadows this descriptor, and a test may set its own."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class Memo(dict):
    """form(*key) by key: each value is formed at its first lookup and kept."""

    __slots__ = ("form",)  # no instance dict: a scan holds one memo per subset layer

    def __init__(self, form) -> None:  # empty, as `dict.__new__` made it
        self.form = form

    def __missing__(self, key: tuple):
        value = self[key] = self.form(*key)
        return value


def points(x: GSubset) -> frozenset:
    """X's elements as points of its group's law."""
    return frozenset(x.owner.law.points(x.elements))


def _mul(x_owner, x: frozenset, y_owner, y: frozenset) -> GSubset:
    return mul_set(GSubset(x_owner, x), GSubset(y_owner, y))


class SubsetContext:
    """A with optional partners B and C and translators (g, h), in one group.

    Product sets are memoized by their operands' groups and elements; `symmetric`,
    `square` and `inv_square` are the `DoublingStats` counts, and `ruzsa`
    holds the ruzsa-axioms (record, violations) once that suite ran."""

    def __init__(self, a: GSubset, b: GSubset | None = None, c: GSubset | None = None, translators=None):
        self.a, self.b, self.c, self.translators, self.ruzsa = a, b, c, translators, None
        self._products = Memo(_mul)

    def mul(self, x: GSubset, y: GSubset) -> GSubset:
        return self._products[x.owner, x.elements, y.owner, y.elements]

    @once
    def inverse(self) -> GSubset:
        return inv_set(self.a)

    @once
    def symmetric(self) -> bool:
        return self.a.elements == self.inverse.elements

    @once
    def square(self) -> int:
        return len(self.mul(self.a, self.a).elements)

    @once
    def inv_square(self) -> int:
        return len(self.mul(self.inverse, self.a).elements)


def _levels(fibers: dict) -> list[tuple[int, frozenset, int]]:
    """(n, the cosets a set meets in >= n elements, its elements in them) per realized n, increasing."""
    counts = sorted(fibers.values())
    return [(n, frozenset([c for c, k in fibers.items() if k >= n]), sum(counts[i:]))
            for i, n in enumerate(counts) if i == 0 or n != counts[i - 1]]


class InstanceContext:
    """A subset layer, `shared`, under the quotient `q`: `a` is A (with its
    partner `b`, A itself if none is given) or a `SubsetContext` holding them.
    Cosets are points of `law`, the quotient's.  A's levels, pi(A) (its lowest
    level) and |pi(A)^2| are built at once, the rest on first use; each level
    and product is built once."""

    def __init__(self, a: GSubset | SubsetContext, q: QuotientStructure, b: GSubset | None = None) -> None:
        self.shared = a if isinstance(a, SubsetContext) else SubsetContext(a, b)
        self.a, self.q, self.law = self.shared.a, q, q.quotient.law
        self.b = self.a if self.shared.b is None else self.shared.b
        require_owner(self.a, q.ambient)
        self.product = Memo(self.law.product)
        self.levels_a = _levels(self.fibers(self.a))
        self.pi_a = self.levels_a[0][1] if self.levels_a else frozenset()
        self.pi_square = len(self.product[self.pi_a, self.pi_a])

    def fibers(self, x: GSubset) -> dict:
        """Coset -> |X meet coset| over the cosets X meets."""
        out: dict = {}
        for c in self.law.points(map(self.q.project, x.elements)):
            out[c] = out.get(c, 0) + 1
        return out

    @once
    def ab_ba(self) -> tuple[GSubset, GSubset]:
        return self.shared.mul(self.a, self.b), self.shared.mul(self.b, self.a)

    @once
    def spill(self) -> list[tuple[int, set, set]]:
        """(n, pi(A) L, L pi(A)) per level (n, L) of B: what spillover and containment read."""
        pi_a, product = self.pi_a, self.product
        levels = self.levels_a if self.b is self.a else _levels(self.fibers(self.b))
        return [(n, product[pi_a, level], product[level, pi_a]) for n, level, _ in levels]

    @once
    def thresholds(self) -> list[tuple[int, frozenset, int, int, int]]:
        """(n, level L, |L|, |L L|, |B_n|) per level of A, B_n being A meet
        the preimage of L: with |A| and |A^2|, all that extraction reads."""
        return [(n, lv, len(lv), len(self.product[lv, lv]), held) for n, lv, held in self.levels_a]
