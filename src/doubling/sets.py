"""Finite subsets of a weighted group and exact product/inverse set arithmetic."""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .errors import SpecError
from .groups import WeightedGroup


class GSubset:
    """A finite set of group elements with exact rational measure.

    Equality and hashing are by identity, and `InstanceContext` keys its
    memos on `owner` identity; compare `elements` for set equality."""

    __slots__ = ("owner", "elements")

    def __init__(self, owner: WeightedGroup, elements: frozenset = frozenset()) -> None:
        self.owner = owner
        self.elements = elements

    @property
    def measure(self) -> Fraction:
        return len(self.elements) * self.owner.weight

    def __len__(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    def encode(self) -> list:
        """Canonically ordered JSON form of the element list."""
        return [self.owner.encode_element(x) for x in self.sorted_elements()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GSubset |A|={len(self.elements)} of {self.owner.name}>"


def subset(group: WeightedGroup, elems: Iterable) -> GSubset:
    """Validated construction: every element must belong to the group."""
    out = frozenset(elems)
    for x in out:
        if not group.contains(x):
            raise ValueError(f"{x!r} is not an element of {group.name}")
    return GSubset(group, out)


def decode_subset(group: WeightedGroup, doc: object, path: str = "") -> GSubset:
    """Parse a subset-spec: {"elements": [...]} with handles encoded per kind."""
    if not isinstance(doc, dict) or set(doc) != {"elements"}:
        raise SpecError(path, 'subset spec must be an object with exactly the key "elements"')
    return decode_nonempty(group, doc["elements"], f"{path}/elements")


def decode_nonempty(group: WeightedGroup, items: object, path: str) -> GSubset:
    """A subset read from a JSON list of encoded handles, which must be nonempty."""
    elems = decode_elements(group, items, path)
    if not elems:
        raise SpecError(path, "expected a nonempty list of group elements")
    return GSubset(group, elems)


def decode_elements(group: WeightedGroup, items: object, path: str) -> frozenset:
    """A JSON list of encoded handles; errors name the path of the bad item,
    built only after a failure, by decoding the list again with paths."""
    if not isinstance(items, list):
        raise SpecError(path, "expected a list")
    try:
        return frozenset(map(group.decode_element, items))
    except SpecError:
        for i, v in enumerate(items):
            group.decode_element(v, f"{path}/{i}")
        raise


def require_owner(x: GSubset, group: WeightedGroup) -> None:
    """The one rule for "x lives in group": x was built on that group object,
    or on one with the same signature and weight (a `Fraction` weight is not
    in the signature)."""
    try:
        if x.owner is group or (x.owner.signature, x.owner.weight) == (group.signature, group.weight):
            return
    except NotImplementedError:
        pass
    raise ValueError(f"subsets live in different groups: {x.owner.name} vs {group.name}")


def mul_set(a: GSubset, b: GSubset) -> GSubset:
    """Exact product set {xy : x in A, y in B}."""
    require_owner(b, a.owner)
    law = a.owner.law
    out = law.product(law.points(a.elements), law.points(b.elements))
    return GSubset(a.owner, law.handles(out))


def inv_set(a: GSubset) -> GSubset:
    """Elementwise inverse; measure is preserved."""
    law = a.owner.law
    return GSubset(a.owner, law.handles(law.inverse(law.points(a.elements))))
