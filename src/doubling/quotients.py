"""Normal subgroups, quotient groups, and the Fubini weight convention.

Weights are arranged so that w_Q * w_H = w_G exactly: summing the subgroup
measure of each fiber against the quotient weight recovers the ambient
measure of any subset.  A quotient of a finite group materializes its coset
table; a projection quotient of a product group drops coordinates and works
for lazy ambient groups as long as the dropped factors are finite.
Subgroups are found on the points of `group.law`, table indices up to
TABLE_CAP, by `groups._grow`: `closure` and `_generators` walk from {e}, and
`normal_subgroups` grows the normal closure of each conjugacy class and
joins them, so every set it builds is normal without a test.  Normality has
one test, `_conjugates_into`, which `quotient` runs on its coset
representatives.  A scan asks for one lattice per group structure and builds
its subgroups' quotients with `_quotient_by` alone, untested.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, prod
from operator import itemgetter

from .errors import CapError, ConsistencyError, SpecError, integer
from .groups import TABLE_CAP, CayleyTable, ProductGroup, TableGroup, WeightedGroup, _grow, _resolve_weight, once
from .rationals import fmt
from .sets import GSubset, decode_elements, require_owner, subset


def closure(group: WeightedGroup, seed: Iterable) -> frozenset:
    """Subgroup generated by `seed`: the identity's orbit under right
    multiplication by the seed (in a finite group, products reach inverses)."""
    law = group.law
    reached = {law.identity}
    _grow(law, reached, [], law.points(seed))
    return law.handles(reached)


def _generators(law, h: set) -> list | None:
    """The generators `_grow` picks on its walk from {e} over the finite point
    set H, or None if H is not a subgroup (not closed under products).  Each
    one at least doubles the subgroup reached: at most log2|H| of them, for
    O(|H| log |H|) products.  The walk stops at the first layer that leaves
    H, so this ends on infinite groups too."""
    gens: list = []
    return gens if law.identity in h and _grow(law, {law.identity}, gens, h, h) else None


def _cosets(law, h: set, order: int) -> tuple[dict, list]:
    """(point -> coset index, representatives) of the left cosets gH of the
    subgroup H in a group of `order` elements, by first appearance in the
    canonical enumeration; each gH is formed once, until they cover the group."""
    coset_of: dict = {}
    reps: list = []
    for g in law.all_points():
        if g in coset_of:
            continue
        coset_of.update(dict.fromkeys(law.product([g], h), len(reps)))
        reps.append(g)
        if len(coset_of) == order:
            break
    return coset_of, reps


def _conjugates_into(law, h: set, h_gens: list, g_gens: Iterable) -> bool:
    """Is g x g^-1 in H for every g in `g_gens` and x in `h_gens`: for finite
    H = <h_gens> and G = <H, g_gens>, is H normal in G?"""
    return all(law.product(law.product([g], h_gens), list(law.inverse([g]))) <= h for g in g_gens)


def normal_subgroups(group: WeightedGroup) -> list[GSubset]:
    """All normal subgroups of a finite group, {e} and G included, canonical order.

    Runs on the points of `group.law`.  K_x, the normal closure of x's
    conjugacy class, is grown by `_grow` once per class and given to each
    power of a member that generates the same cyclic subgroup.  The walk
    from {e} joins each normal subgroup N it reaches with K_x, and rests on
    two facts: the product N K of two normal subgroups is a normal subgroup,
    so nothing needs a normality test; and N K_x is the least normal subgroup
    holding N and x, so it depends on x only through the coset N x, and one x
    per coset is tried.  Every normal M is found: from {e}, joining any x of M not yet
    reached stays inside M, and the chain ends at M."""
    if group.order is None:
        raise ValueError("subgroup enumeration needs a finite group")
    if group.order > TABLE_CAP:
        raise CapError(f"subgroup enumeration capped at order {TABLE_CAP}, got {group.order}")
    law = group.law
    conjugators = [(g, g_inv) for g in law.all_points() for g_inv in law.inverse([g])]
    closure_of: dict = {}
    for x in law.all_points():
        if x not in closure_of:
            cls = {law.mul(law.mul(g, x), g_inv) for g, g_inv in conjugators}
            k = {law.identity}
            _grow(law, k, [], cls)
            k = list(k)
            for y in cls:  # y^j for j prime to y's order generates <y>, so has its closure
                powers = [y]
                while powers[-1] != law.identity:
                    powers.append(law.mul(powers[-1], y))
                closure_of.update((z, k) for j, z in enumerate(powers, 1) if gcd(j, len(powers)) == 1)
    found = {frozenset([law.identity])}
    queue = list(found)
    while queue:
        sub = queue.pop()
        covered = set(sub)
        for x in law.all_points():
            if x not in covered:
                covered |= law.product(sub, [x])
                bigger = frozenset(law.product(sub, closure_of[x]))
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    # points follow the canonical enumeration, so they sort as the handles do
    return [GSubset(group, law.handles(s)) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


class QuotientStructure:
    """A normal subgroup, its quotient group, the projection (of handles; `coset` of points), and both weights."""

    def __init__(
        self,
        ambient: WeightedGroup,
        subgroup: GSubset,
        quotient_group: WeightedGroup,
        project: Callable,
        subgroup_weight: Fraction,
    ) -> None:
        self.ambient = ambient
        self.subgroup = subgroup
        self.quotient = quotient_group
        self.project = project
        self.subgroup_weight = subgroup_weight
        self.quotient_weight = quotient_group.weight
        product = self.quotient_weight * subgroup_weight
        if product != ambient.weight:
            raise ConsistencyError(
                f"Fubini weights mismatch: w_Q * w_H = {fmt(product)}, w_G = {fmt(ambient.weight)}"
            )

    @once
    def coset(self) -> Callable:
        """`project` read on points: a point's handle, projected, as a point of the quotient's law."""
        f, handle, point = self.project, self.ambient.law.elements, self.quotient.law.index
        f = f if handle is None else lambda p, f=f, handle=handle.__getitem__: f(handle(p))
        return f if point is None else lambda p, f=f, point=point.__getitem__: point(f(p))

    def image(self, a: GSubset) -> GSubset:
        """pi(A) as a subset of the quotient group."""
        require_owner(a, self.ambient)
        proj = self.project
        return GSubset(self.quotient, frozenset(proj(x) for x in a.elements))

    def restrict_to_cosets(self, a: GSubset, cosets: frozenset) -> GSubset:
        """A intersected with the preimage of a set of cosets."""
        proj = self.project
        return GSubset(a.owner, frozenset(x for x in a.elements if proj(x) in cosets))

    def coset_subset(self, cosets: Iterable) -> GSubset:
        return GSubset(self.quotient, frozenset(cosets))


def quotient(
    group: WeightedGroup,
    sub: GSubset | Iterable,
    subgroup_weight: str = "counting",
) -> QuotientStructure:
    """Quotient of a finite group by a normal subgroup; cosets become elements.

    `subgroup_weight` picks w_H (counting: 1, normalized: 1/|H|); the quotient
    weight is then forced to w_G / w_H.  A mode other than these two is a
    SpecError at "/weight", and a set that is not a normal subgroup one at
    "/elements".  More than TABLE_CAP cosets raise CapError.
    """
    if group.order is None:
        raise ValueError("general quotients need a finite ambient group; use projection_quotient")
    if isinstance(sub, GSubset):  # its elements are the owner's: no second check
        require_owner(sub, group)
    h_subset = GSubset(group, sub.elements) if isinstance(sub, GSubset) else subset(group, sub)
    h_elems = h_subset.elements
    # the quotient's table has at most TABLE_CAP rows: refuse more cosets before walking them
    if h_elems and group.order > TABLE_CAP * len(h_elems):
        raise CapError(
            f"quotient index |G|/|H| = {group.order}/{len(h_elems)} is above the cap {TABLE_CAP}"
        )
    law = group.law
    h = set(law.points(h_elems))
    gens = _generators(law, h)
    if gens is None:
        raise SpecError("/elements", "not a subgroup: missing identity or not closed under the operation")
    w_h = _resolve_weight(subgroup_weight, len(h_elems))
    cosets = _cosets(law, h, group.order)
    if not _conjugates_into(law, h, gens, cosets[1]):  # H and the representatives generate G
        raise SpecError("/elements", "subgroup is not normal in the ambient group")
    return _quotient_by(group, h_subset, w_h, cosets)


def _quotient_by(group: WeightedGroup, h_subset: GSubset, w_h: Fraction, cosets=None) -> QuotientStructure:
    """G/H for H known normal: from `normal_subgroups`, or checked by `quotient`
    on its walk `cosets` (else walked here).  The coset of e is the identity."""
    law = group.law
    coset_of, reps = cosets or _cosets(law, set(law.points(h_subset.elements)), group.order)
    if isinstance(law, CayleyTable):  # row r of the quotient reads G's row r through the coset map
        rows = [[coset_of[row[s]] for s in reps] for row in map(law.rows.__getitem__, reps)]
    else:
        rows = [[coset_of[law.mul(r, s)] for s in reps] for r in reps]
    table = CayleyTable(rows, None, coset_of[law.identity])
    qgroup = TableGroup(table, weight=group.weight / w_h, name=f"{group.name}/H{len(h_subset.elements)}")
    coset = coset_of.__getitem__  # where the points are the handles, it is the projection
    project = coset if law.index is None else lambda x, index=law.index: coset_of[index[x]]
    q = QuotientStructure(group, h_subset, qgroup, project, w_h)
    q.coset = coset
    return q


def projection_quotient(group: ProductGroup, keep: Sequence[int]) -> QuotientStructure:
    """Quotient of a product group by the product of its dropped factors.

    `keep` lists the indices of the kept factors; every error about it is a
    SpecError at "/keep".  The kernel (all dropped factors) must be
    finite-enumerable; kept factors may be lazy.  Weights multiply per
    factor, so Fubini holds automatically.
    """
    if not isinstance(keep, (list, tuple)):
        raise SpecError("/keep", "expected a list of factor indices")
    for i in keep:
        integer(i, "/keep")
    if not isinstance(group, ProductGroup):
        raise SpecError("/keep", "projection quotients are defined for product groups")
    keep_idx = sorted(set(keep))
    if not keep_idx:
        raise SpecError("/keep", "keep set must be nonempty")
    if keep_idx[0] < 0 or keep_idx[-1] >= len(group.factors):
        raise SpecError("/keep", f"keep indices out of range 0..{len(group.factors) - 1}")
    drop_idx = [i for i in range(len(group.factors)) if i not in keep_idx]
    for i in drop_idx:
        if group.factors[i].order is None:
            raise SpecError("/keep", f"dropped factor {i} is infinite; kernel must be finite")
    w_h = prod((group.factors[i].weight for i in drop_idx), start=Fraction(1))
    pools = [
        list(f.elements()) if i in drop_idx else [f.identity] for i, f in enumerate(group.factors)
    ]
    kernel = frozenset(iter_product(*pools))
    if len(keep_idx) == 1:
        qgroup: WeightedGroup = group.factors[keep_idx[0]]
    else:
        qgroup = ProductGroup([group.factors[i] for i in keep_idx])
    # one kept index projects to the factor's handle, several to a tuple
    project = itemgetter(*keep_idx)
    return QuotientStructure(group, GSubset(group, kernel), qgroup, project, w_h)


def quotient_from_description(group: WeightedGroup, desc: dict, path: str = "") -> QuotientStructure:
    """The quotient an instance id's subgroup describes: {"keep": [...]} for a
    projection, or {"elements": [...], "weight": ...} for a normal subgroup.
    `projection_quotient` and `quotient` check the values they read; their
    SpecErrors are put under `path`, and any other ValueError (a quotient
    above the cap, or of an infinite group) is reported at `path`."""
    try:
        if not isinstance(desc, dict):
            raise SpecError("", "subgroup description must be an object")
        if "keep" in desc:
            if set(desc) != {"keep"}:
                raise SpecError("", 'projection description allows only the key "keep"')
            return projection_quotient(group, desc["keep"])
        if set(desc) - {"elements", "weight"}:
            raise SpecError("", 'expected keys "elements" (+ optional "weight") or "keep"')
        elems = decode_elements(group, desc.get("elements"), "/elements")
        return quotient(group, GSubset(group, elems), desc.get("weight", "counting"))
    except SpecError as exc:
        raise exc.under(path) from None
    except ValueError as exc:
        raise SpecError(path, str(exc)) from exc
