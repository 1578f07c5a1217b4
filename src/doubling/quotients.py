"""Normal subgroups, quotient groups, and the Fubini weight convention.

Weights are arranged so that w_Q * w_H = w_G exactly: summing the subgroup
measure of each fiber against the quotient weight recovers the ambient
measure of any subset.  A quotient of a finite group materializes its coset
table; a projection quotient of a product group drops coordinates and works
for lazy ambient groups as long as the dropped factors are finite.
Subgroups are found on the points of `group.law`, table indices up to
TABLE_CAP: `closure`, `_generators` and the lattice walk them with
`groups._grow`, and `quotient` walks the cosets once (`_cosets`), checking
normality on the generators that walk picked and forming gH alone; it gives
the quotient's table and identity, which nothing checks again.  The lattice
is computed on each call; a command asks once per group.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from operator import itemgetter

from .errors import CapError, ConsistencyError, SpecError, integer
from .groups import TABLE_CAP, CayleyTable, ProductGroup, TableGroup, WeightedGroup, _grow, _resolve_weight
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


def _cosets(law, h: set, gens: list, order: int) -> tuple[dict, list] | None:
    """(point -> coset index, representatives) of the left cosets gH of the
    subgroup H = <gens> in a group of `order` elements, numbered in order of
    first appearance along the canonical enumeration; None at the first
    representative r with rHr^-1 != H, which holds iff r gens r^-1 lies in H;
    g = rh gives gHg^-1 = rHr^-1, so one r per coset is checked, and gH alone
    is formed.  The walk stops when the cosets cover the group."""
    coset_of: dict = {}
    reps: list = []
    for g in law.all_points():
        if g in coset_of:
            continue
        if not law.product(law.product([g], gens), list(law.inverse([g]))) <= h:
            return None
        coset_of.update(dict.fromkeys(law.product([g], h), len(reps)))
        reps.append(g)
        if len(coset_of) == order:
            break
    return coset_of, reps


def _subgroup_lattice(group: WeightedGroup) -> tuple[list[frozenset], list[frozenset]]:
    """(all subgroup handle-sets, normal handle-sets), each in canonical order.

    Runs on the points of `group.law`.  Every subgroup is reached from {e} by
    adding one generator at a time, growing from the subgroup it extends, and
    remembers its generator list.  <H, g> = <H, hg> for h in H, so one g per
    right coset of H is tried."""
    if group.order is None:
        raise ValueError("subgroup enumeration needs a finite group")
    if group.order > TABLE_CAP:
        raise CapError(f"subgroup enumeration capped at order {TABLE_CAP}, got {group.order}")
    law = group.law
    gens_of = {frozenset([law.identity]): []}
    queue = list(gens_of)
    while queue:
        sub = queue.pop()
        covered = set(sub)
        for g in law.all_points():
            if g in covered:
                continue
            covered |= law.product(sub, [g])
            bigger, gens = set(sub), list(gens_of[sub])
            _grow(law, bigger, gens, [g])
            bigger = frozenset(bigger)
            if bigger not in gens_of:
                gens_of[bigger] = gens
                queue.append(bigger)

    # points follow the canonical enumeration, so they sort as the handles do
    subs = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    handles = [law.handles(s) for s in subs]
    # H is normal iff generators of G conjugate generators of H into H
    outer = [(g, list(law.inverse([g]))) for g in gens_of[max(gens_of, key=len)]]
    return handles, [
        h for s, h in zip(subs, handles)
        if all(law.product(law.product([g], gens_of[s]), ginv) <= s for g, ginv in outer)
    ]


def normal_subgroups(group: WeightedGroup) -> list[GSubset]:
    """All normal subgroups of a finite group, {e} and G included, canonical order."""
    return [GSubset(group, h) for h in _subgroup_lattice(group)[1]]


class QuotientStructure:
    """A normal subgroup, its quotient group, the projection, and both weights."""

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
    # the quotient's table has at most TABLE_CAP rows; refuse more cosets
    # before the O(|G|) normality check and coset enumeration
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
    cosets = _cosets(law, h, gens, group.order)
    if cosets is None:
        raise SpecError("/elements", "subgroup is not normal in the ambient group")

    # cosets numbered by first appearance; the coset of e is the identity
    coset_of, reps = cosets
    mul = law.mul
    table = CayleyTable([[coset_of[mul(r, s)] for s in reps] for r in reps], None, coset_of[law.identity])
    # where the points are the handles, the coset map is the projection
    elements = law.elements if isinstance(law, CayleyTable) else None
    proj = coset_of if elements is None else {elements[p]: c for p, c in coset_of.items()}
    qgroup = TableGroup(table, weight=group.weight / w_h, name=f"{group.name}/H{len(h_elems)}")
    return QuotientStructure(group, h_subset, qgroup, proj.__getitem__, w_h)


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
        return quotient(group, elems, desc.get("weight", "counting"))
    except SpecError as exc:
        raise exc.under(path) from None
    except ValueError as exc:
        raise SpecError(path, str(exc)) from exc
