"""Reference computations the tests check the package against.

None of these runs on a command path: each is an independent or brute-force
statement of a fact that the package computes another way (the coset
criterion, the combinatorial counts behind the sharpness witness, the Cantor
analog, normality), or a small group the tests build by hand.  Test modules
import them as `from oracles import ...`; pytest does not collect this file.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import groupby

from doubling.constructions import _GL2Z, _cantor, matrix_family
from doubling.errors import ConsistencyError
from doubling.groups import CyclicGroup, TableGroup, WeightedGroup, quaternion_table
from doubling.harness import ScanConfig, _group, canonical_json
from doubling.quotients import QuotientStructure, _cosets, _generators, normal_subgroups
from doubling.rationals import fmt
from doubling.sets import GSubset, translate


def quaternion_group(weight: str | Fraction = "counting") -> TableGroup:
    return TableGroup(quaternion_table(), weight=weight, name="Q8")


def is_subgroup(group: WeightedGroup, elems: frozenset) -> bool:
    """Is the finite set H a subgroup: the walk `quotient` takes (`_generators`)."""
    return _generators(group.law, set(group.law.points(elems))) is not None


def is_normal(group: WeightedGroup, elems: frozenset) -> bool:
    """Is the subgroup `elems` normal: gH = Hg for every g?"""
    if group.order is None:
        raise ValueError("normality check needs a finite ambient group")
    law = group.law
    h = set(law.points(elems))
    return _cosets(law, h, _generators(law, h), group.order) is not None


def packed_profile(q: QuotientStructure, x: GSubset) -> int:
    """X's fiber profile under q packed into one int from its counts: the
    count n at coset c in the w bits from bit c * w, w = |H|.bit_length()."""
    w = len(q.subgroup.elements).bit_length()
    return sum(n << c * w for c, n in Counter(map(q.project, x.elements)).items())


def whole_ids(config: ScanConfig, built: list) -> list[str]:
    """The ids of a scan, each rendered whole as `canonical_json` of its spec
    dict, from the layers `iter_instance_specs` built.  Its entries come in
    one run per (group, normal subgroup), each run sharing a quotient maker."""
    runs = [list(run) for _, run in groupby(built, key=lambda entry: id(entry[1]))]
    pairs = []
    for gspec in config.groups:
        group = _group(canonical_json(gspec))
        subs = normal_subgroups(group)
        if config.subgroups == "proper":
            subs = [s for s in subs if 1 < len(s.elements) < group.order]
        pairs.extend((gspec, group, sub) for sub in subs)
    if len(runs) != len(pairs):
        raise ValueError(f"{len(runs)} runs of layers for {len(pairs)} normal subgroups")
    ids = []
    for (gspec, group, sub), run in zip(pairs, runs):
        base = {"group": gspec, "subgroup": {"elements": sub.encode(), "weight": config.subgroup_weight},
                "suites": list(config.suites)}
        if "extract" in config.suites:
            base["alphas"] = [fmt(a) for a in config.alphas]
        for shared, *_ in run:
            named = (("subset", shared.a), ("subset_b", shared.b), ("subset_c", shared.c))
            fields = {key: x.encode() for key, x in named if x is not None}
            if shared.translators is not None:
                fields["translate"] = [group.encode_element(x) for x in shared.translators]
            ids.append(canonical_json({**base, **fields}))
    return ids


def is_coset_of_subgroup(group: WeightedGroup, elems: frozenset) -> bool:
    """Is A a (left or right) coset of some subgroup?

    Equivalent test: a0^-1 A is a subgroup for any fixed a0 in A.
    """
    if not elems:
        return False
    ia0 = group.inv(min(elems))
    return is_subgroup(group, translate(GSubset(group, elems), left=ia0).elements)


def coset_criterion_scan(group: WeightedGroup) -> tuple[int, list[tuple]]:
    """Exhaustively verify: d(A,A) = 0 iff A is a coset of a subgroup.

    Runs over every nonempty subset of a finite group.  The left side is the
    product-set count |A A^-1| == |A|; the right side is the independent
    closure test.  Returns (number of subsets checked, mismatch witnesses).
    """
    n = group.order
    if n is None:
        raise ValueError("exhaustive scan needs a finite group")
    law = group.law
    elems = list(group.elements())
    pts = list(law.all_points())

    mismatches: list[tuple] = []
    for mask in range(1, 1 << n):
        members = [p for i, p in enumerate(pts) if mask >> i & 1]
        distance_zero = len(law.product(members, list(law.inverse(members)))) == len(members)
        h = law.product(law.inverse(members[:1]), members)
        coset = law.product(h, list(h)) <= h
        if distance_zero != coset:
            mismatches.append(tuple(x for i, x in enumerate(elems) if mask >> i & 1))
    return (1 << n) - 1, mismatches


def powers_diff_count(n: int) -> int:
    """|S - S| for S = {2^k : 1 <= k <= n}, by brute force over all pairs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    s = [2 ** k for k in range(1, n + 1)]
    diffs = {a - b for a in s for b in s}
    expected = n * (n - 1) + 1
    if len(diffs) != expected:
        raise ConsistencyError(
            f"power difference count: got {len(diffs)}, expected {expected}", {"n": n}
        )
    return len(diffs)


def matrix_family_square_count(n: int) -> int:
    """|(I u M)^2| by brute force with arbitrary-precision matrix products."""
    fam = matrix_family(n)
    gens = (fam.identity,) + fam.members
    products = {_GL2Z.op(x, y) for x in gens for y in gens}
    expected = 4 * n * n + 1
    if len(products) != expected:
        raise ConsistencyError(
            f"matrix family square count: got {len(products)}, expected {expected}", {"n": n}
        )
    return len(products)


def cantor_analog(m: int, group: CyclicGroup | None = None) -> GSubset:
    """Symmetric C in Z_m with C + C = Z_m and density O(1/sqrt(m)).

    C = {-r..r} u rZ_m with r = constructions._cantor_radix(m).
    """
    _, c = _cantor(m, {})
    if group is None:
        group = CyclicGroup(m, "normalized")
    elif group.n != m:
        raise ValueError(f"group modulus {group.n} does not match m={m}")
    return GSubset(group, c)
