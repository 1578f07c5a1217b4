"""Reference computations the tests check the package against.

None of these runs on a command path: each is an independent or brute-force
statement of a fact that the package computes another way (a table's
identity and inverses, the coset criterion, the combinatorial counts behind
the sharpness witness, the Cantor analog, normality, the subgroup lattice,
every suite record), a small group the tests build by hand, or a recorder
of the calls to the group laws.  Test modules import them as
`from oracles import ...`; pytest does not collect this file.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from itertools import groupby

from doubling import harness
from doubling.constructions import _GL2Z, _cantor, matrix_family
from doubling.context import SubsetContext, once
from doubling.errors import ConsistencyError
from doubling.groups import (CayleyTable, CyclicGroup, OpLaw, TableGroup, WeightedGroup, _grow, build_group,
                             quaternion_table)
from doubling.harness import TOP_WITNESSES, ScanConfig, canonical_json
from doubling.metrics import ruzsa_triangle
from doubling.quotients import QuotientStructure, _generators, normal_subgroups
from doubling.rationals import fmt, put
from doubling.sets import GSubset, inv_set, mul_set


# the code of each `SubsetContext` property: a subset layer's own products are made there
LAYER_CODE = frozenset(p.func.__code__ for p in vars(SubsetContext).values() if isinstance(p, once))


def record_law_calls(monkeypatch, name: str) -> list:
    """Route `name` ("product" or "inverse") of both law types through a
    recorder of (law, the caller's code object, operands...) per call."""
    calls: list = []
    for law_type in (CayleyTable, OpLaw):
        def recording(law, *operands, original=getattr(law_type, name)):
            calls.append((law, sys._getframe(1).f_code, *operands))
            return original(law, *operands)

        monkeypatch.setattr(law_type, name, recording)
    return calls


def quaternion_group(weight: str | Fraction = "counting") -> TableGroup:
    return TableGroup(quaternion_table(), weight=weight, name="Q8")


def searched_identity_and_inverses(rows: list[list[int]]) -> tuple[int, list[int]]:
    """The two-sided identity of a Cayley table and each element's two-sided
    inverse, found by search over the whole table, O(n^2): an independent
    statement of what every law's builder passes in or reads off its rows.
    Raises ValueError where either is missing."""
    ident = list(range(len(rows)))
    e = next((i for i in ident if rows[i] == ident and [r[i] for r in rows] == ident), None)
    if e is None:
        raise ValueError("table has no identity element")
    inv = [next((b for b, v in enumerate(row) if v == e == rows[b][a]), None) for a, row in enumerate(rows)]
    if None in inv:
        raise ValueError(f"element {inv.index(None)} has no inverse")
    return e, inv


def is_subgroup(group: WeightedGroup, elems: frozenset) -> bool:
    """Is the finite set H a subgroup: the walk `quotient` takes (`_generators`)."""
    return _generators(group.law, set(group.law.points(elems))) is not None


def is_normal(group: WeightedGroup, elems: frozenset) -> bool:
    """Is the subgroup `elems` normal: gH = Hg for every g?  Both sides formed
    in full for every element of G, independent of the generator test
    (`quotients._conjugates_into`) that the package runs."""
    if group.order is None:
        raise ValueError("normality check needs a finite ambient group")
    law = group.law
    h = law.points(elems)
    return all(law.product([g], h) == law.product(h, [g]) for g in law.all_points())


def walked_lattice(group: WeightedGroup) -> tuple[list[frozenset], list[frozenset]]:
    """(all subgroup handle-sets, normal handle-sets), each in canonical
    order, from the plain walk (`normal_subgroups` must give the second): every
    subgroup <H, g> is grown from the subgroup H it extends by `_grow`, one
    new element at a time, for one g per right coset of H (<H, g> = <H, hg>
    for h in H); H is normal iff the generators of G conjugate its own into H."""
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
    subs = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    outer = [(g, list(law.inverse([g]))) for g in gens_of[max(gens_of, key=len)]]
    normal = [s for s in subs if all(law.product(law.product([g], gens_of[s]), ginv) <= s for g, ginv in outer)]
    return [law.handles(s) for s in subs], [law.handles(s) for s in normal]


def packed_profile(q: QuotientStructure, x: GSubset) -> int:
    """X's fiber profile under q packed into one int from its counts: the
    count n at coset c in the w bits from bit c * w, w = |H|.bit_length()."""
    w = len(q.subgroup.elements).bit_length()
    return sum(n << c * w for c, n in Counter(map(q.project, x.elements)).items())


def jobs_in_id_order(config: ScanConfig) -> list:
    """The (id, job) pairs of a scan in id order: the (place, id, job)
    triples that `harness._jobs` yields, sorted by place."""
    return [(instance_id, job) for _, instance_id, job in sorted(harness._jobs(config), key=lambda t: t[0])]


def whole_ids(config: ScanConfig, pairs: list) -> list[str]:
    """The ids of a scan, each rendered whole as `canonical_json` of its spec
    dict, from the jobs of its (id, job) pairs in id order
    (`jobs_in_id_order`), without reading their ids.  The jobs come in one run per (group, normal
    subgroup), each run sharing a quotient maker."""
    runs = [[job for _, job in run] for _, run in groupby(pairs, key=lambda pair: id(pair[1][1]))]
    pairs = []
    for gspec in config.groups:
        group = build_group(gspec)
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


def top_witnesses(entries: list) -> list:
    """The TOP_WITNESSES least probe entries of a full stable sort: equal
    entries in the order they came."""
    return sorted(entries)[:TOP_WITNESSES]


def translate(a: GSubset, left=None, right=None) -> GSubset:
    """gAh for optional left/right translators."""
    law = a.owner.law
    out = law.points(a.elements)
    if left is not None:
        out = law.product(law.points([left]), out)
    if right is not None:
        out = law.product(out, law.points([right]))
    return GSubset(a.owner, law.handles(out))


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


def _put(d: dict, key: str, x: Fraction) -> dict:
    return put(d, key, x.numerator, x.denominator)


def diff_size(x: GSubset, y: GSubset) -> int:
    """|X Y^-1|, formed on the handles by the group's own `op` and `inv`."""
    g = x.owner
    return len({g.op(u, g.inv(v)) for u in x.elements for v in y.elements})


def triangle_holds(a: GSubset, b: GSubset, c: GSubset) -> bool:
    """`metrics.ruzsa_triangle` on the counts `diff_size` forms for A, B and C."""
    return ruzsa_triangle(diff_size(a, c), diff_size(a, b), diff_size(b, c), len(b.elements))


def handle_sets(q: QuotientStructure, a: GSubset, b: GSubset | None) -> dict:
    """What a subset layer and its instance under q hold, formed on handles
    by `mul_set`, `inv_set` and `q.project`, B = A where it is None: the
    doubling counts (|A|, |A^2|, |A^-1 A|, A = A^-1), AB and BA, A's fibers,
    A's levels (n, level, |B_n|), per level L of B (n, pi(A) L, L pi(A)), and
    per level of A the threshold row (n, L, |L|, |L L|, |B_n|)."""
    partner = a if b is None else b
    inverse = inv_set(a)

    def levels(x):
        f = Counter(map(q.project, x.elements))
        return [(n, frozenset(c for c, k in f.items() if k >= n)) for n in sorted(set(f.values()))]

    def times(x, y):  # in the quotient
        return mul_set(GSubset(q.quotient, x), GSubset(q.quotient, y)).elements

    def held(level):
        return sum(q.project(x) in level for x in a.elements)

    pi_a = frozenset(Counter(map(q.project, a.elements)))
    return {
        "stats": (len(a.elements), len(mul_set(a, a).elements), len(mul_set(inverse, a).elements),
                  inverse.elements == a.elements),
        "ab_ba": [mul_set(a, partner).elements, mul_set(partner, a).elements],
        "fibers": dict(Counter(map(q.project, a.elements))),
        "levels": [(n, lv, held(lv)) for n, lv in levels(a)],
        "spill": [(n, times(pi_a, lv), times(lv, pi_a)) for n, lv in levels(partner)],
        "thresholds": [(n, lv, len(lv), len(times(lv, lv)), held(lv)) for n, lv in levels(a)],
    }


def reference_suites(q: QuotientStructure, a: GSubset, b: GSubset | None, c: GSubset | None,
                     translators: tuple | None, alphas: list) -> tuple[int, int, dict]:
    """(|piA|, |piA^2|, suite name -> report fragment) for one instance, from
    plain sets: `mul_set`, `inv_set`, `translate` and a `Counter` of cosets,
    with every measure an exact Fraction and every statement checked as
    written in the paper, not as a count comparison.  B and C default to A
    (spillover, containment) and to A^-1 and A^2 (Ruzsa axioms) as in a
    scan; `alphas` holds (text, Fraction) pairs."""
    w_g, w_h, w_q = q.ambient.weight, q.subgroup_weight, q.quotient_weight

    def fibers(x):
        return Counter(map(q.project, x.elements))

    def levels(x):  # (n, the level as a quotient GSubset) per realized n
        f = fibers(x)
        return [(n, GSubset(q.quotient, frozenset(k for k, m in f.items() if m >= n))) for n in sorted(set(f.values()))]

    def layered(rows):  # the integral over t of mu_Q(rows at t)
        total, prev = Fraction(0), 0
        for n, level in rows:
            total += (n - prev) * w_h * len(level.elements) * w_q
            prev = n
        return total

    def measure(x):
        return len(x.elements) * w_g

    pi_a = GSubset(q.quotient, frozenset(fibers(a)))
    pi_square = len(mul_set(pi_a, pi_a).elements)
    partner = b if b is not None else a
    out: dict = {}

    lhs, rhs = measure(a), layered(levels(a))
    out["layer-cake"] = _put(_put({"pass": lhs == rhs}, "lhs", lhs), "rhs", rhs)

    ab, ba = mul_set(a, partner), mul_set(partner, a)
    sides = {"lhs_left": measure(ab), "lhs_right": measure(ba),
             "rhs_left": layered((n, mul_set(pi_a, lv)) for n, lv in levels(partner)),
             "rhs_right": layered((n, mul_set(lv, pi_a)) for n, lv in levels(partner))}
    spill = {"pass": sides["lhs_left"] >= sides["rhs_left"] and sides["lhs_right"] >= sides["rhs_right"]}
    out["spillover"] = spill
    for key, value in sides.items():
        _put(spill, key, value)

    f_ab, f_ba = fibers(ab), fibers(ba)
    out["containment"] = {"pass": all(
        f_ab[k] >= n for n, lv in levels(partner) for k in mul_set(pi_a, lv).elements
    ) and all(f_ba[k] >= n for n, lv in levels(partner) for k in mul_set(lv, pi_a).elements)}

    def value(x, y):  # mu(X Y^-1)^2 / (mu(X) mu(Y))
        return Fraction(measure(mul_set(x, inv_set(y))) ** 2, measure(x) * measure(y))

    rb = b if b is not None else inv_set(a)
    rc = c if c is not None else mul_set(a, a)
    ruzsa = {"self_at_least_one": value(a, a) >= 1, "symmetry": value(a, rb) == value(rb, a),
             "triangle": value(a, rc) <= value(a, rb) * value(rb, rc)}
    if translators is not None:
        g, h = translators
        ruzsa["translation"] = value(translate(a, left=g), translate(rb, left=h)) == value(a, rb)
    ruzsa["pass"] = all(ruzsa.values())
    out["ruzsa-axioms"] = _put(ruzsa, "value_aa", value(a, a))

    k = Fraction(measure(mul_set(a, a)), measure(a))
    k2 = Fraction(measure(mul_set(inv_set(a), a)), measure(a))
    mu_pi, mu_pi2 = len(pi_a.elements) * w_q, pi_square * w_q
    for suite, variant, bound in (("quotient-sym", "symmetric", k * k), ("quotient-cube", "cube", k ** 3),
                                  ("quotient-k1k2", "two-constant", k * k2)):
        if variant == "symmetric" and inv_set(a).elements != a.elements:
            out[suite] = {"skipped": "subset is not symmetric"}
            continue
        out[suite] = {"variant": variant, "pass": mu_pi2 <= bound * mu_pi}
        for key, x in (("lhs", mu_pi2), ("rhs", bound * mu_pi), ("bound", bound), ("quotient_doubling", mu_pi2 / mu_pi)):
            _put(out[suite], key, x)

    extract = out["extract"] = {}
    for alpha_s, alpha in alphas:
        rows = []
        for n, lv in levels(a):
            square = len(mul_set(lv, lv).elements) * w_q
            if square < alpha * k * len(lv.elements) * w_q:
                rows.append((n, lv, square / (len(lv.elements) * w_q),
                             GSubset(a.owner, frozenset(x for x in a.elements if q.project(x) in lv.elements))))
        chosen = next((row for row in rows if measure(row[3]) > (alpha - 1) / alpha * measure(a)), None)
        if chosen is None:
            extract[alpha_s] = {"pass": False}
            continue
        n, lv, doubling, big_b = chosen
        cert = {"B_size": len(big_b.elements), "pass": True, "admissible": [fmt(m * w_h) for m, *_ in rows]}
        for key, x in (("alpha", alpha), ("K", k), ("chosen_s", n * w_h), ("measure_ratio", measure(big_b) / measure(a)),
                       ("quotient_doubling", doubling), ("measure_floor", (alpha - 1) / alpha),
                       ("doubling_ceiling", alpha * k)):
            _put(cert, key, x)
        extract[alpha_s] = cert
    return len(pi_a.elements), pi_square, out
