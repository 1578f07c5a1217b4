"""Exhaustive and seeded-random scans over a small-group catalog.

An instance is one replayable triple (group spec, normal subgroup, subset),
optionally with partner subsets and translators for the pair/triple suites.
Its id IS its spec: the canonical JSON string.  Evaluation is a pure function
of the id, so reports replay exactly; a scan's instance list is a function of
its config alone, and the scan makes each job as it reaches it.  A scan pays
for distinct work only: ids share pre-rendered pieces, and subsets with the
same fiber profiles under a normal subgroup share its quotient-side results;
under H = {e}, where every fiber is 1, those with the same G-level counts do.
"""

from __future__ import annotations

import json
from collections import deque, namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import comb

from .context import InstanceContext, SubsetContext, _Packing
from .errors import CapError, ConsistencyError, SpecError, integer, known_keys
from .extract import certify
from .fibers import check_containment, check_layer_cake, check_spillover
from .groups import WeightedGroup, _resolve_weight, build_group, canonical_json, quaternion_table
from .metrics import check_quotient_bound, ruzsa_axioms
from .quotients import _quotient_by, normal_subgroups, quotient_from_description
from .rationals import fmt, parse, put
from .sets import GSubset, decode_nonempty

DEFAULT_ALPHAS = (Fraction(3, 2), Fraction(2), Fraction(3))
MAX_SUBSETS = 2**16 - 1  # the subsets that the instances of one normal subgroup draw on
MAX_PAIRS = 2**20  # the pairs |X||Y| of each product set that evaluating one id forms
TOP_WITNESSES = 10


# -- the suite table ------------------------------------------------------------
#
# Each suite maps (context, alphas), the context being the instance's
# `InstanceContext` (for ruzsa-axioms, its `SubsetContext`), to (record,
# violations): its result record and a tuple of the details of the
# statements it found violated, in order (None when it skipped); both are
# immutable, because a scan's results table hands them to every instance
# with the same quotient-side input.  `_fold_aggregate` alone decides
# "passed": ran with no violations.  The checks return verdicts and never
# raise; only the public wrappers (`layer_cake`, `spillover_check`, ...) do.
# A record holds integers, bools and strings, has the same keys whether its
# check held or not, and writes the suite's fragment with `to_json()`.
# `alphas` holds the id's alphas as (text as written, parsed).


class Fragment(namedtuple("Fragment", "flags ratios")):
    """A report fragment held as counts: `flags` are (key, value) pairs written
    as they are, `ratios` (key, num, den) triples written by `put`."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = dict(self.flags)
        for key, num, den in self.ratios:
            put(out, key, num, den)
        return out


class ExtractResults(namedtuple("ExtractResults", "certificates")):
    """(alpha as written, its certificate without B, or None if it failed) per alpha."""

    __slots__ = ()

    def to_json(self) -> dict:
        out: dict = {}
        for alpha_s, cert in self.certificates:
            out[alpha_s] = {"pass": False} if cert is None else cert.to_json(include_elements=False)
            out[alpha_s]["pass"] = cert is not None
        return out


def _measures(ctx: InstanceContext, **counts: int) -> tuple:
    """Each count in units of the ambient weight w_G, as (key, num, den)."""
    w = ctx.q.ambient.weight
    wn, wd = w.numerator, w.denominator
    return tuple((key, count * wn, wd) for key, count in counts.items())


def _layer_cake_suite(ctx: InstanceContext, alphas: list) -> tuple:
    holds, size, layered = check_layer_cake(ctx)
    record = Fragment((("pass", holds),), _measures(ctx, lhs=size, rhs=layered))
    return record, () if holds else ("layer-cake identity failed",)


def _spillover_suite(ctx: InstanceContext, alphas: list) -> tuple:
    holds, ab, ba, left, right = check_spillover(ctx)
    ratios = _measures(ctx, lhs_left=ab, lhs_right=ba, rhs_left=left, rhs_right=right)
    return Fragment((("pass", holds),), ratios), () if holds else ("spillover inequality failed",)


def _containment_suite(ctx: InstanceContext, alphas: list) -> tuple:
    ok = check_containment(ctx)
    return Fragment((("pass", ok),), ()), () if ok else ("superlevel containment failed",)


def _ruzsa_suite(shared: SubsetContext, alphas: list) -> tuple:
    """Reads A, B and C alone (B = A^-1 and C = A A where the layer has none):
    runs once per subset layer, on its law's points.  Each of A, B, C and hB
    is inverted once, and each count |X Y^-1| takes one product (C = A A is
    A B^-1 where B = A^-1).  It forms A A even where the layer's memo holds
    it: reading it from there saved no end-to-end time that was measured."""
    if shared.ruzsa is None:
        law = shared.a.owner.law
        product, inverse = law.product, law.inverse
        a = law.points(shared.a.elements)
        a_inv = inverse(a)
        b = a_inv if shared.b is None else law.points(shared.b.elements)
        ab = product(a, a if shared.b is None else inverse(b))  # A B^-1: A A where B = A^-1
        c = law.points(shared.c.elements) if shared.c is not None else ab if shared.b is None else product(a, a)
        c_inv = inverse(c)
        moved = None
        if shared.translators is not None:
            g, h = law.points(shared.translators)
            moved = len(product(product((g,), a), inverse(product((h,), b))))
        aa = len(product(a, a_inv))
        flags = ruzsa_axioms(len(a), len(b), aa, len(ab), len(product(b, a_inv)),
                             len(product(a, c_inv)), len(product(b, c_inv)), moved)
        ok = all(flags.values())
        record = Fragment((*flags.items(), ("pass", ok)), (("value_aa", aa * aa, len(a) ** 2),))
        shared.ruzsa = record, () if ok else ("a distance axiom failed",)
    return shared.ruzsa


def _quotient_suite(variant: str):
    def run(ctx: InstanceContext, alphas: list) -> tuple:
        if variant == "symmetric" and not ctx.shared.symmetric:
            return Fragment((("skipped", "subset is not symmetric"),), ()), None
        check = check_quotient_bound(ctx, variant)
        return check, () if check.passed else (f"quotient doubling exceeded the {variant} bound",)

    return run


def _extract_suite(ctx: InstanceContext, alphas: list) -> tuple:
    certificates, failed = [], []
    for alpha_s, alpha in alphas:
        try:
            certificates.append((alpha_s, certify(ctx, alpha)))
        except ConsistencyError:
            certificates.append((alpha_s, None))
            failed.append(f"extraction failed at alpha={alpha_s}")
    return ExtractResults(tuple(certificates)), tuple(failed)


SUITES = {
    "layer-cake": _layer_cake_suite,
    "spillover": _spillover_suite,
    "containment": _containment_suite,
    "ruzsa-axioms": _ruzsa_suite,
    "quotient-sym": _quotient_suite("symmetric"),
    "quotient-cube": _quotient_suite("cube"),
    "quotient-k1k2": _quotient_suite("two-constant"),
    "extract": _extract_suite,
}
# their order here is the order of suites in every config and artifact
ALL_SUITES = tuple(SUITES)


# -- catalog -----------------------------------------------------------------


def _base_entries() -> list[tuple[int, dict]]:
    """(order, spec) of each group the catalog starts from."""
    return ([(n, {"type": "cyclic", "n": n}) for n in range(2, 25)]
            + [(2 * n, {"type": "dihedral", "n": n}) for n in range(3, 9)]
            + [(6, {"type": "symmetric", "n": 3}), (24, {"type": "symmetric", "n": 4}),
               (8, {"type": "table", "table": quaternion_table(), "name": "Q8"})])


def catalog(
    weights: tuple[str, ...] = ("counting", "normalized"),
    max_product_order: int = 64,
    include_products: bool = True,
) -> list[dict]:
    """Built-in group specs: small cyclic/dihedral/symmetric/Q8 and their
    pairwise products up to `max_product_order`, in each weight variant."""
    base = _base_entries()
    out: list[dict] = []
    for mode in weights:
        out += [_with_weight(spec, mode) for _, spec in base]
        if not include_products:
            continue
        for i, (o1, s1) in enumerate(base):
            for o2, s2 in base[i:]:
                if o1 * o2 <= max_product_order:
                    out.append({"type": "product", "factors": [_with_weight(s1, mode), _with_weight(s2, mode)]})
    return out


def _with_weight(spec: dict, mode: str) -> dict:
    return {**spec, "weight": mode}


def parse_group_selector(sel: str | dict, path: str = "") -> dict:
    """Accept either a full spec dict or a shorthand like "cyclic:12"; its group is built to check it."""
    return _selected(sel, path)[0]


def _selected(sel: str | dict, path: str) -> tuple[dict, WeightedGroup]:
    """A selector's spec and a group built from it, errors at `path`: built
    from its canonical JSON, so a spec holding tuples reads as lists."""
    if isinstance(sel, str):
        sel = _selector_spec(sel, path)
    elif not isinstance(sel, dict):
        raise SpecError(path, f"expected a group spec or selector string, got {sel!r}")
    return sel, build_group(json.loads(canonical_json(sel)), path)


def _selector_spec(sel: str, path: str) -> dict:
    if sel == "q8":
        return {"type": "table", "table": quaternion_table(), "name": "Q8"}
    if sel == "gl2z":
        return {"type": "gl2z"}
    name, _, arg = sel.partition(":")
    if name in ("cyclic", "dihedral", "symmetric"):
        if not (arg.isascii() and arg.isdigit() and len(arg) <= 9 and int(arg) > 0):
            raise SpecError(path, f"selector {sel!r} needs a positive numeric parameter")
        return {"type": name, "n": int(arg)}
    raise SpecError(path, f"unknown group selector {sel!r}")


# -- configuration -----------------------------------------------------------


def _check_suites(names) -> list | tuple:
    if not isinstance(names, (list, tuple)):
        raise SpecError("/suites", "expected a list of suite names")
    for i, name in enumerate(names):
        if name not in ALL_SUITES:
            raise SpecError(f"/suites/{i}", f"unknown suite {name!r}; known: {list(ALL_SUITES)}")
        if name in names[:i]:
            raise SpecError(f"/suites/{i}", f"suite {name!r} is listed twice")
    return names


def parse_alphas(values) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecError("/alphas", "expected a nonempty list of rationals above 1")
    out: dict = {}  # a dict keeps the order and finds a repeat in O(1)
    for i, value in enumerate(values):
        try:
            alpha = parse(value)
        except (ValueError, ZeroDivisionError):
            alpha = None
        if alpha is None or alpha <= 1:
            raise SpecError(f"/alphas/{i}", f"expected a rational above 1, got {value!r}")
        if alpha in out:
            raise SpecError(f"/alphas/{i}", f"{value!r} repeats the alpha {fmt(alpha)}")
        out[alpha] = None
    return tuple(out)


class ScanConfig:
    """What to scan; every field defines the artifact.

    The constructor checks every field, a random `count` against MAX_SUBSETS
    too, and raises a SpecError naming the JSON path of the first bad one; it
    normalizes `groups` to specs, no two of one group `signature`, `suites`
    to their canonical order and `alphas` to Fractions; it keeps no group."""

    FIELDS = ("groups", "subset_mode", "suites", "subgroups", "subgroup_weight",
              "alphas", "emit_instances")
    __slots__ = FIELDS

    def __init__(
        self,
        groups: list,
        subset_mode: dict,
        suites: tuple[str, ...] = ALL_SUITES,
        subgroups: str = "all",
        subgroup_weight: str = "counting",
        alphas: tuple[Fraction, ...] = DEFAULT_ALPHAS,
        emit_instances: bool = False,
    ) -> None:
        if not isinstance(groups, (list, tuple)) or not groups:
            raise SpecError("/groups", "expected a nonempty list of group specs or selectors")
        self.groups, first = [], {}  # first: group signature -> its index
        for i, g in enumerate(groups):
            spec, group = _selected(g, f"/groups/{i}")
            self.groups.append(spec)
            if first.setdefault(group.signature, i) != i:
                raise SpecError(f"/groups/{i}", f"repeats the group at /groups/{first[group.signature]}")
        self.suites = tuple(s for s in ALL_SUITES if s in _check_suites(suites))
        if subgroups not in ("all", "proper"):
            raise SpecError("/subgroups", f'expected "all" or "proper", got {subgroups!r}')
        self.subgroups = subgroups
        _resolve_weight(subgroup_weight, 1, "/subgroup_weight")  # the mode rule `quotient` applies
        self.subgroup_weight = subgroup_weight
        self.alphas = parse_alphas(alphas)
        self.subset_mode = _check_subset_mode(subset_mode)
        if not isinstance(emit_instances, bool):
            raise SpecError("/emit_instances", "expected true or false")
        self.emit_instances = emit_instances

    @classmethod
    def from_json(cls, doc: dict) -> "ScanConfig":
        if not isinstance(doc, dict):
            raise SpecError("", "scan config must be an object")
        known_keys(doc, cls.FIELDS, "")
        if "groups" not in doc or "subset_mode" not in doc:
            raise SpecError("", 'scan config needs "groups" and "subset_mode"')
        return cls(**doc)

    def resolved(self) -> dict:
        """Artifact-facing config."""
        out = {f: getattr(self, f) for f in self.FIELDS}
        out.update(suites=list(self.suites), alphas=[fmt(a) for a in self.alphas])
        return out


def _check_subset_mode(mode) -> dict:
    if not isinstance(mode, dict):
        raise SpecError("/subset_mode", "expected an object")
    kind = mode.get("kind")
    if kind == "exhaustive":
        allowed = {"kind", "max_size", "symmetric_only"}
        if "max_size" in mode:
            integer(mode["max_size"], "/subset_mode/max_size", least=1)
        if not isinstance(mode.get("symmetric_only", False), bool):
            raise SpecError("/subset_mode/symmetric_only", "expected true or false")
    elif kind == "random":
        allowed = {"kind", "count", "seed", "density"}
        if integer(mode.get("count"), "/subset_mode/count", least=1) > MAX_SUBSETS:
            raise SpecError("/subset_mode/count", f"{mode['count']} random subsets per normal subgroup; "
                                                  f"the cap is 2^{MAX_SUBSETS.bit_length()} - 1")
        if "seed" not in mode:
            raise SpecError("/subset_mode/seed", "random scans need an explicit integer seed")
        integer(mode["seed"], "/subset_mode/seed")
        density = mode.get("density", "mixed")
        if isinstance(density, dict) and set(density) == {"size"}:
            integer(density["size"], "/subset_mode/density/size", least=1)
        elif density not in ("mixed", "1/4", "1/2"):
            raise SpecError("/subset_mode/density", f"got {density!r}")
    else:
        raise SpecError("/subset_mode/kind", 'expected "exhaustive" or "random"')
    known_keys(mode, allowed, "/subset_mode")
    return mode


# -- instance generation -------------------------------------------------------


# rng: a `random.Random`, whose annotation imports `random` only if evaluated
def _sample_subset(rng: __import__("random").Random, group: WeightedGroup, pool: list, density) -> GSubset:
    if isinstance(density, dict):
        k = max(1, min(density["size"], len(pool)))
        remaining = list(pool)
        return GSubset(group, frozenset([remaining.pop(rng.randrange(len(remaining))) for _ in range(k)]))
    threshold = 0.25 if density == "1/4" else 0.5
    while True:
        out = [x for x in pool if rng.random() < threshold]
        if out:
            return GSubset(group, frozenset(out))


# each optional id field, with the suites that read it; a scan writes it only for them
_READERS = {"alphas": {"extract"}, "subset_b": {"spillover", "containment", "ruzsa-axioms"},
            "subset_c": {"ruzsa-axioms"}, "translate": {"ruzsa-axioms"}}


def _needs_partner(suites: Iterable[str]) -> bool:
    return not _READERS["subset_b"].isdisjoint(suites)


def iter_instance_specs(config: ScanConfig) -> list[str]:
    """The full deterministic instance list (ids) for a scan, in id order: by normal subgroup, then by layer."""
    ids = {place: instance_id for place, instance_id, _ in _jobs(config)}
    return [ids[place] for place in range(len(ids))]


def _jobs(config: ScanConfig) -> Iterator[tuple[int, str, tuple]]:
    """Each instance of a scan as (its place in id order, id, job), the job
    being the (subset layer, quotient maker, suites, alphas, results table)
    `evaluate_instance` reads in the id's place.  A first pass builds each
    group and lattice and forms no subset: every refusal comes first.  Then
    an exhaustive scan builds each layer of a group and yields it under
    every normal subgroup; a random scan samples each one's layers.  A
    quotient (`_quotient_by`: every H of a lattice is normal) is built by its
    first evaluation; a results table (None for one layer) reads a `_Packing`."""
    mode = config.subset_mode
    rng = None
    if mode["kind"] == "random":
        from random import Random  # imported here: commands that never sample skip it
        rng = Random(mode["seed"])
    alphas = list(zip(map(fmt, config.alphas), config.alphas))
    # sorted keys order an id: alphas, group, subgroup, subset(_b, _c), suites, translate
    head = '{"alphas":' + canonical_json([a for a, _ in alphas]) + "," if "extract" in config.suites else "{"
    suites = ',"suites":' + canonical_json(list(config.suites))
    weight = ',"weight":' + canonical_json(config.subgroup_weight) + "}"
    lattices, plans = {}, deque()  # lattices: spec without weights -> its normal subgroups' elements
    for i, gspec in enumerate(config.groups):
        group = build_group(json.loads(group_json := canonical_json(gspec)))
        if group.order is None:
            raise SpecError(f"/groups/{i}", f"{group.name} is infinite; scans need finite groups")
        try:
            if (structure := canonical_json(_unweighted(gspec))) not in lattices:
                lattices[structure] = [s.elements for s in normal_subgroups(group)]
            subs = [GSubset(group, elements) for elements in lattices[structure]]
            if config.subgroups == "proper":
                subs = [s for s in subs if 1 < len(s.elements) < group.order]
            elems = list(group.elements())
            walk = _exhaustive_units(group, elems, config) if rng is None and subs else None
        except CapError as exc:
            raise SpecError(f"/groups/{i}", str(exc)) from exc
        plans.append((group_json, group, subs, elems, walk))
    if not any(subs for _, _, subs, _, _ in plans):  # a "proper" scan of groups without one
        raise SpecError("/subgroups", "no group has a normal subgroup 1 < |H| < |G|; the scan would check nothing")
    spill, place = "spillover" in config.suites or "containment" in config.suites, 0
    while plans:  # a plan is dropped, with its group, once its last job is drawn
        group_json, group, subs, elems, walk = plans.popleft()
        text = dict(zip(elems, map(canonical_json, map(group.encode_element, elems))))
        runs = [(f'{head}"group":{group_json},"subgroup":{{"elements":{_listed(text, sub.elements)}{weight},',
                 cache(partial(_quotient_by, group, sub, _resolve_weight(config.subgroup_weight, len(sub.elements)))),
                 len(sub.elements)) for sub in subs]
        for block in [runs] if walk else [[run] for run in runs]:  # the runs that read one walk of layers
            layers = (_exhaustive_layers(group, elems, walk[0], config) if walk
                      else _random_layers(group, elems, config, rng))
            count = walk[1] if walk else mode["count"]
            tables = [None] * len(block)
            if count > 1:  # the tables hold the packing, which holds none of them
                packing = _Packing(elems, block, spill)
                tables = [_ResultsTable(packing, *field) for field in packing.fields]
            runs_at = [(place + k * count, prefix, make_quotient, table)  # run k's ids are from place k count on
                       for k, ((prefix, make_quotient, _), table) in enumerate(zip(block, tables))]
            for i, shared in enumerate(layers):
                tail = _id_tail(shared, suites, text)
                for at, prefix, make_quotient, table in runs_at:
                    yield at + i, prefix + tail, (shared, make_quotient, config.suites, alphas, table)
            place += len(block) * count


def _unweighted(spec: dict) -> dict:
    """A group spec with every "weight" removed, its factors' too."""
    return {k: list(map(_unweighted, v)) if k == "factors" else v for k, v in spec.items() if k != "weight"}


def _listed(text: dict, elements: frozenset) -> str:
    """The canonical JSON list of the sorted `elements`, joined from their `text`."""
    return "[" + ",".join(map(text.__getitem__, sorted(elements))) + "]"


def _id_tail(shared: SubsetContext, suites: str, text: dict) -> str:
    """A layer's id after its subgroup from each element's `text`: subset fields, `suites`, translators."""
    pairs = (("subset", shared.a), ("subset_b", shared.b), ("subset_c", shared.c))
    tail = ",".join(f'"{key}":{_listed(text, x.elements)}' for key, x in pairs if x is not None) + suites
    if shared.translators is not None:
        tail += ',"translate":[' + ",".join(map(text.__getitem__, shared.translators)) + "]"
    return tail + "}"


def _exhaustive_units(group: WeightedGroup, elems: list, config: ScanConfig) -> tuple[list[frozenset], int]:
    """The units of an exhaustive scan (elements, or inverse pairs {x, x^-1}
    under `symmetric_only`) and the count of their nonempty unions of at most `max_size` elements,
    which meets MAX_SUBSETS first: the sum of C(s, j) C(t, p) over j + 2p <= max_size, less one."""
    mode = config.subset_mode
    max_size, symmetric_only = mode.get("max_size", len(elems)), mode.get("symmetric_only", False)
    units = list(dict.fromkeys(frozenset((x, group.inv(x)) if symmetric_only else (x,)) for x in elems))
    s, t = (sum(len(u) == k for u in units) for k in (1, 2))
    count = sum(comb(s, j) * comb(t, p) for p in range(t + 1) for j in range(s + 1) if j + 2 * p <= max_size) - 1
    if count > MAX_SUBSETS:
        bound = f"with max_size {max_size}" if "max_size" in mode else "without max_size"
        raise CapError(f"exhaustive {'symmetric_only ' if symmetric_only else ''}mode {bound} enumerates {count} "
                       f"subsets of {group.name}; the cap is 2^{MAX_SUBSETS.bit_length()} - 1")
    return units, count


def _exhaustive_layers(group: WeightedGroup, elems: list, units: list, config: ScanConfig) -> Iterator[SubsetContext]:
    """A layer per union that `_exhaustive_units` counted, built as drawn: by
    size, then in `combinations` order, for a plain `max_size`, else in bit-mask order."""
    mode = config.subset_mode
    max_size = mode.get("max_size", len(elems))
    if "max_size" in mode and not mode.get("symmetric_only", False):
        members = (combo for size in range(1, min(max_size, len(elems)) + 1)
                   for combo in combinations(elems, size))
    else:  # in bit-mask order: the unions so far, then each of them with the next unit if it fits
        members = [frozenset()]
        for unit in units:
            members += [m | unit for m in members if len(m) + len(unit) <= max_size]
        del members[0]
    for m in members:
        shared = SubsetContext(GSubset(group, frozenset(m)))
        if _needs_partner(config.suites):  # deterministic partners derived from A itself
            shared.b = shared.inverse
            if "ruzsa-axioms" in config.suites:
                shared.c = shared.mul(shared.a, shared.a)
                shared.translators = (min(shared.a.elements), max(shared.a.elements))
        yield shared


def _random_layers(group: WeightedGroup, elems: list, config: ScanConfig,
                   rng: __import__("random").Random) -> Iterator[SubsetContext]:
    """Each of the `count` layers of a normal subgroup, sampled as it is drawn."""
    mode, mixed = config.subset_mode, ("1/4", "1/2", {"size": max(1, len(elems) // 2)})
    for trial in range(mode["count"]):
        density = mixed[trial % 3] if mode.get("density", "mixed") == "mixed" else mode["density"]
        shared = SubsetContext(_sample_subset(rng, group, elems, density))
        if _needs_partner(config.suites):
            shared.b = _sample_subset(rng, group, elems, density)
            if "ruzsa-axioms" in config.suites:
                shared.c = _sample_subset(rng, group, elems, density)
                shared.translators = tuple(elems[rng.randrange(len(elems))] for _ in range(2))
        yield shared


# -- evaluation ----------------------------------------------------------------


_ID_KEYS = {"group", "subgroup", "subset", "subset_b", "subset_c", "suites", "alphas", "translate"}


def _load_id(instance_id: str) -> tuple:
    """Parse and check an instance id; returns what `evaluate_instance` reads:
    (a fresh subset layer, a maker of the quotient built here, suites, alphas, no results table)."""
    try:
        spec = json.loads(instance_id)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SpecError("", f"malformed instance id: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("", "instance id must encode an object")
    for key in ("group", "subgroup", "subset"):
        if key not in spec:
            raise SpecError(f"/{key}", "missing from instance id")
    known_keys(spec, _ID_KEYS, "")
    suites = _check_suites(spec.get("suites", []))
    for key, readers in _READERS.items():
        if key in spec and readers.isdisjoint(suites):
            raise SpecError(f"/{key}", f"no suite of the id reads it; read by {sorted(readers)}")
    alphas = spec.get("alphas", [fmt(x) for x in DEFAULT_ALPHAS])
    # labelled as written, an integer alpha too
    alphas = [(str(v), alpha) for v, alpha in zip(alphas, parse_alphas(alphas))]
    translate = spec.get("translate")
    if "translate" in spec and not (isinstance(translate, list) and len(translate) == 2):
        raise SpecError("/translate", "expected exactly two group elements [g, h]")
    group = build_group(spec["group"], "/group")
    q = quotient_from_description(group, spec["subgroup"], "/subgroup")  # checked before the subsets
    a, b, c = (decode_nonempty(group, spec[key], f"/{key}") if key in spec else None
               for key in ("subset", "subset_b", "subset_c"))
    translators = None if translate is None else tuple(
        group.decode_element(v, f"/translate/{i}") for i, v in enumerate(translate))
    _check_pairs(group.order, a, b, c, suites)
    return SubsetContext(a, b, c, translators), lambda: q, suites, alphas, None


def _check_pairs(order: int | None, a: GSubset, b: GSubset | None, c: GSubset | None, suites) -> None:
    """Refuse at /subset, before any product is formed, an id whose largest
    product set X Y pairs more than MAX_PAIRS elements: A A and A^-1 A for
    the stats, A B and B A for spillover and containment, and for
    ruzsa-axioms the differences of A, B and C, with |C| <= |A|^2 (and
    <= |G|) when C is A A.  The quotient side pairs no more: pi(A) pi(A),
    pi(A) L for the levels L of B, and L L for those of A.  Only a group
    above TABLE_CAP can reach the cap."""
    na = len(a.elements)
    nb = na if b is None else len(b.elements)
    pairs = na * na
    if _needs_partner(suites):
        pairs = max(pairs, na * nb)
    if "ruzsa-axioms" in suites:
        nc = len(c.elements) if c is not None else na * na if order is None else min(na * na, order)
        pairs = max(pairs, max(na, nb) * nc)
    if pairs > MAX_PAIRS:
        raise CapError(f"/subset: evaluating this id forms a product of {pairs} pairs; "
                       f"the cap is 2^{MAX_PAIRS.bit_length() - 1}")


class InstanceReport(namedtuple(
    "InstanceReport", "id group_order subgroup_size stats pi_size pi_square suites outcome"
)):
    """One instance's results as counts: the id, |G| and |H|, the doubling
    counts (`DoublingStats`, whose size is |A|), |piA| and |piA^2|, per suite
    run (name, result record, violation details: None when skipped, empty
    when it passed), and their `_outcome`.  `to_json()` writes the report,
    with `keep` leaving each record and the `DoublingStats` unrendered."""

    __slots__ = ()

    @property
    def probe(self) -> tuple[int, int]:
        """Quotient doubling over K^2 as (|piA^2| |A|^2, |piA| |A^2|^2)."""
        s = self.stats
        return self.pi_square * s.size * s.size, self.pi_size * s.square * s.square

    def to_json(self, keep: bool = False) -> dict:
        stats = self.stats
        report = {
            "id": self.id,
            "sizes": {"group": self.group_order, "subgroup": self.subgroup_size, "subset": stats.size},
            "suites": {name: record if keep else record.to_json() for name, record, _ in self.suites},
            "violations": [
                {"suite": name, "detail": d} for name, _, failed in self.suites for d in failed or ()
            ],
            "doubling": stats if keep else stats.to_json(),
            # tracked for both symmetries
            "probe": put({"symmetric": stats.symmetric}, "over_k2", *self.probe),
        }
        return put(report, "quotient_doubling", self.pi_square, self.pi_size)


def _outcome(records) -> int:
    """Suite run j's status in bits 2j, 2j+1: 0 skipped (or None), 1 passed, 2 failed."""
    return sum(((r[2] is not None) + bool(r[2])) << 2 * j for j, r in enumerate(records) if r is not None)


class _ResultsTable(dict):
    """A normal subgroup's results by `key`, all that its quotient-side suites
    read: the `DoublingStats` and its field of the layer's `packing`, the
    `mask` over it shifted down by `off`."""

    def __init__(self, packing: _Packing, off: int, mask: int) -> None:
        self.packing, self.off, self.mask = packing, off, mask

    def key(self, shared: SubsetContext, stats) -> tuple:
        return stats, self.packing(shared) >> self.off & self.mask


def evaluate_instance(instance_id: str, job: tuple | None = None) -> InstanceReport:
    """Recompute the results for one instance id (pure, replayable).

    Without `job` the id is parsed and validated first, as `replay` needs.
    `scan` passes the `job` that `_jobs` made the id from, whose layer may
    already hold what the instances of other normal subgroups computed.  A
    hit in its results table reads |G|, |H|, |piA|, |piA^2|, each suite's
    results and their `_outcome` from there, but ruzsa-axioms, which reads no
    quotient and keeps one result per layer: only a miss builds the quotient
    (once per normal subgroup) and an `InstanceContext`."""
    shared, make_quotient, suites, alphas, table = _load_id(instance_id) if job is None else job
    stats = shared.stats
    found = None if table is None else table.get(key := table.key(shared, stats))
    if found is None:
        ctx = InstanceContext(shared, q := make_quotient())
        results = tuple([None if name == "ruzsa-axioms" else (name, *SUITES[name](ctx, alphas)) for name in suites])
        found = len(ctx.pi_a), ctx.pi_square, results, _outcome(results), q.ambient.order, len(q.subgroup.elements)
        if table is not None:
            table[key] = found
    pi_size, pi_square, records, outcome, group_order, subgroup_size = found
    if "ruzsa-axioms" in suites:
        i, (record, failed) = suites.index("ruzsa-axioms"), SUITES["ruzsa-axioms"](shared, alphas)
        records = (*records[:i], ("ruzsa-axioms", record, failed), *records[i + 1:])
        outcome += ((failed is not None) + bool(failed)) << 2 * i
    return tuple.__new__(InstanceReport, (instance_id, group_order, subgroup_size, stats,
                                          pi_size, pi_square, records, outcome))


# -- aggregation and the scan itself --------------------------------------------


class _Ranked:
    """A probe entry ordered by (-value, id): the larger num/den first,
    compared by cross-multiplication, ties broken by the smaller id."""

    __slots__ = ("num", "den", "id")

    def __init__(self, report: InstanceReport) -> None:
        self.num, self.den = report.probe
        self.id = report.id

    def __lt__(self, other: "_Ranked") -> bool:
        mine, theirs = self.num * other.den, other.num * self.den
        return mine > theirs or (mine == theirs and self.id < other.id)


def _fold_aggregate(placed: Iterable[tuple[int, InstanceReport]], emit: Callable | None = None) -> dict:
    """The aggregate of (place in id order, report) pairs, folded one at a
    time: suite runs counted per distinct `outcome` (a scan's reports run
    one list of suites), violations listed in id order; each probe keeps its
    TOP_WITNESSES least entries so far, sorted, and renders only those."""
    from bisect import insort  # imported here: commands that never aggregate skip it
    outcomes: dict = {}  # outcome -> [its instances, the suite runs of one]
    failing = []  # (place, report) per report with a violation
    sym_top, all_top = [], []
    early, due = {}, 0  # folded reports go to `emit` in place order; an early one waits here
    for place, rep in placed:
        (outcomes.get(rep.outcome) or outcomes.setdefault(rep.outcome, [0, rep.suites]))[0] += 1
        if rep.outcome & 0xAAAA:  # a run's status is 2: it failed
            failing.append((place, rep))
        num, den = rep.probe
        for top in (all_top, sym_top) if rep.stats.symmetric else (all_top,):
            if len(top) < TOP_WITNESSES or num * top[-1].den >= top[-1].num * den:  # it may rank
                insort(top, _Ranked(rep))  # after its equals: tied entries keep their order
                del top[TOP_WITNESSES:]
        if emit is not None:
            early[place] = rep
            while due in early:
                emit(early.pop(due))
                due += 1
    suite_runs: dict = {}
    for n, runs in outcomes.values():
        for name, _, failed in runs:
            cell = suite_runs.setdefault(name, {"runs": 0, "passes": 0, "skipped": 0})
            cell["skipped" if failed is None else "runs"] += n
            cell["passes"] += n if failed == () else 0

    def probe(top: list[_Ranked]) -> dict:
        witnesses = [{"value": fmt(e.num, e.den), "value_dec": e.num / e.den, "id": e.id} for e in top]
        first = witnesses[0] if witnesses else {"value": None, "value_dec": None}
        return {"max": first["value"], "max_dec": first["value_dec"], "witnesses": witnesses}

    return {
        "instances": sum(n for n, _ in outcomes.values()),
        "suite_runs": suite_runs,
        "violations": [{"id": rep.id, "suite": name, "detail": d}
                       for _, rep in sorted(failing, key=lambda pair: pair[0])
                       for name, _, failed in rep.suites for d in failed or ()],
        "symmetric_probe": probe(sym_top),
        "general_probe": probe(all_top),
    }


def scan(config: ScanConfig, emit: Callable[[InstanceReport], object] | None = None) -> dict:
    """Run every suite on every instance; aggregate deterministically.

    Each job is evaluated as `_jobs` draws it, through the module-level
    `evaluate_instance`, so a wrapper installed there sees every one; each
    report is folded and then, in id order, handed to `emit` if it is given,
    else with `emit_instances` appended to the list at "instances"."""
    out = {"config": config.resolved()}
    if emit is None and config.emit_instances:
        emit = out.setdefault("instances", []).append
    placed = ((place, evaluate_instance(instance_id, job)) for place, instance_id, job in _jobs(config))
    out["aggregate"] = _fold_aggregate(placed, emit)
    return out


def replay(instance_id: str, expected: dict | None = None) -> dict:
    """Recompute one instance report; must match a stored one exactly."""
    report = evaluate_instance(instance_id).to_json()
    if expected is not None and report != expected:
        raise ConsistencyError(
            "replay mismatch: reports differ for the same instance id",
            {"id": instance_id},
        )
    return report


def report_csv(report: dict) -> str:
    """Lossy tabular export: decimal shadows only, a `csv_row` per instance of `scan`."""
    if "instances" not in report:
        raise ValueError("CSV export needs a report produced with emit_instances")
    return ("# lossy decimal export; authoritative rationals live in the JSON report\n"
            "instance,group_order,subgroup_size,subset_size,K,K2,quotient_doubling,bound,margin\n"
            + "".join(map(csv_row, report["instances"])))


def csv_row(rep: InstanceReport) -> str:
    """One instance's line of `report_csv`."""
    s = rep.stats
    qn, qd = rep.pi_square, rep.pi_size
    # K = |A^2|/|A|, K2 = |A^-1 A|/|A|; the bound is K^2 (symmetric) or
    # K * K2 and the margin bound - qd.  Int true division rounds
    # correctly, so these unreduced pairs give the floats of the Fractions
    bn, bd = s.square * (s.square if s.symmetric else s.inv_square), s.size * s.size
    ident = rep.id.replace('"', '""')
    return (f'"{ident}",{rep.group_order},{rep.subgroup_size},{s.size},{s.square / s.size!r},'
            f"{s.inv_square / s.size!r},{qn / qd!r},{bn / bd!r},{(bn * qd - qn * bd) / (bd * qd)!r}\n")
