"""Exhaustive and seeded-random scans over a small-group catalog.

An instance is one replayable triple (group spec, normal subgroup, subset),
optionally with partner subsets and translators for the pair/triple suites.
Its id IS its spec: the canonical JSON string.  Evaluation is a pure function
of the id, so reports replay exactly, and a scan commits to its full instance
list before any evaluation starts; with parallelism > 1 forked workers read
the same list by index and the pool returns the reports in order, which keeps
every artifact byte-stable across worker counts.  A scan pays for distinct
work only: ids share pre-rendered pieces, and subsets with the same fiber
profiles under a normal subgroup share its quotient-side results; under
H = {e}, where every fiber is 1, those with the same G-level counts do.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations
from math import comb

from .context import InstanceContext, SubsetContext, points
from .errors import CapError, ConsistencyError, SpecError, integer, known_keys
from .extract import certify
from .fibers import check_containment, check_layer_cake, check_spillover
from .groups import WeightedGroup, _resolve_weight, build_group, quaternion_table
from .metrics import DiffSizes, check_quotient_bound, ruzsa_axioms, stats_of
from .quotients import QuotientStructure, _quotient_by, normal_subgroups, quotient_from_description
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
    """Reads A, B and C alone: runs once per subset layer, on its law's points."""
    if shared.ruzsa is None:
        law, a = shared.a.owner.law, points(shared.a)
        b = frozenset(law.inverse(a)) if shared.b is None else points(shared.b)
        c = frozenset(law.product(a, a)) if shared.c is None else points(shared.c)
        diffs = DiffSizes(law)
        flags = ruzsa_axioms(diffs, a, b, c, shared.translators and law.points(shared.translators))
        ok = all(flags.values())
        record = Fragment((*flags.items(), ("pass", ok)), (("value_aa", diffs[a, a] ** 2, len(a) ** 2),))
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


# json.dumps(obj, sort_keys=True, separators=(",", ":")) through one encoder: dumps builds one per call
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# -- catalog -----------------------------------------------------------------


def _base_entries() -> list[tuple[str, int, dict]]:
    entries: list[tuple[str, int, dict]] = []
    for n in range(2, 25):
        entries.append((f"cyclic:{n}", n, {"type": "cyclic", "n": n}))
    for n in range(3, 9):
        entries.append((f"dihedral:{n}", 2 * n, {"type": "dihedral", "n": n}))
    entries.append(("symmetric:3", 6, {"type": "symmetric", "n": 3}))
    entries.append(("symmetric:4", 24, {"type": "symmetric", "n": 4}))
    entries.append(("q8", 8, {"type": "table", "table": quaternion_table(), "name": "Q8"}))
    return entries


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
        for _, _, spec in base:
            out.append(_with_weight(spec, mode))
        if not include_products:
            continue
        for i, (_, o1, s1) in enumerate(base):
            for _, o2, s2 in base[i:]:
                if o1 * o2 <= max_product_order:
                    out.append(
                        {
                            "type": "product",
                            "factors": [_with_weight(s1, mode), _with_weight(s2, mode)],
                        }
                    )
    return out


def _with_weight(spec: dict, mode: str) -> dict:
    return {**spec, "weight": mode}


def parse_group_selector(sel: str | dict, path: str = "") -> dict:
    """Accept either a full spec dict or a shorthand like "cyclic:12".

    The group is built to validate it, through the same cache the scan reads,
    so a spec is built once."""
    if isinstance(sel, str):
        sel = _selector_spec(sel, path)
    elif not isinstance(sel, dict):
        raise SpecError(path, f"expected a group spec or selector string, got {sel!r}")
    _group_at(canonical_json(sel), path)
    return sel


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
    """What to scan; everything except `parallelism` defines the artifact.

    The constructor checks every field, a random `count` against MAX_SUBSETS
    too, and raises a SpecError naming the JSON path of the first bad one; it
    normalizes `groups` to specs, `suites` to their canonical order and
    `alphas` to Fractions."""

    FIELDS = ("groups", "subset_mode", "suites", "subgroups", "subgroup_weight",
              "alphas", "emit_instances", "parallelism")
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
        parallelism: int = 1,
    ) -> None:
        if not isinstance(groups, (list, tuple)):
            raise SpecError("/groups", "expected a list of group specs or selectors")
        self.groups = [parse_group_selector(g, f"/groups/{i}") for i, g in enumerate(groups)]
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
        self.parallelism = integer(parallelism, "/parallelism", least=1)

    @classmethod
    def from_json(cls, doc: dict) -> "ScanConfig":
        if not isinstance(doc, dict):
            raise SpecError("", "scan config must be an object")
        known_keys(doc, cls.FIELDS, "")
        if "groups" not in doc or "subset_mode" not in doc:
            raise SpecError("", 'scan config needs "groups" and "subset_mode"')
        return cls(**doc)

    def resolved(self) -> dict:
        """Artifact-facing config; parallelism is a runtime knob, not content."""
        out = {f: getattr(self, f) for f in self.FIELDS if f != "parallelism"}
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


def _sample_subset(rng: Random, group: WeightedGroup, pool: list, density) -> GSubset:
    if isinstance(density, dict):
        k = max(1, min(density["size"], len(pool)))
        remaining = list(pool)
        return GSubset(group, frozenset([remaining.pop(rng.randrange(len(remaining))) for _ in range(k)]))
    threshold = 0.25 if density == "1/4" else 0.5
    while True:
        out = [x for x in pool if rng.random() < threshold]
        if out:
            return GSubset(group, frozenset(out))


def _density_for(trial: int, density, pool_size: int):
    if density != "mixed":
        return density
    return ("1/4", "1/2", {"size": max(1, pool_size // 2)})[trial % 3]


# each optional id field, with the suites that read it; a scan writes it only for them
_READERS = {"alphas": {"extract"}, "subset_b": {"spillover", "containment", "ruzsa-axioms"},
            "subset_c": {"ruzsa-axioms"}, "translate": {"ruzsa-axioms"}}


def _needs_partner(suites: Iterable[str]) -> bool:
    return not _READERS["subset_b"].isdisjoint(suites)


def iter_instance_specs(config: ScanConfig, built: list | None = None) -> list[str]:
    """The full deterministic instance list (ids) for a scan.

    With `built`, also appends per id the (subset layer, quotient maker,
    suites, alphas, results table) that `evaluate_instance` reads in its
    place.  An exhaustive scan builds a group's subset layers once, for all
    its normal subgroups; a random scan samples a fresh layer per instance.
    Groups of one `_unweighted` spec share a lattice.  A normal subgroup's
    quotient (`_quotient_by`: the lattice tested H) is built by its first
    instance's evaluation, not here, and shared by the rest, as is its results
    table (see `_table_key`, keyed on counts alone under H = {e}): None where
    it has one instance.  An id is pieced together from its alphas, group and
    subgroup, each rendered once, and its layer's `_id_tail`, which an
    exhaustive scan's subgroups share; each element's text is rendered once."""
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
    lattices: dict = {}
    ids: list[str] = []
    for i, gspec in enumerate(config.groups):
        group = _group(group_json := canonical_json(gspec))
        if group.order is None:
            raise SpecError(f"/groups/{i}", f"{group.name} is infinite; scans need finite groups")
        try:
            if (structure := canonical_json(_unweighted(gspec))) not in lattices:
                lattices[structure] = normal_subgroups(group)
            subs = [GSubset(group, s.elements) for s in lattices[structure]]
            if config.subgroups == "proper":
                subs = [s for s in subs if 1 < len(s.elements) < group.order]
            elems = list(group.elements())
            # an exhaustive scan's subset layers serve every normal subgroup
            layers = _exhaustive_layers(group, elems, config) if rng is None and subs else []
        except CapError as exc:
            raise SpecError(f"/groups/{i}", str(exc)) from exc
        text = dict(zip(elems, map(canonical_json, map(group.encode_element, elems))))
        tails = [_id_tail(shared, suites, text) for shared in layers]
        for sub in subs:
            prefix = f'{head}"group":{group_json},"subgroup":{{"elements":{_listed(text, sub.elements)}{weight},'
            if rng is not None:
                layers = _random_layers(group, elems, config, rng)
                tails = [_id_tail(shared, suites, text) for shared in layers]
            ids.extend(prefix + tail for tail in tails)
            if built is not None:
                w_h = _resolve_weight(config.subgroup_weight, len(sub.elements))
                make_quotient = cache(partial(_quotient_by, group, sub, w_h))
                table = _ResultsTable() if len(layers) > 1 else None
                built.extend((shared, make_quotient, config.suites, alphas, table) for shared in layers)
    return ids


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


def _exhaustive_layer(group: WeightedGroup, members, config: ScanConfig) -> SubsetContext:
    shared = SubsetContext(GSubset(group, frozenset(members)))
    if _needs_partner(config.suites):
        # deterministic partners derived from A itself
        shared.b = shared.inverse
        if "ruzsa-axioms" in config.suites:
            shared.c = shared.mul(shared.a, shared.a)
            shared.translators = (min(shared.a.elements), max(shared.a.elements))
    return shared


def _exhaustive_layers(group: WeightedGroup, elems: list, config: ScanConfig) -> list[SubsetContext]:
    """A layer per nonempty union of units (elements, or inverse pairs {x, x^-1}
    under `symmetric_only`) with at most `max_size` elements: by size, then in
    `combinations` order, for a plain `max_size`, else in bit-mask order over
    the units.  Their count, the sum of C(s, j) C(t, p) over j + 2p <= max_size
    for s single units and t pairs, meets MAX_SUBSETS before any is formed."""
    mode = config.subset_mode
    max_size, symmetric_only = mode.get("max_size", len(elems)), mode.get("symmetric_only", False)
    units = list(dict.fromkeys(frozenset((x, group.inv(x)) if symmetric_only else (x,)) for x in elems))
    s, t = (sum(len(u) == k for u in units) for k in (1, 2))
    count = sum(comb(s, j) * comb(t, p) for p in range(t + 1) for j in range(s + 1) if j + 2 * p <= max_size) - 1
    if count > MAX_SUBSETS:
        bound = f"with max_size {max_size}" if "max_size" in mode else "without max_size"
        raise CapError(f"exhaustive {'symmetric_only ' if symmetric_only else ''}mode {bound} enumerates {count} "
                       f"subsets of {group.name}; the cap is 2^{MAX_SUBSETS.bit_length()} - 1")
    if "max_size" in mode and not symmetric_only:
        members = (combo for size in range(1, min(max_size, len(elems)) + 1)
                   for combo in combinations(elems, size))
    else:  # in bit-mask order: the unions so far, then each of them with the next unit if it fits
        members = [frozenset()]
        for unit in units:
            members += [m | unit for m in members if len(m) + len(unit) <= max_size]
        del members[0]
    return [_exhaustive_layer(group, m, config) for m in members]


def _random_layers(group: WeightedGroup, elems: list, config: ScanConfig, rng: Random) -> list[SubsetContext]:
    mode = config.subset_mode
    layers: list[SubsetContext] = []
    for trial in range(mode["count"]):
        density = _density_for(trial, mode.get("density", "mixed"), len(elems))
        shared = SubsetContext(_sample_subset(rng, group, elems, density))
        if _needs_partner(config.suites):
            shared.b = _sample_subset(rng, group, elems, density)
            if "ruzsa-axioms" in config.suites:
                shared.c = _sample_subset(rng, group, elems, density)
                shared.translators = tuple(elems[rng.randrange(len(elems))] for _ in range(2))
        layers.append(shared)
    return layers


# -- evaluation ----------------------------------------------------------------


@lru_cache(maxsize=128)
def _group(spec_json: str) -> WeightedGroup:
    return build_group(json.loads(spec_json))


def _group_at(spec_json: str, path: str) -> WeightedGroup:
    """The one group object (and Cayley table) per spec; errors name `path`."""
    try:
        return _group(spec_json)
    except SpecError as exc:
        raise exc.under(path) from None


@lru_cache(maxsize=256)
def _quotient(group_json: str, desc_json: str) -> QuotientStructure:
    return quotient_from_description(_group(group_json), json.loads(desc_json), "/subgroup")


_ID_KEYS = {"group", "subgroup", "subset", "subset_b", "subset_c", "suites", "alphas", "translate"}


def _load_id(instance_id: str) -> tuple:
    """Parse and check an instance id; returns what `evaluate_instance` reads:
    (a fresh subset layer, quotient maker, suites, alphas, no results table)."""
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
    group_json, subgroup_json = canonical_json(spec["group"]), canonical_json(spec["subgroup"])
    group = _group_at(group_json, "/group")
    _quotient(group_json, subgroup_json)  # the subgroup is checked before the subsets
    a, b, c = (decode_nonempty(group, spec[key], f"/{key}") if key in spec else None
               for key in ("subset", "subset_b", "subset_c"))
    translators = None if translate is None else tuple(
        group.decode_element(v, f"/translate/{i}") for i, v in enumerate(translate))
    _check_pairs(group.order, a, b, c, suites)
    make_quotient = partial(_quotient, group_json, subgroup_json)
    return SubsetContext(a, b, c, translators), make_quotient, suites, alphas, None


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
    if not {"spillover", "containment", "ruzsa-axioms"}.isdisjoint(suites):
        pairs = max(pairs, na * nb)
    if "ruzsa-axioms" in suites:
        nc = len(c.elements) if c is not None else na * na if order is None else min(na * na, order)
        pairs = max(pairs, max(na, nb) * nc)
    if pairs > MAX_PAIRS:
        raise CapError(f"/subset: evaluating this id forms a product of {pairs} pairs; "
                       f"the cap is 2^{MAX_PAIRS.bit_length() - 1}")


def _rendered(record) -> dict:
    return record.to_json()


class InstanceReport(namedtuple(
    "InstanceReport", "id group_order subgroup_size stats pi_size pi_square suites"
)):
    """One instance's results as counts: the id, |G| and |H|, the doubling
    counts (`DoublingStats`, whose size is |A|), |piA| and |piA^2|, and per
    suite run (name, result record, violation details: None when skipped, and
    empty when it passed).  `to_json()` writes the instance report; `render`
    maps each suite record and the `DoublingStats` into it (by default, to
    their `to_json()`)."""

    __slots__ = ()

    @property
    def probe(self) -> tuple[int, int]:
        """Quotient doubling over K^2 as (|piA^2| |A|^2, |piA| |A^2|^2)."""
        s = self.stats
        return self.pi_square * s.size * s.size, self.pi_size * s.square * s.square

    def to_json(self, render=_rendered) -> dict:
        stats = self.stats
        report = {
            "id": self.id,
            "sizes": {"group": self.group_order, "subgroup": self.subgroup_size, "subset": stats.size},
            "suites": {name: render(record) for name, record, _ in self.suites},
            "violations": [
                {"suite": name, "detail": d} for name, _, failed in self.suites for d in failed or ()
            ],
            "doubling": render(stats),
            # tracked for both symmetries
            "probe": put({"symmetric": stats.symmetric}, "over_k2", *self.probe),
        }
        return put(report, "quotient_doubling", self.pi_square, self.pi_size)


class _ResultsTable(dict):
    """One normal subgroup's results by `_table_key`, and its `_shift_row`."""

    row = None


def _shift_row(q: QuotientStructure) -> dict:
    """x -> 1 << c * w, x in coset c, w = |H|.bit_length(): see `_table_key`."""
    w = len(q.subgroup.elements).bit_length()
    return {x: 1 << q.project(x) * w for x in q.ambient.elements()}


def _table_key(shared: SubsetContext, stats, row: dict | None, suites) -> tuple:
    """All that the quotient-side suites read of an instance, exactly: the
    `DoublingStats` counts and the fiber profiles of A and, for spillover and
    containment, of B, AB and BA.  A profile is packed into one int, the count
    at coset c in the w bits from bit c * w: w bits hold any count up to |H|,
    and the cosets of a `quotient` are 0..q-1.  Summed from the shift `row`,
    it needs no count, and the key reads only the subset layer.  Under
    H = {e} (no `row`) pi is G renumbered and every fiber is 1, so the suites
    read counts alone: |A|, |A^2| (|piA|, |piA^2|) in the stats, and |AB| and
    |BA| (|piA piB|, |piB piA|) for spillover and containment."""

    def packed(x: GSubset) -> int:
        return sum(map(row.__getitem__, x.elements))

    spill = "spillover" in suites or "containment" in suites
    b = shared.b if shared.b is not None else shared.a
    if row is None:
        return (stats, len(shared.mul(shared.a, b)), len(shared.mul(b, shared.a))) if spill else (stats,)
    key = (stats, packed(shared.a))
    if spill:
        key += (packed(b), packed(shared.mul(shared.a, b)), packed(shared.mul(b, shared.a)))
    return key


def evaluate_instance(instance_id: str, built: tuple | None = None) -> InstanceReport:
    """Recompute the results for one instance id (pure, replayable).

    Without `built` the id is parsed and validated first, as `replay` needs.
    `scan` passes `built`, what `iter_instance_specs` made the id from, so it
    decodes nothing; the layer may already hold what the instances of other
    normal subgroups computed.  With a results table, an instance whose
    `_table_key` is in it reads |piA|, |piA^2| and every suite's results from
    there, except ruzsa-axioms, which reads no quotient and keeps one result
    per layer: only a miss builds an `InstanceContext`."""
    shared, make_quotient, suites, alphas, table = _load_id(instance_id) if built is None else built
    q = make_quotient()
    stats = stats_of(shared)
    key = found = None
    if table is not None:
        if table.row is None and len(q.subgroup.elements) > 1:  # under H = {e} the key holds counts alone
            table.row = _shift_row(q)
        found = table.get(key := _table_key(shared, stats, table.row, suites))
    if found is None:
        ctx = InstanceContext(shared, q)
        results = [None if name == "ruzsa-axioms" else (name, *SUITES[name](ctx, alphas)) for name in suites]
        found = len(ctx.pi_a), ctx.pi_square, tuple(results)
        if key is not None:
            table[key] = found
    pi_size, pi_square, results = found
    records = tuple([result or (name, *SUITES[name](shared, alphas)) for name, result in zip(suites, results)])
    return InstanceReport(instance_id, q.ambient.order, len(q.subgroup.elements), stats,
                          pi_size, pi_square, records)


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


def _fold_aggregate(reports: Iterable[InstanceReport]) -> dict:
    """The aggregate, folded from the records one at a time; the probe
    renders only the witnesses it keeps."""
    import heapq  # imported here: commands that never aggregate skip it

    suite_runs: dict = {}
    violations: list[dict] = []
    sym_entries: list[_Ranked] = []
    all_entries: list[_Ranked] = []
    for rep in reports:
        for name, _, failed in rep.suites:
            cell = suite_runs.get(name)
            if cell is None:
                cell = suite_runs[name] = {"runs": 0, "passes": 0, "skipped": 0}
            if failed is None:
                cell["skipped"] += 1
                continue
            cell["runs"] += 1
            if failed:
                violations.extend({"id": rep.id, "suite": name, "detail": d} for d in failed)
            else:
                cell["passes"] += 1
        entry = _Ranked(rep)
        all_entries.append(entry)
        if rep.stats.symmetric:
            sym_entries.append(entry)

    def probe(entries: list[_Ranked]) -> dict:
        if not entries:
            return {"max": None, "max_dec": None, "witnesses": []}
        top = [
            ((fmt(e.num, e.den), e.num / e.den), e.id)
            for e in heapq.nsmallest(TOP_WITNESSES, entries)
        ]
        return {
            "max": top[0][0][0],
            "max_dec": top[0][0][1],
            "witnesses": [{"value": v, "value_dec": d, "id": i} for (v, d), i in top],
        }

    return {
        "instances": len(all_entries),
        "suite_runs": suite_runs,
        "violations": violations,
        "symmetric_probe": probe(sym_entries),
        "general_probe": probe(all_entries),
    }


def _adopt(ids: list, built: list) -> None:
    """Keep a parallel scan's jobs in a forked worker, which inherits them unpickled."""
    global _JOBS
    _JOBS = ids, built


def _evaluate_at(i: int) -> InstanceReport:
    ids, built = _JOBS
    return evaluate_instance(ids[i], built[i])


def scan(config: ScanConfig) -> dict:
    """Run every suite on every instance; aggregate deterministically.

    Each instance goes through the module-level `evaluate_instance`, so a
    wrapper installed there sees every one, at any worker count.  With
    `emit_instances`, "instances" holds the `InstanceReport`s, counts that
    their writer renders with `to_json()`."""
    built: list = []
    ids = iter_instance_specs(config, built)
    workers = min(config.parallelism, len(ids))
    if workers > 1:
        from multiprocessing import get_context

        chunk = max(1, len(ids) // (workers * 8))
        with get_context("fork").Pool(workers, _adopt, (ids, built)) as pool:
            reports = pool.map(_evaluate_at, range(len(ids)), chunk)
    else:
        # each job is popped, so a subset layer lives until its last instance
        # is done; without emit_instances each record is folded and dropped
        built.reverse()
        reports = (evaluate_instance(i, built.pop()) for i in ids)
        if config.emit_instances:
            reports = list(reports)
    out = {"config": config.resolved(), "aggregate": _fold_aggregate(reports)}
    if config.emit_instances:
        out["instances"] = reports
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
    """Lossy tabular export: decimal shadows only, one row per instance,
    built from the counts of `scan`'s `InstanceReport`s."""
    if "instances" not in report:
        raise ValueError("CSV export needs a report produced with emit_instances")
    lines = ["# lossy decimal export; authoritative rationals live in the JSON report"]
    lines.append("instance,group_order,subgroup_size,subset_size,K,K2,quotient_doubling,bound,margin")
    for rep in report["instances"]:
        s = rep.stats
        qn, qd = rep.pi_square, rep.pi_size
        # K = |A^2|/|A|, K2 = |A^-1 A|/|A|; the bound is K^2 (symmetric) or
        # K * K2 and the margin bound - qd.  Int true division rounds
        # correctly, so these unreduced pairs give the floats of the Fractions
        bn, bd = s.square * (s.square if s.symmetric else s.inv_square), s.size * s.size
        ident = rep.id.replace('"', '""')
        lines.append(
            f'"{ident}",{rep.group_order},{rep.subgroup_size},{s.size},'
            f"{s.square / s.size!r},{s.inv_square / s.size!r},{qn / qd!r},"
            f"{bn / bd!r},{(bn * qd - qn * bd) / (bd * qd)!r}"
        )
    return "\n".join(lines) + "\n"
