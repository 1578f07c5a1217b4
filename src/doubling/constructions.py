"""Sharpness construction: exact counts and the discretized witness instance.

The ambient group is H_h x GL2Z x Z_m with weights (1/h, counting, 1/m):
a finite cyclic factor standing in for a compact group, the integer matrix
group, and a normalized cyclic factor standing in for the torus.  The
witness subset is

    A = (H x {I} x Z_m)  disjoint-union  ({1_H} x M x C)

where M holds the 2N matrices (0 1; 1 2^k) and their inverses, and C is a
"Cantor analog": a symmetric subset of Z_m with C + C = Z_m and vanishing
density.  For K = 2N + 1 the projection to GL2Z x Z_m has

    mu_Q(pi A^2) = 4N^2 + 1 = K^2 - 2K + 2    exactly, for every (h, m),

while mu_Q(pi A) -> 1 and the measured doubling -> K as h, m grow, so the
quotient doubling ratio climbs to K^2 - 2K + 2.

Large instances are never materialized: A and A^2 live in a touched-coset
representation (per matrix, one rectangle H-part x Z_m-part), and all
measures come from exact counts on that representation.  Small instances can
be materialized into plain element sets for brute-force cross-checks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import isqrt

from .errors import CapError, ConsistencyError, SpecError, integer, known_keys
from .groups import MatrixGroup, ProductGroup, WeightedGroup, build_group
from .metrics import DoublingStats
from .quotients import QuotientStructure, projection_quotient
from .rationals import put
from .sets import GSubset, decode_subset

MATERIALIZE_CAP = 200_000
# the block product multiplies (2N+1)^2 pairs of matrices with 2^N entries, and
# the Cantor cover ORs m-bit masks: with both at their caps, 1.4 s and 106 MB
MAX_BLOCK_PAIRS = 2**16
MAX_MASK_BITS = 2**26

_GL2Z = MatrixGroup()


class MatrixFamily(namedtuple("MatrixFamily", "N members")):
    """The 2N generator matrices (0 1; 1 2^k) with their exact inverses."""

    __slots__ = ()

    @property
    def identity(self) -> tuple:
        return (1, 0, 0, 1)


def matrix_family(n: int) -> MatrixFamily:
    if n < 1:
        raise ValueError("family parameter must be at least 1")
    mats = [(0, 1, 1, 2 ** k) for k in range(1, n + 1)]
    mats += [_GL2Z.inv(m) for m in mats]
    return MatrixFamily(n, tuple(mats))


# -- Cantor analog in Z_m ----------------------------------------------------


def _cantor_radix(m: int) -> int:
    """Radix r for C = {-r..r} u rZ_m: sqrt(m) for squares, else the divisor
    of m minimizing |C| = 2r + m/r - 2 (ties to the smaller r).  Errors are
    SpecErrors at "/m", an m above MAX_MASK_BITS too."""
    if integer(m, "/m", least=4) > MAX_MASK_BITS:
        raise SpecError("/m", f"the Cantor cover needs {m}-bit masks, above the cap {MAX_MASK_BITS}")
    root = isqrt(m)
    if root * root == m:
        return root
    # a divisor r > sqrt(m) loses to its cofactor m/r: the sizes differ by r - m/r > 0
    sizes = [(2 * r + m // r - 2, r) for r in range(2, root + 1) if m % r == 0]
    if not sizes:
        raise SpecError("/m", f"modulus {m} is prime; need a divisor r with 2 <= r <= m/2")
    return min(sizes)[1]


def _cantor(m: int, cache: dict) -> tuple[int, frozenset]:
    """(r, C) for C = {-r..r} u rZ_m, with symmetry and C + C = Z_m verified
    exactly, not assumed: `_sumset_mod` computes all of C + C on bitsets,
    through `cache`."""
    r = _cantor_radix(m)
    c = frozenset({x % m for x in range(-r, r + 1)} | set(range(0, m, r)))
    if c != frozenset((-x) % m for x in c):
        raise ConsistencyError("cantor analog is not symmetric", {"m": m, "r": r})
    if _sumset_mod(c, c, m, cache) is not None:
        raise ConsistencyError("cantor analog does not cover Z_m", {"m": m, "r": r})
    return r, c


def _sumset_mod(x: frozenset, y: frozenset, m: int, cache: dict) -> frozenset | None:
    """x + y in Z_m for x, y subsets of {0..m-1}; returns None when the sumset
    covers everything.

    Exact on big-integer bitsets, bit i standing for residue i.  y is cut into
    progressions of equal runs, {b + i*step + j : i < count, j < length}; for
    each, x's mask smeared over j and then over i is ORed in at b.  The
    accumulator stays under 2m bits and is folded back once.
    """
    key = frozenset((x, y))
    hit = cache.get(key, 0)
    if hit != 0:
        return hit
    mask = _bitmask(x, m)
    acc = 0
    for start, length, step, count in _progressions(y):
        acc |= _smear(_smear(mask, length, 1), count, step) << start
    full = (1 << m) - 1
    acc = (acc & full) | (acc >> m)
    if acc == full:
        result = None
    else:
        # bin() is most significant bit first; reversed, index i is residue i
        result = frozenset(i for i, bit in enumerate(bin(acc)[:1:-1]) if bit == "1")
    cache[key] = result
    return result


def _bitmask(x: frozenset, m: int) -> int:
    """The indicator of x as an int, bit a set for each a in x."""
    bits = bytearray((m + 7) >> 3)
    for a in x:
        bits[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(bits, "little")


def _runs(y: frozenset) -> list:
    """[start, length] of each maximal run of consecutive integers in y."""
    runs: list = []
    for b in sorted(y):
        if runs and runs[-1][0] + runs[-1][1] == b:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    return runs


def _progressions(y: frozenset) -> list:
    """(start, length, step, count): y's runs, with consecutive runs of one
    length at one spacing merged into runs at start + i*step for i < count.
    A Cantor analog {-r..r} u rZ_m is three of them."""
    progs: list = []
    for start, length in _runs(y):
        if progs:
            b, n, step, count = progs[-1]
            if n == length and (count == 1 or start == b + step * count):
                progs[-1] = (b, n, start - b if count == 1 else step, count + 1)
                continue
        progs.append((start, length, 0, 1))
    return progs


def _smear(mask: int, count: int, step: int) -> int:
    """The OR of mask << (i * step) over 0 <= i < count, in O(log count)
    shifts: `mask` doubles its span each round and is placed once for each
    set bit of `count`."""
    out, offset, width = 0, 0, step
    while True:
        if count & 1:
            out |= mask << offset
            offset += width
        count >>= 1
        if not count:
            return out
        mask |= mask << width
        width <<= 1


# -- touched-coset block representation --------------------------------------
#
# A block set maps a matrix W to one rectangle (h_full, z) meaning
# (H if h_full else {1_H}) x {W} x (Z_m if z is None else z).  One rectangle
# per matrix suffices: A has distinct matrices, and since C + C = Z_m every
# rectangle of A^2 has z = None, so two that land on one matrix are nested.


def _merge(blocks: dict, w: tuple, rect: tuple) -> None:
    """Put `rect` on matrix `w`, keeping the larger of two nested rectangles."""
    old = blocks.setdefault(w, rect)
    for big, small in ((old, rect), (rect, old)):
        if big[0] >= small[0] and (big[1] is None or small[1] is not None and big[1] >= small[1]):
            blocks[w] = big
            return
    raise ConsistencyError("two non-nested rectangles on one matrix", {"matrix": list(w)})


def _block_product(b1: dict, b2: dict, m: int, cache: dict) -> dict:
    out: dict = {}
    for w1, (h1, z1) in b1.items():
        for w2, (h2, z2) in b2.items():
            z = None if z1 is None or z2 is None else _sumset_mod(z1, z2, m, cache)
            _merge(out, _GL2Z.op(w1, w2), (h1 or h2, z))
    return out


def _block_inverse(blocks: dict, m: int) -> dict:
    """The blocks of A^-1; each distinct Z_m set is negated once (the blocks
    of a witness share a few)."""
    negated: dict = {}
    out = {}
    for w, (h_full, z) in blocks.items():
        if z is not None and z not in negated:
            negated[z] = frozenset((-x) % m for x in z)
        out[_GL2Z.inv(w)] = (h_full, None if z is None else negated[z])
    return out


def _block_count(blocks: dict, h: int, m: int) -> int:
    return sum((h if h_full else 1) * (m if z is None else len(z)) for h_full, z in blocks.values())


def _projected_count(blocks: dict, m: int) -> int:
    """Size of the projection to GL2Z x Z_m (H coordinate dropped)."""
    return sum(m if z is None else len(z) for _, z in blocks.values())


# -- the assembled instance ---------------------------------------------------


class SharpnessInstance(namedtuple(
    "SharpnessInstance",
    "N h m r family cantor blocks mu_A mu_A2 mu_piA mu_piA2 stats quotient_doubling",
)):
    """One witness instance with all of its exactly-computed measures: the
    parameters, the Cantor radix r and set, the matrix family, the blocks of
    A, the exact measures of A, A^2 and their projections, the doubling
    stats and the quotient doubling."""

    __slots__ = ()

    @property
    def K_target(self) -> int:
        return 2 * self.N + 1

    @property
    def quotient_target(self) -> int:
        k = self.K_target
        return k * k - 2 * k + 2

    def element_count(self) -> int:
        return _block_count(self.blocks, self.h, self.m)

    def group(self) -> ProductGroup:
        return build_group(self.group_spec())

    def group_spec(self) -> dict:
        return {
            "type": "product",
            "factors": [
                {"type": "cyclic", "n": self.h, "weight": "normalized"},
                {"type": "gl2z"},
                {"type": "cyclic", "n": self.m, "weight": "normalized"},
            ],
        }

    def quotient_structure(self, group: ProductGroup | None = None) -> QuotientStructure:
        return projection_quotient(group if group is not None else self.group(), (1, 2))

    def subset(self, group: ProductGroup | None = None, cap: int = MATERIALIZE_CAP) -> GSubset:
        """Materialize A as an explicit element set (small parameters only)."""
        count = self.element_count()
        if count > cap:
            raise CapError(
                f"instance has {count} elements, above the materialization cap {cap}; "
                "use smaller parameters or raise the cap"
            )
        g = group if group is not None else self.group()
        elems: set = set()
        for w, (h_full, z) in self.blocks.items():
            h_range = range(self.h) if h_full else (0,)
            elems.update(product(h_range, (w,), range(self.m) if z is None else z))
        return GSubset(g, frozenset(elems))

    def to_json(self, materialize_cap: int = 20_000) -> dict:
        out: dict = {
            "kind": "sharpness-instance",
            "params": {"N": self.N, "h": self.h, "m": self.m, "r": self.r},
            "group": self.group_spec(),
            "keep": [1, 2],
            "targets": {"K": self.K_target, "quotient_doubling": self.quotient_target},
            "cantor": sorted(self.cantor),
            "doubling": self.stats.to_json(),
        }
        measures: dict = {}
        for key in ("mu_A", "mu_A2", "mu_piA", "mu_piA2"):
            value = getattr(self, key)
            put(measures, key, value.numerator, value.denominator)
        out["measures"] = measures
        qd = self.quotient_doubling
        put(out, "quotient_doubling", qd.numerator, qd.denominator)
        count = self.element_count()
        out["subset_size"] = count
        if count <= materialize_cap:
            group = self.group()
            out["subset"] = {"elements": self.subset(group, cap=materialize_cap).encode()}
        else:
            out["subset"] = None
        return out


def build_sharpness_instance(n: int, h: int, m: int) -> SharpnessInstance:
    """Assemble the witness and compute every measure exactly.

    Requires integers n >= 1, h >= 2, and m admitting a Cantor analog;
    otherwise raises SpecError at "/N", "/h" or "/m", as it does above
    MAX_BLOCK_PAIRS or MAX_MASK_BITS.  Product sets never touch more than the
    (2N+1)^2 reachable matrices, so h and m only enter through exact counts.
    """
    if (pairs := (2 * integer(n, "/N", least=1) + 1) ** 2) > MAX_BLOCK_PAIRS:
        raise SpecError("/N", f"the block product forms (2N+1)^2 = {pairs} pairs, above the cap {MAX_BLOCK_PAIRS}")
    integer(h, "/h", least=2)
    cache: dict = {}
    r, cantor = _cantor(m, cache)

    fam = matrix_family(n)
    blocks: dict = {fam.identity: (True, None)}
    for w in fam.members:
        _merge(blocks, w, (False, cantor))

    # A^-1 = A, so A^-1 A is A^2 and K2 = K
    if blocks != _block_inverse(blocks, m):
        raise ConsistencyError("witness subset is not symmetric", {"N": n, "h": h, "m": m})

    blocks2 = _block_product(blocks, blocks, m, cache)
    if len(blocks2) != 4 * n * n + 1:
        raise ConsistencyError(
            "touched matrix count mismatch in the squared witness", {"N": n}
        )

    w_g = Fraction(1, h * m)
    count_a, count_a2 = _block_count(blocks, h, m), _block_count(blocks2, h, m)
    mu_a, mu_a2 = count_a * w_g, count_a2 * w_g
    mu_pia = Fraction(_projected_count(blocks, m), m)
    mu_pia2 = Fraction(_projected_count(blocks2, m), m)

    # A^-1 = A, so A^-1 A is A^2 and K2 = K
    stats = DoublingStats(count_a, count_a2, count_a2, symmetric=True)
    return SharpnessInstance(
        N=n,
        h=h,
        m=m,
        r=r,
        family=fam,
        cantor=cantor,
        blocks=blocks,
        mu_A=mu_a,
        mu_A2=mu_a2,
        mu_piA=mu_pia,
        mu_piA2=mu_pia2,
        stats=stats,
        quotient_doubling=mu_pia2 / mu_pia,
    )


def load_instance(doc: dict, path: str = "") -> tuple[WeightedGroup, GSubset, QuotientStructure]:
    """Rebuild (G, A, Q) from an emitted instance artifact.

    Needs the materialized element list; artifacts emitted above the cap
    carry "subset": null and cannot be loaded for set-level work.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "sharpness-instance":
        raise SpecError(path, 'expected an object with "kind": "sharpness-instance"')
    if doc.get("subset") is None:
        raise SpecError(
            f"{path}/subset",
            "instance was emitted without materialized elements; rebuild with smaller parameters",
        )
    group = build_group(doc.get("group"), f"{path}/group")
    if not isinstance(group, ProductGroup):
        raise SpecError(f"{path}/group", "instance group must be a product")
    a = decode_subset(group, doc["subset"], f"{path}/subset")
    try:
        return group, a, projection_quotient(group, doc.get("keep"))
    except SpecError as exc:
        raise exc.under(path) from None


def build_from_reference(ref: dict, path: str = "") -> tuple[WeightedGroup, GSubset, QuotientStructure]:
    """Resolve a subset-spec construction reference into (G, A, Q)."""
    if ref.get("construction") != "sharpness":
        raise SpecError(f"{path}/construction", 'only "sharpness" is defined')
    known_keys(ref, {"construction", "N", "h", "m"}, path)
    try:
        inst = build_sharpness_instance(ref.get("N"), ref.get("h"), ref.get("m"))
    except SpecError as exc:
        raise exc.under(path) from None
    group = inst.group()
    return group, inst.subset(group), inst.quotient_structure(group)
