"""Groups with uniform rational Haar weights.

Every group carries one positive rational weight per element: 1 for counting
measure, 1/n for the normalized measure on a finite group standing in for a
compact one.  Discrete counting measure is bi-invariant, so unimodularity is
automatic for everything built here; it is assumed, not checked.

Element handles are opaque hashables: ints 0..n-1 for the finite kinds,
tuples of factor handles for products, and 4-tuples (a, b, c, d) for exact
integer 2x2 matrices with determinant +/-1.  Enumeration order is canonical
per kind so that runs are reproducible bit for bit.

`_grow` is the one walk that adds an element at a time: `quotients` closes
sets and picks generators with it, and Light's test takes its generators from
it, run only on a table from outside (`TableGroup`) and by `validate_axioms`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product as iter_product, repeat
from operator import itemgetter

from .errors import CapError, SpecError, integer, known_keys

# Finite groups up to this order get a Cayley table, which every set
# algorithm then runs on; validation (O(n^2 log n)) and subgroup
# enumeration share the cap.  Larger and infinite groups multiply through `op`.
TABLE_CAP = 64
SYMMETRIC_DEGREE_CAP = 5

_WEIGHT_MODES = ("counting", "normalized")

# json.dumps(obj, sort_keys=True, separators=(",", ":")) through one encoder: dumps builds one per call
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class once(cached_property):
    """`functools.cached_property` without the lock Python 3.11 takes on each
    first read: the value shadows this descriptor, and a test may set its own."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


def _resolve_weight(mode: str, order: int | None, path: str = "/weight") -> Fraction:
    """The element weight that `mode` gives a group of `order` elements: 1
    for counting measure, 1/order for normalized."""
    if mode == "counting":
        return Fraction(1)
    if mode == "normalized":
        if order is None:
            raise ValueError("normalized weight needs a finite group")
        return Fraction(1, order)
    raise SpecError(path, f"expected one of {_WEIGHT_MODES}, got {mode!r}")


class WeightedGroup:
    """Base class; subclasses fill in the group law on their handle type."""

    kind: str = "abstract"

    def __init__(self, name: str, order: int | None, weight: str | Fraction = "counting") -> None:
        self.name = name
        self.order = order
        if isinstance(weight, Fraction):
            if weight <= 0:
                raise ValueError("weight must be positive")
            self.weight, self.weight_mode = weight, None
        else:
            self.weight, self.weight_mode = _resolve_weight(weight, order), weight
        self._signature: str | None = None
        self._law: CayleyTable | OpLaw | None = None

    # -- group law -------------------------------------------------------

    def op(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    # -- enumeration and handles ------------------------------------------

    def elements(self) -> Iterator:
        """Canonical enumeration; raises for infinite groups."""
        raise NotImplementedError

    def contains(self, x) -> bool:
        """Is x a handle of this group: one that `decode_element` reads back
        from its own encoding.  The decoder holds each kind's one element
        rule, so a subset built here is one an artifact can carry back."""
        try:
            return self.decode_element(self.encode_element(x)) == x
        except (TypeError, ValueError):  # SpecError included
            return False

    def encode_element(self, x):
        return x

    def decode_element(self, obj, path: str = ""):
        raise NotImplementedError

    # -- the law the set algorithms run on ----------------------------------

    @property
    def law(self) -> CayleyTable | OpLaw:
        """The Cayley table for a finite group of order <= TABLE_CAP, built on
        first use; the plain `op` on handles for every other group."""
        if self._law is None:
            small = self.order is not None and self.order <= TABLE_CAP
            self._law = self._cayley() if small else OpLaw(self)
        return self._law

    def _cayley(self) -> CayleyTable:
        raise NotImplementedError

    # -- identity of the group object itself ------------------------------

    def spec(self) -> dict:
        """Replayable JSON spec; only defined for user-buildable groups."""
        raise NotImplementedError(f"{self.kind} group has no standalone spec")

    @property
    def signature(self) -> str:
        if self._signature is None:
            self._signature = canonical_json(self.spec())
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = self.order if self.order is not None else "inf"
        return f"<{type(self).__name__} {self.name} |G|={size} w={self.weight}>"


class CayleyTable:
    """A group's law on the indices 0..n-1 of its canonical enumeration.

    Points are indices: `rows[i][j]` is the index of the product of the
    elements at i and j, `inv[i]` the inverse's index.  `elements[i]` is the
    handle at index i and `index` maps handles back; both are None for the
    kinds whose handles already are the indices.  Unchecked: its builder
    knows the rows form a group, and the identity's index."""

    __slots__ = ("rows", "elements", "index", "identity", "inv")

    def __init__(self, rows: list[list[int]], elements: list | None, identity: int) -> None:
        self.rows = rows
        self.elements = elements
        self.index = None if elements is None else {x: i for i, x in enumerate(elements)}
        self.identity = identity
        self.inv = [row.index(identity) for row in rows]

    def all_points(self) -> range:
        return range(len(self.rows))

    def points(self, handles: Iterable) -> list[int]:
        index = self.index
        return list(handles) if index is None else list(map(index.__getitem__, handles))

    def handles(self, points: Iterable[int]) -> frozenset:
        elements = self.elements
        return frozenset(points) if elements is None else frozenset(map(elements.__getitem__, points))

    def mul(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def product(self, xs: Iterable[int], ys: Sequence[int]) -> set[int]:
        rows = self.rows
        # `for row in (rows[x],)` looks each row up once, not once per y
        return {row[y] for x in xs for row in (rows[x],) for y in ys}

    def inverse(self, xs: Iterable[int]) -> set[int]:
        return set(map(self.inv.__getitem__, xs))


class OpLaw:
    """The same interface with the handles as points and `op` as the law: the
    path of infinite groups and of finite groups above TABLE_CAP.  A product
    group multiplies factor by factor (`_product_by_factor`), never through
    `ProductGroup.op` per pair."""

    __slots__ = ("group", "identity", "mul")
    elements = index = None  # the points are the handles

    def __init__(self, group: WeightedGroup) -> None:
        self.group, self.identity, self.mul = group, group.identity, group.op

    def all_points(self) -> Iterator:
        return self.group.elements()

    def points(self, handles: Iterable) -> list:
        return list(handles)

    def handles(self, points: Iterable) -> frozenset:
        return frozenset(points)

    def product(self, xs: Iterable, ys: Sequence) -> set:
        group = self.group
        if isinstance(group, ProductGroup):
            return _product_by_factor(group.factors, xs, ys)
        op = group.op
        return {op(x, y) for x in xs for y in ys}

    def inverse(self, xs: Iterable) -> set:
        return set(map(self.group.inv, xs))


def _product_by_factor(factors: Sequence[WeightedGroup], xs: Iterable, ys: Sequence) -> set:
    """{xy : x in xs, y in ys} in a direct product, one factor column at a time.

    The loop runs over the shorter side, and each factor's column down the
    longer one.  For factor i with distinct outer components U_i and inner
    components V_i, the products over U_i x V_i are tabulated once when there
    are at most TABLE_CAP^2 of them, and a column reads its row; a larger
    factor applies its `op` pair by pair down the column.  Each outer element
    then costs one zip of its factor columns.  The tables live for this call
    only.  Sides pairing |X||Y| >= 16 (|X| + |Y|) elements over at most
    |X||Y| / 16 pairs of prefixes go fiber by fiber (`_product_by_fiber`)."""
    xs = list(xs)
    if not xs or not ys:
        return set()
    if (pairs := len(xs) * len(ys)) >= 16 * (len(xs) + len(ys)):
        fx, fy = _fibers(xs), _fibers(ys)
        if 16 * len(fx) * len(fy) <= pairs:
            return _product_by_fiber(factors, fx, fy)
    flip = len(ys) < len(xs)  # then y is the outer element and x runs down the columns
    outer, inner = (ys, xs) if flip else (xs, ys)
    columns = []  # per factor: u -> its products down the inner column
    for op, us, vs in zip([f.op for f in factors], zip(*outer), zip(*inner)):
        us, distinct = set(us), set(vs)
        if len(us) * len(distinct) <= TABLE_CAP * TABLE_CAP:
            rows = {u: {v: op(v, u) if flip else op(u, v) for v in distinct} for u in us}
            columns.append(lambda u, rows=rows, vs=vs: map(rows[u].__getitem__, vs))
        elif flip:
            columns.append(lambda u, op=op, vs=vs: map(op, vs, repeat(u)))
        else:
            columns.append(lambda u, op=op, vs=vs: map(op, repeat(u), vs))
    out: set = set()
    for z in outer:
        out.update(zip(*[column(u) for column, u in zip(columns, z)]))
    return out


def _fibers(zs: Iterable[tuple]) -> dict:
    """prefix (every component but the last) -> frozenset of last components."""
    fibers: dict = {}
    for z in zs:
        fibers.setdefault(z[:-1], set()).add(z[-1])
    return {p: frozenset(s) for p, s in fibers.items()}


def _product_by_fiber(factors: Sequence[WeightedGroup], fx: dict, fy: dict) -> set:
    """{xy} from each side's `_fibers`: each pair of prefixes multiplied once
    through per-factor tables over their distinct components, each distinct
    pair of fibers once through the last factor (a table up to TABLE_CAP^2
    pairs, `op` per pair above), and one tuple per distinct (prefix, last)."""
    heads = [{u: {v: op(u, v) for v in set(vs)} for u in set(us)}
             for op, us, vs in zip([f.op for f in factors[:-1]], zip(*fx), zip(*fy))]
    op, lx, ly = factors[-1].op, set().union(*fx.values()), set().union(*fy.values())
    if len(lx) * len(ly) <= TABLE_CAP * TABLE_CAP:
        rows = {u: {v: op(u, v) for v in ly} for u in lx}
        times = lambda s, t: {row[v] for u in s for row in (rows[u],) for v in t}
    else:
        times = lambda s, t: {op(u, v) for u in s for v in t}
    out: dict = {}  # the prefix of a product -> its last components
    memo: dict = {}  # (fiber, fiber) -> their product, never empty: fibers repeat over prefixes
    for p, s in fx.items():
        prow = [head[u] for head, u in zip(heads, p)]
        for q, t in fy.items():
            st = memo.get((s, t)) or memo.setdefault((s, t), times(s, t))
            out.setdefault(tuple(map(dict.__getitem__, prow, q)), set()).update(st)
    return {(*pq, w) for pq, ws in out.items() for w in ws}


class _IndexedGroup(WeightedGroup):
    """Common plumbing for groups whose handles are ints 0..n-1."""

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    def decode_element(self, obj, path: str = "") -> int:
        if not isinstance(obj, int) or isinstance(obj, bool) or not (0 <= obj < self.order):
            raise SpecError(path, f"expected element index 0..{self.order - 1}, got {obj!r}")
        return obj

    def _cayley(self) -> CayleyTable:
        # the handles are the indices already, and the identity is 0
        return CayleyTable(op_table(self)[2], None, 0)

    # the parametrized kinds (cyclic, dihedral, symmetric) share identity 0 and spec form
    @property
    def identity(self) -> int:
        return 0

    def spec(self) -> dict:
        return {"type": self.kind, "n": self.n, "weight": self.weight_mode}


class CyclicGroup(_IndexedGroup):
    """Z_n with additive notation."""

    kind = "cyclic"

    def __init__(self, n: int, weight: str | Fraction = "counting") -> None:
        integer(n, "/n", least=1)
        self.n = n
        super().__init__(f"Z{n}", n, weight)

    def op(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inv(self, a: int) -> int:
        return (-a) % self.n


class DihedralGroup(_IndexedGroup):
    """Symmetries of the regular n-gon, order 2n.

    Handle k (k < n) is the rotation by k steps; handle n + k is that
    rotation followed by the reference reflection.
    """

    kind = "dihedral"

    def __init__(self, n: int, weight: str | Fraction = "counting") -> None:
        integer(n, "/n", least=1)
        self.n = n
        super().__init__(f"D{n}", 2 * n, weight)

    def op(self, a: int, b: int) -> int:
        n = self.n
        k1, f1 = a % n, a >= n
        k2, f2 = b % n, b >= n
        k = (k1 - k2) % n if f1 else (k1 + k2) % n
        return k + n * (f1 ^ f2)

    def inv(self, a: int) -> int:
        n = self.n
        if a >= n:
            return a
        return (-a) % n


class SymmetricGroup(_IndexedGroup):
    """S_n on {0..n-1}; handles index permutations in lexicographic order."""

    kind = "symmetric"

    def __init__(self, n: int, weight: str | Fraction = "counting") -> None:
        integer(n, "/n", least=1)
        if n > SYMMETRIC_DEGREE_CAP:
            raise CapError(f"symmetric degree capped at {SYMMETRIC_DEGREE_CAP}, got {n}")
        self.n = n
        self.perms = list(permutations(range(n)))
        self._index = {p: i for i, p in enumerate(self.perms)}
        super().__init__(f"S{n}", len(self.perms), weight)

    def op(self, a: int, b: int) -> int:
        p, q = self.perms[a], self.perms[b]
        return self._index[tuple(p[q[i]] for i in range(self.n))]

    def inv(self, a: int) -> int:
        p = self.perms[a]
        out = [0] * self.n
        for i, v in enumerate(p):
            out[v] = i
        return self._index[tuple(out)]


class TableGroup(_IndexedGroup):
    """Finite group of a Cayley table: rows from outside are checked, a `CayleyTable` is not."""

    kind = "table"

    def __init__(
        self,
        table: CayleyTable | Sequence[Sequence[int]],
        weight: str | Fraction = "counting",
        name: str = "table",
    ) -> None:
        if isinstance(table, CayleyTable):  # a group's law by construction
            super().__init__(name, len(table.rows), weight)
            self.table, self._law = table.rows, table
            return
        if not isinstance(table, (list, tuple)) or not table:
            raise SpecError("/table", "expected a nonempty list of rows")
        n = len(table)
        if n > TABLE_CAP:
            raise CapError(f"table group size capped at {TABLE_CAP}, got {n}")
        for i, row in enumerate(table):
            if not isinstance(row, (list, tuple)) or len(row) != n or not all(
                type(v) is int and 0 <= v < n for v in row
            ):
                raise SpecError(f"/table/{i}", f"expected a list of {n} element indices in 0..{n - 1}")
        if not isinstance(name, str):
            raise SpecError("/name", "expected a string")
        super().__init__(name, n, weight)
        self.table = rows = [list(row) for row in table]
        # the two-sided identity: its row and its column are both 0..n-1
        ident = list(range(n))
        e = next((i for i in ident if rows[i] == ident and [r[i] for r in rows] == ident), None)
        if e is None:
            raise ValueError("table has no identity element")
        for a, row in enumerate(rows):
            if not any(v == e == rows[b][a] for b, v in enumerate(row)):
                raise ValueError(f"element {a} has no inverse")
        self._law = CayleyTable(rows, None, e)
        _light_test(self._law, ident)

    # an OpLaw over these methods may stand in for `law`, so they read the table
    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._law.inv[a]

    @property
    def identity(self) -> int:
        return self._law.identity

    def spec(self) -> dict:
        out = {"type": "table", "table": [list(r) for r in self.table], "weight": self.weight_mode}
        if self.name != "table":
            out["name"] = self.name
        return out


class ProductGroup(WeightedGroup):
    """Direct product; handles are tuples, weights multiply per factor."""

    kind = "product"

    def __init__(self, factors: Sequence[WeightedGroup], name: str | None = None) -> None:
        if not factors:
            raise SpecError("/factors", "expected a nonempty list of groups")
        self.factors = list(factors)
        order: int | None = 1
        weight = Fraction(1)
        for f in self.factors:
            weight *= f.weight
            order = None if (order is None or f.order is None) else order * f.order
        super().__init__(name or "x".join(f.name for f in self.factors), order, weight)
        self.weight_mode = None  # composite; spec() carries per-factor modes

    def op(self, a: tuple, b: tuple) -> tuple:
        return tuple(f.op(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a: tuple) -> tuple:
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    @property
    def identity(self) -> tuple:
        return tuple(f.identity for f in self.factors)

    def elements(self) -> Iterator[tuple]:
        if self.order is None:
            raise ValueError(f"{self.name} is infinite; cannot enumerate")
        return iter_product(*[list(f.elements()) for f in self.factors])

    def _cayley(self) -> CayleyTable:
        # Mixed radix over the factors' tables, first factor most significant:
        # the order of elements().  No factor is larger than the product, so
        # each has a table.  The identity's index mixes the factors' the same way.
        rows, e = self.factors[0].law.rows, self.factors[0].law.identity
        for f in self.factors[1:]:
            inner = f.law.rows
            m = len(inner)
            rows = [[a * m + b for a in r1 for b in r2] for r1 in rows for r2 in inner]
            e = e * m + f.law.identity
        return CayleyTable(rows, list(self.elements()), e)

    def encode_element(self, x: tuple) -> list:
        return [f.encode_element(v) for f, v in zip(self.factors, x)]

    def decode_element(self, obj, path: str = "") -> tuple:
        if not isinstance(obj, (list, tuple)) or len(obj) != len(self.factors):
            raise SpecError(path, f"expected {len(self.factors)}-tuple, got {obj!r}")
        try:
            return tuple(f.decode_element(v) for f, v in zip(self.factors, obj))
        except SpecError:
            # decode again with paths, so the error names the bad factor
            for i, (f, v) in enumerate(zip(self.factors, obj)):
                f.decode_element(v, f"{path}/{i}")
            raise

    def spec(self) -> dict:
        return {"type": "product", "factors": [f.spec() for f in self.factors]}


class MatrixGroup(WeightedGroup):
    """GL_2(Z): 2x2 integer matrices of determinant +/-1, counting weight.

    Lazy: only op, inverse, and finite-subset arithmetic are supported.
    Handles are row-major 4-tuples (a, b, c, d).
    """

    kind = "gl2z"

    def __init__(self) -> None:
        super().__init__("GL2Z", None, "counting")

    def op(self, x: tuple, y: tuple) -> tuple:
        a, b, c, d = x
        e, f, g, h = y
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self, x: tuple) -> tuple:
        a, b, c, d = x
        det = a * d - b * c
        if det == 1:
            return (d, -b, -c, a)
        return (-d, b, c, -a)

    @property
    def identity(self) -> tuple:
        return (1, 0, 0, 1)

    def elements(self) -> Iterator:
        raise ValueError("GL2Z is infinite; cannot enumerate")

    def encode_element(self, x: tuple) -> list:
        a, b, c, d = x
        return [[a, b], [c, d]]

    def decode_element(self, obj, path: str = "") -> tuple:
        ok = (
            isinstance(obj, (list, tuple))
            and len(obj) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in obj)
            and all(isinstance(v, int) and not isinstance(v, bool) for r in obj for v in r)
        )
        if not ok:
            raise SpecError(path, f"expected [[a,b],[c,d]] integer matrix, got {obj!r}")
        x = (obj[0][0], obj[0][1], obj[1][0], obj[1][1])
        det = x[0] * x[3] - x[1] * x[2]
        if det not in (1, -1):
            raise SpecError(path, f"matrix determinant must be +/-1, got {det}")
        return x

    def spec(self) -> dict:
        return {"type": "gl2z"}


def quaternion_table() -> list[list[int]]:
    """Cayley table of the quaternion group on [1, -1, i, -i, j, -j, k, -k]."""
    # unit products: (sign, unit) with units e=0, i=1, j=2, k=3
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def idx(sign: int, unit: int) -> int:
        return 2 * unit + (0 if sign > 0 else 1)

    table = [[0] * 8 for _ in range(8)]
    for u1 in range(4):
        for s1 in (1, -1):
            for u2 in range(4):
                for s2 in (1, -1):
                    s, u = unit_mul[(u1, u2)]
                    table[idx(s1, u1)][idx(s2, u2)] = idx(s * s1 * s2, u)
    return table


def op_table(group: WeightedGroup) -> tuple[list, dict, list[list[int]]]:
    """(canonical elements, handle -> index, rows): one pass of `group.op`
    over every pair; a product outside the group has index -1."""
    elems = list(group.elements())
    index = {x: i for i, x in enumerate(elems)}
    rows = [[index.get(group.op(x, y), -1) for y in elems] for x in elems]
    return elems, index, rows


def validate_axioms(group: WeightedGroup) -> None:
    """Recheck associativity, identity, and inverses through `op` on every
    element: the reference the Cayley tables are compared against.

    Intended for tests: the structured kinds and quotients satisfy the axioms
    by construction, and `TableGroup` checks a table from outside itself.
    """
    if group.order is None:
        raise ValueError("cannot exhaustively validate an infinite group")
    if group.order > TABLE_CAP:
        raise CapError(f"validation capped at order {TABLE_CAP}, got {group.order}")
    elems, index, t = op_table(group)
    if any(-1 in row for row in t):
        raise ValueError("the operation leaves the group")
    e = index.get(group.identity, -1)
    for a, x in enumerate(elems):
        if e < 0 or t[e][a] != a or t[a][e] != a:
            raise ValueError(f"identity law fails at {x!r}")
        ia = index.get(group.inv(x), -1)
        if ia < 0 or t[a][ia] != e or t[ia][a] != e:
            raise ValueError(f"inverse law fails at {x!r}")
    _light_test(CayleyTable(t, None, e), elems)


def _light_test(law: CayleyTable, elems: Sequence) -> None:
    """Light's test on a table with identity and inverses: b over a generating
    set is enough, O(n^2 log n) for a group; only a failure pays for the full
    scan, which names the first failing triple by `elems`.  The b with (ab)c
    = a(bc) for all a and c are closed under products and include e, and
    `_grow` reaches every element as a left-nested product (..((g1 g2) g3)..)
    of the generators it picks, so they are everything once they include
    those, the table associative or not (one row needs no generator)."""
    t, gens = law.rows, []
    _grow(law, {law.identity}, gens, law.all_points())
    if _associative_at(t, gens):
        return
    a, b, c = next((a, b, c) for a, b, c in iter_product(law.all_points(), repeat=3)
                   if t[t[a][b]][c] != t[a][t[b][c]])
    raise ValueError(f"non-associative operation at ({elems[a]!r},{elems[b]!r},{elems[c]!r})")


def _associative_at(t: list[list[int]], bs: Iterable[int]) -> bool:
    """(ab)c = a(bc) for every a and c and each b in bs, on a table with at
    least two rows: row ab is row b followed by row a."""
    rows = [tuple(row) for row in t]
    then = [(b, itemgetter(*t[b])) for b in bs]
    return all(rows[ta[b]] == after(ta) for ta in t for b, after in then)


def _grow(law, reached: set, gens: list, xs: Iterable, within: set | None = None) -> bool:
    """Close `reached`, a set closed under right multiplication by `gens`,
    under each x in xs too, in place; an x not yet reached joins `gens`.  A
    word that leaves `reached` does so by a step into reached * x, so each
    walk goes breadth-first from those elements only.  False at the first
    layer that leaves `within`, if that is given."""
    for x in xs:
        if x in reached:
            continue
        gens.append(x)
        frontier = law.product(reached, [x]) - reached
        while frontier:
            if within is not None and not frontier <= within:
                return False
            reached |= frontier
            frontier = law.product(frontier, gens) - reached
    return True


# -- JSON group specs ------------------------------------------------------

_SPEC_KEYS = {
    "cyclic": {"type", "n", "weight"},
    "dihedral": {"type", "n", "weight"},
    "symmetric": {"type", "n", "weight"},
    "table": {"type", "table", "weight", "name"},
    "product": {"type", "factors"},
    "gl2z": {"type"},
}
_INDEXED = {"cyclic": CyclicGroup, "dihedral": DihedralGroup, "symmetric": SymmetricGroup}
_MAX_NESTING = 32  # products within products, so nothing downstream recurses deeply


def build_group(spec: dict, path: str = "", depth: int = 0) -> WeightedGroup:
    """Build a validated WeightedGroup from a JSON spec dict, a factor
    `depth` products deep (at most `_MAX_NESTING`).

    Spec forms:
      {"type":"cyclic","n":6,"weight":"counting"}
      {"type":"dihedral","n":4,...}        (n-gon; order 2n)
      {"type":"symmetric","n":4,...}       (n <= 5)
      {"type":"table","table":[[...]],"name":...}
      {"type":"product","factors":[...]}   (weights per factor)
      {"type":"gl2z"}                      (lazy, counting only)

    The constructors check the values they read; a SpecError of theirs is
    put under `path`, and any other ValueError is reported at `path`.
    """
    if not isinstance(spec, dict):
        raise SpecError(path, f"group spec must be an object, got {type(spec).__name__}")
    if depth > _MAX_NESTING:
        raise SpecError(path, f"products nest at most {_MAX_NESTING} deep")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise SpecError(f"{path}/type", f"expected one of {sorted(_SPEC_KEYS)}, got {kind!r}")
    known_keys(spec, _SPEC_KEYS[kind], path)
    if kind == "product":  # the factors' paths are absolute already
        factors = spec.get("factors")
        if not isinstance(factors, list):
            raise SpecError(f"{path}/factors", "expected a nonempty list of group specs")
        factors = [build_group(f, f"{path}/factors/{i}", depth + 1) for i, f in enumerate(factors)]
    weight = spec.get("weight", "counting")
    try:
        if kind in _INDEXED:
            return _INDEXED[kind](spec.get("n"), weight)
        if kind == "table":
            return TableGroup(spec.get("table"), weight, spec.get("name", "table"))
        return ProductGroup(factors) if kind == "product" else MatrixGroup()
    except SpecError as exc:
        raise exc.under(path) from None
    except ValueError as exc:  # CapError and the table's axioms
        raise SpecError(path, str(exc)) from exc
