"""Relation codes: the one place that knows their layout.

A relation over a universe is coded by its index in the canonical
enumeration (`checker.enumerate_relations`), which is exactly

    code = offset[header mask] + body bitmask

Headers are ordered by their attribute bitmask (attribute 0 is the low
bit) and `offset[h]` counts the relations over all smaller masks.  Bit
`i` of the body stands for the `i`-th tuple of the header's
lexicographically sorted tuple space, the order of `Universe.full_body`.
`RelationKernel` builds the offsets, stopping with
`EnumerationBudgetError` as soon as they pass the budget, encodes and
decodes codes, and computes the operations on them; `count_relations`
counts relations without a kernel.

Every binary operation moves both bodies onto one target header and then
combines them with a single AND or OR: meet and outer union lift them
onto the union header (cylinders), inner union and inner join project
them onto the common header.  The maps that move a body between two
headers are built lazily, once per header pair and kernel, so a check
pays only for the header pairs its terms reach.  Each operation is one
`_pair_fill` closure, holding the offsets and image maps, never the
kernel: a call bisects for both headers, looks up the header pair's
target offset and image maps, and makes two image calls and one AND or OR.

`RelationKernel.symmetries` gives generators of the universe's
automorphism group as maps on codes: they permute header masks and body
bits, again through tables built lazily per header, and decode nothing.
For the checker's symmetry-reduced walk, `orbit_least` maps each code to
the least code of its orbit, walking an orbit (`_orbit`) the first time
one of its codes is read and filling it in for every member, and
`stabilizer_least` maps each code to the least of its orbit under the
automorphisms that fix a first value, from the whole group closed once
from the generators as maps on codes.

`RelationKernel.tables` hands the checker dicts filled on first use, so
the checks on one kernel compute each entry once.  Past `WHOLE_PAIRS`
code pairs a miss is one call of the operation's closure; over at most
that many (u1, u2) a table's first miss fills it whole by `_op_table`,
which also fills `bridge_tables` for `models.model_from_universe`,
moving each right operand's body once per pair of headers and taking
every entry from one list of each header's codes.  Every fill, of a
table, its rows or `orbit_least`, holds plain data only: offsets, sizes,
image maps, generators and, for a value row, the translate table it
cuts, never the kernel or the table it fills.  So
the tables outlive the kernel, and the kernel is freed, without the
cyclic garbage collector, as soon as its last user drops it.  The
relation-level functions in `rlattice.universe` are the reference these
operations are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import partial
from math import factorial, prod
from operator import and_, or_, pos
from typing import Any, Callable, Iterable, Sequence

from .terms import Const, Lit
from .universe import ConstantKind, LatticeError, Relation, Universe

DEFAULT_ENUM_BUDGET = 1_000_000

_CHUNK = 8  # body bits per image-table lookup
_CHUNK_MASK = (1 << _CHUNK) - 1

# Most code pairs, `n * n`, of a kernel whose `tables` fill whole (64 codes;
# see `RelationKernel.tables`).
WHOLE_PAIRS = 4096
# Per binary table of `tables`, meet, join, star and plus: (bodies moved
# onto the union header, else the common one; ANDed, else ORed).
_TARGETS = ((True, True), (False, False), (False, True), (True, False))


class EnumerationBudgetError(LatticeError):
    """The universe has more relations than the enumeration budget allows."""


def count_relations(u: Universe) -> int:
    """Number of relations over `u`: sum over headers of 2^(tuple-space size),
    with the headers counted per size, not one by one."""
    headers = Counter({1: 1})  # tuple-space size -> number of headers with it
    for dim in map(len, u.domains):
        for size, count in list(headers.items()):
            headers[size * dim] += count
    return sum(count << size for size, count in headers.items())


class RelationKernel:
    """Codes and code-level operations over one universe.

    Building a kernel raises `EnumerationBudgetError` when the universe
    has more than `budget` relations.  Moving bodies from a header with
    a tuple space of `s` tuples costs image tables of about `32 * s`
    entries, each as wide as the target space: small for every universe
    whose relations can be enumerated, but growing with the square of
    the space beyond that.  The image tables, symmetry maps, orbits,
    automorphism group, stabilizer-least codes and operation tables are
    kept per kernel and shared by every check handed
    it (`checker.check`'s `kernel`): a suite run, the reading harness and
    `check -f FILE` keep one kernel per universe for all their checks.
    Nothing the kernel keeps refers back to it, so it is freed as soon
    as its last user drops it, and the tables, rows and orbits it handed
    out stay filled and filling after that.
    """

    def __init__(self, u: Universe, budget: int = DEFAULT_ENUM_BUDGET):
        self.u = u
        self._dims = dims = [len(d) for d in u.domains]
        self._values = [sorted(d) for d in u.domains]
        self._ranks = [{v: i for i, v in enumerate(values)} for values in self._values]
        self._sizes = sizes = [1]
        self._offset = offset = []
        total = 0
        for h in range(2 ** len(u.attributes)):
            if h:
                low = (h & -h).bit_length() - 1
                sizes.append(sizes[h & (h - 1)] * dims[low])
            offset.append(total)
            total += 1 << sizes[h]
            if total > budget:
                raise EnumerationBudgetError(
                    f"universe has more relations than the enumeration budget of {budget}")
        self.n = total
        # The maps moving bodies between headers, keyed (source, target), built on first use.
        self._images = images = _Table(partial(_build_image, dims, sizes))
        # Meet, join, star, plus, complement (first + last of the block - `a`).
        mirror = [first + end - 1 for first, end in zip(offset, [*offset[1:], total])]
        self._fills = fills = (
            *(_pair_fill(total, offset, images, *target) for target in _TARGETS),
            lambda a: mirror[bisect_right(offset, a) - 1] - a)
        # Empty and full body over the empty header, then over the full one.
        self._consts = {ConstantKind.R00: 0, ConstantKind.R01: 1, ConstantKind.R10: offset[-1],
                        ConstantKind.R11: total - 1}
        # The generators of `symmetries`: (target of each attribute, target
        # rank of each value, moved attributes) for each.
        same, ranks = list(range(len(dims))), [range(d) for d in dims]
        moves = []
        last: dict[int, int] = {}  # domain size -> last attribute with it
        for p, d in enumerate(dims):
            if d in last:
                q = last[d]
                perm = list(same)
                perm[p], perm[q] = q, p
                moves.append((perm, ranks, 1 << p | 1 << q))
            else:
                for r in range(d - 1):
                    swapped = [*range(r), r + 1, r, *range(r + 2, d)]
                    moves.append((same, [*ranks[:p], swapped, *ranks[p + 1:]], 1 << p))
            last[d] = p
        self._symmetries = [self._symmetry(*move) for move in moves]
        # A missing code walks its orbit and fills it in for every member.
        self.orbit_least = _Bulk(partial(_orbit, self._symmetries))
        self._group: list[tuple[int, ...]] | None = None
        self._stabilizers: dict[int, list[int]] = {}  # filled by `stabilizer_least`
        if total * total > WHOLE_PAIRS:
            self._tables = tuple(map(_Table, fills))
        else:  # a table's first miss fills it whole, by the block routine
            blocks = _blocks(offset, sizes)
            self._tables = tuple(_Bulk(partial(_whole, make)) for make in (
                *(partial(_op_table, sizes, images, *target, blocks) for target in _TARGETS),
                partial(map, fills[4], range(total))))
        self._rows = row_tables(self._tables, total)

    # ----- codes and relations

    def encode(self, r: Relation) -> int:
        """Code of a relation already validated over the universe."""
        u = self.u
        positions = [u.attr_position(a) for a in r.header]
        h = sum(1 << p for p in positions)
        body = 0
        for tup in r.body:
            index = 0
            for p, v in zip(positions, tup):
                index = index * self._dims[p] + self._ranks[p][v]
            body |= 1 << index
        return self._offset[h] + body

    def decode(self, code: int) -> Relation:
        """The relation with code `code`, for `0 <= code < n`: the index of
        each set body bit, read as mixed-radix digits, gives one tuple."""
        h = self.header(code)
        positions = [p for p in range(len(self._dims)) if h >> p & 1]
        # The digits of a tuple's index, lowest first: the last attribute's rank first.
        digits = [(self._dims[p], self._values[p]) for p in reversed(positions)]
        body = code - self._offset[h]
        rows = []
        while body:  # set bits from the lowest: tuples in sorted order
            index = (body & -body).bit_length() - 1
            body &= body - 1
            row = []
            for dim, values in digits:
                index, rank = divmod(index, dim)
                row.append(values[rank])
            row.reverse()
            rows.append(tuple(row))
        return Relation(tuple(self.u.attributes[p] for p in positions), tuple(rows))

    def const(self, kind: ConstantKind) -> int:
        return self._consts[kind]

    def leaf(self, t: Const | Lit) -> int:
        """Code of a constant, or of a literal validated over the universe."""
        return self.encode(t.relation(self.u)) if isinstance(t, Lit) else self.const(t.kind)

    # ----- symmetries

    def symmetries(self) -> list[Callable[[int], int]]:
        """Generators of the universe's automorphism group, as maps on codes.

        Attributes with equal-size domains form a class.  The first of a
        class gets one map per two neighbouring values (in sorted order),
        swapping them; every other one a map exchanging it with the one
        before it in the class, values matched by rank.  The exchanges
        carry the first attribute's swaps to the others, so these maps
        generate every permutation of each domain and every exchange of
        attributes with equal-size domains.  Each commutes with every
        operation and fixes the four constants.
        """
        return self._symmetries

    def _symmetry(self, perm: list[int], values: list[Sequence[int]],
                  moved: int) -> Callable[[int], int]:
        """The map on codes moving attribute `p` to `perm[p]` and its value
        of rank `r` to rank `values[p][r]`; it fixes every code whose header
        has none of the `moved` attributes, and is built per header on first use."""
        # The closures hold no reference to the kernel, which holds them: a
        # kernel is freed as soon as its last user drops it, not by the cyclic GC.
        off, dims = self._offset, self._dims

        def build(h: int) -> tuple[int, Callable[[int], int]]:
            dst = sum(1 << perm[p] for p in range(len(perm)) if h >> p & 1)
            index = _tuple_map(dims, h, dst, perm, values)
            same = index == list(range(len(index)))  # only the header changes
            return off[dst], pos if same else _bit_map([1 << i for i in index])
        maps = _Table(build)

        def apply(code: int) -> int:
            h = bisect_right(off, code) - 1
            if not h & moved:  # the map is the identity on this header
                return code
            base, body = maps[h]
            return base + body(code - off[h])
        return apply


    def group_order(self) -> int:
        """The number of automorphisms: the product of `d!` over the domain
        sizes `d` and of `c!` over the numbers `c` of attributes sharing one."""
        return prod(map(factorial, [*self._dims, *Counter(self._dims).values()]))

    def stabilizer_least(self, first: int) -> list[int]:
        """For each code, the least code of its orbit under the automorphisms
        fixing `first`, kept per `first`.  The first call closes `symmetries`
        into the whole group, `group_order()` maps on codes of `n` entries
        each, and keeps it."""
        got = self._stabilizers.get(first)
        if got is not None:
            return got
        if self._group is None:
            n = self.n
            moves = [tuple(map(move, range(n))) for move in self.symmetries()]
            self._group = group = [tuple(range(n))]
            seen = set(group)
            for g in group:  # grows as the closure finds new maps
                for move in moves:
                    h = tuple(map(move.__getitem__, g))
                    if h not in seen:
                        seen.add(h)
                        group.append(h)
        fixing = [g for g in self._group if g[first] == first]
        got = self._stabilizers[first] = [-1] * self.n
        for code in range(self.n):
            if got[code] < 0:  # the least of an orbit not met yet
                for g in fixing:
                    got[g[code]] = code
        return got

    # ----- headers

    def header(self, code: int) -> int:
        return bisect_right(self._offset, code) - 1

    # ----- tables

    def tables(self) -> tuple[dict[int, int], ...]:
        """The meet, join, star, plus and complement tables of `checker.Compiled`.

        Entry `a * n + b` of a binary table is the operation on codes `a`
        and `b`.  Over at most `WHOLE_PAIRS` pairs, a table's first miss
        fills all of it by `_op_table`, at about a tenth of the cost per
        entry, which any check of two variables repays.  Larger tables
        fill the entry missed only, by the operation's `_pair_fill`
        closure.  All are dicts made with the kernel and kept; no fill
        holds the kernel, so they outlive it.
        """
        return self._tables

    def rows(self) -> tuple[_Table, ...] | None:
        """`row_tables` over `tables()`, kept with them."""
        return self._rows

    def bridge_tables(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Every entry of the meet, join and complement tables, as flat tuples
        of codes, entry `a * n + b` for codes `a` and `b`: the layout of
        `models.FiniteModel`.  Meet and join share one list of each header's
        codes, so they hold one int object per code."""
        blocks = _blocks(self._offset, self._sizes)
        meet, join = (tuple(_op_table(self._sizes, self._images, *target, blocks))
                      for target in _TARGETS[:2])
        return meet, join, tuple(map(self._fills[4], range(self.n)))


def _blocks(offset: Sequence[int], sizes: Sequence[int]) -> list[list[int]]:
    """The codes over each header, by body."""
    return [list(range(base, base + (1 << s))) for base, s in zip(offset, sizes)]


def _op_table(sizes: Sequence[int], images: dict[tuple[int, int], Callable[[int], int]],
              union: bool, conj: bool, blocks: list[list[int]]) -> list[int]:
    """Every entry of a binary table, flat, taken from `blocks`: both
    bodies moved onto the union (else the common) header, ANDed if `conj`.

    For each header of left operands, every block of equal-header
    right operands gets its target header, the left image map and
    the right bodies moved onto the target once; each left code then
    takes one AND or OR per entry.
    """
    out = []
    for ha, size_a in enumerate(sizes):
        targets = []  # per right header: target codes, left image, moved right bodies
        for hb, size_b in enumerate(sizes):
            h = ha | hb if union else ha & hb
            targets.append((blocks[h], images[ha, h], list(map(images[hb, h], range(1 << size_b)))))
        for body in range(1 << size_a):
            for block, image, rights in targets:
                left = image(body)
                out += ([block[left & right] for right in rights] if conj
                        else [block[left | right] for right in rights])
    return out


def _whole(make: Callable[[], Iterable[int]], key: int) -> dict[int, int]:
    """Every entry of a table, keyed by position, whichever `key` was missed."""
    return dict(enumerate(make()))


def _tuple_map(dims: Sequence[int], big: int, small: int, perm: Sequence[int] | None = None,
               values: Sequence[Sequence[int]] | None = None) -> list[int]:
    """For each tuple of header `big`, over domains of sizes `dims`, the
    index of its restriction to `small`, after moving attribute `p` to
    `perm[p]` and its value of rank `r` to rank `values[p][r]` (by
    default, moving nothing)."""
    weights = {}
    w = 1
    for p in reversed(range(len(dims))):
        if small >> p & 1:
            weights[p] = w
            w *= dims[p]
    index = [0]
    for p in range(len(dims)):
        if big >> p & 1:
            step = weights.get(p if perm is None else perm[p], 0)
            ranks = range(dims[p]) if values is None else values[p]
            index = [x + v * step for x in index for v in ranks]
    return index


def _build_image(dims: Sequence[int], sizes: Sequence[int], key: tuple[int, int]
                 ) -> Callable[[int], int]:
    """Map from a body over header `src` to its body over header `dst`, for
    `key` = (`src`, `dst`): onto a larger `dst` the cylinder (every extension
    of every tuple), onto a smaller one the projection."""
    src, dst = key
    if src == dst:
        return pos  # the identity on ints
    if src & dst == src:  # cylinder
        bits = [0] * sizes[src]
        for j, i in enumerate(_tuple_map(dims, dst, src)):
            bits[i] |= 1 << j
    else:  # projection
        bits = [1 << j for j in _tuple_map(dims, src, dst)]
    return _bit_map(bits)


def _pair_fill(n: int, off: Sequence[int], images: dict[tuple[int, int], Callable[[int], int]],
               union: bool, conj: bool) -> Callable[[int], int]:
    """The operation on codes `a` and `b`, as a map from `a * n + b`: both
    bodies moved onto the union (else the common) header, ANDed if `conj`.
    Each header pair's target offset, image maps and source offsets are
    looked up once.  It holds no reference to the kernel, which holds it.
    """
    combine = and_ if conj else or_

    def lift(pair: tuple[int, int]) -> tuple:
        ha, hb = pair
        h = ha | hb if union else ha & hb
        return off[h], images[ha, h], images[hb, h], off[ha], off[hb]
    pairs = _Table(lift)

    def fill(key: int) -> int:
        a, b = divmod(key, n)
        base, fa, fb, oa, ob = pairs[bisect_right(off, a) - 1, bisect_right(off, b) - 1]
        return base + combine(fa(a - oa), fb(b - ob))
    return fill


def _bit_map(bits: list[int]) -> Callable[[int], int]:
    """The map sending a body to the union of `bits[j]` over its set bits `j`.

    It looks up `_CHUNK` body bits at a time in tables built by doubling.
    """
    tables = []
    for base in range(0, len(bits), _CHUNK):
        table = [0]
        for bit in bits[base:base + _CHUNK]:
            table += [t | bit for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def image(body: int) -> int:
        out = 0
        for table in tables:
            out |= table[body & _CHUNK_MASK]
            body >>= _CHUNK
        return out
    return image


def _orbit(moves: Sequence[Callable[[int], int]], code: int) -> dict[int, int]:
    """The least code of the orbit of `code` under `moves`, keyed by every member."""
    orbit, todo = {code}, [code]
    for x in todo:  # grows as the walk finds new members
        for move in moves:
            y = move(x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return dict.fromkeys(orbit, min(orbit))


def row_tables(tables: Sequence, n: int) -> tuple[_Table, ...] | None:
    """`MR JR SR PR MC JC SC PC CR KR` and the value rows `MRV .. CRV` of
    `checker.Compiled` over its tables `M J S P C` on `range(n)`, or None past
    256 elements, each filled on first use.  `MR[a]` is row `a` of `M`, `MC[b]`
    its column `b` and `CR[0]` is `C`, each as a `bytes.translate` table;
    `KR[v]` is `n` copies of `v`, and `MRV[a]` is `MR[a]` cut to `n` bytes,
    what `MR[a]` makes of the last variable's row `bytes(range(n))`."""
    if n > 256:
        return None
    *binary, comp = tables
    lines = (*[_Table(partial(_line, t, n, n, 1)) for t in binary],
             *[_Table(partial(_line, t, 1, n * n, n)) for t in binary],
             _Table(partial(_line, comp, n, n, 1)))
    return (*lines, _Table(lambda v: bytes((v,)) * n),
            *[_Table(lambda key, line=line: line[key][:n]) for line in lines])


def _line(table: Sequence[int] | dict[int, int], scale: int, span: int, step: int,
          key: int) -> bytes:
    """Row (`step` 1) or column (`step` n) `key` of a flat table: a tuple is
    sliced, a dict read entry by entry, filling it."""
    start = key * scale
    cells = (table[start:start + span:step] if type(table) is tuple
             else map(table.__getitem__, range(start, start + span, step)))
    return bytes(cells).ljust(256, b"\0")


class _Table(dict):
    """A dict that fills a missing entry with `fill(key)`."""

    __slots__ = ("fill",)

    # No `dict.__init__` call: `dict.__new__` made it empty, and a kernel
    # builds a dozen of these and more.
    def __init__(self, fill: Callable[[Any], Any]):
        self.fill = fill

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.fill(key)
        return value


class _Bulk(_Table):
    """A `_Table` whose miss adds every entry of the dict `fill(key)`: a whole
    table, or the orbit of a code."""

    __slots__ = ()

    def __missing__(self, key: Any) -> Any:
        entries = self.fill(key)
        self.update(entries)
        return entries[key]
