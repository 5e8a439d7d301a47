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
pays only for the header pairs its terms reach.

`RelationKernel.symmetries` gives generators of the universe's
automorphism group as maps on codes: they permute header masks and body
bits, again through tables built lazily per header, and decode nothing.
`least_codes` yields the least code of each orbit, lazily and in
increasing order, for the checker's symmetry-reduced walk.

`RelationKernel.tables` hands the checker operation tables whose entries
are computed on first use, so the checks on one kernel compute each pair
they reach once; `bridge_tables` fills every meet, join and complement
entry for `models.model_from_universe`, in its flat layout, moving each
right operand's body once per pair of headers and taking every entry from
one list of each header's codes.
The relation-level functions in `rlattice.universe` are the reference
these operations are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import chain
from operator import pos
from typing import Callable, Iterator, Sequence
from weakref import proxy

from .terms import Const, Lit
from .universe import ConstantKind, LatticeError, Relation, Universe

DEFAULT_ENUM_BUDGET = 1_000_000

_CHUNK = 8  # body bits per image-table lookup
_CHUNK_MASK = (1 << _CHUNK) - 1


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
    the space beyond that.  The image tables, symmetry maps, orbits and
    operation tables are kept per kernel and shared by every check handed
    it (`checker.check`'s `kernel`): a suite run, the reading harness and
    `check -f FILE` keep one kernel per universe for all their checks.
    Nothing the kernel keeps refers back to it, so it is freed, with all
    of that, as soon as its last user drops it.
    """

    def __init__(self, u: Universe, budget: int = DEFAULT_ENUM_BUDGET):
        self.u = u
        self._dims = [len(d) for d in u.domains]
        self._values = [sorted(d) for d in u.domains]
        self._ranks = [{v: i for i, v in enumerate(values)} for values in self._values]
        self._sizes = sizes = [1]
        self._offset = offset = []
        total = 0
        for h in range(2 ** len(u.attributes)):
            if h:
                low = (h & -h).bit_length() - 1
                sizes.append(sizes[h & (h - 1)] * self._dims[low])
            offset.append(total)
            total += 1 << sizes[h]
            if total > budget:
                raise EnumerationBudgetError(
                    f"universe has more relations than the enumeration budget of {budget}")
        self.n = total
        self._full = [(1 << s) - 1 for s in sizes]
        self._images: dict[tuple[int, int], Callable[[int], int]] = {}
        # Empty and full body over the empty header, then over the full one.
        self._consts = {ConstantKind.R00: 0, ConstantKind.R01: 1, ConstantKind.R10: offset[-1],
                        ConstantKind.R11: offset[-1] + self._full[-1]}
        self.r11 = self._consts[ConstantKind.R11]
        # Set here, not on first use: an attribute added later to an instance
        # slows every other attribute lookup on it, in every table fill.
        self._symmetries: list[Callable[[int], int]] | None = None
        self.orbit_least: dict[int, int] = {}  # filled by `least_codes`
        self._tables: tuple[dict[int, int], ...] | None = None

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

    # ----- header-pair maps

    def _image(self, src: int, dst: int) -> Callable[[int], int]:
        """Map from a body over header `src` to its body over header `dst`.

        One of the headers contains the other: a larger `dst` gives the
        cylinder (every extension of every tuple), a smaller one the
        projection.
        """
        got = self._images.get((src, dst))
        if got is None:
            got = self._images[src, dst] = self._build_image(src, dst)
        return got

    def _build_image(self, src: int, dst: int) -> Callable[[int], int]:
        if src == dst:
            return pos  # the identity on ints
        if src & dst == src:  # cylinder
            bits = [0] * self._sizes[src]
            for j, i in enumerate(_tuple_map(self._dims, dst, src)):
                bits[i] |= 1 << j
        else:  # projection
            bits = [1 << j for j in _tuple_map(self._dims, src, dst)]
        return _bit_map(bits)

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
        if self._symmetries is None:
            dims = self._dims
            same = list(range(len(dims)))
            ranks = [range(d) for d in dims]
            moves = []  # (target of each attribute, target rank of each value, moved attributes)
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
        return self._symmetries

    def _symmetry(self, perm: list[int], values: list[Sequence[int]],
                  moved: int) -> Callable[[int], int]:
        """The map on codes moving attribute `p` to `perm[p]` and its value
        of rank `r` to rank `values[p][r]`; it fixes every code whose header
        has none of the `moved` attributes, and is built per header on first use."""
        # The closures hold no reference to the kernel, which holds them: a
        # kernel is freed as soon as its last user drops it, not by the cyclic GC.
        off, dims = self._offset, self._dims
        maps: dict[int, tuple[int, Callable[[int], int]]] = {}

        def build(h: int) -> tuple[int, Callable[[int], int]]:
            dst = sum(1 << perm[p] for p in range(len(perm)) if h >> p & 1)
            index = _tuple_map(dims, h, dst, perm, values)
            same = index == list(range(len(index)))  # only the header changes
            got = maps[h] = off[dst], pos if same else _bit_map([1 << i for i in index])
            return got

        def apply(code: int) -> int:
            h = bisect_right(off, code) - 1
            if not h & moved:  # the map is the identity on this header
                return code
            base, body = maps.get(h) or build(h)
            return base + body(code - off[h])
        return apply

    def least_codes(self) -> Iterator[int]:
        """The least code of every orbit under `symmetries`, in increasing order.

        On reaching a code that no earlier orbit holds, this walks the
        code's orbit, records the code in `orbit_least` for every member,
        and yields it.  So `orbit_least` covers every code below the one
        yielded, and a caller that stops early pays only for the orbits
        below where it stopped.
        """
        least, moves = self.orbit_least, self.symmetries()
        for code in range(self.n):
            if code not in least:
                least[code] = code
                todo = [code]
                for x in todo:  # grows as the walk finds new members
                    for move in moves:
                        y = move(x)
                        if y not in least:
                            least[y] = code
                            todo.append(y)
            if least[code] == code:
                yield code

    # ----- operations on codes

    def header(self, code: int) -> int:
        return bisect_right(self._offset, code) - 1

    def _lift(self, a: int, b: int, union: bool) -> tuple[int, int, int]:
        """Offset of the union (or common) header of `a` and `b`, and both bodies moved onto it."""
        off, images = self._offset, self._images
        ha, hb = bisect_right(off, a) - 1, bisect_right(off, b) - 1
        h = ha | hb if union else ha & hb
        fa = images.get((ha, h)) or self._image(ha, h)
        fb = images.get((hb, h)) or self._image(hb, h)
        return off[h], fa(a - off[ha]), fb(b - off[hb])

    def meet(self, a: int, b: int) -> int:
        """Natural join: both cylinders onto the union header, intersected."""
        base, x, y = self._lift(a, b, True)
        return base + (x & y)

    def plus(self, a: int, b: int) -> int:
        """Outer union: both cylinders onto the union header, united."""
        base, x, y = self._lift(a, b, True)
        return base + (x | y)

    def join(self, a: int, b: int) -> int:
        """Inner union: both projections onto the common header, united."""
        base, x, y = self._lift(a, b, False)
        return base + (x | y)

    def star(self, a: int, b: int) -> int:
        """Inner join: both projections onto the common header, intersected."""
        base, x, y = self._lift(a, b, False)
        return base + (x & y)

    def comp(self, a: int) -> int:
        h = self.header(a)
        return self._offset[h] + (self._full[h] ^ (a - self._offset[h]))

    # ----- tables

    def tables(self) -> tuple[dict[int, int], ...]:
        """The meet, join, star, plus and complement tables of `checker.Compiled`.

        Entries are computed on first use, entry `a * n + b` of a binary
        table by the operation on codes `a` and `b`, so the checks given
        this kernel pay only for the pairs they reach and each of them
        once.  The tables are made on the first call and kept; they reach
        the kernel through a weak proxy, so they must not be used after
        it is gone.
        """
        if self._tables is None:
            me, n = proxy(self), self.n
            binary = [_Table(lambda key, op=op: getattr(me, op)(*divmod(key, n)))
                      for op in ("meet", "join", "star", "plus")]
            self._tables = (*binary, _Table(lambda a: me.comp(a)))
        return self._tables

    def bridge_tables(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Every entry of the meet, join and complement tables, as flat tuples
        of codes: entry `a * n + b` of a binary table is the operation on
        codes `a` and `b`, the layout of `models.FiniteModel`.

        For each header of left operands, every block of equal-header
        right operands gets its target header, the left image map and
        the right bodies moved onto the target once; each left code then
        takes one AND or OR per entry.  Every entry is taken from one list
        per header of its codes, so the tables hold one int object per code.
        """
        sizes = self._sizes
        # The codes over each header, by body: complementing a body reverses its block.
        blocks = [list(range(base, base + (1 << s))) for base, s in zip(self._offset, sizes)]

        def flat(union: bool) -> tuple[int, ...]:
            out: list[int] = []
            for ha, size_a in enumerate(sizes):
                targets = []  # per right header: target codes, left image, moved right bodies
                for hb, size_b in enumerate(sizes):
                    h = ha | hb if union else ha & hb
                    targets.append((blocks[h], self._image(ha, h),
                                    list(map(self._image(hb, h), range(1 << size_b)))))
                for body in range(1 << size_a):
                    for block, image, rights in targets:
                        left = image(body)
                        out += ([block[left & right] for right in rights] if union
                                else [block[left | right] for right in rights])
            return tuple(out)

        return flat(True), flat(False), tuple(chain.from_iterable(b[::-1] for b in blocks))


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


def _bit_map(bits: list[int]) -> Callable[[int], int]:
    """The map sending a body to the union of `bits[j]` over its set bits `j`.

    It looks up `_CHUNK` body bits at a time in precomputed tables.
    """
    tables = []
    for base in range(0, len(bits), _CHUNK):
        chunk = bits[base:base + _CHUNK]
        table = [0] * (1 << len(chunk))
        for v in range(1, len(table)):
            table[v] = table[v & (v - 1)] | chunk[(v & -v).bit_length() - 1]
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


class _Table(dict):
    """A dict that fills a missing entry with `fill(key)`."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[int], int]):
        super().__init__()
        self.fill = fill

    def __missing__(self, key: int) -> int:
        value = self[key] = self.fill(key)
        return value
