"""The lattice operations on integer relation codes.

A relation over a universe is coded by its index in the canonical
enumeration (`checker.enumerate_relations`), which is exactly

    code = offset[header mask] + body bitmask

Headers are ordered by their attribute bitmask (attribute 0 is the low
bit) and `offset[h]` counts the relations over all smaller masks.  Bit
`i` of the body stands for the `i`-th tuple of the header's
lexicographically sorted tuple space, the order of `Universe.full_body`.

Every binary operation moves both bodies onto one target header and then
combines them with a single AND or OR: meet and outer union lift them
onto the union header (cylinders), inner union and inner join project
them onto the common header.  The maps that move a body between two
headers are built lazily, once per header pair and kernel, so a check
pays only for the header pairs its terms reach.

The relation-level functions in `rlattice.universe` are the reference
these operations are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from .terms import Lit
from .universe import ConstantKind, Relation, Universe, constant

_CHUNK = 8  # body bits per image-table lookup
_CHUNK_MASK = (1 << _CHUNK) - 1


class RelationKernel:
    """Code-level operations over one universe, with the checker's ops interface.

    Moving bodies from a header with a tuple space of `s` tuples costs
    image tables of about `32 * s` entries, each as wide as the target
    space: small for every universe whose relations can be enumerated,
    but growing with the square of the space beyond that.  `binary_fn`
    and `below` memoize per kernel, so a kernel lives as long as one check.
    """

    def __init__(self, u: Universe):
        self.u = u
        self._dims = [len(d) for d in u.domains]
        self._ranks = [{v: i for i, v in enumerate(sorted(d))} for d in u.domains]
        sizes = [1]
        for h in range(1, 2 ** len(u.attributes)):
            low = (h & -h).bit_length() - 1
            sizes.append(sizes[h & (h - 1)] * self._dims[low])
        self.sizes = sizes
        self.full = [(1 << s) - 1 for s in sizes]
        self.offset = []
        total = 0
        for s in sizes:
            self.offset.append(total)
            total += 1 << s
        self._images: dict[tuple[int, int], Callable[[int], int]] = {}
        self.r11 = self.const(ConstantKind.R11)
        self._memoized = {op: _memoize(fn, total) for op, fn in (
            ("^", self.meet), ("v", self.join), ("*", self.star),
            ("+", self.plus), ("@", self.at))}

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
        return self.offset[h] + body

    def const(self, kind: ConstantKind) -> int:
        return self.encode(constant(self.u, kind))

    def literal(self, lit: Lit) -> int:
        return self.encode(lit.relation(self.u))

    # ----- header-pair maps

    def _tuple_map(self, big: int, small: int) -> list[int]:
        """For each tuple of header `big`, the index of its restriction to `small`."""
        weights = {}
        w = 1
        for p in reversed(range(len(self._dims))):
            if small >> p & 1:
                weights[p] = w
                w *= self._dims[p]
        index = [0]
        for p in range(len(self._dims)):
            if big >> p & 1:
                step = weights.get(p, 0)
                index = [x + v * step for x in index for v in range(self._dims[p])]
        return index

    def image(self, src: int, dst: int) -> Callable[[int], int]:
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
        if src & dst == src:  # cylinder; also the identity when src == dst
            bits = [0] * self.sizes[src]
            for j, i in enumerate(self._tuple_map(dst, src)):
                bits[i] |= 1 << j
        else:  # projection
            bits = [1 << j for j in self._tuple_map(src, dst)]
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

    # ----- operations on codes

    def header(self, code: int) -> int:
        return bisect_right(self.offset, code) - 1

    def _bodies(self, a: int, ha: int, b: int, hb: int, h: int) -> tuple[int, int]:
        """The bodies of codes `a` (header `ha`) and `b` (header `hb`) moved onto header `h`."""
        off, images = self.offset, self._images
        fa = images.get((ha, h)) or self.image(ha, h)
        fb = images.get((hb, h)) or self.image(hb, h)
        return fa(a - off[ha]), fb(b - off[hb])

    def meet(self, a: int, b: int) -> int:
        """Natural join: both cylinders onto the union header, intersected."""
        off = self.offset
        ha, hb = bisect_right(off, a) - 1, bisect_right(off, b) - 1
        x, y = self._bodies(a, ha, b, hb, ha | hb)
        return off[ha | hb] + (x & y)

    def plus(self, a: int, b: int) -> int:
        """Outer union: both cylinders onto the union header, united."""
        off = self.offset
        ha, hb = bisect_right(off, a) - 1, bisect_right(off, b) - 1
        x, y = self._bodies(a, ha, b, hb, ha | hb)
        return off[ha | hb] + (x | y)

    def join(self, a: int, b: int) -> int:
        """Inner union: both projections onto the common header, united."""
        off = self.offset
        ha, hb = bisect_right(off, a) - 1, bisect_right(off, b) - 1
        x, y = self._bodies(a, ha, b, hb, ha & hb)
        return off[ha & hb] + (x | y)

    def star(self, a: int, b: int) -> int:
        """Inner join: both projections onto the common header, intersected."""
        off = self.offset
        ha, hb = bisect_right(off, a) - 1, bisect_right(off, b) - 1
        x, y = self._bodies(a, ha, b, hb, ha & hb)
        return off[ha & hb] + (x & y)

    def at(self, a: int, b: int) -> int:
        # y @ x is (y v R11) + x
        return self.plus(self.join(a, self.r11), b)

    def comp(self, a: int) -> int:
        h = self.header(a)
        return self.offset[h] + (self.full[h] ^ (a - self.offset[h]))

    # ----- the checker's ops interface, memoized per kernel

    def binary_fn(self, op: str) -> Callable[[int, int], int]:
        return self._memoized[op]

    def below(self, a: int, b: int) -> bool:
        return self._memoized["^"](a, b) == a


def _memoize(fn: Callable[[int, int], int], n: int) -> Callable[[int, int], int]:
    memo: dict[int, int] = {}

    def memoized(a: int, b: int) -> int:
        key = a * n + b
        got = memo.get(key)
        if got is None:
            got = memo[key] = fn(a, b)
        return got
    return memoized
