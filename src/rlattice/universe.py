"""Finite universes, relations, and the lattice operations over them.

A universe declares a finite set of attributes, each with a finite value
domain.  Relations over a universe are header + body pairs with set
semantics.  All operations are pure functions taking the universe as
explicit context: the full relation, complement, and outer union are
meaningless without declared domains.

Everything is kept in a canonical form (attributes in universe order,
tuples sorted lexicographically) so that equality, hashing, and every
operation result are representation-independent and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Mapping, Sequence

DEFAULT_CAP = 2 ** 20

# Words that cannot be used as attribute names or domain values because
# they collide with the expression syntax (see rlattice.terms).
RESERVED_WORDS = frozenset({"v", "empty", "full", "R00", "R01", "R10", "R11"})


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class UniverseError(LatticeError):
    """Invalid universe declaration."""


class RelationError(LatticeError):
    """Relation not valid over the universe it is used with."""


class CapacityError(LatticeError):
    """A full tuple space would exceed the universe's cap."""


class ConstantKind(Enum):
    """The four distinguished relation constants."""

    R00 = "R00"  # empty header, empty body
    R01 = "R01"  # empty header, one empty tuple
    R10 = "R10"  # full header, empty body
    R11 = "R11"  # full header, all tuples


@dataclass(frozen=True)
class Universe:
    """A finite attribute set with a finite value domain per attribute.

    `domains[i]` is the domain of `attributes[i]`.  The product of all
    domain sizes (the full tuple space) must not exceed `cap`.
    """

    attributes: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if len(self.attributes) != len(self.domains):
            raise UniverseError("one domain required per attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise UniverseError("attribute names must be pairwise distinct")
        for name in self.attributes:
            if not name:
                raise UniverseError("attribute names must be nonempty")
            if name in RESERVED_WORDS:
                raise UniverseError(f"attribute name {name!r} is reserved")
        for name, dom in zip(self.attributes, self.domains):
            if not dom:
                raise UniverseError(f"domain of {name!r} is empty")
            if len(set(dom)) != len(dom):
                raise UniverseError(f"domain of {name!r} has duplicate values")
            for value in dom:
                if value in RESERVED_WORDS:
                    raise UniverseError(f"domain value {value!r} is reserved")
        if self.cap <= 0:
            raise UniverseError("cap must be positive")
        space = 1
        for dom in self.domains:
            space *= len(dom)
        if space > self.cap:
            raise UniverseError(
                f"full tuple space has {space} tuples, exceeding cap {self.cap}"
            )
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.attributes)})
        object.__setattr__(
            self, "_value_sets", {a: frozenset(d) for a, d in zip(self.attributes, self.domains)}
        )

    @classmethod
    def make(cls, decl: Mapping[str, Sequence[str]] | Iterable[tuple[str, Sequence[str]]],
             cap: int = DEFAULT_CAP) -> "Universe":
        pairs = list(decl.items()) if isinstance(decl, Mapping) else list(decl)
        return cls(
            attributes=tuple(name for name, _ in pairs),
            domains=tuple(tuple(values) for _, values in pairs),
            cap=cap,
        )

    @classmethod
    def parse(cls, text: str, cap: int = DEFAULT_CAP) -> "Universe":
        """Parse a universe definition: one `name : v1, v2, ...` line per attribute."""
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise UniverseError(f"line {lineno}: expected `name : value, ...`")
            name, _, rest = line.partition(":")
            values = [v.strip() for v in rest.split(",")]
            if any(not v for v in values):
                raise UniverseError(f"line {lineno}: empty value in domain list")
            pairs.append((name.strip(), values))
        if not pairs and text.strip():
            raise UniverseError("no attribute lines found")
        return cls.make(pairs, cap=cap)

    @classmethod
    def load(cls, path: str, cap: int = DEFAULT_CAP) -> "Universe":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read(), cap=cap)

    def domain(self, attr: str) -> tuple[str, ...]:
        try:
            return self.domains[self._index[attr]]
        except KeyError:
            raise UniverseError(f"unknown attribute {attr!r}") from None

    def attr_position(self, attr: str) -> int:
        return self._index[attr]

    def sort_header(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """Canonical header: the given attributes in universe order."""
        given = set(attrs)
        unknown = sorted(given - self._index.keys())
        if unknown:
            raise RelationError(f"attribute {unknown[0]!r} not in universe")
        return tuple(a for a in self.attributes if a in given)

    def space_size(self, header: Sequence[str]) -> int:
        return math.prod(len(self.domain(a)) for a in header)

    def full_body(self, header: tuple[str, ...]) -> list[tuple[str, ...]]:
        """All tuples over `header`, lexicographically sorted."""
        if self.space_size(header) > self.cap:
            raise CapacityError(
                f"full space over {header} exceeds cap {self.cap}"
            )
        doms = [sorted(self.domain(a)) for a in header]
        return [tuple(vals) for vals in product(*doms)]

    def relation(self, header: Iterable[str],
                 rows: Iterable[Mapping[str, str] | Sequence[str]] = ()) -> "Relation":
        """Build and validate a relation over this universe.

        Rows may be mappings from attribute to value, or sequences aligned
        with the header as given.  Foreign attributes and out-of-domain
        values are hard errors, never coerced.
        """
        given = tuple(header)
        for a in given:
            if a not in self._index:
                raise RelationError(f"attribute {a!r} not in universe")
        if len(set(given)) != len(given):
            raise RelationError("duplicate attribute in header")
        canonical = self.sort_header(given)
        body = set()
        for row in rows:
            if isinstance(row, Mapping):
                if set(row) != set(given):
                    raise RelationError(
                        f"tuple attributes {sorted(row)} do not match header {list(given)}"
                    )
                tup = tuple(row[a] for a in canonical)
            else:
                vals = tuple(row)
                if len(vals) != len(given):
                    raise RelationError("tuple arity does not match header")
                bymap = dict(zip(given, vals))
                tup = tuple(bymap[a] for a in canonical)
            for a, v in zip(canonical, tup):
                if v not in self._value_sets[a]:
                    raise RelationError(f"value {v!r} not in domain of {a!r}")
            body.add(tup)
        return Relation(canonical, tuple(sorted(body)))

    def validate(self, r: "Relation") -> None:
        """Raise RelationError unless `r` is a relation over this universe."""
        for a in r.header:
            if a not in self._index:
                raise RelationError(f"attribute {a!r} not in universe")
        if r.header != self.sort_header(r.header):
            raise RelationError("header not in universe order")
        for tup in r.body:
            if len(tup) != len(r.header):
                raise RelationError("tuple arity does not match header")
            for a, v in zip(r.header, tup):
                if v not in self._value_sets[a]:
                    raise RelationError(f"value {v!r} not in domain of {a!r}")


@dataclass(frozen=True)
class Relation:
    """An immutable relation: header plus a set of tuples over the header.

    The header is a tuple of attribute names in universe order; the body
    is a lexicographically sorted tuple of value tuples aligned with the
    header.  Construct via Universe.relation or the operations below.
    """

    header: tuple[str, ...]
    body: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.header, self.body)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def cardinality(self) -> int:
        return len(self.body)

    def tuples(self) -> list[dict[str, str]]:
        """Body as attribute-to-value mappings, in canonical order."""
        return [dict(zip(self.header, tup)) for tup in self.body]


def _restrict(tup: tuple[str, ...], positions: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(tup[i] for i in positions)


def _positions(header: tuple[str, ...], attrs: tuple[str, ...]) -> tuple[int, ...]:
    index = {a: i for i, a in enumerate(header)}
    return tuple(index[a] for a in attrs)


def project(u: Universe, r: Relation, attrs: Iterable[str]) -> Relation:
    """Projection of `r` onto a subset of its header."""
    target = u.sort_header(attrs)
    for a in target:
        if a not in r.header:
            raise RelationError(f"cannot project onto {a!r}: not in header")
    pos = _positions(r.header, target)
    return Relation(target, tuple(sorted({_restrict(t, pos) for t in r.body})))


def constant(u: Universe, kind: ConstantKind) -> Relation:
    """Materialize one of the four distinguished constants over `u`."""
    if kind is ConstantKind.R00:
        return Relation((), ())
    if kind is ConstantKind.R01:
        return Relation((), ((),))
    header = u.attributes
    if kind is ConstantKind.R10:
        return Relation(header, ())
    return Relation(header, tuple(u.full_body(header)))


def natural_join(u: Universe, r: Relation, s: Relation) -> Relation:
    """Lattice meet: tuples over the union header that restrict into both bodies."""
    u.validate(r)
    u.validate(s)
    header = u.sort_header(set(r.header) | set(s.header))
    common = u.sort_header(set(r.header) & set(s.header))
    r_common = _positions(r.header, common)
    s_common = _positions(s.header, common)
    by_key: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for ts in s.body:
        by_key.setdefault(_restrict(ts, s_common), []).append(ts)
    r_of = {a: i for i, a in enumerate(r.header)}
    s_of = {a: i for i, a in enumerate(s.header)}
    body = set()
    for tr in r.body:
        for ts in by_key.get(_restrict(tr, r_common), ()):
            body.add(tuple(
                tr[r_of[a]] if a in r_of else ts[s_of[a]] for a in header
            ))
    return Relation(header, tuple(sorted(body)))


def inner_union(u: Universe, r: Relation, s: Relation) -> Relation:
    """Lattice join: union of both projections onto the common header."""
    u.validate(r)
    u.validate(s)
    common = u.sort_header(set(r.header) & set(s.header))
    r_pos = _positions(r.header, common)
    s_pos = _positions(s.header, common)
    body = {_restrict(t, r_pos) for t in r.body} | {_restrict(t, s_pos) for t in s.body}
    return Relation(common, tuple(sorted(body)))


def inner_join(u: Universe, r: Relation, s: Relation) -> Relation:
    """Intersection of both projections onto the common header.

    Dual of outer_union.  Not associative, and deliberately so: this is
    the point-wise definition; inner_join_pointfree must agree with it on
    every pair of relations.
    """
    u.validate(r)
    u.validate(s)
    common = u.sort_header(set(r.header) & set(s.header))
    r_pos = _positions(r.header, common)
    s_pos = _positions(s.header, common)
    body = {_restrict(t, r_pos) for t in r.body} & {_restrict(t, s_pos) for t in s.body}
    return Relation(common, tuple(sorted(body)))


def inner_join_pointfree(u: Universe, r: Relation, s: Relation) -> Relation:
    """inner_join via the lattice: (r v (s ^ R00)) ^ (s v (r ^ R00))."""
    r00 = constant(u, ConstantKind.R00)
    return natural_join(
        u,
        inner_union(u, r, natural_join(u, s, r00)),
        inner_union(u, s, natural_join(u, r, r00)),
    )


def outer_union(u: Universe, r: Relation, s: Relation) -> Relation:
    """Union after extending both operands to the union header.

    Missing attributes range over their whole domain, so a tuple of `r`
    contributes every completion of itself over the attributes it lacks.
    """
    u.validate(r)
    u.validate(s)
    header = u.sort_header(set(r.header) | set(s.header))
    body = set(_extend_all(u, r, header))
    body.update(_extend_all(u, s, header))
    return Relation(header, tuple(sorted(body)))


def _extend_all(u: Universe, r: Relation, header: tuple[str, ...]) -> Iterable[tuple[str, ...]]:
    missing = tuple(a for a in header if a not in r.header)
    if u.space_size(missing) * max(len(r.body), 1) > u.cap:
        raise CapacityError(f"extension over {header} exceeds cap {u.cap}")
    r_of = {a: i for i, a in enumerate(r.header)}
    doms = [sorted(u.domain(a)) for a in missing]
    for tr in r.body:
        for extra in product(*doms):
            filler = dict(zip(missing, extra))
            yield tuple(tr[r_of[a]] if a in r_of else filler[a] for a in header)


def outer_union_pointfree(u: Universe, r: Relation, s: Relation) -> Relation:
    """outer_union via the lattice: (r ^ (s v R11)) v (s ^ (r v R11))."""
    r11 = constant(u, ConstantKind.R11)
    return inner_union(
        u,
        natural_join(u, r, inner_union(u, s, r11)),
        natural_join(u, s, inner_union(u, r, r11)),
    )


def complement(u: Universe, r: Relation) -> Relation:
    """All tuples over the operand's header that are not in its body."""
    u.validate(r)
    have = set(r.body)
    body = tuple(t for t in u.full_body(r.header) if t not in have)
    return Relation(r.header, body)


def leq(u: Universe, r: Relation, s: Relation) -> bool:
    """Lattice order: r is below s iff joining with s leaves r unchanged."""
    return natural_join(u, r, s) == r


def cylindrify(u: Universe, y: Relation, x: Relation) -> Relation:
    """Binary cylindrification: (y v R11) + x."""
    r11 = constant(u, ConstantKind.R11)
    return outer_union(u, inner_union(u, y, r11), x)


def inclusion_dep(u: Universe, r: Relation, s: Relation, x: Relation) -> bool:
    """Generalized inclusion dependency: r v x is below s v x."""
    return leq(u, inner_union(u, r, x), inner_union(u, s, x))


MEET = "^"
JOIN = "v"
OUTER = "+"
_READING_OPS = (MEET, JOIN, OUTER)


@dataclass(frozen=True)
class FdReading:
    """How the two ambiguous operator slots of the dependency predicate read.

    `combine` is the operator stacking r, x, y inside the order constraint;
    `augment` is the operator pairing x with z (and y with z) in the
    augmentation law.  Each is '^', 'v', or '+'.
    """

    combine: str
    augment: str

    def __post_init__(self) -> None:
        if self.combine not in _READING_OPS or self.augment not in _READING_OPS:
            raise ValueError("reading operators must be '^', 'v' or '+'")

    @property
    def name(self) -> str:
        word = {MEET: "meet", JOIN: "join", OUTER: "outer"}
        return f"{word[self.combine]}/{word[self.augment]}"


# Default fixed by the discrimination harness in rlattice.suites: stacking
# with outer union is the only combine under which all three dependency
# laws survive without degenerating into a constantly-true predicate, and
# the meet augmentation is the one the complement expansion pairs with.
DEFAULT_FD_READING = FdReading(combine=OUTER, augment=MEET)


def fd(u: Universe, r: Relation, x: Relation, y: Relation,
       reading: FdReading = DEFAULT_FD_READING) -> bool:
    """Lattice-order dependency of y on x within r.

    Under the default reading this is  (r + x) + y  <  (r + x) + y',
    which over a common header asks every completion of y to lie inside
    the completions of r and x.
    """
    op = {MEET: natural_join, JOIN: inner_union, OUTER: outer_union}[reading.combine]
    rx = op(u, r, x)
    return leq(u, op(u, rx, y), op(u, rx, complement(u, y)))
