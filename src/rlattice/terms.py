"""Abstract syntax and parser for lattice terms and statements.

Operator set (ASCII): `^` natural join, `v` inner union, `*` inner join,
`+` outer union, postfix `'` complement, `@` cylindrification.  Constants
R00, R01, R10, R11 are reserved words, as are `v`, `empty`, and `full`.

Two deliberate strictures keep formulas unambiguous:

- postfix `'` binds tightest;
- a chain of one repeated binary operator associates left, but two
  *different* binary operators may never meet without parentheses.

Statements are equations (`=`), inequations (`!=`), order assertions
(`<`), and Horn implications (`a & b -> c`).  Goal syntax for model
search additionally admits a top-level disjunction (`a | b`).

A term nests at most `MAX_TERM_DEPTH` levels: at most that many
operators (binary or `'`) on any path from the root to a leaf, and at
most that many parentheses open at once.  Deeper input is a `ParseError`,
so no later recursive walk over a term (evaluating, hashing, printing)
runs out of stack.

A statement (but not a term) computes its hash once and keeps it, out
of its pickled and copied state (see `_hash_once`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .universe import ConstantKind, LatticeError, Relation, Universe

BINARY_OPS = ("^", "v", "*", "+", "@")
MAX_TERM_DEPTH = 100


class ParseError(LatticeError):
    """Syntax error, carrying the offending position in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class MixedOperatorError(ParseError):
    """Two different binary operators met without parentheses."""


# --- terms -----------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    kind: ConstantKind


@dataclass(frozen=True)
class Lit:
    """A relation literal: explicit tuples, or empty/full over a header.

    For `shape == "rows"`, attrs is the attribute order of the first tuple
    as written and every row is aligned with it.  Literals validate
    against the active universe at evaluation time, not at parse time.
    """

    shape: str  # "rows" | "empty" | "full"
    attrs: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...] = ()

    def relation(self, u: Universe) -> Relation:
        """The relation this literal denotes over `u`, validated against it."""
        rel = u.relation(self.attrs, self.rows if self.shape == "rows" else ())
        if self.shape == "full":
            rel = Relation(rel.header, tuple(u.full_body(rel.header)))
        return rel


@dataclass(frozen=True)
class Neg:
    item: "Term"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Term"
    right: "Term"


Term = Var | Const | Lit | Neg | Bin


# --- statements ------------------------------------------------------------

def _hash_once(cls):
    """Make a statement class keep its structural hash after the first use.

    A statement is a dictionary key wherever it is compiled or looked up,
    and its dataclass hash walks the whole term tree each time; this one
    walks it once per object.  The kept value is left out of the pickled
    and copied state: it is built from `str` and `Enum` hashes, which
    differ from one process to the next.
    """
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", structural(self))
            return self._hash

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@_hash_once
@dataclass(frozen=True)
class Ne:
    lhs: Term
    rhs: Term


@_hash_once
@dataclass(frozen=True)
class Lt:
    """Order assertion lhs < rhs in the lattice order."""

    lhs: Term
    rhs: Term


Atom = Eq | Ne | Lt


@_hash_once
@dataclass(frozen=True)
class Imp:
    """Horn implication: a conjunction of atoms entails one atom."""

    premises: tuple[Atom, ...]
    conclusion: Atom


@_hash_once
@dataclass(frozen=True)
class Or:
    """Goal-only disjunction of atoms (model search falsifies all branches)."""

    alts: tuple[Atom, ...]


Statement = Eq | Ne | Lt | Imp | Or


# --- tokenizer -------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z0-9_]+")
_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")
_CONSTS = {k.value: k for k in ConstantKind}


@dataclass(frozen=True)
class _Tok:
    kind: str  # OP, IDENT, CONST, WORD, PUNC, END
    text: str
    pos: int


def _tokenize(source: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            break  # comment to end of input line
        if source.startswith("->", i):
            toks.append(_Tok("PUNC", "->", i))
            i += 2
            continue
        if source.startswith("!=", i):
            toks.append(_Tok("PUNC", "!=", i))
            i += 2
            continue
        if c in "^*+@'":
            toks.append(_Tok("OP", c, i))
            i += 1
            continue
        if c in "(){},=<&|":
            toks.append(_Tok("PUNC", c, i))
            i += 1
            continue
        m = _WORD.match(source, i)
        if m:
            word = m.group(0)
            if word == "v":
                toks.append(_Tok("OP", "v", i))
            elif word in _CONSTS:
                toks.append(_Tok("CONST", word, i))
            elif word in ("empty", "full"):
                toks.append(_Tok("KEYWORD", word, i))
            elif _IDENT.match(word):
                toks.append(_Tok("IDENT", word, i))
            else:
                toks.append(_Tok("WORD", word, i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("END", "", n))
    return toks


class _Parser:
    def __init__(self, source: str):
        self.toks = _tokenize(source)
        self.at = 0
        self.parens = 0  # parentheses open around the current position

    def peek(self) -> _Tok:
        return self.toks[self.at]

    def take(self) -> _Tok:
        tok = self.toks[self.at]
        self.at += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.take()

    @staticmethod
    def nest(depth: int, tok: _Tok) -> int:
        """`depth + 1`, or a ParseError at `tok` beyond MAX_TERM_DEPTH."""
        if depth >= MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", tok.pos)
        return depth + 1

    # term := factor (BINOP factor)*, one operator per chain
    def term(self) -> tuple[Term, int]:
        """A term and its height, the most operators on a path to a leaf."""
        node, height = self.factor()
        tok = self.peek()
        if tok.kind != "OP" or tok.text == "'":
            return node, height
        chain_op = tok.text
        while True:
            tok = self.peek()
            if tok.kind != "OP" or tok.text == "'":
                return node, height
            if tok.text != chain_op:
                raise MixedOperatorError(
                    f"operator {tok.text!r} mixed with {chain_op!r}; parenthesize one side",
                    tok.pos,
                )
            self.take()
            right, right_height = self.factor()
            node, height = Bin(chain_op, node, right), self.nest(max(height, right_height), tok)

    def factor(self) -> tuple[Term, int]:
        node, height = self.primary()
        while self.peek().kind == "OP" and self.peek().text == "'":
            height = self.nest(height, self.take())
            node = Neg(node)
        return node, height

    def primary(self) -> tuple[Term, int]:
        tok = self.peek()
        if tok.kind == "IDENT":
            return Var(self.take().text), 0
        if tok.kind == "CONST":
            return Const(_CONSTS[self.take().text]), 0
        if tok.kind == "KEYWORD":
            return self.header_literal(), 0
        if tok.kind == "PUNC" and tok.text == "{":
            return self.rows_literal(), 0
        if tok.kind == "PUNC" and tok.text == "(":
            self.parens = self.nest(self.parens, self.take())
            inner = self.term()
            self.expect("PUNC", ")")
            self.parens -= 1
            return inner
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    def header_literal(self) -> Lit:
        shape = self.take().text  # empty | full
        self.expect("PUNC", "(")
        attrs = []
        if not (self.peek().kind == "PUNC" and self.peek().text == ")"):
            attrs.append(self.attr_name())
            while self.peek().text == ",":
                self.take()
                attrs.append(self.attr_name())
        self.expect("PUNC", ")")
        return Lit(shape, tuple(attrs))

    def rows_literal(self) -> Lit:
        open_tok = self.expect("PUNC", "{")
        rows_raw: list[list[tuple[str, str]]] = []
        rows_raw.append(self.literal_tuple())
        while self.peek().text == ",":
            self.take()
            rows_raw.append(self.literal_tuple())
        self.expect("PUNC", "}")
        attrs = tuple(a for a, _ in rows_raw[0])
        if len(set(attrs)) != len(attrs):
            raise ParseError("duplicate attribute in tuple", open_tok.pos)
        rows = []
        for pairs in rows_raw:
            bymap = dict(pairs)
            if len(bymap) != len(pairs) or set(bymap) != set(attrs):
                raise ParseError("tuples of one literal must share one attribute set", open_tok.pos)
            rows.append(tuple(bymap[a] for a in attrs))
        return Lit("rows", attrs, tuple(rows))

    def literal_tuple(self) -> list[tuple[str, str]]:
        self.expect("PUNC", "(")
        pairs: list[tuple[str, str]] = []
        if not (self.peek().kind == "PUNC" and self.peek().text == ")"):
            pairs.append(self.attr_value_pair())
            while self.peek().text == ",":
                self.take()
                pairs.append(self.attr_value_pair())
        self.expect("PUNC", ")")
        return pairs

    def attr_name(self) -> str:
        tok = self.peek()
        if tok.kind not in ("IDENT", "WORD"):
            raise ParseError(f"expected attribute name, found {tok.text!r}", tok.pos)
        return self.take().text

    def attr_value_pair(self) -> tuple[str, str]:
        attr = self.attr_name()
        self.expect("PUNC", "=")
        tok = self.peek()
        if tok.kind not in ("IDENT", "WORD"):
            raise ParseError(f"expected a value, found {tok.text!r}", tok.pos)
        return attr, self.take().text

    def atom(self) -> Atom:
        lhs, _ = self.term()
        tok = self.peek()
        if tok.kind == "PUNC" and tok.text in ("=", "!=", "<"):
            self.take()
            rhs, _ = self.term()
            if tok.text == "=":
                return Eq(lhs, rhs)
            if tok.text == "!=":
                return Ne(lhs, rhs)
            return Lt(lhs, rhs)
        raise ParseError(f"expected '=', '!=' or '<', found {tok.text or 'end of input'!r}", tok.pos)

    def statement(self) -> Statement:
        first = self.atom()
        tok = self.peek()
        if tok.kind == "PUNC" and tok.text in ("&", "->"):
            premises = [first]
            while self.peek().text == "&":
                self.take()
                premises.append(self.atom())
            self.expect("PUNC", "->")
            conclusion = self.atom()
            return Imp(tuple(premises), conclusion)
        return first

    def goal(self) -> Statement:
        first = self.statement()
        if self.peek().kind == "PUNC" and self.peek().text == "|":
            if not isinstance(first, (Eq, Ne, Lt)):
                raise ParseError("a disjunction branch must be a plain atom", self.peek().pos)
            alts = [first]
            while self.peek().text == "|":
                self.take()
                alts.append(self.atom())
            return Or(tuple(alts))
        return first

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)


def parse_term(source: str) -> Term:
    if not source.strip():
        raise ParseError("empty input", 0)
    p = _Parser(source)
    node, _ = p.term()
    p.finish()
    return node


def parse_statement(source: str) -> Statement:
    if not source.strip():
        raise ParseError("empty input", 0)
    p = _Parser(source)
    node = p.statement()
    p.finish()
    return node


def parse_goal(source: str) -> Statement:
    """Like parse_statement but admits a top-level `atom | atom` disjunction."""
    if not source.strip():
        raise ParseError("empty input", 0)
    p = _Parser(source)
    node = p.goal()
    p.finish()
    return node


def parse_statement_file(text: str) -> list[Statement]:
    """One statement per line; `#` starts a comment; blank lines ignored."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_statement(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", exc.pos) from None
    return out


# --- printing --------------------------------------------------------------

def format_term(t: Term) -> str:
    """Canonical printer; parse_term(format_term(t)) == t."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.kind.value
    if isinstance(t, Lit):
        if t.shape == "rows":
            parts = ["(" + ",".join(f"{a}={v}" for a, v in zip(t.attrs, row)) + ")"
                     for row in t.rows]
            return "{" + ",".join(parts) + "}"
        return f"{t.shape}(" + ",".join(t.attrs) + ")"
    if isinstance(t, Neg):
        inner = format_term(t.item)
        if isinstance(t.item, Bin):
            inner = f"({inner})"
        return inner + "'"
    if isinstance(t, Bin):
        left = format_term(t.left)
        if isinstance(t.left, Bin) and t.left.op != t.op:
            left = f"({left})"
        right = format_term(t.right)
        if isinstance(t.right, Bin):
            right = f"({right})"
        return f"{left} {t.op} {right}"
    raise TypeError(f"not a term: {t!r}")


def format_statement(s: Statement) -> str:
    if isinstance(s, Eq):
        return f"{format_term(s.lhs)} = {format_term(s.rhs)}"
    if isinstance(s, Ne):
        return f"{format_term(s.lhs)} != {format_term(s.rhs)}"
    if isinstance(s, Lt):
        return f"{format_term(s.lhs)} < {format_term(s.rhs)}"
    if isinstance(s, Imp):
        left = " & ".join(format_statement(a) for a in s.premises)
        return f"{left} -> {format_statement(s.conclusion)}"
    if isinstance(s, Or):
        return " | ".join(format_statement(a) for a in s.alts)
    raise TypeError(f"not a statement: {s!r}")


def format_relation(r: Relation) -> str:
    """Print a concrete relation in literal syntax."""
    if not r.body:
        return "empty(" + ",".join(r.header) + ")"
    parts = ["(" + ",".join(f"{a}={v}" for a, v in zip(r.header, row)) + ")"
             for row in r.body]
    return "{" + ",".join(parts) + "}"


def _term_vars(t: Term, seen: dict[str, None]) -> None:
    if isinstance(t, Var):
        seen.setdefault(t.name)
    elif isinstance(t, Neg):
        _term_vars(t.item, seen)
    elif isinstance(t, Bin):
        _term_vars(t.left, seen)
        _term_vars(t.right, seen)


def _atoms(s: Statement) -> Iterator[Atom]:
    if isinstance(s, (Eq, Ne, Lt)):
        yield s
    elif isinstance(s, Imp):
        yield from s.premises
        yield s.conclusion
    elif isinstance(s, Or):
        yield from s.alts
    else:
        raise TypeError(f"not a statement: {s!r}")


def free_variables(s: Statement | Term) -> tuple[str, ...]:
    """Variable names in first-appearance order (left to right)."""
    seen: dict[str, None] = {}
    if isinstance(s, (Var, Const, Lit, Neg, Bin)):
        _term_vars(s, seen)
    else:
        for atom in _atoms(s):
            _term_vars(atom.lhs, seen)
            _term_vars(atom.rhs, seen)
    return tuple(seen)
