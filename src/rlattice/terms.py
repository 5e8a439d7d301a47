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
search additionally admits a top-level disjunction (`a | b`).  `clause`
and `sides` are the one reading of a statement's meaning that the
checker and the model search share: its premises and alternatives, and
each atom as an equation or inequation of terms without `@`.

A term nests at most `MAX_TERM_DEPTH` levels: at most that many
operators (binary or `'`) on any path from the root to a leaf, and at
most that many parentheses open at once.  Deeper input is a `ParseError`,
so no later recursive walk over a term (evaluating, hashing, printing)
runs out of stack.

A statement (but not a term) computes its hash once and keeps it, out
of its pickled and copied state (see `_hash_once`), and the same text
read again by `parse_statement` or `parse_goal` is the same object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

from .universe import _WORD, ConstantKind, LatticeError, Relation, Universe

BINARY_OPS = ("^", "v", "*", "+", "@")
MAX_TERM_DEPTH = 100


class ParseError(LatticeError):
    """Syntax error, carrying the offending position in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message, self.pos = message, pos


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
    and copied state: it is built from `str` hashes and the identity
    hashes of `ConstantKind`, which differ from one process to the next.
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
_SYMBOLS = {Eq: "=", Ne: "!=", Lt: "<"}
_R11 = Const(ConstantKind.R11)


def clause(s: Statement) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
    """`(premises, alternatives)`: `s` holds when a premise fails or an
    alternative holds.  An atom is `((), (atom,))`, an implication
    `(premises, (conclusion,))` and a disjunction `((), alts)`."""
    if isinstance(s, Imp):
        return s.premises, (s.conclusion,)
    if isinstance(s, Or):
        return (), s.alts
    if type(s) in _SYMBOLS:
        return (), (s,)
    raise TypeError(f"not a statement: {s!r}")


def sides(atom: Atom) -> tuple[Term, Term, bool]:
    """`(lhs, rhs, equal)`: `atom` holds when `lhs = rhs` is `equal`.

    The terms use `^ v * + '` and constants only: `a < b` becomes
    `(a ^ b, a, True)`, `a != b` becomes `(a, b, False)`, and every
    `y @ x` becomes `(y v R11) + x`.
    """
    if type(atom) not in _SYMBOLS:
        raise TypeError(f"not an atom: {atom!r}")
    lhs, rhs = _core(atom.lhs), _core(atom.rhs)
    if isinstance(atom, Lt):
        return Bin("^", lhs, rhs), lhs, True
    return lhs, rhs, isinstance(atom, Eq)


def _core(t: Term) -> Term:
    """`t` with every `y @ x` written `(y v R11) + x`."""
    if isinstance(t, Neg):
        return Neg(_core(t.item))
    if isinstance(t, Bin):
        left, right = _core(t.left), _core(t.right)
        return Bin("+", Bin("v", left, _R11), right) if t.op == "@" else Bin(t.op, left, right)
    return t


# --- tokenizer -------------------------------------------------------------

# One alternative per token class, tried in order at each non-space
# character: a comment ends the input, `->` and `!=` come before the
# single characters, and any other character is an error at its position.
_TOKEN = re.compile(r"(?P<COMMENT>#)|(?P<PUNC>->|!=|[(){},=<&|])|(?P<OP>[\^*+@'])"
                    rf"|(?P<WORD>{_WORD})|(?P<BAD>\S)")
_IDENT = re.compile(r"[a-z][a-z0-9_]*\Z")
_CONSTS = {k.value: k for k in ConstantKind}
# The kind of a reserved word; any other word is an IDENT if it looks like
# one, else a WORD.
_WORD_KINDS = {"v": "OP", **dict.fromkeys(_CONSTS, "CONST"),
               "empty": "KEYWORD", "full": "KEYWORD"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # OP, IDENT, CONST, KEYWORD, WORD, PUNC, END
    text: str
    pos: int


def _tokenize(source: str) -> list[_Tok]:
    toks = []
    for m in _TOKEN.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "COMMENT":
            break
        if kind == "BAD":
            raise ParseError(f"unexpected character {text!r}", pos)
        if kind == "WORD":
            kind = _WORD_KINDS.get(text) or ("IDENT" if _IDENT.match(text) else "WORD")
        toks.append(_Tok(kind, text, pos))
    toks.append(_Tok("END", "", len(source)))
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
        chain_op = self.peek().text  # not `'`: factor() took every postfix `'`
        while (tok := self.peek()).kind == "OP":
            if tok.text != chain_op:
                raise MixedOperatorError(
                    f"operator {tok.text!r} mixed with {chain_op!r}; parenthesize one side",
                    tok.pos,
                )
            self.take()
            right, right_height = self.factor()
            node, height = Bin(chain_op, node, right), self.nest(max(height, right_height), tok)
        return node, height

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
        if tok.kind == "KEYWORD":  # empty(attr, ...) | full(attr, ...)
            return Lit(self.take().text, tuple(self.items("(", ")", self.attr_name))), 0
        if tok.kind == "PUNC" and tok.text == "{":
            return self.rows_literal(), 0
        if tok.kind == "PUNC" and tok.text == "(":
            self.parens = self.nest(self.parens, self.take())
            inner = self.term()
            self.expect("PUNC", ")")
            self.parens -= 1
            return inner
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    def items(self, open_: str, close: str, item: Callable[[], Any],
              empty: bool = True) -> list:
        """`open item, item, ... close`; `open close` only if `empty`."""
        self.expect("PUNC", open_)
        out = []
        if not (empty and self.peek().text == close):
            out.append(item())
            while self.peek().text == ",":
                self.take()
                out.append(item())
        self.expect("PUNC", close)
        return out

    def rows_literal(self) -> Lit:
        pos = self.peek().pos  # of the `{`
        rows_raw = self.items("{", "}", lambda: self.items("(", ")", self.attr_value_pair),
                              empty=False)
        attrs = tuple(a for a, _ in rows_raw[0])
        if len(set(attrs)) != len(attrs):
            raise ParseError("duplicate attribute in tuple", pos)
        rows = []
        for pairs in rows_raw:
            bymap = dict(pairs)
            if len(bymap) != len(pairs) or set(bymap) != set(attrs):
                raise ParseError("tuples of one literal must share one attribute set", pos)
            rows.append(tuple(bymap[a] for a in attrs))
        return Lit("rows", attrs, tuple(rows))

    def word(self, what: str) -> str:
        tok = self.peek()
        if tok.kind not in ("IDENT", "WORD"):
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.pos)
        return self.take().text

    def attr_name(self) -> str:
        return self.word("attribute name")

    def attr_value_pair(self) -> tuple[str, str]:
        attr = self.attr_name()
        self.expect("PUNC", "=")
        return attr, self.word("a value")

    def atom(self) -> Atom:
        lhs, _ = self.term()
        tok = self.peek()
        if tok.kind == "PUNC" and tok.text in ("=", "!=", "<"):
            self.take()
            rhs, _ = self.term()
            return {"=": Eq, "!=": Ne, "<": Lt}[tok.text](lhs, rhs)
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


def _parse(source: str, rule: Callable[[_Parser], Any]) -> Any:
    """`rule` read over all of `source`, which must hold more than spaces."""
    if not source.strip():
        raise ParseError("empty input", 0)
    p = _Parser(source)
    node = rule(p)
    tok = p.peek()
    if tok.kind != "END":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


def parse_term(source: str) -> Term:
    return _parse(source, lambda p: p.term()[0])


@lru_cache(maxsize=256)
def parse_statement(source: str) -> Statement:
    """The statement `source` spells; the same text gives the same object
    while it is among the last 256 read, so the checker's cache of compiled
    statements finds it by identity.  An error is raised anew every time."""
    return _parse(source, _Parser.statement)


@lru_cache(maxsize=256)
def parse_goal(source: str) -> Statement:
    """Like parse_statement but admits a top-level `atom | atom` disjunction."""
    return _parse(source, _Parser.goal)


def parse_statement_file(text: str) -> list[Statement]:
    """One statement per line, read by `parse_goal`, so `atom | atom` too;
    `#` starts a comment; blank lines ignored."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_goal(line))
        except ParseError as exc:
            raise type(exc)(f"line {lineno}: {exc.message}", exc.pos) from None
    return out


# --- printing --------------------------------------------------------------

def _rows_literal(attrs: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """`{(a=v,...),...}`: one tuple per row, its values paired with `attrs`."""
    return "{" + ",".join("(" + ",".join(f"{a}={v}" for a, v in zip(attrs, row)) + ")"
                          for row in rows) + "}"


def format_term(t: Term) -> str:
    """Canonical printer; parse_term(format_term(t)) == t."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.kind.value
    if isinstance(t, Lit):
        if t.shape == "rows":
            return _rows_literal(t.attrs, t.rows)
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
    atom = lambda a: f"{format_term(a.lhs)} {_SYMBOLS[type(a)]} {format_term(a.rhs)}"
    premises, alts = clause(s)
    text = " | ".join(map(atom, alts))
    return " & ".join(map(atom, premises)) + " -> " + text if premises else text


def format_relation(r: Relation) -> str:
    """Print a concrete relation in literal syntax."""
    if not r.body:
        return "empty(" + ",".join(r.header) + ")"
    return _rows_literal(r.header, r.body)


def _term_vars(t: Term, seen: dict[str, None]) -> None:
    if isinstance(t, Var):
        seen.setdefault(t.name)
    elif isinstance(t, Neg):
        _term_vars(t.item, seen)
    elif isinstance(t, Bin):
        _term_vars(t.left, seen)
        _term_vars(t.right, seen)


def free_variables(s: Statement | Term) -> tuple[str, ...]:
    """Variable names in first-appearance order (left to right)."""
    seen: dict[str, None] = {}
    if isinstance(s, (Var, Const, Lit, Neg, Bin)):
        _term_vars(s, seen)
    else:
        for atom in sum(clause(s), ()):  # premises, then alternatives
            _term_vars(atom.lhs, seen)
            _term_vars(atom.rhs, seen)
    return tuple(seen)
