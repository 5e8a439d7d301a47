"""Reference evaluation of statements with the relation-level functions.

Used to re-check every refutation witness the program reports.  It calls
the plain operations of `rlattice.universe` directly, so it shares no
memo, compiled closure or table with the checker it verifies.
"""

from __future__ import annotations


def _term(lib, u, t, env):
    terms, uni = lib.terms, lib.universe
    if isinstance(t, terms.Var):
        return env[t.name]
    if isinstance(t, terms.Const):
        return uni.constant(u, t.kind)
    if isinstance(t, terms.Neg):
        return uni.complement(u, _term(lib, u, t.item, env))
    if isinstance(t, terms.Bin):
        a = _term(lib, u, t.left, env)
        b = _term(lib, u, t.right, env)
        op = {"^": uni.natural_join, "v": uni.inner_union, "*": uni.inner_join,
              "+": uni.outer_union, "@": uni.cylindrify}[t.op]
        return op(u, a, b)
    raise ValueError(f"benchmark statements carry no literals: {t!r}")


def _atom(lib, u, atom, env) -> bool:
    terms = lib.terms
    lhs = _term(lib, u, atom.lhs, env)
    rhs = _term(lib, u, atom.rhs, env)
    if isinstance(atom, terms.Eq):
        return lhs == rhs
    if isinstance(atom, terms.Ne):
        return lhs != rhs
    return lib.universe.leq(u, lhs, rhs)


def holds(lib, u, statement, env) -> bool:
    """Truth of `statement` under one assignment of relations to variables."""
    terms = lib.terms
    if isinstance(statement, terms.Imp):
        if all(_atom(lib, u, p, env) for p in statement.premises):
            return _atom(lib, u, statement.conclusion, env)
        return True
    if isinstance(statement, terms.Or):
        return any(_atom(lib, u, a, env) for a in statement.alts)
    return _atom(lib, u, statement, env)
