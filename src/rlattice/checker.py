"""Deciding statements over a universe by exhaustive or sampled evaluation.

The exhaustive mode enumerates every relation over the universe and tries
every assignment of relations to the statement's free variables, in a
fixed canonical order, so verdicts and witnesses are deterministic.  The
sampling mode draws seeded random assignments; a sampled refutation is
definitive, but a sampled pass is only ever reported as budget-exhausted,
never as HOLDS.

`compile_statement` turns a statement, once, into one generated Python
function of straight-line code over five operation tables (meet, join,
star, plus, complement).  `run_check` runs that code over any carrier
`range(n)` that supplies such tables: `check` over relation codes, the
indices into the enumeration, with tables that
`rlattice.kernel.RelationKernel` fills on first use, and
`models.verify_model` over a model's flat tables.  The witness of
`check` is decoded back into relations.  `evaluate` instead applies the
relation-level operations of `rlattice.universe` directly, for any
universe.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import islice, product, repeat
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import terms
from .kernel import RelationKernel
from .universe import (
    ConstantKind,
    LatticeError,
    Relation,
    Universe,
    complement,
    constant,
    cylindrify,
    inner_join,
    inner_union,
    natural_join,
    outer_union,
)

DEFAULT_ENUM_BUDGET = 1_000_000


class EnumerationBudgetError(LatticeError):
    """The universe has more relations than the enumeration budget allows."""


class EvaluationError(LatticeError):
    """A term could not be evaluated (unbound variable, bad literal)."""


class Verdict(Enum):
    HOLDS = "HOLDS"
    REFUTED = "REFUTED"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class Exhaustive:
    """Try every assignment; optionally stop after max_assignments."""

    max_assignments: int | None = None


@dataclass(frozen=True)
class Sample:
    """Draw `samples` assignments from a generator seeded with `seed`."""

    seed: int
    samples: int


Mode = Exhaustive | Sample


@dataclass
class CheckReport:
    statement: str
    verdict: Verdict
    witness: dict[str, Any] | None
    witness_text: dict[str, str] | None
    assignments_tested: int
    premise_satisfying: int | None
    mode: Mode
    elapsed_ms: float

    def document(self, timing: bool = False) -> dict:
        """Structured form of the report; timing is opt-in so that
        identical runs serialize byte-identically."""
        mode: dict[str, Any] = {"kind": "exhaustive"}
        if isinstance(self.mode, Sample):
            mode = {"kind": "sample", "seed": self.mode.seed, "samples": self.mode.samples}
        doc: dict[str, Any] = {
            "statement": self.statement,
            "verdict": self.verdict.value,
            "witness": self.witness_text,
            "assignments_tested": self.assignments_tested,
            "premise_satisfying": self.premise_satisfying,
            "mode": mode,
        }
        if timing:
            doc["elapsed_ms"] = round(self.elapsed_ms, 3)
        return doc

    def to_json(self, timing: bool = False) -> str:
        return json.dumps(self.document(timing), indent=2, sort_keys=True) + "\n"


def count_relations(u: Universe) -> int:
    """Number of relations over `u`: sum over headers of 2^(tuple-space size)."""
    total = 0
    for mask in range(2 ** len(u.attributes)):
        header = tuple(a for i, a in enumerate(u.attributes) if mask >> i & 1)
        total += 2 ** u.space_size(header)
    return total


@lru_cache(maxsize=32)
def enumerate_relations(u: Universe, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[Relation, ...]:
    """Every relation over `u` exactly once, in canonical order.

    Headers are ordered by attribute-subset bitmask (attribute 0 is the
    low bit); bodies by subset bitmask over the lexicographically sorted
    tuple space of the header.
    """
    total = count_relations(u)
    if total > budget:
        raise EnumerationBudgetError(
            f"universe has {total} relations, over the budget of {budget}"
        )
    rels = []
    for mask in range(2 ** len(u.attributes)):
        header = tuple(a for i, a in enumerate(u.attributes) if mask >> i & 1)
        space = u.full_body(header)
        for bodymask in range(2 ** len(space)):
            body = tuple(space[i] for i in range(len(space)) if bodymask >> i & 1)
            rels.append(Relation(header, body))
    return tuple(rels)


class Compiled(NamedTuple):
    """A statement compiled into straight-line code over operation tables.

    `bind(M, J, S, P, C, N, *leaf_values)` returns `outcome(env) ->
    (counts_toward_premises, holds)` for an assignment `env` of carrier
    elements to `variables`, in order.  `M J S P` are the meet, join,
    star and plus tables indexed `a * N + b` and `C` the complement table;
    `leaf_values` are the elements of the constants and literals in
    `leaves`, supplied anew by every caller and universe.
    """

    variables: tuple[str, ...]
    leaves: tuple[terms.Term, ...]
    bind: Callable


_TABLE = {"^": "M", "v": "J", "*": "S", "+": "P"}
_R11 = terms.Const(ConstantKind.R11)


@lru_cache(maxsize=256)
def compile_statement(statement: terms.Statement) -> Compiled:
    """Compile `statement` once into a generated Python function.

    Each distinct subterm is computed once, `y @ x` becomes `(y v R11) + x`
    and `a < b` becomes `a ^ b = a`; premises and disjuncts keep their
    left-to-right short-circuit.
    """
    variables = terms.free_variables(statement)
    names: dict[terms.Term, str] = {terms.Var(v): f"v{i}" for i, v in enumerate(variables)}
    leaves: list[terms.Term] = []
    lines: list[str] = []

    def term(t: terms.Term) -> str:
        if t in names:
            return names[t]
        if isinstance(t, (terms.Const, terms.Lit)):
            name = f"k{len(leaves)}"
            leaves.append(t)
        elif isinstance(t, terms.Bin) and t.op == "@":
            name = term(terms.Bin("+", terms.Bin("v", t.left, _R11), t.right))
        else:
            if isinstance(t, terms.Neg):
                expr = f"C[{term(t.item)}]"
            elif isinstance(t, terms.Bin):
                expr = f"{_TABLE[t.op]}[{term(t.left)}*N+{term(t.right)}]"
            else:
                raise TypeError(f"not a term: {t!r}")
            name = f"t{len(lines)}"
            lines.append(f"{name} = {expr}")
        names[t] = name
        return name

    def atom(a: terms.Atom) -> str:
        lhs, rhs = term(a.lhs), term(a.rhs)
        if isinstance(a, terms.Eq):
            return f"{lhs} == {rhs}"
        if isinstance(a, terms.Ne):
            return f"{lhs} != {rhs}"
        return f"M[{lhs}*N+{rhs}] == {lhs}"

    if isinstance(statement, terms.Imp):
        for premise in statement.premises:
            test = atom(premise)
            lines.append(f"if not ({test}): return False, True")
        last = f"True, {atom(statement.conclusion)}"
    elif isinstance(statement, terms.Or):
        for alt in statement.alts[:-1]:
            test = atom(alt)
            lines.append(f"if {test}: return False, True")
        last = f"False, {atom(statement.alts[-1])}"
    else:
        last = f"False, {atom(statement)}"
    if variables:
        lines.insert(0, f"{', '.join(names[terms.Var(v)] for v in variables)}, = env")
    lines.append(f"return {last}")
    params = "".join(f", k{i}" for i in range(len(leaves)))
    source = (f"def bind(M, J, S, P, C, N{params}):\n    def outcome(env):\n"
              + "".join(f"        {line}\n" for line in lines) + "    return outcome\n")
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<{terms.format_statement(statement)}>", "exec"), namespace)
    return Compiled(variables, tuple(leaves), namespace["bind"])


_RELATION_OPS = {"^": natural_join, "v": inner_union, "*": inner_join,
                 "+": outer_union, "@": cylindrify}


def evaluate(u: Universe, t: terms.Term, assignment: Mapping[str, Relation]) -> Relation:
    """Evaluate a term under an assignment of relations to variables.

    This runs the relation-level operations of `rlattice.universe`
    directly, so it works over any universe, enumerable or not, and
    shares nothing with the code kernel that `check` uses.
    """
    if isinstance(t, terms.Var):
        if t.name not in assignment:
            raise EvaluationError(f"unbound variable {t.name!r}")
        return assignment[t.name]
    if isinstance(t, terms.Const):
        return constant(u, t.kind)
    if isinstance(t, terms.Lit):
        return t.relation(u)
    if isinstance(t, terms.Neg):
        return complement(u, evaluate(u, t.item, assignment))
    if isinstance(t, terms.Bin):
        return _RELATION_OPS[t.op](u, evaluate(u, t.left, assignment),
                                   evaluate(u, t.right, assignment))
    raise TypeError(f"not a term: {t!r}")


def run_check(statement: terms.Statement, n: int, *, tables: Sequence,
              leaf: Callable[[terms.Term], int], render: Callable[[int], str],
              mode: Mode = Exhaustive()) -> CheckReport:
    """Check a statement over the carrier `range(n)` with operation tables.

    `tables` are the `M J S P C` tables of `Compiled`, any mapping from
    index to element; `leaf` gives the element of a constant or literal.
    Exhaustive mode walks assignments in canonical order (itertools.product,
    last variable fastest) and reports the first witness.  Sampled mode
    draws each variable as `Random(seed).randrange(n)` does in CPython
    3.10-3.12: `getrandbits(n.bit_length())`, drawn again while `>= n`.
    Implications count vacuous and premise-satisfying assignments
    separately.
    """
    start = time.perf_counter()
    code = compile_statement(statement)
    outcome = code.bind(*tables, n, *map(leaf, code.leaves))
    arity = len(code.variables)
    if isinstance(mode, Exhaustive):
        envs = product(range(n), repeat=arity)
        walk = envs if mode.max_assignments is None else islice(envs, max(mode.max_assignments, 0))
    else:
        getrandbits = random.Random(mode.seed).getrandbits
        # The accepted draws, grouped `arity` at a time into assignments.
        draws = filter(n.__gt__, iter(partial(getrandbits, n.bit_length()), None))
        walk = islice(zip(*[draws] * arity) if arity else repeat(()), max(mode.samples, 0))
    tested = premise_sat = 0
    witness = None
    for env in walk:
        tested += 1
        counts, holds = outcome(env)
        if counts:
            premise_sat += 1
        if not holds:
            witness = dict(zip(code.variables, env))
            break
    if witness is not None:
        verdict = Verdict.REFUTED
    elif isinstance(mode, Exhaustive) and next(envs, None) is None:
        verdict = Verdict.HOLDS
    else:  # a sampled pass is not a proof, so never HOLDS
        verdict = Verdict.BUDGET_EXHAUSTED
    return CheckReport(
        statement=terms.format_statement(statement),
        verdict=verdict,
        witness=witness,
        witness_text=None if witness is None else {v: render(e) for v, e in witness.items()},
        assignments_tested=tested,
        premise_satisfying=premise_sat if isinstance(statement, terms.Imp) else None,
        mode=mode,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def check(u: Universe, statement: terms.Statement | str, mode: Mode = Exhaustive(),
          enum_budget: int = DEFAULT_ENUM_BUDGET) -> CheckReport:
    """Decide a statement over all relations of `u`.

    Assignments range over relation codes (indices into the enumeration);
    the witness is decoded back into relations.
    """
    if isinstance(statement, str):
        statement = terms.parse_statement(statement)
    rels = enumerate_relations(u, enum_budget)
    kernel = RelationKernel(u)
    report = run_check(
        statement, len(rels), tables=kernel.tables(), leaf=kernel.leaf,
        render=lambda code: terms.format_relation(rels[code]), mode=mode,
    )
    if report.witness is not None:
        report.witness = {n: rels[code] for n, code in report.witness.items()}
    return report
