"""Deciding statements over a universe by exhaustive or sampled evaluation.

The exhaustive mode enumerates every relation over the universe and tries
every assignment of relations to the statement's free variables, in a
fixed canonical order, so verdicts and witnesses are deterministic.  The
sampling mode draws seeded random assignments; a sampled refutation is
definitive, but a sampled pass is only ever reported as budget-exhausted,
never as HOLDS.

`check` walks relation codes, the indices into the enumeration, and runs
every operation on them through `rlattice.kernel.RelationKernel`, whose
results are memoized for the one check; the witness is decoded back into
relations.  `evaluate` instead applies the relation-level operations of
`rlattice.universe` directly, for any universe.  `run_check` is generic
over its element carrier and also drives `models.verify_model` on
operation tables.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from . import terms
from .kernel import RelationKernel
from .universe import (
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


def _compile_term(t: terms.Term, var_index: Mapping[str, int], ops) -> Callable:
    """Translate a term into a closure over an assignment tuple.

    Constants and literals resolve once, at compile time, which is where
    literal validation against the active universe happens.
    """
    if isinstance(t, terms.Var):
        if t.name not in var_index:
            raise EvaluationError(f"unbound variable {t.name!r}")
        i = var_index[t.name]
        return lambda env: env[i]
    if isinstance(t, terms.Const):
        value = ops.const(t.kind)
        return lambda env: value
    if isinstance(t, terms.Lit):
        value = ops.literal(t)
        return lambda env: value
    if isinstance(t, terms.Neg):
        f = _compile_term(t.item, var_index, ops)
        comp = ops.comp
        return lambda env: comp(f(env))
    if isinstance(t, terms.Bin):
        lf = _compile_term(t.left, var_index, ops)
        rf = _compile_term(t.right, var_index, ops)
        fn = ops.binary_fn(t.op)
        return lambda env: fn(lf(env), rf(env))
    raise TypeError(f"not a term: {t!r}")


def _compile_atom(atom: terms.Atom, var_index: Mapping[str, int], ops) -> Callable:
    lf = _compile_term(atom.lhs, var_index, ops)
    rf = _compile_term(atom.rhs, var_index, ops)
    if isinstance(atom, terms.Eq):
        return lambda env: lf(env) == rf(env)
    if isinstance(atom, terms.Ne):
        return lambda env: lf(env) != rf(env)
    below = ops.below
    return lambda env: below(lf(env), rf(env))


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


def run_check(statement: terms.Statement, elements: Sequence, *,
              compile_atom: Callable, render: Callable[[Any], str],
              mode: Mode = Exhaustive()) -> CheckReport:
    """Generic assignment-space check over an arbitrary element carrier.

    `compile_atom(atom, var_index)` must produce a truth closure over an
    assignment tuple of elements.  Exhaustive mode walks assignments in
    canonical order (itertools.product over element indices, last variable
    fastest) and reports the first witness; implications count vacuous and
    premise-satisfying assignments separately.
    """
    start = time.perf_counter()
    var_names = terms.free_variables(statement)
    var_index = {n: i for i, n in enumerate(var_names)}

    if isinstance(statement, terms.Imp):
        premises = [compile_atom(a, var_index) for a in statement.premises]
        conclusion = compile_atom(statement.conclusion, var_index)

        def outcome(env):  # (counts_toward_premises, holds)
            if all(p(env) for p in premises):
                return True, conclusion(env)
            return False, True
        track_premises = True
    elif isinstance(statement, terms.Or):
        alts = [compile_atom(a, var_index) for a in statement.alts]

        def outcome(env):
            return False, any(a(env) for a in alts)
        track_premises = False
    else:
        truth = compile_atom(statement, var_index)

        def outcome(env):
            return False, truth(env)
        track_premises = False

    text = terms.format_statement(statement)
    tested = 0
    premise_sat = 0

    def report(verdict: Verdict, witness_env) -> CheckReport:
        witness = witness_text = None
        if witness_env is not None:
            witness = dict(zip(var_names, witness_env))
            witness_text = {n: render(e) for n, e in witness.items()}
        return CheckReport(
            statement=text,
            verdict=verdict,
            witness=witness,
            witness_text=witness_text,
            assignments_tested=tested,
            premise_satisfying=premise_sat if track_premises else None,
            mode=mode,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
        )

    if isinstance(mode, Exhaustive):
        limit = mode.max_assignments
        for env in product(elements, repeat=len(var_names)):
            if limit is not None and tested >= limit:
                return report(Verdict.BUDGET_EXHAUSTED, None)
            tested += 1
            counts, holds = outcome(env)
            if counts:
                premise_sat += 1
            if not holds:
                return report(Verdict.REFUTED, env)
        return report(Verdict.HOLDS, None)

    rng = random.Random(mode.seed)
    n = len(elements)
    for _ in range(mode.samples):
        tested += 1
        env = tuple(elements[rng.randrange(n)] for _ in var_names)
        counts, holds = outcome(env)
        if counts:
            premise_sat += 1
        if not holds:
            return report(Verdict.REFUTED, env)
    # A sampled pass is not a proof, so never HOLDS here.
    return report(Verdict.BUDGET_EXHAUSTED, None)


def check(u: Universe, statement: terms.Statement | str, mode: Mode = Exhaustive(),
          enum_budget: int = DEFAULT_ENUM_BUDGET) -> CheckReport:
    """Decide a statement over all relations of `u`.

    Assignments range over relation codes (indices into the enumeration);
    the witness is decoded back into relations.
    """
    if isinstance(statement, str):
        statement = terms.parse_statement(statement)
    rels = enumerate_relations(u, enum_budget)
    ops = RelationKernel(u)
    report = run_check(
        statement, range(len(rels)),
        compile_atom=lambda a, vi: _compile_atom(a, vi, ops),
        render=lambda code: terms.format_relation(rels[code]),
        mode=mode,
    )
    if report.witness is not None:
        report.witness = {n: rels[code] for n, code in report.witness.items()}
    return report
