"""Deciding statements over a universe by exhaustive or sampled evaluation.

The exhaustive mode tries every assignment of relations over the
universe to the statement's free variables, in a fixed canonical order,
so verdicts and witnesses are deterministic.  The sampling mode draws
seeded random assignments; a sampled refutation is definitive, but a
sampled pass is only ever reported as budget-exhausted, never as HOLDS.

`compile_statement` turns a statement, once, into one generated Python
function that runs the whole check loop over five operation tables
(meet, join, star, plus, complement).  An uncapped exhaustive check runs
nested loops, one per variable, and computes each subterm in the loop of
its deepest variable, so `x ^ y` in a 3-variable law is looked up N^2
times, not N^3; a premise is tested in the loop of its deepest variable
and skips everything inside it when false.  The assignment count is
worked out from the position of the witness, or is N^k when nothing
refutes.  Sampled and capped checks run the same lines in one flat loop
over the assignments they are handed.  `run_check` runs that code over
a carrier `range(n)` that supplies such tables (`kernel.carrier`):
`check` over relation codes, the indices into the enumeration, with
tables that `rlattice.kernel.RelationKernel` fills on first use, and
`models.verify_model` over a model's flat tables.  A kernel and a model
each keep their carrier, and in it each statement's code, with its
printed text for the reports, bound at its first check there to all it
runs with but the assignments (tables, maps, the elements of its
constants), so checking it there again is one dictionary probe, by
identity (see `terms`), and one call.  `check` builds no enumeration:
its kernel enforces the budget and decodes the witness codes into
relations.  A run of checks on one universe (a suite, a statement file)
hands `check` one kernel for all of them, so they share its image maps,
symmetry orbits, operation tables and bindings.

Over at most 256 elements, the nested loops of two or more variables
take the last one a row at a time: a term of it is the `bytes` of its
values, an operation one `translate` by a row or column of a table, or,
on the bare last variable, that row or column itself (a value row), a
conclusion side without it the row of N copies of its value (a constant
row), and the conclusion one comparison.  All of these are
`kernel.row_tables`, kept with the tables and filled on use, but for a
model of at most 64 elements (`n * n <= kernel.WHOLE_PAIRS`), which keeps
its tables and rows whole, as tuples, for life (at most 2 * 4096 star and
plus entries and 19 * 64 rows), so that its loops read no dict.  The
scalar loops stay for larger carriers (codes past 255 fit no byte), one
variable (on a fresh u1 or u2 kernel rows measured no faster), premises
or other disjuncts reading the last variable, and operations on two
rows (a `map` is slower).

A sampled check draws the `randrange(n)` stream of `Random(seed)`.  For
a carrier of at most 255 elements it takes the 32-bit words of one
`getrandbits` call per chunk and keeps the top `n.bit_length()` bits of
each, dropping the values `>= n`, with one `bytes.translate`; this
gives the same values, draw for draw, as CPython 3.10-3.13's
`randrange(n)`.

An uncapped exhaustive `check` of a statement with two or more
variables, no literals and at least `_REDUCE_FROM` assignments tries
only the kernel's orbit-least codes for the first variable.  Each
symmetry of the universe maps an assignment to one with the same
outcome, so a refutation whose first value is not orbit-least has an
image that refutes too and comes earlier: the first witness, and with
it the assignment count, is the same.  With three or more variables, and
at most `_GROUP_CAP` entries in the group's maps on codes, each first
value is followed only by the second values least in their orbit under
the automorphisms that fix it, for the same reason one level down.  For
two variables the group costs about as much as a whole check that
refutes early.  A skipped value's block of assignments satisfies as many
premises as the block of the least value it maps to, which the loop
walked earlier and whose count it recorded at that block's end; the loop
adds that count where it skips the value, so an implication's premise
count is complete when the loop returns.  Other walks (`verify_model`,
checks with literals or under `_REDUCE_FROM` assignments, the second
level past `_GROUP_CAP`) run the same loops over the identity map.  The
maps are picked at a statement's first check on a carrier, whatever the
mode: the flat loop of a capped or sampled check reads neither.
`evaluate` instead applies the relation-level operations of
`rlattice.universe` directly, for any universe.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial, reduce
from itertools import chain, islice, product, repeat
from operator import eq, ne
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from . import terms
from .kernel import DEFAULT_ENUM_BUDGET, RelationKernel
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


class EvaluationError(LatticeError):
    """A term could not be evaluated (unbound variable, bad literal)."""


class Verdict(Enum):
    HOLDS = "HOLDS"
    REFUTED = "REFUTED"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


class Exhaustive(NamedTuple):
    """Try every assignment; optionally stop after max_assignments."""

    max_assignments: int | None = None


class Sample(NamedTuple):
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


def enumerate_relations(u: Universe, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[Relation, ...]:
    """Every relation over `u` exactly once, in canonical order: relation
    `i` has code `i` (see `rlattice.kernel`)."""
    kernel = RelationKernel(u, budget)
    return tuple(map(kernel.decode, range(kernel.n)))


class Compiled(NamedTuple):
    """A statement compiled into one generated loop over operation tables.

    `run(M, J, S, P, C, N, least, seconds, rows, *leaf_values, envs)`
    decides the statement over the carrier `range(N)` and returns
    `(premise_satisfying, assignments_tested, witness)`, the witness being
    the first refuting assignment as a tuple of elements for `variables`,
    or None.  With `envs=None` (up to `_NESTED` variables) it walks every
    assignment in nested loops, last variable fastest, and, given `rows`,
    the `kernel.row_tables` of the tables (translate tables, constant rows
    and value rows), the last variable a row at a time where the module
    docstring says.  For two or more variables it walks
    only the first values `v` with `least[v] == v` and, for three or more,
    the second values `w` with `seconds(v)[w] == w` (maps, the identity when
    nothing is skipped), and adds the premise count of the block of
    `least[v]` (or `seconds(v)[w]`) for each value it skips.  Otherwise it
    walks the assignments `envs` yields in one flat loop.  `M J S P` are the
    meet, join, star and plus tables indexed `a * N + b` and `C` the
    complement table; `leaf_values` are the elements of the constants and
    literals in `leaves`.  `run_check` binds all but `envs` once per carrier.
    `text` is the statement as `terms.format_statement` prints it, the
    name of the generated code and the `statement` of every report.
    """

    variables: tuple[str, ...]
    leaves: tuple[terms.Term, ...]
    run: Callable
    text: str
    implication: bool  # it has premises
    literals: bool  # it has relation literals


_TABLE = {"^": "M", "v": "J", "*": "S", "+": "P"}
# Most variables given nested loops, since CPython rejects more than 20
# statically nested blocks; `run_check` walks a statement with more in
# the flat loop.
_NESTED = 10
# Fewest assignments for which `run_check` tries orbit-least first values
# only.  Finding the orbits costs up to N map applications per generator,
# about as much as a check this short (under a millisecond on u1 or u2).
_REDUCE_FROM = 4096
# Most entries, |G| * N, of the automorphism maps `run_check` builds to
# try only stabilizer-least second values (checks of three or more
# variables); past it only the first variable is reduced.
_GROUP_CAP = 1 << 20
# 32-bit words per `getrandbits` call of a bulk draw stream.
_DRAW_WORDS = 1024


@lru_cache(maxsize=256)
def compile_statement(statement: terms.Statement) -> Compiled:
    """Compile `statement` once into a generated Python function.

    Variable `i` is the loop at level `i`.  Each distinct subterm is
    computed once, at the level of its deepest variable, and terms of
    constants and literals once before the loops; so is `a * N` for a left
    operand used at a deeper level.  Each atom is tested as the
    `terms.sides` of it.  A premise, or a disjunct other than the last
    (see `terms.clause`), is tested at its own level and skips
    the rest of that level's loop body (`continue`) when it decides the
    assignment; the conclusion is tested innermost.  The flat loop runs
    the same lines, those of every level in one body.  By row, a term of
    the last variable is computed at the level of its deepest other one.
    """
    variables = terms.free_variables(statement)
    arity = len(variables)
    premises, alts = terms.clause(statement)

    def lower(by_row: bool) -> tuple[list[tuple[int, str]], list[terms.Term], str, str] | None:
        """(lines (level, code) in the order needed, leaves, the test that
        the last disjunct fails, by row its first failing position), or None."""
        names = {terms.Var(v): (f"v{i}", i) for i, v in enumerate(variables)}
        rows: set[str] = set()  # names holding rows, and "paired" after an operation on two
        hoisted: dict[tuple[str, ...], str] = {}
        leaves: list[terms.Term] = []
        lines: list[tuple[int, str]] = []
        last = f"v{arity - 1}" if by_row else None  # the last variable, by row
        if by_row:
            names[terms.Var(variables[-1])] = last, -1
            rows.add(last)

        def hoist(key: tuple[str, ...], level: int, expr: str) -> str:
            if key not in hoisted:
                hoisted[key] = f"r{len(hoisted)}"
                lines.append((level, f"{hoisted[key]} = {expr}"))
            return hoisted[key]

        def term(t: terms.Term) -> tuple[str, int]:
            if t in names:
                return names[t]
            if isinstance(t, (terms.Const, terms.Lit)):
                got = f"k{len(leaves)}", -1
                leaves.append(t)
            else:
                if isinstance(t, terms.Neg):
                    item, level = term(t.item)
                    operands = [item]
                    expr = ("CRV[0]" if item == last else f"C[{item}]" if item not in rows
                            else f"{item}.translate({hoist(('C',), -1, 'CR[0]')})")
                elif isinstance(t, terms.Bin):
                    (left, lv), (right, rv) = term(t.left), term(t.right)
                    level, table, operands = max(lv, rv), _TABLE[t.op], [left, right]
                    if right == last and left not in rows:  # a kept value row
                        expr = f"{table}RV[{left}]"
                    elif left == last and right not in rows:
                        expr = f"{table}CV[{right}]"
                    elif right in rows:
                        expr = f"{right}.translate({hoist(('R', table, left), lv, f'{table}R[{left}]')})"
                    elif left in rows:
                        expr = f"{left}.translate({hoist(('C', table, right), rv, f'{table}C[{right}]')})"
                    elif lv < level:
                        expr = f"{table}[{hoist(('N', left), lv, f'{left}*N')}+{right}]"
                    else:
                        expr = f"{table}[{left}*N+{right}]"
                else:
                    raise TypeError(f"not a term: {t!r}")
                got = f"t{len(lines)}", level
                lines.append((level, f"{got[0]} = {expr}"))
                held = [name for name in operands if name in rows]
                if held:  # a term of a row is a row
                    rows.add(got[0] if len(held) == 1 else "paired")
            names[t] = got
            return got

        for atom, holds in [*zip(premises, repeat(False)), *zip(alts[:-1], repeat(True))]:
            lhs, rhs, equal = terms.sides(atom)
            (lhs, lv), (rhs, rv) = term(lhs), term(rhs)
            lines.append((max(lv, rv, 0), f"if {lhs} {'==' if equal == holds else '!='} {rhs}: continue"))
            if {lhs, rhs} & rows:
                return None
        lhs, rhs, equal = terms.sides(alts[-1])
        (lhs, lv), (rhs, rv) = term(lhs), term(rhs)
        if not by_row:
            return lines, leaves, f"{lhs} {'!=' if equal else '=='} {rhs}", ""
        if "paired" in rows:
            return None
        if last in (lhs, rhs):  # its own row, read only as a bare side
            lines.append((-1, f"{last} = bytes(range(N))"))
        # A side without the last variable is N copies of its value.
        lhs, rhs = [side if side in rows else hoist(("B", side), level, f"KR[{side}]")
                    for side, level in ((lhs, lv), (rhs, rv))]
        fails = f"{lhs} != {rhs}" if equal else f"any(map(eq, {lhs}, {rhs}))"
        return lines, leaves, fails, f"[*map({'ne' if equal else 'eq'}, {lhs}, {rhs})].index(True)"

    lines, leaves, fails, _ = scalar = lower(False)
    by_row = lower(True) if 2 <= arity <= _NESTED else None
    env = "".join(f"v{i}, " for i in range(arity))
    count = ["premise += 1"] if premises else []

    def innermost(position: str) -> list[str]:
        return [*count, f"if {fails}: return premise, {position}, ({env})"]

    params = "".join(f", k{i}" for i in range(len(leaves)))

    def nested(lowered: tuple) -> list[str]:
        """Nested loops over `range(N)` in a block of `run`, last variable
        fastest, or, by row (a `first` given), the last variable's row innermost.

        For two or more variables they skip each first value that `least`
        maps lower, and for three or more each second value that
        `seconds(v0)` maps lower, adding the premise count of the block of
        the value it maps to, recorded at that block's end; a block cut
        short by a failing premise keeps 0, which is its count.
        """
        lines, _, fails, first = lowered
        out, ends, indent = [], [], "        "
        for level in range(arity - bool(first)):
            table = ("least", "least1")[level] if level < min(arity - 1, 2) else None
            if table == "least1":
                out.append(f"{indent}least1 = seconds(v0)")
            if table and count:
                out.append(f"{indent}done{level} = [0] * N")
            out.append(f"{indent}for v{level} in range(N):")
            indent += "    "
            if table and count:
                out += [f"{indent}m = {table}[v{level}]", f"{indent}if m != v{level}:",
                        f"{indent}    premise += done{level}[m]",
                        f"{indent}    continue", f"{indent}start{level} = premise"]
                ends.append(f"{indent}done{level}[v{level}] = premise - start{level}")
            elif table:
                out.append(f"{indent}if {table}[v{level}] != v{level}: continue")
            out += [indent + line for lv, line in lines if lv == level]
        found = [*(f"v{i}" for i in range(arity - 1)), "i" if first else f"v{arity - 1}"]
        position = reduce(lambda high, name: f"({high})*N+{name}", found)
        if not first:
            out += [indent + line for line in innermost(f"{position}+1")]
        else:
            out += [f"{indent}if {fails}:", f"{indent}    i = {first}",
                    f"{indent}    return premise{'+i+1' * bool(count)}, {position}+1, "
                    f"({''.join(f'{name}, ' for name in found)})",
                    *[f"{indent}premise += N"] * bool(count)]
        return out + ends[::-1] + [f"        return premise, N**{arity}, None"]

    source = [f"def run(M, J, S, P, C, N, least, seconds, rows{params}, envs):", "    premise = 0"]
    if by_row:
        source += ["    if envs is None and rows is not None:",
                   "        (MR, JR, SR, PR, MC, JC, SC, PC, CR, KR,"
                   " MRV, JRV, SRV, PRV, MCV, JCV, SCV, PCV, CRV) = rows"]
        source += ["        " + line for level, line in by_row[0] if level < 0]
        source += nested(by_row)
    source += ["    " + line for level, line in lines if level < 0]
    if 0 < arity <= _NESTED:
        source.append("    if envs is None:")
        source += nested(scalar)
    elif not arity:  # the one empty assignment, walked by the flat loop
        source.append("    envs = ((),) if envs is None else envs")
    source += ["    i = 0", f"    for i, ({env}) in enumerate(envs, 1):"]
    source += ["        " + line for level, line in lines if level >= 0]
    source += ["        " + line for line in innermost("i")]
    source.append("    return premise, i, None")
    namespace: dict[str, Any] = {"eq": eq, "ne": ne}
    text = terms.format_statement(statement)
    exec(compile("\n".join(source) + "\n", f"<{text}>", "exec"), namespace)
    return Compiled(variables, tuple(leaves), namespace["run"], text, bool(premises),
                    any(isinstance(t, terms.Lit) for t in leaves))


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


def run_check(statement: terms.Statement, carrier: tuple, mode: Mode = Exhaustive()) -> CheckReport:
    """Check a statement over a carrier with operation tables.

    `carrier` is `(n, tables, rows, leaf, maps, bound)` (`kernel.carrier`):
    the elements `range(n)`; the `M J S P C` tables of `Compiled`, any
    mapping from index to element; their `kernel.row_tables` or None; the
    element of a constant or literal, read for every leaf before any loop
    runs, so it may refuse one; the loops' maps; and the kept bindings.
    Exhaustive mode walks assignments in canonical order (itertools.product,
    last variable fastest) and reports the first witness: in the generated
    nested loops, or, when `max_assignments` stops it short or there are
    more than `_NESTED` variables, in the flat loop over the first
    `max_assignments` of them.  Sampled mode draws each variable as
    `Random(seed).randrange(n)` does in CPython 3.10-3.13 (see `_draws`).
    Implications count vacuous and premise-satisfying assignments
    separately.  A statement's first check on the carrier keeps in `bound`
    its `Compiled` and `run` bound to all but `envs`, with the symmetry
    maps of `maps` where the module docstring says, else the identity's,
    whatever the mode: only the uncapped nested loops read them.
    """
    start = perf_counter()
    n, tables, rows, leaf, maps, bound = carrier
    code, run = bound.get(statement) or (compile_statement(statement), None)
    arity = len(code.variables)
    exhaustive = isinstance(mode, Exhaustive)
    if exhaustive:
        total = n ** arity
        cap = total if mode.max_assignments is None else max(mode.max_assignments, 0)
        envs = (None if cap >= total and arity <= _NESTED
                else islice(product(range(n), repeat=arity), cap))
    else:
        # The draws, grouped `arity` at a time into assignments.
        draws = _draws(random.Random(mode.seed).getrandbits, n)
        envs = islice(zip(*[draws] * arity) if arity else repeat(()), max(mode.samples, 0))
    if run is None:
        least, seconds, orbits, stabilizers, order = maps
        if 2 <= arity <= _NESTED and n ** arity >= _REDUCE_FROM and not code.literals:
            least = orbits
            if arity >= 3 and order * n <= _GROUP_CAP:
                seconds = stabilizers
        run = partial(code.run, *tables, n, least, seconds, rows, *map(leaf, code.leaves))
        bound[statement] = code, run
    premise_sat, tested, found = run(envs)
    if found is not None:
        witness = dict(zip(code.variables, found))
        verdict, text = Verdict.REFUTED, {v: str(e) for v, e in witness.items()}
    else:  # a sampled pass is not a proof, so never HOLDS
        witness = text = None
        verdict = Verdict.HOLDS if exhaustive and tested == total else Verdict.BUDGET_EXHAUSTED
    return CheckReport(code.text, verdict, witness, text, tested,
                       premise_sat if code.implication else None, mode,
                       (perf_counter() - start) * 1000.0)


def _draws(getrandbits: Callable[[int], int], n: int) -> Iterator[int]:
    """The stream of `randrange(n)` values of the generator `getrandbits`.

    CPython 3.10-3.13 draw each as `getrandbits(k)`, `k = n.bit_length()`,
    drawn again while `>= n`, and `getrandbits(k)` is the top `k` bits of
    one 32-bit output.  `getrandbits(32 * w)` holds the next `w` outputs,
    the first in the lowest bits, so for `k <= 8` the top byte of each
    word shifted right by `8 - k` gives the same draws, `_DRAW_WORDS` of
    them per call.  Larger carriers draw one value per call.
    """
    k = n.bit_length()
    if k > 8:
        return filter(n.__gt__, iter(partial(getrandbits, k), None))
    shift = 8 - k
    table = bytes(b >> shift for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= n)
    bits, size = 32 * _DRAW_WORDS, 4 * _DRAW_WORDS
    return chain.from_iterable(  # a generator with `yield from` is slower
        getrandbits(bits).to_bytes(size, "little")[3::4].translate(table, rejected)
        for _ in repeat(None))


def check(u: Universe, statement: terms.Statement | str, mode: Mode = Exhaustive(),
          enum_budget: int = DEFAULT_ENUM_BUDGET, kernel: RelationKernel | None = None
          ) -> CheckReport:
    """Decide a statement over all relations of `u`; a string is read by
    `terms.parse_goal`, so `atom | atom` too.

    Assignments range over relation codes (`rlattice.kernel`), whose
    kernel raises `EnumerationBudgetError` past `enum_budget`; each code
    of the witness is decoded into its relation once.  A `kernel` over
    `u` is used instead of a new one, with the image maps, orbits, table
    entries and bound checks that earlier checks left in it; the report
    does not depend on them.  A kernel over another universe is an error.
    """
    if isinstance(statement, str):  # a parse error comes before a budget error
        statement = terms.parse_goal(statement)
    if kernel is None:
        kernel = RelationKernel(u, enum_budget)
    elif kernel.u != u:
        raise LatticeError("the kernel is over another universe than the check")
    report = run_check(statement, kernel._checker, mode)
    if report.witness is not None:
        relations = {code: kernel.decode(code) for code in set(report.witness.values())}
        report.witness = {name: relations[code] for name, code in report.witness.items()}
        report.witness_text = {name: terms.format_relation(r) for name, r in report.witness.items()}
    return report
