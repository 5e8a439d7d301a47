"""Abstract finite models of the lattice signature, and a model finder.

A FiniteModel interprets {^, v, ', R00, R11} over a carrier {0..n-1} via
operation tables.  The other operations and constants are derived, never
stored: * and + through their defining identities, @ through its
definition, R10 as R11 ^ R00 and R01 as R11 v R00.  This keeps the
searched signature minimal.

The searcher is a Mace4-style backtracking search over table cells with
ground-instance constraint propagation and first-available-value
ordering.  Each side of a ground instance is a postfix program over the
stored tables; a `*` or `+` is one step after its operands that reads
the cells of its definition, so a program is linear in the size of its
term.  Goals follow countermodel semantics: a returned model must
*falsify* every goal, so goal variables are skolemized into fresh
constant cells and the negated goal becomes ground constraints.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import product, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import terms
from .checker import CheckReport, Exhaustive, Mode, Verdict, run_check
from .kernel import DEFAULT_ENUM_BUDGET, RelationKernel, _Table, row_tables
from .terms import Bin, Const, Eq, Lit, Lt, Ne, Neg, Statement, Term, Var
from .universe import ConstantKind, LatticeError, Universe


class ModelError(LatticeError):
    """Malformed model, or a statement outside the model signature."""


@dataclass(frozen=True)
class FiniteModel:
    """Carrier {0..size-1} with meet/join/complement tables and two constants.

    `meet` and `join` are flat tuples of `size * size` entries: entry
    `a * size + b` is `a ^ b` (`a v b`).  That is the layout the checker
    reads (`checker.Compiled`) and the search fills.

    `verify_model` keeps with the model, from its first call, what the
    checker reads: its five `_model_tables`, their `kernel.row_tables`
    (filled on use) and its leaf function.  The kept tables are not
    fields, so equality, hashing, pickling and copying see a model as if
    never verified.
    """

    size: int
    meet: tuple[int, ...]
    join: tuple[int, ...]
    comp: tuple[int, ...]
    r00: int
    r11: int

    def __post_init__(self) -> None:
        n = self.size
        if n <= 0:
            raise ModelError("carrier must be nonempty")
        for name, table in (("meet", self.meet), ("join", self.join)):
            if len(table) != n * n:
                raise ModelError(f"{name} table must be {n}x{n}")
            entries = set(table)
            if min(entries) < 0 or max(entries) >= n:
                raise ModelError(f"{name} table entry out of carrier range")
        if len(self.comp) != n or min(self.comp) < 0 or max(self.comp) >= n:
            raise ModelError("complement table must map the carrier into itself")
        if not (0 <= self.r00 < n and 0 <= self.r11 < n):
            raise ModelError("constant out of carrier range")

    def __getstate__(self) -> dict:
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    @cached_property
    def _checker(self) -> tuple[tuple[Sequence[int] | dict[int, int], ...],
                                tuple[dict[int, bytes], ...] | None, Callable[[Term], int]]:
        """`tables`, `rows` and `leaf` of `checker.run_check`; `leaf` refuses a literal."""
        constants = {ConstantKind.R00: self.r00, ConstantKind.R11: self.r11,
                     ConstantKind.R10: self.r10, ConstantKind.R01: self.r01}

        def leaf(t: Term) -> int:
            if isinstance(t, Lit):
                raise ModelError("relation literals have no interpretation in an abstract model")
            return constants[t.kind]

        tables = _model_tables(self)
        return tables, row_tables(tables, self.size), leaf

    @property
    def r10(self) -> int:
        return self.meet[self.r11 * self.size + self.r00]

    @property
    def r01(self) -> int:
        return self.join[self.r11 * self.size + self.r00]

    def relabel(self, perm: Sequence[int]) -> "FiniteModel":
        """Apply a carrier permutation: element i becomes perm[i]."""
        n = self.size
        if sorted(perm) != list(range(n)):
            raise ModelError("relabeling must be a permutation of the carrier")
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        # New entry i * n + j is old entry inv[i] * n + inv[j], relabeled.
        remap2 = lambda t: tuple(perm[t[a * n + b]] for a in inv for b in inv)
        return FiniteModel(
            size=n,
            meet=remap2(self.meet),
            join=remap2(self.join),
            comp=tuple(perm[self.comp[a]] for a in inv),
            r00=perm[self.r00],
            r11=perm[self.r11],
        )


def table_rows(table: Sequence[int], n: int) -> list[Sequence[int]]:
    """The rows of a flat `n * n` table: row `a` holds entries `a * n + b`."""
    return [table[a:a + n] for a in range(0, n * n, n)]


def _model_tables(m: FiniteModel) -> tuple[Sequence[int] | dict[int, int], ...]:
    """Flat meet, join, star, plus and complement tables of `checker.Compiled`.

    Meet, join and complement are the model's own tuples, not copies.
    Star and plus are derived from their definitions, entry `a * n + b`
    on its first read: a check computes only the entries it reaches,
    each once per call.
    """
    n, M, J = m.size, m.meet, m.join
    low = M[m.r00::n]  # a ^ R00 for every element a
    high = J[m.r11::n]  # a v R11 for every element a

    def star(key: int) -> int:  # (a v (b ^ R00)) ^ (b v (a ^ R00))
        a, b = divmod(key, n)
        return M[J[a * n + low[b]] * n + J[b * n + low[a]]]

    def plus(key: int) -> int:  # (a ^ (b v R11)) v (b ^ (a v R11))
        a, b = divmod(key, n)
        return J[M[a * n + high[b]] * n + M[b * n + high[a]]]

    return M, J, _Table(star), _Table(plus), m.comp


def verify_model(m: FiniteModel, statements: Sequence[Statement | str],
                 mode: Mode = Exhaustive()) -> list[CheckReport]:
    """Check each statement over all carrier assignments of `m`; a string
    is read by `terms.parse_goal`, so `atom | atom` too.  The tables it
    reads are kept with `m` (see `FiniteModel`)."""
    tables, rows, leaf = m._checker
    return [run_check(statement, m.size, tables=tables, leaf=leaf, mode=mode, rows=rows)
            for statement in map(_as_statement, statements)]


def find_counterexample(m: FiniteModel, statement: Statement | str) -> dict[str, int] | None:
    """First refuting carrier assignment in index order, or None."""
    report = verify_model(m, [statement])[0]
    return report.witness if report.verdict is Verdict.REFUTED else None


BRIDGE_PAIR_LIMIT = 1_000_000
"""Most relation pairs, `n * n` for `n` relations, that `model_from_universe`
fills tables for: 1,000 relations.  Three binary attributes (318) and a
3x3 universe (530) bridge; four binary attributes (66,674) would fill
4.4 G entries per table.  `search_model` refuses a carrier size past it too."""


class BridgeSizeError(LatticeError):
    """The universe has more relation pairs than `BRIDGE_PAIR_LIMIT`."""


def model_from_universe(u: Universe, budget: int = DEFAULT_ENUM_BUDGET) -> FiniteModel:
    """Abstract the concrete semantics of `u` into operation tables.

    The carrier is the canonical relation enumeration, so element `i` is
    relation code `i`; the kernel fills every table entry.  It raises
    `EnumerationBudgetError` past `budget` relations, and `BridgeSizeError`
    past `BRIDGE_PAIR_LIMIT` pairs, before filling any entry.
    """
    k = RelationKernel(u, budget)
    if k.n * k.n > BRIDGE_PAIR_LIMIT:
        raise BridgeSizeError(f"universe has {k.n} relations, and bridging more than "
                              f"{BRIDGE_PAIR_LIMIT} relation pairs is refused")
    meet, join, comp = k.bridge_tables()
    return FiniteModel(size=k.n, meet=meet, join=join, comp=comp,
                       r00=k.const(ConstantKind.R00), r11=k.const(ConstantKind.R11))


# --- model files -------------------------------------------------------------

def format_model(m: FiniteModel) -> str:
    """Bit-exact text format: size, meet/join/complement blocks, constants."""
    lines = [f"size {m.size}", "meet:"]
    lines += [" ".join(map(str, row)) for row in table_rows(m.meet, m.size)]
    lines.append("join:")
    lines += [" ".join(map(str, row)) for row in table_rows(m.join, m.size)]
    lines.append("complement:")
    lines.append(" ".join(str(x) for x in m.comp))
    lines.append(f"R00 = {m.r00}")
    lines.append(f"R11 = {m.r11}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> FiniteModel:
    toks: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            toks.extend(line.replace("=", " = ").split())
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ModelError("unexpected end of model file")
        tok = toks[pos]
        pos += 1
        return tok

    def expect(word: str) -> None:
        got = take()
        if got != word:
            raise ModelError(f"expected {word!r}, found {got!r}")

    def number() -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise ModelError(f"expected an integer, found {tok!r}") from None

    expect("size")
    n = number()
    expect("meet:")
    cells = range(max(n, 0) ** 2)  # none for a carrier that `FiniteModel` refuses
    meet = tuple(number() for _ in cells)
    expect("join:")
    join = tuple(number() for _ in cells)
    expect("complement:")
    comp = tuple(number() for _ in range(n))
    expect("R00")
    expect("=")
    r00 = number()
    expect("R11")
    expect("=")
    r11 = number()
    if pos != len(toks):
        raise ModelError(f"trailing content in model file: {toks[pos]!r}")
    return FiniteModel(size=n, meet=meet, join=join, comp=comp, r00=r00, r11=r11)


def load_model(path: str) -> FiniteModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def pretty_model(m: FiniteModel) -> str:
    """Aligned operation tables for human reading."""
    n = m.size
    w = max(2, len(str(n - 1)) + 1)
    header = " ".join(f"{j:>{w}}" for j in range(n))

    def grid(sym: str, table: Sequence[int]) -> list[str]:
        out = [f"{sym:>{w}} |{header}", f"{'-' * w}-+{'-' * (len(header) + 1)}"]
        for i, row in enumerate(table_rows(table, n)):
            out.append(f"{i:>{w}} | " + " ".join(f"{x:>{w}}" for x in row).lstrip())
        out.append("")
        return out

    comp_label = "x'"
    lines = grid("^", m.meet) + grid("v", m.join)
    lines.append(f"{'x':>{w}} |{header}")
    lines.append(f"{'-' * w}-+{'-' * (len(header) + 1)}")
    lines.append(f"{comp_label:>{w}} | " + " ".join(f"{x:>{w}}" for x in m.comp).lstrip())
    lines.append("")
    lines.append(f"R00 = {m.r00}")
    lines.append(f"R11 = {m.r11}")
    lines.append(f"R10 = {m.r10}  (R11 ^ R00)")
    lines.append(f"R01 = {m.r01}  (R11 v R00)")
    return "\n".join(lines) + "\n"


# --- model search ------------------------------------------------------------

class ModelSearchError(LatticeError):
    """Unusable axiom/goal set for the searcher."""


@dataclass
class SearchOutcome:
    model: FiniteModel | None
    size: int | None
    sizes_excluded: tuple[int, ...]
    nodes: int
    elapsed_ms: float
    budget_exhausted: bool = False

    @property
    def found(self) -> bool:
        return self.model is not None


# postfix opcodes
_PUSH_ELEM, _PUSH_CELL, _APPLY, _COMP, _DERIVED = 0, 1, 2, 3, 4
# evaluation outcomes
_VALUE, _BLOCK_ROOT, _BLOCK = 0, 1, 2


class _SizeSearch:
    """Backtracking table search at one fixed carrier size.  Cells 0 and 1
    hold R00 and R11, the next ones the variables of each goal in turn,
    then come the complement, meet and join tables.  Construction only
    sizes the per-cell lists `val`, `forbid` and `args_max`: `watch` gets a
    cell the first time an instance reads it, and `models` does the rest
    under its deadline."""

    def __init__(self, size: int, axioms: Sequence[terms.Atom],
                 goals: Sequence[Statement], symmetry: bool):
        self.n = n = size
        self.axioms, self.goals = axioms, goals
        self.symmetry = symmetry
        self.cell_r00, self.cell_r11 = 0, 1
        self.comp_base = 2 + sum(len(terms.free_variables(g)) for g in goals)
        self.meet_base = self.comp_base + n
        self.join_base = self.meet_base + n * n
        ncells = self.join_base + n * n

        self.watch: defaultdict[int, set[int]] = defaultdict(set)  # cell -> instances read it
        self.val = [-1] * ncells
        self.forbid = [0] * ncells
        self.full_mask = (1 << n) - 1
        # largest argument index inherent to each cell (constants: -1)
        pair_max = [a if a > b else b for a in range(n) for b in range(n)]
        self.args_max = [-1] * self.comp_base + list(range(n)) + pair_max + pair_max
        # The program step after each binary operator's operands; `a * b` is
        # (a v (b ^ R00)) ^ (b v (a ^ R00)) and `a + b` (a ^ (b v R11)) v (b ^ (a v R11)).
        self.steps = {"^": (_APPLY, self.meet_base), "v": (_APPLY, self.join_base),
                      "*": (_DERIVED, (self.meet_base, self.join_base, self.cell_r00)),
                      "+": (_DERIVED, (self.join_base, self.meet_base, self.cell_r11))}

        self.instances: list[tuple[tuple, tuple, bool]] = []  # (lhs, rhs, is_eq)
        self.trivially_unsat = False
        self.trail: list[tuple] = []
        self.max_seen = -1
        self.nodes = 0

    # ----- compilation

    def _ground(self, deadline: float | None) -> None:
        """Fill `instances` from every axiom and the negation of every goal:
        its premises hold and each of its alternatives fails (see
        `terms.clause`).  `deadline` is checked after each atom."""
        found: dict[tuple[tuple, tuple, bool], None] = {}
        for ax in self.axioms:  # under every assignment of carrier elements
            names = terms.free_variables(ax)
            envs = ({name: (_PUSH_ELEM, e) for name, e in zip(names, combo)}
                    for combo in product(range(self.n), repeat=len(names)))
            self._ground_atom(found, ax, True, envs, deadline)
        cell = 2
        for g in self.goals:  # under the goal's own cells
            names = terms.free_variables(g)
            env = [{name: (_PUSH_CELL, cell + i) for i, name in enumerate(names)}]
            cell += len(names)
            premises, alts = terms.clause(g)
            for atom, positive in [*zip(premises, repeat(True)), *zip(alts, repeat(False))]:
                self._ground_atom(found, atom, positive, env, deadline)
        self.instances = list(found)

    def _branch_order(self, deadline: float | None) -> list[int]:
        order = list(range(self.comp_base))
        n, checked = self.n, 0
        for radius in range(n):
            order.append(self.comp_base + radius)
            pairs = [(i, radius) for i in range(radius)] + [(radius, j) for j in range(radius + 1)]
            for i, j in pairs:
                order += (self.meet_base + i * n + j, self.join_base + i * n + j)
            if len(order) - checked >= _DEADLINE_EVERY:
                checked = len(order)
                _check_deadline(deadline)
        return order

    def _compile(self, t: Term, env: Mapping[str, tuple], out: list) -> None:
        """Append the postfix program of `t`, a term without `@` (see
        `terms.sides`).  A `*` or `+` is one `_DERIVED` step after its
        operands."""
        if isinstance(t, Var):
            out.append(env[t.name])
        elif isinstance(t, Const):
            r00, r11 = (_PUSH_CELL, self.cell_r00), (_PUSH_CELL, self.cell_r11)
            out += {ConstantKind.R00: (r00,), ConstantKind.R11: (r11,),
                    ConstantKind.R10: (r11, r00, (_APPLY, self.meet_base)),
                    ConstantKind.R01: (r11, r00, (_APPLY, self.join_base))}[t.kind]
        elif isinstance(t, Lit):
            raise ModelSearchError("relation literals are outside the search signature")
        elif isinstance(t, Neg):
            self._compile(t.item, env, out)
            out.append((_COMP, self.comp_base))
        elif isinstance(t, Bin):
            self._compile(t.left, env, out)
            self._compile(t.right, env, out)
            out.append(self.steps[t.op])
        else:
            raise ModelSearchError(f"term {t!r} is outside the search signature")

    def _program(self, t: Term, env: Mapping[str, tuple]) -> tuple:
        out: list = []
        self._compile(t, env, out)
        return tuple(out)

    def _add_instance(self, found: dict, lhs: tuple, rhs: tuple, is_eq: bool) -> None:
        """Add an instance to `found`, its sides in one order, so that a
        repeat in either orientation is added once."""
        if lhs == rhs:
            if not is_eq:
                self.trivially_unsat = True
            return
        found[(lhs, rhs, is_eq) if lhs <= rhs else (rhs, lhs, is_eq)] = None

    def _ground_atom(self, found: dict, atom: terms.Atom, positive: bool,
                     envs: Iterable[Mapping[str, tuple]], deadline: float | None) -> None:
        """Add the instance of `atom`, or of its negation if not `positive`,
        under each of `envs`."""
        lhs, rhs, equal = terms.sides(atom)
        for i, env in enumerate(envs, 1):
            self._add_instance(found, self._program(lhs, env), self._program(rhs, env),
                               equal == positive)
            if not i % _DEADLINE_EVERY:
                _check_deadline(deadline)
        _check_deadline(deadline)

    # ----- evaluation and propagation

    def _eval(self, prog: tuple, reads: list[int]):
        val = self.val
        n = self.n
        stack: list[int] = []
        last = len(prog) - 1
        for idx, (op, arg) in enumerate(prog):
            if op == _PUSH_ELEM:
                stack.append(arg)
                continue
            if op == _PUSH_CELL:
                cell = arg
            elif op == _APPLY:
                b = stack.pop()
                cell = arg + stack.pop() * n + b
            elif op == _COMP:
                cell = arg + stack.pop()
            else:  # _DERIVED: the cells its definition reads, in order, root last
                inner, outer, k = arg
                b = stack.pop()
                a = stack.pop()
                reads.append(k)
                kv = val[k]
                if kv < 0:
                    return _BLOCK, k
                halves = []
                for u, v in ((a, b), (b, a)):  # outer[u, inner[v, k]]
                    cell = inner + v * n + kv
                    reads.append(cell)
                    x = val[cell]
                    if x < 0:
                        return _BLOCK, cell
                    cell = outer + u * n + x
                    reads.append(cell)
                    x = val[cell]
                    if x < 0:
                        return _BLOCK, cell
                    halves.append(x)
                cell = inner + halves[0] * n + halves[1]
            reads.append(cell)
            x = val[cell]
            if x < 0:
                return (_BLOCK_ROOT if idx == last else _BLOCK), cell
            stack.append(x)
        return _VALUE, stack[-1]

    def _check_instance(self, i: int, queue: list[int]) -> bool:
        """Re-evaluate instance `i`, watch every cell it read, and act on it.

        When one side has a value and the other is blocked only at its
        root cell, an equation assigns that value to the cell (queued for
        propagation) and a disequation forbids it there.  False on a
        conflict: the instance is false, or that assignment or forbid fails.
        """
        lhs, rhs, is_eq = self.instances[i]
        reads: list[int] = []
        ls, lv = self._eval(lhs, reads)
        rs, rv = self._eval(rhs, reads)
        watch = self.watch
        for c in reads:
            watch[c].add(i)
        if ls == _VALUE and rs == _VALUE:
            return (lv == rv) == is_eq
        if ls == _VALUE and rs == _BLOCK_ROOT:
            cell, value = rv, lv
        elif rs == _VALUE and ls == _BLOCK_ROOT:
            cell, value = lv, rv
        else:  # a disequation fails with the same cell at the root of both sides
            return is_eq or not (ls == _BLOCK_ROOT and rs == _BLOCK_ROOT and lv == rv)
        return self._assign(cell, value, queue) if is_eq else self._forbid_value(cell, value)

    def _assign(self, cell: int, value: int, queue: list[int]) -> bool:
        cur = self.val[cell]
        if cur >= 0:
            return cur == value
        if self.forbid[cell] >> value & 1:
            return False
        self.val[cell] = value
        self.trail.append(("a", cell, self.max_seen))
        seen = value if value > self.args_max[cell] else self.args_max[cell]
        if seen > self.max_seen:
            self.max_seen = seen
        queue.append(cell)
        return True

    def _forbid_value(self, cell: int, value: int) -> bool:
        mask = self.forbid[cell]
        if mask >> value & 1:
            return True
        self.trail.append(("f", cell, mask))
        self.forbid[cell] = mask | (1 << value)
        return self.forbid[cell] != self.full_mask

    def _propagate(self, queue: list[int]) -> bool:
        while queue:
            cell = queue.pop()
            for i in list(self.watch.get(cell, ())):
                if not self._check_instance(i, queue):
                    return False
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, cell, prev = self.trail.pop()
            if kind == "a":
                self.val[cell] = -1
                self.max_seen = prev
            else:
                self.forbid[cell] = prev

    # ----- search driver

    def models(self, deadline: float | None) -> Iterator[FiniteModel]:
        """Lay out the branch order, ground, check every instance once, then
        yield each model that a depth-first search completes; call it once.
        The search gives the unassigned cells in branch order their values
        in ascending order, up to the least-number bound, and undoes
        through the trail.  Its open branches are a list of (position in
        `order`, next value, trail mark), not Python frames, so no carrier
        size meets the recursion limit.  Every phase reads `deadline`.
        """
        order = self._branch_order(deadline)
        self._ground(deadline)
        if self.trivially_unsat:
            return
        queue: list[int] = []
        for i in range(len(self.instances)):
            if not i % _DEADLINE_EVERY:
                _check_deadline(deadline)
            if not self._check_instance(i, queue):
                return
        if not self._propagate(queue):
            return
        val, n = self.val, self.n
        branches: list[tuple[int, int, int]] = []
        pos = 0
        while True:
            while pos < len(order) and val[order[pos]] >= 0:
                pos += 1
            if pos == len(order):
                yield self._extract()
            else:
                self.nodes += 1
                _check_deadline(deadline)
                branches.append((pos, 0, len(self.trail)))
            while branches:  # the next value of the deepest open branch
                pos, value, mark = branches.pop()
                self._undo_to(mark)
                cell = order[pos]
                bound = (min(max(self.max_seen, self.args_max[cell]) + 1, n - 1)
                         if self.symmetry else n - 1)
                for value in range(value, bound + 1):
                    if self.forbid[cell] >> value & 1:
                        continue
                    queue = []
                    if self._assign(cell, value, queue) and self._propagate(queue):
                        branches.append((pos, value + 1, mark))
                        break
                    self._undo_to(mark)
                else:
                    continue
                pos += 1
                break
            else:
                return

    def _extract(self) -> FiniteModel:
        val = self.val
        return FiniteModel(size=self.n, meet=tuple(val[self.meet_base:self.join_base]),
                           join=tuple(val[self.join_base:]),
                           comp=tuple(val[self.comp_base:self.meet_base]),
                           r00=val[self.cell_r00], r11=val[self.cell_r11])


class _Timeout(Exception):
    pass


# Ground instances between two deadline checks while grounding an atom
# and in the first pass of `_SizeSearch.models` over every instance, and
# cells between two while it lays out the branch order.
_DEADLINE_EVERY = 1024


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout()


def _as_statement(s: Statement | str) -> Statement:
    """`s`, read by `terms.parse_goal` if it is a string."""
    return terms.parse_goal(s) if isinstance(s, str) else s


def refutes(m: FiniteModel, goal: Statement | str) -> bool:
    """True iff some carrier assignment falsifies the goal."""
    report = verify_model(m, [goal])[0]
    return report.verdict is Verdict.REFUTED


def search_model(axioms: Sequence[Statement | str], goals: Sequence[Statement | str],
                 sizes: Iterable[int], budget: float | None = None,
                 symmetry: bool = True) -> SearchOutcome:
    """Find a model satisfying every axiom and falsifying every goal.

    Sizes are tried in ascending order, so a returned size is minimal
    among the searched sizes; a size is recorded as excluded only after
    its assignment space was exhausted; a size below 1 or past 1,000 is refused first.
    `budget` is wall-clock seconds, at least 0.
    `symmetry` enables least-index canonicity pruning (skipping partial
    models that merely relabel an already-explored one); it is an
    optimization and must not change outcomes, only speed.  A string
    axiom or goal is read by `terms.parse_goal`, so an axiom written
    `atom | atom` is refused like any other non-atom.
    """
    size_list = list(sizes)
    if any(b <= a for a, b in zip([0, *size_list], size_list)):
        raise ModelSearchError("sizes must be at least 1 and ascending")
    if max(size_list, default=0) ** 2 > BRIDGE_PAIR_LIMIT:
        raise ModelSearchError(f"size {size_list[-1]} is refused: n * n > {BRIDGE_PAIR_LIMIT}")
    if budget is not None and not budget >= 0:  # NaN too
        raise ModelSearchError(f"budget must be at least 0 seconds, got {budget}")
    parsed_axioms: list[terms.Atom] = []
    for ax in axioms:
        stmt = _as_statement(ax)
        if not isinstance(stmt, (Eq, Ne, Lt)):
            raise ModelSearchError(
                f"axioms must be equations, disequations or order assertions: {terms.format_statement(stmt)}"
            )
        parsed_axioms.append(stmt)
    parsed_goals = [_as_statement(g) for g in goals]

    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    excluded: list[int] = []
    nodes = 0
    model = None
    timed_out = False
    for n in size_list:
        search = _SizeSearch(n, parsed_axioms, parsed_goals, symmetry)
        try:
            model = next(search.models(deadline), None)
        except _Timeout:
            timed_out = True
        nodes += search.nodes
        if timed_out or model is not None:
            break
        excluded.append(n)
    if model is not None:
        _validate_found(model, parsed_axioms, parsed_goals)
    return SearchOutcome(
        model=model, size=None if model is None else model.size,
        sizes_excluded=tuple(excluded), nodes=nodes,
        elapsed_ms=(time.monotonic() - start) * 1000.0, budget_exhausted=timed_out,
    )


def _validate_found(m: FiniteModel, axioms: Sequence[terms.Atom],
                    goals: Sequence[Statement]) -> None:
    """Independent re-verification of a search result via the table engine."""
    reports = verify_model(m, [*axioms, *goals])
    for report in reports[:len(axioms)]:
        if report.verdict is not Verdict.HOLDS:
            raise RuntimeError(f"search produced a model violating an axiom: {report.statement}")
    for g, report in zip(goals, reports[len(axioms):]):
        if report.verdict is not Verdict.REFUTED:
            raise RuntimeError(f"search produced a model that fails to refute: {terms.format_statement(g)}")
