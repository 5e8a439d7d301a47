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
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import terms
from .checker import CheckReport, Exhaustive, Mode, Verdict, run_check
from .kernel import DEFAULT_ENUM_BUDGET, RelationKernel, _Table
from .terms import Bin, Const, Eq, Imp, Lit, Lt, Ne, Neg, Or, Statement, Term, Var
from .universe import ConstantKind, LatticeError, Universe


class ModelError(LatticeError):
    """Malformed model, or a statement outside the model signature."""


@dataclass(frozen=True)
class FiniteModel:
    """Carrier {0..size-1} with meet/join/complement tables and two constants.

    `meet` and `join` are flat tuples of `size * size` entries: entry
    `a * size + b` is `a ^ b` (`a v b`).  That is the layout the checker
    reads (`checker.Compiled`) and the search fills; rows exist only in
    the text forms (`format_model`, `pretty_model`).
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
    is read by `terms.parse_goal`, so `atom | atom` too."""
    tables = _model_tables(m)
    constants = {ConstantKind.R00: m.r00, ConstantKind.R11: m.r11,
                 ConstantKind.R10: m.r10, ConstantKind.R01: m.r01}

    def leaf(t: Const | Lit) -> int:
        if isinstance(t, Lit):
            raise ModelError("relation literals have no interpretation in an abstract model")
        return constants[t.kind]

    return [run_check(terms.parse_goal(s) if isinstance(s, str) else s, m.size,
                      tables=tables, leaf=leaf, render=str, mode=mode)
            for s in statements]


def find_counterexample(m: FiniteModel, statement: Statement | str) -> dict[str, int] | None:
    """First refuting carrier assignment in index order, or None."""
    report = verify_model(m, [statement])[0]
    return report.witness if report.verdict is Verdict.REFUTED else None


BRIDGE_PAIR_LIMIT = 1_000_000
"""Most relation pairs, `n * n` for `n` relations, that `model_from_universe`
fills tables for: 1,000 relations.  Three binary attributes (318) and a
3x3 universe (530) bridge; four binary attributes (66,674) would fill
4.4 G entries per table."""


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
                       r00=k.const(ConstantKind.R00), r11=k.r11)


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
    """Backtracking table search at one fixed carrier size."""

    def __init__(self, size: int, goals: Sequence[Statement], symmetry: bool):
        self.n = n = size
        self.symmetry = symmetry
        self.cell_r00 = 0
        self.cell_r11 = 1
        self.skolems: list[int] = []
        next_cell = 2
        self.skolem_of: dict[tuple[int, str], int] = {}
        for gi, g in enumerate(goals):
            for name in terms.free_variables(g):
                self.skolem_of[(gi, name)] = next_cell
                self.skolems.append(next_cell)
                next_cell += 1
        self.comp_base = next_cell
        self.meet_base = self.comp_base + n
        self.join_base = self.meet_base + n * n
        self.ncells = self.join_base + n * n

        self.val = [-1] * self.ncells
        self.forbid = [0] * self.ncells
        self.full_mask = (1 << n) - 1
        # largest argument index inherent to each cell (constants: -1)
        self.args_max = [-1] * self.ncells
        for a in range(n):
            self.args_max[self.comp_base + a] = a
            for b in range(n):
                m = a if a > b else b
                self.args_max[self.meet_base + a * n + b] = m
                self.args_max[self.join_base + a * n + b] = m

        self.watch: list[set[int]] = [set() for _ in range(self.ncells)]
        self.inst_lhs: list[tuple] = []
        self.inst_rhs: list[tuple] = []
        self.inst_eq: list[bool] = []
        self.trivially_unsat = False
        self._seen_instances: set = set()

        self.order = self._branch_order()
        self.trail: list[tuple] = []
        self.max_seen = -1
        self.nodes = 0

    # ----- compilation

    def ground(self, axioms: Sequence[terms.Atom], goals: Sequence[Statement],
               deadline: float | None) -> None:
        """Add the instances of every axiom, and the negation of every goal
        (the goals given to the constructor), checking `deadline` after each atom."""
        for ax in axioms:
            self._ground_atom(ax, positive=True, deadline=deadline)
        for gi, g in enumerate(goals):
            self._add_negated_goal(gi, g, deadline)

    def _branch_order(self) -> list[int]:
        order = [self.cell_r00, self.cell_r11] + list(self.skolems)
        n = self.n
        for radius in range(n):
            order.append(self.comp_base + radius)
            pairs = [(i, radius) for i in range(radius)] + \
                    [(radius, j) for j in range(radius + 1)]
            for i, j in pairs:
                order.append(self.meet_base + i * n + j)
                order.append(self.join_base + i * n + j)
        return order

    def _compile(self, t: Term, env: Mapping[str, tuple], out: list) -> None:
        """Append the postfix program of `t`.  A `*` or `+` is one
        `_DERIVED` step after its operands; `y @ x` is `(y v R11) + x`."""
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
            if t.op == "@":
                out += ((_PUSH_CELL, self.cell_r11), (_APPLY, self.join_base))
            self._compile(t.right, env, out)
            if t.op == "^" or t.op == "v":
                out.append((_APPLY, self.meet_base if t.op == "^" else self.join_base))
            elif t.op == "*":  # a * b = (a v (b ^ R00)) ^ (b v (a ^ R00))
                out.append((_DERIVED, (self.meet_base, self.join_base, self.cell_r00)))
            else:  # a + b = (a ^ (b v R11)) v (b ^ (a v R11))
                out.append((_DERIVED, (self.join_base, self.meet_base, self.cell_r11)))
        else:
            raise ModelSearchError(f"term {t!r} is outside the search signature")

    def _program(self, t: Term, env: Mapping[str, tuple]) -> tuple:
        out: list = []
        self._compile(t, env, out)
        return tuple(out)

    def _add_instance(self, lhs: tuple, rhs: tuple, is_eq: bool) -> None:
        if lhs == rhs:
            if not is_eq:
                self.trivially_unsat = True
            return
        key = (is_eq, lhs, rhs) if lhs <= rhs else (is_eq, rhs, lhs)
        if key in self._seen_instances:
            return
        self._seen_instances.add(key)
        self.inst_lhs.append(lhs)
        self.inst_rhs.append(rhs)
        self.inst_eq.append(is_eq)

    def _ground_atom(self, atom: terms.Atom, positive: bool, deadline: float | None,
                     fixed_env: Mapping[str, tuple] | None = None) -> None:
        """Add the instances of `atom`: one under `fixed_env`, or one per
        assignment of carrier elements to its variables.  `a < b` is the
        equation `a ^ b = a`; a negative atom adds its negation."""
        if isinstance(atom, Lt):
            lhs_t, rhs_t = Bin("^", atom.lhs, atom.rhs), atom.lhs
        else:
            lhs_t, rhs_t = atom.lhs, atom.rhs
        is_eq = isinstance(atom, (Eq, Lt)) == positive
        if fixed_env is not None:
            envs = [fixed_env]
        else:
            names = terms.free_variables(atom)
            envs = ({name: (_PUSH_ELEM, e) for name, e in zip(names, combo)}
                    for combo in product(range(self.n), repeat=len(names)))
        for i, env in enumerate(envs, 1):
            self._add_instance(self._program(lhs_t, env), self._program(rhs_t, env), is_eq)
            if not i % _DEADLINE_EVERY:
                _check_deadline(deadline)
        _check_deadline(deadline)

    def _add_negated_goal(self, gi: int, g: Statement, deadline: float | None) -> None:
        env = {name: (_PUSH_CELL, self.skolem_of[(gi, name)])
               for name in terms.free_variables(g)}
        if isinstance(g, (Eq, Ne, Lt)):
            self._ground_atom(g, False, deadline, env)
        elif isinstance(g, Or):
            for alt in g.alts:
                self._ground_atom(alt, False, deadline, env)
        elif isinstance(g, Imp):
            for p in g.premises:
                self._ground_atom(p, True, deadline, env)
            self._ground_atom(g.conclusion, False, deadline, env)
        else:
            raise ModelSearchError(f"unsupported goal: {g!r}")

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
        reads: list[int] = []
        ls, lv = self._eval(self.inst_lhs[i], reads)
        rs, rv = self._eval(self.inst_rhs[i], reads)
        watch = self.watch
        for c in reads:
            watch[c].add(i)
        is_eq = self.inst_eq[i]
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
            for i in list(self.watch[cell]):
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

    def run(self, deadline: float | None) -> FiniteModel | None:
        if self.trivially_unsat:
            return None
        queue: list[int] = []
        for i in range(len(self.inst_lhs)):
            if not i % _DEADLINE_EVERY:
                _check_deadline(deadline)
            if not self._check_instance(i, queue):
                return None
        if not self._propagate(queue):
            return None
        return self._dfs(0, deadline)

    def _dfs(self, pos: int, deadline: float | None) -> FiniteModel | None:
        order, val = self.order, self.val
        while pos < len(order) and val[order[pos]] >= 0:
            pos += 1
        if pos == len(order):
            return self._extract()
        cell = order[pos]
        self.nodes += 1
        _check_deadline(deadline)
        if self.symmetry:
            seen = self.max_seen if self.max_seen > self.args_max[cell] else self.args_max[cell]
            bound = min(seen + 1, self.n - 1)
        else:
            bound = self.n - 1
        forbid = self.forbid[cell]
        for value in range(bound + 1):
            if forbid >> value & 1:
                continue
            mark = len(self.trail)
            queue: list[int] = []
            if self._assign(cell, value, queue) and self._propagate(queue):
                got = self._dfs(pos + 1, deadline)
                if got is not None:
                    return got
            self._undo_to(mark)
        return None

    def _extract(self) -> FiniteModel:
        val = self.val
        return FiniteModel(
            size=self.n,
            meet=tuple(val[self.meet_base:self.join_base]),
            join=tuple(val[self.join_base:]),
            comp=tuple(val[self.comp_base:self.meet_base]),
            r00=val[self.cell_r00],
            r11=val[self.cell_r11],
        )


class _Timeout(Exception):
    pass


# Ground instances between two deadline checks while grounding an atom
# and in `_SizeSearch.run`'s first pass over every instance.
_DEADLINE_EVERY = 1024


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout()


def _as_statement(s: Statement | str, goal: bool = False) -> Statement:
    if isinstance(s, str):
        return terms.parse_goal(s) if goal else terms.parse_statement(s)
    return s


def refutes(m: FiniteModel, goal: Statement | str) -> bool:
    """True iff some carrier assignment falsifies the goal."""
    report = verify_model(m, [_as_statement(goal, goal=True)])[0]
    return report.verdict is Verdict.REFUTED


def search_model(axioms: Sequence[Statement | str], goals: Sequence[Statement | str],
                 sizes: Iterable[int], budget: float | None = None,
                 symmetry: bool = True) -> SearchOutcome:
    """Find a model satisfying every axiom and falsifying every goal.

    Sizes are tried in ascending order, so a returned size is minimal
    among the searched sizes; a size is recorded as excluded only after
    its assignment space was exhausted.  `budget` is wall-clock seconds.
    `symmetry` enables least-index canonicity pruning (skipping partial
    models that merely relabel an already-explored one); it is an
    optimization and must not change outcomes, only speed.
    """
    size_list = list(sizes)
    if any(b <= a for a, b in zip(size_list, size_list[1:])):
        raise ModelSearchError("sizes must be ascending")
    parsed_axioms: list[terms.Atom] = []
    for ax in axioms:
        stmt = _as_statement(ax)
        if not isinstance(stmt, (Eq, Ne, Lt)):
            raise ModelSearchError(
                f"axioms must be equations, disequations or order assertions: {terms.format_statement(stmt)}"
            )
        parsed_axioms.append(stmt)
    parsed_goals = [_as_statement(g, goal=True) for g in goals]

    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    excluded: list[int] = []
    nodes = 0
    model = None
    timed_out = False
    for n in size_list:
        search = _SizeSearch(n, parsed_goals, symmetry)
        try:
            search.ground(parsed_axioms, parsed_goals, deadline)
            model = search.run(deadline)
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
