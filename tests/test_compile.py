"""Compiled statements against the relation-level evaluator.

`checker.compile_statement` turns a statement into one generated check
loop over operation tables; `check` runs it on lazily filled kernel
tables and `verify_model` on a model's flat tables.  Here it is compared
with `checker.evaluate`, which applies the `rlattice.universe` functions
directly, one assignment at a time and in whole reference loops over
`product` and `randrange` assignments; its nested and flat loops are
compared with each other, and so are the two callers.
"""

import operator
import random
from dataclasses import replace
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlattice import (
    Bin,
    Const,
    ConstantKind,
    Eq,
    Exhaustive,
    Imp,
    Lit,
    Lt,
    ModelError,
    Ne,
    Neg,
    Or,
    RelationError,
    Sample,
    Universe,
    Var,
    Verdict,
    check,
    enumerate_relations,
    evaluate,
    find_counterexample,
    format_statement,
    free_variables,
    leq,
    minimal_axioms,
    model_from_universe,
    parse_goal,
    parse_statement,
    run_suite,
    suite_catalog,
    verify_model,
)
from rlattice import models
from rlattice.checker import compile_statement, run_check
from rlattice.kernel import WHOLE_PAIRS, RelationKernel, carrier, row_tables
from rlattice.suites import SUITE_NAMES
from rlattice.terms import BINARY_OPS

from conftest import carrier_of

U1 = Universe.make({"t": ("a", "b")})
U2 = Universe.make({"t": ("a", "b"), "s": ("1", "2")})
U23 = Universe.make({"t": ("a", "b"), "s": ("1", "2", "3")})  # 78 relations


def at_relations(u, statement, env):
    """(counts_toward_premises, holds) of a statement under relations `env`."""
    def atom(a):
        lhs, rhs = evaluate(u, a.lhs, env), evaluate(u, a.rhs, env)
        if isinstance(a, Eq):
            return lhs == rhs
        if isinstance(a, Ne):
            return lhs != rhs
        return leq(u, lhs, rhs)

    if isinstance(statement, Imp):
        if all(atom(p) for p in statement.premises):
            return True, atom(statement.conclusion)
        return False, True
    if isinstance(statement, Or):
        return False, any(atom(a) for a in statement.alts)
    return False, atom(statement)


def assignments(u, statement, limit, seed=0):
    """Every assignment of codes, or `limit` of them drawn with `seed`."""
    n, arity = len(enumerate_relations(u)), len(free_variables(statement))
    if n ** arity <= limit:
        return list(product(range(n), repeat=arity))
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for _ in range(arity)) for _ in range(limit)]


def assert_matches_relations(u, statement, limit=150):
    rels = enumerate_relations(u)
    k = RelationKernel(u)
    code = compile_statement(statement)
    tables, leaves = k.tables(), [k.leaf(t) for t in code.leaves]
    for env in assignments(u, statement, limit):
        counts, holds = at_relations(u, statement, {v: rels[e] for v, e in zip(code.variables, env)})
        # the flat loop over this one assignment
        got = code.run(*tables, k.n, None, None, None, *leaves, [env])
        assert got == (counts, 1, None if holds else env), env


# --- Hypothesis strategies ---------------------------------------------------

VARS = [Var("x"), Var("y"), Var("z")]
CONSTS = [Const(kind) for kind in ConstantKind]


@st.composite
def small_universes(draw, max_space):
    """1-3 attributes with 1-3 unsorted values each, at most `max_space` tuples in all."""
    domains, space = [], 1
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, min(3, max_space // space)))
        domains.append(draw(st.lists(st.sampled_from("qzbxa"), min_size=size, max_size=size,
                                     unique=True)))
        space *= size
    return Universe.make({f"c{i}": d for i, d in enumerate(domains)})


def literals(u):
    @st.composite
    def literal(draw):
        attrs = tuple(draw(st.lists(st.sampled_from(u.attributes), unique=True)))
        shape = draw(st.sampled_from(["rows", "empty", "full"]))
        if shape != "rows":
            return Lit(shape, attrs)
        header = u.sort_header(attrs)
        order = [header.index(a) for a in attrs]  # rows are written in `attrs` order
        rows = draw(st.lists(st.sampled_from(u.full_body(header)), min_size=1, unique=True))
        return Lit("rows", attrs, tuple(tuple(row[i] for i in order) for row in rows))
    return literal()


def statements(u, with_literals=True):
    leaves = [st.sampled_from(VARS), st.sampled_from(CONSTS)]
    if with_literals:
        leaves.append(literals(u))
    term = st.recursive(st.one_of(*leaves), lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Bin, st.sampled_from(BINARY_OPS), sub, sub)),
        max_leaves=6)
    atom = st.builds(lambda kind, lhs, rhs: kind(lhs, rhs),
                     st.sampled_from([Eq, Ne, Lt]), term, term)
    return st.one_of(
        atom,
        st.builds(Imp, st.lists(atom, min_size=1, max_size=2).map(tuple), atom),
        st.lists(atom, min_size=2, max_size=3).map(lambda alts: Or(tuple(alts))),
    )


def universes(max_space):
    return st.one_of(st.sampled_from([U1, U2]), small_universes(max_space))


# --- the compiled code against the relation-level evaluator -------------------

FEATURES = [
    "x ^ y = y ^ x",
    "x v (y * z) != (x + y) @ z",
    "x' < x @ R11",
    "(x + (y ^ z)) ^ (x + (y ^ z))' = (x + (y ^ z)) ^ R10",
    "x < y & y' = x -> {(t=a)} * x = full(t) + empty(t)",
    "R00 ^ R11 != R00",
    "R01' = R00 v {(t=b)}",
]
GOALS = ["x ^ R00 = R10 | x v R01 = R01 | x' != x", "x @ y < x | x = {(t=a), (t=b)}"]


# Every catalog statement; the minimal axioms are among them.
CATALOG = sorted({e.text for entries in suite_catalog().values() for e in entries}
                 | set(minimal_axioms()))


class TestAgainstRelations:
    @pytest.mark.parametrize("u", [U1, U2], ids=["u1", "u2"])
    @pytest.mark.parametrize("text", FEATURES + GOALS)
    def test_features(self, u, text):
        statement = parse_goal(text) if text in GOALS else parse_statement(text)
        assert_matches_relations(u, statement)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_statements(self, data):
        u = data.draw(universes(max_space=9))  # up to 530 relations
        assert_matches_relations(u, data.draw(statements(u)), limit=40)


class TestCompiled:
    def test_repeated_leaf_bound_once(self):
        code = compile_statement(parse_statement("x @ y = (x v R11) + y"))
        assert code.variables == ("x", "y")
        assert code.leaves == (Const(ConstantKind.R11),)

    def test_cached_per_statement(self):
        text = "x ^ (y v z) = (x ^ y) v (x ^ z)"
        assert compile_statement(parse_statement(text)) is compile_statement(
            parse_statement(text))

    def test_text_is_the_printed_statement(self):
        for text in CATALOG:
            statement = parse_statement(text)
            assert compile_statement(statement).text == format_statement(statement)

    def test_reports_name_their_statement(self):
        mode = Exhaustive(max_assignments=100)
        statements = [parse_statement(text) for text in CATALOG]
        expected = [format_statement(s) for s in statements]
        assert [check(U1, s, mode).statement for s in statements] == expected
        assert [r.statement for r in verify_model(model_of(U1), statements, mode)] == expected
        for name in SUITE_NAMES:
            for res in run_suite(name).results:
                for _, rep in res.reports:
                    assert rep.statement == format_statement(res.entry.statement)


# --- the generated loop against a reference loop ------------------------------

def reference_walk(u, statement, envs):
    """(tested, premise_satisfying, witness) after each assignment of codes in
    `envs`, judged on relations, up to and including the first refutation."""
    rels, names = enumerate_relations(u), free_variables(statement)
    premises = 0
    for tested, env in enumerate(envs, 1):
        assignment = {v: rels[e] for v, e in zip(names, env)}
        counts, holds = at_relations(u, statement, assignment)
        premises += counts
        yield tested, premises, None if holds else assignment
        if not holds:
            return


def assert_report(rep, statement, step, verdict):
    tested, premises, witness = step
    assert rep.verdict is (Verdict.REFUTED if witness is not None else verdict)
    assert rep.assignments_tested == tested
    assert rep.premise_satisfying == (premises if isinstance(statement, Imp) else None)
    assert rep.witness == witness


def assert_exhaustive_matches(u, statement, caps):
    """`check` with each cap (None: uncapped) against a `product` reference loop."""
    n, arity = len(enumerate_relations(u)), len(free_variables(statement))
    total = n ** arity
    top = max(total if c is None else c for c in caps)
    steps = [(0, 0, None), *reference_walk(
        u, statement, islice(product(range(n), repeat=arity), top))]
    for cap in caps:
        step = steps[min(total if cap is None else cap, len(steps) - 1)]
        rep = check(u, statement, Exhaustive(max_assignments=cap))
        assert_report(rep, statement, step, Verdict.HOLDS if step[0] == total
                      else Verdict.BUDGET_EXHAUSTED)


def assert_sampled_matches(u, statement, seed, samples):
    """`check` in sample mode against a `randrange` reference loop."""
    n, arity = len(enumerate_relations(u)), len(free_variables(statement))
    rng = random.Random(seed)
    envs = (tuple(rng.randrange(n) for _ in range(arity)) for _ in range(samples))
    *_, step = [(0, 0, None), *reference_walk(u, statement, envs)]
    assert_report(check(u, statement, Sample(seed, samples)), statement, step,
                  Verdict.BUDGET_EXHAUSTED)


LOOPS = [
    # = != < at arity 0-4
    "R00 ^ R11 != R00",
    "R01' = R10",
    "x' < x @ R11",
    "x != x'",
    "x ^ y = y ^ x",
    "x v y < x",
    "x ^ (y v z) = (x ^ y) v (x ^ z)",
    "x * (y + z) != (x * y) + z",
    "(x ^ y) v (z ^ w) = (x v z) ^ (y v w)",
    # premises at different depths, before and after deeper ones
    "x < y & y < z -> x v z < y v z",
    "x ^ y = y & x' = x' ^ R11 -> x v y = y",
    "x ^ z = R00 & x < y -> x < (y ^ z')",
    "x v y = z v w -> x = z",
    "R00 = R11 & x < y -> y < x",
    "R00 < R11 & x < y -> x ^ y = x",
]
DISJUNCTIONS = [
    "x ^ R00 = R10 | x v R01 = R01 | x' != x",
    "x < y | y < x",
    "x ^ y = x | z < y | x v z != z",
    "R00 = R11 | x = x'",
    "R00 != R11 | x = x'",
]


class TestFusedLoop:
    @pytest.mark.parametrize("text", LOOPS + DISJUNCTIONS)
    def test_against_reference(self, text):
        statement = parse_goal(text)
        n = len(enumerate_relations(U1))
        total = n ** len(free_variables(statement))
        assert_exhaustive_matches(U1, statement, [None, 0, 1, total - 1, total, total + 1])
        for seed in (0, 5):
            assert_sampled_matches(U1, statement, seed, 300)

    @pytest.mark.parametrize("text", sorted({e.text for entries in suite_catalog().values()
                                             for e in entries}))
    def test_catalog_nested_equals_flat(self, text):
        """The nested loops over rows and over scalars, each over identity
        maps and over the kernel's own `orbit_least` and `stabilizer_least`,
        and the flat loop over every assignment agree (on u1, on u2 up to 3
        variables, 17,576 assignments, and on 2x3's 78 codes up to 2
        variables), whether or not `check` would reduce the statement."""
        statement = parse_statement(text)
        code = compile_statement(statement)
        arity = len(code.variables)
        for u in [U1, *[U2] * (arity <= 3), *[U23] * (arity <= 2)]:
            k = RelationKernel(u)
            tables, leaves = k.tables(), [k.leaf(t) for t in code.leaves]
            identity = list(range(k.n))
            flat = code.run(*tables, k.n, None, None, None, *leaves,
                            product(range(k.n), repeat=arity))
            for rows in (None, k.rows()):
                plain = code.run(*tables, k.n, identity, lambda first: identity, rows,
                                 *leaves, None)
                reduced = code.run(*tables, k.n, k.orbit_least, k.stabilizer_least, rows,
                                   *leaves, None)
                assert plain == flat == reduced, rows

    @settings(max_examples=150, deadline=None)
    @given(statements(U1, with_literals=False))
    def test_non_commuting_tables(self, statement):
        """Over tables where no operation commutes, so a swapped operand shows."""
        n = 3
        pairs = [divmod(key, n) for key in range(n * n)]
        M, J = [a for a, b in pairs], [b for a, b in pairs]
        S, P = [(a + 2 * b) % n for a, b in pairs], [(2 * a + b) % n for a, b in pairs]
        C = [(a + 1) % n for a in range(n)]
        leaf = {ConstantKind.R00: 0, ConstantKind.R11: 2, ConstantKind.R10: 1,
                ConstantKind.R01: 1}

        def value(t, env):
            if isinstance(t, Var):
                return env[t.name]
            if isinstance(t, Const):
                return leaf[t.kind]
            if isinstance(t, Neg):
                return C[value(t.item, env)]
            a = value(Bin("v", t.left, Const(ConstantKind.R11)) if t.op == "@" else t.left, env)
            table = {"^": M, "v": J, "*": S, "+": P, "@": P}[t.op]
            return table[a * n + value(t.right, env)]

        def holds(a, env):
            lhs, rhs = value(a.lhs, env), value(a.rhs, env)
            return {Eq: lhs == rhs, Ne: lhs != rhs, Lt: M[lhs * n + rhs] == lhs}[type(a)]

        names = free_variables(statement)
        tested = premises = 0
        witness = None
        for tested, values in enumerate(product(range(n), repeat=len(names)), 1):
            env = dict(zip(names, values))
            if isinstance(statement, Imp):
                if not all(holds(p, env) for p in statement.premises):
                    continue
                premises += 1
                ok = holds(statement.conclusion, env)
            else:
                ok = any(holds(a, env) for a in getattr(statement, "alts", [statement]))
            if not ok:
                witness = env
                break
        for rows in (None, row_tables((M, J, S, P, C), n)):  # scalar and row loops
            rep = run_check(statement, carrier(n, (M, J, S, P, C), rows, lambda t: leaf[t.kind]))
            assert rep.verdict is (Verdict.HOLDS if witness is None else Verdict.REFUTED)
            assert rep.assignments_tested == tested
            assert rep.premise_satisfying == (premises if isinstance(statement, Imp) else None)
            assert rep.witness == witness


class TestRows:
    """The row loops (two or more variables, carriers of at most 256
    elements) against the scalar loops, at the edges of where rows serve."""

    @pytest.mark.parametrize("n", [1, 256, 257])
    @pytest.mark.parametrize("text", ["x ^ x' != R00", "x ^ y = y ^ x", "x v y = y v x",
                                      "x ^ y ^ z = x ^ (y ^ z)", "x = y -> x v z = z v y",
                                      "x ^ y != z'", "x ^ (x v y) = x", "x ^ y' = y' ^ x",
                                      "y = x v y"])
    def test_carrier_bounds(self, n, text):
        pairs = [divmod(key, n) for key in range(n * n)]
        M = tuple((a + 2 * b) % n for a, b in pairs)  # commutes and associates for n = 1 only
        J = tuple(max(pair) for pair in pairs)
        tables = (M, J, M, J, tuple((a + 1) % n for a in range(n)))
        rows = row_tables(tables, n)
        assert (rows is None) == (n > 256)
        statement = parse_goal(text)
        got, want = (run_check(statement, carrier(n, tables, r, lambda t: 0)).document()
                     for r in (rows, None))
        assert got == want
        # Rows are read exactly when they serve.
        assert any(rows or ()) == (n <= 256 and len(free_variables(statement)) >= 2)

    @pytest.mark.parametrize("text", sorted({e.text for entries in suite_catalog().values()
                                             for e in entries
                                             if len(free_variables(parse_statement(e.text))) == 1}))
    def test_one_variable_fills_as_scalar_loop(self, text):
        """A one-variable check on a fresh 2x3 kernel, whose 78 codes fill
        their tables one pair per miss, fills the very table entries the
        scalar loop fills."""
        statement = parse_statement(text)
        fresh, scalar = RelationKernel(U23), RelationKernel(U23)
        check(U23, statement, kernel=fresh)
        run_check(statement, carrier(scalar.n, scalar.tables(), None, scalar.leaf))
        assert list(map(dict, fresh.tables())) == list(map(dict, scalar.tables()))

    def test_verify_model_makes_rows_only_for_statements_that_take_them(self, monkeypatch):
        """A model past the size rule, the 78 relations of the 2x3 universe,
        makes its row tables once, at its first `verify_model` call, and
        keeps them for later calls; only statements whose loops take rows
        fill them, a two-variable one on the model's first call too, no
        statement here fills a star or plus entry, and they report what an
        equal model given no row tables reports."""
        made = []
        monkeypatch.setattr(models, "row_tables", lambda tables, n: made.append(n) or row_tables(tables, n))
        m = replace(model_of(U23))
        verify_model(m, ["x' ^ x = x ^ R00", "x ^ y = y ^ x | x = y"])
        assert made == [78] and not any(carrier_of(m).rows)
        laws = ["x ^ y = y ^ x", "x ^ y ^ z = x ^ (y ^ z)", "x ^ (y v z) = y"]
        assert all(map(takes_rows, laws))
        reports = verify_model(m, laws)
        assert made == [78] and any(carrier_of(m).rows)
        assert not (carrier_of(m).tables[2] or carrier_of(m).tables[3])
        first = replace(model_of(U23))  # an equal model, on its first call
        assert find_counterexample(first, laws[0]) is None
        assert any(carrier_of(first).rows)  # read by the two-variable law
        again = verify_model(m, [r.statement for r in reports])
        assert made == [78, 78]
        assert [r.to_json() for r in again] == [r.to_json() for r in reports]
        fresh = replace(model_of(U23))
        with monkeypatch.context() as without:
            without.setattr(models, "row_tables", lambda tables, n: None)
            assert [r.to_json() for r in reports] == [
                r.to_json() for r in verify_model(fresh, [r.statement for r in reports])]
        assert made == [78, 78] and carrier_of(fresh).rows is None

    @pytest.mark.parametrize("u", [U1, U2], ids=["u1", "u2"])
    def test_small_models_keep_whole_tuples(self, monkeypatch, u):
        """A model of at most 64 elements makes its tables and row tables
        once, at its first `verify_model` call, all whole, as tuples: its
        own meet, join and complement, every star and plus entry, and a row
        per element (`CR` and `CRV` one), `KR[v]` being n copies of `v`."""
        made = []
        monkeypatch.setattr(models, "row_tables", lambda tables, n: made.append(n) or row_tables(tables, n))
        m = replace(model_of(u))
        n = m.size
        verify_model(m, ["x' ^ x = x ^ R00"])
        kept = carrier_of(m)
        assert made == [n]
        assert kept.tables[0] is m.meet and kept.tables[1] is m.join and kept.tables[4] is m.comp
        assert all(type(t) is tuple for t in (*kept.tables, *kept.rows))
        assert [len(t) for t in kept.tables] == [n * n] * 4 + [n]
        assert [len(r) for r in kept.rows] == [1 if name in ("CR", "CRV") else n for name in ROW_NAMES]
        assert kept.rows[ROW_NAMES.index("KR")] == tuple(bytes((v,)) * n for v in range(n))
        verify_model(m, ["x ^ y = y ^ x", "x * (y + z) = (x * y) + z"])
        assert made == [n] and all(map(operator.is_, carrier_of(m), kept))


# Laws whose row loops read kept rows, with row tables (`kernel.row_tables`,
# in its order) a fresh kernel fills for them: value rows for the bare last
# variable under an operation or `'`, at the first level or, with three
# variables, the second; constant rows for a conclusion side without it.
ROW_NAMES = "MR JR SR PR MC JC SC PC CR KR MRV JRV SRV PRV MCV JCV SCV PCV CRV".split()
ROW_FORMS = {
    "x ^ y = y ^ x": {"MRV", "MCV"},
    "x v y = y v x": {"JRV", "JCV"},
    "x ^ (x v y) = x": {"JRV", "MR", "KR"},
    "x ^ y = x": {"MRV", "KR"},
    "x v y' = y' ^ x": {"CRV", "JR", "MC"},
    "x ^ (y ^ z) = (x ^ y) ^ z": {"MRV", "MR"},
    "x ^ (y v z) = (x ^ y) v (x ^ z)": {"JRV", "MR", "MRV"},
    "x * y = x + z": {"PRV", "KR"},
}


def takes_rows(statement):
    """Whether the nested loops of `statement` can walk its last variable by row."""
    code = compile_statement(parse_goal(statement) if isinstance(statement, str) else statement)
    return "MR" in code.run.__code__.co_varnames


TWO_VARIABLE_CATALOG = sorted({e.text for entries in suite_catalog().values() for e in entries
                               if len(free_variables(parse_statement(e.text))) == 2})
# Literals over the attribute `t` with value `a`, which U1, U2 and U23 all have.
LITS = [parse_statement(f"x = {text}").rhs for text in ("{(t=a)}", "full(t)", "empty(t)")]


def two_variable_statements(seed, count, literals):
    """`count` seeded random statements in exactly `x` and `y`: atoms,
    implications whose premises read `x` alone or both, and disjunctions,
    over `^ v * + @ '`, the constants and, if `literals`, `LITS`."""
    rng = random.Random(seed)
    x, y = Var("x"), Var("y")
    leaves = [x, y, *CONSTS, *(LITS if literals else [])]

    def term(depth, pool):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(pool)
        if rng.random() < 0.2:
            return Neg(term(depth - 1, pool))
        return Bin(rng.choice(BINARY_OPS), term(depth - 1, pool), term(depth - 1, pool))

    def atom(pool=leaves):
        return rng.choice([Eq, Ne, Lt])(term(2, pool), term(2, pool))

    out = []
    while len(out) < count:
        shape = rng.randrange(4)
        if shape == 0:
            statement = atom()
        elif shape == 1:  # a premise on the first variable only
            statement = Imp((atom([x, *leaves[2:]]),), atom())
        elif shape == 2:
            statement = Imp(tuple(atom() for _ in range(rng.randint(1, 2))), atom())
        else:
            statement = Or(tuple(atom() for _ in range(rng.randint(2, 3))))
        if free_variables(statement) == ("x", "y"):
            out.append(statement)
    return out


class TestTwoVariableRows:
    """The row loops of two-variable statements, and of the `ROW_FORMS`,
    against the scalar loops (`rows=None`): the same report, byte for byte,
    on kernels and models."""

    @pytest.mark.parametrize("u", [U1, U2, U23], ids=["u1", "u2", "2x3"])
    def test_kernels(self, u):
        statements = ([parse_goal(text) for text in [*TWO_VARIABLE_CATALOG, *ROW_FORMS]]
                      + two_variable_statements(23, 80, literals=True))
        shared = RelationKernel(u)

        def report(statement, k, rows):
            """The check on `k`'s own carrier, or, without rows, on one with its symmetry maps."""
            own = k._checker if rows else carrier(k.n, k.tables(), None, k.leaf,
                                                  carrier_of(k).maps[2:])
            return run_check(statement, own).to_json()

        read_rows = 0
        for statement in statements:
            fresh, scalar = RelationKernel(u), RelationKernel(u)
            assert report(statement, shared, shared.rows()) == report(statement, shared, None)
            assert report(statement, fresh, fresh.rows()) == report(statement, scalar, None)
            assert not any(scalar.rows())
            # A fresh kernel reads rows only for the statements that take them.
            read = any(fresh.rows())
            assert read <= takes_rows(statement), format_statement(statement)
            read_rows += read
        assert read_rows >= len(statements) // 2

    @pytest.mark.parametrize("u", [U1, U2, U23], ids=["u1", "u2", "2x3"])
    def test_models(self, monkeypatch, u):
        statements = ([parse_goal(text) for text in [*TWO_VARIABLE_CATALOG, *ROW_FORMS]]
                      + two_variable_statements(29, 80, literals=False))
        model = model_from_universe(u)
        first = [r.to_json() for r in verify_model(model, statements)]
        rows = carrier_of(model).rows
        if model.size ** 2 <= WHOLE_PAIRS:  # kept whole from the first call
            assert all(type(row) is tuple for row in rows)
        else:  # the first call fills the rows it walks two variables by
            assert any(rows)
        assert [r.to_json() for r in verify_model(model, statements)] == first
        scalar = replace(model)
        with monkeypatch.context() as without:
            without.setattr(models, "row_tables", lambda tables, n: None)
            for _ in range(2):
                assert [r.to_json() for r in verify_model(scalar, statements)] == first
        assert carrier_of(scalar).rows is None

    @pytest.mark.parametrize("u", [U1, U2, U23], ids=["u1", "u2", "2x3"])
    def test_kept_rows_filled(self, u):
        """A check on a fresh kernel fills the kept rows its law reads, and
        `x ^ y = x` (compared with the scalar loop in `test_kernels`) is
        refuted mid-row, on a constant row."""
        for text, names in ROW_FORMS.items():
            k = RelationKernel(u)
            rep = check(u, text, kernel=k)
            filled = {name for name, table in zip(ROW_NAMES, k.rows()) if table}
            assert names <= filled, (text, filled)
            if text == "x ^ y = x":
                assert rep.verdict is Verdict.REFUTED and rep.assignments_tested % k.n > 1


EMPTY = Universe.make({})  # two relations: empty() and {()}


def xs(lo, hi, op):
    return f" {op} ".join(f"x{i}" for i in range(lo, hi))


class TestManyVariables:
    """Beyond the loops given their own nesting level."""

    @pytest.mark.parametrize("text", [
        f"x0 = x1 & x19 < x20 -> {xs(0, 21, 'v')} = x0 v x20",
        f"({xs(1, 9, '^')}) v (x9 ^ x20) v ({xs(10, 20, '^')}) = x0",
    ])
    def test_21_variables_exhaustive(self, text):
        statement = parse_statement(text)
        assert len(free_variables(statement)) == 21
        assert check(EMPTY, statement).assignments_tested < 5000  # an early refutation
        assert_exhaustive_matches(EMPTY, statement, [None])

    def test_24_variables_capped_and_sampled(self):
        statement = parse_statement(f"x0 = x1 & x22 < x23 -> {xs(0, 24, '^')} = x0 ^ x23")
        assert len(free_variables(statement)) == 24
        assert_exhaustive_matches(EMPTY, statement, [1000])
        assert check(EMPTY, statement, Exhaustive(max_assignments=1000)).premise_satisfying > 0
        for seed in range(3):
            assert_sampled_matches(EMPTY, statement, seed, 200)

    @pytest.mark.parametrize("arity", range(25))
    def test_every_arity(self, arity):
        statement = parse_statement(f"{xs(0, arity, 'v')} = {xs(0, arity, '^')}"
                                    if arity else "R00 = R11")
        assert_exhaustive_matches(EMPTY, statement, [0, 1, 64] + [None] * (arity <= 10))
        assert_sampled_matches(EMPTY, statement, arity, 40)


# --- check and verify_model run the same code --------------------------------

@lru_cache(maxsize=None)
def model_of(u):
    return model_from_universe(u)


class TestCheckAgainstVerify:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_reports(self, data):
        u = data.draw(universes(max_space=4))  # up to 26 relations
        statement = data.draw(statements(u, with_literals=False))
        mode = Exhaustive(max_assignments=2000)
        con = check(u, statement, mode)
        tab = verify_model(model_of(u), [statement], mode)[0]
        assert con.verdict is tab.verdict
        assert con.assignments_tested == tab.assignments_tested
        assert con.premise_satisfying == tab.premise_satisfying
        rels = enumerate_relations(u)
        assert con.witness == (None if tab.witness is None else
                               {v: rels[e] for v, e in tab.witness.items()})


# Reports on u2: verdict, assignments tested, premise-satisfying count and
# witness codes.  Zero to three variables; a disjunction; `x ^ y = x`,
# refuted mid-row on a constant row; an implication whose premise reads
# its first variable alone; and one whose two-level reduced walk finds
# its witness mid-block.
U2_REPORTS = {
    "R00 ^ R11 != R00": (Verdict.HOLDS, 1, None, None),
    "x' v x = x v R11": (Verdict.HOLDS, 26, None, None),
    "x v R00 = R00 | x v R00 = R00'": (Verdict.HOLDS, 26, None, None),
    "x ^ y = y ^ x": (Verdict.HOLDS, 676, None, None),
    "x ^ y = x": (Verdict.REFUTED, 3, None, {"x": 0, "y": 2}),
    "x v R00 != x -> x ^ y' != R11": (Verdict.REFUTED, 137, 85, {"x": 5, "y": 6}),
    "x ^ z = R10 -> x ^ y != z v R11": (Verdict.REFUTED, 962, 442, {"x": 1, "z": 10, "y": 25}),
    "x ^ (y v z) = (x ^ y) v (x ^ z)": (Verdict.REFUTED, 2033, None, {"x": 3, "y": 0, "z": 4}),
    "x ^ y ^ z = x ^ (y ^ z)": (Verdict.HOLDS, 17576, None, None),
}


@pytest.mark.parametrize("text", U2_REPORTS)
def test_pinned_reports_on_u2(text):
    """`check` on u2, the scalar loop over its model's tables, and a fresh
    model's first and second `verify_model` each give the pinned report.
    The model's first call binds the statement.  On the 78-element model
    of the 2x3 universe, past the size rule, a first call fills the rows
    its loops take, those `ROW_FORMS` names among them."""
    statement = parse_goal(text)
    verdict, tested, premises, witness = U2_REPORTS[text]
    rels = enumerate_relations(U2)
    rep = check(U2, statement)
    assert (rep.verdict, rep.assignments_tested, rep.premise_satisfying, rep.witness) == (
        verdict, tested, premises, witness and {v: rels[c] for v, c in witness.items()})
    model = model_from_universe(U2)
    kept = carrier_of(model)
    scalar = run_check(statement, carrier(kept.n, kept.tables, None, kept.leaf))
    first, = verify_model(model, [text])
    assert list(map(id, kept.bound)) == [id(statement)]  # the text parsed again is that object
    second, = verify_model(model, [text])
    for got in (scalar, first, second):
        assert (got.verdict, got.assignments_tested, got.premise_satisfying, got.witness) == (
            verdict, tested, premises, witness), got
    assert second.to_json() == first.to_json()
    big = replace(model_of(U23))
    verify_model(big, [statement])
    rows = carrier_of(big).rows
    filled = {name for name, table in zip(ROW_NAMES, rows) if table}
    assert bool(filled) == takes_rows(statement) and ROW_FORMS.get(text, set()) <= filled
    # A kept constant row `KR[v]` is n copies of `v`: on u2 all 26, kept whole.
    KR = ROW_NAMES.index("KR")
    assert kept.rows[KR] == tuple(bytes((v,)) * 26 for v in range(26))
    assert all(row == bytes((v,)) * 78 for v, row in rows[KR].items())


# --- sampled draws -----------------------------------------------------------

class TestSampledDraws:
    @pytest.mark.parametrize("text, refuted", [
        ("x v y = R00 -> x = R00", True),  # refuted by 5 of 676 assignments on u2
        ("x < y & y < z -> x v z < y v z", False),
    ])
    def test_same_assignments_as_randrange(self, text, refuted):
        statement, seed, samples = parse_statement(text), 11, 1500
        assert_sampled_matches(U2, statement, seed, samples)
        rep = check(U2, statement, Sample(seed, samples))
        assert (rep.verdict is Verdict.REFUTED) == refuted
        assert rep.assignments_tested > 20  # the pinned sequence is long enough to mean something


# --- leaves are bound on every call ------------------------------------------

class TestLeavesPerCall:
    def test_literal_statement_on_two_universes(self):
        text = "x ^ R11 != full(t)"
        for _ in range(2):
            assert check(U1, text).verdict is Verdict.REFUTED
            assert check(U2, text).verdict is Verdict.HOLDS

    def test_invalid_literal_after_caching(self):
        assert check(U2, "x = {(s=1)}").verdict is Verdict.REFUTED
        with pytest.raises(RelationError):
            check(U1, "x = {(s=1)}")
        with pytest.raises(RelationError):
            check(U1, "x = {(s=1)}", Sample(seed=1, samples=3))

    def test_zero_variable_statements(self):
        for u in (U1, U2):
            rep = check(u, "R00 ^ R11 != R00")
            assert (rep.verdict, rep.assignments_tested, rep.witness) == (Verdict.HOLDS, 1, None)
            rep = check(u, "R00 ^ R11 != R00", Sample(seed=2, samples=5))
            assert (rep.verdict, rep.assignments_tested) == (Verdict.BUDGET_EXHAUSTED, 5)
            rep = check(u, "R00 ^ R11 = R00", Sample(seed=2, samples=5))
            assert (rep.verdict, rep.assignments_tested, rep.witness) == (Verdict.REFUTED, 1, {})
            rep = check(u, "R00 ^ R11 != R00", Exhaustive(max_assignments=0))
            assert (rep.verdict, rep.assignments_tested) == (Verdict.BUDGET_EXHAUSTED, 0)

    def test_exhaustive_budget(self):
        rep = check(U2, "x ^ y = y ^ x", Exhaustive(max_assignments=100))
        assert (rep.verdict, rep.assignments_tested) == (Verdict.BUDGET_EXHAUSTED, 100)
        rep = check(U2, "x ^ y = y ^ x", Exhaustive(max_assignments=676))
        assert (rep.verdict, rep.assignments_tested) == (Verdict.HOLDS, 676)

    def test_model_rejects_literal_after_caching(self):
        assert check(U1, "x v {(t=a)} = x").verdict is Verdict.REFUTED
        with pytest.raises(ModelError):
            verify_model(model_of(U1), ["x v {(t=a)} = x"])
