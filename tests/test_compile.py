"""Compiled statements against the relation-level evaluator.

`checker.compile_statement` turns a statement into straight-line code
over operation tables; `check` runs it on lazily filled kernel tables and
`verify_model` on a model's flat tables.  Here it is compared with
`checker.evaluate`, which applies the `rlattice.universe` functions
directly, and the two callers are compared with each other.
"""

import random
from functools import lru_cache
from itertools import product

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
    free_variables,
    leq,
    model_from_universe,
    parse_goal,
    parse_statement,
    verify_model,
)
from rlattice.checker import compile_statement
from rlattice.kernel import RelationKernel
from rlattice.terms import BINARY_OPS

U1 = Universe.make({"t": ("a", "b")})
U2 = Universe.make({"t": ("a", "b"), "s": ("1", "2")})


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
    outcome = code.bind(*k.tables(), k.n, *map(k.leaf, code.leaves))
    for env in assignments(u, statement, limit):
        expected = at_relations(u, statement, {v: rels[e] for v, e in zip(code.variables, env)})
        assert outcome(env) == expected, env


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


# --- sampled draws -----------------------------------------------------------

class TestSampledDraws:
    @pytest.mark.parametrize("text, refuted", [
        ("x v y = R00 -> x = R00", True),  # refuted by 5 of 676 assignments on u2
        ("x < y & y < z -> x v z < y v z", False),
    ])
    def test_same_assignments_as_randrange(self, rels2, text, refuted):
        statement, seed, samples = parse_statement(text), 11, 1500
        rep = check(U2, statement, Sample(seed, samples))
        rng = random.Random(seed)
        tested = premises = 0
        witness = None
        for _ in range(samples):
            env = {v: rels2[rng.randrange(len(rels2))] for v in free_variables(statement)}
            tested += 1
            counts, holds = at_relations(U2, statement, env)
            premises += counts
            if not holds:
                witness = env
                break
        assert (witness is not None) == refuted
        assert rep.verdict is (Verdict.REFUTED if refuted else Verdict.BUDGET_EXHAUSTED)
        assert rep.assignments_tested == tested
        assert rep.premise_satisfying == premises
        assert rep.witness == witness
        assert tested > 20  # the pinned sequence is long enough to mean something


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
