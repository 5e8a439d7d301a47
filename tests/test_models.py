"""Abstract models: the universe bridge, verification, files, and search."""

import copy
import gc
import inspect
import pickle
import random
import time
import tracemalloc
import weakref
from dataclasses import fields, replace
from itertools import chain, permutations, product
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlattice import (
    Bin,
    BridgeSizeError,
    Const,
    ConstantKind,
    Exhaustive,
    FiniteModel,
    ModelError,
    ModelSearchError,
    Neg,
    Sample,
    Universe,
    Var,
    Verdict,
    check,
    find_counterexample,
    format_model,
    free_variables,
    minimal_axioms,
    model_from_universe,
    parse_goal,
    parse_model,
    parse_statement,
    parse_statement_file,
    pretty_model,
    refutes,
    search_model,
    suite_catalog,
    verify_model,
)
from rlattice import models
from rlattice.kernel import WHOLE_PAIRS, RelationKernel
from rlattice.checker import compile_statement, enumerate_relations, evaluate
from rlattice.models import _model_tables
from rlattice.terms import BINARY_OPS, Eq, sides

from conftest import carrier_of

DISTRIBUTIVITY = "x ^ (y v z) = (x ^ y) v (x ^ z)"
ASSOCIATIVITY = "x ^ (y ^ z) = (x ^ y) ^ z"
ZERO_ARY_GOAL = "x v R00 = R00 | x v R00 = R00'"

# The canonical six-element countermodel tables, frozen from the universe
# bridge followed by the element relabeling below; the bridge is the
# authoritative oracle for them.
MEET6 = (
    (0, 4, 4, 0, 4, 4),
    (4, 1, 2, 1, 4, 5),
    (4, 2, 2, 2, 4, 4),
    (0, 1, 2, 3, 4, 5),
    (4, 4, 4, 4, 4, 4),
    (4, 5, 4, 5, 4, 5),
)
JOIN6 = (
    (0, 3, 3, 3, 0, 3),
    (3, 1, 1, 3, 1, 1),
    (3, 1, 2, 3, 2, 1),
    (3, 3, 3, 3, 3, 3),
    (0, 1, 2, 3, 4, 5),
    (3, 1, 1, 3, 5, 5),
)
COMP6 = (3, 4, 5, 0, 1, 2)

# enumeration index -> reference element label
RELABEL6 = (0, 3, 4, 5, 2, 1)


def flat(rows):
    """A table written as rows, in `FiniteModel`'s layout: entry `a * n + b`."""
    return tuple(chain.from_iterable(rows))


@pytest.fixture(scope="module")
def m6(u1):
    return model_from_universe(u1)


class TestModelValidation:
    def test_table_shape(self):
        with pytest.raises(ModelError):
            FiniteModel(2, (0,), (0, 1, 1, 1), (1, 0), 0, 1)

    # A table one entry short or one entry long is refused, whichever it is.
    @pytest.mark.parametrize("field", ["meet", "join"])
    @pytest.mark.parametrize("length", [8, 10])
    def test_table_length(self, field, length):
        tables = {"meet": (0, 0, 0, 0, 1, 1, 0, 1, 2), "join": (0, 1, 2, 1, 1, 2, 2, 2, 2)}
        FiniteModel(3, tables["meet"], tables["join"], (2, 1, 0), 0, 2)
        tables[field] = (tables[field] + (0,))[:length]
        with pytest.raises(ModelError, match=f"{field} table must be 3x3"):
            FiniteModel(3, tables["meet"], tables["join"], (2, 1, 0), 0, 2)

    def test_entry_range(self):
        with pytest.raises(ModelError):
            FiniteModel(2, (0, 2, 0, 1), (0, 1, 1, 1), (1, 0), 0, 1)

    def test_constant_range(self):
        with pytest.raises(ModelError):
            FiniteModel(2, (0, 0, 0, 1), (0, 1, 1, 1), (1, 0), 0, 5)

    # One wrong entry in an otherwise valid model, each a case the
    # validation must see: the last cell of a table, and each side of the
    # carrier's range.
    @pytest.mark.parametrize("field, cell, value", [
        ("meet", (2, 2), 3),
        ("join", (2, 2), 3),
        ("meet", (1, 0), -1),
        ("join", (0, 1), -1),
        ("comp", 1, 3),
        ("comp", 2, -1),
    ], ids=["meet-last-cell", "join-last-cell", "meet-negative", "join-negative",
            "comp-n", "comp-negative"])
    def test_one_bad_entry(self, field, cell, value):
        # The three-element chain 0 < 1 < 2, then one entry changed.
        tables = {"meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                  "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]]}
        comp = [2, 1, 0]

        def model():
            return FiniteModel(3, flat(tables["meet"]), flat(tables["join"]), tuple(comp), 0, 2)

        model()
        if field == "comp":
            comp[cell] = value
        else:
            tables[field][cell[0]][cell[1]] = value
        with pytest.raises(ModelError):
            model()


class TestBridge:
    def test_six_element_tables(self, m6):
        relabeled = m6.relabel(RELABEL6)
        assert relabeled.meet == flat(MEET6)
        assert relabeled.join == flat(JOIN6)
        assert relabeled.comp == COMP6
        assert relabeled.r00 == 0
        assert relabeled.r11 == 1
        assert relabeled.meet[5 * 6 + 2] == 4  # singleton ^ other singleton = empty

    def test_derived_constants(self, m6):
        relabeled = m6.relabel(RELABEL6)
        assert relabeled.r10 == 4
        assert relabeled.r01 == 3

    def test_twelve_axioms_hold(self, m6):
        for rep in verify_model(m6, minimal_axioms()):
            assert rep.verdict is Verdict.HOLDS, rep.statement

    def test_distributivity_refuted(self, m6):
        rep = verify_model(m6, ["x ^ (y v z) = (x ^ y) v (x ^ z)"])[0]
        assert rep.verdict is Verdict.REFUTED

    def test_zero_attribute_universe_chain(self):
        m0 = model_from_universe(Universe.make({}))
        assert m0.size == 2
        assert m0.meet[m0.r00 * m0.size + m0.r01] == m0.r00  # R00 below R01

    def test_u2_model_satisfies_axioms(self, u2):
        m = model_from_universe(u2)
        assert m.size == 26
        for rep in verify_model(m, minimal_axioms()):
            assert rep.verdict is Verdict.HOLDS, rep.statement

    def test_pair_limit_refused_before_filling(self):
        # 66,674 relations: 4.4 G entries per table.
        u = Universe.make({name: ("0", "1") for name in "abcd"})
        start = time.perf_counter()
        with pytest.raises(BridgeSizeError, match="66674 relations"):
            model_from_universe(u)
        assert time.perf_counter() - start < 1.0
        # A 3x3 universe, 530 relations, still bridges.
        assert model_from_universe(Universe.make({"a": "012", "b": "xyz"})).size == 530

    def test_verdicts_match_concrete_checks(self, u1, m6):
        for text in ["x ^ y = y ^ x", "x ^ (y v z) = (x ^ y) v (x ^ z)",
                     "x + (x * y) = x", "x * (x + y) = x"]:
            assert verify_model(m6, [text])[0].verdict == check(u1, text).verdict


def eager_star_plus(m):
    """Every star and plus entry, derived up front from the definitions."""
    n, r00, r11, M, J = m.size, m.r00, m.r11, m.meet, m.join
    rows = range(0, n * n, n)  # a * n for every element a
    S = tuple(M[J[an + M[bn + r00]] * n + J[bn + M[an + r00]]] for an in rows for bn in rows)
    P = tuple(J[M[an + J[bn + r11]] * n + M[bn + J[an + r11]]] for an in rows for bn in rows)
    return S, P


@st.composite
def arbitrary_models(draw):
    """Tables with arbitrary entries: mostly not lattices at all."""
    n = draw(st.integers(1, 5))
    element = st.integers(0, n - 1)
    table = st.lists(element, min_size=n * n, max_size=n * n).map(tuple)
    return FiniteModel(n, draw(table), draw(table),
                       tuple(draw(st.lists(element, min_size=n, max_size=n))),
                       draw(element), draw(element))


class TestModelTables:
    """Star and plus are filled on first read; every entry must be what the
    eager derivation gives, and what the kernel computes on codes."""

    def assert_lazy_matches_eager(self, m):
        M, J, S, P, C = _model_tables(m)
        assert len(S) == len(P) == 0  # nothing derived before a read
        keys = range(m.size * m.size)
        assert M is m.meet and J is m.join and C is m.comp  # the model's own tables, no copies
        # Read backwards: an entry must not depend on which entries were read before it.
        assert ([S[i] for i in reversed(keys)][::-1],
                [P[i] for i in reversed(keys)][::-1]) == tuple(map(list, eager_star_plus(m)))

    def test_six_element_model(self, m6):
        self.assert_lazy_matches_eager(m6)
        self.assert_lazy_matches_eager(m6.relabel(RELABEL6))

    @settings(max_examples=100, deadline=None)
    @given(arbitrary_models())
    def test_arbitrary_models(self, m):
        self.assert_lazy_matches_eager(m)

    @pytest.mark.parametrize("domains", [{"t": "ab", "s": "12"}, {"t": "ab", "s": "123"}])
    def test_bridged_models_against_kernel(self, domains):
        u = Universe.make(domains)
        k, m = RelationKernel(u), model_from_universe(u)
        _, _, S, P, _ = _model_tables(m)
        _, _, star, plus, _ = k.tables()
        n = m.size
        for a in range(n):
            for b in range(n):
                assert S[a * n + b] == star[a * n + b], (a, b)
                assert P[a * n + b] == plus[a * n + b], (a, b)
        assert len(S) == len(P) == n * n


class TestKeptTables:
    """What `verify_model` keeps with a model is not part of its value."""

    LAWS = ["x ^ y = y ^ x", "x * (y + z) = (x * y) + z", "x + R10 = R10 + x"]

    def test_verified_as_unverified(self, m6, monkeypatch):
        verified, plain, scalar = replace(m6), replace(m6), replace(m6)
        first = [r.to_json() for r in verify_model(verified, self.LAWS)]
        # The first call fills star entries, and meet rows for `x ^ y = y ^ x` alone,
        # and binds each law.
        kept = carrier_of(verified)
        assert kept.rows[0] and len(kept.tables[2]) > 0
        assert len(kept.bound) == len(self.LAWS)
        with monkeypatch.context() as without:
            without.setattr(models, "row_tables", lambda tables, n: None)
            assert [r.to_json() for r in verify_model(scalar, self.LAWS)] == first
        assert verified == plain and hash(verified) == hash(plain)
        assert repr(verified) == repr(plain)
        assert pickle.dumps(verified) == pickle.dumps(plain)
        field_names = {f.name for f in fields(FiniteModel)}
        for kept in (pickle.loads(pickle.dumps(verified)), copy.copy(verified),
                     copy.deepcopy(verified)):
            assert kept == verified and set(vars(kept)) == field_names
        assert [r.to_json() for r in verify_model(verified, self.LAWS)] == first
        assert [r.to_json() for r in verify_model(plain, self.LAWS)] == first

    def test_texts_report_as_parsed(self, m6):
        """Texts, parsed on each call, give the reports of parsed statements,
        on a model's first call and on later ones."""
        texts = [*self.LAWS, "x' ^ x = x ^ R00", "x v R00 = R00 | x v R00 = R00'",
                 "x ^ (y v z) = (x ^ y) v (x ^ z)", "x = R00 -> x ^ y = y"]
        parsed = [parse_goal(text) for text in texts]
        want = [r.to_json() for r in verify_model(replace(m6), parsed)]
        model = replace(m6)
        for _ in range(2):
            assert [r.to_json() for r in verify_model(model, texts)] == want
            assert [r.to_json() for r in verify_model(model, parsed)] == want

    def test_relabel_shares_no_kept_table(self, m6):
        verified = replace(m6)
        verify_model(verified, self.LAWS)
        relabeled = verified.relabel(range(6))
        assert relabeled == verified
        assert set(vars(relabeled)) == {f.name for f in fields(FiniteModel)}
        verify_model(relabeled, self.LAWS)
        kept = lambda m: {id(t) for t in (*carrier_of(m).tables, *carrier_of(m).rows)}  # noqa: E731
        assert not kept(verified) & kept(relabeled)

    def test_kept_tables_hold_no_model(self, m6):
        """The kept tables and bound checks refer to no model, so dropping
        one frees it at once."""
        model = replace(m6)
        verify_model(model, self.LAWS)
        assert carrier_of(model).bound
        gone = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert gone() is None
        finally:
            gc.enable()


# The literal-free catalog statements; a model refuses relation literals.
LITERAL_FREE = sorted({e.text for entries in suite_catalog().values() for e in entries
                       if "{" not in e.text})
# Most assignments `assert_bound_as_fresh` walks uncapped: three variables on
# the 78-element model of the 2x3 universe.
UNCAPPED_MOST = 78 ** 3


def untimed(report):
    return replace(report, elapsed_ms=0.0)


def assert_bound_as_fresh(model, texts):
    """On `model`, each statement's first check, its bound repeat, a capped
    and a sampled check report, in every field but `elapsed_ms`, what an
    equal fresh model reports on its first check in the same mode.  The
    two uncapped checks are made where they walk at most `UNCAPPED_MOST`
    assignments; the first of the others is then the first call."""
    for text in texts:
        statement = parse_goal(text)
        uncapped = model.size ** len(free_variables(statement)) <= UNCAPPED_MOST
        for mode in [*[Exhaustive()] * (2 * uncapped), Exhaustive(max_assignments=40),
                     Sample(20110604, 500)]:
            got, = verify_model(model, [statement], mode)
            want, = verify_model(replace(model), [statement], mode)
            assert untimed(got) == untimed(want), (text, mode)
        assert statement in carrier_of(model).bound


class TestBoundChecks:
    """A model binds each statement's check once, at its first call, and
    every later call in any mode reports what a fresh model reports."""

    @pytest.mark.parametrize("domains", [{"t": "ab"}, {"t": "ab", "s": "12"},
                                         {"t": "ab", "s": "123"}], ids=["u1", "u2", "2x3"])
    def test_bridged_models(self, domains):
        assert_bound_as_fresh(model_from_universe(Universe.make(domains)), LITERAL_FREE)

    def test_literal_refused_on_every_call(self, m6):
        model = replace(m6)
        statement = parse_statement("x ^ {(t=a)} = x")
        for _ in range(2):
            with pytest.raises(ModelError):
                verify_model(model, [statement])
            assert statement not in carrier_of(model).bound

    def test_bound_under_the_goal_readers_object(self, m6):
        """A model verified with `parse_statement` objects keeps them as the
        very objects `parse_goal` returns for the same texts."""
        texts = ["R00 ^ R11 != R00", "x' v x = x v R11", "x ^ z = R10 -> x ^ y != z v R11"]
        model = replace(m6)
        verify_model(model, [parse_statement(text) for text in texts])
        assert [id(s) for s in carrier_of(model).bound] == [id(parse_goal(text)) for text in texts]

    def test_second_call_compiles_nothing(self, m6):
        """A second call on more statements than `compile_statement` keeps
        neither misses nor probes its cache."""
        statements = [parse_statement(f"x{chr(39) * a} v R00 = x{chr(39) * b} ^ R11")
                      for a in range(20) for b in range(15)]
        assert len(set(statements)) == 300 > compile_statement.cache_info().maxsize
        model = replace(m6)
        first = verify_model(model, statements)
        before = compile_statement.cache_info()
        second = verify_model(model, statements)
        assert compile_statement.cache_info() == before
        assert list(map(untimed, second)) == list(map(untimed, first))


# Each of `LITERAL_FREE` of at most three variables.
UP_TO_THREE = [s for s in map(parse_goal, LITERAL_FREE) if len(free_variables(s)) <= 3]


def random_model(size, seed):
    """A valid model of `size` elements: seeded random tables and constants."""
    rng = random.Random(seed)
    entries = lambda count: tuple(rng.randrange(size) for _ in range(count))  # noqa: E731
    return FiniteModel(size, entries(size * size), entries(size * size), entries(size), *entries(2))


class TestLayouts:
    """A model of at most 64 elements (`size * size <= WHOLE_PAIRS`) keeps
    its star, plus and row tables whole, as tuples, star and plus as the
    eager derivation gives them; a larger one keeps them filling on use.
    Either way every literal-free catalog statement of at most three
    variables reports, byte for byte, what an equal model given no row
    tables (the scalar loops) reports."""

    def assert_as_scalar(self, monkeypatch, model):
        got = [r.to_json() for r in verify_model(model, UP_TO_THREE)]
        kept = carrier_of(model)
        whole = model.size ** 2 <= WHOLE_PAIRS
        assert {type(t) is tuple for t in (kept.tables[2], kept.tables[3], *kept.rows)} == {whole}
        if whole:
            assert kept.tables[2:4] == eager_star_plus(model)
        scalar = replace(model)
        with monkeypatch.context() as without:
            without.setattr(models, "row_tables", lambda tables, n: None)
            assert [r.to_json() for r in verify_model(scalar, UP_TO_THREE)] == got
        assert carrier_of(scalar).rows is None

    @pytest.mark.parametrize("size", [64, 65])
    def test_random_models(self, monkeypatch, size):
        self.assert_as_scalar(monkeypatch, random_model(size, size))

    @pytest.mark.parametrize("goal, extra, size", [
        (ZERO_ARY_GOAL, [], 4), (DISTRIBUTIVITY, [], 6),
        (ZERO_ARY_GOAL, ["R00 ^ R11 != R00"], 8)], ids=["zero", "dist", "constrained"])
    def test_criterion_8_models(self, monkeypatch, m6, goal, extra, size):
        """The countermodels of `test_criterion_08_model_search`, each
        searched at its own size only; the six-element one is the bridge
        of u1 relabeled (`test_criterion_02_six_element_model_reproduction`)."""
        model = (m6.relabel(RELABEL6) if size == 6
                 else search_model(minimal_axioms() + extra, [goal], [size]).model)
        assert model.size == size
        self.assert_as_scalar(monkeypatch, model)


def test_verify_model_copies_no_table():
    """`verify_model` reads the model's own meet and join: on the 318-element
    model, whose tables are 101,124 entries each, the laws of the `scale`
    benchmark workload allocate less than one copy of one table in the
    call that makes the model's tables and binds each law."""
    u = Universe.make({"a": "01", "b": "01", "c": "01"})
    m = model_from_universe(u)
    laws = {"x ^ (x v y) = x"}
    for entries in suite_catalog().values():
        for e in entries:
            nvars = len(free_variables(parse_statement(e.text)))
            if nvars <= 1 or (nvars == 2 and e.expected is Verdict.REFUTED):
                laws.add(e.text)
    statements = [parse_statement(text) for text in sorted(laws)]
    assert len(statements) == 26
    verify_model(replace(m), statements)  # compiles and caches every statement
    tracemalloc.start()
    try:
        reports = verify_model(m, statements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 26
    assert peak < 1 << 20
    # The bindings share one identity map, a `range`, not a list of 318 codes each.
    kept = [run.args for _, run in carrier_of(m).bound.values()]
    assert len(kept) == 26 and len({(id(a[6]), id(a[7])) for a in kept}) == 1
    assert type(kept[0][6]) is range


class TestFindCounterexample:
    def test_distributivity_witness(self, m6):
        got = find_counterexample(m6, "x ^ (y v z) = (x ^ y) v (x ^ z)")
        assert got == {"x": 3, "y": 0, "z": 4}
        # re-evaluate through the tables
        meet = lambda a, b: m6.meet[a * 6 + b]
        join = lambda a, b: m6.join[a * 6 + b]
        lhs = meet(3, join(0, 4))
        rhs = join(meet(3, 0), meet(3, 4))
        assert lhs != rhs

    def test_broken_absorption_witness(self, m6):
        got = find_counterexample(m6, "x + (x * y) = x")
        assert got == {"x": 3, "y": 1}

    def test_none_for_theorems(self, m6):
        assert find_counterexample(m6, "x ^ y = y ^ x") is None


class TestModelOps:
    def test_literals_rejected(self, m6):
        with pytest.raises(ModelError, match="^relation literals have no interpretation in an "
                                             "abstract model$"):
            verify_model(m6, ["x = {(t=a)}"])

    def test_derived_operations_used(self, m6):
        for text in ["x * y = (x v (y ^ R00)) ^ (y v (x ^ R00))",
                     "x + y = (x ^ (y v R11)) v (y ^ (x v R11))",
                     "x @ y = y @ x",
                     "x ^ R10 = R10", "x v R01 = R01"]:
            assert verify_model(m6, [text])[0].verdict is Verdict.HOLDS, text


class TestModelFiles:
    def test_roundtrip(self, m6):
        assert parse_model(format_model(m6)) == m6

    def test_comments_tolerated(self, m6):
        text = "# a model\n" + format_model(m6)
        assert parse_model(text) == m6

    def test_truncation_detected(self, m6):
        text = format_model(m6).rsplit("\n", 3)[0]
        with pytest.raises(ModelError):
            parse_model(text)

    @pytest.mark.parametrize("old, new, message", [
        ("join:", "joins:", "expected 'join:', found 'joins:'"),  # a wrong section word
        ("complement:\n", "complement:\nx ", "expected an integer, found 'x'")])
    def test_bad_token_named(self, m6, old, new, message):
        with pytest.raises(ModelError) as err:
            parse_model(format_model(m6).replace(old, new))
        assert str(err.value) == message

    def test_trailing_garbage_detected(self, m6):
        with pytest.raises(ModelError):
            parse_model(format_model(m6) + "\n7 7 7\n")

    @pytest.mark.parametrize("size", [0, -1])
    def test_empty_carrier_rejected(self, size):
        text = f"size {size}\nmeet:\njoin:\ncomplement:\n\nR00 = 0\nR11 = 0\n"
        with pytest.raises(ModelError, match="carrier must be nonempty"):
            parse_model(text)

    @pytest.mark.parametrize("domains", [{}, {"t": "ab"}, {"t": "ab", "s": "12"},
                                         {"t": "ab", "s": "123"}])
    def test_roundtrip_bridged(self, domains):
        m = model_from_universe(Universe.make(domains))
        assert parse_model(format_model(m)) == m

    # The second search finds a meet table that is not symmetric.
    @pytest.mark.parametrize("axioms, goal, sizes", [(minimal_axioms(), ZERO_ARY_GOAL, range(2, 5)),
                                                     ([], "x ^ y = y ^ x", [2])])
    def test_roundtrip_found(self, axioms, goal, sizes):
        m = search_model(axioms, [goal], sizes).model
        assert parse_model(format_model(m)) == m

    @settings(max_examples=100, deadline=None)
    @given(arbitrary_models())
    def test_roundtrip_drawn(self, m):
        assert parse_model(format_model(m)) == m

    def test_rows_of_the_flat_tables(self, m6):
        # Row a of the text is entries a * n to a * n + n - 1 of the table.
        lines = format_model(m6.relabel(RELABEL6)).splitlines()
        assert lines[2:8] == [" ".join(map(str, row)) for row in MEET6]
        assert lines[9:15] == [" ".join(map(str, row)) for row in JOIN6]

    def test_readme_example_is_u1s_model(self, m6):
        """The model file printed under README's "Model files"."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Model files", 1)[1].split("```\n", 2)[1]
        assert block == format_model(m6)

    def test_pretty_output_mentions_constants(self, m6):
        text = pretty_model(m6)
        assert "R00 = 0" in text
        assert "R11 = 5" in text


class TestRelabel:
    def test_identity(self, m6):
        assert m6.relabel(range(6)) == m6

    def test_inverse_composition(self, m6):
        perm = RELABEL6
        inv = [0] * 6
        for old, new in enumerate(perm):
            inv[new] = old
        assert m6.relabel(perm).relabel(inv) == m6

    def test_rejects_non_permutation(self, m6):
        with pytest.raises(ModelError):
            m6.relabel((0, 0, 1, 2, 3, 4))

    # Lattice tables are symmetric; arbitrary ones also show a transposed relabeling.
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_relabel_moves_every_entry(self, data):
        m = data.draw(arbitrary_models())
        n = m.size
        perm = data.draw(st.permutations(range(n)))
        r = m.relabel(perm)
        for a in range(n):
            assert r.comp[perm[a]] == perm[m.comp[a]]
            for b in range(n):
                assert r.meet[perm[a] * n + perm[b]] == perm[m.meet[a * n + b]]
                assert r.join[perm[a] * n + perm[b]] == perm[m.join[a * n + b]]
        assert (r.r00, r.r11) == (perm[m.r00], perm[m.r11])


class TestSearch:
    def test_small_exclusions(self):
        out = search_model(minimal_axioms(), ["x ^ (y v z) = (x ^ y) v (x ^ z)"],
                           range(2, 4))
        assert not out.found
        assert out.sizes_excluded == (2, 3)

    def test_trivial_search_finds_model(self):
        out = search_model(["x ^ y = y ^ x"], ["x = y"], [2])
        assert out.found and out.size == 2
        assert refutes(out.model, "x = y")

    def test_symmetry_flag_preserves_outcomes(self):
        goals = ["x ^ (y v z) = (x ^ y) v (x ^ z)"]
        fast = search_model(minimal_axioms(), goals, range(2, 4), symmetry=True)
        slow = search_model(minimal_axioms(), goals, range(2, 4), symmetry=False)
        assert fast.sizes_excluded == slow.sizes_excluded
        assert fast.found == slow.found

    def test_sizes_must_ascend(self):
        with pytest.raises(ModelSearchError):
            search_model(["x = x"], [], [3, 2])

    @pytest.mark.parametrize("sizes", [[0], [-1], [0, 2], range(-2, 3)])
    def test_sizes_below_one_refused(self, sizes):
        with pytest.raises(ModelSearchError, match="sizes must be at least 1 and ascending"):
            search_model([], ["x = y"], sizes)

    @pytest.mark.parametrize("sizes", [[1001], range(999, 1002)])
    def test_sizes_past_pair_limit_refused(self, sizes, monkeypatch):
        """Refused before any size's cells are built, those of 999 and 1,000 too."""
        monkeypatch.setattr(models, "_SizeSearch", None)
        with pytest.raises(ModelSearchError, match="size 1001 is refused"):
            search_model([], ["x = y"], sizes)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0, -1e-9])
    def test_nan_or_negative_budget_refused(self, budget):
        with pytest.raises(ModelSearchError, match="budget must be at least 0"):
            search_model([], ["x = y"], [2], budget=budget)

    def test_axioms_must_be_atomic(self):
        with pytest.raises(ModelSearchError):
            search_model(["x = y -> y = x"], [], [2])

    def test_literals_rejected(self):
        with pytest.raises(ModelSearchError):
            search_model(["x ^ {(t=a)} = x"], [], [2])

    def test_disjunctive_axiom_rejected_from_string_or_file(self):
        axiom = "x v R00 = R00 | x v R00 = R00'"
        with pytest.raises(ModelSearchError, match="axioms must be equations") as from_string:
            search_model([axiom], [], [2])
        with pytest.raises(ModelSearchError) as from_file:
            search_model(parse_statement_file(axiom + "\n"), [], [2])
        assert str(from_string.value) == str(from_file.value)

    def test_budget_exhaustion(self):
        out = search_model(minimal_axioms(), ["x ^ (y v z) = (x ^ y) v (x ^ z)"],
                           range(2, 7), budget=0.0)
        assert out.budget_exhausted
        assert not out.found

    def test_budget_holds_while_grounding_and_searching(self):
        # The deadline holds in grounding too: at size 16, grounding the twelve
        # axioms takes about 0.36 s on a 2-vCPU VM, before the first node.
        start = time.perf_counter()
        out = search_model(minimal_axioms(), [DISTRIBUTIVITY], [16], budget=0.3)
        assert time.perf_counter() - start < 0.8
        assert out.budget_exhausted and not out.found and out.sizes_excluded == ()

    def test_budget_holds_while_cells_are_built(self):
        # Size 1,000 has about 2 million cells.  Construction builds their
        # value, forbidden-value and argument lists before the deadline is
        # first read, about 0.1 s, and no watch set: `models` reads the
        # deadline while it lays out the branch order and grounds.
        for budget in (0, 0.2):
            start = time.perf_counter()
            out = search_model(minimal_axioms(), [ZERO_ARY_GOAL], [1000], budget=budget)
            assert time.perf_counter() - start < 1.0
            assert out.budget_exhausted and out.nodes == 0 and out.sizes_excluded == ()

    def test_construction_builds_no_watch_set(self):
        search = models._SizeSearch(1000, [], [], True)
        assert "deadline" not in inspect.signature(models._SizeSearch).parameters
        assert not search.watch and len(search.val) == 2 + 1000 + 2 * 1000 ** 2

    def test_watch_holds_only_read_cells(self):
        axioms = list(map(parse_statement, minimal_axioms()))
        search = models._SizeSearch(4, axioms, [parse_goal(ZERO_ARY_GOAL)], True)
        assert next(search.models(None)).size == 4
        assert search.watch
        assert all(0 <= cell < len(search.val) and readers
                   for cell, readers in search.watch.items())

    @pytest.fixture
    def clock(self):
        """A clock for the search that advances one second per reading."""
        ticks = iter(range(10 ** 6))
        fake = SimpleNamespace(monotonic=lambda: float(next(ticks)))
        with mock.patch.object(models, "time", fake):
            yield

    @staticmethod
    def counted(name):
        """Patch `_SizeSearch.<name>` to count its calls in the returned list."""
        calls, real = [], getattr(models._SizeSearch, name)

        def spy(self, *args):
            calls.append(None)
            return real(self, *args)
        return calls, mock.patch.object(models._SizeSearch, name, spy)

    def test_deadline_inside_one_atom(self, clock):
        # Read at the start (0), then every 1,024 instances of the 4,096:
        # the third reading, 3, is past the deadline of 2.5.
        added, spy = self.counted("_add_instance")
        with spy:
            out = search_model([ASSOCIATIVITY], [], [16], budget=2.5)
        assert out.budget_exhausted and out.sizes_excluded == ()
        assert len(added) == 3 * models._DEADLINE_EVERY

    def test_deadline_inside_the_first_pass(self, clock):
        search = models._SizeSearch(16, [parse_statement(ASSOCIATIVITY)], [], symmetry=True)
        checked, spy = self.counted("_check_instance")
        with spy, pytest.raises(models._Timeout):
            # Grounding reads 0-4 (after instances 1,024 to 4,096 and after
            # the atom); the first pass reads 5 and 6 (before instances 0
            # and 1,024), then 7, which is 1.5 past the grounding's readings.
            next(search.models(5 + 1.5))
        assert len(checked) == 2 * models._DEADLINE_EVERY < len(search.instances)

    def test_unsatisfiable_axiom(self):
        out = search_model(["x != x"], [], [2, 3])
        assert not out.found and out.sizes_excluded == (2, 3)

    def test_disjunctive_goal(self):
        out = search_model(minimal_axioms(), ["x v R00 = R00 | x v R00 = R00'"],
                           range(2, 5))
        assert out.found and out.size == 4
        assert refutes(out.model, "x v R00 = R00 | x v R00 = R00'")
        assert verify_model(out.model, [ZERO_ARY_GOAL])[0].verdict is Verdict.REFUTED

    def test_implication_goal(self):
        # refute transitivity-of-equality premise chain: impossible, so exhaust
        out = search_model(["x ^ y = y ^ x"], ["x = y -> x = y"], [2])
        assert not out.found

    # Goals through the derived operators: outcomes and node counts as
    # when `*`, `+`, `@`, `R10` and `R01` were unfolded before grounding.
    @pytest.mark.parametrize("goal, sizes, size, excluded, nodes", [
        ("x @ x = x v R11", range(2, 4), None, (2, 3), 56),
        ("x @ y = y @ x", range(2, 4), None, (2, 3), 173),
        ("x * R00 = R00", range(2, 5), None, (2, 3, 4), 99),
        ("x + R10 = x", range(2, 5), 2, (), 16),
        ("x * R01 = x", range(2, 5), 2, (), 19),
    ])
    def test_derived_operator_node_counts(self, goal, sizes, size, excluded, nodes):
        out = search_model(minimal_axioms(), [goal], sizes)
        assert (out.size, out.sizes_excluded, out.nodes) == (size, excluded, nodes)

    def test_definition_as_goal_is_searched(self):
        # The sides differ until `*` is unfolded, so the search, not the
        # grounding, excludes each size.
        out = search_model(minimal_axioms(), ["x * y = (x v (y ^ R00)) ^ (y v (x ^ R00))"],
                           range(2, 4))
        assert (out.found, out.sizes_excluded) == (False, (2, 3))


def all_models(size, axioms, symmetry):
    """Every model that one search at `size` yields, in order."""
    return list(models._SizeSearch(size, axioms, [], symmetry).models(None))


class TestModelsLoop:
    """`_SizeSearch.models` yields every model the search completes."""

    def test_matches_brute_force_at_size_two(self):
        axioms = [parse_statement(a) for a in minimal_axioms()]
        flat_tables = list(product(range(2), repeat=4))
        every = [FiniteModel(2, *parts) for parts in product(
            flat_tables, flat_tables, product(range(2), repeat=2), range(2), range(2))]
        brute = [m for m in every
                 if all(r.verdict is Verdict.HOLDS for r in verify_model(m, axioms))]
        assert len(every) == 4096
        got = all_models(2, axioms, symmetry=False)
        assert len(got) == len(set(got)) == 4 and set(got) == set(brute)

    @pytest.mark.parametrize("size, reduced, labelled", [(2, 2, 4), (3, 1, 6)])
    def test_symmetry_yields_every_model_up_to_relabelling(self, size, reduced, labelled):
        axioms = [parse_statement(a) for a in minimal_axioms()]
        canonical = all_models(size, axioms, symmetry=True)
        every = all_models(size, axioms, symmetry=False)
        assert (len(canonical), len(every), len(set(every))) == (reduced, labelled, labelled)
        assert {m.relabel(p) for m in canonical for p in permutations(range(size))} == set(every)

    @pytest.mark.parametrize("size, nodes", [(22, 994), (25, 1279)])
    def test_no_depth_limit(self, size, nodes):
        # One open branch per assigned cell: a recursive search stopped at
        # Python's recursion limit from size 22.
        out = search_model([], ["x = y"], [size])
        assert (out.found, out.size, out.nodes) == (True, size, nodes)
        assert refutes(out.model, "x = y")


def plus_chain(operands):
    """`x + x + ... + x` with `operands` operands."""
    return " + ".join(["x"] * operands)


def operator_count(t):
    if isinstance(t, Neg):
        return 1 + operator_count(t.item)
    if isinstance(t, Bin):
        return 1 + operator_count(t.left) + operator_count(t.right)
    return 0


search_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), *(Const(kind) for kind in ConstantKind)]),
    lambda sub: st.one_of(st.builds(Neg, sub), st.builds(Bin, st.sampled_from(BINARY_OPS), sub, sub)),
    max_leaves=8,
).filter(lambda t: operator_count(t) <= 10)


def unfolded(t):
    """`t` with `*`, `+`, `@`, `R10` and `R01` replaced by their definitions
    in `^`, `v`, `R00` and `R11`, each operand copied as often as it is read."""
    r00, r11 = Const(ConstantKind.R00), Const(ConstantKind.R11)
    if isinstance(t, Const):
        return {ConstantKind.R10: Bin("^", r11, r00),
                ConstantKind.R01: Bin("v", r11, r00)}.get(t.kind, t)
    if isinstance(t, Neg):
        return Neg(unfolded(t.item))
    if not isinstance(t, Bin):
        return t
    if t.op == "@":
        return unfolded(Bin("+", Bin("v", t.left, r11), t.right))
    a, b = unfolded(t.left), unfolded(t.right)
    if t.op == "*":
        return Bin("^", Bin("v", a, Bin("^", b, r00)), Bin("v", b, Bin("^", a, r00)))
    if t.op == "+":
        return Bin("v", Bin("^", a, Bin("v", b, r11)), Bin("^", b, Bin("v", a, r11)))
    return Bin(t.op, a, b)


def core(t):
    """`t` as `terms.sides` hands it to the search, without `@`."""
    return sides(Eq(t, t))[0]


def filled_search(m):
    """A size-`m.size` search whose cells hold the tables of `m`."""
    search = models._SizeSearch(m.size, [], [], symmetry=True)
    search.val[search.cell_r00], search.val[search.cell_r11] = m.r00, m.r11
    search.val[search.comp_base:] = m.comp + m.meet + m.join
    return search


@pytest.fixture(scope="module")
def bridged(u1, u2):
    """Per universe: the universe, its relations, and a search holding its model."""
    return {uid: (u, enumerate_relations(u), filled_search(model_from_universe(u)))
            for uid, u in (("u1", u1), ("u2", u2))}


class TestLinearPrograms:
    """`*` and `+` compile to one step after their operands, so grounding
    is linear in term size and a long chain of them searches promptly."""

    def test_long_chain_searched_promptly(self):
        start = time.perf_counter()
        out = search_model(minimal_axioms(), [plus_chain(40) + " = x"], range(2, 5))
        assert (out.found, out.sizes_excluded, out.nodes) == (False, (2, 3, 4), 98)
        out = search_model([], [plus_chain(40) + " = x"], range(2, 5))
        assert (out.found, out.size, out.sizes_excluded, out.nodes) == (True, 2, (), 13)
        assert time.perf_counter() - start < 1.0

    def test_sixteen_operands_still_search(self):
        out = search_model([], [plus_chain(16) + " = x"], range(2, 3))
        assert (out.found, out.size, out.sizes_excluded, out.nodes) == (True, 2, (), 13)
        assert out.model == FiniteModel(2, flat(((0, 0), (0, 0))), flat(((1, 0), (0, 0))),
                                        (0, 0), 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(t=search_terms, uid=st.sampled_from(["u1", "u2"]), data=st.data())
    def test_program_matches_evaluate(self, bridged, t, uid, data):
        u, rels, search = bridged[uid]
        codes = {name: data.draw(st.integers(0, len(rels) - 1), label=name) for name in "xy"}
        env = {name: (models._PUSH_ELEM, code) for name, code in codes.items()}
        status, code = search._eval(search._program(core(t), env), [])
        assert status == models._VALUE
        assert rels[code] == evaluate(u, t, {name: rels[c] for name, c in codes.items()})

    @settings(max_examples=300, deadline=None)
    @given(t=search_terms, data=st.data())
    def test_blocks_where_the_unfolded_term_blocks(self, bridged, t, data):
        """With some of the cells it reads unknown, a program stops at the
        cell, and reads the cells, that the program of the unfolded term does."""
        full = bridged["u1"][2]
        env = {name: (models._PUSH_ELEM, data.draw(st.integers(0, full.n - 1), label=name))
               for name in "xy"}
        program, unfolded_program = full._program(core(t), env), full._program(unfolded(t), env)
        cells = []
        full._eval(unfolded_program, cells)
        unknown = data.draw(st.sets(st.sampled_from(cells))) if cells else set()
        search = models._SizeSearch(full.n, [], [], symmetry=True)
        search.val = [-1 if cell in unknown else v for cell, v in enumerate(full.val)]
        reads, unfolded_reads = [], []
        assert search._eval(program, reads) == search._eval(unfolded_program, unfolded_reads)
        assert set(reads) == set(unfolded_reads)
