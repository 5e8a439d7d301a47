"""Symmetry-reduced exhaustive checks against the unreduced walk.

Every permutation of a domain's values, and every exchange of attributes
with equal-size domains, is an automorphism of a universe.  The kernel's
generators of that group must commute with every operation and fix the
four constants; their orbits must be those of the whole group applied to
relations with `rlattice.universe`; and `check`, which tries only
orbit-least values for the first variable, must report exactly what
`verify_model` reports after walking every assignment.  With three or
more variables it also tries only the second values least under the
automorphisms fixing the first; those must be the whole group's too,
and the two-level walk must report exactly what `run_check` reports
without a symmetry kernel.
"""

from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlattice import (
    ConstantKind,
    Sample,
    Universe,
    Verdict,
    check,
    enumerate_relations,
    free_variables,
    model_from_universe,
    parse_statement,
    suite_catalog,
    verify_model,
)
from rlattice import checker
from rlattice import kernel as kernel_module
from rlattice.checker import Exhaustive, run_check
from rlattice.kernel import RelationKernel
from rlattice.terms import BINARY_OPS, Bin, Const, Eq, Imp, Lt, Ne, Neg, Or, Var

U1 = Universe.make({"t": ("a", "b")})
U2 = Universe.make({"t": ("a", "b"), "s": ("1", "2")})
U3 = Universe.make({"a": ("0", "1"), "b": ("1", "0"), "c": ("0", "1")})  # 318 relations
U23 = Universe.make({"a": ("y", "x"), "b": ("3", "1", "2")})  # unequal domains, 78 relations
U13 = Universe.make({"t": ("c", "a", "b")})  # 10 relations
# Equal-size attributes with another one between them, and singleton domains.
GAPPED = Universe.make({"a": ("q", "p"), "b": ("x",), "c": ("2", "1")})
SINGLETONS = Universe.make({"a": ("x",), "b": ("1", "2"), "c": ("p",)})


def assert_commutes(k, g, a, b):
    """`g` commutes with each operation of `k.tables()` on codes `a` and `b`."""
    n, (*binary, comp) = k.n, k.tables()
    for table in binary:
        assert g(table[a * n + b]) == table[g(a) * n + g(b)]
    assert g(comp[a]) == comp[g(a)]


def automorphisms(u):
    """Every automorphism of `u` as a function on relations: each attribute
    goes to one with a domain of the same size, and each value of rank `r`
    in its sorted domain to the value of rank `ranks[r]` there."""
    values = [sorted(d) for d in u.domains]
    positions = range(len(values))
    for target in permutations(positions):
        if any(len(values[p]) != len(values[target[p]]) for p in positions):
            continue
        for ranks in product(*(permutations(range(len(v))) for v in values)):
            rename = {u.attributes[p]: u.attributes[target[p]] for p in positions}
            revalue = {u.attributes[p]: {v: values[target[p]][ranks[p][i]]
                                         for i, v in enumerate(values[p])} for p in positions}

            def move(r, rename=rename, revalue=revalue):
                return u.relation([rename[a] for a in r.header],
                                  [[revalue[a][v] for a, v in zip(r.header, row)]
                                   for row in r.body])
            yield move


def least_codes(k):
    """The codes least in their orbit, in increasing order."""
    return [c for c in range(k.n) if k.orbit_least[c] == c]


def least_seconds(k, first):
    """The codes least in their orbit under the automorphisms fixing `first`."""
    return [c for c, m in enumerate(k.stabilizer_least(first)) if c == m]


def reference_least(u):
    """For each code, the least code its relation reaches under the whole group."""
    k = RelationKernel(u)
    group = list(automorphisms(u))
    return [min(k.encode(g(r)) for g in group) for r in enumerate_relations(u)]


class TestGenerators:
    @pytest.mark.parametrize("u", [U1, U2, U3, U23, GAPPED, SINGLETONS])
    def test_permutations_fixing_the_constants(self, u):
        k = RelationKernel(u)
        for g in k.symmetries():
            assert sorted(map(g, range(k.n))) == list(range(k.n))
            for kind in ConstantKind:
                assert g(k.const(kind)) == k.const(kind)

    def test_every_pair_on_u2(self):
        k = RelationKernel(U2)
        assert len(k.symmetries()) == 2
        for g, a, b in product(k.symmetries(), range(k.n), range(k.n)):
            assert_commutes(k, g, a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_pairs(self, data):
        u = data.draw(st.sampled_from([U3, U23, GAPPED]))
        k = RelationKernel(u)
        a, b = (data.draw(st.integers(0, k.n - 1)) for _ in range(2))
        for g in k.symmetries():
            assert_commutes(k, g, a, b)


class TestOrbits:
    @pytest.mark.parametrize("u, orbits", [(U1, 5), (U2, 11), (U3, 33), (U23, None),
                                           (GAPPED, None), (SINGLETONS, None)])
    def test_against_the_whole_group(self, u, orbits):
        least = reference_least(u)
        k = RelationKernel(u)
        got = least_codes(k)
        assert got == [c for c, m in enumerate(least) if m == c]
        assert k.orbit_least == dict(enumerate(least))
        if orbits is not None:
            assert len(got) == orbits

    def test_lazy_and_repeatable(self):
        k = RelationKernel(U3)
        assert k.orbit_least[0] == 0 and k.orbit_least == {0: 0}  # 0's orbit only
        assert least_codes(k) == least_codes(k)
        assert len(k.orbit_least) == k.n

    def test_filled_from_the_last_code(self):
        """A code read first fills its whole orbit with the orbit's least
        code, so reads in any order give the whole group's answer."""
        k = RelationKernel(U3)
        least = reference_least(U3)
        assert k.orbit_least[317] == least[317]
        assert [k.orbit_least[c] for c in range(k.n)] == least

    @pytest.mark.parametrize("u, order", [(U1, 2), (U2, 8), (U3, 48), (U13, 6), (U23, 12),
                                          (GAPPED, 8), (SINGLETONS, 4)])
    def test_group_order(self, u, order):
        k = RelationKernel(u)
        assert k.group_order() == order == len(list(automorphisms(u)))
        k.stabilizer_least(0)
        assert len(set(k._group)) == order

    @pytest.mark.parametrize("u", [U2, U13, U23, GAPPED, SINGLETONS])
    def test_stabilizers_against_the_whole_group(self, u):
        """Per first code, each code's least image under the automorphisms fixing it."""
        k = RelationKernel(u)
        rels = enumerate_relations(u)
        group = list(automorphisms(u))
        for first in least_codes(k):
            fixing = [g for g in group if g(rels[first]) == rels[first]]
            least = [min(k.encode(g(r)) for g in fixing) for r in rels]
            assert k.stabilizer_least(first) == least  # a list, for a trivial stabilizer too
            assert least_seconds(k, first) == [c for c, m in enumerate(least) if c == m]
            assert k.stabilizer_least(first) is k.stabilizer_least(first)


# --- the reduced walk against the unreduced one ------------------------------

VARS = [Var("x"), Var("y"), Var("z")]
term = st.recursive(
    st.one_of(st.sampled_from(VARS), st.sampled_from([Const(kind) for kind in ConstantKind])),
    lambda sub: st.one_of(st.builds(Neg, sub),
                          st.builds(Bin, st.sampled_from(BINARY_OPS), sub, sub)),
    max_leaves=5)
atom = st.builds(lambda kind, lhs, rhs: kind(lhs, rhs), st.sampled_from([Eq, Ne, Lt]), term, term)
statements = st.one_of(
    atom,
    st.builds(Imp, st.lists(atom, min_size=1, max_size=2).map(tuple), atom),
    st.lists(atom, min_size=2, max_size=3).map(lambda alts: Or(tuple(alts))),
).filter(lambda s: len(free_variables(s)) >= 2)

_models = {}


def assert_as_unreduced(u, statement):
    """`check` reports what `verify_model` reports over the bridged tables."""
    if u not in _models:
        _models[u] = model_from_universe(u), enumerate_relations(u)
    model, rels = _models[u]
    con = check(u, statement)
    tab = verify_model(model, [statement])[0]
    assert con.verdict is tab.verdict
    assert con.assignments_tested == tab.assignments_tested
    assert con.premise_satisfying == tab.premise_satisfying
    if tab.witness is None:
        assert con.witness is None
    else:
        assert con.witness == {n: rels[i] for n, i in tab.witness.items()}


@pytest.fixture
def reduce_every_check():
    """Reduce checks of any length, so that small universes take the reduced path too."""
    with mock.patch.object(checker, "_REDUCE_FROM", 0):
        yield


class TestReducedWalk:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([U1, U2, U23]), statements)
    def test_drawn_statements(self, u, statement):
        with mock.patch.object(checker, "_REDUCE_FROM", 0):
            assert_as_unreduced(u, statement)

    @pytest.mark.parametrize("text", sorted(
        {e.text for entries in suite_catalog().values() for e in entries
         if len(free_variables(parse_statement(e.text))) == 2}))
    def test_two_variable_catalog_on_u3(self, text):
        assert_as_unreduced(U3, parse_statement(text))

    @pytest.mark.parametrize("text", [
        "x < y -> y < x",  # the premise holds at the first value of some skipped orbits
        "x ^ y = R10 & y < x -> x = y",
        "x v y = y -> x' v y' = x'",
        "x ^ R10 = x & x < y -> y ^ x = x",  # a premise on the first variable alone
    ])
    def test_premise_counts(self, reduce_every_check, text):
        for u in (U1, U2, U23):
            assert_as_unreduced(u, parse_statement(text))

    def test_three_variables_on_u3(self):
        rep = check(U3, "x ^ (y ^ z) = (x ^ y) ^ z")
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == 318 ** 3 == 32_157_432


class TestWhenReduced:
    """Which checks try only orbit-least first values."""

    @pytest.fixture
    def walks(self):
        """The members of each orbit filled into `orbit_least`."""
        calls = []
        real = kernel_module._orbit

        def spy(moves, code):
            got = real(moves, code)
            calls.append(set(got))
            return got
        with mock.patch.object(kernel_module, "_orbit", spy):
            yield calls

    def test_uncapped_literal_free(self, walks):
        check(U23, "x ^ y = y ^ x")
        # Every orbit of U23's 78 codes, each walked once.
        assert sorted(c for orbit in walks for c in orbit) == list(range(78))

    def test_short_check(self, walks):
        check(U2, "x ^ y = y ^ x")  # 676 assignments: too few to repay the orbits
        assert walks == []

    @pytest.mark.parametrize("text, mode", [
        ("x ^ y = y ^ x", Exhaustive(max_assignments=78 ** 2 - 1)),
        ("x ^ y = y ^ x", Sample(seed=1, samples=500)),
        ("x ^ {(a=x)} = y ^ {(a=x)} -> x = y", Exhaustive()),
        ("x' v x = x v R11", Exhaustive()),
    ], ids=["capped", "sampled", "literal", "one-variable"])
    def test_every_first_value_walked(self, reduce_every_check, walks, text, mode):
        rep = check(U23, text, mode)
        assert walks == []
        if "{" not in text:
            tab = verify_model(model_from_universe(U23), [parse_statement(text)], mode)[0]
            assert (rep.verdict, rep.assignments_tested, rep.witness_text is None) == (
                tab.verdict, tab.assignments_tested, tab.witness is None)

    def test_loops_get_maps(self, monkeypatch):
        """`run_check` hands the loops a list or the kernel's orbit table as
        `least`, and lists from `seconds`, whether or not the check reduces."""
        seen = []
        real = checker.compile_statement

        def spy(statement):
            code = real(statement)

            def run(*args):
                least, seconds = args[7:9]
                seen.append((type(least).__name__, type(seconds(0)).__name__))
                return code.run(*args)
            return code._replace(run=run)
        monkeypatch.setattr(checker, "compile_statement", spy)
        check(U2, "x ^ y = y ^ x")  # too short to reduce
        check(U23, "x ^ (y v z) = (x ^ y) v (x ^ z)")  # both levels reduced
        check(U23, "x ^ {(a=x)} = y ^ {(a=x)} -> x = y")
        verify_model(model_from_universe(U1), ["x ^ y ^ z = x ^ (y ^ z)"])
        with mock.patch.object(checker, "_GROUP_CAP", 0):  # the first level only
            check(U23, "(x * y) * z = x * (y * z)")
        assert seen == [("list", "list"), ("_Bulk", "list"), ("list", "list"),
                        ("list", "list"), ("_Bulk", "list")]


# --- the two-level walk against the unreduced one ----------------------------

_kernels = {}


def assert_as_one_level(u, statement):
    """`run_check` with the kernel as `symmetry` reports what it reports
    without one: verdict, witness, assignment and premise counts."""
    if u not in _kernels:
        _kernels[u] = RelationKernel(u)
    k = _kernels[u]
    kw = dict(tables=k.tables(), leaf=k.leaf)
    got = run_check(statement, k.n, symmetry=k, **kw)
    want = run_check(statement, k.n, symmetry=None, **kw)
    assert (got.verdict, got.witness, got.assignments_tested, got.premise_satisfying) == (
        want.verdict, want.witness, want.assignments_tested, want.premise_satisfying)
    return k, got


def catalog_texts(fewest, most, universe="u2"):
    """The literal-free catalog laws on `universe` with `fewest` to `most` variables."""
    return sorted({e.text for entries in suite_catalog().values() for e in entries
                   if universe in e.universes and "{" not in e.text
                   and fewest <= len(free_variables(e.statement)) <= most})


@pytest.fixture
def seconds_walked():
    """The first values whose second values a check asked the kernel for."""
    calls = []
    real = RelationKernel.stabilizer_least

    def spy(kernel, first):
        calls.append(first)
        return real(kernel, first)
    with mock.patch.object(RelationKernel, "stabilizer_least", spy):
        yield calls


class TestSecondLevel:
    @pytest.mark.parametrize("text", catalog_texts(3, 4))
    def test_catalog_on_u2(self, seconds_walked, text):
        assert_as_one_level(U2, parse_statement(text))
        assert seconds_walked

    @pytest.mark.parametrize("text", catalog_texts(3, 3))
    def test_catalog_on_1x3(self, reduce_every_check, text):
        assert_as_one_level(U13, parse_statement(text))

    @pytest.mark.parametrize("text", [
        "x ^ (y v z) = (x ^ y) v (x ^ z)",
        "(x * y) * z = x * (y * z)",
        "x < y & y < z -> z < x",
        "y ^ z = R00 -> y < z v x",
        "x ^ z = R10 -> x ^ y != z v R11",
        "R11 ^ y = R11 ^ z -> x ^ (y v z) = (x ^ y) v (x ^ z)",
    ])
    def test_three_variables_on_2x3(self, text):
        assert_as_one_level(U23, parse_statement(text))

    @pytest.mark.parametrize("u, witness", [(U2, (0, 25, 0)), (U23, (0, 77, 0))],
                             ids=["u2", "2x3"])
    def test_witness_after_skipped_seconds(self, u, witness):
        k, rep = assert_as_one_level(u, parse_statement("((x + y) v z) ^ y != R11"))
        assert tuple(rep.witness.values()) == witness
        assert len(least_seconds(k, 0)) < witness[1]  # second values below it were skipped

    @pytest.mark.parametrize("u", [U2, U23], ids=["u2", "2x3"])
    def test_implication_witness_mid_block(self, u):
        """Second values below the witness's were skipped after its first
        value, and the witness is not the first assignment of its second
        value's block, so both levels' skipped premises are counted."""
        k, rep = assert_as_one_level(u, parse_statement("x ^ z = R10 -> x ^ y != z v R11"))
        first, second, third = rep.witness.values()
        seconds = least_seconds(k, first)
        assert third > 0 and second in seconds and seconds.index(second) < second
        assert rep.premise_satisfying > 0

    def test_two_variables_one_level(self, seconds_walked):
        check(U23, "x < y -> y ^ x = x")
        assert seconds_walked == []

    def test_one_level_past_the_cap(self, seconds_walked):
        k = RelationKernel(U23)
        with mock.patch.object(checker, "_GROUP_CAP", k.group_order() * k.n - 1):
            assert_as_one_level(U23, parse_statement("x ^ z = R10 -> x ^ y != z v R11"))
            assert_as_one_level(U23, parse_statement("(x * y) * z = x * (y * z)"))
        assert seconds_walked == []
