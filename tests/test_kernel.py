"""The integer relation kernel against the relation-level operations.

`rlattice.universe` is the reference: every code-level operation must
decode to exactly what the relation-level function returns, and the
checker and the bridge built on codes must agree with it.
"""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlattice import (
    ConstantKind,
    EnumerationBudgetError,
    Relation,
    Universe,
    Verdict,
    check,
    complement,
    constant,
    cylindrify,
    enumerate_relations,
    free_variables,
    inner_join,
    inner_union,
    model_from_universe,
    natural_join,
    outer_union,
    parse_statement,
    suite_catalog,
    verify_model,
)
from rlattice.kernel import RelationKernel

BINARY = {
    "^": (RelationKernel.meet, natural_join),
    "v": (RelationKernel.join, inner_union),
    "*": (RelationKernel.star, inner_join),
    "+": (RelationKernel.plus, outer_union),
    "@": (RelationKernel.at, cylindrify),
}


def decode(k: RelationKernel, code: int) -> Relation:
    """A code back to its relation, without the enumeration."""
    h = k.header(code)
    header = tuple(a for i, a in enumerate(k.u.attributes) if h >> i & 1)
    space = k.u.full_body(header)
    body = code - k.offset[h]
    return Relation(header, tuple(t for i, t in enumerate(space) if body >> i & 1))


def assert_matches_oracle(u, k, r, s):
    a, b = k.encode(r), k.encode(s)
    for op, (code_fn, rel_fn) in BINARY.items():
        assert decode(k, code_fn(k, a, b)) == rel_fn(u, r, s), (op, r, s)
    assert decode(k, k.comp(a)) == complement(u, r)


class TestCodes:
    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_code_is_enumeration_index(self, name, request):
        u = request.getfixturevalue(name)
        k = RelationKernel(u)
        for i, r in enumerate(enumerate_relations(u)):
            assert k.encode(r) == i
            assert decode(k, i) == r

    def test_constants(self, u2, rels2):
        k = RelationKernel(u2)
        for kind in ConstantKind:
            assert rels2[k.const(kind)] == constant(u2, kind)


class TestAgainstRelations:
    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_every_pair(self, name, request):
        u = request.getfixturevalue(name)
        k = RelationKernel(u)
        rels = enumerate_relations(u)
        for (a, r), (b, s) in product(enumerate(rels), repeat=2):
            for op, (code_fn, rel_fn) in BINARY.items():
                assert rels[code_fn(k, a, b)] == rel_fn(u, r, s), (op, r, s)
            assert rels[k.comp(a)] == complement(u, r)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_universes(self, data):
        nattrs = data.draw(st.integers(0, 3))
        domains = [data.draw(st.lists(st.sampled_from("qzbxa"), min_size=1, max_size=3,
                                      unique=True)) for _ in range(nattrs)]
        u = Universe.make({f"c{i}": d for i, d in enumerate(domains)})
        k = RelationKernel(u)

        def relation():
            header = [a for a in u.attributes if data.draw(st.booleans())]
            space = u.full_body(tuple(header))
            rows = data.draw(st.lists(st.sampled_from(space), max_size=len(space)))
            return u.relation(header, rows)

        for _ in range(4):
            assert_matches_oracle(u, k, relation(), relation())


class TestBridge:
    def test_u2_tables_cell_for_cell(self, u2, rels2):
        m = model_from_universe(u2)
        index = {r: i for i, r in enumerate(rels2)}
        assert m.meet == tuple(tuple(index[natural_join(u2, r, s)] for s in rels2)
                               for r in rels2)
        assert m.join == tuple(tuple(index[inner_union(u2, r, s)] for s in rels2)
                               for r in rels2)
        assert m.comp == tuple(index[complement(u2, r)] for r in rels2)
        assert rels2[m.r00] == constant(u2, ConstantKind.R00)
        assert rels2[m.r11] == constant(u2, ConstantKind.R11)


def catalog_laws(max_vars):
    texts = {e.text for entries in suite_catalog().values() for e in entries}
    return sorted(t for t in texts
                  if len(free_variables(parse_statement(t))) <= max_vars)


@pytest.fixture(scope="module")
def m2(u2):
    return model_from_universe(u2)


class TestCheckAgainstTables:
    # Laws of four or more variables take 26^4 or more assignments on u2
    # and would only repeat the same comparison at length.
    @pytest.mark.parametrize("text", catalog_laws(3))
    def test_catalog_law_u2(self, u2, rels2, m2, text):
        con = check(u2, text)
        tab = verify_model(m2, [text])[0]
        assert con.verdict is tab.verdict
        assert con.assignments_tested == tab.assignments_tested
        assert con.premise_satisfying == tab.premise_satisfying
        if tab.witness is None:
            assert con.witness is None
        else:
            assert con.witness == {n: rels2[i] for n, i in tab.witness.items()}


class TestBounds:
    def test_header_maps_built_lazily(self):
        # 4,096 headers and 8,192 relations: building the maps of all
        # 4^12 header pairs up front would not finish promptly.
        u = Universe.make({f"a{i}": ("0",) for i in range(12)})
        start = time.perf_counter()
        rep = check(u, "x'' = x")
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == 8192
        assert time.perf_counter() - start < 5.0

    def test_enumeration_budget_still_enforced(self, u2):
        with pytest.raises(EnumerationBudgetError):
            check(u2, "x = x", enum_budget=10)
        with pytest.raises(EnumerationBudgetError):
            model_from_universe(u2, budget=10)
