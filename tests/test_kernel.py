"""The integer relation kernel against the relation-level operations.

`rlattice.universe` is the reference: every code-level operation must
decode to exactly what the relation-level function returns, and the
checker and the bridge built on codes must agree with it.  The code
layout itself (counting, decoding, constants, the budget) is checked
against a plain header-by-header enumeration loop.
"""

import math
import random
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
    count_relations,
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
from rlattice import checker
from rlattice import kernel as kernel_module
from rlattice.kernel import _TARGETS, WHOLE_PAIRS, RelationKernel, _bit_map, _blocks, _op_table

BINARY = {"^": natural_join, "v": inner_union, "*": inner_join, "+": outer_union,
          "@": cylindrify}


def code_ops(k):
    """The operations of `k.tables()` as functions of codes, by operator,
    with the complement as `'`."""
    n, r11, (meet, join, star, plus, comp) = k.n, k.const(ConstantKind.R11), k.tables()
    return {"^": lambda a, b: meet[a * n + b], "v": lambda a, b: join[a * n + b],
            "*": lambda a, b: star[a * n + b], "+": lambda a, b: plus[a * n + b],
            # Compiled statements expand y @ x into (y v R11) + x.
            "@": lambda a, b: plus[join[a * n + r11] * n + b], "'": comp.__getitem__}


def per_pair_kernel(u, monkeypatch):
    """A kernel over `u` whose tables fill one pair at a time, however few its codes."""
    with monkeypatch.context() as patch:
        patch.setattr(kernel_module, "WHOLE_PAIRS", 0)
        return RelationKernel(u)


def assert_matches_oracle(u, k, r, s):
    a, b, ops = k.encode(r), k.encode(s), code_ops(k)
    for op, rel_fn in BINARY.items():
        assert k.decode(ops[op](a, b)) == rel_fn(u, r, s), (op, r, s)
    assert k.decode(ops["'"](a)) == complement(u, r)


class TestCodes:
    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_code_is_enumeration_index(self, name, request):
        u = request.getfixturevalue(name)
        k = RelationKernel(u)
        for i, r in enumerate(enumerate_relations(u)):
            assert k.encode(r) == i
            assert k.decode(i) == r

    @pytest.mark.parametrize("decl", [
        {"t": ("a", "b")},
        {"t": ("a", "b"), "s": ("1", "2")},
        {"a": ("1", "0"), "b": ("0", "1"), "c": ("1", "0")},
        {"a": ("y", "x"), "b": ("3", "1", "2")},
    ], ids=["u1", "u2", "2x2x2", "2x3"])
    def test_decode_in_full_body_order(self, decl):
        u = Universe.make(decl)
        k = RelationKernel(u)
        for code in range(k.n):
            h = k.header(code)
            header = tuple(a for i, a in enumerate(u.attributes) if h >> i & 1)
            body = code - k.encode(Relation(header, ()))
            space = u.full_body(header)
            assert k.decode(code) == Relation(
                header, tuple(t for i, t in enumerate(space) if body >> i & 1))

    def test_constants(self, u2, rels2):
        k = RelationKernel(u2)
        for kind in ConstantKind:
            assert rels2[k.const(kind)] == constant(u2, kind)


class TestAgainstRelations:
    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_every_pair(self, name, request, monkeypatch):
        # The per-pair fills against the whole tables and the relations.
        u = request.getfixturevalue(name)
        per_pair, whole = code_ops(per_pair_kernel(u, monkeypatch)), code_ops(RelationKernel(u))
        rels = enumerate_relations(u)
        for (a, r), (b, s) in product(enumerate(rels), repeat=2):
            for op, rel_fn in BINARY.items():
                code = per_pair[op](a, b)
                assert code == whole[op](a, b) and rels[code] == rel_fn(u, r, s), (op, r, s)
            assert per_pair["'"](a) == whole["'"](a) and rels[per_pair["'"](a)] == complement(u, r)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_universes(self, data):
        nattrs = data.draw(st.integers(0, 3))
        domains = [data.draw(st.lists(st.sampled_from("qzbxa"), min_size=1, max_size=3,
                                      unique=True)) for _ in range(nattrs)]
        u = Universe.make({f"c{i}": d for i, d in enumerate(domains)})
        # Up to 134 M relations: past the default budget, but the
        # operations need no enumeration.
        k = RelationKernel(u, budget=count_relations(u))

        def relation():
            header = [a for a in u.attributes if data.draw(st.booleans())]
            space = u.full_body(tuple(header))
            rows = data.draw(st.lists(st.sampled_from(space), max_size=len(space)))
            return u.relation(header, rows)

        for _ in range(4):
            assert_matches_oracle(u, k, relation(), relation())


def assert_flat_against_kernel(u, m, monkeypatch):
    """Entry `a * n + b` of the bridged tables is the entry a kernel's
    per-pair fill gives codes `a` and `b`."""
    k = per_pair_kernel(u, monkeypatch)
    meet, join, _, _, comp = k.tables()
    assert m.size == k.n
    assert m.meet == tuple(map(meet.__getitem__, range(k.n * k.n)))
    assert m.join == tuple(map(join.__getitem__, range(k.n * k.n)))
    assert m.comp == tuple(map(comp.__getitem__, range(k.n)))


class TestBridge:
    def test_u2_tables_cell_for_cell(self, u2, rels2, monkeypatch):
        m = model_from_universe(u2)
        index = {r: i for i, r in enumerate(rels2)}
        assert m.meet == tuple(index[natural_join(u2, r, s)] for r in rels2 for s in rels2)
        assert m.join == tuple(index[inner_union(u2, r, s)] for r in rels2 for s in rels2)
        assert m.comp == tuple(index[complement(u2, r)] for r in rels2)
        assert rels2[m.r00] == constant(u2, ConstantKind.R00)
        assert rels2[m.r11] == constant(u2, ConstantKind.R11)
        assert_flat_against_kernel(u2, m, monkeypatch)

    def test_two_by_three_tables_cell_for_cell(self, monkeypatch):
        u = Universe.make({"t": ("a", "b"), "s": ("1", "2", "3")})
        rels = enumerate_relations(u)
        m = model_from_universe(u)
        index = {r: i for i, r in enumerate(rels)}
        assert m.size == len(rels) == 78
        assert m.meet == tuple(index[natural_join(u, r, s)] for r in rels for s in rels)
        assert m.join == tuple(index[inner_union(u, r, s)] for r in rels for s in rels)
        assert m.comp == tuple(index[complement(u, r)] for r in rels)
        assert rels[m.r00] == constant(u, ConstantKind.R00)
        assert rels[m.r11] == constant(u, ConstantKind.R11)
        assert_flat_against_kernel(u, m, monkeypatch)

    def test_three_binary_attributes_against_kernel(self, monkeypatch):
        u = Universe.make({"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")})
        m = model_from_universe(u)
        assert m.size == 318
        assert_flat_against_kernel(u, m, monkeypatch)
        # Every entry is one of n shared int objects, not an int of its own.
        assert len({id(x) for x in m.meet + m.join}) <= m.size


# 2, 6, 10, 26 and 34 codes, all within WHOLE_PAIRS.
WHOLE = {"empty": {}, "u1": {"t": ("a", "b")}, "1x3": {"t": ("a", "b", "c")},
         "u2": {"t": ("a", "b"), "s": ("1", "2")}, "1x5": {"t": tuple("abcde")}}


class TestWholeTables:
    """A kernel of at most WHOLE_PAIRS code pairs fills each table whole on
    its first miss; a larger one fills only the pairs it reaches."""

    @pytest.mark.parametrize("decl", WHOLE.values(), ids=WHOLE)
    def test_one_read_fills_every_entry(self, decl, monkeypatch):
        u = Universe.make(decl)
        k, rels = RelationKernel(u), enumerate_relations(u)
        ref = code_ops(per_pair_kernel(u, monkeypatch))
        n, tables = k.n, k.tables()
        pairs = list(product(range(n), repeat=2))
        assert n * n <= WHOLE_PAIRS
        for table, op in zip(tables, "^v*+"):
            table[n * n - 1]
            assert len(table) == n * n, op  # before any other read
            assert [table[a * n + b] for a, b in pairs] == [ref[op](a, b) for a, b in pairs]
            assert all(rels[table[a * n + b]] == BINARY[op](u, rels[a], rels[b]) for a, b in pairs)
        tables[4][0]
        assert len(tables[4]) == n
        assert [tables[4][a] for a in range(n)] == [ref["'"](a) for a in range(n)]
        assert all(rels[tables[4][a]] == complement(u, rels[a]) for a in range(n))

    def test_past_the_bound_fills_per_pair(self):
        u = Universe.make({"t": tuple("abcdef")})  # 66 codes, 4,356 pairs
        k, ref = RelationKernel(u), code_ops(RelationKernel(u))
        assert k.n ** 2 > WHOLE_PAIRS
        assert check(u, "x ^ (x v x') = x * (x + x')", kernel=k).verdict is Verdict.HOLDS
        tables = k.tables()
        assert all(0 < len(table) < k.n ** 2 for table in tables)
        for table, op in zip(tables, "^v*+"):
            assert all(v == ref[op](*divmod(key, k.n)) for key, v in table.items())
        assert all(v == ref["'"](a) for a, v in tables[4].items())

    @pytest.mark.parametrize("decl", [
        {"t": tuple("abcdef")},
        {"t": ("a", "b"), "s": ("1", "2", "3")},
        {"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")},
    ], ids=["1x6", "2x3", "2x2x2"])
    def test_per_pair_fills_equal_whole_tables(self, decl):
        # 66, 78 and 318 codes: every entry a table past the bound fills
        # one pair at a time equals the block routine's whole table.
        k = RelationKernel(Universe.make(decl))
        n, tables = k.n, k.tables()
        blocks = _blocks(k._offset, k._sizes)
        assert n * n > WHOLE_PAIRS
        for table, target in zip(tables, _TARGETS):
            assert ([table[key] for key in range(n * n)]
                    == _op_table(k._sizes, k._images, *target, blocks))
        # A complement reverses the codes of its block.
        assert [tables[4][a] for a in range(n)] == [c for b in blocks for c in b[::-1]]


def test_bit_map_against_bit_by_bit_loop():
    # Up to 20 body bits: one to three chunks, the last one partial.
    rng = random.Random(7)
    for length in range(21):
        bits = [rng.getrandbits(48) for _ in range(length)]
        image = _bit_map(bits)
        bodies = (range(1 << length) if length <= 10
                  else [0, (1 << length) - 1, *(rng.getrandbits(length) for _ in range(2000))])
        for body in bodies:
            expected = 0
            for j, bit in enumerate(bits):
                if body >> j & 1:
                    expected |= bit
            assert image(body) == expected, (length, body)


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
        # The identity map the check walked over is not kept past it.
        assert len(checker._IDENTITY) <= 256

    def test_enumeration_budget_still_enforced(self, u2):
        with pytest.raises(EnumerationBudgetError):
            check(u2, "x = x", enum_budget=10)
        with pytest.raises(EnumerationBudgetError):
            model_from_universe(u2, budget=10)


def reference_enumeration(u: Universe) -> list[Relation]:
    """Every relation, header mask by header mask and body mask by body
    mask over the header's sorted tuple space: the canonical order."""
    rels = []
    for mask in range(2 ** len(u.attributes)):
        header = tuple(a for i, a in enumerate(u.attributes) if mask >> i & 1)
        space = u.full_body(header)
        for bodymask in range(2 ** len(space)):
            body = tuple(space[i] for i in range(len(space)) if bodymask >> i & 1)
            rels.append(Relation(header, body))
    return rels


# At most 3 attributes of 1-3 values each, given out of order; at most
# 600 relations, so that bridging one stays quick.
small_universes = st.integers(0, 3).flatmap(
    lambda nattrs: st.lists(st.lists(st.sampled_from("qzbxa"), min_size=1, max_size=3,
                                     unique=True), min_size=nattrs, max_size=nattrs)
).map(lambda domains: Universe.make({f"c{i}": d for i, d in enumerate(domains)})
      ).filter(lambda u: count_relations(u) <= 600)


class TestLayout:
    @settings(max_examples=60, deadline=None)
    @given(small_universes)
    def test_codes_against_reference_loop(self, u):
        reference = reference_enumeration(u)
        assert list(enumerate_relations(u)) == reference
        assert count_relations(u) == len(reference)
        k = RelationKernel(u)
        assert k.n == len(reference)
        for code, r in enumerate(reference):
            assert k.decode(code) == r
            assert k.encode(k.decode(code)) == code
        for kind in ConstantKind:
            assert k.const(kind) == k.encode(constant(u, kind))

    @settings(max_examples=25, deadline=None)
    @given(small_universes)
    def test_budget_is_the_relation_count(self, u):
        n = count_relations(u)
        with pytest.raises(EnumerationBudgetError):
            check(u, "x = x", enum_budget=n - 1)
        with pytest.raises(EnumerationBudgetError):
            model_from_universe(u, budget=n - 1)
        with pytest.raises(EnumerationBudgetError):
            enumerate_relations(u, budget=n - 1)
        assert check(u, "x = x", enum_budget=n).assignments_tested == n
        assert model_from_universe(u, budget=n).size == n

    def test_count_by_tuple_space_size(self):
        # 2^20 headers; their count is summed per size, 21 sizes in all.
        u = Universe.make({f"a{i}": ("0", "1") for i in range(20)})
        start = time.perf_counter()
        count = count_relations(u)
        assert time.perf_counter() - start < 1.0
        assert count == sum(math.comb(20, k) << 2 ** k for k in range(21))
        assert count_relations(Universe.make({f"a{i}": ("0",) for i in range(12)})) == 2 ** 13

    def test_wide_universe_stops_at_the_budget(self):
        u = Universe.make({f"a{i}": ("0", "1") for i in range(20)})
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError, match="budget of 1000000$"):
            check(u, "x = x")
        assert time.perf_counter() - start < 1.0
