"""Core semantics: universes, relations, and the eight operations.

The join/union operations are cross-checked against independent oracles
that filter the full tuple space by the point-wise definitions, rather
than reusing the pairwise-merge implementation paths.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlattice import (
    CapacityError,
    ConstantKind,
    Relation,
    RelationError,
    Universe,
    UniverseError,
    complement,
    constant,
    cylindrify,
    fd,
    inclusion_dep,
    inner_join,
    inner_join_pointfree,
    inner_union,
    leq,
    natural_join,
    outer_union,
    outer_union_pointfree,
    project,
)
from rlattice.universe import DEFAULT_FD_READING, FdReading

R00, R01, R10, R11 = ConstantKind.R00, ConstantKind.R01, ConstantKind.R10, ConstantKind.R11


# ---- oracles: direct full-space filters, independent of the merge paths ----

def oracle_join(u, r, s):
    header = u.sort_header(set(r.header) | set(s.header))
    rp = [header.index(a) for a in r.header]
    sp = [header.index(a) for a in s.header]
    body = [t for t in u.full_body(header)
            if tuple(t[i] for i in rp) in set(r.body)
            and tuple(t[i] for i in sp) in set(s.body)]
    return Relation(header, tuple(body))


def oracle_union(u, r, s):
    header = u.sort_header(set(r.header) & set(s.header))

    def seen_in(rel, t):
        pos = [rel.header.index(a) for a in header]
        return any(tuple(row[i] for i in pos) == t for row in rel.body)

    body = [t for t in u.full_body(header) if seen_in(r, t) or seen_in(s, t)]
    return Relation(header, tuple(body))


def oracle_outer(u, r, s):
    header = u.sort_header(set(r.header) | set(s.header))
    rp = [header.index(a) for a in r.header]
    sp = [header.index(a) for a in s.header]
    body = [t for t in u.full_body(header)
            if tuple(t[i] for i in rp) in set(r.body)
            or tuple(t[i] for i in sp) in set(s.body)]
    return Relation(header, tuple(body))


def oracle_inner(u, r, s):
    header = u.sort_header(set(r.header) & set(s.header))
    rp = [r.header.index(a) for a in header]
    sp = [s.header.index(a) for a in header]
    r_proj = {tuple(t[i] for i in rp) for t in r.body}
    s_proj = {tuple(t[i] for i in sp) for t in s.body}
    return Relation(header, tuple(sorted(r_proj & s_proj)))


def rel(u, header, rows):
    return u.relation(header, rows)


# ---- universes --------------------------------------------------------------

class TestUniverse:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(UniverseError):
            Universe(("t", "t"), (("a",), ("b",)))

    def test_empty_domain_rejected(self):
        with pytest.raises(UniverseError):
            Universe.make({"t": ()})

    def test_duplicate_value_rejected(self):
        with pytest.raises(UniverseError):
            Universe.make({"t": ("a", "a")})

    def test_reserved_words_rejected(self):
        with pytest.raises(UniverseError):
            Universe.make({"v": ("a",)})
        with pytest.raises(UniverseError):
            Universe.make({"t": ("empty",)})

    @pytest.mark.parametrize("decl", [{"a-b": ("x", "1")}, {"t": ("x y", "1")}, {"": ("a",)},
                                      {"t": ("",)}, {"t": ("\u00e9",)}, {"t": ("a\n",)}])
    def test_non_words_rejected(self, decl):
        """A name the statement syntax cannot spell could not be written in a
        literal, nor read back from a printed witness."""
        with pytest.raises(UniverseError, match="not a word"):
            Universe.make(decl)

    def test_cap_enforced_at_construction(self):
        with pytest.raises(UniverseError):
            Universe.make({"t": ("a", "b"), "s": ("1", "2")}, cap=3)

    def test_cap_raises_capacity_error(self):
        with pytest.raises(CapacityError):
            Universe.make({"t": ("a", "b"), "s": ("1", "2")}, cap=3)
        assert Universe.make({"t": ("a", "b"), "s": ("1", "2")}, cap=4).cap == 4

    def test_parse_roundtrip(self, u2):
        text = "t : a, b\ns : 1, 2  # second attribute\n"
        assert Universe.parse(text) == u2

    def test_parse_bad_line(self):
        with pytest.raises(UniverseError):
            Universe.parse("just words\n")

    @pytest.mark.parametrize("text, message", [
        ("s : 1, 2\nt : a, , b\n", "line 2: empty value in domain list")])
    def test_parse_error_named(self, text, message):
        with pytest.raises(UniverseError) as err:
            Universe.parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["", "  \n\n", "# a universe\n  # with no attribute\n"])
    def test_parse_no_attribute_lines(self, text):
        """Empty, blank and comment-only text all declare no attribute."""
        assert Universe.parse(text) == Universe.make({})

    def test_zero_attribute_universe(self):
        u0 = Universe.make({})
        assert constant(u0, R11) == constant(u0, R01)
        assert constant(u0, R10) == constant(u0, R00)


class TestRelationConstruction:
    def test_foreign_attribute_rejected(self, u1):
        with pytest.raises(RelationError):
            u1.relation(["bogus"], [])

    def test_out_of_domain_value_rejected(self, u1):
        with pytest.raises(RelationError):
            u1.relation(["t"], [["c"]])

    def test_arity_mismatch_rejected(self, u2):
        with pytest.raises(RelationError):
            u2.relation(["t", "s"], [["a"]])

    def test_mapping_rows_and_header_canonicalization(self, u2):
        a = u2.relation(["s", "t"], [{"t": "a", "s": "1"}])
        b = u2.relation(["t", "s"], [["a", "1"]])
        assert a == b
        assert a.header == ("t", "s")

    def test_duplicate_rows_collapse(self, u1):
        r = u1.relation(["t"], [["a"], ["a"]])
        assert r.cardinality == 1

    def test_validate_rejects_foreign_relation(self, u1, u2):
        r = u2.relation(["s"], [["1"]])
        with pytest.raises(RelationError):
            u1.validate(r)


# ---- the operation examples -------------------------------------------------

class TestNaturalJoin:
    def test_disjoint_singletons_empty(self, u1):
        got = natural_join(u1, rel(u1, ["t"], [["a"]]), rel(u1, ["t"], [["b"]]))
        assert got == rel(u1, ["t"], [])

    def test_r01_is_identity(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert natural_join(u1, x, constant(u1, R01)) == x

    def test_shared_attribute(self, u2):
        got = natural_join(u2, rel(u2, ["t", "s"], [["a", "1"]]), rel(u2, ["s"], [["1"]]))
        assert got == rel(u2, ["t", "s"], [["a", "1"]])


class TestInnerUnion:
    def test_same_header_set_union(self, u1):
        got = inner_union(u1, rel(u1, ["t"], [["a"]]), rel(u1, ["t"], [["b"]]))
        assert got == rel(u1, ["t"], [["a"], ["b"]])

    def test_projects_to_common_header(self, u2):
        got = inner_union(u2, rel(u2, ["t", "s"], [["a", "1"]]), rel(u2, ["s"], [["1"]]))
        assert got == rel(u2, ["s"], [["1"]])

    def test_r10_is_identity(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert inner_union(u1, x, constant(u1, R10)) == x


class TestConstants:
    def test_r11_full(self, u1):
        assert constant(u1, R11) == rel(u1, ["t"], [["a"], ["b"]])

    def test_r10_empty_full_header(self, u1):
        assert constant(u1, R10) == rel(u1, ["t"], [])

    def test_r00_r01(self, u1):
        assert constant(u1, R00) == Relation((), ())
        assert constant(u1, R01) == Relation((), ((),))


class TestInnerJoin:
    def test_r11_identity(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert inner_join(u1, x, constant(u1, R11)) == x

    def test_r00_absorbing(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert inner_join(u1, x, constant(u1, R00)) == constant(u1, R00)

    def test_same_header_intersection(self, u1):
        got = inner_join(u1, rel(u1, ["t"], [["a"]]), rel(u1, ["t"], [["b"]]))
        assert got == rel(u1, ["t"], [])


class TestOuterUnion:
    def test_r00_identity(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert outer_union(u1, x, constant(u1, R00)) == x

    def test_r11_absorbing(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert outer_union(u1, x, constant(u1, R11)) == constant(u1, R11)

    def test_extends_missing_attributes(self, u2):
        # frozen from the full-space oracle over the point-wise definition
        got = outer_union(u2, rel(u2, ["t"], [["a"]]), rel(u2, ["s"], [["1"]]))
        expected = rel(u2, ["t", "s"], [["a", "1"], ["a", "2"], ["b", "1"]])
        assert got == expected
        assert got == oracle_outer(u2, rel(u2, ["t"], [["a"]]), rel(u2, ["s"], [["1"]]))


class TestComplement:
    def test_r11_gives_r10(self, u1):
        assert complement(u1, constant(u1, R11)) == constant(u1, R10)

    def test_r00_gives_r01(self, u1):
        assert complement(u1, constant(u1, R00)) == constant(u1, R01)

    def test_singleton(self, u1):
        assert complement(u1, rel(u1, ["t"], [["a"]])) == rel(u1, ["t"], [["b"]])


class TestLeq:
    def test_r10_below_everything(self, u1):
        assert leq(u1, constant(u1, R10), rel(u1, ["t"], [["a"]]))

    def test_subset_same_header(self, u1):
        assert leq(u1, rel(u1, ["t"], [["a"]]), rel(u1, ["t"], [["a"], ["b"]]))

    def test_incomparable(self, u1):
        assert not leq(u1, rel(u1, ["t"], [["a"]]), rel(u1, ["t"], [["b"]]))


class TestCylindrify:
    def test_self_application(self, u1):
        x = rel(u1, ["t"], [["a"]])
        assert cylindrify(u1, x, x) == rel(u1, ["t"], [["a"], ["b"]])
        assert cylindrify(u1, x, x) == inner_union(u1, x, constant(u1, R11))

    def test_two_attributes(self, u2):
        got = cylindrify(u2, rel(u2, ["t"], [["a"]]), rel(u2, ["s"], []))
        assert got == Relation(("t", "s"), tuple(u2.full_body(("t", "s"))))

    def test_r00_left(self, u1):
        got = cylindrify(u1, constant(u1, R00), rel(u1, ["t"], [["a"]]))
        assert got == rel(u1, ["t"], [["a"], ["b"]])


class TestFd:
    def test_reflexive_in_last_argument(self, u1, rels1):
        assert all(fd(u1, r, x, x) for r in rels1 for x in rels1)

    def test_dependency_present(self, u1):
        r = rel(u1, ["t"], [["a"]])
        assert fd(u1, r, rel(u1, ["t"], [["a"], ["b"]]), r) is True

    def test_dependency_absent(self, u1):
        r = rel(u1, ["t"], [["a"]])
        assert fd(u1, r, r, rel(u1, ["t"], [["a"], ["b"]])) is False

    def test_alternative_reading_switch(self, u1):
        r = rel(u1, ["t"], [["a"]])
        meet_reading = FdReading("^", "^")
        # under the all-meet reading even r,x,x fails (complement empties the join)
        assert fd(u1, r, r, r, meet_reading) is False

    def test_default_reading(self):
        assert DEFAULT_FD_READING == FdReading("+", "^")


class TestInclusionDep:
    def test_reflexive(self, u1, rels1):
        x = rel(u1, ["t"], [])
        assert all(inclusion_dep(u1, r, r, x) for r in rels1)

    def test_subset_projection(self, u1):
        assert inclusion_dep(u1, rel(u1, ["t"], [["a"]]),
                             rel(u1, ["t"], [["a"], ["b"]]), rel(u1, ["t"], []))

    def test_superset_fails(self, u1):
        assert not inclusion_dep(u1, rel(u1, ["t"], [["a"], ["b"]]),
                                 rel(u1, ["t"], [["a"]]), rel(u1, ["t"], []))


# ---- cross-checks against the oracles and the dual definitions --------------

class TestAgainstOracles:
    def test_join_union_match_full_space_filters_u1(self, u1, rels1):
        for r, s in product(rels1, repeat=2):
            assert natural_join(u1, r, s) == oracle_join(u1, r, s)
            assert inner_union(u1, r, s) == oracle_union(u1, r, s)

    def test_all_four_match_oracles_u2_sample(self, u2, rels2):
        sample = rels2[::3]
        for r, s in product(sample, repeat=2):
            assert natural_join(u2, r, s) == oracle_join(u2, r, s)
            assert inner_union(u2, r, s) == oracle_union(u2, r, s)
            assert inner_join(u2, r, s) == oracle_inner(u2, r, s)
            assert outer_union(u2, r, s) == oracle_outer(u2, r, s)


class TestDualDefinitions:
    def test_pointwise_equals_pointfree_u1(self, u1, rels1):
        for r, s in product(rels1, repeat=2):
            assert inner_join(u1, r, s) == inner_join_pointfree(u1, r, s)
            assert outer_union(u1, r, s) == outer_union_pointfree(u1, r, s)


# ---- invariants -------------------------------------------------------------

class TestHeaderLaws:
    def test_headers(self, u2, rels2):
        for r, s in product(rels2[::4], repeat=2):
            union = u2.sort_header(set(r.header) | set(s.header))
            inter = u2.sort_header(set(r.header) & set(s.header))
            assert natural_join(u2, r, s).header == union
            assert outer_union(u2, r, s).header == union
            assert inner_union(u2, r, s).header == inter
            assert inner_join(u2, r, s).header == inter
            assert complement(u2, r).header == r.header


class TestLatticeLaws:
    def test_binary_laws_u1(self, u1, rels1):
        for r, s in product(rels1, repeat=2):
            assert natural_join(u1, r, s) == natural_join(u1, s, r)
            assert inner_union(u1, r, s) == inner_union(u1, s, r)
            assert natural_join(u1, r, inner_union(u1, r, s)) == r
            assert inner_union(u1, r, natural_join(u1, r, s)) == r
        for r in rels1:
            assert natural_join(u1, r, r) == r
            assert inner_union(u1, r, r) == r

    def test_associativity_u1(self, u1, rels1):
        for r, s, t in product(rels1, repeat=3):
            assert natural_join(u1, natural_join(u1, r, s), t) == \
                natural_join(u1, r, natural_join(u1, s, t))
            assert inner_union(u1, inner_union(u1, r, s), t) == \
                inner_union(u1, r, inner_union(u1, s, t))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_lattice_laws_u2(self, u2, rels2, data):
        r = data.draw(st.sampled_from(rels2))
        s = data.draw(st.sampled_from(rels2))
        t = data.draw(st.sampled_from(rels2))
        assert natural_join(u2, r, s) == natural_join(u2, s, r)
        assert inner_union(u2, r, s) == inner_union(u2, s, r)
        assert natural_join(u2, r, inner_union(u2, r, s)) == r
        assert inner_union(u2, r, natural_join(u2, r, s)) == r
        assert natural_join(u2, natural_join(u2, r, s), t) == \
            natural_join(u2, r, natural_join(u2, s, t))
        assert inner_union(u2, inner_union(u2, r, s), t) == \
            inner_union(u2, r, inner_union(u2, s, t))


class TestComplementAxioms:
    def test_defining_axioms_all_u2(self, u2, rels2):
        r00, r11 = constant(u2, R00), constant(u2, R11)
        for x in rels2:
            xc = complement(u2, x)
            assert natural_join(u2, xc, x) == natural_join(u2, x, r00)
            assert inner_union(u2, xc, x) == inner_union(u2, x, r11)
            assert complement(u2, xc) == x


class TestDecompositionIdentity:
    def test_both_forms_u1_u2(self, u1, rels1, u2, rels2):
        for u, rels in ((u1, rels1), (u2, rels2)):
            r00, r11 = constant(u, R00), constant(u, R11)
            r01, r10 = constant(u, R01), constant(u, R10)
            for x in rels:
                assert inner_union(u, natural_join(u, x, r00),
                                   natural_join(u, x, r11)) == x
                assert inner_join(u, outer_union(u, x, r01),
                                  outer_union(u, x, r10)) == x


class TestOrderIsPartialOrder:
    def test_u1_exhaustive(self, u1, rels1):
        for r in rels1:
            assert leq(u1, r, r)
        for r, s in product(rels1, repeat=2):
            if leq(u1, r, s) and leq(u1, s, r):
                assert r == s
        for r, s, t in product(rels1, repeat=3):
            if leq(u1, r, s) and leq(u1, s, t):
                assert leq(u1, r, t)


class TestConstantAbsorption:
    def test_u1_u2(self, u1, rels1, u2, rels2):
        for u, rels in ((u1, rels1), (u2, rels2)):
            r00, r11 = constant(u, R00), constant(u, R11)
            r01, r10 = constant(u, R01), constant(u, R10)
            for x in rels:
                assert natural_join(u, x, r10) == r10
                assert inner_union(u, x, r01) == r01
                assert inner_join(u, x, r00) == r00
                assert outer_union(u, x, r11) == r11


class TestCylindrificationProperties:
    def test_u1_exhaustive(self, u1, rels1):
        at = lambda a, b: cylindrify(u1, a, b)
        for x, y in product(rels1, repeat=2):
            assert at(x, y) == at(y, x)
        for x in rels1:
            assert at(at(x, x), x) == at(x, x)
        for x, y, z in product(rels1, repeat=3):
            assert at(x, at(y, z)) == at(at(x, y), z)
            assert at(z, outer_union(u1, x, y)) == outer_union(u1, at(z, x), at(z, y))
            assert at(z, natural_join(u1, x, y)) == natural_join(u1, at(z, x), at(z, y))
            assert at(z, inner_union(u1, x, y)) == inner_union(u1, at(z, x), at(z, y))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_u2_sampled(self, u2, rels2, data):
        x = data.draw(st.sampled_from(rels2))
        y = data.draw(st.sampled_from(rels2))
        z = data.draw(st.sampled_from(rels2))
        at = lambda a, b: cylindrify(u2, a, b)
        assert at(x, y) == at(y, x)
        assert at(x, at(y, z)) == at(at(x, y), z)
        assert at(z, outer_union(u2, x, y)) == outer_union(u2, at(z, x), at(z, y))
        assert at(z, natural_join(u2, x, y)) == natural_join(u2, at(z, x), at(z, y))
        assert at(z, inner_union(u2, x, y)) == inner_union(u2, at(z, x), at(z, y))


class TestProject:
    def test_project_subset(self, u2):
        r = u2.relation(["t", "s"], [["a", "1"], ["b", "2"]])
        assert project(u2, r, ["t"]) == u2.relation(["t"], [["a"], ["b"]])

    def test_project_foreign_attr(self, u2):
        r = u2.relation(["t"], [["a"]])
        with pytest.raises(RelationError):
            project(u2, r, ["s"])

    def test_project_onto_iterator(self, u2):
        r = u2.relation(["t", "s"], [["a", "1"], ["b", "2"]])
        assert project(u2, r, iter(["s", "t"])) == r

    def test_project_unknown_attr(self, u2):
        r = u2.relation(["t", "s"], [["a", "1"]])
        with pytest.raises(RelationError):
            project(u2, r, ["zzz"])
