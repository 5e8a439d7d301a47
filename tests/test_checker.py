"""Enumeration, term evaluation, and the exhaustive/sampled checker."""

import random

import pytest

from rlattice import (
    ConstantKind,
    EnumerationBudgetError,
    EvaluationError,
    Exhaustive,
    RelationError,
    Sample,
    Universe,
    Verdict,
    check,
    constant,
    count_relations,
    enumerate_relations,
    evaluate,
    parse_statement,
    parse_term,
)
from rlattice import checker
from rlattice.checker import run_check
from rlattice.kernel import RelationKernel, carrier


class TestEnumeration:
    def test_u1_has_six(self, u1, rels1):
        assert count_relations(u1) == 6
        assert len(rels1) == 6

    def test_u2_has_twentysix(self, u2, rels2):
        assert count_relations(u2) == 26
        assert len(rels2) == 26

    def test_zero_attributes_has_two(self):
        u0 = Universe.make({})
        rels = enumerate_relations(u0)
        assert [r for r in rels] == [constant(u0, ConstantKind.R00),
                                     constant(u0, ConstantKind.R01)]

    def test_canonical_order_u1(self, u1, rels1):
        assert rels1[0] == constant(u1, ConstantKind.R00)
        assert rels1[1] == constant(u1, ConstantKind.R01)
        assert rels1[2] == constant(u1, ConstantKind.R10)
        assert rels1[3] == u1.relation(["t"], [["a"]])
        assert rels1[4] == u1.relation(["t"], [["b"]])
        assert rels1[5] == constant(u1, ConstantKind.R11)

    def test_no_duplicates(self, rels2):
        assert len(set(rels2)) == len(rels2)

    def test_budget_enforced(self, u2):
        with pytest.raises(EnumerationBudgetError):
            enumerate_relations(u2, budget=10)


class TestEvaluate:
    def test_join_with_r00_empties(self, u1):
        x = u1.relation(["t"], [["a"]])
        got = evaluate(u1, parse_term("x ^ R00"), {"x": x})
        assert got == u1.relation(["t"], [])

    def test_join_with_r11_fills(self, u1):
        x = u1.relation(["t"], [["a"]])
        got = evaluate(u1, parse_term("x v R11"), {"x": x})
        assert got == u1.relation(["t"], [["a"], ["b"]])

    def test_complement_of_r00(self, u1):
        assert evaluate(u1, parse_term("R00'"), {}) == constant(u1, ConstantKind.R01)

    def test_unbound_variable(self, u1):
        with pytest.raises(EvaluationError):
            evaluate(u1, parse_term("x ^ y"), {"x": constant(u1, ConstantKind.R00)})

    def test_literal_validated_at_evaluation(self, u1):
        with pytest.raises(RelationError):
            evaluate(u1, parse_term("{(t=zzz)}"), {})

    def test_literal_forms(self, u2):
        assert evaluate(u2, parse_term("empty(t,s)"), {}) == u2.relation(["t", "s"], [])
        assert evaluate(u2, parse_term("full(t)"), {}) == u2.relation(["t"], [["a"], ["b"]])


class TestCheckExhaustive:
    def test_commutativity_holds_36(self, u1):
        rep = check(u1, "x ^ y = y ^ x")
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == 36
        assert rep.witness is None

    def test_distributivity_refuted(self, u1):
        rep = check(u1, "x ^ (y v z) = (x ^ y) v (x ^ z)")
        assert rep.verdict is Verdict.REFUTED
        assert rep.assignments_tested <= 216
        assert rep.witness_text == {"x": "{(t=a)}", "y": "empty()", "z": "{(t=b)}"}

    def test_each_witness_code_decoded_once(self, u1, monkeypatch):
        decode, calls = RelationKernel.decode, []
        monkeypatch.setattr(RelationKernel, "decode",
                            lambda kernel, code: calls.append(code) or decode(kernel, code))
        rep = check(u1, "x ^ y != x")
        assert rep.witness_text == {"x": "empty()", "y": "empty()"}
        assert calls == [0]

    def test_refutation_witness_reevaluates_false(self, u1):
        stmt = parse_statement("x ^ (y v z) = (x ^ y) v (x ^ z)")
        rep = check(u1, stmt)
        lhs = evaluate(u1, stmt.lhs, rep.witness)
        rhs = evaluate(u1, stmt.rhs, rep.witness)
        assert lhs != rhs
        assert lhs == u1.relation(["t"], [["a"]])
        assert rhs == u1.relation(["t"], [])

    def test_inner_join_not_associative(self, u1):
        rep = check(u1, "(x * y) * z = x * (y * z)")
        assert rep.verdict is Verdict.REFUTED

    def test_order_statement(self, u1):
        assert check(u1, "x ^ y < x").verdict is Verdict.HOLDS
        assert check(u1, "x < x ^ y").verdict is Verdict.REFUTED

    def test_disjunction_text(self, u1, rels1):
        rep = check(u1, "x = R00 | x = R11")
        assert (rep.statement, rep.verdict, rep.witness) == (
            "x = R00 | x = R11", Verdict.REFUTED, {"x": rels1[1]})

    def test_implication_counts_premises(self, u1):
        rep = check(u1, "R00 ^ (x v y) = R00 ^ (x v z) -> x ^ (y v z) = (x ^ y) v (x ^ z)")
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == 216
        assert 0 < rep.premise_satisfying < 216

    def test_budget_exhaustion(self, u1):
        rep = check(u1, "x ^ y = y ^ x", Exhaustive(max_assignments=10))
        assert rep.verdict is Verdict.BUDGET_EXHAUSTED
        assert rep.assignments_tested == 10

    def test_zero_variable_statement(self, u1):
        rep = check(u1, "R00' = R01")
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == 1


class TestCheckSampled:
    def test_never_holds(self, u1):
        rep = check(u1, "x ^ y = y ^ x", Sample(seed=7, samples=500))
        assert rep.verdict is Verdict.BUDGET_EXHAUSTED
        assert rep.assignments_tested == 500

    def test_refutation_is_definitive(self, u1):
        stmt = parse_statement("x ^ (y v z) = (x ^ y) v (x ^ z)")
        rep = check(u1, stmt, Sample(seed=3, samples=5000))
        assert rep.verdict is Verdict.REFUTED
        assert evaluate(u1, stmt.lhs, rep.witness) != evaluate(u1, stmt.rhs, rep.witness)

    def test_seed_determinism(self, u1):
        a = check(u1, "x ^ (y v z) = (x ^ y) v (x ^ z)", Sample(seed=3, samples=5000))
        b = check(u1, "x ^ (y v z) = (x ^ y) v (x ^ z)", Sample(seed=3, samples=5000))
        assert a.witness == b.witness
        assert a.assignments_tested == b.assignments_tested


class TestDrawStream:
    """Sampled checks draw the `Random(seed).randrange(n)` stream.

    Carriers of up to 255 elements take it from bulk `getrandbits` calls,
    larger ones one draw per call; both must give the values `randrange`
    does, grouped `arity` at a time into assignments, including across
    the boundaries of bulk calls and when a refutation stops the stream.
    """

    # Each assignment's variables are looked up in the complement table
    # in order; the last statement stops at the first assignment with x != y.
    STATEMENTS = {1: "x' = x'", 2: "x' = x' & y' = y' -> x = y",
                  3: "x' = x' & y' = y' -> z' = z'"}

    @staticmethod
    def walked(n, seed, samples, arity):
        """The assignments a sampled check over `range(n)` walked, and its report."""
        seen = []

        class Recorder:  # the complement table: records each lookup
            def __getitem__(self, a):
                seen.append(a)
                return a
        rep = run_check(parse_statement(TestDrawStream.STATEMENTS[arity]),
                        carrier(n, (None, None, None, None, Recorder()), None, None),
                        Sample(seed, samples))
        return list(zip(*[iter(seen)] * arity)), rep

    @staticmethod
    def expected(n, seed, samples, arity):
        r = random.Random(seed)
        return [tuple(r.randrange(n) for _ in range(arity)) for _ in range(samples)]

    def assert_stream(self, n, seed, samples, arity):
        walked, rep = self.walked(n, seed, samples, arity)
        want = self.expected(n, seed, samples, arity)
        if arity == 2:  # stops after the first assignment with x != y
            stop = next((i for i, (x, y) in enumerate(want, 1) if x != y), None)
            if stop is not None:
                want = want[:stop]
                assert rep.verdict is Verdict.REFUTED
                assert rep.witness == dict(zip("xy", want[-1]))
        assert walked == want, (n, seed, arity)
        assert rep.assignments_tested == len(want)

    @pytest.mark.parametrize("words", [1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 20110604])
    def test_every_carrier_size(self, monkeypatch, words, seed):
        # Few words per bulk call, so that short streams cross many calls.
        monkeypatch.setattr(checker, "_DRAW_WORDS", words)
        for n in range(1, 301):
            for arity in (1, 2, 3):
                self.assert_stream(n, seed, 25, arity)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_bulk_calls(self, seed):
        # Over 3,000 draws: more than two bulk calls of the default size.
        for n in (1, 2, 3, 26, 127, 128, 129, 255, 256, 300):
            for arity in (1, 3):
                self.assert_stream(n, seed, 3100 // arity, arity)

    def test_early_refutation_on_default_size(self):
        # u2's 26 relations: the stream stops long before the first bulk call is used up.
        walked, rep = self.walked(26, 3, 1000, 2)
        assert rep.verdict is Verdict.REFUTED and len(walked) < 10


class TestReports:
    def test_byte_identical_without_timing(self, u1):
        a = check(u1, "x ^ (y v z) = (x ^ y) v (x ^ z)").to_json()
        b = check(u1, "x ^ (y v z) = (x ^ y) v (x ^ z)").to_json()
        assert a == b

    def test_timing_opt_in(self, u1):
        rep = check(u1, "x ^ y = y ^ x")
        assert "elapsed_ms" not in rep.document()
        assert "elapsed_ms" in rep.document(timing=True)

    def test_document_fields(self, u1):
        doc = check(u1, "x ^ (y v z) = (x ^ y) v (x ^ z)").document()
        assert doc["verdict"] == "REFUTED"
        assert doc["witness"] == {"x": "{(t=a)}", "y": "empty()", "z": "{(t=b)}"}
        assert doc["mode"] == {"kind": "exhaustive"}

    def test_sample_mode_in_document(self, u1):
        doc = check(u1, "x = x", Sample(seed=5, samples=10)).document()
        assert doc["mode"] == {"kind": "sample", "seed": 5, "samples": 10}


class TestGenericEngine:
    def test_runs_over_plain_integers(self):
        # model-style carrier: two elements with min/max tables, flat a*2+b
        meet = (0, 0, 0, 1)
        join = (0, 1, 1, 1)

        def leaf(t):
            raise AssertionError("no constants here")

        rep = run_check(parse_statement("x ^ y = y ^ x"),
                        carrier(2, (meet, join, (), (), (1, 0)), None, leaf))
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == 4
