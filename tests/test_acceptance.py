"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS` line on success; a failed
assertion reads as the criterion's FAIL with pytest's diagnostics.  The
two model searches in criterion 8 are the only long-running checks and
carry their stated wall-clock budgets.
"""

import json
import random
from dataclasses import replace
from itertools import product

from rlattice import (
    ConstantKind,
    Exhaustive,
    Verdict,
    check,
    complement,
    constant,
    enumerate_relations,
    evaluate,
    inner_join,
    inner_join_pointfree,
    inner_union,
    minimal_axioms,
    model_from_universe,
    natural_join,
    outer_union,
    outer_union_pointfree,
    parse_statement,
    run_suite,
    search_model,
    suite_catalog,
    verify_model,
)
from rlattice import models
from rlattice.suites import discriminate_fd_reading
from rlattice.universe import DEFAULT_FD_READING, FdReading

from conftest import carrier_of
from test_compile import ROW_FORMS, U23, model_of, takes_rows
from test_models import COMP6, JOIN6, LITERAL_FREE, MEET6, RELABEL6, assert_bound_as_fresh, flat

THEOREM_SUITES = ("outer-inner", "bilattice", "complement", "nand",
                  "minimal12", "cond-dist", "cylindric", "appendixA")

DISTRIBUTIVITY = "x ^ (y v z) = (x ^ y) v (x ^ z)"
ZERO_ARY_GOAL = "x v R00 = R00 | x v R00 = R00'"


def note(n, text):
    print(f"criterion {n}: PASS — {text}")


def test_criterion_01_enumeration_counts(u1, u2):
    assert len(enumerate_relations(u1)) == 6
    assert len(enumerate_relations(u2)) == 26
    note(1, "6 relations over one binary attribute, 26 over two")


def test_criterion_02_six_element_model_reproduction(u1):
    m = model_from_universe(u1).relabel(RELABEL6)
    assert m.meet[5 * 6 + 2] == 4
    assert m.r00 == 0 and m.r11 == 1
    assert (m.meet, m.join, m.comp) == (flat(MEET6), flat(JOIN6), COMP6)
    for rep in verify_model(m, minimal_axioms()):
        assert rep.verdict is Verdict.HOLDS, rep.statement
    assert verify_model(m, [DISTRIBUTIVITY])[0].verdict is Verdict.REFUTED
    note(2, "bridge model matches the reference six-element tables, "
            "satisfies the twelve axioms, refutes distributivity")


def test_criterion_03_distributivity_refutation(u1):
    stmt = parse_statement(DISTRIBUTIVITY)
    rep = check(u1, stmt)
    assert rep.verdict is Verdict.REFUTED
    assert rep.assignments_tested <= 216
    lhs = evaluate(u1, stmt.lhs, rep.witness)
    rhs = evaluate(u1, stmt.rhs, rep.witness)
    assert lhs != rhs
    assert rep.witness_text == {"x": "{(t=a)}", "y": "empty()", "z": "{(t=b)}"}
    assert lhs == u1.relation(["t"], [["a"]])
    assert rhs == u1.relation(["t"], [])
    note(3, f"refuted after {rep.assignments_tested} assignments; "
            "witness sides are {(t=a)} vs empty(t)")


def test_criterion_04_theorem_suites():
    for name in THEOREM_SUITES:
        report = run_suite(name)
        assert report.ok, "\n".join(report.lines())
        for res in report.results:
            for uid, rep in res.reports:
                if isinstance(rep.mode, Exhaustive):
                    continue
                assert rep.mode.samples >= 100_000
                assert rep.verdict is not Verdict.REFUTED or res.entry.expected is Verdict.REFUTED
    note(4, f"{len(THEOREM_SUITES)} suites report expected=actual over both universes")


def test_criterion_05_broken_laws(u1, u2):
    report = run_suite("broken-laws")
    assert report.ok
    universes = {"u1": u1, "u2": u2}
    for res in report.results:
        refuting = [(uid, rep) for uid, rep in res.reports
                    if rep.verdict is Verdict.REFUTED]
        assert refuting, res.entry.id
        for uid, rep in refuting:
            stmt = res.entry.statement
            u = universes[uid]
            assert evaluate(u, stmt.lhs, rep.witness) != evaluate(u, stmt.rhs, rep.witness)
    note(5, "all five broken laws refuted with witnesses that re-evaluate unequal")


def test_criterion_06_dual_definitions(u2, rels2):
    mismatches = 0
    for r, s in product(rels2, repeat=2):
        if inner_join(u2, r, s) != inner_join_pointfree(u2, r, s):
            mismatches += 1
        if outer_union(u2, r, s) != outer_union_pointfree(u2, r, s):
            mismatches += 1
    assert mismatches == 0
    note(6, "point-wise and point-free forms agree on all 676 pairs")


def test_criterion_07_complement_axioms(u2, rels2):
    r00, r11 = constant(u2, ConstantKind.R00), constant(u2, ConstantKind.R11)
    for x in rels2:
        xc = complement(u2, x)
        assert natural_join(u2, xc, x) == natural_join(u2, x, r00)
        assert inner_union(u2, xc, x) == inner_union(u2, x, r11)
        assert complement(u2, xc) == x
    note(7, "both defining axioms and involution hold for all 26 relations")


def assert_rows_as_scalar(monkeypatch, model, statements):
    """`verify_model` reports on `model`, and on the first call of an equal
    model, which keeps its tables and rows whole, as tuples, what it
    reports on an equal model that is given no row tables.  On the
    78-element model of the 2x3 universe, past that layout's size rule,
    each statement's first call reads rows only if its loops take them."""
    got = [rep.to_json() for rep in verify_model(model, statements)]
    for statement, want in zip(statements, got):
        first = replace(model)
        assert verify_model(first, [statement])[0].to_json() == want
        kept = carrier_of(first)
        assert all(type(t) is tuple for t in (*kept.tables, *kept.rows)), statement
        big = replace(model_of(U23))
        verify_model(big, [statement])
        assert any(carrier_of(big).rows) == takes_rows(statement), statement
    scalar = replace(model)
    with monkeypatch.context() as m:
        m.setattr(models, "row_tables", lambda tables, n: None)
        assert [rep.to_json() for rep in verify_model(scalar, statements)] == got
    assert carrier_of(scalar).rows is None  # so no statement read a row


def test_criterion_08_model_search(monkeypatch):
    axioms = minimal_axioms()
    laws = ["x ^ y ^ z = x ^ (y ^ z)", "x ^ (y' ^ z')' = ((x ^ y)' ^ (x ^ z)')'", *ROW_FORMS]

    out = search_model(axioms, [DISTRIBUTIVITY], range(2, 7), budget=600)
    assert out.found and out.size == 6
    assert out.sizes_excluded == (2, 3, 4, 5)
    for rep in verify_model(out.model, axioms):
        assert rep.verdict is Verdict.HOLDS
    assert verify_model(out.model, [DISTRIBUTIVITY])[0].verdict is Verdict.REFUTED
    assert_rows_as_scalar(monkeypatch, out.model, axioms + [DISTRIBUTIVITY] + laws)
    assert_bound_as_fresh(out.model, LITERAL_FREE)

    out4 = search_model(axioms, [ZERO_ARY_GOAL], range(2, 5), budget=600)
    assert out4.found and out4.size == 4
    assert_rows_as_scalar(monkeypatch, out4.model, axioms + [ZERO_ARY_GOAL] + laws)
    assert_bound_as_fresh(out4.model, LITERAL_FREE)

    constrained = axioms + ["R00 ^ R11 != R00"]
    out8 = search_model(constrained, [ZERO_ARY_GOAL], range(2, 9), budget=1800)
    assert out8.found and out8.size == 8
    assert out8.sizes_excluded == (2, 3, 4, 5, 6, 7)
    assert_rows_as_scalar(monkeypatch, out8.model, constrained + [ZERO_ARY_GOAL] + laws)
    assert_bound_as_fresh(out8.model, LITERAL_FREE)
    note(8, "countermodel sizes: distributivity 6 (none below), zero-ary goal 4, "
            "with the incompatibility postulate 8 (none through 7)")


def test_criterion_09_bridge_soundness(u1):
    m = model_from_universe(u1)
    entries = [e for entries in suite_catalog().values() for e in entries]
    rng = random.Random(20080521)
    picked = rng.sample(entries, 50)
    mismatches = []
    for entry in picked:
        concrete = check(u1, entry.statement).verdict
        abstract = verify_model(m, [entry.statement])[0].verdict
        if concrete is not abstract:
            mismatches.append(entry.id)
    assert not mismatches, mismatches
    note(9, "50 sampled statements agree between concrete checks and the bridge model")


def test_criterion_10_fd_discrimination():
    disc = discriminate_fd_reading()
    survivors = disc.survivors
    assert survivors, "no reading satisfies all three dependency laws"
    assert DEFAULT_FD_READING in survivors
    all_meet = disc.row(FdReading("^", "^"))
    assert all_meet.verdicts["reflexivity"]["u1"] is Verdict.REFUTED
    note(10, f"surviving readings: {[r.name for r in survivors]}; "
             "default ships as one of them; all-meet fails reflexivity")


def test_criterion_11_sdc(u1, u2):
    sdc = "R00 ^ (x v y) = R00 ^ (x v z) -> x ^ (y v z) = (x ^ y) v (x ^ z)"
    for u, space in ((u1, 216), (u2, 17576)):
        rep = check(u, sdc)
        assert rep.verdict is Verdict.HOLDS
        assert rep.assignments_tested == space
        assert 0 < rep.premise_satisfying < space
    note(11, "conditional distributivity holds exhaustively over both universes")


def test_criterion_12_determinism(u1, u2):
    for u, stmt in ((u1, DISTRIBUTIVITY), (u1, "x ^ y = y ^ x"),
                    (u2, "x' + y' = (x ^ y)'")):
        first = check(u, stmt).to_json()
        second = check(u, stmt).to_json()
        assert first == second
        json.loads(first)
    note(12, "repeated exhaustive checks serialize byte-identically")
