"""Law catalog: registered suites, the reading harness, and coverage."""

from unittest import mock

import pytest

from rlattice import terms
from rlattice import (
    Verdict,
    check,
    discriminate_fd_reading,
    export_suites,
    parse_statement,
    parse_statement_file,
    run_suite,
    suite_catalog,
)
from rlattice.suites import (
    ALL_FD_READINGS,
    SUITE_NAMES,
    UnknownSuiteError,
    fd_law_texts,
    minimal_axioms,
)
from rlattice.universe import DEFAULT_FD_READING, FdReading

# Checklist of the law formulas the catalog must carry, with the suite
# designated to carry each.  The audit below keeps the catalog from
# silently losing or corrupting entries.
INVENTORY = [
    # outer union and inner join development
    ("(x + y) + z = x + (y + z)", "outer-inner"),
    ("x ^ (y + z) = (x ^ y) + (x ^ z)", "outer-inner"),
    ("x * (x + y) = x", "outer-inner"),
    ("x + (x * y) = x", "outer-inner"),          # struck: expected REFUTED
    ("(x * y) * z = x * (y * z)", "outer-inner"),  # struck: expected REFUTED
    ("x * R00 = R00", "outer-inner"),
    ("x * R11 = x", "outer-inner"),
    ("x + R00 = x", "outer-inner"),
    ("x + R11 = R11", "outer-inner"),
    # the two-lattice axiom block
    ("x ^ y = y ^ x", "bilattice"),
    ("(x ^ y) ^ z = x ^ (y ^ z)", "bilattice"),
    ("x ^ (x v y) = x", "bilattice"),
    ("x v y = y v x", "bilattice"),
    ("(x v y) v z = x v (y v z)", "bilattice"),
    ("x v (x ^ y) = x", "bilattice"),
    ("x * x = x", "bilattice"),
    ("x * y = y * x", "bilattice"),
    ("x + x = x", "bilattice"),
    ("x + y = y + x", "bilattice"),
    ("x ^ R10 = R10", "bilattice"),
    ("x v R01 = R01", "bilattice"),
    ("x * R00 = R00", "bilattice"),
    ("x + R11 = R11", "bilattice"),
    ("x * y = (x v (y ^ R00)) ^ (y v (x ^ R00))", "bilattice"),
    ("x + y = (x ^ (y v R11)) v (y ^ (x v R11))", "bilattice"),
    ("x ^ y = (x + (y * R10)) * (y + (x * R10))", "bilattice"),
    ("x v y = (x * (y + R01)) + (y * (x + R01))", "bilattice"),
    ("x ^ (y + z) = (x ^ y) + (x ^ z)", "bilattice"),
    ("x + (y ^ z) = (x + y) ^ (x + z)", "bilattice"),
    ("x = (x ^ R00) v (x ^ R11)", "bilattice"),
    ("x = (x + R01) * (x + R10)", "bilattice"),
    ("R00 ^ (x v R11) = x ^ R00", "bilattice"),
    ("R01 + (x * R10) = x + R01", "bilattice"),
    # complement block
    ("x'' = x", "complement"),
    ("x' + y' = (x ^ y)'", "complement"),
    ("(x + R01)' = x ^ R00", "complement"),
    ("(x * R10)' = x v R11", "complement"),
    ("(x ^ R00)' = x v R11", "complement"),
    ("(x + R01)' = x * R10", "complement"),
    ("R11' = R10", "complement"),
    ("R00' = R01", "complement"),
    # nand basis
    ("x ^ y = ((x ^ y)' ^ (x ^ y)')'", "nand"),
    ("x + y = ((x ^ x)' ^ (y ^ y)')'", "nand"),
    ("x' = (x ^ x)'", "nand"),
    # twelve-axiom system and its consistency goal
    ("x ^ y = y ^ x", "minimal12"),
    ("(x ^ y) ^ z = x ^ (y ^ z)", "minimal12"),
    ("x ^ (x v y) = x", "minimal12"),
    ("x v y = y v x", "minimal12"),
    ("(x v y) v z = x v (y v z)", "minimal12"),
    ("x v (x ^ y) = x", "minimal12"),
    ("x = (x ^ R00) v (x ^ R11)", "minimal12"),
    ("(x v (y ^ R00)) ^ (y v (x ^ R00)) = (x ^ y) v ((x v y) ^ R00)", "minimal12"),
    ("x ^ (y' ^ z')' = ((x ^ y)' ^ (x ^ z)')'", "minimal12"),
    ("R00 ^ (x ^ (y v z)) = R00 ^ ((x ^ y) v (x ^ z))", "minimal12"),
    ("x' ^ x = x ^ R00", "minimal12"),
    ("x' v x = x v R11", "minimal12"),
    ("x ^ (y v z) = (x ^ y) v (x ^ z)", "minimal12"),
    # conditional distributivity
    ("R00 ^ (x v y) = R00 ^ (x v z) -> x ^ (y v z) = (x ^ y) v (x ^ z)", "cond-dist"),
    ("R00 ^ y = R00 ^ z -> x ^ (y v z) = (x ^ y) v (x ^ z)", "cond-dist"),
    ("R11 ^ y = R11 ^ z -> x ^ (y v z) = (x ^ y) v (x ^ z)", "cond-dist"),
    # dependency theory
    ("r v x < s v x & s v y < s v y & x < y -> r v x < s v y", "dependencies"),
    # cylindrification properties
    ("x @ x = x v R11", "cylindric"),
    ("(x @ x) @ x = x @ x", "cylindric"),
    ("z @ (x ^ (z @ y)) = z @ (x ^ (z @ y))", "cylindric"),
    ("x @ y = y @ x", "cylindric"),
    ("z @ (x + y) = (z @ x) + (z @ y)", "cylindric"),
    ("z @ (x ^ y) = (z @ x) ^ (z @ y)", "cylindric"),
    ("z @ (x v y) = (z @ x) v (z @ y)", "cylindric"),
    ("x @ (y @ z) = (x @ y) @ z", "cylindric"),
    # augmentation proof chain
    ("R00 ^ (z' ^ (y' v R11)) = R00 ^ (y' ^ (z' v R11))", "appendixA"),
    # the consistency goal again, as a broken law
    ("x ^ (y v z) = (x ^ y) v (x ^ z)", "broken-laws"),
    ("x + (y v z) = (x + y) v (x + z)", "broken-laws"),
    ("x v (y + z) = (x v y) + (x v z)", "broken-laws"),
    ("(x * y) * z = x * (y * z)", "broken-laws"),
    ("x + (x * y) = x", "broken-laws"),
]


class TestCatalogShape:
    def test_all_suites_registered(self):
        assert set(SUITE_NAMES) == {
            "outer-inner", "bilattice", "complement", "nand", "minimal12",
            "cond-dist", "dependencies", "cylindric", "appendixA", "broken-laws",
        }

    def test_ids_unique_within_suite(self):
        for name, entries in suite_catalog().items():
            ids = [e.id for e in entries]
            assert len(set(ids)) == len(ids), name

    def test_statements_parse(self):
        for entries in suite_catalog().values():
            for e in entries:
                e.statement  # must not raise

    def test_no_unexpected_duplicate_statements(self):
        # the outer-union definition appears twice in the source; everything
        # else must be unique within its suite
        allowed = {("bilattice", "def-plus"), ("bilattice", "plus-alternative-def")}
        for name, entries in suite_catalog().items():
            seen = {}
            for e in entries:
                key = e.statement
                if key in seen:
                    assert {(name, seen[key]), (name, e.id)} == allowed
                seen[key] = e.id

    def test_minimal_axioms_are_twelve(self):
        assert len(minimal_axioms()) == 12


class TestCoverageAudit:
    def test_every_inventory_formula_has_its_entry(self):
        catalog = suite_catalog()
        for text, suite in INVENTORY:
            target = parse_statement(text)
            statements = [e.statement for e in catalog[suite]]
            assert target in statements, f"{suite} lost: {text}"

    def test_reading_dependent_entries_follow_the_reading(self):
        laws = fd_law_texts(DEFAULT_FD_READING)
        deps = {e.id: e.text for e in suite_catalog()["dependencies"]}
        assert deps["fd-reflexivity"] == laws["reflexivity"]
        assert deps["fd-transitivity"] == laws["transitivity"]
        assert deps["fd-augmentation"] == laws["augmentation"]


class TestRunSuite:
    def test_complement_suite_ok(self):
        report = run_suite("complement")
        assert report.ok
        assert len(report.results) == 8

    def test_catalog_parsed_once(self):
        first = run_suite("complement")
        with mock.patch.object(terms, "parse_statement", side_effect=AssertionError("parsed")):
            again = run_suite("complement")
        assert suite_catalog() is suite_catalog()
        assert [r.entry.statement for r in again.results] == [
            parse_statement(r.entry.text) for r in first.results]

    def test_broken_laws_all_refuted(self):
        report = run_suite("broken-laws")
        assert report.ok
        for res in report.results:
            assert any(rep.verdict is Verdict.REFUTED for _, rep in res.reports)

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("no-such-suite")

    @pytest.mark.parametrize("name", ["nand", "broken-laws"])
    def test_empty_universe_mapping_refused(self, name):
        with pytest.raises(UnknownSuiteError, match="no universe given"):
            run_suite(name, {})

    def test_sampling_fallback(self):
        # with a tiny exhaustive limit everything runs sampled; expected-HOLDS
        # entries still pass because sampling finds no witness
        report = run_suite("cond-dist", exhaustive_limit=10, samples=2000)
        assert report.ok
        for res in report.results:
            for _, rep in res.reports:
                assert rep.verdict is Verdict.BUDGET_EXHAUSTED

    def test_report_lines(self):
        lines = run_suite("nand").lines()
        assert lines[0].startswith("suite nand: ok")
        assert len(lines) == 4

    def test_restricted_universes(self, u1):
        report = run_suite("complement", universes={"u1": u1})
        assert report.ok
        for res in report.results:
            assert [uid for uid, _ in res.reports] == ["u1"]


class TestNinthAxiomVariant:
    def test_stored_form_holds_but_short_variant_is_refuted(self, u1):
        # The ninth axiom is stored in the expanded complement form; the
        # variant that drops two complement marks does not survive concrete
        # evaluation, which is why it is not the stored form.
        stored = "x ^ (y' ^ z')' = ((x ^ y)' ^ (x ^ z)')'"
        short_variant = "x ^ (y' ^ z)' = (x ^ y)' ^ (x ^ z)'"
        assert check(u1, stored).verdict is Verdict.HOLDS
        assert check(u1, short_variant).verdict is Verdict.REFUTED


class TestInclusionTransitivity:
    def test_both_premise_forms_hold(self, u1):
        report = run_suite("dependencies", universes={"u1": u1})
        by_id = {res.entry.id: res for res in report.results}
        assert by_id["inclusion-transitive-literal"].ok
        assert by_id["inclusion-transitive-variant"].ok


class TestDiscrimination:
    def test_default_reading_survives(self):
        disc = discriminate_fd_reading()
        assert DEFAULT_FD_READING in disc.survivors

    def test_all_meet_reading_fails_reflexivity(self):
        disc = discriminate_fd_reading()
        row = disc.row(FdReading("^", "^"))
        assert row.verdicts["reflexivity"]["u1"] is Verdict.REFUTED

    def test_candidate_space(self):
        assert len(ALL_FD_READINGS) == 9
        assert len(set(ALL_FD_READINGS)) == 9


class TestExport:
    def test_files_reparse(self, tmp_path):
        paths = export_suites(str(tmp_path))
        assert len(paths) == len(SUITE_NAMES) + 1  # plus the bare axioms file
        catalog = suite_catalog()
        for path in paths:
            name = path.rsplit("/", 1)[1].removesuffix(".stmt")
            with open(path, encoding="utf-8") as fh:
                statements = parse_statement_file(fh.read())
            if name == "minimal12-axioms":
                assert statements == [parse_statement(t) for t in minimal_axioms()]
            else:
                assert statements == [e.statement for e in catalog[name]]
