"""Command-line interface: flags, exit codes, and deterministic output."""

import json
import time

import pytest

from rlattice import (ConstantKind, Universe, load_model, minimal_axioms, models, parse_model,
                      search_model)
from rlattice import kernel
from rlattice.cli import main
from rlattice.kernel import RelationKernel

U1_TEXT = "t : a, b\n"
U2_TEXT = "t : a, b\ns : 1, 2\n"


@pytest.fixture
def u1_file(tmp_path):
    path = tmp_path / "u1.univ"
    path.write_text(U1_TEXT)
    return str(path)


@pytest.fixture
def u2_file(tmp_path):
    path = tmp_path / "u2.univ"
    path.write_text(U2_TEXT)
    return str(path)


class TestCheck:
    def test_holds_exit_zero(self, u1_file, capsys):
        code = main(["check", "-u", u1_file, "-e", "x ^ y = y ^ x"])
        assert code == 0
        assert "verdict: HOLDS" in capsys.readouterr().out

    def test_refuted_exit_one_with_witness(self, u1_file, capsys):
        code = main(["check", "-u", u1_file, "-e", "x ^ (y v z) = (x ^ y) v (x ^ z)"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: REFUTED" in out
        assert "x = {(t=a)}" in out
        assert "y = empty()" in out

    def test_implication_prints_premise_count(self, u2_file, capsys):
        assert main(["check", "-u", u2_file, "-e", "x v R00 != x -> x ^ y' != R11"]) == 1
        assert capsys.readouterr().out == (
            "statement: x v R00 != x -> x ^ y' != R11\n"
            "verdict: REFUTED\n"
            "witness:\n"
            "  x = {(t=a),(t=b)}\n"
            "  y = empty(s)\n"
            "assignments tested: 137\n"
            "premise-satisfying: 85\n"
            "mode: exhaustive\n")

    def test_statement_file(self, u1_file, tmp_path, capsys):
        stmt = tmp_path / "laws.stmt"
        stmt.write_text("# two laws\nx ^ y = y ^ x\nx v y = y v x\n")
        assert main(["check", "-u", u1_file, "-f", str(stmt)]) == 0

    def test_comment_only_universe_as_empty(self, tmp_path, capsys):
        """A universe file whose lines are all comments is the zero-attribute
        universe, as an empty file is: the same reports and exit codes."""
        empty, comments = tmp_path / "empty.univ", tmp_path / "comments.univ"
        empty.write_text("")
        comments.write_text("# t : a, b\n  # nothing declared\n")
        outputs = []
        for path in (empty, comments):
            codes = [main(["check", "-u", str(path), "-e", law]) for law in
                     ("x ^ y = y ^ x", "x = R00", "x v R00 = R00 | x v R00 = R00'")]
            outputs.append((codes, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == [0, 1, 0] and "verdict: REFUTED" in outputs[0][1].out

    def test_structured_deterministic(self, u1_file, capsys):
        args = ["check", "-u", u1_file, "-e", "x ^ (y v z) = (x ^ y) v (x ^ z)",
                "--format", "structured"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["reports"][0]["verdict"] == "REFUTED"

    @pytest.mark.parametrize("first", ["x ^ y = y ^ x", "x v (y ^ z) = (x v y) ^ (x v z)"])
    def test_repeated_statement_as_file(self, u2_file, tmp_path, capsys, first):
        """Each `-e` is checked, in order, with the exit code and output of
        a file holding the same statements."""
        texts = [first, "x ^ y = y ^ x"]
        stmt = tmp_path / "two.stmt"
        stmt.write_text("\n".join(texts) + "\n")
        out = []
        for source in (["-e", texts[0], "-e", texts[1]], ["-f", str(stmt)]):
            out.append((main(["check", "-u", u2_file, *source, "--format", "structured"]),
                        capsys.readouterr().out))
        assert out[0] == out[1]
        assert [r["statement"] for r in json.loads(out[0][1])["reports"]] == texts
        assert out[0][0] == (1 if "(" in first else 0)

    def test_statement_and_file_exit_three(self, u1_file, tmp_path, capsys):
        stmt = tmp_path / "one.stmt"
        stmt.write_text("x = x\n")
        assert main(["check", "-u", u1_file, "-e", "x = x", "-f", str(stmt)]) == 3
        assert main(["verify-model", "-m", "none.model", "-e", "x = x", "-f", str(stmt)]) == 3

    def test_sample_mode(self, u1_file, capsys):
        code = main(["check", "-u", u1_file, "-e", "x ^ y = y ^ x",
                     "--mode", "sample", "--seed", "5", "--samples", "50"])
        assert code == 2  # sampling never promotes to HOLDS

    def test_parse_error_exit_three(self, u1_file, capsys):
        assert main(["check", "-u", u1_file, "-e", "x ^ y v z = x"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path, capsys):
        assert main(["check", "-u", str(tmp_path / "nope.univ"), "-e", "x = x"]) == 3

    def test_usage_error_exit_three(self, capsys):
        assert main(["check"]) == 3

    def test_non_utf8_universe_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bin.univ"
        path.write_bytes(b"t : a, \xff\xfe\n")
        assert main(["check", "-u", str(path), "-e", "x = x"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_word_universe_exit_three(self, tmp_path, capsys):
        path = tmp_path / "dash.univ"
        path.write_text("a-b : x, 1\n")
        assert main(["check", "-u", str(path), "-e", "x = x"]) == 3
        assert "not a word" in capsys.readouterr().err

    def test_non_utf8_statement_file_exit_three(self, u1_file, tmp_path, capsys):
        path = tmp_path / "bin.stmt"
        path.write_bytes(b"x = x\n\x80\n")
        assert main(["check", "-u", u1_file, "-f", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_deep_term_exit_three(self, u1_file, capsys):
        assert main(["check", "-u", u1_file, "-e", " v ".join(["x"] * 900) + " = x"]) == 3
        assert "nested deeper" in capsys.readouterr().err


class TestEnumerate:
    def test_count(self, u1_file, capsys):
        assert main(["enumerate", "-u", u1_file]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_listing(self, u2_file, capsys):
        assert main(["enumerate", "-u", u2_file, "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "26"
        assert "empty()" in out


class TestOptions:
    """Each subcommand takes only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--format", "structured"],
        ["enumerate", "--timing"],
        ["suite", "nand", "--timing"],
    ])
    def test_unread_option_exit_three(self, u1_file, capsys, argv):
        assert main([*argv, "-u", u1_file]) == 3
        assert capsys.readouterr().err.startswith("usage: rlattice")

    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--timing"], "rlattice: error: unrecognized arguments: --timing"),
        (["check"], "rlattice check: error: one of the arguments -e/--statement -f/--file "
                    "is required"),
    ])
    def test_usage_error_names_what_was_wrong(self, u1_file, capsys, argv, message):
        assert main([*argv, "-u", u1_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: rlattice") and err.endswith(f"\n{message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["check", "-e", "x = x", "--mode", "sample", "--samples", "-5"],
         "rlattice check: error: argument --samples: must be at least 0, got '-5'"),
        (["search", "-f", "none.stmt", "-e", "x = y", "--budget", "-1"],
         "rlattice search: error: argument --budget: must be at least 0, got '-1'"),
        (["search", "-f", "none.stmt", "-e", "x = y", "--budget", "nan"],
         "rlattice search: error: argument --budget: must be at least 0, got 'nan'"),
    ])
    def test_negative_count_or_budget_exit_three(self, capsys, argv, message):
        assert main(argv) == 3  # refused as it is read, before any file is opened
        assert capsys.readouterr().err.endswith(f"\n{message}\n")

    def test_enumerate_output_file(self, u1_file, tmp_path, capsys):
        out = tmp_path / "count.txt"
        assert main(["enumerate", "-u", u1_file, "-o", str(out)]) == 0
        assert out.read_text() == "6\n"

    def test_search_output_help_names_the_model(self, capsys):
        assert main(["search", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "-o FILE, --output FILE write a found model to a model file" in help_text


class TestSuite:
    def test_broken_laws_ok(self, u1_file, u2_file, capsys):
        code = main(["suite", "broken-laws", "-u", u1_file, "-u", u2_file])
        assert code == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_structured(self, u1_file, capsys):
        code = main(["suite", "nand", "-u", u1_file, "--format", "structured"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["entries"]) == 3

    def test_builtin_universes(self, capsys):
        assert main(["suite", "complement"]) == 0

    def test_list_suites(self, capsys):
        assert main(["suite", "--list-suites"]) == 0
        assert "bilattice" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys):
        out_dir = tmp_path / "exported"
        assert main(["suite", "--export", str(out_dir)]) == 0
        assert (out_dir / "minimal12.stmt").exists()

    def test_unknown_suite_exit_three(self, capsys):
        assert main(["suite", "bogus"]) == 3

    def test_no_suite_name_exit_three(self, capsys):
        assert main(["suite"]) == 3
        assert "suite name required" in capsys.readouterr().err

    def test_repeated_universe_id_exit_three(self, tmp_path, u1_file, capsys):
        # Two files with one base name would otherwise run the second only.
        (tmp_path / "other").mkdir()
        other = tmp_path / "other" / "u1.univ"
        other.write_text("t : a, b, c\n")
        assert main(["suite", "bilattice", "-u", u1_file, "-u", str(other)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: universe id 'u1' is the base name of both "
                                     f"{u1_file} and {other}\n")

    def test_universe_id_no_entry_runs_on_exit_three(self, tmp_path, u2_file, capsys):
        # The id is the file's base name; an id no entry runs on would
        # otherwise check nothing and report every HOLDS entry as ok.
        mine = tmp_path / "mine.univ"
        mine.write_text(U1_TEXT)
        assert main(["suite", "nand", "-u", str(mine)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'mine'" in err and "ids are u1, u2\n" in err
        assert main(["suite", "dependencies", "-u", u2_file]) == 3
        assert "'u2'; its universe ids are u1\n" in capsys.readouterr().err


class TestBridgeAndVerify:
    def test_bridge_then_verify(self, u1_file, tmp_path, capsys):
        model_file = str(tmp_path / "m6.model")
        assert main(["bridge", "-u", u1_file, "-o", model_file]) == 0
        assert load_model(model_file).size == 6

        stmt_file = tmp_path / "minimal12.stmt"
        stmt_file.write_text("\n".join(minimal_axioms()) + "\n")
        assert main(["verify-model", "-m", model_file, "-f", str(stmt_file)]) == 0

    @pytest.mark.parametrize("text", [U1_TEXT, U2_TEXT, "t : a, b\ns : 1, 2, 3\n"],
                             ids=["u1", "u2", "2x3"])
    def test_bridge_file_rows(self, text, tmp_path, capsys, monkeypatch):
        universe, model_file = tmp_path / "u.univ", tmp_path / "m.model"
        universe.write_text(text)
        assert main(["bridge", "-u", str(universe), "-o", str(model_file)]) == 0
        # The file as rows of codes, rebuilt from a kernel's tables filled
        # one pair at a time, not by the bridge's block routine.
        monkeypatch.setattr(kernel, "WHOLE_PAIRS", 0)
        k = RelationKernel(Universe.load(str(universe)))
        codes = range(k.n)
        meet, join, _, _, comp = k.tables()
        row = lambda table, a: " ".join(str(table[a * k.n + b]) for b in codes)
        expected = [f"size {k.n}", "meet:", *(row(meet, a) for a in codes),
                    "join:", *(row(join, a) for a in codes),
                    "complement:", " ".join(str(comp[a]) for a in codes),
                    f"R00 = {k.const(ConstantKind.R00)}", f"R11 = {k.const(ConstantKind.R11)}"]
        assert model_file.read_text() == "\n".join(expected) + "\n"

    def test_verify_refuted_exit_one(self, u1_file, tmp_path, capsys):
        model_file = str(tmp_path / "m6.model")
        main(["bridge", "-u", u1_file, "-o", model_file])
        code = main(["verify-model", "-m", model_file,
                     "-e", "x ^ (y v z) = (x ^ y) v (x ^ z)"])
        assert code == 1

    def test_verify_repeated_statement(self, u1_file, tmp_path, capsys):
        """`verify-model -e A -e B` reports both; the refuted first sets the exit code."""
        model_file = str(tmp_path / "m6.model")
        main(["bridge", "-u", u1_file, "-o", model_file])
        capsys.readouterr()
        code = main(["verify-model", "-m", model_file, "-e", "x ^ (y v z) = (x ^ y) v (x ^ z)",
                     "-e", "x ^ y = y ^ x"])
        out = capsys.readouterr().out
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("verdict")] == [
            "verdict: REFUTED", "verdict: HOLDS"]

    def test_too_many_pairs_exit_three(self, tmp_path, capsys):
        universe = tmp_path / "u4.univ"
        universe.write_text("".join(f"{name} : 0, 1\n" for name in "abcd"))
        model_file = tmp_path / "m.model"
        start = time.perf_counter()
        assert main(["bridge", "-u", str(universe), "-o", str(model_file)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "66674 relations" in capsys.readouterr().err
        assert not model_file.exists()


class TestSearch:
    def test_find_and_write_model(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("x ^ y = y ^ x\n")
        model_file = str(tmp_path / "found.model")
        code = main(["search", "-f", str(axiom_file), "-e", "x = y",
                     "--sizes", "2..3", "-o", model_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "model found at size 2" in out
        with open(model_file, encoding="utf-8") as fh:
            assert parse_model(fh.read()).size == 2

    def test_exhausted_exit_two(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("x ^ y = y ^ x\n")
        # no model can refute reflexive equality
        code = main(["search", "-f", str(axiom_file), "-e", "x = x", "--sizes", "2..3"])
        assert code == 2

    def test_budget_exit_two(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        code = main(["search", "-f", str(axiom_file), "-e", "x ^ (y v z) = (x ^ y) v (x ^ z)",
                     "--sizes", "16..16", "--budget", "0.3"])
        assert code == 2
        assert capsys.readouterr().out == "budget exhausted; sizes fully excluded: []\n"

    def test_long_chain_exit_two(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        start = time.perf_counter()
        assert main(["search", "-f", str(axiom_file), "-e", " + ".join(["x"] * 40) + " = x",
                     "--sizes", "2..4"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "no model; sizes fully excluded: [2, 3, 4]\n"

    def test_no_axioms_at_size_22(self, tmp_path, capsys):
        """Past the depth where a recursive search stopped."""
        axiom_file = tmp_path / "none.stmt"
        axiom_file.write_text("")
        assert main(["search", "-f", str(axiom_file), "-e", "x = y", "--sizes", "22..22"]) == 0
        assert capsys.readouterr().out.startswith("model found at size 22 (excluded sizes: [])\n")

    def test_cylindrification_goal(self, u2_file, tmp_path, capsys):
        """`@`, which the checker and the search both read as its core form:
        a law with it holds on u2, and no model of size 2..4 refutes it."""
        assert main(["check", "-u", u2_file, "-e", "x @ y = y @ x"]) == 0
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        capsys.readouterr()
        assert main(["search", "-f", str(axiom_file), "-e", "x @ y = y @ x", "--sizes", "2..4"]) == 2
        assert capsys.readouterr().out == "no model; sizes fully excluded: [2, 3, 4]\n"

    def test_order_goal_round_trip(self, u2_file, tmp_path, capsys):
        """`<`, read as its core form too: an order goal is refuted by u2's
        model, found at size 2 by a search, and refuted on the file it writes."""
        goal = "x < y -> y < x"
        u2_model, found = str(tmp_path / "u2.model"), tmp_path / "lt.model"
        assert main(["bridge", "-u", u2_file, "-o", u2_model]) == 0
        assert main(["verify-model", "-m", u2_model, "-e", goal]) == 1
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        assert main(["search", "-f", str(axiom_file), "-e", goal, "--sizes", "2..4",
                     "-o", str(found)]) == 0
        assert found.read_text().startswith("size 2\n")
        assert main(["verify-model", "-m", str(found), "-e", goal]) == 1

    def test_bad_sizes_exit_three(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("x ^ y = y ^ x\n")
        # An open end is no single size; 0..3 and 4..2 hold no size of at least 1.
        for sizes in ("nope", "2..", "..4", "2..3..4", "0..3", "4..2"):
            assert main(["search", "-f", str(axiom_file), "--sizes", sizes]) == 3, sizes
            assert "expected A..B" in capsys.readouterr().err, sizes

    @pytest.mark.parametrize("timing", [False, True])
    def test_structured(self, tmp_path, capsys, timing):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        goal = "x v R00 = R00 | x v R00 = R00'"
        code = main(["search", "-f", str(axiom_file), "-e", goal, "--sizes", "2..4",
                     "--format", "structured", *["--timing"] * timing])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        out = search_model(minimal_axioms(), [goal], range(2, 5))
        m = out.model
        assert set(doc) == {"found", "size", "sizes_excluded", "budget_exhausted", "model",
                            *["elapsed_ms", "nodes"] * timing}
        assert (doc["found"], doc["size"], doc["sizes_excluded"], doc["budget_exhausted"]) == (
            True, 4, [2, 3], False)
        assert doc["model"] == {
            "meet": [list(m.meet[a * 4:a * 4 + 4]) for a in range(4)],
            "join": [list(m.join[a * 4:a * 4 + 4]) for a in range(4)],
            "complement": list(m.comp), "R00": m.r00, "R11": m.r11}
        if timing:
            assert doc["nodes"] == out.nodes and doc["elapsed_ms"] >= 0

    def test_single_size(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("x ^ y = y ^ x\n")
        assert main(["search", "-f", str(axiom_file), "-e", "x = x", "--sizes", "3"]) == 2
        assert capsys.readouterr().out == "no model; sizes fully excluded: [3]\n"

    def test_size_past_pair_limit_exit_three(self, tmp_path, capsys, monkeypatch):
        """Refused before any size is built, the allowed 999 and 1,000 too."""
        monkeypatch.setattr(models, "_SizeSearch", None)
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        assert main(["search", "-f", str(axiom_file), "-e", "x = y", "--sizes", "999..1001"]) == 3
        assert "size 1001 is refused" in capsys.readouterr().err


class TestDisjunctions:
    """`|` goals are read wherever statements are, except as search axioms."""

    GOAL = "x v R00 = R00 | x v R00 = R00'"

    def test_check_inline(self, u1_file, capsys):
        assert main(["check", "-u", u1_file, "-e", self.GOAL]) == 0  # u1 is no countermodel
        capsys.readouterr()
        assert main(["check", "-u", u1_file, "-e", "x = R00 | x = R11",
                     "--format", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert (report["statement"], report["witness"]) == ("x = R00 | x = R11", {"x": "{()}"})

    def test_statement_file(self, u1_file, tmp_path, capsys):
        stmt = tmp_path / "goals.stmt"
        stmt.write_text(f"x ^ y = y ^ x\n{self.GOAL}  # the zero-ary goal\nx = R00 | x = R11\n")
        assert main(["check", "-u", u1_file, "-f", str(stmt), "--format", "structured"]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [(r["statement"], r["verdict"]) for r in reports] == [
            ("x ^ y = y ^ x", "HOLDS"), (self.GOAL, "HOLDS"), ("x = R00 | x = R11", "REFUTED")]

    def test_search_goal_refuted_on_its_model(self, tmp_path, capsys):
        axiom_file, goal_file = tmp_path / "ax.stmt", tmp_path / "goal.stmt"
        axiom_file.write_text("\n".join(minimal_axioms()) + "\n")
        goal_file.write_text(self.GOAL + "\n")
        model_file = str(tmp_path / "found.model")
        assert main(["search", "-f", str(axiom_file), "-e", self.GOAL, "--sizes", "2..4",
                     "-o", model_file]) == 0
        assert main(["verify-model", "-m", model_file, "-f", str(axiom_file)]) == 0
        capsys.readouterr()
        assert main(["verify-model", "-m", model_file, "-e", self.GOAL]) == 1
        out = capsys.readouterr().out
        assert f"statement: {self.GOAL}\nverdict: REFUTED\n" in out
        assert main(["verify-model", "-m", model_file, "-f", str(goal_file)]) == 1

    def test_search_axiom_exit_three(self, tmp_path, capsys):
        axiom_file = tmp_path / "ax.stmt"
        axiom_file.write_text("x ^ y = y ^ x\n" + self.GOAL + "\n")
        assert main(["search", "-f", str(axiom_file), "-e", "x = y", "--sizes", "2..3"]) == 3
        assert "axioms must be equations" in capsys.readouterr().err


class TestWideUniverses:
    """Binary attributes: 14 give a count of 4,933 digits, 20 the full
    tuple-space cap; past the enumeration budget both are input errors."""

    @pytest.mark.parametrize("nattrs", [14, 20])
    @pytest.mark.parametrize("command", ["check", "bridge", "enumerate", "suite"])
    def test_exit_three_promptly(self, tmp_path, capsys, nattrs, command):
        universe = tmp_path / "u1.univ"
        universe.write_text("".join(f"a{i} : p, q\n" for i in range(nattrs)))
        u = str(universe)
        argv = {"check": ["check", "-u", u, "-e", "x = x"],
                "bridge": ["bridge", "-u", u, "-o", str(tmp_path / "m.model")],
                "enumerate": ["enumerate", "-u", u],
                "suite": ["suite", "appendixA", "-u", u]}[command]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err.startswith("error: ")


class TestRepeatedCalls:
    def test_same_output_twice_in_one_process(self, u1_file, u2_file, capsys):
        # The parser is built once per process; nothing one call parses may
        # leak into the next.  Were the `-u` default list shared, the
        # second round's `-u u1` suite would also run on u2.
        scenarios = [
            ["suite", "nand"],
            ["suite", "nand", "-u", u1_file],
            ["suite", "broken-laws", "-u", u1_file, "-u", u2_file, "--format", "structured"],
            ["--help"],
            ["check", "--mode", "nope"],
        ]
        rounds = []
        for _ in range(2):
            outcome = []
            for argv in scenarios:
                code = main(argv)
                captured = capsys.readouterr()
                outcome.append((code, captured.out, captured.err))
            rounds.append(outcome)
        assert rounds[0] == rounds[1]
        assert [code for code, _, _ in rounds[0]] == [0, 0, 0, 0, 3]
        assert "u1=HOLDS, u2=HOLDS" in rounds[0][0][1]
        assert "u2" not in rounds[0][1][1]
        assert "usage: rlattice" in rounds[0][3][1] and "usage:" in rounds[0][4][2]
