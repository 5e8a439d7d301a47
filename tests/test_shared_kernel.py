"""One kernel per universe across a run of checks.

`run_suite`, `discriminate_fd_reading` and the command line's
`check -f` hand `checker.check` one kernel per universe, and with it one
set of lazy operation tables.  Their reports must be byte-identical to
those of a one-shot `check` with a kernel of its own, whatever earlier
checks left in the shared tables and orbits; every check must still be
a call of `check`, the function that profilers and the benchmark's
tracer wrap; and no kernel may outlive its run waiting for the cyclic
garbage collector.
"""

import gc
import json
import weakref

import pytest

from rlattice import (
    Exhaustive,
    LatticeError,
    Sample,
    Universe,
    Verdict,
    check,
    count_relations,
    discriminate_fd_reading,
    free_variables,
    model_from_universe,
    parse_goal,
    parse_statement,
    run_suite,
    standard_universes,
    suite_catalog,
)
from rlattice import checker, cli, suites
from rlattice.checker import _REDUCE_FROM, compile_statement
from rlattice.cli import main
from rlattice.kernel import RelationKernel
from rlattice.suites import DEFAULT_EXHAUSTIVE_LIMIT, DEFAULT_SAMPLES, DEFAULT_SEED, SUITE_NAMES
from rlattice.universe import RelationError
from conftest import carrier_of
from test_symmetry import closed_group

THREE_BINARY = Universe.make({"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")})


@pytest.fixture
def kernels(monkeypatch):
    """Weak references to every kernel built while the test runs."""
    made = []
    init = RelationKernel.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))
    monkeypatch.setattr(RelationKernel, "__init__", record)
    return made


@pytest.fixture
def tables_made(monkeypatch):
    """The distinct sets of operation tables handed out while the test runs."""
    made = {}
    tables = RelationKernel.tables

    def spy(self):
        got = tables(self)
        made[id(got)] = got
        return got
    monkeypatch.setattr(RelationKernel, "tables", spy)
    return made


@pytest.fixture
def check_calls(monkeypatch):
    """The number of calls of `check` through each module's own name for it."""
    calls = {}
    for module in (checker, suites, cli):
        def counted(*args, _check=module.check, _name=module.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _check(*args, **kwargs)
        monkeypatch.setattr(module, "check", counted)
    return calls


@pytest.fixture
def no_gc():
    """The cyclic garbage collector off: only reference counts free objects."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def reduced(text, u):
    """Whether an exhaustive check of `text` on `u` walks orbit-least first values only."""
    stmt = parse_statement(text)
    nvars = len(free_variables(stmt))
    return nvars >= 2 and count_relations(u) ** nvars >= _REDUCE_FROM


class TestSharing:
    def test_run_suite_builds_one_kernel_and_tables_per_universe(self, kernels, tables_made):
        report = run_suite("bilattice")
        assert report.ok
        assert len(kernels) == 2 and len(tables_made) == 2  # u1 and u2

    def test_fd_discrimination_shares_per_universe(self, kernels, tables_made):
        discriminate_fd_reading(standard_universes())
        assert len(kernels) == 2 and len(tables_made) == 2

    def test_large_kernels_share_their_tables_too(self, kernels, tables_made):
        kernel = RelationKernel(THREE_BINARY)
        assert kernel.n == 318
        for text in ("x ^ y = y ^ x", "x'' = x", "x @ x = x v R11"):
            assert check(THREE_BINARY, text, kernel=kernel).verdict is Verdict.HOLDS
        assert len(kernels) == 1 and len(tables_made) == 1

    def test_cli_check_file_shares_one_kernel(self, tmp_path, kernels, tables_made, capsys):
        (tmp_path / "u2.univ").write_text("t : a, b\ns : 1, 2\n")
        (tmp_path / "laws.stmt").write_text("x ^ y = y ^ x\nx ^ (y ^ z) = (x ^ y) ^ z\nx'' = x\n")
        assert main(["check", "-u", str(tmp_path / "u2.univ"),
                     "-f", str(tmp_path / "laws.stmt")]) == 0
        assert len(kernels) == 1 and len(tables_made) == 1

    def test_kernel_of_another_universe_is_rejected(self, u1, u2):
        with pytest.raises(LatticeError, match="another universe"):
            check(u1, "x = x", kernel=RelationKernel(u2))

    def test_cli_empty_file_builds_no_kernel(self, tmp_path, kernels, capsys):
        # Past the enumeration budget, but there is nothing to check.
        (tmp_path / "big.univ").write_text("a : 0, 1, 2\nb : 0, 1, 2\nc : 0, 1, 2\n")
        (tmp_path / "empty.stmt").write_text("# nothing\n")
        assert main(["check", "-u", str(tmp_path / "big.univ"),
                     "-f", str(tmp_path / "empty.stmt"), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out) == {"reports": []}
        assert kernels == []


class TestEveryCheckIsACallOfCheck:
    def test_run_suite(self, check_calls):
        report = run_suite("bilattice")
        assert check_calls == {"rlattice.suites": sum(len(r.reports) for r in report.results)}

    def test_fd_discrimination(self, check_calls):
        report = discriminate_fd_reading(standard_universes())
        assert check_calls == {"rlattice.suites": sum(
            len(by_uid) for row in report.rows for by_uid in row.verdicts.values())}

    def test_cli_check_file(self, tmp_path, check_calls, capsys):
        (tmp_path / "u2.univ").write_text("t : a, b\ns : 1, 2\n")
        (tmp_path / "laws.stmt").write_text("x ^ y = y ^ x\nx'' = x\n")
        assert main(["check", "-u", str(tmp_path / "u2.univ"),
                     "-f", str(tmp_path / "laws.stmt")]) == 0
        assert check_calls == {"rlattice.cli": 2}


class TestNoCycles:
    """With the cyclic GC off, every kernel is freed when its run ends."""

    def test_reduced_check(self, u2, kernels, no_gc):
        text = "x ^ (y ^ z) = (x ^ y) ^ z"
        assert reduced(text, u2)
        assert check(u2, text).verdict is Verdict.HOLDS
        assert len(kernels) == 1 and kernels[0]() is None

    @pytest.mark.parametrize("u", [Universe.make({"t": ("a", "b"), "s": ("1", "2")}),
                                   Universe.make({"t": tuple("abcdef")})], ids=["whole", "per-pair"])
    def test_filled_tables(self, u, kernels, no_gc):
        # u2's 26 codes fill every table whole, 1x6's 66 the pairs read.
        k = RelationKernel(u)
        check(u, "(x ^ y) v (x * y)' = x + y", kernel=k)
        filled = [len(table) for table in k.tables()]
        assert (filled == [k.n ** 2] * 4 + [k.n]) == (k.n <= 64), filled
        del k
        assert len(kernels) == 1 and kernels[0]() is None

    def test_kernel_holding_stabilizer_maps(self, u2, kernels, no_gc):
        k = RelationKernel(u2)
        text = "x ^ (y v z) = (x ^ y) v (x ^ z)"
        assert reduced(text, u2) and check(u2, text, kernel=k).verdict is Verdict.REFUTED
        (_, run), = carrier_of(k).bound.values()
        assert run.args[6:8] == (k.orbit_least, k.stabilizer_least) and closed_group(k)
        del k, run
        assert len(kernels) == 1 and kernels[0]() is None

    def test_tables_outlive_the_kernel(self, u2, kernels, no_gc):
        k = RelationKernel(u2)
        n, tables, rows, orbit_least = k.n, k.tables(), k.rows(), k.orbit_least
        least = k.stabilizer_least(0)  # code 0 is fixed by every automorphism
        del k
        assert len(kernels) == 1 and kernels[0]() is None
        assert orbit_least[4] == 3  # the first read of code 4's orbit, filled now
        meet = model_from_universe(u2).meet
        assert [tables[0][key] for key in range(n * n)] == list(meet)
        assert rows[0][3][:n] == bytes(meet[3 * n:4 * n])  # row 3 of MR
        assert [orbit_least[c] for c in range(n)] == least

    def test_run_suite(self, kernels, no_gc):
        assert run_suite("bilattice").ok
        assert len(kernels) == 2 and all(ref() is None for ref in kernels)

    def test_cli_check_file(self, tmp_path, kernels, no_gc, capsys):
        (tmp_path / "u2.univ").write_text("t : a, b\ns : 1, 2\n")
        (tmp_path / "laws.stmt").write_text(
            "x ^ (y ^ z) = (x ^ y) ^ z\nx ^ (y v z) = (x ^ y) v (x ^ z)\n")
        assert main(["check", "-u", str(tmp_path / "u2.univ"),
                     "-f", str(tmp_path / "laws.stmt")]) == 1
        assert len(kernels) == 1 and kernels[0]() is None


class TestCheckBindsOnce:
    """A kernel binds each statement's check at its first `check`, as a
    model does, and every later check of it there, in any mode, reports
    what a fresh kernel reports."""

    def test_one_binding_per_statement(self, u2):
        k = RelationKernel(u2)
        text = "x ^ z = R10 -> x ^ y != z v R11"
        for mode in (Exhaustive(), Exhaustive(max_assignments=300), Sample(DEFAULT_SEED, 50)):
            # Each later check reports what the first did.
            reports = {check(u2, statement, mode, kernel=k).to_json()
                       for statement in (text, parse_goal(text), parse_statement(text))}
            assert len(reports) == 1, mode
        check(u2, "x ^ y = y ^ x", kernel=k)
        assert list(carrier_of(k).bound) == [parse_goal(text), parse_goal("x ^ y = y ^ x")]

    def test_invalid_literal_refused_on_every_check(self, u2):
        k = RelationKernel(u2)
        for _ in range(2):
            with pytest.raises(RelationError, match="attribute 'q' not in universe"):
                check(u2, "x ^ {(q=a)} = x", kernel=k)
            assert carrier_of(k).bound == {}
        assert check(u2, "x ^ {(t=a)} = x", kernel=k).verdict is Verdict.REFUTED
        assert len(carrier_of(k).bound) == 1

    def test_sampled_then_uncapped_as_fresh(self, u2):
        """The uncapped check runs the binding the sampled one made, with the
        maps of the statement, so it reports a fresh kernel's report."""
        k = RelationKernel(u2)
        text = "x ^ z = R10 -> x ^ y != z v R11"
        assert reduced(text, u2)
        for mode in (Sample(DEFAULT_SEED, 500), Exhaustive()):
            got, want = check(u2, text, mode, kernel=k), check(u2, text, mode)
            assert (got.assignments_tested, got.witness, got.premise_satisfying) == (
                want.assignments_tested, want.witness, want.premise_satisfying)
            assert got.to_json() == want.to_json()
        assert len(carrier_of(k).bound) == 1

    def test_sampled_check_closes_no_group(self):
        k = RelationKernel(THREE_BINARY)
        text = "x ^ (y v z) = (x ^ y) v (x ^ z)"
        check(THREE_BINARY, text, Sample(DEFAULT_SEED, 200), kernel=k)
        assert closed_group(k) == [] and len(carrier_of(k).bound) == 1
        check(THREE_BINARY, text, kernel=k)  # walks second values by the group
        assert len(closed_group(k)) == k.group_order()

    def test_second_round_compiles_nothing(self, u2):
        """A second round of more statements than `compile_statement` keeps
        neither misses nor probes its cache."""
        statements = [parse_statement(f"x{chr(39) * a} v R00 = x{chr(39) * b} ^ R11")
                      for a in range(20) for b in range(15)]
        assert len(set(statements)) == 300 > compile_statement.cache_info().maxsize
        k = RelationKernel(u2)
        first = [check(u2, statement, kernel=k).to_json() for statement in statements]
        before = compile_statement.cache_info()
        assert [check(u2, statement, kernel=k).to_json() for statement in statements] == first
        assert compile_statement.cache_info() == before

    def test_cli_check_file_repeated_line(self, tmp_path, capsys):
        (tmp_path / "u2.univ").write_text("t : a, b\ns : 1, 2\n")
        law = "x ^ z = R10 -> x ^ y != z v R11"
        (tmp_path / "laws.stmt").write_text(f"{law}\nx ^ y = y ^ x\n{law}\n")
        assert main(["check", "-u", str(tmp_path / "u2.univ"), "-f", str(tmp_path / "laws.stmt"),
                     "--format", "structured"]) == 1
        first, _, again = json.loads(capsys.readouterr().out)["reports"]
        assert again == first and first["verdict"] == "REFUTED"


class TestSharedEqualsFresh:
    # The defaults, and a limit low enough that most checks are sampled
    # (with fewer samples each, to keep the run short).
    @pytest.mark.parametrize("limit, samples", [(DEFAULT_EXHAUSTIVE_LIMIT, DEFAULT_SAMPLES),
                                                (10, 2000)])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_run_suite_matches_one_shot_checks(self, name, limit, samples):
        universes = standard_universes()
        report = run_suite(name, exhaustive_limit=limit, samples=samples)
        sampled = 0
        for result in report.results:
            nvars = len(free_variables(result.entry.statement))
            assert [uid for uid, _ in result.reports] == list(result.entry.universes)
            for uid, rep in result.reports:
                u = universes[uid]
                mode = (Exhaustive() if count_relations(u) ** nvars <= limit
                        else Sample(DEFAULT_SEED, samples))
                sampled += isinstance(mode, Sample)
                alone = check(u, result.entry.text, mode)
                assert rep.to_json() == alone.to_json(), (name, result.entry.id, uid)
                assert rep.witness == alone.witness
        if limit == 10:
            assert sampled > 0

    def test_reduced_checks_after_partial_orbits(self, u2):
        kernel = RelationKernel(u2)
        early = check(u2, "x ^ (y v z) = (x ^ y) v (x ^ z)", kernel=kernel)
        assert early.verdict is Verdict.REFUTED
        assert 0 < len(kernel.orbit_least) < kernel.n  # the walk stopped partway
        texts = sorted({e.text for entries in suite_catalog().values() for e in entries
                        if "u2" in e.universes and reduced(e.text, u2)})
        assert any("->" in text for text in texts)  # premise counts of skipped values
        for text in texts:
            assert check(u2, text, kernel=kernel).to_json() == check(u2, text).to_json(), text
        assert len(kernel.orbit_least) == kernel.n
