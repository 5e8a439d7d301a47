"""Command-line front end.

Exit codes are a stable contract: 0 success / HOLDS, 1 refutation or
suite mismatch, 2 budget exhaustion, 3 usage and input errors.
Structured output is deterministic JSON (timings only with --timing).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import suites as suites_mod
from .checker import CheckReport, Exhaustive, Sample, Verdict, check, enumerate_relations, count_relations
from .kernel import RelationKernel
from .models import (
    format_model,
    load_model,
    model_from_universe,
    pretty_model,
    search_model,
    table_rows,
    verify_model,
)
from .terms import Statement, format_relation, parse_goal, parse_statement, parse_statement_file
from .universe import LatticeError, Universe

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep usage errors above exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _universe_args(p: argparse.ArgumentParser, repeatable: bool) -> None:
    if repeatable:
        p.add_argument("-u", "--universe", action="append", default=[],
                       metavar="FILE",
                       help="universe file (repeatable); its base name is the universe id")
    else:
        p.add_argument("-u", "--universe", required=True, metavar="FILE")


def _mode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--seed", type=int, default=suites_mod.DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=suites_mod.DEFAULT_SAMPLES)


def _output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed time in structured output")
    p.add_argument("-o", "--output", metavar="FILE", help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rlattice` parser, built once per process: parsing leaves it as
    it is (an `append` option copies its default list before appending)."""
    top = _Parser(prog="rlattice", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide statements over a universe")
    _universe_args(p, repeatable=False)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("-e", "--statement", metavar="TEXT", help="inline statement")
    src.add_argument("-f", "--file", metavar="FILE", help="statement file")
    _mode_args(p)
    _output_args(p)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("search", help="search for a model of axioms refuting goals")
    p.add_argument("-f", "--axioms", required=True, metavar="FILE", help="axiom statement file")
    p.add_argument("-e", "--goal", action="append", default=[], metavar="TEXT",
                   help="goal to falsify (repeatable; admits `atom | atom`)")
    p.add_argument("--sizes", default="2..6", metavar="A..B")
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable least-index canonicity pruning")
    _output_args(p)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("verify-model", help="check statements against a model file")
    p.add_argument("-m", "--model", required=True, metavar="FILE")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("-e", "--statement", metavar="TEXT")
    src.add_argument("-f", "--file", metavar="FILE")
    _output_args(p)
    p.set_defaults(run=cmd_verify_model)

    p = sub.add_parser("enumerate", help="count (or list) the relations of a universe")
    _universe_args(p, repeatable=False)
    p.add_argument("--list", action="store_true", help="print every relation")
    _output_args(p)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("suite", help="run a registered law suite")
    p.add_argument("name", nargs="?", help="suite name; omit with --list-suites")
    _universe_args(p, repeatable=True)
    p.add_argument("--list-suites", action="store_true")
    p.add_argument("--export", metavar="DIR", help="export all suites as statement files")
    _output_args(p)
    p.set_defaults(run=cmd_suite)

    p = sub.add_parser("bridge", help="abstract a universe into a model file")
    _universe_args(p, repeatable=False)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(run=cmd_bridge)

    return top


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_human(rep: CheckReport) -> str:
    lines = [f"statement: {rep.statement}", f"verdict: {rep.verdict.value}"]
    if rep.witness_text:
        lines.append("witness:")
        lines += [f"  {name} = {text}" for name, text in sorted(rep.witness_text.items())]
    lines.append(f"assignments tested: {rep.assignments_tested}")
    if rep.premise_satisfying is not None:
        lines.append(f"premise-satisfying: {rep.premise_satisfying}")
    if isinstance(rep.mode, Sample):
        lines.append(f"mode: sample(seed={rep.mode.seed}, samples={rep.mode.samples})")
    else:
        lines.append("mode: exhaustive")
    return "\n".join(lines) + "\n"


def _statements(args) -> list[Statement]:
    """The `-e` statement, or every statement of the `-f` file."""
    if args.statement is not None:
        return [parse_statement(args.statement)]
    with open(args.file, encoding="utf-8") as fh:
        return parse_statement_file(fh.read())


def _write_reports(reports: list[CheckReport], args) -> int:
    """Write the reports of `check` or `verify-model`; returns the exit code."""
    if args.format == "structured":
        doc = {"reports": [r.document(timing=args.timing) for r in reports]}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit("\n".join(_report_human(r) for r in reports), args.output)
    verdicts = [r.verdict for r in reports]
    if Verdict.REFUTED in verdicts:
        return EXIT_REFUTED
    if Verdict.BUDGET_EXHAUSTED in verdicts:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_check(args) -> int:
    u = Universe.load(args.universe)
    statements = _statements(args)
    mode = Exhaustive() if args.mode == "exhaustive" else Sample(args.seed, args.samples)
    # One kernel for all the statements; none for an empty file, which
    # therefore passes on any universe.
    kernel = RelationKernel(u) if statements else None
    return _write_reports([check(u, s, mode, kernel=kernel) for s in statements], args)


def _parse_sizes(text: str) -> range:
    try:
        lo, _, hi = text.partition("..")
        a, b = int(lo), int(hi if hi else lo)
    except ValueError:
        raise LatticeError(f"bad --sizes {text!r}; expected A..B") from None
    if a < 1 or b < a:
        raise LatticeError(f"bad --sizes {text!r}")
    return range(a, b + 1)


def cmd_search(args) -> int:
    with open(args.axioms, encoding="utf-8") as fh:
        axioms = parse_statement_file(fh.read())
    goals = [parse_goal(g) for g in args.goal]
    outcome = search_model(axioms, goals, _parse_sizes(args.sizes),
                           budget=args.budget, symmetry=not args.no_symmetry)
    if args.format == "structured":
        doc = {
            "found": outcome.found,
            "size": outcome.size,
            "sizes_excluded": list(outcome.sizes_excluded),
            "budget_exhausted": outcome.budget_exhausted,
        }
        if outcome.model:
            doc["model"] = {
                "meet": [list(r) for r in table_rows(outcome.model.meet, outcome.size)],
                "join": [list(r) for r in table_rows(outcome.model.join, outcome.size)],
                "complement": list(outcome.model.comp),
                "R00": outcome.model.r00,
                "R11": outcome.model.r11,
            }
        if args.timing:
            doc["elapsed_ms"] = round(outcome.elapsed_ms, 3)
            doc["nodes"] = outcome.nodes
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        if outcome.found:
            sys.stdout.write(f"model found at size {outcome.size}"
                             f" (excluded sizes: {list(outcome.sizes_excluded)})\n\n")
            sys.stdout.write(pretty_model(outcome.model))
        elif outcome.budget_exhausted:
            sys.stdout.write(f"budget exhausted; sizes fully excluded: {list(outcome.sizes_excluded)}\n")
        else:
            sys.stdout.write(f"no model; sizes fully excluded: {list(outcome.sizes_excluded)}\n")
    if outcome.found and args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_model(outcome.model))
    return EXIT_OK if outcome.found else EXIT_BUDGET


def cmd_verify_model(args) -> int:
    m = load_model(args.model)
    return _write_reports(verify_model(m, _statements(args)), args)


def cmd_enumerate(args) -> int:
    u = Universe.load(args.universe)
    if args.list:
        rels = enumerate_relations(u)
        text = "\n".join(format_relation(r) for r in rels) + "\n"
        text += f"{len(rels)}\n"
    else:
        count = count_relations(u)
        try:
            text = f"{count}\n"
        except ValueError:  # past the interpreter's limit on integer digits
            bits = count.bit_length()
            raise LatticeError(f"relation count of {bits} bits is too long to print") from None
    _emit(text, args.output)
    return EXIT_OK


def cmd_suite(args) -> int:
    if args.export:
        paths = suites_mod.export_suites(args.export)
        sys.stdout.write("\n".join(paths) + "\n")
        if not args.name:
            return EXIT_OK
    if args.list_suites:
        sys.stdout.write("\n".join(suites_mod.SUITE_NAMES) + "\n")
        return EXIT_OK
    if not args.name:
        raise LatticeError("suite name required (or use --list-suites)")
    universes = None
    if args.universe:
        universes = {}
        for path in args.universe:
            uid = os.path.splitext(os.path.basename(path))[0]
            universes[uid] = Universe.load(path)
    report = suites_mod.run_suite(args.name, universes)
    if args.format == "structured":
        doc = {
            "suite": report.name,
            "ok": report.ok,
            "entries": [
                {
                    "id": res.entry.id,
                    "expected": res.entry.expected.value,
                    "ok": res.ok,
                    "verdicts": {uid: rep.verdict.value for uid, rep in res.reports},
                }
                for res in report.results
            ],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit("\n".join(report.lines()) + "\n", args.output)
    return EXIT_OK if report.ok else EXIT_REFUTED


def cmd_bridge(args) -> int:
    u = Universe.load(args.universe)
    m = model_from_universe(u)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_model(m))
    sys.stdout.write(f"wrote model of size {m.size} to {args.output}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    except (LatticeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"error: input file is not UTF-8 text: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
