#!/usr/bin/env python3
"""Benchmark of the rlattice workbench (standard library only).

Run from the repository root:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and perfbench/README.md): `suites`, `scale`,
`search`.  The run imports the package from `src/`, sets it up several
times, then repeats passes of the workload in one process, without
threads, until `--seconds` have gone by (at least two passes).  All
times it reports are calibrated seconds (speed.py): wall time scaled by
the speed the machine ran at, measured on a timer signal during the run.
Every verdict, outcome and count is checked; the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json.
With `--trace 1` untraced and traced passes alternate, the spans are
written to `.perfbench/trace-<workload>-seed<n>.json` (in calibrated
seconds from the start of the run), and the metrics
are the per-layer ones, including the tracing overhead.

Exit codes: 0 all correct, 1 something was wrong (or the program raised),
2 the program could not be imported (no JSON line is printed).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 40        # set-ups per run; setup_s is their median
MIN_PASSES = 2
MODULES = ("universe", "terms", "checker", "models", "suites", "cli")
OPS_PAIRS = 200  # fixed u3 pair sample for universe.ops_per_s
LAYERS = ("terms", "universe", "checker", "suites", "models.bridge", "models.verify",
          "models.search", "cli", "bench")


class ProgramMissing(Exception):
    """The checkout holds no importable rlattice package under src/."""


def fresh_import():
    """Import the package from src/ anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "rlattice" or n.startswith("rlattice.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("rlattice")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import rlattice from {SRC}: {exc}") from None
    if Path(pkg.__file__).resolve().parent != SRC / "rlattice":
        raise ProgramMissing(f"rlattice was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"rlattice.{m}")
                                       for m in MODULES})


def reinstate(lib):
    """Put the modules of `lib` back in sys.modules, for imports made inside functions."""
    for name in [n for n in sys.modules if n == "rlattice" or n.startswith("rlattice.")]:
        del sys.modules[name]
    sys.modules["rlattice"] = lib.pkg
    for m in MODULES:
        sys.modules[f"rlattice.{m}"] = getattr(lib, m)


def boundaries(lib):
    """The public functions a traced pass wraps: span name and work count."""
    one = lambda result: (1, None)  # noqa: E731
    return {
        lib.terms.parse_statement: ("terms.parse_statement", one),
        lib.terms.parse_goal: ("terms.parse_goal", one),
        lib.checker.enumerate_relations:
            ("universe.enumerate_relations", lambda rels: (len(rels), None)),
        lib.checker.check:
            ("checker.check", lambda rep: (rep.assignments_tested, type(rep.mode).__name__)),
        lib.suites.run_suite:
            ("suites.run_suite", lambda rep: (sum(len(r.reports) for r in rep.results), rep.name)),
        lib.models.model_from_universe:
            ("models.bridge.model_from_universe", lambda m: (m.size * m.size, None)),
        lib.models.verify_model:
            ("models.verify.verify_model",
             lambda reps: (sum(r.assignments_tested for r in reps), None)),
        lib.models.search_model: ("models.search.search_model", lambda out: (out.nodes, None)),
        lib.cli.main: ("cli.main", one),
    }


def instrument(tracer, lib):
    modules = [lib.pkg] + [getattr(lib, m) for m in MODULES]
    return tracer.instrument(modules, boundaries(lib))


def set_up(workload_cls, seed, workdir, tracer, times):
    """Import and set up SETUPS times, adding each one's interval to `times`.

    All of them come before the first pass: each fresh import keeps some
    memory, so they must all precede the passes that set peak_rss_mb.
    Returns the first workload set up, which the passes run; its modules
    are the ones left in sys.modules.
    """
    first = None
    for _ in range(SETUPS):
        # An earlier import's cyclic garbage is freed here, not inside the timing.
        gc.collect()
        start = time.perf_counter()
        lib = fresh_import()
        workload = workload_cls(lib, seed, workdir)
        with instrument(tracer, lib), tracer.span("bench.setup"):
            workload.setup()
        times.append((start, time.perf_counter()))
        first = first or workload
    reinstate(first.lib)
    # Likewise for the last set-up and the first pass.
    gc.collect()
    return first


def measure(workload, until, tracer):
    """Repeat passes, at least MIN_PASSES, while the next round is expected
    to end by the perf_counter time `until`; with tracing, alternate."""
    null = tracing.NullTracer()
    kinds = (null, tracer) if tracer.enabled else (null,)
    passes = []  # (traced, wall-time interval, PassResult)
    start = time.perf_counter()
    rounds = 0
    while True:
        # Alternate which side goes first, so an order effect cancels out.
        for t in kinds if rounds % 2 == 0 else kinds[::-1]:
            with instrument(t, workload.lib), t.span("bench.pass"):
                began = time.perf_counter()
                res = workload.run_pass(len(passes), t)
                workload.call_cli(res)
            passes.append((t.enabled, (began, time.perf_counter()), res))
        rounds += 1
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - start) / rounds > until:
            return passes


def ops_per_s(lib, tracer):
    """Wall-time intervals of rounds of relation-level operations on a
    fixed sample of u3 pairs; OPS_PAIRS * 3 operations each."""
    u = lib.universe.Universe.make(workloads.U3)
    rels = lib.checker.enumerate_relations(u)
    rng = random.Random(0)
    pairs = [(rng.choice(rels), rng.choice(rels)) for _ in range(OPS_PAIRS)]
    uni = lib.universe
    rounds = []
    with tracer.span("universe.ops"):
        for _ in range(5):
            began = time.perf_counter()
            for a, b in pairs:
                uni.natural_join(u, a, b)
                uni.inner_union(u, a, b)
                uni.complement(u, a)
            rounds.append((began, time.perf_counter()))
    return rounds


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# A time is the median of its calibrated samples over the run: of a
# statement's decisions, of a call's repeats over the passes, of the
# set-ups.  Calibration takes out most of the machine's changes of speed
# (on a 2-vCPU VM, repeated `run_suite("nand")` calls spread 0.31 in wall
# time and 0.08 calibrated, as quartile distance over median); the median
# takes out the rest of the noise of single samples.

def latencies(passes, clock):
    """Each statement's median time to verdict in seconds, over its samples in every pass."""
    by_key = {}
    for _, _, res in passes:
        for key, samples in res.check_at.items():
            by_key.setdefault(key, []).extend(
                sum(clock.seconds(a, b) for a, b in sample) for sample in samples)
    return [statistics.median(samples) for samples in by_key.values()]


def call_seconds(passes, clock, decides=None):
    """Median calibrated time of each program call over the passes, by key;
    only calls that decide statements (or only the others) if `decides`
    is given."""
    by_key = {}
    for _, _, res in passes:
        for key, (dec, intervals) in res.calls.items():
            if decides is None or dec == decides:
                by_key.setdefault(key, []).extend(clock.seconds(a, b) for a, b in intervals)
    return {key: statistics.median(values) for key, values in by_key.items()}


def pass_seconds(passes, clock):
    """Time of one pass: the sum over its program calls of each call's median time."""
    return sum(call_seconds(passes, clock).values())


def end_to_end(clock, setup_times, passes):
    decide_s = sum(call_seconds(passes, clock, decides=True).values())
    # The percentiles are taken over statements.  A pass that decided
    # nothing has already failed; its zeros are not used.
    times = [1000.0 * t for t in latencies(passes, clock)] or [0.0, 0.0]
    return {
        "setup_s": (statistics.median(clock.seconds(a, b) for a, b in setup_times), "s"),
        "wall_s": (pass_seconds(passes, clock), "s"),
        "check_p50_ms": (statistics.median(times), "ms"),
        "check_p90_ms": (quantile(times, 90), "ms"),
        "checks_per_s": (len(times) / decide_s if decide_s else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(clock, tracer, passes, ops_rounds, suite_names):
    """Per-layer numbers from the spans, per traced pass."""
    for s in tracer.spans:
        s.start, s.end = clock(s.start), clock(s.end)
    setups = [tracer.subtree(s) for s in tracer.spans if s.name == "bench.setup"]
    roots = [s for s in tracer.spans if s.name == "bench.pass"]
    every = [s for root in roots for s in tracer.subtree(root)]
    n = len(roots)
    # Counts and call times describe the workload's own calls; the command
    # line's inner calls count only in cli.call_s and the self times.
    inside_cli = {s.id for c in every if c.name == "cli.main"
                  for s in tracer.subtree(c)[1:]}
    spans = [s for s in every if s.id not in inside_cli]

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(group):
        return sum(s.seconds for s in group)

    def work(group):
        return sum(s.work for s in group)

    def rate(group):
        return work(group) / secs(group) if group else 0.0

    checks, bridges = named("checker.check"), named("models.bridge.model_from_universe")
    verifies, searches = named("models.verify.verify_model"), named("models.search.search_model")
    runs = named("suites.run_suite")
    m = {
        "terms.parse_s": (statistics.median(
            secs(s for s in tree if s.layer == "terms") for tree in setups), "s"),
        "universe.enumerate_s": (statistics.median(
            secs(s for s in tree if s.name == "universe.enumerate_relations")
            for tree in setups), "s"),
        "universe.relations": (work(s for s in setups[-1]
                                    if s.name == "universe.enumerate_relations"), "count"),
        "universe.ops_per_s": (3 * OPS_PAIRS / statistics.median(
            clock.seconds(a, b) for a, b in ops_rounds), "1/s"),
        "checker.calls": (len(checks) / n, "count"),
        "checker.assignments": (work(checks) / n, "count"),
        "checker.assign_per_s": (rate(checks), "1/s"),
        "checker.exhaustive_share": (
            sum(s.kind == "Exhaustive" for s in checks) / len(checks) if checks else 0.0,
            "ratio"),
    }
    for name in suite_names:
        m[f"suites.{name}_s"] = (secs(s for s in runs if s.kind == name) / n, "s")
    m["suites.sampled_entries"] = (sum(s.kind == "Sample" for s in checks) / n, "count")
    m.update({
        "models.bridge_s": (secs(bridges) / n, "s"),
        "models.bridge_pairs": (work(bridges) / n, "count"),
        "models.verify_assignments": (work(verifies) / n, "count"),
        "models.verify_assign_per_s": (rate(verifies), "1/s"),
        "models.search_s": (secs(searches) / n, "s"),
        "models.search.nodes_per_s": (rate(searches), "1/s"),
    })
    for name, _, _, sizes, _ in workloads.Search.SEARCHES:
        for k in sizes:
            group = [s for s in searches if s.label == f"{name}.n{k}"]
            m[f"models.search.nodes.{name}.n{k}"] = (work(group) / n, "count")
            m[f"models.search.size_s.{name}.n{k}"] = (secs(group) / n, "s")
    m["cli.call_s"] = (secs(named("cli.main")) / n, "s")
    self_s = tracing.self_seconds(every)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
    traced = pass_seconds([p for p in passes if p[0]], clock)
    untraced = pass_seconds([p for p in passes if not p[0]], clock)
    m["trace.wall_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.spans"] = (len(every) / n, "count")
    m["bench.calibration_loop_us"] = (1e6 * clock.loop_s, "us")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workdir = OUT_DIR / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        until = time.perf_counter() + args.seconds
        with speed.SpeedMeter() as meter:
            workload = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir, tracer,
                              setup_times)
            for name, text in workload.cli_files.items():
                (workdir / name).write_text(text, encoding="utf-8")
            passes = measure(workload, until, tracer)
            ops_rounds = ops_per_s(workload.lib, tracer) if args.trace else None
        clock = meter.clock()
        if args.trace:
            metrics = per_layer(clock, tracer, passes, ops_rounds,
                                workload.lib.suites.SUITE_NAMES)
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(clock, setup_times, passes)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if sorted(metrics) != sorted(expected):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 2

    results = [res for _, _, res in passes]
    attempted = sum(res.attempted for res in results)
    problems = [f"pass {i}: {p}" for i, res in enumerate(results) for p in res.problems]
    report(args, clock, passes, setup_times, metrics, problems, attempted)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def report(args, clock, passes, setup_times, metrics, problems, attempted):
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(setup_times)} set-ups, "
          f"calibration loop {1e6 * clock.loop_s:.1f} us (median)")
    print(f"  {'pass wall_s':<32} " + " ".join(f"{b - a:.4g}" for _, (a, b), _ in passes))
    print(f"  {'pass calibrated s':<32} " + " ".join(f"{clock.seconds(a, b):.4g}"
                                                    for _, (a, b), _ in passes))
    for key, value in call_seconds(passes, clock).items():
        print(f"  {'call ' + key:<32} median {value:.6g} s")
    first = passes[0][2].check_at
    print(f"  {'check latency samples':<32} {len(first)} statements, "
          f"{sum(map(len, first.values()))} samples per pass, {len(passes)} passes")
    for k, v in passes[0][2].counts.items():
        print(f"  {'count ' + k:<32} {v}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:<32} {v:.6g} {unit}")
    print(f"  {'failed_ratio':<32} {len(problems) / attempted:.6g}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")


if __name__ == "__main__":
    sys.exit(main())
