"""Named, runnable law catalogs with expected verdicts.

Each suite is a list of entries (statement + expected verdict + the
universes it runs against).  The runner checks every entry exhaustively
where the assignment space is small enough and falls back to seeded
sampling above the limit; sampling can refute but never promotes to
HOLDS, so an expected-HOLDS entry passes a sampled run only by producing
no witness.

The dependency-law entries are written under the shipped reading of the
dependency predicate (see FdReading); discriminate_fd_reading is the
harness that decides which readings are tenable, and the shipped default
must be one of its survivors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple

from . import terms
from .checker import (
    CheckReport,
    Exhaustive,
    Sample,
    Verdict,
    check,
)
from .kernel import RelationKernel
from .universe import DEFAULT_FD_READING, FdReading, LatticeError, Universe, JOIN, MEET, OUTER

DEFAULT_SEED = 20110604
DEFAULT_SAMPLES = 100_000
DEFAULT_EXHAUSTIVE_LIMIT = 100_000

HOLDS = Verdict.HOLDS
REFUTED = Verdict.REFUTED


class UnknownSuiteError(LatticeError):
    """A suite name, or a universe id for a suite, that the catalog does not know."""


@dataclass(frozen=True)
class SuiteEntry:
    id: str
    text: str
    expected: Verdict
    note: str = ""
    universes: tuple[str, ...] = ("u1", "u2")

    @cached_property  # parsed on first use, once per entry
    def statement(self) -> terms.Statement:
        return terms.parse_statement(self.text)


@lru_cache(maxsize=4)
def standard_universes() -> dict[str, Universe]:
    return {
        "u1": Universe.make({"t": ("a", "b")}),
        "u2": Universe.make({"t": ("a", "b"), "s": ("1", "2")}),
    }


# --- dependency-predicate readings ------------------------------------------

def fd_text(r: str, x: str, y: str, reading: FdReading = DEFAULT_FD_READING) -> str:
    """The order constraint defining FD(r, x, y) under a reading."""
    c = reading.combine
    return f"{r} {c} {x} {c} {y} < {r} {c} {x} {c} {y}'"


def _paren(expr: str) -> str:
    return expr if expr.isalnum() else f"({expr})"


def fd_law_texts(reading: FdReading) -> dict[str, str]:
    """The three dependency laws, written out under `reading`."""
    c, g = reading.combine, reading.augment
    xz, yz = f"x {g} z", f"y {g} z"
    aug_concl = (
        f"r {c} {_paren(xz)} {c} {_paren(yz)} < r {c} {_paren(xz)} {c} {_paren(yz)}'"
    )
    return {
        "reflexivity": f"y < x -> {fd_text('r', 'x', 'y', reading)}",
        "transitivity": (
            f"{fd_text('r', 'x', 'y', reading)} & {fd_text('r', 'y', 'z', reading)}"
            f" -> {fd_text('r', 'x', 'z', reading)}"
        ),
        "augmentation": f"{fd_text('r', 'x', 'y', reading)} -> {aug_concl}",
    }


# Candidate readings: every combination of the two ambiguous slots over
# meet, join, and outer union.  Cylindrification-based combines are left
# out deliberately: they collapse the predicate to constantly-true
# (both sides of the order constraint get the same header and full body),
# which no dependency notion can mean.
ALL_FD_READINGS = tuple(
    FdReading(c, g) for c in (MEET, JOIN, OUTER) for g in (MEET, JOIN, OUTER)
)


class ReadingVerdicts(NamedTuple):
    reading: FdReading
    verdicts: dict[str, dict[str, Verdict]]  # law -> universe id -> verdict

    @property
    def ok(self) -> bool:
        return all(v is HOLDS for per_u in self.verdicts.values() for v in per_u.values())


class FdDiscrimination(NamedTuple):
    rows: tuple[ReadingVerdicts, ...]

    @property
    def survivors(self) -> tuple[FdReading, ...]:
        return tuple(row.reading for row in self.rows if row.ok)

    def row(self, reading: FdReading) -> ReadingVerdicts:
        for r in self.rows:
            if r.reading == reading:
                return r
        raise KeyError(reading)


def discriminate_fd_reading(universes: Mapping[str, Universe] | None = None) -> FdDiscrimination:
    """Exhaustively test every candidate reading against the three laws."""
    if universes is None:
        universes = {"u1": standard_universes()["u1"]}
    kernels = {uid: RelationKernel(u) for uid, u in universes.items()}
    rows = []
    for reading in ALL_FD_READINGS:
        verdicts: dict[str, dict[str, Verdict]] = {}
        for law, text in fd_law_texts(reading).items():
            verdicts[law] = {uid: check(u, text, kernel=kernels[uid]).verdict
                             for uid, u in universes.items()}
        rows.append(ReadingVerdicts(reading, verdicts))
    return FdDiscrimination(tuple(rows))


# --- the catalog -------------------------------------------------------------

def _entries(*rows: tuple) -> tuple[SuiteEntry, ...]:
    return tuple(SuiteEntry(*row) for row in rows)


@lru_cache(maxsize=1)
def suite_catalog() -> dict[str, tuple[SuiteEntry, ...]]:
    """Every suite, its dependency laws written under `DEFAULT_FD_READING`;
    built once per process, so every caller shares its entries and their
    parsed statements."""
    laws = fd_law_texts(DEFAULT_FD_READING)

    outer_inner = _entries(
        ("plus-associative", "(x + y) + z = x + (y + z)", HOLDS),
        ("meet-over-plus", "x ^ (y + z) = (x ^ y) + (x ^ z)", HOLDS),
        ("star-absorbs-plus", "x * (x + y) = x", HOLDS,
         "the absorption direction that survives"),
        ("plus-absorbs-star", "x + (x * y) = x", REFUTED,
         "the struck absorption direction"),
        ("star-associative", "(x * y) * z = x * (y * z)", REFUTED),
        ("star-r00", "x * R00 = R00", HOLDS),
        ("star-r11", "x * R11 = x", HOLDS),
        ("plus-r00", "x + R00 = x", HOLDS),
        ("plus-r11", "x + R11 = R11", HOLDS),
    )

    bilattice = _entries(
        ("meet-commutative", "x ^ y = y ^ x", HOLDS),
        ("meet-associative", "(x ^ y) ^ z = x ^ (y ^ z)", HOLDS),
        ("meet-absorbs-join", "x ^ (x v y) = x", HOLDS),
        ("join-commutative", "x v y = y v x", HOLDS),
        ("join-associative", "(x v y) v z = x v (y v z)", HOLDS),
        ("join-absorbs-meet", "x v (x ^ y) = x", HOLDS),
        ("star-idempotent", "x * x = x", HOLDS),
        ("star-commutative", "x * y = y * x", HOLDS),
        ("plus-idempotent", "x + x = x", HOLDS),
        ("plus-commutative", "x + y = y + x", HOLDS),
        ("const-meet-r10", "x ^ R10 = R10", HOLDS),
        ("const-join-r01", "x v R01 = R01", HOLDS),
        ("const-star-r00", "x * R00 = R00", HOLDS),
        ("const-plus-r11", "x + R11 = R11", HOLDS),
        ("def-star", "x * y = (x v (y ^ R00)) ^ (y v (x ^ R00))", HOLDS),
        ("def-plus", "x + y = (x ^ (y v R11)) v (y ^ (x v R11))", HOLDS),
        ("def-meet", "x ^ y = (x + (y * R10)) * (y + (x * R10))", HOLDS),
        ("def-join", "x v y = (x * (y + R01)) + (y * (x + R01))", HOLDS),
        ("dist-meet-over-plus", "x ^ (y + z) = (x ^ y) + (x ^ z)", HOLDS),
        ("dist-plus-over-meet", "x + (y ^ z) = (x + y) ^ (x + z)", HOLDS),
        ("decomposition", "x = (x ^ R00) v (x ^ R11)", HOLDS,
         "splits a relation into header and content parts"),
        ("decomposition-dual", "x = (x + R01) * (x + R10)", HOLDS),
        ("weak-inverse-decomposition", "R00 ^ (x v R11) = x ^ R00", HOLDS),
        ("weak-inverse-decomposition-dual", "R01 + (x * R10) = x + R01", HOLDS),
        ("plus-alternative-def", "x + y = (x ^ (y v R11)) v (y ^ (x v R11))", HOLDS,
         "second spelling of the outer-union definition; coincides with def-plus"),
        ("dist-plus-over-join", "x + (y v z) = (x + y) v (x + z)", REFUTED),
        ("dist-join-over-plus", "x v (y + z) = (x v y) + (x v z)", REFUTED),
    )

    complement_suite = _entries(
        ("double-complement", "x'' = x", HOLDS),
        ("de-morgan", "x' + y' = (x ^ y)'", HOLDS),
        ("comp-of-plus-r01", "(x + R01)' = x ^ R00", HOLDS),
        ("comp-of-star-r10", "(x * R10)' = x v R11", HOLDS),
        ("comp-of-meet-r00", "(x ^ R00)' = x v R11", HOLDS),
        ("comp-of-plus-r01-as-star", "(x + R01)' = x * R10", HOLDS),
        ("comp-r11", "R11' = R10", HOLDS),
        ("comp-r00", "R00' = R01", HOLDS),
    )

    nand = _entries(
        ("nand-gives-meet", "x ^ y = ((x ^ y)' ^ (x ^ y)')'", HOLDS),
        ("nand-gives-plus", "x + y = ((x ^ x)' ^ (y ^ y)')'", HOLDS),
        ("nand-gives-complement", "x' = (x ^ x)'", HOLDS),
    )

    minimal12 = _entries(
        ("m01-meet-commutative", "x ^ y = y ^ x", HOLDS),
        ("m02-meet-associative", "(x ^ y) ^ z = x ^ (y ^ z)", HOLDS),
        ("m03-meet-absorbs-join", "x ^ (x v y) = x", HOLDS),
        ("m04-join-commutative", "x v y = y v x", HOLDS),
        ("m05-join-associative", "(x v y) v z = x v (y v z)", HOLDS),
        ("m06-join-absorbs-meet", "x v (x ^ y) = x", HOLDS),
        ("m07-decomposition", "x = (x ^ R00) v (x ^ R11)", HOLDS),
        ("m08-star-definitions-agree",
         "(x v (y ^ R00)) ^ (y v (x ^ R00)) = (x ^ y) v ((x v y) ^ R00)", HOLDS),
        ("m09-meet-over-plus-expanded",
         "x ^ (y' ^ z')' = ((x ^ y)' ^ (x ^ z)')'", HOLDS,
         "distributivity over outer union, spelled through De Morgan; the "
         "shorter variant that drops two complement marks is refuted"),
        ("m10-header-distributivity",
         "R00 ^ (x ^ (y v z)) = R00 ^ ((x ^ y) v (x ^ z))", HOLDS),
        ("m11-complement-meet", "x' ^ x = x ^ R00", HOLDS),
        ("m12-complement-join", "x' v x = x v R11", HOLDS),
        ("distributivity", "x ^ (y v z) = (x ^ y) v (x ^ z)", REFUTED,
         "the consistency goal: the system must not collapse to a distributive lattice"),
    )

    cond_dist = _entries(
        ("sdc",
         "R00 ^ (x v y) = R00 ^ (x v z) -> x ^ (y v z) = (x ^ y) v (x ^ z)", HOLDS,
         "conditional distributivity under equal header abstractions"),
        ("weak-header-premise",
         "R00 ^ y = R00 ^ z -> x ^ (y v z) = (x ^ y) v (x ^ z)", HOLDS),
        ("equal-content-premise",
         "R11 ^ y = R11 ^ z -> x ^ (y v z) = (x ^ y) v (x ^ z)", HOLDS),
    )

    dependencies = _entries(
        ("inclusion-transitive-literal",
         "r v x < s v x & s v y < s v y & x < y -> r v x < s v y", HOLDS,
         "middle premise is reflexive as written, hence vacuous", ("u1",)),
        ("inclusion-transitive-variant",
         "r v x < s v x & s v y < t v y & x < y -> r v x < t v y", HOLDS,
         "evident intended form with the middle premise reaching a third relation",
         ("u1",)),
        ("fd-reflexivity", laws["reflexivity"], HOLDS, "", ("u1",)),
        ("fd-transitivity", laws["transitivity"], HOLDS, "", ("u1",)),
        ("fd-augmentation", laws["augmentation"], HOLDS, "", ("u1",)),
    )

    cylindric = _entries(
        ("cyl-self", "x @ x = x v R11", HOLDS),
        ("cyl-self-stable", "(x @ x) @ x = x @ x", HOLDS),
        ("cyl-self-equal-form",
         "z @ (x ^ (z @ y)) = z @ (x ^ (z @ y))", HOLDS,
         "both sides coincide syntactically, so it holds vacuously"),
        ("cyl-commutative", "x @ y = y @ x", HOLDS),
        ("cyl-over-plus", "z @ (x + y) = (z @ x) + (z @ y)", HOLDS),
        ("cyl-over-meet", "z @ (x ^ y) = (z @ x) ^ (z @ y)", HOLDS),
        ("cyl-over-join", "z @ (x v y) = (z @ x) v (z @ y)", HOLDS),
        ("cyl-associative", "x @ (y @ z) = (x @ y) @ z", HOLDS),
    )

    c, g = DEFAULT_FD_READING.combine, DEFAULT_FD_READING.augment
    xz = _paren(f"x {g} z")
    base = f"r {c} {xz} {c} y"
    appendix_a = _entries(
        ("aug-weak-conditional-instance",
         "R00 ^ (z' ^ (y' v R11)) = R00 ^ (y' ^ (z' v R11))", HOLDS,
         "the two expansion pieces share a header"),
        ("aug-split-first",
         f"{fd_text('r', 'x', 'y')} -> {base} < r {c} {xz} {c} (z' ^ (y' v R11))", HOLDS),
        ("aug-split-immediate",
         f"{base} < r {c} {xz} {c} y' -> {base} < r {c} {xz} {c} (y' ^ (z' v R11))", HOLDS,
         "widening the complement's header cannot shrink the right side"),
        ("aug-substitution",
         f"t {c} y < t {c} y' -> t {c} z {c} y < t {c} z {c} y'", HOLDS,
         "stacking one more relation preserves the order constraint"),
    )

    broken_laws = _entries(
        ("star-associative", "(x * y) * z = x * (y * z)", REFUTED),
        ("plus-absorbs-star", "x + (x * y) = x", REFUTED),
        ("distributivity", "x ^ (y v z) = (x ^ y) v (x ^ z)", REFUTED),
        ("dist-plus-over-join", "x + (y v z) = (x + y) v (x + z)", REFUTED),
        ("dist-join-over-plus", "x v (y + z) = (x v y) + (x v z)", REFUTED),
    )

    return {
        "outer-inner": outer_inner,
        "bilattice": bilattice,
        "complement": complement_suite,
        "nand": nand,
        "minimal12": minimal12,
        "cond-dist": cond_dist,
        "dependencies": dependencies,
        "cylindric": cylindric,
        "appendixA": appendix_a,
        "broken-laws": broken_laws,
    }


SUITE_NAMES = tuple(suite_catalog().keys())


def minimal_axioms() -> list[str]:
    """The twelve-axiom system, as statement texts (model-search ready)."""
    return [e.text for e in suite_catalog()["minimal12"] if e.id.startswith("m")]


# --- running -----------------------------------------------------------------

class EntryResult(NamedTuple):
    entry: SuiteEntry
    reports: tuple[tuple[str, CheckReport], ...]

    @property
    def ok(self) -> bool:
        verdicts = [rep.verdict for _, rep in self.reports]
        if self.entry.expected is HOLDS:
            return all(v in (Verdict.HOLDS, Verdict.BUDGET_EXHAUSTED) for v in verdicts)
        return any(v is Verdict.REFUTED for v in verdicts)


class SuiteReport(NamedTuple):
    name: str
    results: tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = [f"suite {self.name}: {'ok' if self.ok else 'MISMATCH'}"]
        for res in self.results:
            marks = ", ".join(
                f"{uid}={rep.verdict.value}" for uid, rep in res.reports
            )
            flag = "ok" if res.ok else "MISMATCH"
            out.append(
                f"  [{flag}] {res.entry.id}: expected {res.entry.expected.value}; {marks}"
            )
        return out


def run_suite(name: str, universes: Mapping[str, Universe] | None = None,
              exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
              samples: int = DEFAULT_SAMPLES,
              seed: int = DEFAULT_SEED) -> SuiteReport:
    """Check every entry of a registered suite over its universes.

    Entries whose assignment space exceeds `exhaustive_limit` run in
    sampling mode instead, which can refute but never confirms.  The
    checks on one universe share a kernel, built at its first check.
    """
    catalog = suite_catalog()
    if name not in catalog:
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {', '.join(catalog)}")
    known = sorted({uid for entry in catalog[name] for uid in entry.universes})
    if universes is not None and not universes:
        raise UnknownSuiteError(f"no universe given; suite {name!r} runs on {', '.join(known)}")
    unused = [uid for uid in universes or () if uid not in known]  # would check nothing
    if unused:
        raise UnknownSuiteError(f"no entry of suite {name!r} runs on universe {unused[0]!r}; "
                                f"its universe ids are {', '.join(known)}")
    if universes is None:
        universes = standard_universes()
    kernels: dict[str, RelationKernel] = {}
    results = []
    for entry in catalog[name]:
        stmt = entry.statement
        nvars = len(terms.free_variables(stmt))
        reports = []
        for uid in entry.universes:
            if uid not in universes:
                continue
            if uid not in kernels:
                kernels[uid] = RelationKernel(universes[uid])
            kernel = kernels[uid]
            mode = Exhaustive() if kernel.n ** nvars <= exhaustive_limit else Sample(seed, samples)
            reports.append((uid, check(kernel.u, stmt, mode, kernel=kernel)))
        results.append(EntryResult(entry, tuple(reports)))
    return SuiteReport(name, tuple(results))


def export_suites(directory: str) -> list[str]:
    """Write each suite as a plain statement file; returns the paths.

    Also writes `minimal12-axioms.stmt` holding just the twelve axioms,
    ready to feed the model searcher (the full minimal12 file additionally
    carries the expected-refuted consistency goal).
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, entries in suite_catalog().items():
        path = os.path.join(directory, f"{name}.stmt")
        lines = [f"# suite {name}: one statement per line"]
        for e in entries:
            lines.append(f"# {e.id} (expected {e.expected.value})")
            lines.append(e.text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    axiom_path = os.path.join(directory, "minimal12-axioms.stmt")
    with open(axiom_path, "w", encoding="utf-8") as fh:
        fh.write("# the twelve-axiom system, axioms only\n")
        fh.write("\n".join(minimal_axioms()) + "\n")
    paths.append(axiom_path)
    return paths
