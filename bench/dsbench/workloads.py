"""The three workloads: how one item calls into dsaudit and how it is checked.

``run`` times only the calls into dsaudit; generation happens before and the
output checks after, with tracing paused.  Each item returns the canonical
text of its output, which the runner hashes into the run's digest.
"""

from __future__ import annotations

import importlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import BENCH_DIR, gen
from .trace import MODULES
from .oracle import (
    check_findings,
    family_bodies,
    fold,
    masses_of,
    partition_cells,
    require,
)

def load() -> SimpleNamespace:
    """Import dsaudit's modules; the runner calls this after timing set-up."""
    mods = {name: importlib.import_module(f"dsaudit.{name}") for name in MODULES}
    mods["CliRunner"] = importlib.import_module("click.testing").CliRunner
    return SimpleNamespace(**mods)


@dataclass(frozen=True)
class ItemResult:
    seconds: float
    outcome: str
    canonical: str
    units: int = 0  # work units this item adds to the rate; 0 = not rated
    latency: bool = False  # whether this item is a latency sample
    frame_size: int = 0


class Workload:
    """Defaults for the workload classes below."""

    def ladder(self, seed: int) -> list:
        """Extra items of the traced run, timed untraced; none by default."""
        return []

    def close(self) -> None:
        pass


def _audit_rows(findings):
    return [
        (f.subset.bits, f.ds_lower, f.ds_upper, f.prob.lower, f.prob.upper) for f in findings
    ]


class AuditRandom(Workload):
    """Seeded random evidence, parsed from JSON text and audited."""

    name = "audit-random"
    # This workload's own names for the generic end-to-end metrics: (name, scale, unit).
    aliases = {
        "rate_per_s": ("audits_per_s", 1.0, "1/s"),
        "p50_ms": ("audit_p50_ms", 1.0, "ms"),
        "tail_ms": ("audit_tail_ms", 1.0, "ms"),
    }

    def __init__(self, m: SimpleNamespace) -> None:
        self.m = m

    def item(self, seed: int, index: int) -> gen.EvidenceItem:
        return gen.audit_item(seed, index)

    def warmup_item(self) -> gen.EvidenceItem:
        return gen.audit_item(0, 0)

    def ladder(self, seed: int) -> list[gen.EvidenceItem]:
        return [
            gen.audit_ladder_item(seed, n, i) for n, count in gen.AUDIT_LADDER for i in range(count)
        ]

    def run(self, item: gen.EvidenceItem, probe) -> ItemResult:
        m = self.m
        start = time.perf_counter()
        doc = m.documents.parse_document(item.text)
        names = list(doc.bodies)
        bodies = [doc.bodies[k] for k in names]
        try:
            report = m.consistency.audit(bodies, names)
        except m.combine.TotalConflictError:
            report = None
        seconds = time.perf_counter() - start
        with probe.paused():
            inputs = [masses_of(b) for b in bodies]
            combined, kappa = fold(inputs)
            if report is None:
                require(not combined, "TotalConflictError on evidence that combines")
                return ItemResult(seconds, "total-conflict", "total-conflict", 1, True, item.frame_size)
            require(masses_of(report.combined) == combined, "combined body differs from Dempster's rule")
            require(report.kappa == kappa, f"kappa {report.kappa} != {kappa}")
            if len(bodies) == 2:
                conflict = m.combine.conflict(*bodies)
                require(report.kappa == conflict, f"kappa {report.kappa} != conflict() {conflict}")
            rows = _audit_rows(report.findings)
            check_findings(rows, item.frame_size, combined, inputs, report.feasible)
            canonical = "\n".join(
                [f"kappa {report.kappa}"]
                + [" ".join(map(str, r)) + f" {f.verdict.value}" for r, f in zip(rows, report.findings)]
            )
        outcome = "feasible" if report.feasible else "infeasible"
        return ItemResult(seconds, outcome, canonical, 1, True, item.frame_size)


class CombineMobius(Workload):
    """Large frames: combination, full measure tables and Mobius inversion."""

    name = "combine-mobius"
    aliases = {
        "rate_per_s": ("docs_per_s", 1.0, "1/s"),
        "p50_ms": ("doc_p50_ms", 1.0, "ms"),
        "tail_ms": ("doc_tail_ms", 1.0, "ms"),
    }

    def __init__(self, m: SimpleNamespace) -> None:
        self.m = m

    def item(self, seed: int, index: int) -> gen.EvidenceItem:
        return gen.mobius_item(seed, index)

    def warmup_item(self) -> gen.EvidenceItem:
        return gen.mobius_item(0, 0)

    def run(self, item: gen.EvidenceItem, probe) -> ItemResult:
        m = self.m
        kind = m.measures.MeasureKind
        start = time.perf_counter()
        doc = m.documents.parse_document(item.text)
        bodies = list(doc.bodies.values())
        try:
            result = m.combine.combine_many(bodies)
        except m.combine.TotalConflictError:
            result = None
        if result is not None:
            bel = m.measures.measure_table(result.combined, kind.BELIEF)
            pl = m.measures.measure_table(result.combined, kind.PLAUSIBILITY)
            recovered = m.measures.mass_from_belief(bel)
        seconds = time.perf_counter() - start
        with probe.paused():
            combined, kappa = fold([masses_of(b) for b in bodies])
            if result is None:
                require(not combined, "TotalConflictError on evidence that combines")
                return ItemResult(seconds, "total-conflict", "total-conflict", 1, True, item.frame_size)
            require(masses_of(result.combined) == combined, "combined body differs from Dempster's rule")
            require(result.kappa == kappa, f"kappa {result.kappa} != {kappa}")
            require(recovered == result.combined, "mass_from_belief(bel table) != combined body")
            full = (1 << item.frame_size) - 1
            bel_of = {s.bits: v for s, v in bel.values.items()}
            pl_of = {s.bits: v for s, v in pl.values.items()}
            require(len(bel_of) == len(pl_of) == full + 1, "measure table does not cover every subset")
            for bits, value in pl_of.items():
                require(value == 1 - bel_of[full ^ bits], f"pl({bits:b}) != 1 - bel(complement)")
            canonical = "\n".join(
                [" ".join(str(step.kappa) for step in result.steps), str(result.combined)]
            )
        return ItemResult(seconds, "combined", canonical, 1, True, item.frame_size)


README_EVIDENCE = """{
  "frame": ["a", "b", "c"],
  "bodies": {
    "A": [{"set": ["a"], "mass": "1/4"}, {"set": ["b", "c"], "mass": "3/4"}],
    "B": [{"set": ["a", "b"], "mass": "1/2"}, {"set": ["c"], "mass": "1/2"}]
  }
}
"""
README_AUDIT_TABLE = """\
element  ds_lo  ds_hi  p_lo  p_hi  verdict    kappa
{a}      1/7    1/7    1/4   1/4   Violation  1/8
{b}      3/7    3/7    1/4   1/4   Violation  1/8
{c}      3/7    3/7    1/2   1/2   Violation  1/8
"""
CSV_HEADER = "family,x,xbar,y,kappa,element,ds_lo,ds_hi,p_lo,p_hi,verdict"
DEFAULT_SLICES = tuple(Fraction(i, 4) for i in range(5))


class PaperSweep(Workload):
    """The paper reproduction, the README audit and the two family sweeps."""

    name = "paper-sweep"
    # A run holds six or seven repro jobs: too few for a tail percentile.
    aliases = {
        "rate_per_s": ("sweep_points_per_s", 1.0, "1/s"),
        "p50_ms": ("repro_s", 0.001, "s"),
    }

    def __init__(self, m: SimpleNamespace) -> None:
        self.m = m
        self.runner = m.CliRunner()
        self.workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
        self.evidence = self.workdir / "evidence.json"
        self.evidence.write_text(README_EVIDENCE, encoding="utf-8")

    def item(self, seed: int, index: int) -> gen.SweepJob:
        return gen.sweep_job(seed, index)

    def warmup_item(self) -> gen.SweepJob:
        return gen.SweepJob(gen.SWEEP_CYCLE.index("readme"), "readme")

    def _cli(self, args: list[str], probe):
        start = time.perf_counter()
        with probe.span("cli.main"):
            result = self.runner.invoke(self.m.cli.main, args)
        return result, time.perf_counter() - start

    def run(self, job: gen.SweepJob, probe) -> ItemResult:
        if job.kind == "repro":
            result, seconds = self._cli(["paper-repro"], probe)
            lines = result.output.splitlines()
            passed = sum(line.startswith("ok ") for line in lines)
            require(result.exit_code == 0, f"paper-repro exited {result.exit_code}")
            require(
                passed == len(lines) - 1 and lines[-1] == f"{passed}/{passed} checks passed",
                "paper-repro reported a mismatch",
            )
            return ItemResult(seconds, "repro", result.output, 0, True)
        if job.kind == "readme":
            result, seconds = self._cli(["audit", "-i", str(self.evidence), "A", "B"], probe)
            require(result.exit_code == 4, f"README audit exited {result.exit_code}, not 4")
            require(result.output == README_AUDIT_TABLE, "README audit table differs")
            return ItemResult(seconds, "readme", result.output)

        sweeps = self.m.sweeps
        partition = job.kind == "partition"
        family = sweeps.Family.PARTITION_XY if partition else sweeps.Family.QUASI_X_XBAR_Y
        grid = gen.PARTITION_GRID if partition else gen.QUASI_GRID
        start = time.perf_counter()
        result = sweeps.sweep(family, grid)
        text = sweeps.sweep_to_csv(result)
        seconds = time.perf_counter() - start
        with probe.paused():
            self._check_sweep(result, text, grid, partition)
        return ItemResult(seconds, job.kind, text, len(result.points))

    def _check_sweep(self, result, text: str, grid: int, partition: bool) -> None:
        steps = [Fraction(i, grid) for i in range(grid + 1)]
        slices = [None] if partition else DEFAULT_SLICES
        expected = [
            (x, xbar, y) for xbar in slices for x in steps
            if xbar is None or x + xbar <= 1 for y in steps
        ]
        require([(p.x, p.xbar, p.y) for p in result.points] == expected, "sweep visited other grid points")
        for p in result.points:
            xbar = 1 - p.x if partition else p.xbar
            cells, kappa = partition_cells(p.x, xbar, p.y)
            if kappa == 1:
                require(p.total_conflict and p.kappa == 1, f"no total conflict at {p.x},{p.y}")
                continue
            require(not p.total_conflict and p.kappa == kappa, f"kappa {p.kappa} != {kappa}")
            rows = [
                (r.element.bits, r.ds_lower, r.ds_upper, r.prob.lower, r.prob.upper) for r in p.rows
            ]
            feasible = all(r.prob.feasible for r in p.rows)
            check_findings(rows, 3, cells, family_bodies(p.x, xbar, p.y), feasible)
        if partition:
            consistent = {(p.x, p.y) for p in result.consistent}
            want = {(x, y) for x in steps for y in steps if x == 0 or y == 1}
            require(consistent == want, "partition consistent set is not {x=0} | {y=1}")
        lines = text.splitlines()
        n_rows = sum(len(p.rows) for p in result.points)
        require(lines[0] == CSV_HEADER, "CSV header differs")
        require(len(lines) == 2 + n_rows + len(result.consistent), "CSV has the wrong number of lines")
        require(lines[1 + n_rows].startswith("# consistent points"), "CSV footer missing")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperSweep, AuditRandom, CombineMobius)}


def make(name: str, m: SimpleNamespace):
    return WORKLOADS[name](m)
