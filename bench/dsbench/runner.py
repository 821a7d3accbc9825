"""Timed and traced runs of one workload, in the current process.

A timed run first measures set-up in fresh child processes, then runs a
closed loop with one caller: the next item is generated only after the last
one was checked, until the run's seconds have passed.  A traced run
takes a fixed prefix of the same item stream, runs it once untraced and once
traced, and reports per-layer metrics plus the difference as tracing
overhead.

Shared machines change speed for seconds at a time: a pure-Python loop was
seen to swing between 13 and 21 ms in phases of 5-10 s.  So every reported
time but set-up is speed-normalised.  A fixed piece of Fraction arithmetic (the probe,
about 2 ms) runs after every item, and the run's times are scaled by
REFERENCE_PROBE_S over the median probe time of the run.  A time thus reads
as on a machine where the probe takes exactly REFERENCE_PROBE_S.  The median
over the whole run, not the probes next to each item, because a single probe
jitters by 3x.  Raw times are kept in the run's notes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from . import BENCH_DIR, stats, trace, use_checkout_sources, workloads
from .oracle import CheckFailed

SETUP_PROBES = 3
REFERENCE_PROBE_S = 0.002
# Items of the traced prefix: whole shape cycles of each workload.
TRACE_ITEMS = {"paper-sweep": 5, "audit-random": 16, "combine-mobius": 10}
# Tail percentile per workload, fixed so that runs of the parent and of a
# faster change report the same percentile.  Each is the highest level with
# at least ten samples beyond it in a timed run of the seed commit.
TAIL_PCT = {"audit-random": 90, "combine-mobius": 75}
DIGESTS = BENCH_DIR / "digests.json"

_SETUP = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from dsbench.runner import setup_once; print(json.dumps(setup_once(sys.argv[2])))"
)


def probe_s() -> float:
    """Time of a fixed piece of Fraction arithmetic: best of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """The machine's speed during a run, from probes taken between items."""

    def __init__(self) -> None:
        self.probes = [probe_s()]

    def tick(self) -> None:
        self.probes.append(probe_s())

    def factor(self) -> float:
        """Multiply a raw time by this to get the normalised time."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)


def setup_once(name: str) -> float:
    """Seconds to import dsaudit and dsaudit.cli and run one warm-up item.

    Meant for a fresh process, where nothing is cached.  Not normalised: the
    probe in a process this young reads unlike the same probe in a long run.
    """
    use_checkout_sources()
    start = time.perf_counter()
    __import__("dsaudit.cli")
    wl = workloads.make(name, workloads.load())
    try:
        wl.run(wl.warmup_item(), trace.NullProbe())
    except Exception:  # the run's own warm-up item counts the failure
        pass
    finally:
        wl.close()
    return time.perf_counter() - start


def setup_in_child(name: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP, str(BENCH_DIR), name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@dataclass
class Tally:
    """Everything a run learns from its items; times are raw seconds."""

    recorded: list[str]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    digests: list[str] = field(default_factory=list)
    matched: int = 0
    busy_s: float = 0.0
    latencies: list[tuple[int, float]] = field(default_factory=list)  # (slot, seconds)
    by_frame: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    slot_units: dict[int, int] = field(default_factory=dict)
    slot_rated: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))

    def process(self, wl, item, probe, index: int | None = None) -> None:
        """Run, check and record one item.  ``index`` places it in the seeded
        stream, whose items have digests; warm-up and ladder items have none."""
        self.attempted += 1
        try:
            result = wl.run(item, probe)
        except CheckFailed as exc:
            self.failures.append(f"item {index}: {exc}")
            return
        except Exception:  # an undocumented exception is a failed item
            self.failures.append(f"item {index}: {traceback.format_exc(limit=3)}")
            return
        if index is not None:
            digest = hashlib.sha256(result.canonical.encode()).hexdigest()[:16]
            if index < len(self.recorded) and self.recorded[index] != digest:
                self.failures.append(f"item {index}: digest {digest} != recorded {self.recorded[index]}")
                return
            if index < len(self.digests) and self.digests[index] != digest:
                self.failures.append(f"item {index}: output differs between two runs of it")
                return
            self.matched += index < len(self.recorded)
            if index == len(self.digests):
                self.digests.append(digest)
        self.outcomes[result.outcome] += 1
        self.busy_s += result.seconds
        if result.latency:
            self.latencies.append((item.slot, result.seconds))
            self.by_frame[result.frame_size].append(result.seconds)
        if result.units:
            self.slot_units[item.slot] = result.units
            self.slot_rated[item.slot].append(result.seconds)

    def weighted_latencies(self) -> list[tuple[float, float]]:
        """(seconds, weight) per latency sample, weighted so that every slot
        of the shape cycle weighs the same however often the run visited it.
        A faster program visits more of the cycle in a run; without weights
        the extra, partial cycle would shift the statistics."""
        visits = Counter(slot for slot, _ in self.latencies)
        return [(seconds, 1 / visits[slot]) for slot, seconds in self.latencies]

    def cycle_rate(self) -> float:
        """Work units per raw second over one shape cycle: the units of each
        rated slot over the sum of the slots' mean times."""
        seconds = sum(statistics.fmean(t) for t in self.slot_rated.values())
        return sum(self.slot_units.values()) / seconds if seconds else 0.0

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()[:16]


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    tally: Tally
    metrics: dict[str, float]
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.tally.failures


def timed_run(name: str, seed: int, seconds: float) -> RunResult:
    setups = [setup_in_child(name) for _ in range(SETUP_PROBES)]
    wl = workloads.make(name, workloads.load())
    tally = Tally(load_digests().get(name, {}).get(str(seed), []))
    probe = trace.NullProbe()
    warm = Tally([])
    try:
        warm.process(wl, wl.warmup_item(), probe)
        clock = Clock()
        end = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < end:
            tally.process(wl, wl.item(seed, index), probe, index)
            clock.tick()
            index += 1
    finally:
        wl.close()
    tally.attempted += warm.attempted
    tally.failures += warm.failures
    lat, k = tally.weighted_latencies(), clock.factor()
    p50 = stats.weighted_percentile(lat, 50) if lat else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": 1000 * k * p50,
        "rate_per_s": tally.cycle_rate() / k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"samples": len(lat), "speed_factor": k, "raw_p50_ms": 1000 * p50}
    if name in TAIL_PCT and lat:
        pct = TAIL_PCT[name]
        tail = stats.weighted_percentile(lat, pct)
        notes.update(
            tail_ms=1000 * k * tail, tail_pct=pct,
            tail_beyond=sum(1 for seconds, _ in lat if seconds > tail),
        )
    return RunResult(name, seed, False, tally, metrics, notes)


def _pass(tally: Tally, wl, items, probe, indexed: bool = True) -> float:
    """Run items once; returns their speed-normalised time."""
    clock = Clock()
    before = tally.busy_s
    for i, item in enumerate(items):
        tally.process(wl, item, probe, i if indexed else None)
        clock.tick()
    return (tally.busy_s - before) * clock.factor()


def traced_run(name: str, seed: int) -> RunResult:
    wl = workloads.make(name, workloads.load())
    tally = Tally(load_digests().get(name, {}).get(str(seed), []))
    null = trace.NullProbe()
    items = [wl.item(seed, i) for i in range(TRACE_ITEMS[name])]
    warm, ladder = Tally([]), Tally([])
    try:
        warm.process(wl, wl.warmup_item(), null)
        untraced = _pass(tally, wl, items, null)
        before = tally.busy_s
        with trace.installed() as tracer:
            traced = _pass(tally, wl, items, tracer)
        traced_raw = tally.busy_s - before
        ladder_s = _pass(ladder, wl, wl.ladder(seed), null, indexed=False)
    finally:
        wl.close()
    tally.attempted += warm.attempted + ladder.attempted
    tally.failures += warm.failures + ladder.failures
    metrics = trace.layer_metrics(tracer, traced_raw)
    k = ladder_s / ladder.busy_s if ladder.busy_s else 0.0
    for n in (3, 4, 5):
        samples = ladder.by_frame.get(n)
        metrics[f"audit.n{n}_p50_ms"] = 1000 * k * statistics.median(samples) if samples else 0.0
    metrics.update({
        "trace.items": len(items),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced if untraced else 0.0,
    })
    notes = {"ladder_ms": {n: [round(1000 * k * s, 1) for s in v] for n, v in sorted(ladder.by_frame.items())}}
    return RunResult(name, seed, True, tally, metrics, notes)
