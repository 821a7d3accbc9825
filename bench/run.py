"""dsaudit benchmark.

Timed run of one workload (end-to-end metrics):
    python3 bench/run.py --workload audit-random --seed 1 --seconds 36 --trace 0
Traced run of one workload (per-layer metrics):
    python3 bench/run.py --workload audit-random --seed 1 --trace 1
Every workload, each in a fresh process:
    python3 bench/run.py --workload all --seed 1 --seconds 30
Compare two sets of results written with --out:
    python3 bench/run.py --compare parent.jsonl change.jsonl

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units come from
BENCHMARK.json at the root of the checkout.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from dsbench import REPO_DIR, MissingProgramError, runner, stats, use_checkout_sources
from dsbench.workloads import WORKLOADS

SPEC = json.loads((REPO_DIR / "BENCHMARK.json").read_text())


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def report(result) -> dict:
    """Print a run's metrics for people, then return the result line."""
    tally = result.tally
    print(f"workload {result.workload}, seed {result.seed}, {'traced' if result.traced else 'timed'}")
    outcomes = ", ".join(f"{k} {v}" for k, v in sorted(tally.outcomes.items()))
    print(f"  items: {tally.attempted} attempted, {len(tally.failures)} failed; outcomes: {outcomes}")
    for failure in tally.failures[:10]:
        print(f"  FAILED {failure}")
    notes = result.notes
    if result.traced:
        for spec in SPEC["per_layer"]:
            print(_line(spec["name"], result.metrics[spec["name"]], spec["unit"]))
        print(f"  traced prefix: items 0..{runner.TRACE_ITEMS[result.workload] - 1} of the seeded stream")
    else:
        for generic, (name, scale, unit) in WORKLOADS[result.workload].aliases.items():
            if generic == "tail_ms":
                if "tail_ms" not in notes:  # no latency sample: every item failed
                    continue
                note = f"(p{notes['tail_pct']} of {notes['samples']} samples, {notes['tail_beyond']} beyond)"
                print(_line(name, notes["tail_ms"] * scale, unit, note))
            else:
                print(_line(name, result.metrics[generic] * scale, unit, f"[{generic}]"))
        print(_line("setup_s", result.metrics["setup_s"], "s", f"(median of {runner.SETUP_PROBES} fresh processes)"))
        print(_line("peak_rss_mb", result.metrics["peak_rss_mb"], "MB"))
        ratio = len(tally.failures) / tally.attempted
        print(_line("error_ratio", ratio, "ratio", f"({len(tally.failures)} failed / {tally.attempted} attempted)"))
        print(f"  unnormalised p50: {notes['raw_p50_ms']:.6g} ms (speed factor {notes['speed_factor']:.4g})")
    print(f"  digest {tally.digest()} over {len(tally.digests)} items; {tally.matched} matched recorded digests")
    metrics = SPEC["per_layer"] if result.traced else SPEC["end_to_end"]
    return {
        "correct": result.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def run_one(args) -> int:
    try:
        use_checkout_sources()
    except MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result = runner.traced_run(args.workload, args.seed)
    else:
        result = runner.timed_run(args.workload, args.seed, args.seconds)
    line = report(result)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "result": line, "notes": result.notes,
            "digests": result.tally.digests,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; non-zero if any fails."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name}: exit code {proc.returncode}")
            status = 1
    print("all workloads correct" if status == 0 else "SOME WORKLOAD FAILED")
    return status


def _records(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    return [json.loads(line) for f in files for line in f.read_text().splitlines() if line.strip()]


def compare(parent_path: str, change_path: str) -> int:
    """Median and quartiles per side, and a class per workload and metric."""
    sides = []
    for path in (parent_path, change_path):
        grouped = defaultdict(list)
        for rec in _records(path):
            if not rec["trace"]:
                grouped[rec["workload"]].append(rec)
        for recs in grouped.values():
            recs.sort(key=lambda r: r["seed"])
        sides.append(grouped)
    parent, change = sides
    print(f"{'workload':<15} {'metric':<13} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} class")
    for name in WORKLOADS:
        if not parent.get(name) or not change.get(name):
            continue
        for spec in SPEC["end_to_end"]:
            pv = [r["result"]["metrics"][spec["name"]]["value"] for r in parent[name]]
            cv = [r["result"]["metrics"][spec["name"]]["value"] for r in change[name]]
            verdict, wins, pairs = stats.classify(pv, cv, spec["better"], spec["bound"])
            cols = []
            for values in (pv, cv):
                q1, med, q3 = stats.quartiles(values)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{name:<15} {spec['name']:<13} {cols[0]:<34} {cols[1]:<34} {wins}/{pairs:<5} {verdict}")
        tails = [[r["notes"].get("tail_ms") for r in side[name]] for side in (parent, change)]
        levels = {r["notes"].get("tail_pct") for side in (parent, change) for r in side[name]}
        if None not in tails[0] + tails[1]:
            meds = [statistics.median(t) for t in tails]
            verdict = "unresolved: percentiles differ" if len(levels) > 1 else "(no bound)"
            print(f"{name:<15} {'tail_ms':<13} {meds[0]:<34.5g} {meds[1]:<34.5g} {'':<7} {verdict}")
        failed = [sum(r["result"]["failed"] for r in side[name]) for side in (parent, change)]
        attempted = [sum(r["result"]["attempted"] for r in side[name]) for side in (parent, change)]
        note = "  MORE FAILURES IN CHANGE: no gain counts" if failed[1] > failed[0] else ""
        print(f"{name:<15} {'failed':<13} {failed[0]}/{attempted[0]:<32} {failed[1]}/{attempted[1]}{note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append each run's record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two sets of --out records (files or directories)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
