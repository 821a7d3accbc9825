"""The traced benchmark runs against the current code and reports every metric.

The tracer reads internals (`build_constraints(...).constraints`, the rows
passed to `lp.minimize` and their `LinearConstraint.sense.name` and `.rhs`,
`LPSolution.value` and `LPSolution.point`, which is read off the solve's
final basis), so a refactor can break
`bench/run.py --trace 1` without any unit test noticing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
