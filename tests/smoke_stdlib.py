"""A smoke run of the library on the standard library alone.

It imports neither `click` nor `pytest` nor `hypothesis`, so it runs on any
Python that `requires-python` admits, with nothing installed:

    python tests/smoke_stdlib.py

Every warning is an error.  It checks:

- the README's Library snippet: kappa 1/8 and three `Violation`s;
- `run_reproduction()`: every check is ok, and each prints as the `ok` line
  of tests/data/paper_repro.txt that `dsaudit paper-repro` prints for it;
- `sweep(Family.PARTITION_XY, 12)`: its CSV hashes to the SHA-256 pinned in
  tests/data/sweep_digests.json;
- none of that imported `click`, the CLI's one dependency.

It prints one line per check and exits 0 only if all of them pass.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

warnings.simplefilter("error")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dsaudit import Family, Verdict, sweep, sweep_to_csv  # noqa: E402
from dsaudit.repro import run_reproduction  # noqa: E402


def library_snippet() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    namespace: dict[str, object] = {}
    exec(block.search(readme, readme.index("## Library")).group(1), namespace)
    assert namespace["result"].kappa == Fraction(1, 8)
    verdicts = [f.verdict for f in namespace["report"].findings]
    assert verdicts == [Verdict.VIOLATION] * 3, verdicts


def reproduction() -> None:
    checks = run_reproduction()
    assert all(c.ok for c in checks), [c.label for c in checks if not c.ok]
    pinned = (ROOT / "tests" / "data" / "paper_repro.txt").read_text(encoding="utf-8")
    want = [line for line in pinned.splitlines() if line.startswith("ok ")]
    assert [f"ok       {c.label}: {c.actual}" for c in checks] == want


def partition_sweep() -> None:
    digests = json.loads((ROOT / "tests" / "data" / "sweep_digests.json").read_text(encoding="utf-8"))
    pin = next(d["sha256"] for d in digests if d["name"] == "partition-xy-grid12")
    text = sweep_to_csv(sweep(Family.PARTITION_XY, 12))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin


def no_click() -> None:
    assert "click" not in sys.modules


CHECKS = (library_snippet, reproduction, partition_sweep, no_click)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    print(f"Python {sys.version.split()[0]}: {len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
