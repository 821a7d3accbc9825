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
- `measure_table` (belief and plausibility) and `mass_from_belief` on a
  9-element body, which spans two packed chunks, and on one whose
  denominator passes 2**64, which needs fields wider than `struct` packs:
  each body's `(den, ints)` of both tables hashes to the SHA-256 pinned
  below, and the belief table inverts to the body;
- `probability_bounds` called directly on the README's evidence file:
  {b}, then {a,c}, then the frame are [1/4, 1/4], [3/4, 3/4] and [1, 1],
  and the last two, a complement and the frame, cost no `lp.minimize` call;
- `BodyOfEvidence` built directly: a valid body builds, and a body with a
  negative mass, one with unsorted focal sets and one whose masses do not
  sum to 1 each raise `EvidenceError` with its message on construction;
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

from dsaudit import (  # noqa: E402
    Family,
    MeasureKind,
    Verdict,
    build_constraints,
    make_body,
    make_frame,
    mass_from_belief,
    measure_table,
    parse_document,
    probability_bounds,
    subset,
    sweep,
    sweep_to_csv,
)
from dsaudit import EvidenceError, lp  # noqa: E402
from dsaudit.evidence import BodyOfEvidence  # noqa: E402
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


# SHA-256 of repr([(den, ints) of the belief table, (den, ints) of the
# plausibility table]) for each body of `_measure_bodies`.
MEASURE_PINS = {
    "nine elements": "cd64c39da239cc3c9461037d4e7147936dad8a6b0da0bea0cc856f9673d8801a",
    "den past 2**64": "df967e2060826a9a3660c0d657f6ff53b292c11017b4bf3e83e04a582f809076",
}


def _measure_bodies() -> dict[str, object]:
    nine = make_frame([f"e{i}" for i in range(9)])
    ten = make_frame([f"e{i}" for i in range(10)])
    a, b = Fraction(1, 3**41), Fraction(1, 7**23)
    return {
        "nine elements": make_body(
            nine,
            [
                (subset(nine, [f"e{i}" for i in range(8)]), "1/3"),
                (subset(nine, ["e4", "e5", "e6", "e7", "e8"]), "1/4"),
                (subset(nine, ["e0", "e8"]), "1/6"),
                (subset(nine, [f"e{i}" for i in range(9)]), "1/4"),
            ],
        ),
        "den past 2**64": make_body(
            ten,
            [
                (subset(ten, ["e0", "e1"]), a),
                (subset(ten, ["e5", "e7", "e9"]), b),
                (subset(ten, [f"e{i}" for i in range(10)]), 1 - a - b),
            ],
        ),
    }


def measure_tables() -> None:
    for name, body in _measure_bodies().items():
        bel = measure_table(body, MeasureKind.BELIEF)
        pl = measure_table(body, MeasureKind.PLAUSIBILITY)
        assert mass_from_belief(bel) == body, name
        fields = repr([(t.den, t.ints) for t in (bel, pl)])
        assert hashlib.sha256(fields.encode("utf-8")).hexdigest() == MEASURE_PINS[name], name


def direct_bounds() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.compile(r"^```json\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    doc = parse_document(block.search(readme, readme.index("## Evidence files")).group(1))
    system = build_constraints(list(doc.bodies.values()))
    minimize, solves = lp.minimize, []

    def counted(*args, **kwargs):
        solves[-1] += 1
        return minimize(*args, **kwargs)

    lp.minimize = counted
    try:
        for labels, lower, upper in (
            (["b"], "1/4", "1/4"),
            (["a", "c"], "3/4", "3/4"),
            (["a", "b", "c"], "1", "1"),
        ):
            solves.append(0)
            interval = probability_bounds(system, subset(system.frame, labels))
            assert (interval.lower, interval.upper) == (Fraction(lower), Fraction(upper)), labels
    finally:
        lp.minimize = minimize
    assert solves[1:] == [0, 0], solves


def hand_built_bodies() -> None:
    frame = make_frame(["a", "b", "c"])
    assert BodyOfEvidence(frame, 4, ((1, 1), (6, 3))) == make_body(
        frame, [(subset(frame, ["a"]), "1/4"), (subset(frame, ["b", "c"]), "3/4")]
    )
    for den, masses, message in (
        (1, ((1, 2), (2, -1)), "negative mass -1 on {b}"),
        (2, ((2, 1), (1, 1)), "focal sets out of order: {a} after {b}"),
        (4, ((1, 2), (2, 1)), "masses must sum to exactly 1, got 3/4"),
    ):
        try:
            BodyOfEvidence(frame, den, masses)
        except EvidenceError as exc:
            assert str(exc) == message, (str(exc), message)
        else:
            raise AssertionError(f"built {masses}")


def no_click() -> None:
    assert "click" not in sys.modules


CHECKS = (
    library_snippet,
    reproduction,
    partition_sweep,
    measure_tables,
    direct_bounds,
    hand_built_bodies,
    no_click,
)


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
