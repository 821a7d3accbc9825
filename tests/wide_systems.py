"""Seeded wide audit inputs: several bodies of many focal sets on 12-24 elements.

These are the systems on which the cost of an audit is measured by hand, and
the widest that tier-1 audits.  One system is a pure function of
(seed, bodies, n, k):

- the frame is e0..e{n-1};
- one `random.Random(seed*1000 + bodies*100 + n*10 + k)` serves every body in
  turn;
- each body draws k distinct nonempty bitmasks with `rng.sample`, then cuts
  60 at `sorted(rng.sample(range(1, 60), k - 1))` into k positive parts;
- the parts, over 60, go to the sets in ascending bitmask order.

`finding_hash` is the first 10 hex digits of the sha256 of
`repr([(f.subset.bits, f.prob.lower, f.prob.upper) for f in findings])`.

`counting` counts calls of `lp` functions, as tier-1 counts each audit's
LP solves (calls of `lp.minimize`, which `lp.maximize` goes through).  Run
as a script, this module audits every table row at seeds 1 and 2 and
prints each hash with the LP solve count, the pivot count and the audit's
wall time:

    PYTHONPATH=src python tests/wide_systems.py
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from dsaudit import audit, lp, make_body, make_frame
from dsaudit.frames import FocalSet

# (bodies, n, k): the three that tier-1 audits, then the two slower ones.
TABLE = ((2, 16, 16), (3, 12, 10), (4, 12, 8), (2, 24, 15), (3, 16, 10))


def wide_bodies(seed: int, bodies: int, n: int, k: int) -> list:
    rng = random.Random(seed * 1000 + bodies * 100 + n * 10 + k)
    frame = make_frame([f"e{i}" for i in range(n)])
    out = []
    for _ in range(bodies):
        masks = sorted(rng.sample(range(1, 1 << n), k))
        cuts = sorted(rng.sample(range(1, 60), k - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, 60])]
        masses = [(FocalSet(frame, m), Fraction(p, 60)) for m, p in zip(masks, parts)]
        out.append(make_body(frame, masses))
    return out


def finding_hash(findings) -> str:
    rows = [(f.subset.bits, f.prob.lower, f.prob.upper) for f in findings]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:10]


@contextmanager
def counting(*names: str):
    """A Counter of the calls of each named `lp` function while open."""
    counts: Counter = Counter()
    originals = {name: getattr(lp, name) for name in names}

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    for name, original in originals.items():
        setattr(lp, name, counted(name, original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(lp, name, original)


def main() -> None:
    with counting("minimize", "_pivot") as counts:
        for row in TABLE:
            for seed in (1, 2):
                bodies = wide_bodies(seed, *row)
                counts.clear()
                began = time.perf_counter()
                report = audit(bodies)
                took = time.perf_counter() - began
                found = finding_hash(report.findings)
                solves, pivots = counts["minimize"], counts["_pivot"]
                print(row, seed, found, f"{solves} solves", f"{pivots} pivots", f"{took:.2f} s", flush=True)


if __name__ == "__main__":
    main()
