"""Seeded input generators.

Every input is a pure function of (workload, seed, index), so one seed always
gives the same inputs, and dsaudit only ever sees the generated evidence.

An input has a structure and a presentation.  The structure of item i (frame
size, focal sets, masses) comes from a fixed stream that every seed shares;
the seed chooses the presentation: a relabelling of the frame's elements and
the order of the bodies and of each body's focal sets.  Presentation changes
the bit positions of every set, the order of the LP constraints and so the
simplex pivot path, but not the verdicts, the outcome classes or the size of
the problem.  This is deliberate: with fresh structures for every seed, the
quartile spread across seeds of the LP work in an audit-random run was
8-11%, because a run sees about 90 audits whose costs span 10x (infeasible
systems stop after phase 1).  With shared structures it was 0.8%, so a
difference between runs is a difference in speed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

MAX_DENOMINATOR = 64

# audit-random: (frame size, bodies) per slot.  The timed loop audits
# 3-element frames only.  Larger frames cost 10-100x more on the seed code
# and their cost depends on the pivot path: two 4-element audits in every 16
# made the LP work of a run vary by 7.6% across seeds, against 0.8% without.
# All three sizes are timed in the traced run's frame-size ladder instead.
AUDIT_CYCLE: tuple[tuple[int, int], ...] = ((3, 2), (3, 3))
AUDIT_FOCAL = (2, 4)
# Frame sizes and item counts of the traced run's latency ladder.
AUDIT_LADDER: tuple[tuple[int, int], ...] = ((3, 6), (4, 3), (5, 2))

# combine-mobius: frame size per slot; always three bodies.
MOBIUS_CYCLE: tuple[int, ...] = (8, 9, 8, 9, 10, 8, 9, 10, 9, 11)
MOBIUS_BODIES = 3
MOBIUS_FOCAL = (10, 15)

# paper-sweep: the inputs are the paper's fixed families, so the seed only
# rotates the order of the jobs.  Two repro jobs per cycle give a 36 s run
# six or seven repro samples.
SWEEP_CYCLE: tuple[str, ...] = ("repro", "readme", "partition", "repro", "quasi")
PARTITION_GRID = 4
QUASI_GRID = 2


@dataclass(frozen=True)
class EvidenceItem:
    """One generated evidence document, as JSON text; ``slot`` is its
    position in the workload's shape cycle."""

    slot: int
    frame_size: int
    text: str


@dataclass(frozen=True)
class SweepJob:
    slot: int
    kind: str


Body = list[tuple[int, Fraction]]


def item_rng(stream: str, seed: int | str, index: int) -> random.Random:
    return random.Random(f"{stream}/{seed}/{index}")


def labels(frame_size: int, bits: int) -> list[str]:
    return [f"w{i}" for i in range(frame_size) if bits >> i & 1]


def random_body(rng: random.Random, frame_size: int, focal_count: int) -> Body:
    """Distinct non-empty focal sets with positive masses p/d, d <= 64."""
    sets = rng.sample(range(1, 1 << frame_size), focal_count)
    den = rng.randint(focal_count, MAX_DENOMINATOR)
    cuts = sorted(rng.sample(range(1, den), focal_count - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    return [(bits, Fraction(p, den)) for bits, p in zip(sets, parts)]


def structure(stream: str, index: int, frame_size: int, bodies: int, focal: tuple[int, int]) -> list[Body]:
    """The seed-independent structure of item ``index`` of a stream."""
    rng = item_rng(stream, "structure", index)
    return [random_body(rng, frame_size, rng.randint(*focal)) for _ in range(bodies)]


def presentation(rng: random.Random, frame_size: int, bodies: list[Body]) -> str:
    """JSON text of the bodies with relabelled elements and shuffled order."""
    perm = rng.sample(range(frame_size), frame_size)

    def moved(bits: int) -> int:
        return sum(1 << perm[i] for i in range(frame_size) if bits >> i & 1)

    doc = {
        "frame": labels(frame_size, (1 << frame_size) - 1),
        "bodies": {
            f"B{k}": [
                {"set": labels(frame_size, moved(bits)), "mass": str(mass)}
                for bits, mass in rng.sample(body, len(body))
            ]
            for k, body in enumerate(rng.sample(bodies, len(bodies)))
        },
    }
    return json.dumps(doc)


def _evidence(
    stream: str, seed: int, index: int, slot: int, frame_size: int, bodies: int, focal
) -> EvidenceItem:
    shape = structure(stream, index, frame_size, bodies, focal)
    return EvidenceItem(slot, frame_size, presentation(item_rng(stream, seed, index), frame_size, shape))


def audit_item(seed: int, index: int) -> EvidenceItem:
    slot = index % len(AUDIT_CYCLE)
    frame_size, bodies = AUDIT_CYCLE[slot]
    return _evidence("audit-random", seed, index, slot, frame_size, bodies, AUDIT_FOCAL)


def audit_ladder_item(seed: int, frame_size: int, index: int) -> EvidenceItem:
    bodies = 2 + index % 2
    return _evidence(f"audit-ladder-n{frame_size}", seed, index, 0, frame_size, bodies, AUDIT_FOCAL)


def mobius_item(seed: int, index: int) -> EvidenceItem:
    slot = index % len(MOBIUS_CYCLE)
    return _evidence("combine-mobius", seed, index, slot, MOBIUS_CYCLE[slot], MOBIUS_BODIES, MOBIUS_FOCAL)


def sweep_job(seed: int, index: int) -> SweepJob:
    slot = (seed + index) % len(SWEEP_CYCLE)
    return SweepJob(slot, SWEEP_CYCLE[slot])
