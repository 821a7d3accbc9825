"""Bodies of evidence: focal sets paired with exact rational masses.

Masses are `fractions.Fraction` values throughout; nothing in this package
ever rounds.  A valid body assigns no mass to the empty set (represented by
its absence), has pairwise-distinct focal sets, and masses that sum to
exactly 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .frames import FocalSet, Frame, FrameMismatchError

MassLike = Union[Fraction, int, str]


class EvidenceError(ValueError):
    """A mass assignment violates the body-of-evidence axioms."""


# Fraction("1e-1000000") spends seconds computing 10 ** 1000000.  Python's
# int() already refuses strings of more than 4300 digits, so exponents are
# held to the same size.
MAX_MASS_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def exponent_out_of_range(text: str) -> bool:
    """True if a mass string's decimal exponent exceeds MAX_MASS_EXPONENT."""
    match = _EXPONENT.search(text)
    if match is None:
        return False
    digits = match.group(1).replace("_", "").lstrip("0")
    return len(digits) > 4 or int(digits or "0") > MAX_MASS_EXPONENT


def as_mass(value: MassLike) -> Fraction:
    """Coerce a mass to an exact Fraction.

    Accepts Fractions, ints, and strings ("1/4", "0.25", "3").  Floats are
    rejected: a binary float silently misrepresents most decimal inputs, and
    exactness is the point of this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise EvidenceError(
            f"mass must be a Fraction, int, or string, not {type(value).__name__}: {value!r}"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if exponent_out_of_range(value):
            raise EvidenceError(
                f"cannot parse mass {value!r}: exponent beyond {MAX_MASS_EXPONENT}"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise EvidenceError(f"cannot parse mass {value!r}: {exc}") from None
    raise EvidenceError(
        f"mass must be a Fraction, int, or string, not {type(value).__name__}: {value!r}"
    )


@dataclass(frozen=True)
class BodyOfEvidence:
    """Focal sets with their masses, in ascending bitmask order."""

    frame: Frame
    focal: tuple[tuple[FocalSet, Fraction], ...]

    def focal_sets(self) -> tuple[FocalSet, ...]:
        return tuple(s for s, _ in self.focal)

    def mass_of(self, s: FocalSet) -> Fraction:
        """Mass of ``s``; zero for any non-focal subset."""
        for t, m in self.focal:
            if t.bits == s.bits:
                return m
        return Fraction(0)

    def support(self) -> FocalSet:
        """Union of all focal sets."""
        bits = 0
        for s, _ in self.focal:
            bits |= s.bits
        return FocalSet(self.frame, bits)

    def __str__(self) -> str:
        return "; ".join(f"{s}:{m}" for s, m in self.focal)


class StructureTag(Enum):
    PARTITION = "Partition"
    QUASI_PARTITION = "QuasiPartition"
    GENERAL = "General"


@dataclass(frozen=True)
class StructureClass:
    tag: StructureTag
    uncertainty_mass: Fraction


def make_body(
    frame: Frame, assignments: Iterable[tuple[FocalSet, MassLike]]
) -> BodyOfEvidence:
    """Validate and build a body of evidence.

    Zero-mass entries are dropped (including a listed empty set with mass 0).
    Raises EvidenceError on: positive mass on the empty set, negative mass,
    duplicate focal sets, or masses not summing to exactly 1.
    """
    seen: set[int] = set()
    kept: list[tuple[FocalSet, Fraction]] = []
    total = Fraction(0)
    for s, raw in assignments:
        if s.frame != frame:
            raise FrameMismatchError(
                f"focal set {s} belongs to a different frame than the body"
            )
        m = as_mass(raw)
        if m < 0:
            raise EvidenceError(f"negative mass {m} on {s}")
        if s.bits in seen:
            raise EvidenceError(f"duplicate focal set {s}")
        seen.add(s.bits)
        if m == 0:
            continue
        if s.bits == 0:
            raise EvidenceError(f"positive mass {m} on the empty set")
        kept.append((s, m))
        total += m
    if total != 1:
        raise EvidenceError(f"masses must sum to exactly 1, got {total}")
    kept.sort(key=lambda pair: pair[0].bits)
    return BodyOfEvidence(frame, tuple(kept))


def vacuous(frame: Frame) -> BodyOfEvidence:
    """The total-uncertainty body: mass 1 on the whole frame."""
    return make_body(frame, [(frame.universe(), Fraction(1))])


def classify(body: BodyOfEvidence) -> StructureClass:
    """Classify a body as Partition, QuasiPartition, or General.

    Partition: focal sets pairwise disjoint, covering the frame, frame itself
    not focal.  QuasiPartition: the frame is focal (carrying the uncertainty
    mass) and the remaining focal sets are pairwise disjoint and cover the
    frame.  Everything else, including the vacuous body, is General.
    """
    full = (1 << body.frame.size) - 1
    uncertainty = Fraction(0)
    non_omega_bits: list[int] = []
    for s, m in body.focal:
        if s.bits == full:
            uncertainty = m
        else:
            non_omega_bits.append(s.bits)

    covered = 0
    disjoint = True
    for bits in non_omega_bits:
        if covered & bits:
            disjoint = False
            break
        covered |= bits
    tiles = disjoint and covered == full

    if tiles and uncertainty == 0:
        tag = StructureTag.PARTITION
    elif tiles and uncertainty > 0:
        tag = StructureTag.QUASI_PARTITION
    else:
        tag = StructureTag.GENERAL
    return StructureClass(tag, uncertainty)
