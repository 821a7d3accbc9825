"""Bodies of evidence: focal sets paired with exact rational masses.

Masses are `fractions.Fraction` values throughout; nothing in this package
ever rounds.  A valid body assigns no mass to the empty set (represented by
its absence), has pairwise-distinct focal sets, and masses that sum to
exactly 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .frames import FocalSet, Frame, require_same_frame

MassLike = Union[Fraction, int, str]


class EvidenceError(ValueError):
    """A mass assignment violates the body-of-evidence axioms."""


# A mass string is refused before any parsing when it is longer than
# MAX_MASS_LENGTH characters, or when its decimal exponent exceeds
# MAX_MASS_EXPONENT: Fraction("1e-1000000") spends seconds computing
# 10 ** 1000000.  Python's int() already refuses more than 4300 digits, so a
# fraction of two such numbers, even with an underscore between every pair of
# digits, plus sign, slash or point and exponent, takes under 17_300
# characters.  Error messages quote at most _SHOWN characters of the value.
MAX_MASS_EXPONENT = 4300
MAX_MASS_LENGTH = 20_000
_SHOWN = 40
# A plain ASCII "p/q" or "n" this short holds at most 4300 digits per number,
# so int() reads it as Fraction(text) would, without Fraction's regex.
_PLAIN_LENGTH = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _shown(value: object) -> str:
    text = repr(value[: _SHOWN + 1] if isinstance(value, str) else value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


def _plain_fraction(text: str) -> Fraction | None:
    """``text`` read by int() alone if it is a plain ASCII "p/q" with q
    nonzero or a plain "n", of at most _PLAIN_LENGTH characters; else None."""
    if len(text) > _PLAIN_LENGTH or not text.isascii():
        return None
    num, slash, den = text.partition("/")
    if not num.isdigit() or (slash and not den.isdigit()):
        return None
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        # A digit limit lowered below 4300: Fraction(text) reports it.
        return None
    return Fraction(p, q) if q else None


def _parse_mass_string(text: str) -> Fraction:
    plain = _plain_fraction(text)
    if plain is not None:
        return plain
    if len(text) > MAX_MASS_LENGTH:
        raise EvidenceError(
            f"cannot parse mass {_shown(text)}: {len(text)} characters, "
            f"more than {MAX_MASS_LENGTH}"
        )
    match = _EXPONENT.search(text)
    if match is not None:
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or "0") > MAX_MASS_EXPONENT:
            raise EvidenceError(
                f"cannot parse mass {_shown(text)}: exponent beyond {MAX_MASS_EXPONENT}"
            )
    # Fraction's own messages may repeat the whole input, so they are not kept.
    try:
        return Fraction(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError:
        reason = "not a fraction, integer or decimal with at most 4300 digits per number"
    raise EvidenceError(f"cannot parse mass {_shown(text)}: {reason}")


def as_mass(value: object) -> Fraction:
    """Coerce a mass to an exact Fraction; the package's only mass parser.

    Accepts Fractions, ints, and strings ("1/4", "0.25", "3").  Floats are
    rejected: a binary float silently misrepresents most decimal inputs, and
    exactness is the point of this package.
    """
    # str first: a str fails isinstance(_, Fraction) only through the ABC machinery.
    if isinstance(value, str):
        return _parse_mass_string(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    message = (
        f"mass must be a Fraction, int, or string, not {type(value).__name__}: "
        f"{_shown(value)}"
    )
    if isinstance(value, float):
        message += '; quote the value as a string (e.g. "1/4" or "0.25")'
    raise EvidenceError(message)


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

    def __str__(self) -> str:
        return "; ".join(f"{s}:{m}" for s, m in self.focal)


def integer_masses(body: BodyOfEvidence) -> tuple[int, list[tuple[FocalSet, int]]]:
    """The least common denominator of the masses, and each mass as an int over it."""
    den = math.lcm(*(m.denominator for _, m in body.focal))
    return den, [(s, m.numerator * (den // m.denominator)) for s, m in body.focal]


class StructureTag(Enum):
    PARTITION = "Partition"
    QUASI_PARTITION = "QuasiPartition"
    GENERAL = "General"


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
    for s, raw in assignments:
        require_same_frame(frame, s.frame)
        m = as_mass(raw)
        if m.numerator < 0:
            raise EvidenceError(f"negative mass {m} on {s}")
        if s.bits in seen:
            raise EvidenceError(f"duplicate focal set {s}")
        seen.add(s.bits)
        if not m.numerator:
            continue
        if s.bits == 0:
            raise EvidenceError(f"positive mass {m} on the empty set")
        kept.append((s, m))
    # The sum in ints over the least common denominator, not Fraction by Fraction.
    den = math.lcm(*(m.denominator for _, m in kept))
    total = sum(m.numerator * (den // m.denominator) for _, m in kept)
    if total != den:
        raise EvidenceError(f"masses must sum to exactly 1, got {Fraction(total, den)}")
    kept.sort(key=lambda pair: pair[0].bits)
    return BodyOfEvidence(frame, tuple(kept))


def vacuous(frame: Frame) -> BodyOfEvidence:
    """The total-uncertainty body: mass 1 on the whole frame."""
    return make_body(frame, [(frame.universe(), Fraction(1))])


def classify(body: BodyOfEvidence) -> StructureTag:
    """Classify a body as Partition, QuasiPartition, or General.

    Partition: focal sets pairwise disjoint, covering the frame, frame itself
    not focal.  QuasiPartition: the frame is focal (carrying the uncertainty
    mass) and the remaining focal sets are pairwise disjoint and cover the
    frame.  Everything else, including the vacuous body, is General.
    """
    full = (1 << body.frame.size) - 1
    frame_is_focal = False
    covered = 0
    for s, _ in body.focal:
        if s.bits == full:
            frame_is_focal = True
        elif covered & s.bits:
            return StructureTag.GENERAL
        else:
            covered |= s.bits
    if covered != full:
        return StructureTag.GENERAL
    return StructureTag.QUASI_PARTITION if frame_is_focal else StructureTag.PARTITION
