"""Bodies of evidence: focal sets paired with exact rational masses.

Masses are exact rationals throughout; nothing in this package ever rounds.

A body stores its masses as ints over one common denominator: ``den`` and
one ``(bitmask, int)`` pair per focal set, so the mass of focal set S is
``Fraction(int, den)``.  A body is valid when its bitmasks are strictly
ascending, non-zero (no mass on the empty set) and inside its frame, every
mass is a positive int, and the masses sum to ``den``, so the masses sum to
exactly 1 and ``den`` is at least 1.  `BodyOfEvidence` checks exactly
this, however the body was built.  ``make_body``, ``combine`` and
``mass_from_belief`` also keep ``den`` the least such denominator, so equal
bodies have equal fields and equal hashes; a body built directly over a
larger ``den`` is still valid.  ``focal``, the ``(FocalSet, Fraction)``
pairs, is built on first read and kept.  ``mass_ratio``, the one mass
parser, reads a mass as a reduced ``(numerator, denominator)`` int pair;
``as_mass`` makes that a Fraction.  ``make_body`` reads each ``(FocalSet,
mass)`` entry and hands its bitmask and int pair to ``make_body_bits``,
which refuses the first bad entry in input order, drops zero masses, and
sorts the rest; document parsing calls ``make_body_bits`` directly, so no
entry's mass becomes a Fraction unless an error message shows it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .frames import FocalSet, Frame, _shown, require_bits, require_same_frame

MassLike = Union[Fraction, int, str]


class EvidenceError(ValueError):
    """A mass assignment violates the body-of-evidence axioms."""


# A mass string is refused before any parsing when it is longer than
# MAX_MASS_LENGTH characters, or when its decimal exponent exceeds
# MAX_MASS_EXPONENT: Fraction("1e-1000000") spends seconds computing
# 10 ** 1000000.  Python's int() already refuses more than 4300 digits, so a
# fraction of two such numbers, even with an underscore between every pair of
# digits, plus sign, slash or point and exponent, takes under 17_300
# characters.  Error messages quote at most a prefix of the value (`_shown`).
MAX_MASS_EXPONENT = 4300
MAX_MASS_LENGTH = 20_000
# A plain ASCII "p/q" or "n" this short holds at most 4300 digits per number,
# so int() reads it as Fraction(text) would, without Fraction's regex.
_PLAIN_LENGTH = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _plain_ratio(text: str) -> tuple[int, int] | None:
    """``text`` read by int() alone, as a reduced ``(numerator, denominator)``,
    if it is a plain ASCII "p/q" with q nonzero or a plain "n", of at most
    _PLAIN_LENGTH characters; else None."""
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
    if not q:
        return None
    g = math.gcd(p, q)
    return p // g, q // g


def _parse_mass_string(text: str) -> tuple[int, int]:
    plain = _plain_ratio(text)
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
        m = Fraction(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError:
        reason = "not a fraction, integer or decimal with at most 4300 digits per number"
    else:
        return m.numerator, m.denominator
    raise EvidenceError(f"cannot parse mass {_shown(text)}: {reason}")


def mass_ratio(value: object) -> tuple[int, int]:
    """A mass as a reduced ``(numerator, denominator)`` int pair, the
    denominator positive; the package's only mass parser.

    Accepts Fractions, ints, and strings ("1/4", "0.25", "3").  Floats are
    rejected: a binary float silently misrepresents most decimal inputs, and
    exactness is the point of this package.
    """
    # str first: a str fails isinstance(_, Fraction) only through the ABC machinery.
    if isinstance(value, str):
        return _parse_mass_string(value)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    message = (
        f"mass must be a Fraction, int, or string, not {type(value).__name__}: "
        f"{_shown(value)}"
    )
    if isinstance(value, float):
        message += '; quote the value as a string (e.g. "1/4" or "0.25")'
    raise EvidenceError(message)


def as_mass(value: object) -> Fraction:
    """`mass_ratio` as an exact Fraction; a Fraction is returned as it is."""
    if not isinstance(value, str) and isinstance(value, Fraction):
        return value
    return Fraction(*mass_ratio(value))


@dataclass(frozen=True)
class BodyOfEvidence:
    """Focal sets with their masses, in ascending bitmask order.

    ``masses`` holds one ``(bitmask, int)`` pair per focal set, the int being
    the mass over ``den``.  Every body, however built, checks the axioms of
    the module docstring on construction: it raises FrameError for a
    bitmask that is not an int or lies outside its frame, and EvidenceError,
    with ``make_body``'s message where ``make_body`` sees the same fault,
    for a negative mass, positive mass on the empty set, a duplicate focal
    set or a bad sum, and for a mass that is not a positive int, focal sets
    out of order, or a ``den`` that is not a positive int.  Entries are
    checked in order, and the sum last.  A valid body makes no `FocalSet`
    to be checked.
    """

    frame: Frame
    den: int
    masses: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        frame, den, last, total = self.frame, self.den, 0, 0
        if type(den) is not int or den < 1:
            raise EvidenceError(f"denominator {_shown(den)} is not a positive int")
        for bits, m in self.masses:
            if type(bits) is not int or bits <= last or type(m) is not int or m < 1:
                # The first bad entry.  The entries before it ascend to
                # ``last``, whose frame check comes first; a bitmask that is
                # not an int fails its own.
                after, s = FocalSet(frame, last), FocalSet(frame, bits)
                if type(m) is int and m < 0:
                    raise EvidenceError(f"negative mass {Fraction(m, den)} on {s}")
                if type(m) is not int or not m:
                    raise EvidenceError(f"mass {_shown(m)} on {s} is not a positive int")
                if not bits:
                    raise EvidenceError(f"positive mass {Fraction(m, den)} on the empty set")
                if bits == last:
                    raise EvidenceError(f"duplicate focal set {s}")
                raise EvidenceError(f"focal sets out of order: {s} after {after}")
            last, total = bits, total + m
        # Ascending, so the last bitmask is the largest.
        require_bits(frame, last)
        if total != den:
            raise EvidenceError(f"masses must sum to exactly 1, got {Fraction(total, den)}")

    @cached_property
    def focal(self) -> tuple[tuple[FocalSet, Fraction], ...]:
        """Each focal set with its exact mass; built on first read and kept."""
        frame, den = self.frame, self.den
        return tuple((FocalSet(frame, bits), Fraction(m, den)) for bits, m in self.masses)

    def focal_sets(self) -> tuple[FocalSet, ...]:
        return tuple(s for s, _ in self.focal)

    def mass_of(self, s: FocalSet) -> Fraction:
        """Mass of ``s``; zero for any non-focal subset."""
        for bits, m in self.masses:
            if bits == s.bits:
                return Fraction(m, self.den)
        return Fraction(0)

    def __str__(self) -> str:
        return "; ".join(f"{s}:{m}" for s, m in self.focal)


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
    duplicate focal sets (each checked per entry, in input order), or masses
    not summing to exactly 1 (the body's own check).
    """
    return make_body_bits(
        frame, ((_bits_on(frame, s), *mass_ratio(raw)) for s, raw in assignments)
    )


def _bits_on(frame: Frame, s: FocalSet) -> int:
    require_same_frame(frame, s.frame)
    return s.bits


def make_body_bits(frame: Frame, masses: Iterable[tuple[int, int, int]]) -> BodyOfEvidence:
    """`make_body` of ``(bitmask, numerator, denominator)`` triples over
    ``frame``, each mass a reduced pair as `mass_ratio` gives it, with its
    per-entry checks in the same order; an entry is read only after the one
    before it passed."""
    seen: set[int] = set()
    kept: list[tuple[int, int, int]] = []
    for bits, num, d in masses:
        if num < 0:
            raise EvidenceError(f"negative mass {Fraction(num, d)} on {FocalSet(frame, bits)}")
        if bits in seen:
            raise EvidenceError(f"duplicate focal set {FocalSet(frame, bits)}")
        seen.add(bits)
        if not num:
            continue
        if bits == 0:
            raise EvidenceError(f"positive mass {Fraction(num, d)} on the empty set")
        kept.append((bits, num, d))
    # The lcm of reduced denominators is the least common denominator; the
    # body checks the sum.
    den = math.lcm(*(d for _, _, d in kept))
    scaled = sorted((bits, num * (den // d)) for bits, num, d in kept)
    return BodyOfEvidence(frame, den, tuple(scaled))


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
    for bits, _ in body.masses:
        if bits == full:
            frame_is_focal = True
        elif covered & bits:
            return StructureTag.GENERAL
        else:
            covered |= bits
    if covered != full:
        return StructureTag.GENERAL
    return StructureTag.QUASI_PARTITION if frame_is_focal else StructureTag.PARTITION
