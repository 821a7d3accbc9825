"""Finite frames of discernment and their subsets encoded as bitmasks.

A frame fixes an ordering of outcome labels; every subset of the frame is
represented by an integer bitmask over that ordering (bit i set means element
i is a member).  Bitmasks give O(1) set algebra and a canonical total order
for deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

# An audit's LP has one variable per element of each focal set with two or
# more elements, so its size grows with the frame; the cap keeps that exact
# simplex small.  Whole-subset tables (`measure_table`, `mass_from_belief`,
# `enumerate_subsets`) still take 2**n steps and memory: a measure table is
# one common denominator and one int per subset, and it makes a `FocalSet`
# and a `Fraction` per subset only when its `values` mapping is first read.
# `dsaudit measures` bounds its tables separately.
FRAME_SIZE_CAP = 24
_RESERVED = frozenset(",{}")
# Error messages quote at most _SHOWN characters of any one value a user
# supplied: a label, a body name, a JSON key, a mass string.
_SHOWN = 40


def _shown(value: object) -> str:
    """``repr(value)``, cut to _SHOWN characters and "..." if longer."""
    text = repr(value[: _SHOWN + 1] if isinstance(value, str) else value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


def _listed(labels: Iterable[str]) -> str:
    """A list of labels as a message shows it, each label through `_shown`."""
    return "[" + ", ".join(map(_shown, labels)) + "]"


class FrameError(ValueError):
    """Invalid frame construction or subset lookup."""


class FrameMismatchError(FrameError):
    """Two subsets from different frames were mixed in one operation."""


@dataclass(frozen=True)
class Frame:
    """An ordered set of at most ``FRAME_SIZE_CAP`` distinct outcome labels,
    none of which contains ``,``, ``{`` or ``}``."""

    elements: tuple[str, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.elements:
            raise FrameError("frame must contain at least one element")
        if len(self.elements) > FRAME_SIZE_CAP:
            raise FrameError(
                f"frame of size {len(self.elements)} exceeds cap of {FRAME_SIZE_CAP}"
            )
        for label in self.elements:
            if not isinstance(label, str) or not label:
                raise FrameError(f"frame labels must be non-empty strings, got {_shown(label)}")
            # A subset prints as {a,b} and the CLI reads one as a,b, so a
            # label with one of these characters would read as two subsets.
            if not _RESERVED.isdisjoint(label):
                raise FrameError(f"frame label {_shown(label)} contains one of , {{ }}")
        index = {label: i for i, label in enumerate(self.elements)}
        if len(index) != len(self.elements):
            dupes = sorted({x for x in self.elements if self.elements.count(x) > 1})
            raise FrameError(f"duplicate frame labels: {', '.join(map(_shown, dupes))}")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.elements)

    def bits_of(self, labels: Iterable[str]) -> int:
        """The bitmask of the listed labels; FrameError names the first one
        the frame does not have."""
        index = self._index
        bits = 0
        for label in labels:
            try:
                bits |= 1 << index[label]
            except KeyError:
                raise FrameError(
                    f"unknown label {_shown(label)}; frame is {_listed(self.elements)}"
                ) from None
        return bits

    def empty(self) -> FocalSet:
        return FocalSet(self, 0)

    def universe(self) -> FocalSet:
        return FocalSet(self, (1 << self.size) - 1)


@dataclass(frozen=True)
class FocalSet:
    """A subset of one frame, stored as a bitmask of width ``frame.size``."""

    frame: Frame
    bits: int

    def __post_init__(self) -> None:
        require_bits(self.frame, self.bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for i, label in enumerate(self.frame.elements) if self.bits >> i & 1
        )

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


def make_frame(labels: Sequence[str]) -> Frame:
    """Build a frame with the given element ordering.

    Raises FrameError on a bare string (which would read as one label per
    character), duplicates, empty input, more than ``FRAME_SIZE_CAP``
    labels, or a label containing ``,``, ``{`` or ``}``.
    """
    if isinstance(labels, str):
        raise FrameError(f"a frame takes a sequence of labels, not the string {_shown(labels)}")
    return Frame(tuple(labels))


def subset(frame: Frame, members: Sequence[str]) -> FocalSet:
    """The subset of ``frame`` containing exactly the listed labels.

    Raises FrameError on a bare string in place of the label sequence, or
    on a label the frame does not have.
    """
    if isinstance(members, str):
        raise FrameError(f"a subset takes a sequence of labels, not the string {_shown(members)}")
    return FocalSet(frame, frame.bits_of(members))


def require_same_frame(first: Frame, second: Frame) -> None:
    """Raise FrameMismatchError, naming both label lists, if the frames differ."""
    if first != second:
        raise FrameMismatchError(
            f"different frames: {_listed(first.elements)} vs {_listed(second.elements)}"
        )


def require_bits(frame: Frame, bits: int) -> None:
    """Raise FrameError unless ``bits`` is the bitmask of a subset of ``frame``:
    an ``int``, not a ``bool`` or a float, inside the frame."""
    if type(bits) is not int:
        raise FrameError(f"bitmask {_shown(bits)} is a {type(bits).__name__}, not an int")
    if not 0 <= bits < (1 << frame.size):
        raise FrameError(f"bitmask {bits:#x} out of range for frame of size {frame.size}")


def enumerate_subsets(frame: Frame) -> Iterator[FocalSet]:
    """All 2**size subsets of the frame, in ascending bitmask order."""
    for bits in range(1 << frame.size):
        yield FocalSet(frame, bits)

