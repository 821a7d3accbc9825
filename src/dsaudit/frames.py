"""Finite frames of discernment and their subsets encoded as bitmasks.

A frame fixes an ordering of outcome labels; every subset of the frame is
represented by an integer bitmask over that ordering (bit i set means element
i is a member).  Bitmasks give O(1) set algebra and a canonical total order
for deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

# An audit's LP has one variable per element of each focal set with two or
# more elements, so its size grows with the frame; the cap keeps that exact
# simplex small.  Whole-subset tables (`measure_table`, `mass_from_belief`,
# `enumerate_subsets`) still take 2**n steps and memory: a measure table is
# one common denominator and one int per subset, and it makes a `FocalSet`
# and a `Fraction` per subset only when its `values` mapping is first read.
# `dsaudit measures` bounds its tables separately.
FRAME_SIZE_CAP = 24
_RESERVED = frozenset(",{}")


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
                raise FrameError(f"frame labels must be non-empty strings, got {label!r}")
            # A subset prints as {a,b} and the CLI reads one as a,b, so a
            # label with one of these characters would read as two subsets.
            if not _RESERVED.isdisjoint(label):
                raise FrameError(f"frame label {label!r} contains one of , {{ }}")
        if len(set(self.elements)) != len(self.elements):
            dupes = sorted({x for x in self.elements if self.elements.count(x) > 1})
            raise FrameError(f"duplicate frame labels: {', '.join(dupes)}")
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.elements)}
        )

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise FrameError(f"unknown label {label!r}; frame is {list(self.elements)}") from None

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
        if not 0 <= self.bits < (1 << self.frame.size):
            raise FrameError(
                f"bitmask {self.bits:#x} out of range for frame of size {self.frame.size}"
            )

    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for i, label in enumerate(self.frame.elements) if self.bits >> i & 1
        )

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


def make_frame(labels: Sequence[str]) -> Frame:
    """Build a frame with the given element ordering.

    Raises FrameError on duplicates, empty input, more than
    ``FRAME_SIZE_CAP`` labels, or a label containing ``,``, ``{`` or ``}``.
    """
    return Frame(tuple(labels))


def subset(frame: Frame, members: Sequence[str]) -> FocalSet:
    """The subset of ``frame`` containing exactly the listed labels."""
    bits = 0
    for label in members:
        bits |= 1 << frame.index(label)
    return FocalSet(frame, bits)


def require_same_frame(first: Frame, second: Frame) -> None:
    """Raise FrameMismatchError, naming both label lists, if the frames differ."""
    if first != second:
        raise FrameMismatchError(
            f"different frames: {list(first.elements)} vs {list(second.elements)}"
        )


def enumerate_subsets(frame: Frame) -> Iterator[FocalSet]:
    """All 2**size subsets of the frame, in ascending bitmask order."""
    for bits in range(1 << frame.size):
        yield FocalSet(frame, bits)

