"""Belief and plausibility measures, and exact mass recovery from belief.

Belief of a set is the total mass of focal sets contained in it; plausibility
is the total mass of focal sets meeting it.  The two are dual through the
complement, and the mass assignment can be recovered from a complete belief
table by alternating-sign subset sums (Mobius inversion).

``belief`` and ``plausibility`` answer one subset by summing the body's
stored ints and make one Fraction of the sum.  Whole tables and inversion
use the subset-sum butterfly of Kennes and Smets (1990), O(n * 2**n) for a
frame of n elements: the zeta transform of the masses is the belief table,
and the Mobius transform of a belief table is the mass assignment.

A ``MeasureTable`` is stored dense: one common denominator and one Python int
per subset, indexed by bitmask, so the value of subset S is
``Fraction(ints[S.bits], den)``.  ``measure_table`` fills the ints from the
body's stored ints and builds no per-subset object; ``mass_from_belief``
inverts the same ints into a body's stored ints, building no FocalSet or
Fraction.  ``values`` is a read-only mapping of every subset to its
``Fraction``, built whole on first read and kept with the table; neither
function builds it.

The butterfly runs word-parallel, in one kernel for every table.  The 2**n
ints are packed as fixed-width fields, read as Python ints of 2**8 fields
each (``int.from_bytes``), so one pass of the butterfly is a few big-int
operations per chunk: for element j < 8, the fields whose index lacks bit j
are masked out, shifted up by 2**j fields and added (zeta) or subtracted
(Mobius); for j >= 8, the whole chunks whose index has bit j - 8 gain or
lose the chunk without it.  A field is the narrowest of 1, 2, 4 or 8 bytes,
or past 64 bits the fewest whole bytes, that holds the sum of the masses
(zeta), or bel(frame) plus a guard bit (Mobius), so no field ever carries
into or borrows from its neighbour.  ``struct`` packs and unpacks the four
fixed widths, and ``int.to_bytes``/``int.from_bytes`` the wider ones.  For
zeta, every partial sum of a body's masses, all positive, is at most their
sum.  For Mobius, every field's top bit is set before each subtraction, so
a field whose difference would be negative clears only its own top bit,
and the kernel gives up.  On a belief table that happens only where a
recovered mass is negative.  The same kernel then inverts
bel(A) + k * 2**|A|, whose masses are m(A) + k, with k large enough that
nothing in it goes negative; taking k off again names the lowest negative
bitmask.  So nothing is ever approximated.  On the combined bodies of the
combine-mobius benchmark (8-11 elements; shared 2-vCPU machine, Python
3.11) one table takes about 0.055 ms and one inversion about 0.08 ms,
against 0.10 ms and 0.20 ms when bodies held Fractions.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType

from .evidence import BodyOfEvidence
from .frames import FocalSet, Frame, enumerate_subsets, require_same_frame


_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
# The packed kernels run on chunks of at most 2**_CHUNK_SIZE fields.  Chunks
# of 2**11 fields were no faster on 8-11 element frames.  One int for a whole
# 16-element table beat a per-entry butterfly, but with 8-byte fields it was
# 2.4x slower than chunks (both tables and the inversion of one body: 41.5
# against 17 ms, and 75 ms per entry), and it keeps one table-sized mask per
# element.
_CHUNK_SIZE = 8


class MeasureKind(Enum):
    BELIEF = "Belief"
    PLAUSIBILITY = "Plausibility"


class InversionError(ValueError):
    """A table passed to mass_from_belief is not a valid belief function."""

    def __init__(self, message: str, subset: FocalSet | None = None):
        super().__init__(message)
        self.subset = subset


@dataclass(frozen=True)
class MeasureTable:
    """Measure values for every subset of a frame.

    The value of subset S is ``Fraction(ints[S.bits], den)``.  Both ways of
    building a table keep ``den`` the least denominator that makes every
    value an int, so equal tables have equal fields.  A table whose
    ``kind`` is not a MeasureKind, without one value per subset, or with
    ``den`` below 1 raises InversionError.  Only ``from_values`` checks that
    each value is exact, at O(2^n) per table, so a direct construction must
    pass ints.
    """

    frame: Frame
    kind: MeasureKind
    den: int
    ints: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MeasureKind):
            raise InversionError(f"table kind must be a MeasureKind, got {self.kind!r}")
        if len(self.ints) != 1 << self.frame.size:
            raise InversionError(
                f"table has {len(self.ints)} values; a frame of size "
                f"{self.frame.size} has {1 << self.frame.size} subsets"
            )
        if self.den < 1:
            raise InversionError(f"table denominator must be at least 1, got {self.den}")

    @classmethod
    def from_values(
        cls, frame: Frame, kind: MeasureKind, values: Mapping[FocalSet, Fraction]
    ) -> MeasureTable:
        """A table from one exact value per subset of ``frame``.

        Raises InversionError, naming the subset, if a subset has no value or
        its value is a bool or not an int or Fraction.
        """
        table = []
        for s in enumerate_subsets(frame):
            try:
                value = values[s]
            except KeyError:
                raise InversionError(f"table has no value for {s}", subset=s) from None
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise InversionError(
                    f"{kind.value.lower()} of {s} must be an int or Fraction, got {value!r}",
                    subset=s,
                )
            table.append(value)
        den = math.lcm(*{value.denominator for value in table})
        ints = tuple(value.numerator * (den // value.denominator) for value in table)
        return cls(frame, kind, den, ints)

    @cached_property
    def values(self) -> Mapping[FocalSet, Fraction]:
        """Read-only mapping of every subset of the frame to its exact value,
        in ascending bitmask order; built on first read and kept."""
        subsets = enumerate_subsets(self.frame)
        return MappingProxyType(dict(zip(subsets, map(Fraction, self.ints, repeat(self.den)))))

    def __reduce__(self):
        # A read `values` is kept in the instance, and a mapping proxy cannot
        # be pickled or deep-copied; the fields alone rebuild the table.
        return MeasureTable, (self.frame, self.kind, self.den, self.ints)


def belief(body: BodyOfEvidence, s: FocalSet) -> Fraction:
    """Total mass of focal sets contained in ``s``."""
    require_same_frame(body.frame, s.frame)
    outside = ~s.bits
    return Fraction(sum([m for t, m in body.masses if not t & outside]), body.den)


def plausibility(body: BodyOfEvidence, s: FocalSet) -> Fraction:
    """Total mass of focal sets having non-empty intersection with ``s``."""
    require_same_frame(body.frame, s.frame)
    bits = s.bits
    return Fraction(sum([m for t, m in body.masses if t & bits]), body.den)


def _field_bytes(bits: int) -> int:
    """Bytes of the narrowest field holding a ``bits``-bit unsigned int: 1,
    2, 4 or 8, or the plain byte count past 64 bits."""
    for width in (1, 2, 4, 8):
        if bits <= 8 * width:
            return width
    return -(-bits // 8)


def _fields(data: bytes, width: int, order: str = "little") -> tuple[int, ...]:
    """The unsigned ``width``-byte fields of ``data``, in order."""
    code = _FIELD_CODES.get(width)
    if code:
        prefix = "<" if order == "little" else ">"
        return struct.Struct(f"{prefix}{len(data) // width}{code}").unpack(data)
    fields = chain.from_iterable(struct.iter_unpack(f"{width}s", data))
    return tuple(map(int.from_bytes, fields, repeat(order)))


@functools.lru_cache(maxsize=8)
def _pass_masks(size: int, width: int) -> tuple[int, ...]:
    """For each element j of a chunk of ``size`` elements, the packed chunk
    with every field whose index lacks bit j all ones and every other field
    zero.  A chunk has at most _CHUNK_SIZE elements, so one entry of the
    cache holds at most 8 * 2**8 * ``width`` bytes."""
    n = 1 << size
    return tuple(
        int.from_bytes((b"\xff" * (width << j) + bytes(width << j)) * (n >> (j + 1)), "little")
        for j in range(size)
    )


def _chunks(data: bytes, size: int, width: int) -> list[int]:
    """Packed fields read as ints of at most 2**_CHUNK_SIZE fields each."""
    step = width << min(size, _CHUNK_SIZE)
    view = memoryview(data)
    return [int.from_bytes(view[i : i + step], "little") for i in range(0, len(data), step)]


def _unpack(chunks: list[int], size: int, width: int) -> tuple[int, ...]:
    """The field values of packed chunks, in index order."""
    step = width << min(size, _CHUNK_SIZE)
    return _fields(b"".join(chunk.to_bytes(step, "little") for chunk in chunks), width)


def _guarded_difference(a: int, b: int, guard: int) -> int | None:
    """Fieldwise ``a - b`` of packed fields whose top bits are clear, or None
    if a field would go negative.  With every top bit set first, such a
    field clears only its own top bit instead of borrowing."""
    difference = (a | guard) - b
    return difference ^ guard if difference & guard == guard else None


def _packed_zeta(scaled: tuple[tuple[int, int], ...], size: int, den: int) -> tuple[list[int], int]:
    """The belief table of the positive ``(bitmask, int)`` masses ``scaled``,
    which sum to ``den``, as packed chunks, with its field width in bytes."""
    width = _field_bytes(den.bit_length())
    code = _FIELD_CODES.get(width)
    buf = bytearray(width << size)
    if code:
        field = "<" + code
        for bits, m in scaled:
            struct.pack_into(field, buf, bits * width, m)
    else:
        for bits, m in scaled:
            buf[bits * width : (bits + 1) * width] = m.to_bytes(width, "little")
    # Every partial sum of positive masses is at most their sum, so no
    # field carries into its neighbour, within a chunk or between chunks.
    low = min(size, _CHUNK_SIZE)
    masks = _pass_masks(low, width)
    chunks = _chunks(buf, size, width)
    for k, chunk in enumerate(chunks):
        for j, mask in enumerate(masks):
            chunk += (chunk & mask) << (8 * width << j)
        chunks[k] = chunk
    for j in range(size - low):
        # The chunks whose index has bit j gain the chunk without it.
        for k in range(len(chunks)):
            if k >> j & 1:
                chunks[k] += chunks[k ^ 1 << j]
    return chunks, width


def _packed_mobius(ints: tuple[int, ...], size: int, top: int) -> tuple[int, ...] | None:
    """The Mobius transform of a table whose entries are all expected at most
    ``top``; None if an entry is negative, needs more bits than the field
    for ``top`` plus a guard bit, or a partial difference goes negative."""
    width = _field_bytes(top.bit_length() + 1)
    code = _FIELD_CODES.get(width)
    try:
        if code:
            data = struct.Struct(f"<{len(ints)}{code}").pack(*ints)
        else:
            data = b"".join(map(int.to_bytes, ints, repeat(width), repeat("little")))
    except (struct.error, OverflowError):
        return None
    low = min(size, _CHUNK_SIZE)
    masks = _pass_masks(low, width)
    guard = int.from_bytes((bytes(width - 1) + b"\x80") * (1 << low), "little")
    chunks = _chunks(data, size, width)
    for k, chunk in enumerate(chunks):
        if chunk & guard:
            return None
        for j, mask in enumerate(masks):
            chunk = _guarded_difference(chunk, (chunk & mask) << (8 * width << j), guard)
            if chunk is None:
                return None
        chunks[k] = chunk
    for j in range(size - low):
        # The chunks whose index has bit j lose the chunk without it.
        for k in range(len(chunks)):
            if k >> j & 1:
                chunks[k] = _guarded_difference(chunks[k], chunks[k ^ 1 << j], guard)
                if chunks[k] is None:
                    return None
    return _unpack(chunks, size, width)


def measure_table(body: BodyOfEvidence, kind: MeasureKind) -> MeasureTable:
    """Evaluate belief or plausibility on all 2**size subsets."""
    frame, den, size = body.frame, body.den, body.frame.size
    chunks, width = _packed_zeta(body.masses, size, den)
    if kind is MeasureKind.BELIEF:
        return MeasureTable(frame, kind, den, _unpack(chunks, size, width))
    # bel(frame) is den, the sum of a body's masses, and bel(frame) - bel(S)
    # in every field S is at least 0.  Read big-endian, the chunks and their
    # fields come last to first, so index S reads the field of not S:
    # bel(frame) - bel(not S) = pl(S).
    step = width << min(size, _CHUNK_SIZE)
    everywhere = int.from_bytes(den.to_bytes(width, "little") * (step // width), "little")
    data = b"".join((everywhere - chunk).to_bytes(step, "big") for chunk in reversed(chunks))
    return MeasureTable(frame, kind, den, _fields(data, width, "big"))


def mass_from_belief(table: MeasureTable) -> BodyOfEvidence:
    """Recover the unique mass assignment underlying a belief table.

    m(A) = sum over B subset-of A of (-1)^|A-B| * bel(B), computed for all
    subsets at once by one Mobius butterfly over the table's ints.

    Raises InversionError, naming the offending subset where one exists, if
    the table is not an exact belief function: wrong endpoints or a negative
    recovered mass (the lowest such bitmask is named).  Incomplete tables and
    values that are not an int or Fraction are refused when a table is built
    by hand (``MeasureTable.from_values``).  Past those checks the recovered
    masses form a body by construction: the empty set's mass is bel(empty) =
    0, the masses sum to bel(frame) = 1, and the focal sets are distinct and
    in ascending bitmask order.  So the body is built directly, not through
    make_body.
    """
    if table.kind is not MeasureKind.BELIEF:
        raise InversionError(f"expected a Belief table, got {table.kind.value}")
    frame, den, ints = table.frame, table.den, table.ints
    if ints[0] != 0:
        raise InversionError(
            f"belief of the empty set must be 0, got {Fraction(ints[0], den)}",
            subset=frame.empty(),
        )
    if ints[-1] != den:
        raise InversionError(
            f"belief of the whole frame must be 1, got {Fraction(ints[-1], den)}",
            subset=frame.universe(),
        )
    # bel(frame) = den is the largest entry of a belief table, and every
    # partial difference of one is a sum of masses, so the kernel fails only
    # where some recovered mass is negative.
    size = frame.size
    sums = _packed_mobius(ints, size, den)
    if sums is None:
        # bel(A) + k * 2**|A| has the masses m(A) + k.  With k = 2**size
        # times the largest |entry|, they and every partial difference are
        # nonnegative and below 2k << size, so the kernel cannot fail on it.
        k = max(map(abs, ints)) << size
        shifted = tuple([b + (k << bits.bit_count()) for bits, b in enumerate(ints)])
        shifted_masses = _packed_mobius(shifted, size, 2 * k << size)
        bits, m = next((bits, m - k) for bits, m in enumerate(shifted_masses) if m < k)
        s = FocalSet(frame, bits)
        raise InversionError(
            f"recovered mass of {s} is negative ({Fraction(m, den)}); not a belief function",
            subset=s,
        )
    # The masses sum to bel(frame) = den, so their gcd divides it; it exceeds
    # 1 only for a table built directly over a denominator that is not least.
    g = math.gcd(*compress(sums, sums))
    masses = tuple((bits, sums[bits] // g) for bits in compress(range(len(sums)), sums))
    return BodyOfEvidence(frame, den // g, masses)
