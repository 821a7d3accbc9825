"""Shared hypothesis strategies: frames, subsets, and random exact bodies."""

from fractions import Fraction

from hypothesis import strategies as st

from dsaudit import make_body, make_frame
from dsaudit.evidence import BodyOfEvidence
from dsaudit.frames import FocalSet, Frame

MAX_DENOMINATOR = 64

_LABELS = ("a", "b", "c", "d", "e")


@st.composite
def frames(draw, min_size: int = 1, max_size: int = 5) -> Frame:
    size = draw(st.integers(min_size, max_size))
    return make_frame(_LABELS[:size])


@st.composite
def focal_sets(draw, frame: Frame) -> FocalSet:
    return FocalSet(frame, draw(st.integers(0, (1 << frame.size) - 1)))


@st.composite
def exact_masses(draw, count: int) -> list[Fraction]:
    """``count`` positive rationals summing to exactly 1, denominator <= 64."""
    if count == 1:
        return [Fraction(1)]
    denominator = draw(st.integers(count, MAX_DENOMINATOR))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, denominator - 1),
                min_size=count - 1,
                max_size=count - 1,
                unique=True,
            )
        )
    )
    bounds = [0, *cuts, denominator]
    return [Fraction(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def bodies(draw, frame: Frame | None = None, max_focal: int = 5) -> BodyOfEvidence:
    if frame is None:
        frame = draw(frames())
    n_candidates = (1 << frame.size) - 1
    count = draw(st.integers(1, min(max_focal, n_candidates)))
    masks = draw(
        st.lists(
            st.integers(1, n_candidates), min_size=count, max_size=count, unique=True
        )
    )
    masses = draw(exact_masses(count))
    return make_body(
        frame, [(FocalSet(frame, bits), m) for bits, m in zip(masks, masses)]
    )


@st.composite
def body_pairs(draw, max_size: int = 5) -> tuple[BodyOfEvidence, BodyOfEvidence]:
    frame = draw(frames(max_size=max_size))
    return draw(bodies(frame=frame)), draw(bodies(frame=frame))


@st.composite
def body_triples(
    draw, max_size: int = 4
) -> tuple[BodyOfEvidence, BodyOfEvidence, BodyOfEvidence]:
    frame = draw(frames(max_size=max_size))
    return (
        draw(bodies(frame=frame, max_focal=3)),
        draw(bodies(frame=frame, max_focal=3)),
        draw(bodies(frame=frame, max_focal=3)),
    )


@st.composite
def disjoint_support_pairs(draw) -> tuple[BodyOfEvidence, BodyOfEvidence]:
    """Body pairs whose supports share no element (conflict is total)."""
    frame = draw(frames(min_size=2))
    split = draw(st.integers(1, frame.size - 1))
    left = (1 << split) - 1
    right = ((1 << frame.size) - 1) ^ left

    def body_within(region: int) -> st.SearchStrategy[BodyOfEvidence]:
        region_subsets = [
            bits for bits in range(1, 1 << frame.size) if bits & ~region == 0
        ]
        return _body_over(frame, region_subsets)

    @st.composite
    def _body_over(draw_inner, frm, candidates):
        count = draw_inner(st.integers(1, min(4, len(candidates))))
        masks = draw_inner(
            st.lists(st.sampled_from(candidates), min_size=count, max_size=count, unique=True)
        )
        masses = draw_inner(exact_masses(count))
        return make_body(frm, [(FocalSet(frm, b), m) for b, m in zip(masks, masses)])

    return draw(body_within(left)), draw(body_within(right))


@st.composite
def partition_bodies(draw) -> BodyOfEvidence:
    """Bodies whose focal sets tile the frame and exclude the frame itself."""
    frame = draw(frames(min_size=2))
    block_of = draw(
        st.lists(
            st.integers(0, frame.size - 1), min_size=frame.size, max_size=frame.size
        ).filter(lambda assignment: len(set(assignment)) >= 2)
    )
    blocks: dict[int, int] = {}
    for element, block in enumerate(block_of):
        blocks[block] = blocks.get(block, 0) | (1 << element)
    masks = sorted(blocks.values())
    masses = draw(exact_masses(len(masks)))
    return make_body(
        frame, [(FocalSet(frame, bits), m) for bits, m in zip(masks, masses)]
    )
