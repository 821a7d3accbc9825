"""Frame and bitmask-subset algebra."""

import pytest

from dsaudit import (
    FRAME_SIZE_CAP,
    FrameError,
    FrameMismatchError,
    belief,
    build_constraints,
    combine,
    conflict,
    make_body,
    make_frame,
    plausibility,
    probability_bounds,
    subset,
)
from dsaudit.frames import Frame, enumerate_subsets


def test_make_frame_basic():
    frame = make_frame(["a", "b", "c"])
    assert frame.size == 3
    assert frame.elements == ("a", "b", "c")


def test_make_frame_single_element():
    assert make_frame(["a"]).size == 1


def test_make_frame_rejects_duplicates():
    with pytest.raises(FrameError, match="duplicate"):
        make_frame(["a", "a"])


def test_make_frame_rejects_empty():
    with pytest.raises(FrameError):
        make_frame([])


def test_make_frame_rejects_oversize():
    with pytest.raises(FrameError, match="cap"):
        make_frame([f"x{i}" for i in range(FRAME_SIZE_CAP + 1)])
    # a Frame built directly obeys the same cap, before any table is built
    with pytest.raises(FrameError, match="cap"):
        Frame(tuple(f"e{i}" for i in range(30)))
    # the cap itself is allowed
    assert make_frame([f"x{i}" for i in range(FRAME_SIZE_CAP)]).size == FRAME_SIZE_CAP


def test_subset_bits_and_order():
    frame = make_frame(["a", "b", "c"])
    bc = subset(frame, ["b", "c"])
    assert bc.bits == 0b110
    assert bc.labels() == ("b", "c")
    assert subset(frame, []).bits == 0
    assert subset(frame, ["a", "b", "c"]) == frame.universe()


def test_subset_unknown_label():
    frame = make_frame(["a", "b"])
    with pytest.raises(FrameError, match="unknown label"):
        subset(frame, ["z"])


def test_make_frame_refuses_a_bare_string():
    # "abc" is one string, not the labels a, b, c.
    with pytest.raises(FrameError, match="not the string 'abc'"):
        make_frame("abc")


def test_subset_refuses_a_bare_string():
    frame = make_frame(["a", "b", "c"])
    with pytest.raises(FrameError, match="not the string 'ab'"):
        subset(frame, "ab")


AB = make_frame(["a", "b"])
BA = make_frame(["b", "a"])


def _sure_of_a(frame):
    return make_body(frame, [(subset(frame, ["a"]), 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_body(AB, [(subset(BA, ["a"]), 1)]),
        lambda: combine(_sure_of_a(AB), _sure_of_a(BA)),
        lambda: conflict(_sure_of_a(AB), _sure_of_a(BA)),
        lambda: belief(_sure_of_a(AB), subset(BA, ["a"])),
        lambda: plausibility(_sure_of_a(AB), subset(BA, ["a"])),
        lambda: build_constraints([_sure_of_a(AB), _sure_of_a(BA)]),
        lambda: probability_bounds(build_constraints([_sure_of_a(AB)]), subset(BA, ["a"])),
    ],
    ids=[
        "make_body", "combine", "conflict", "belief",
        "plausibility", "build_constraints", "probability_bounds",
    ],
)
def test_every_entry_point_rejects_mixed_frames(call):
    with pytest.raises(FrameMismatchError, match=r"\['a', 'b'\] vs \['b', 'a'\]"):
        call()


def test_enumerate_subsets_counts():
    for size in (1, 2, 3):
        frame = make_frame([f"x{i}" for i in range(size)])
        subsets = list(enumerate_subsets(frame))
        assert len(subsets) == 2**size
        assert len({s.bits for s in subsets}) == 2**size
        assert subsets[0] == frame.empty()
        assert subsets[-1] == frame.universe()


_LONG = "x" * 10**6
_WIDE = make_frame(["a", _LONG])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_frame(_LONG), "not the string 'xxx"),
        (lambda: subset(AB, _LONG), "not the string 'xxx"),
        (lambda: subset(AB, [_LONG]), "unknown label 'xxx"),
        (lambda: subset(_WIDE, ["z"]), "frame is ['a', 'xxx"),
        (lambda: make_frame([_LONG, _LONG]), "duplicate frame labels: 'xxx"),
        (lambda: make_frame([_LONG + "{"]), "frame label 'xxx"),
        (lambda: make_frame([b"x" * 10**6]), "got b'xxx"),
        (lambda: make_body(AB, [(subset(_WIDE, ["a"]), 1)]), "['a', 'b'] vs ['a', 'xxx"),
    ],
    ids=[
        "bare-frame", "bare-subset", "unknown-label", "frame-listing",
        "repeated-label", "reserved-label", "not-a-string", "mixed-frames",
    ],
)
def test_a_frame_message_quotes_at_most_a_prefix_of_each_label(call, message):
    with pytest.raises(FrameError) as exc_info:
        call()
    assert message in str(exc_info.value)
    assert len(str(exc_info.value)) < 200
