"""Body construction axioms and partition / quasi-partition classification."""

import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dsaudit import (
    EvidenceError,
    MeasureKind,
    audit,
    belief,
    combine,
    make_body,
    make_frame,
    mass_from_belief,
    measure_table,
    subset,
    vacuous,
)
from dsaudit import evidence
from dsaudit.evidence import MAX_MASS_LENGTH, BodyOfEvidence, StructureTag, as_mass, classify
from dsaudit.frames import FocalSet, FrameError
from strategies import bodies


@pytest.fixture
def abc():
    return make_frame(["a", "b", "c"])


@pytest.mark.parametrize(
    "read",
    [
        lambda body, f: measure_table(body, MeasureKind.BELIEF),
        lambda body, f: belief(body, FocalSet(f, 3)),
    ],
    ids=["measure_table", "belief"],
)
@pytest.mark.parametrize("den", [1, 2**70], ids=["den-1", "den-2**70"])
def test_a_hand_built_body_with_a_bitmask_outside_its_frame_is_refused(read, den):
    # The body's own FrameError comes before any table or sum reads the
    # bitmask, at a packed (den 1) and at a wide (den 2**70) field width.
    f = make_frame(["a", "b"])
    with pytest.raises(FrameError, match="bitmask 0x8 out of range for frame of size 2"):
        read(BodyOfEvidence(f, den, ((8, den),)), f)
    with pytest.raises(FrameError, match="bitmask 0x4 out of range"):
        BodyOfEvidence(f, 2, ((1, 1), (4, 1)))
    assert BodyOfEvidence(f, 2, ((1, 1), (3, 1))).masses == ((1, 1), (3, 1))


_FAULTS = {
    # id: (den, masses, error, message) on frame {a, b, c}; each FrameError
    # message goes on "for frame of size 3".
    "unsorted-outside-frame": (2, ((8, 1), (1, 1)), FrameError, "bitmask 0x8 out of range"),
    "outside-frame": (2, ((16, 1), (1, 1)), FrameError, "bitmask 0x10 out of range"),
    "negative-bitmask": (2, ((1, 1), (-1, 1)), FrameError, "bitmask -0x1 out of range"),
    "bad-sum": (4, ((1, 2), (2, 1)), EvidenceError, "masses must sum to exactly 1, got 3/4"),
    "negative": (1, ((1, 2), (2, -1)), EvidenceError, "negative mass -1 on {b}"),
    "zero": (1, ((1, 0), (2, 1)), EvidenceError, "mass 0 on {a} is not a positive int"),
    "empty-set": (2, ((0, 1), (1, 1)), EvidenceError, "positive mass 1/2 on the empty set"),
    "duplicate": (2, ((1, 1), (1, 1)), EvidenceError, "duplicate focal set {a}"),
    "unsorted": (2, ((2, 1), (1, 1)), EvidenceError, "focal sets out of order: {a} after {b}"),
    "den-0-no-masses": (0, (), EvidenceError, "denominator 0 is not a positive int"),
    "no-masses": (1, (), EvidenceError, "masses must sum to exactly 1, got 0"),
    "negative-den": (-1, ((1, -1),), EvidenceError, "denominator -1 is not a positive int"),
    "float-den": (2.0, ((1, 1), (2, 1)), EvidenceError, "denominator 2.0 is not a positive int"),
    "bool-mass": (1, ((1, True),), EvidenceError, "mass True on {a} is not a positive int"),
    "fraction-mass": (
        3,
        ((1, Fraction(3, 2)), (2, Fraction(3, 2))),
        EvidenceError,
        "mass Fraction(3, 2) on {a} is not a positive int",
    ),
}


@pytest.mark.parametrize("den, masses, error, message", list(_FAULTS.values()), ids=list(_FAULTS))
def test_a_hand_built_body_that_breaks_an_axiom_is_refused_on_construction(
    abc, den, masses, error, message
):
    # Every fault raises where the body is built, with make_body's message
    # for the faults make_body sees too, before any consumer reads it.
    with pytest.raises(error) as exc_info:
        BodyOfEvidence(abc, den, masses)
    assert type(exc_info.value) is error
    suffix = " for frame of size 3" if error is FrameError else ""
    assert str(exc_info.value) == message + suffix


def test_the_motivating_hand_built_bodies_reach_no_consumer(abc):
    # A negative mass made belief({a}) 2 and plausibility({b}) -1; {a} listed
    # twice made an audit bound P({c}) by [0, 0]; an unsorted body on a
    # 2-element frame got past a check of its last bitmask alone.
    with pytest.raises(EvidenceError, match="negative mass -1 on {b}"):
        belief(BodyOfEvidence(abc, 1, ((1, 2), (2, -1))), subset(abc, ["a"]))
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    with pytest.raises(EvidenceError, match="duplicate focal set {a}"):
        audit([BodyOfEvidence(abc, 2, ((1, 1), (1, 1))), b])
    ab = make_frame(["a", "b"])
    with pytest.raises(FrameError, match="bitmask 0x8 out of range for frame of size 2"):
        measure_table(BodyOfEvidence(ab, 2, ((8, 1), (1, 1))), MeasureKind.BELIEF)


@pytest.mark.parametrize("bits", [1.0, True, Fraction(1)], ids=["float", "bool", "fraction"])
def test_a_bitmask_that_is_not_an_int_is_refused(abc, bits):
    # A float bitmask built a body whose belief raised TypeError and a
    # FocalSet whose str() raised; True built a FocalSet equal to bitmask 1.
    message = f"bitmask {bits!r} is a {type(bits).__name__}, not an int"
    with pytest.raises(FrameError) as exc_info:
        FocalSet(abc, bits)
    assert str(exc_info.value) == message
    with pytest.raises(FrameError) as exc_info:
        BodyOfEvidence(abc, 1, ((bits, 1),))
    assert str(exc_info.value) == message
    with pytest.raises(FrameError) as exc_info:
        BodyOfEvidence(abc, 2, ((1, 1), (bits, 1)))
    assert str(exc_info.value) == message


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_hand_built_body_either_raises_or_equals_make_body_of_its_fractions(data):
    # Bitmasks from -1 to one past the frame and masses from -1; the entries
    # are mostly distinct and sorted and den mostly their sum, so some of
    # the draws are valid bodies and the rest break one or more axioms.
    size = data.draw(st.integers(1, 3), "size")
    frame = make_frame(["a", "b", "c"][:size])
    mostly = st.sampled_from([True, True, True, False])
    entry = st.tuples(st.sampled_from(range(-1, (1 << size) + 1)), st.sampled_from(range(-1, 8)))
    unique = (lambda e: e[0]) if data.draw(mostly, "distinct") else None
    entries = data.draw(st.lists(entry, min_size=1, max_size=4, unique_by=unique), "entries")
    if data.draw(mostly, "sorted"):
        entries.sort()
    total = sum(m for _, m in entries)
    den = total if data.draw(mostly, "den is the sum") else data.draw(st.integers(-1, 12), "den")
    try:
        body = BodyOfEvidence(frame, den, tuple(entries))
    except (EvidenceError, FrameError) as exc:
        event(f"refused: {str(exc).split()[0]}")
        return
    event("built")
    fractions = [(FocalSet(frame, bits), Fraction(m, den)) for bits, m in entries]
    assert body.focal == make_body(frame, fractions).focal
    assert [bits for bits, _ in entries] == sorted({bits for bits, _ in entries})
    assert all(m > 0 for _, m in entries) and 0 not in dict(entries)


def test_make_body_valid(abc):
    body = make_body(
        abc, [(subset(abc, ["a"]), Fraction(1, 4)), (subset(abc, ["b", "c"]), Fraction(3, 4))]
    )
    assert body.mass_of(subset(abc, ["a"])) == Fraction(1, 4)
    assert body.mass_of(subset(abc, ["b"])) == 0


def test_make_body_sum_must_be_one(abc):
    with pytest.raises(EvidenceError, match="sum to exactly 1"):
        make_body(abc, [(subset(abc, ["a"]), Fraction(1, 2)), (subset(abc, ["b"]), Fraction(1, 4))])


def test_make_body_drops_zero_entries(abc):
    body = make_body(abc, [(abc.empty(), 0), (subset(abc, ["a"]), 1)])
    assert body.focal_sets() == (subset(abc, ["a"]),)


def test_make_body_rejects_mass_on_empty_set(abc):
    with pytest.raises(EvidenceError, match="empty set"):
        make_body(abc, [(abc.empty(), Fraction(1, 2)), (subset(abc, ["a"]), Fraction(1, 2))])


def test_make_body_rejects_negative_mass(abc):
    with pytest.raises(EvidenceError, match="negative"):
        make_body(abc, [(subset(abc, ["a"]), Fraction(3, 2)), (subset(abc, ["b"]), Fraction(-1, 2))])


def test_make_body_rejects_duplicate_focal_sets(abc):
    with pytest.raises(EvidenceError, match="duplicate"):
        make_body(
            abc,
            [
                (subset(abc, ["a"]), Fraction(1, 2)),
                (subset(abc, ["a"]), Fraction(1, 4)),
                (subset(abc, ["b"]), Fraction(1, 4)),
            ],
        )


def test_make_body_rejects_floats(abc):
    with pytest.raises(EvidenceError, match="Fraction, int, or string"):
        make_body(abc, [(subset(abc, ["a"]), 0.5), (subset(abc, ["b"]), 0.5)])


def test_mass_strings_parse_exactly(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "0.25"), (subset(abc, ["b", "c"]), "3/4")])
    assert body.mass_of(subset(abc, ["a"])) == Fraction(1, 4)


def test_classify_partition(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/4"), (subset(abc, ["b", "c"]), "3/4")])
    assert classify(body) is StructureTag.PARTITION


def test_classify_quasi_partition(abc):
    body = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/4"),
            (subset(abc, ["b", "c"]), "1/2"),
            (abc.universe(), "1/4"),
        ],
    )
    assert classify(body) is StructureTag.QUASI_PARTITION


def test_classify_overlapping_is_general(abc):
    body = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["b", "c"]), "1/2")])
    assert classify(body) is StructureTag.GENERAL


def test_classify_noncovering_is_general(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/2"), (subset(abc, ["b"]), "1/2")])
    assert classify(body) is StructureTag.GENERAL


def test_vacuous_body_is_general(abc):
    body = vacuous(abc)
    assert body.focal == ((abc.universe(), Fraction(1)),)
    # the frame alone does not tile itself out of its proper subsets
    assert classify(body) is StructureTag.GENERAL


def test_vacuous_is_neutral_for_combination(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/3"), (subset(abc, ["b", "c"]), "2/3")])
    assert combine(body, vacuous(abc)).combined == body


@given(bodies())
def test_bodies_always_satisfy_axioms(body):
    total = sum(m for _, m in body.focal)
    assert total == 1
    assert all(m > 0 for _, m in body.focal)
    assert all(s.bits != 0 for s, _ in body.focal)
    tags = {classify(body)}
    assert tags <= {StructureTag.PARTITION, StructureTag.QUASI_PARTITION, StructureTag.GENERAL}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_constructor_keeps_the_least_denominator(data):
    # One assignment built three ways: through make_body from shuffled
    # entries with unreduced mass strings, as its combination with the
    # vacuous body, and as the inversion of its belief table.
    size = data.draw(st.integers(1, 8), label="size")
    frame = make_frame([f"e{i}" for i in range(size)])
    full = (1 << size) - 1
    masks = data.draw(
        st.lists(st.integers(1, full), min_size=1, max_size=min(8, full), unique=True),
        label="masks",
    )
    weights = data.draw(
        st.lists(st.integers(1, 60), min_size=len(masks), max_size=len(masks)), label="weights"
    )
    masses = [Fraction(w, sum(weights)) for w in weights]
    entries = []
    for bits, m in zip(masks, masses):
        k = data.draw(st.integers(1, 5))
        raw = data.draw(st.sampled_from([m, f"{k * m.numerator}/{k * m.denominator}"]))
        entries.append((FocalSet(frame, bits), raw))
    body = make_body(frame, data.draw(st.permutations(entries), label="order"))
    den = math.lcm(*(m.denominator for m in masses))
    want = tuple(sorted((bits, int(m * den)) for bits, m in zip(masks, masses)))
    built = (
        body,
        combine(body, vacuous(frame)).combined,
        mass_from_belief(measure_table(body, MeasureKind.BELIEF)),
    )
    for other in built:
        assert (other.den, other.masses) == (den, want)
        assert math.gcd(other.den, *(m for _, m in other.masses)) == 1
        assert other == body and hash(other) == hash(body)
        assert other.focal == tuple((FocalSet(frame, b), Fraction(m, den)) for b, m in want)


def test_mass_exponent_is_bounded():
    assert as_mass("1e-4300") == Fraction(1, 10**4300)
    assert as_mass(" 25E-2 ") == Fraction(1, 4)
    for text in ("1e-1000000", "1E+4301", "0.5e43_01", "1e-00000099999 "):
        with pytest.raises(EvidenceError, match="exponent"):
            as_mass(text)


def test_mass_string_length_is_bounded():
    digits = "7" * 4300
    assert as_mass(f"{digits}/3") == Fraction(int(digits), 3)
    separated = "_".join(digits)
    assert as_mass(f"-{separated}/{separated}") == -1
    for text in ("1" * (MAX_MASS_LENGTH + 1), "1" * 10_000_000):
        with pytest.raises(EvidenceError, match=f"more than {MAX_MASS_LENGTH}") as info:
            as_mass(text)
        assert len(str(info.value)) < 200


@pytest.mark.parametrize(
    "value", ["x" * 5000, "1" * 5000, "1/0", 0.5, True, [1] * 5000, None]
)
def test_mass_errors_quote_a_bounded_prefix(value):
    with pytest.raises(EvidenceError) as info:
        as_mass(value)
    assert len(str(info.value)) < 250


def _outcome(text):
    try:
        return as_mass(text)
    except EvidenceError as exc:
        return str(exc)


def _outcome_without_plain_path(text):
    """What as_mass gives when every string takes the Fraction(text) path."""
    with mock.patch.object(evidence, "_plain_ratio", lambda text: None):
        return _outcome(text)


_DIGITS = st.text("0123456789", min_size=1, max_size=6)
_LONG = st.sampled_from([4299, 4300, 4301, 9000]).map(lambda k: "7" * k)
mass_texts = st.one_of(
    # Digits, slashes, signs, spaces, underscores, points, exponents and
    # non-ASCII digits (Arabic-Indic three, fullwidth five) in any order.
    st.text("0123456789/+- _.eE\u0663\uff15", max_size=10),
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}/{}".format, _DIGITS, st.text("0", min_size=1, max_size=3)),
    st.builds("{}/{}".format, _LONG, st.sampled_from(["3", "0", "7" * 4300])),
    st.builds("{}/{}".format, st.sampled_from(["1", "0"]), _LONG),
    _LONG,
)


@settings(max_examples=400, deadline=None)
@given(mass_texts)
def test_mass_strings_parse_as_fraction_parses_them(text):
    got = _outcome(text)
    assert got == _outcome_without_plain_path(text)
    if isinstance(got, Fraction):
        assert type(got) is Fraction and got == Fraction(text)
        event("parsed")
    else:
        assert got.startswith("cannot parse mass ")
        event("refused")


@settings(max_examples=200, deadline=None)
@given(st.one_of(_DIGITS, st.builds("{}/{}".format, _DIGITS, _DIGITS), _LONG))
def test_plain_mass_strings_read_as_their_ints(text):
    numerator, _, denominator = text.partition("/")
    if int(denominator or "1") == 0:
        assert _outcome(text) == f"cannot parse mass {text!r}: zero denominator"
    elif len(text) > 4300:
        assert _outcome(text).endswith("with at most 4300 digits per number")
    else:
        assert as_mass(text) == Fraction(int(numerator), int(denominator or "1"))


def test_a_lowered_int_digit_limit_refuses_a_plain_mass_as_before():
    text = "7" * 700 + "/3"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = _outcome(text)
        assert got == _outcome_without_plain_path(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got.startswith("cannot parse mass ")


def _reference_outcome(frame, assignments):
    """make_body's checks as made with a running Fraction sum: its error
    message, or the focal pairs of the body."""
    seen, kept, total = set(), [], Fraction(0)
    for s, raw in assignments:
        m = Fraction(raw)
        if m < 0:
            return f"negative mass {m} on {s}"
        if s.bits in seen:
            return f"duplicate focal set {s}"
        seen.add(s.bits)
        if m == 0:
            continue
        if s.bits == 0:
            return f"positive mass {m} on the empty set"
        kept.append((s, m))
        total += m
    if total != 1:
        return f"masses must sum to exactly 1, got {total}"
    return tuple(sorted(kept, key=lambda pair: pair[0].bits))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_make_body_messages_match_a_running_fraction_sum(data):
    frame = make_frame(["a", "b", "c"])
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, 7), st.fractions(-1, 1, max_denominator=12)), max_size=6
        )
    )
    if data.draw(st.booleans()):
        # Complete the sum to 1 on one more set, so valid bodies occur too.
        pairs.append((data.draw(st.integers(0, 7)), 1 - sum(m for _, m in pairs)))
    assignments = [
        (FocalSet(frame, bits), str(m) if data.draw(st.booleans()) else m) for bits, m in pairs
    ]
    expected = _reference_outcome(frame, assignments)
    try:
        got = make_body(frame, assignments).focal
    except EvidenceError as exc:
        got = str(exc)
    assert got == expected
    event("body" if isinstance(expected, tuple) else expected.split(" ")[0])
