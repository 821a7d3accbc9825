"""Evidence document parsing, validation context, and size limits."""

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dsaudit import (
    FRAME_SIZE_CAP,
    MAX_BODIES,
    MAX_FOCAL_SETS,
    DocumentError,
    documents,
    evidence,
    make_body,
    make_frame,
    parse_document,
    subset,
)
from dsaudit.documents import load_document
from dsaudit.evidence import EvidenceError, as_mass, mass_ratio
from dsaudit.frames import FocalSet, FrameError

GOOD = """
{
  "frame": ["a", "b", "c"],
  "bodies": {
    "A": [{"set": ["a"], "mass": "1/4"}, {"set": ["b", "c"], "mass": "3/4"}],
    "B": [{"set": ["a", "b"], "mass": "0.5"}, {"set": ["c"], "mass": "1/2"}]
  }
}
"""


def test_parse_good_document():
    doc = parse_document(GOOD)
    assert doc.frame.elements == ("a", "b", "c")
    assert set(doc.bodies) == {"A", "B"}
    a = doc.bodies["A"]
    assert [str(m) for _, m in a.focal] == ["1/4", "3/4"]


def test_decimal_strings_convert_exactly():
    doc = parse_document(GOOD.replace('"1/4"', '"0.1"').replace('"3/4"', '"0.9"'))
    assert [m for _, m in doc.bodies["A"].focal] == [Fraction(1, 10), Fraction(9, 10)]
    assert [m for _, m in doc.bodies["B"].focal] == [Fraction(1, 2), Fraction(1, 2)]
    whole = parse_document('{"frame": ["a"], "bodies": {"A": [{"set": ["a"], "mass": 1}]}}')
    assert whole.bodies["A"].focal[0][1] == 1


def test_mass_exponent_is_bounded():
    tiny = parse_document(
        GOOD.replace('"1/4"', '"1E-4300"').replace('"3/4"', '"0.' + "9" * 4300 + '"')
    )
    assert tiny.bodies["A"].focal[0][1] == Fraction(1, 10**4300)
    for mass in ("5e-4301", "1e-1000000"):
        with pytest.raises(DocumentError, match="body 'B', entry 1: .*exponent"):
            parse_document(GOOD.replace('"0.5"', f'"{mass}"'))


def test_over_long_mass_string_rejected_with_a_short_message():
    text = GOOD.replace('"0.5"', '"' + "1" * 10_000_000 + '"')
    with pytest.raises(DocumentError, match="body 'B', entry 1: .*more than 20000") as info:
        parse_document(text)
    assert len(str(info.value)) < 200


def test_json_floats_rejected():
    text = GOOD.replace('"0.5"', "0.5")
    with pytest.raises(DocumentError, match="quote the value"):
        parse_document(text)


def test_syntax_error_reports_position():
    with pytest.raises(DocumentError, match="line"):
        parse_document('{"frame": ["a"],}')


def test_bad_sum_reports_body_and_sum():
    text = GOOD.replace('"3/4"', '"1/2"')
    with pytest.raises(DocumentError, match="body 'A'.*sum to exactly 1, got 3/4"):
        parse_document(text)


def test_unknown_label_reports_entry():
    text = GOOD.replace('"set": ["c"]', '"set": ["z"]')
    with pytest.raises(DocumentError, match="body 'B', entry 2.*unknown label"):
        parse_document(text)


def test_integer_beyond_the_digit_limit_rejected():
    text = GOOD.replace('"1/4"', "1" * 5000)
    with pytest.raises(DocumentError, match="doc.json: a JSON integer has too many digits"):
        parse_document(text, source="doc.json")


def test_deep_nesting_rejected():
    with pytest.raises(DocumentError, match="doc.json: arrays or objects nested too deeply"):
        parse_document("[" * 200_000, source="doc.json")


def test_file_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(GOOD.replace('"a"', '"\u00e9"').encode("latin-1"))
    with pytest.raises(DocumentError, match=r"latin1.json: not UTF-8 text \(byte \d+\)"):
        load_document(str(path))


def test_missing_bodies_rejected():
    with pytest.raises(DocumentError, match="bodies"):
        parse_document('{"frame": ["a", "b"]}')


def test_duplicate_frame_label_rejected():
    with pytest.raises(DocumentError, match="invalid frame"):
        parse_document('{"frame": ["a", "a"], "bodies": {"A": []}}')


@pytest.mark.parametrize(
    "original, repeated, key",
    [
        ('"B": [', '"A": [', "A"),
        ('"mass": "1/2"}', '"mass": "1/2", "mass": "1"}', "mass"),
        ('"frame": ["a", "b", "c"],', '"frame": ["a", "b", "c"], "frame": ["a", "b"],', "frame"),
    ],
    ids=["body-name", "entry-key", "frame"],
)
def test_repeated_key_rejected(original, repeated, key):
    # The last value of a repeated key must not silently win.
    text = GOOD.replace(original, repeated)
    assert text != GOOD
    with pytest.raises(DocumentError, match=f"doc.json: key '{key}' appears more than once"):
        parse_document(text, source="doc.json")


def _bayesian_document(n_bodies: int, extra_entries: int = 0, mass: object = None) -> str:
    """``n_bodies`` uniform Bayesian bodies on the largest frame, each with
    ``extra_entries`` more copies of its first entry; ``mass`` replaces every
    mass when given."""
    labels = [f"x{i}" for i in range(FRAME_SIZE_CAP)]
    body = [{"set": [x], "mass": mass or f"1/{FRAME_SIZE_CAP}"} for x in labels]
    body += body[:1] * extra_entries
    return json.dumps({"frame": labels, "bodies": {f"B{k}": body for k in range(n_bodies)}})


def test_focal_set_and_body_counts_at_the_caps_parse():
    assert MAX_FOCAL_SETS == FRAME_SIZE_CAP
    doc = parse_document(_bayesian_document(MAX_BODIES))
    assert len(doc.bodies) == MAX_BODIES
    assert all(len(b.focal) == MAX_FOCAL_SETS for b in doc.bodies.values())


def test_one_focal_set_over_the_cap_is_refused_before_any_mass_parses():
    # 0.5 is a JSON float, which the mass parser would reject with another message.
    text = _bayesian_document(1, extra_entries=1, mass=0.5)
    limit = f"body 'B0': {MAX_FOCAL_SETS + 1} entries; the limit is {MAX_FOCAL_SETS}"
    with pytest.raises(DocumentError, match=limit):
        parse_document(text)


def test_one_body_over_the_cap_is_refused_before_any_mass_parses():
    text = _bayesian_document(MAX_BODIES + 1, mass=0.5)
    with pytest.raises(DocumentError, match=f"{MAX_BODIES + 1} bodies; the limit is {MAX_BODIES}"):
        parse_document(text)


def test_parsing_builds_no_focal_set_and_parses_each_mass_once(monkeypatch):
    # Labels go straight to bitmasks and each mass string is parsed once;
    # a FocalSet is made only for an error message or a view read later.
    built = []
    post_init = FocalSet.__post_init__

    def counted_post_init(self):
        built.append(self.bits)
        post_init(self)

    parsed = []

    def counted_mass_ratio(value):
        parsed.append(value)
        return mass_ratio(value)

    monkeypatch.setattr(FocalSet, "__post_init__", counted_post_init)
    monkeypatch.setattr(evidence, "mass_ratio", counted_mass_ratio)
    monkeypatch.setattr(documents, "mass_ratio", counted_mass_ratio)
    text = json.dumps(
        {
            "frame": ["a", "b", "c", "d"],
            "bodies": {
                "A": [
                    {"set": ["a"], "mass": "1/4"},
                    {"set": ["b", "c"], "mass": "0.5"},
                    {"set": ["a", "b", "c", "d"], "mass": "1/4"},
                ],
                "B": [{"set": ["d", "a"], "mass": 1}, {"set": [], "mass": "0"}],
                "C": [{"set": ["c"], "mass": "1/3"}, {"set": ["c", "d"], "mass": "2/3"}],
            },
        }
    )
    doc = parse_document(text)
    assert built == []
    assert parsed == ["1/4", "0.5", "1/4", 1, "0", "1/3", "2/3"]
    assert all("focal" not in vars(body) for body in doc.bodies.values())
    assert doc.bodies["B"].masses == ((0b1001, 1),)
    frame = doc.frame
    a = [(subset(frame, ["a"]), "1/4"), (subset(frame, ["b", "c"]), "1/2"), (frame.universe(), "1/4")]
    assert doc.bodies["A"] == make_body(frame, a)


def _error_message(call):
    with pytest.raises((DocumentError, EvidenceError, FrameError)) as info:
        call()
    return f"{type(info.value).__name__}: {info.value}"


ERROR_TABLE = json.loads((Path(__file__).parent / "data" / "error_messages.json").read_text())


@pytest.mark.parametrize(
    "case", ERROR_TABLE["parse_document"], ids=[c["case"] for c in ERROR_TABLE["parse_document"]]
)
def test_parse_errors_are_the_recorded_messages(case):
    # The table was recorded before parsing went straight to bitmasks: the
    # same message, byte for byte, and the same entry reported first.
    assert _error_message(lambda: parse_document(case["text"])) == case["message"]


@pytest.mark.parametrize(
    "case", ERROR_TABLE["make_body"], ids=[c["case"] for c in ERROR_TABLE["make_body"]]
)
def test_make_body_errors_are_the_recorded_messages(case):
    # An entry is [labels, mass] on the table's frame, or [labels, mass,
    # frame labels] for a set from another frame.
    frame = make_frame(ERROR_TABLE["frame"])
    entries = [
        (subset(make_frame(e[2]) if len(e) > 2 else frame, e[0]), e[1]) for e in case["entries"]
    ]
    assert _error_message(lambda: make_body(frame, entries)) == case["message"]


_LABELS = ("a", "b", "c", "d")


@st.composite
def _written_mass(draw, m):
    """``m`` as a document may write it: plain or unreduced "p/q", a
    decimal, a JSON int, a leading "+", or one of the ways to write 0."""
    k = draw(st.integers(2, 5))
    forms = [str(m), f"{m.numerator * k}/{m.denominator * k}"]
    if m >= 0:
        forms.append(f"+{m}")
    if 10**6 % m.denominator == 0:
        forms.append(str(Decimal(m.numerator) / Decimal(m.denominator)))
    if m.denominator == 1:
        forms.append(m.numerator)
    if m == 0:
        forms += ["0", 0, "0/7", "0.0"]
    return draw(st.sampled_from(forms))


@st.composite
def _documents(draw):
    """A one-body document on 1-4 labels, as its frame labels and its
    entries: sets may repeat, be empty or name a label the frame lacks, and
    masses may be negative or zero; half the time the masses sum to 1."""
    size = draw(st.integers(1, len(_LABELS)))
    rare = st.sampled_from([False] * 9 + [True])
    masses = [
        -m if draw(rare) else m
        for m in draw(st.lists(st.fractions(0, 1, max_denominator=8), max_size=5))
    ]
    if draw(st.booleans()):
        masses.append(1 - sum(masses))
    entries = []
    for m in masses:
        members = [] if draw(rare) else draw(st.lists(st.sampled_from(_LABELS[:size]), min_size=1))
        if size < len(_LABELS) and draw(rare):
            members.append(_LABELS[size])
        entries.append((members, draw(_written_mass(m))))
    return list(_LABELS[:size]), entries


def _library_outcome(labels, entries):
    """What the library gives for the entries, or the message a document
    with them would carry: labels and masses are read entry by entry
    first, then the body is checked."""
    frame = make_frame(labels)
    sets = []
    for k, (members, mass) in enumerate(entries):
        try:
            sets.append(subset(frame, members))
            as_mass(mass)
        except (FrameError, EvidenceError) as exc:
            return f"<input>: body 'A', entry {k + 1}: {exc}"
    try:
        return make_body(frame, [(s, mass) for s, (_, mass) in zip(sets, entries)])
    except EvidenceError as exc:
        return f"<input>: body 'A': {exc}"


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_a_document_parses_to_the_body_make_body_builds(document):
    labels, entries = document
    text = json.dumps(
        {"frame": labels, "bodies": {"A": [{"set": s, "mass": m} for s, m in entries]}}
    )
    try:
        got = parse_document(text).bodies["A"]
    except DocumentError as exc:
        got = str(exc)
    want = _library_outcome(labels, entries)
    assert got == want
    event(want.split(": ")[-1].split(" ")[0] if isinstance(want, str) else "body")
