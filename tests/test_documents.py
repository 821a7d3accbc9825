"""Evidence document parsing, validation context, and canonical round-trips."""

from fractions import Fraction

import pytest

from dsaudit import DocumentError, dump_document, parse_document
from dsaudit.documents import parse_mass

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
    assert parse_mass("0.25") == Fraction(1, 4)
    assert parse_mass("0.1") == Fraction(1, 10)
    assert parse_mass(2) == 2


def test_mass_exponent_is_bounded():
    assert parse_mass("1E4300") == 10**4300
    with pytest.raises(DocumentError, match="exponent"):
        parse_mass("1e-1000000")
    with pytest.raises(DocumentError, match="exponent"):
        parse_document(GOOD.replace('"0.5"', '"5e-4301"'))


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


def test_missing_bodies_rejected():
    with pytest.raises(DocumentError, match="bodies"):
        parse_document('{"frame": ["a", "b"]}')


def test_duplicate_frame_label_rejected():
    with pytest.raises(DocumentError, match="invalid frame"):
        parse_document('{"frame": ["a", "a"], "bodies": {"A": []}}')


def test_dump_is_canonical_and_idempotent():
    doc = parse_document(GOOD)
    text = dump_document(doc)
    # decimal input was canonicalized to a reduced fraction string
    assert '"1/2"' in text
    assert "0.5" not in text
    doc2 = parse_document(text)
    assert doc2.frame == doc.frame
    assert doc2.bodies == doc.bodies
    assert dump_document(doc2) == text


def test_dump_sorts_sets_by_frame_order():
    import json

    text = """
    {
      "frame": ["a", "b", "c"],
      "bodies": {"A": [{"set": ["c", "b"], "mass": "1"}]}
    }
    """
    dumped = json.loads(dump_document(parse_document(text)))
    assert dumped["bodies"]["A"][0]["set"] == ["b", "c"]
