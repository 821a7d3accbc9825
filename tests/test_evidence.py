"""Body construction axioms and partition / quasi-partition classification."""

from fractions import Fraction

import pytest
from hypothesis import given

from dsaudit import (
    EvidenceError,
    StructureTag,
    classify,
    combine,
    make_body,
    make_frame,
    subset,
    vacuous,
)
from dsaudit.evidence import as_mass
from strategies import bodies


@pytest.fixture
def abc():
    return make_frame(["a", "b", "c"])


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
    sc = classify(body)
    assert sc.tag is StructureTag.PARTITION
    assert sc.uncertainty_mass == 0


def test_classify_quasi_partition(abc):
    body = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/4"),
            (subset(abc, ["b", "c"]), "1/2"),
            (abc.universe(), "1/4"),
        ],
    )
    sc = classify(body)
    assert sc.tag is StructureTag.QUASI_PARTITION
    assert sc.uncertainty_mass == Fraction(1, 4)


def test_classify_overlapping_is_general(abc):
    body = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["b", "c"]), "1/2")])
    assert classify(body).tag is StructureTag.GENERAL


def test_classify_noncovering_is_general(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/2"), (subset(abc, ["b"]), "1/2")])
    assert classify(body).tag is StructureTag.GENERAL


def test_vacuous_body_is_general(abc):
    body = vacuous(abc)
    assert body.focal == ((abc.universe(), Fraction(1)),)
    # the frame alone does not tile itself out of its proper subsets
    assert classify(body).tag is StructureTag.GENERAL
    assert classify(body).uncertainty_mass == 1


def test_vacuous_is_neutral_for_combination(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/3"), (subset(abc, ["b", "c"]), "2/3")])
    assert combine(body, vacuous(abc)).combined == body


@given(bodies())
def test_bodies_always_satisfy_axioms(body):
    total = sum(m for _, m in body.focal)
    assert total == 1
    assert all(m > 0 for _, m in body.focal)
    assert all(s.bits != 0 for s, _ in body.focal)
    tags = {classify(body).tag}
    assert tags <= {StructureTag.PARTITION, StructureTag.QUASI_PARTITION, StructureTag.GENERAL}


def test_mass_exponent_is_bounded():
    assert as_mass("1e-4300") == Fraction(1, 10**4300)
    assert as_mass(" 25E-2 ") == Fraction(1, 4)
    for text in ("1e-1000000", "1E+4301", "0.5e43_01", "1e-00000099999 "):
        with pytest.raises(EvidenceError, match="exponent"):
            as_mass(text)
