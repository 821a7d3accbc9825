"""Belief, plausibility, duality, and exact mass recovery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsaudit import (
    InversionError,
    MeasureKind,
    belief,
    make_body,
    make_frame,
    mass_from_belief,
    measure_table,
    plausibility,
    subset,
    vacuous,
)
from dsaudit.frames import FocalSet, enumerate_subsets
from dsaudit.measures import MeasureTable
from strategies import bodies, partition_bodies


def reference_masses(table):
    """Mobius inversion by the alternating-sign sum over every submask of
    every subset, O(3**n): the oracle for ``mass_from_belief``."""
    masses = {}
    for s in enumerate_subsets(table.frame):
        total = Fraction(0)
        sub = s.bits
        while True:
            sign = -1 if (s.bits ^ sub).bit_count() & 1 else 1
            total += sign * table.values[FocalSet(table.frame, sub)]
            if sub == 0:
                break
            sub = (sub - 1) & s.bits
        masses[s] = total
    return masses


@pytest.fixture
def abc():
    return make_frame(["a", "b", "c"])


@pytest.fixture
def quasi_combined(abc):
    # Combined body of the quasi-partition example at x=1/4, xbar=1/2, y=1/2.
    return make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/7"),
            (subset(abc, ["b"]), "2/7"),
            (subset(abc, ["c"]), "3/7"),
            (subset(abc, ["a", "b"]), "1/7"),
        ],
    )


def test_belief_of_singleton_in_quasi_combined(quasi_combined, abc):
    assert belief(quasi_combined, subset(abc, ["b"])) == Fraction(2, 7)


def test_plausibility_of_singleton_in_quasi_combined(quasi_combined, abc):
    assert plausibility(quasi_combined, subset(abc, ["b"])) == Fraction(3, 7)


def test_belief_endpoints(quasi_combined, abc):
    assert belief(quasi_combined, abc.universe()) == 1
    assert belief(quasi_combined, abc.empty()) == 0
    assert plausibility(quasi_combined, abc.empty()) == 0


def test_vacuous_plausibility_is_one_on_nonempty(abc):
    body = vacuous(abc)
    for s in enumerate_subsets(abc):
        expected = 0 if s.bits == 0 else 1
        assert plausibility(body, s) == expected


def test_measure_table_partition_case(abc):
    body = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/7"),
            (subset(abc, ["b"]), "3/7"),
            (subset(abc, ["c"]), "3/7"),
        ],
    )
    bel = measure_table(body, MeasureKind.BELIEF)
    pl = measure_table(body, MeasureKind.PLAUSIBILITY)
    for labels, want in [(["a"], "1/7"), (["b"], "3/7"), (["c"], "3/7")]:
        s = subset(abc, labels)
        assert bel.values[s] == Fraction(want) == pl.values[s] == body.mass_of(s)


def test_measure_table_vacuous(abc):
    table = measure_table(vacuous(abc), MeasureKind.BELIEF)
    for s, value in table.values.items():
        assert value == (1 if s == abc.universe() else 0)


def test_measure_table_endpoints(quasi_combined, abc):
    for kind in MeasureKind:
        table = measure_table(quasi_combined, kind)
        assert table.values[abc.empty()] == 0
        assert table.values[abc.universe()] == 1


def test_mass_recovery_partition_example(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/4"), (subset(abc, ["b", "c"]), "3/4")])
    recovered = mass_from_belief(measure_table(body, MeasureKind.BELIEF))
    assert recovered == body


def test_mass_recovery_vacuous(abc):
    body = vacuous(abc)
    assert mass_from_belief(measure_table(body, MeasureKind.BELIEF)) == body


def test_mass_recovery_rejects_non_belief_table(abc):
    table = measure_table(vacuous(abc), MeasureKind.PLAUSIBILITY)
    with pytest.raises(InversionError, match="Belief"):
        mass_from_belief(table)


@pytest.mark.parametrize(
    "kind, den, ints, message",
    [
        (MeasureKind.BELIEF, 1, (0, 1), "2 values"),
        (MeasureKind.BELIEF, 1, (0,) * 16, "16 values"),
        (MeasureKind.BELIEF, 0, (0,) * 8, "denominator"),
        ("Belief", 1, (0,) * 7 + (1,), "MeasureKind"),
    ],
)
def test_table_of_wrong_shape_is_refused(abc, kind, den, ints, message):
    # Read as a 1-element frame's table, (0, 1) would invert to {a}:1.
    with pytest.raises(InversionError, match=message):
        mass_from_belief(MeasureTable(abc, kind, den, ints))


def test_mass_recovery_reports_offending_subset(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/2"), (subset(abc, ["b"]), "1/2")])
    table = measure_table(body, MeasureKind.BELIEF)
    values = dict(table.values)
    # Bump one belief value above its superset sums: recovery goes negative.
    bad = subset(abc, ["a", "b"])
    values[bad] = Fraction(9, 8)
    broken = MeasureTable.from_values(table.frame, table.kind, values)
    with pytest.raises(InversionError) as exc_info:
        mass_from_belief(broken)
    assert exc_info.value.subset is not None


def test_mass_recovery_names_lowest_negative_subset(abc):
    body = make_body(abc, [(subset(abc, ["a"]), "1/2"), (subset(abc, ["b"]), "1/2")])
    values = dict(measure_table(body, MeasureKind.BELIEF).values)
    # Raising bel({a}) makes the masses of {a,b} (bits 3) and {a,c} (bits 5)
    # both -1/4; the lower bitmask is the one reported.
    values[subset(abc, ["a"])] = Fraction(3, 4)
    broken = MeasureTable.from_values(abc, MeasureKind.BELIEF, values)
    assert [s for s, m in reference_masses(broken).items() if m < 0] == [
        subset(abc, ["a", "b"]),
        subset(abc, ["a", "c"]),
    ]
    with pytest.raises(InversionError) as exc_info:
        mass_from_belief(broken)
    assert str(exc_info.value) == (
        "recovered mass of {a,b} is negative (-1/4); not a belief function"
    )
    assert exc_info.value.subset == subset(abc, ["a", "b"])


@pytest.mark.parametrize("labels, value", [(["a"], 0.5), (["a", "b", "c"], 1.0)])
def test_mass_recovery_rejects_float_values(abc, labels, value):
    body = make_body(abc, [(subset(abc, ["a"]), "1/2"), (subset(abc, ["b"]), "1/2")])
    values = dict(measure_table(body, MeasureKind.BELIEF).values)
    values[subset(abc, labels)] = value
    with pytest.raises(InversionError) as exc_info:
        mass_from_belief(MeasureTable.from_values(abc, MeasureKind.BELIEF, values))
    assert exc_info.value.subset == subset(abc, labels)


def test_twelve_element_body_round_trips_exactly():
    rng = random.Random(12)
    frame = make_frame([f"e{i}" for i in range(12)])
    masks = rng.sample(range(1, 1 << 12), 40)
    # Unrelated denominators, so the common denominator is large.
    masses = [Fraction(rng.randint(1, 50), rng.randint(2000, 4000)) for _ in masks[1:]]
    masses.append(1 - sum(masses))
    body = make_body(frame, [(FocalSet(frame, b), m) for b, m in zip(masks, masses)])
    bel = measure_table(body, MeasureKind.BELIEF)
    pl = measure_table(body, MeasureKind.PLAUSIBILITY)
    assert mass_from_belief(bel) == body
    for bits in rng.sample(range(1 << 12), 200):
        s = FocalSet(frame, bits)
        assert pl.values[s] == 1 - bel.values[FocalSet(frame, bits ^ frame.universe().bits)]
        assert bel.values[s] == belief(body, s)
        assert pl.values[s] == plausibility(body, s)


@settings(max_examples=200)
@given(bodies())
def test_measure_table_matches_point_queries(body):
    for kind, point in [
        (MeasureKind.BELIEF, belief),
        (MeasureKind.PLAUSIBILITY, plausibility),
    ]:
        table = measure_table(body, kind)
        assert list(table.values) == list(enumerate_subsets(body.frame))
        for s in enumerate_subsets(body.frame):
            assert table.values[s] == point(body, s)


@settings(max_examples=200)
@given(bodies(), st.data())
def test_mass_from_belief_matches_submask_reference(body, data):
    values = dict(measure_table(body, MeasureKind.BELIEF).values)
    inner = [s for s in values if 0 < s.bits < (1 << body.frame.size) - 1]
    if inner and data.draw(st.booleans()):
        # Perturb one value: the table may stop being a belief function.
        s = data.draw(st.sampled_from(inner))
        values[s] += data.draw(st.fractions(-1, 1, max_denominator=8))
    table = MeasureTable.from_values(body.frame, MeasureKind.BELIEF, values)
    reference = reference_masses(table)
    negative = [(s, m) for s, m in reference.items() if m < 0]
    if negative:
        s, m = negative[0]
        with pytest.raises(InversionError) as exc_info:
            mass_from_belief(table)
        assert str(exc_info.value) == (
            f"recovered mass of {s} is negative ({m}); not a belief function"
        )
        assert exc_info.value.subset == s
    else:
        recovered = mass_from_belief(table)
        assert recovered.focal == tuple((s, m) for s, m in reference.items() if m > 0)


@settings(max_examples=200)
@given(bodies(), st.sampled_from(list(MeasureKind)))
def test_values_view_matches_point_queries_as_a_dict(body, kind):
    point = belief if kind is MeasureKind.BELIEF else plausibility
    expected = {s: point(body, s) for s in enumerate_subsets(body.frame)}
    view = measure_table(body, kind).values
    assert view == expected
    assert list(view) == list(expected)
    assert list(view.items()) == list(expected.items())
    assert list(view.values()) == list(expected.values())
    assert len(view) == len(expected) == 1 << body.frame.size
    for s, value in expected.items():
        assert s in view
        assert view[s] == view.get(s) == value
    # A subset of another frame, even one with the same bits, is not a key.
    foreign = make_frame([*body.frame.elements, "z"])
    for bits in (0, (1 << body.frame.size) - 1):
        s = FocalSet(foreign, bits)
        assert s not in view
        assert view.get(s) is None
        with pytest.raises(KeyError):
            view[s]
    with pytest.raises(TypeError):
        view[body.frame.empty()] = Fraction(0)
    with pytest.raises(TypeError):
        del view[body.frame.empty()]


@settings(max_examples=200)
@given(bodies(), st.data())
def test_dense_and_hand_built_tables_invert_alike(body, data):
    dense = measure_table(body, MeasureKind.BELIEF)
    values = dict(dense.values)
    if data.draw(st.booleans()):
        # Perturb one value, endpoints included: inversion may fail.  The
        # dense table keeps a common denominator that is not the least one.
        s = data.draw(st.sampled_from(list(values)))
        values[s] += data.draw(st.fractions(-1, 1, max_denominator=8))
        den = dense.den * 840
        ints = tuple(int(v * den) for v in values.values())
        dense = MeasureTable(body.frame, MeasureKind.BELIEF, den, ints)
    hand_built = MeasureTable.from_values(body.frame, MeasureKind.BELIEF, values)
    outcomes = []
    for table in (dense, hand_built):
        try:
            outcomes.append(mass_from_belief(table))
        except InversionError as exc:
            outcomes.append((str(exc), exc.subset))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], tuple):
        assert outcomes[0][1] is not None


def test_hand_built_table_names_the_missing_subset(abc):
    values = dict(measure_table(vacuous(abc), MeasureKind.BELIEF).values)
    del values[subset(abc, ["a", "c"])]
    with pytest.raises(InversionError) as exc_info:
        MeasureTable.from_values(abc, MeasureKind.BELIEF, values)
    assert str(exc_info.value) == "table has no value for {a,c}"
    assert exc_info.value.subset == subset(abc, ["a", "c"])


def test_hand_built_table_matches_the_dense_one():
    frame = make_frame([f"e{i}" for i in range(6)])
    body = make_body(
        frame,
        [(FocalSet(frame, 5), "1/6"), (FocalSet(frame, 18), "1/4"), (FocalSet(frame, 63), "7/12")],
    )
    for kind in MeasureKind:
        dense = measure_table(body, kind)
        assert MeasureTable.from_values(frame, kind, dense.values) == dense
        assert dense.den == 12


@settings(max_examples=200)
@given(bodies())
def test_mass_belief_mass_round_trip(body):
    assert mass_from_belief(measure_table(body, MeasureKind.BELIEF)) == body


@settings(max_examples=200)
@given(bodies())
def test_duality_plausibility_is_one_minus_belief_of_complement(body):
    full = body.frame.universe().bits
    for s in enumerate_subsets(body.frame):
        assert plausibility(body, s) == 1 - belief(body, FocalSet(body.frame, s.bits ^ full))


@settings(max_examples=200)
@given(bodies())
def test_belief_below_plausibility_everywhere(body):
    for s in enumerate_subsets(body.frame):
        assert belief(body, s) <= plausibility(body, s)
    assert belief(body, body.frame.empty()) == 0
    assert belief(body, body.frame.universe()) == 1


@settings(max_examples=200)
@given(bodies())
def test_belief_monotone_under_inclusion(body):
    table = measure_table(body, MeasureKind.BELIEF)
    for s in enumerate_subsets(body.frame):
        for t in enumerate_subsets(body.frame):
            if s.bits & ~t.bits == 0:
                assert table.values[s] <= table.values[t]


@settings(max_examples=200)
@given(partition_bodies())
def test_partition_focal_elements_pin_the_measures(body):
    for s, m in body.focal:
        assert belief(body, s) == m == plausibility(body, s)
