"""Belief, plausibility, duality, and exact mass recovery."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
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
from dsaudit import measures
from dsaudit.frames import FocalSet, enumerate_subsets
from dsaudit.measures import (
    MeasureTable,
    _packed_mobius,
    _packed_zeta,
    _subset_sums,
    _unpack,
)
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


@pytest.mark.parametrize(
    "labels, value", [(["a"], 0.5), (["a", "b", "c"], 1.0), (["a"], True)]
)
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
    table = measure_table(body, kind)
    view = table.values
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
    # The kept mapping does not stop a table from being pickled or copied.
    for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert copied == table and copied.values == view


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


# Bit lengths of the largest drawn entry: each packed field width (1, 2, 4
# and 8 bytes) occurs, and so do sums and entries past 63 and 64 bits.
_ENTRY_BITS = (3, 7, 12, 15, 24, 31, 48, 62, 63, 64, 80)


def _butterfly(table, size, sign):
    sums = list(table)
    _subset_sums(sums, size, sign)
    return sums


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_kernels_match_the_butterfly(data):
    size = data.draw(st.integers(1, 12), label="size")
    n = 1 << size
    frame = make_frame([f"e{i}" for i in range(size)])
    top = 1 << data.draw(st.sampled_from(_ENTRY_BITS), label="bits")
    entries = data.draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, top - 1), max_size=20),
        label="entries",
    )
    if entries and data.draw(st.booleans()):
        entries[data.draw(st.sampled_from(sorted(entries)))] = -data.draw(st.integers(1, top))
    masses = [0] * n
    for bits, m in entries.items():
        masses[bits] = m

    zeta = _butterfly(masses, size, 1)
    packed = _packed_zeta([(FocalSet(frame, b), m) for b, m in entries.items()], size)
    total = sum(entries.values())
    if min(entries.values(), default=0) < 0 or total.bit_length() > 64:
        assert packed is None
        event("zeta: butterfly")
    else:
        chunks, width = packed
        assert width == next(w for w in (1, 2, 4, 8) if total.bit_length() <= 8 * w)
        assert list(_unpack(chunks, size, width)) == zeta
        event(f"zeta: {width}-byte fields")

    # A belief table when the masses are nonnegative, perturbed at one entry
    # or not.  The field width comes from the entry the caller expects to be
    # the largest: the true one, or any other.
    table = zeta if min(masses) >= 0 else [abs(m) for m in masses]
    if data.draw(st.booleans()):
        # An index with every low bit set first goes wrong in a pass between
        # packed chunks, once the frame has more elements than a chunk.
        index = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            index = (index | 0xFF) & (n - 1)
        table[index] += data.draw(st.integers(-top, top))
    if data.draw(st.booleans()):
        expected_top = max(0, *table)
    else:
        expected_top = data.draw(st.integers(0, 2 * top))
    mobius = _butterfly(table, size, -1)
    guard_bits = expected_top.bit_length() + 1
    width = next((w for w in (1, 2, 4, 8) if guard_bits <= 8 * w), None)
    holds = width is not None and all(0 <= v < 1 << (8 * width - 1) for v in table)
    recovered = _packed_mobius(tuple(table), size, expected_top)
    if holds and min(mobius) >= 0:
        assert recovered == tuple(mobius)
        event(f"mobius: {width}-byte fields")
    else:
        assert recovered is None
        event("mobius: butterfly")


@pytest.mark.parametrize(
    "bits, width", [(8, 1), (16, 2), (32, 4), (64, 8), (65, None)]
)
def test_each_field_width_serves_a_table_whose_sum_fits_it(bits, width):
    frame = make_frame([f"e{i}" for i in range(5)])
    total = (1 << bits) - 1
    scaled = [(FocalSet(frame, 3), total // 3), (FocalSet(frame, 31), total - total // 3)]
    packed = _packed_zeta(scaled, 5)
    if width is None:
        assert packed is None
        return
    chunks, got = packed
    assert got == width
    masses = [0] * 32
    for s, m in scaled:
        masses[s.bits] = m
    zeta = _butterfly(masses, 5, 1)
    assert list(_unpack(chunks, 5, width)) == zeta
    # The guard bit makes the inversion of the same table one width wider,
    # except at 8 bytes, where a 64-bit bel(frame) leaves no room for it.
    assert _packed_mobius(tuple(zeta), 5, total) == (
        tuple(masses) if bits < 64 else None
    )


@pytest.mark.parametrize(
    "entry, why",
    [
        (99, "fits under the guard bit"),
        (200, "sets the guard bit of a 1-byte field"),
        (300, "needs a wider field than bel(frame) does"),
        (-1, "is negative"),
    ],
)
def test_packed_inversion_takes_only_entries_under_the_guard_bit(entry, why):
    # bel(frame) = 100 needs 7 bits, so the fields are 1 byte with a guard bit.
    table = (0, entry, 0, 100)
    expected = list(table)
    _subset_sums(expected, 2, -1)
    recovered = _packed_mobius(table, 2, 100)
    assert recovered == (tuple(expected) if entry == 99 else None), why


def test_a_mass_that_goes_negative_between_packed_chunks_is_named():
    # Focal sets whose low eight bits are all set: raising bel of the first
    # to 3/2 leaves every partial difference inside a chunk nonnegative, and
    # the mass of the second goes negative only in the pass over element 8.
    frame = make_frame([f"e{i}" for i in range(9)])
    body = make_body(frame, [(FocalSet(frame, 0xFF), "1/2"), (FocalSet(frame, 0x1FF), "1/2")])
    values = dict(measure_table(body, MeasureKind.BELIEF).values)
    values[FocalSet(frame, 0xFF)] = Fraction(3, 2)
    table = MeasureTable.from_values(frame, MeasureKind.BELIEF, values)
    negative = [(s, m) for s, m in reference_masses(table).items() if m < 0]
    assert negative == [(frame.universe(), Fraction(-1, 2))]
    with pytest.raises(InversionError) as exc_info:
        mass_from_belief(table)
    assert str(exc_info.value) == (
        f"recovered mass of {frame.universe()} is negative (-1/2); not a belief function"
    )
    assert exc_info.value.subset == frame.universe()


@st.composite
def wide_bodies(draw):
    """Bodies on 1-12 elements whose common denominator may pass 2**64."""
    size = draw(st.integers(1, 12))
    frame = make_frame([f"e{i}" for i in range(size)])
    count = draw(st.integers(1, min(12, (1 << size) - 1)))
    masks = draw(
        st.lists(st.integers(1, (1 << size) - 1), min_size=count, max_size=count, unique=True)
    )
    weights = draw(
        st.lists(
            st.integers(1, 1 << draw(st.sampled_from((6, 20, 40, 70, 100)))),
            min_size=count,
            max_size=count,
        )
    )
    scale = draw(st.lists(st.integers(1, 1 << 40), min_size=count, max_size=count))
    raw = [Fraction(w, d) for w, d in zip(weights, scale)]
    total = sum(raw)
    return make_body(frame, [(FocalSet(frame, b), m / total) for b, m in zip(masks, raw)])


@settings(max_examples=150, deadline=None)
@given(wide_bodies())
def test_wide_bodies_round_trip_through_belief(body):
    den = math.lcm(*(m.denominator for _, m in body.focal))
    event("den > 2**64" if den.bit_length() > 64 else "den <= 2**64")
    bel = measure_table(body, MeasureKind.BELIEF)
    assert mass_from_belief(bel) == body
    pl = measure_table(body, MeasureKind.PLAUSIBILITY)
    # pl(S) = 1 - bel(not S), and bel listed backwards lists bel(not S).
    assert bel.den == pl.den == den
    assert list(pl.ints) == [den - b for b in reversed(bel.ints)]


@settings(max_examples=200, deadline=None)
@given(bodies(), st.data())
def test_tables_with_negative_entries_name_the_lowest_negative_mass(body, data):
    values = dict(measure_table(body, MeasureKind.BELIEF).values)
    inner = [s for s in values if 0 < s.bits < (1 << body.frame.size) - 1]
    if not inner:
        return
    for s in data.draw(st.lists(st.sampled_from(inner), min_size=1, max_size=3, unique=True)):
        values[s] = data.draw(st.fractions(-2, 2, max_denominator=12))
    table = MeasureTable.from_values(body.frame, MeasureKind.BELIEF, values)
    if min(table.ints) < 0:
        event("negative entry")
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


def test_packed_path_alone_serves_a_small_denominator_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the plain butterfly ran")

    monkeypatch.setattr(measures, "_subset_sums", refuse)
    frame = make_frame([f"e{i}" for i in range(10)])
    masses = [(5, "1/6"), (700, "1/4"), (1023, "7/12")]
    body = make_body(frame, [(FocalSet(frame, bits), m) for bits, m in masses])
    bel = measure_table(body, MeasureKind.BELIEF)
    pl = measure_table(body, MeasureKind.PLAUSIBILITY)
    assert mass_from_belief(bel) == body
    for bits in (0, 5, 7, 700, 701, 1022, 1023):
        s = FocalSet(frame, bits)
        assert bel.values[s] == belief(body, s)
        assert pl.values[s] == plausibility(body, s)
