"""Dempster combination: worked cases, conflict accounting, fold behavior."""

import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsaudit import (
    EvidenceError,
    TotalConflictError,
    combine,
    combine_many,
    conflict,
    make_body,
    make_frame,
    subset,
    vacuous,
)
from dsaudit.combine import CombinationResult
from dsaudit.evidence import BodyOfEvidence
from dsaudit.frames import FocalSet
from strategies import bodies, body_pairs, body_triples, disjoint_support_pairs


@pytest.fixture
def abc():
    return make_frame(["a", "b", "c"])


@pytest.fixture
def partition_pair(abc):
    a = make_body(abc, [(subset(abc, ["a"]), "1/4"), (subset(abc, ["b", "c"]), "3/4")])
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    return a, b


@pytest.fixture
def quasi_pair(abc):
    a = make_body(
        abc,
        [
            (subset(abc, ["a"]), "1/4"),
            (subset(abc, ["b", "c"]), "1/2"),
            (abc.universe(), "1/4"),
        ],
    )
    b = make_body(abc, [(subset(abc, ["a", "b"]), "1/2"), (subset(abc, ["c"]), "1/2")])
    return a, b


def test_conflict_partition_pair(partition_pair):
    assert conflict(*partition_pair) == Fraction(1, 8)


def test_conflict_identical_vacuous(abc):
    assert conflict(vacuous(abc), vacuous(abc)) == 0


def test_conflict_zadeh_pair(abc):
    a = make_body(abc, [(subset(abc, ["a"]), "99/100"), (subset(abc, ["c"]), "1/100")])
    b = make_body(abc, [(subset(abc, ["b"]), "99/100"), (subset(abc, ["c"]), "1/100")])
    # three conflicting cells: a/b, a/c, c/b
    assert conflict(a, b) == Fraction(9999, 10000)


def test_combine_partition_pair(partition_pair, abc):
    result = combine(*partition_pair)
    assert result.kappa == Fraction(1, 8)
    masses = {str(s): m for s, m in result.combined.focal}
    assert masses == {"{a}": Fraction(1, 7), "{b}": Fraction(3, 7), "{c}": Fraction(3, 7)}


def test_combine_quasi_pair(quasi_pair, abc):
    result = combine(*quasi_pair)
    masses = {str(s): m for s, m in result.combined.focal}
    assert masses == {
        "{a}": Fraction(1, 7),
        "{b}": Fraction(2, 7),
        "{c}": Fraction(3, 7),
        "{a,b}": Fraction(1, 7),
    }


def test_combine_pools_equal_intersections(quasi_pair, abc):
    # {b,c} meets {c} and the whole frame meets {c}: both land on {c}.
    result = combine(*quasi_pair)
    c = subset(abc, ["c"])
    assert len(result.provenance[c]) == 2


def test_combine_total_conflict(abc):
    frame = make_frame(["a", "b"])
    a = make_body(frame, [(subset(frame, ["a"]), 1)])
    b = make_body(frame, [(subset(frame, ["b"]), 1)])
    with pytest.raises(TotalConflictError):
        combine(a, b)


def test_combine_many_single_body(partition_pair):
    body = partition_pair[0]
    result = combine_many([body])
    assert result.combined == body
    assert result.kappa == 0
    assert result.steps == ()
    assert result.operands == ()
    assert result.provenance == {} and result.conflict_pairs == ()


def test_a_result_keeps_its_operands_and_no_pair_lists(partition_pair):
    # The pair loop only sums; provenance is walked from the operands.
    result = combine(*partition_pair)
    assert [f.name for f in fields(result)] == ["combined", "kappa", "operands", "steps"]
    assert result.operands == partition_pair


def test_combine_many_with_vacuous(partition_pair, abc):
    body = partition_pair[0]
    assert combine_many([body, vacuous(abc)]).combined == body


def test_combine_many_two_equals_combine(partition_pair):
    assert combine_many(list(partition_pair)) == combine(*partition_pair)


def test_combine_many_reports_failing_step(abc):
    frame = make_frame(["a", "b"])
    a = make_body(frame, [(subset(frame, ["a"]), 1)])
    b = make_body(frame, [(subset(frame, ["b"]), 1)])
    with pytest.raises(TotalConflictError) as exc_info:
        combine_many([vacuous(frame), a, b])
    assert exc_info.value.step == 2


def test_combine_many_requires_a_body():
    with pytest.raises(ValueError):
        combine_many([])


def test_provenance_and_conflict_account_for_all_mass(quasi_pair):
    a, b = quasi_pair
    result = combine(a, b)
    bucket_total = Fraction(0)
    for s, pairs in result.provenance.items():
        for i, j in pairs:
            bucket_total += a.focal[i][1] * b.focal[j][1]
    assert result.kappa + bucket_total == 1
    n_intersections = sum(len(p) for p in result.provenance.values())
    assert n_intersections + len(result.conflict_pairs) == len(a.focal) * len(b.focal)


@settings(max_examples=200)
@given(body_pairs())
def test_combination_is_commutative(pair):
    a, b = pair
    try:
        left = combine(a, b)
    except TotalConflictError:
        with pytest.raises(TotalConflictError):
            combine(b, a)
        return
    right = combine(b, a)
    assert left.combined == right.combined
    assert left.kappa == right.kappa


@settings(max_examples=200)
@given(bodies())
def test_vacuous_is_neutral(body):
    result = combine(body, vacuous(body.frame))
    assert result.combined == body
    assert result.kappa == 0


@settings(max_examples=200)
@given(body_pairs())
def test_combined_masses_sum_to_one(pair):
    try:
        result = combine(*pair)
    except TotalConflictError:
        return
    assert sum(m for _, m in result.combined.focal) == 1
    assert 0 <= result.kappa < 1


@settings(max_examples=200)
@given(disjoint_support_pairs())
def test_disjoint_supports_conflict_totally(pair):
    a, b = pair
    assert conflict(a, b) == 1
    with pytest.raises(TotalConflictError):
        combine(a, b)


@settings(max_examples=200)
@given(body_pairs())
def test_total_conflict_iff_disjoint_supports(pair):
    a, b = pair
    disjoint = all(s.bits & t.bits == 0 for s in a.focal_sets() for t in b.focal_sets())
    assert (conflict(a, b) == 1) == disjoint


@settings(max_examples=100)
@given(body_triples())
def test_fold_order_does_not_change_masses(triple):
    a, b, c = triple
    try:
        first = combine_many([a, b, c]).combined
    except TotalConflictError:
        return
    try:
        second = combine_many([c, a, b]).combined
    except TotalConflictError:
        # a different fold order can only fail if some pairwise kappa hits 1,
        # which cannot happen when the full fold succeeded
        pytest.fail("fold order changed combinability")
    assert first == second


def test_zero_conflict_means_no_renormalization(abc):
    a = make_body(abc, [(subset(abc, ["a", "b"]), "1/3"), (abc.universe(), "2/3")])
    b = make_body(abc, [(subset(abc, ["b", "c"]), "1/2"), (abc.universe(), "1/2")])
    result = combine(a, b)
    assert result.kappa == 0
    assert result.combined.mass_of(subset(abc, ["b"])) == Fraction(1, 6)


def test_combine_refuses_masses_that_do_not_sum_to_one(abc):
    # Built past make_body, the body checks its own sum, so combine is never
    # reached with it.
    with pytest.raises(EvidenceError, match="sum to exactly 1, got 3/4") as exc_info:
        combine(BodyOfEvidence(abc, 4, ((1, 2), (2, 1))), vacuous(abc))
    assert exc_info.traceback[-1].name == "__post_init__"


def _reference_combine(a, b):
    """Dempster's rule as a Fraction pair loop, validated through make_body:
    one step of combined body, kappa, provenance and conflict pairs."""
    frame = a.frame
    kappa = Fraction(0)
    buckets = {}
    provenance = {}
    conflicts = []
    for i, (s, ms) in enumerate(a.focal):
        for j, (t, mt) in enumerate(b.focal):
            inter = s.bits & t.bits
            if inter == 0:
                kappa += ms * mt
                conflicts.append((s, t))
            else:
                buckets[inter] = buckets.get(inter, Fraction(0)) + ms * mt
                provenance.setdefault(inter, []).append((i, j))
    if kappa == 1:
        raise TotalConflictError(
            "total conflict (kappa = 1): the bodies' supports are disjoint, "
            "so no decision set can be formed"
        )
    combined = make_body(
        frame,
        [(FocalSet(frame, bits), m / (1 - kappa)) for bits, m in sorted(buckets.items())],
    )
    prov = {FocalSet(frame, bits): tuple(p) for bits, p in sorted(provenance.items())}
    return [(combined, kappa, prov, tuple(conflicts))]


def _outcome(rule, *args):
    """Every step of a combination as its body's focal list, kappa,
    provenance and conflict pairs, or the error it raised."""
    try:
        result = rule(*args)
    except TotalConflictError as exc:
        return ("total conflict", str(exc), exc.step)
    if isinstance(result, CombinationResult):
        result = [
            (r.combined, r.kappa, r.provenance, r.conflict_pairs)
            for r in result.steps or (result,)
        ]
    return [
        (combined.focal, kappa, list(prov.items()), pairs)
        for combined, kappa, prov, pairs in result
    ]


def _reference_fold(bodies):
    acc = bodies[0]
    steps = []
    for k, body in enumerate(bodies[1:], start=1):
        try:
            steps += _reference_combine(acc, body)
        except TotalConflictError:
            raise TotalConflictError(
                f"total conflict while combining body {k + 1} of {len(bodies)}", step=k
            ) from None
        acc = steps[-1][0]
    return steps


# Mixed denominators, among them three large primes, so that common
# denominators and their products grow large.
_DENOMINATORS = (2, 3, 64, 997, 1009, 1013)


@st.composite
def _prime_bodies(draw):
    """Two to four bodies on one frame of 1-12 elements, with masses over
    mixed prime denominators; each body's focal sets lie in a drawn region,
    and regions drawn from opposite halves make the supports disjoint."""
    size = draw(st.integers(1, 12))
    frame = make_frame([f"e{i}" for i in range(size)])
    full = (1 << size) - 1
    low = (1 << (size // 2)) - 1
    regions = [full, low, full ^ low] if low else [full]
    result = []
    for _ in range(draw(st.integers(2, 4))):
        region = draw(st.sampled_from(regions + [draw(st.integers(1, full))]))
        weights = {}
        for _ in range(draw(st.integers(1, 8))):
            bits = draw(st.integers(1, full)) & region or region
            den = draw(st.sampled_from(_DENOMINATORS))
            weights[bits] = weights.get(bits, 0) + Fraction(draw(st.integers(1, den)), den)
        total = sum(weights.values())
        result.append(
            make_body(frame, [(FocalSet(frame, b), w / total) for b, w in weights.items()])
        )
    return result


@settings(max_examples=300, deadline=None)
@given(_prime_bodies())
def test_integer_rule_matches_the_fraction_pair_loop(bodies):
    for a, b in zip(bodies, bodies[1:]):
        want = _outcome(_reference_combine, a, b)
        assert _outcome(combine, a, b) == want
        if want[0] == "total conflict":
            assert conflict(a, b) == 1
        else:
            assert conflict(a, b) == want[0][1]
            combined = combine(a, b).combined
            assert make_body(combined.frame, combined.focal) == combined
    assert _outcome(combine_many, bodies) == _outcome(_reference_fold, bodies)


@settings(max_examples=100, deadline=None)
@given(body_triples())
def test_bodies_and_results_survive_pickling_and_copying(bodies):
    try:
        result = combine_many(bodies)
    except TotalConflictError:
        return
    results = (result, *result.steps)
    for read in (False, True):
        if read:
            for r in results:
                r.combined.focal, r.provenance, r.conflict_pairs
            for body in bodies:
                body.focal
        for body in (*bodies, *(r.combined for r in results)):
            for copied in (pickle.loads(pickle.dumps(body)), copy.deepcopy(body)):
                assert copied == body and hash(copied) == hash(body)
                assert copied.focal == body.focal
        for r in results:
            for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
                assert copied == r and copied.steps == r.steps
                assert copied.provenance == r.provenance
                assert copied.conflict_pairs == r.conflict_pairs
