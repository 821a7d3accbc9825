"""Metamorphic relations of audits and bounds, at sizes no oracle reaches.

The vertex oracle stops at a few variables and the flow oracle at two
bodies, so these tests check two- to four-body systems on 6-12 elements by
exact relations instead.  Each side of a relation is a different LP, with
its own rows, columns and pivot path, and the answers must still be equal:

- permuting the bodies, or adding a vacuous body, leaves the combined body
  and every finding equal (Dempster's rule is commutative and associative,
  and the vacuous body is its identity).  `kappa` is not compared: it is the
  conflict of the last fold step, which depends on the order;
- duplicating a body leaves the polytope, so every bound, equal;
- relabelling the elements permutes the columns and marginal rows, and the
  findings are equal under the relabelling;
- on a feasible system, [lo(S), hi(S)] = [1 - hi(S^c), 1 - lo(S^c)], both
  sides solved directly.

Every test also counts the pivots whose entry differs from the tableau's
scale (`lp._pivot`'s `p != d` branch, which only non-unimodular systems of
three or more bodies reach) and asserts that its run took that branch.
Random draws reach it in about one example in ten, so each test also runs
`_SCALED`, a fixed three-body system whose singleton bounds take it.
"""

import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dsaudit import (
    TotalConflictError,
    audit,
    build_constraints,
    make_body,
    make_frame,
    probability_bounds,
    subset,
    vacuous,
)
from dsaudit import lp
from dsaudit.frames import FocalSet
from strategies import exact_masses

_BUDGET = settings(max_examples=40, deadline=None)

_ABCDEF = make_frame(list("abcdef"))
_SCALED = [
    make_body(_ABCDEF, [(subset(_ABCDEF, list(s)), m) for s, m in pairs])
    for pairs in (
        [("acd", "1/2"), ("bcef", "1/2")],
        [("adf", "7/12"), ("bce", "5/12")],
        [("abcde", "11/12"), ("abcdef", "1/12")],
    )
]


def _masks(n):
    """Nonempty subsets of n elements, each element in or out by a coin:
    `st.integers` would favour the small and the extreme masks."""
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    return bits.map(lambda b: sum(1 << w for w, x in enumerate(b) if x)).filter(bool)


@st.composite
def evidence(draw, consistent=None):
    """2-4 bodies on 6-12 elements, each with 1-4 focal sets drawn.

    A consistent draw (drawn itself when `consistent` is None) builds every
    body around one distribution P: each element's probability goes to one
    focal set that contains it, and an element no focal set contains is
    added to one.  So P is an allocation of every body and the system is
    feasible.  Otherwise masks and masses are free, and many systems are
    infeasible.
    """
    n = draw(st.sampled_from(range(6, 13)))
    frame = make_frame([f"e{i}" for i in range(n)])
    if consistent is None:
        consistent = draw(st.booleans())
    p = draw(exact_masses(n)) if consistent else None
    out = []
    for _ in range(draw(st.sampled_from((2, 3, 4)))):
        masks = draw(st.lists(_masks(n), min_size=1, max_size=4, unique=True))
        if consistent:
            owner = []
            for w in range(n):
                having = [j for j, m in enumerate(masks) if m >> w & 1]
                j = draw(st.sampled_from(having or range(len(masks))))
                masks[j] |= 1 << w
                owner.append(j)
            mass = Counter()
            for w, j in enumerate(owner):
                mass[masks[j]] += p[w]
            pairs = list(mass.items())
        else:
            pairs = list(zip(masks, draw(exact_masses(len(masks)))))
        out.append(make_body(frame, [(FocalSet(frame, b), m) for b, m in pairs]))
    event("consistent" if consistent else "free")
    return out


@contextmanager
def _scaled_pivots():
    """Count `lp._pivot` calls by whether the pivot entry differs from the
    scale d; the counter's True entry is the `p != d` branch."""
    counts = Counter()
    pivot = lp._pivot

    def counted(rows, basis, r, c, d):
        counts[rows[r][c] != d] += 1
        return pivot(rows, basis, r, c, d)

    with mock.patch.object(lp, "_pivot", counted):
        yield counts


def _audit(bodies):
    """The audit of the bodies, or None under total conflict."""
    try:
        report = audit(bodies)
    except TotalConflictError:
        event("total conflict")
        return None
    event("feasible" if report.feasible else "infeasible")
    return report


def _targets(frame, rng):
    """Every singleton and up to four drawn subsets, which may be the empty
    set or the frame."""
    drawn = [rng.randrange(1 << frame.size) for _ in range(rng.randint(0, 4))]
    bits = sorted({1 << w for w in range(frame.size)}.union(drawn))
    return [FocalSet(frame, b) for b in bits]


def _relabel(body, perm):
    """The body with element w renamed perm[w]."""
    frame, den = body.frame, body.den
    moved = [(_move(bits, perm), Fraction(m, den)) for bits, m in body.masses]
    return make_body(frame, [(FocalSet(frame, b), m) for b, m in moved])


def _move(bits, perm):
    return sum(1 << perm[w] for w in range(len(perm)) if bits >> w & 1)


@_BUDGET
@given(evidence(), st.randoms(use_true_random=False))
@example(_SCALED, random.Random(0))
def _reordered_audits_agree(bodies, rng):
    base = _audit(bodies)
    at = rng.randint(0, len(bodies))
    padded = [*bodies[:at], vacuous(bodies[0].frame), *bodies[at:]]
    for variant in (rng.sample(bodies, len(bodies)), padded):
        other = _audit(variant)
        if base is None:
            assert other is None
            continue
        assert other.combined == base.combined
        assert other.findings == base.findings


def test_body_order_and_a_vacuous_body_leave_the_audit_unchanged():
    with _scaled_pivots() as pivots:
        _reordered_audits_agree()
    assert pivots[True]


@_BUDGET
@given(evidence(), st.randoms(use_true_random=False))
@example(_SCALED, random.Random(0))
def _duplicated_bounds_agree(bodies, rng):
    at = rng.randint(0, len(bodies))
    doubled = [*bodies[:at], rng.choice(bodies), *bodies[at:]]
    system, other = build_constraints(bodies), build_constraints(doubled)
    event("feasible" if system.feasible else "infeasible")
    assert other.feasible == system.feasible
    for target in _targets(bodies[0].frame, rng):
        assert probability_bounds(other, target) == probability_bounds(system, target)


def test_a_duplicated_body_leaves_every_bound_unchanged():
    with _scaled_pivots() as pivots:
        _duplicated_bounds_agree()
    assert pivots[True]


@_BUDGET
@given(evidence(), st.randoms(use_true_random=False))
@example(_SCALED, random.Random(0))
def _relabelled_audits_agree(bodies, rng):
    perm = rng.sample(range(bodies[0].frame.size), bodies[0].frame.size)
    base, other = _audit(bodies), _audit([_relabel(b, perm) for b in bodies])
    if base is None:
        assert other is None
        return
    assert other.kappa == base.kappa
    assert other.combined == _relabel(base.combined, perm)

    def fields(f):
        return f.ds_lower, f.ds_upper, f.prob.lower, f.prob.upper, f.verdict

    moved = {_move(f.subset.bits, perm): fields(f) for f in base.findings}
    assert {f.subset.bits: fields(f) for f in other.findings} == moved


def test_relabelling_the_elements_relabels_the_findings():
    with _scaled_pivots() as pivots:
        _relabelled_audits_agree()
    assert pivots[True]


@_BUDGET
@given(evidence(consistent=True), st.randoms(use_true_random=False))
@example(_SCALED, random.Random(0))
def _complement_bounds_agree(bodies, rng):
    frame = bodies[0].frame
    full = (1 << frame.size) - 1
    system = build_constraints(bodies)
    assert system.feasible
    # The complement is bounded on a fresh copy of the system, whose memo
    # has not kept it from the target's answer.
    for target in _targets(frame, rng):
        inside = probability_bounds(system, target)
        outside = probability_bounds(replace(system), FocalSet(frame, full ^ target.bits))
        assert (inside.lower, inside.upper) == (1 - outside.upper, 1 - outside.lower)


def test_direct_bounds_of_complements_are_complementary():
    with _scaled_pivots() as pivots:
        _complement_bounds_agree()
    assert pivots[True]
