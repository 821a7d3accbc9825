"""Tests of the benchmark harness itself: python3 -m pytest bench"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

import pytest

from dsbench import gen, stats, trace, use_checkout_sources
from dsbench.oracle import CheckFailed, check_findings
from dsbench.runner import Tally
from dsbench.workloads import ItemResult

use_checkout_sources()


def test_generator_repeats_for_one_seed_and_differs_across_seeds():
    for make in (gen.audit_item, gen.mobius_item):
        first = [make(7, i).text for i in range(5)]
        assert first == [make(7, i).text for i in range(5)]
        assert first != [make(8, i).text for i in range(5)]
    assert [gen.audit_ladder_item(7, 5, i) for i in range(2)] == [
        gen.audit_ladder_item(7, 5, i) for i in range(2)
    ]


def test_generated_documents_are_valid_evidence():
    from dsaudit.documents import parse_document

    for index in range(len(gen.AUDIT_CYCLE)):
        item = gen.audit_item(3, index)
        doc = parse_document(item.text)
        assert doc.frame.size == item.frame_size
        for body in doc.bodies.values():
            assert all(m.denominator <= gen.MAX_DENOMINATOR for _, m in body.focal)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["audit", 0.0, 10.0, -1],
        ["bounds", 1.0, 5.0, 0],
        ["minimize", 1.5, 4.0, 1],
        ["bounds", 6.0, 9.0, 0],
        ["minimize", 6.5, 8.5, 3],
    ]
    own = trace.self_times(spans)
    assert own == pytest.approx({"audit": 3.0, "bounds": 2.5, "minimize": 4.5})
    assert sum(own.values()) == pytest.approx(10.0)


class _FakeWorkload:
    def __init__(self, canonical: str) -> None:
        self.canonical = canonical

    def run(self, item, probe):
        return ItemResult(0.001, "feasible", self.canonical, 1, True, 3)


def test_digest_check_rejects_one_changed_fraction():
    good = "kappa 1/8\n1 1/7 1/7 1/4 1/4 Violation"
    recorded = [hashlib.sha256(good.encode()).hexdigest()[:16]]
    item = gen.SweepJob(0, "readme")
    ok = Tally(recorded)
    ok.process(_FakeWorkload(good), item, None, 0)
    assert not ok.failures and ok.matched == 1
    bad = Tally(recorded)
    bad.process(_FakeWorkload(good.replace("1/7 1/7", "1/7 2/7")), item, None, 0)
    assert len(bad.failures) == 1 and "digest" in bad.failures[0]


def test_exact_check_rejects_one_changed_fraction():
    bodies = [{1: Fraction(1, 4), 6: Fraction(3, 4)}, {3: Fraction(1, 2), 4: Fraction(1, 2)}]
    combined = {1: Fraction(1, 7), 2: Fraction(3, 7), 4: Fraction(3, 7)}
    q, h = Fraction(1, 4), Fraction(1, 2)
    rows = [
        (1, Fraction(1, 7), Fraction(1, 7), q, q),
        (2, Fraction(3, 7), Fraction(3, 7), q, q),
        (4, Fraction(3, 7), Fraction(3, 7), h, h),
    ]
    check_findings(rows, 3, combined, bodies, True)
    rows[1] = (2, Fraction(3, 7), Fraction(4, 7), q, q)
    with pytest.raises(CheckFailed):
        check_findings(rows, 3, combined, bodies, True)


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "dsaudit" or name.startswith("dsaudit.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_trace_wrappers_cover_rebound_names_and_are_restored():
    from dsbench.workloads import load

    m = load()
    before = _bindings()
    original_belief = m.measures.belief
    with trace.installed() as tracer:
        for module, attr in [
            (m.consistency, "belief"), (m.sweeps, "audit"), (m.repro, "audit"), (m.cli, "run_audit"),
        ]:
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        assert m.consistency.belief is m.measures.belief is not original_belief
        m.consistency.audit(*_zadeh_like(m))
    assert tracer.calls["consistency.audit"] == 1 and tracer.calls["lp.minimize"] > 0
    assert _bindings() == before


def _zadeh_like(m):
    frame = m.sweeps.family_frame()
    a = m.evidence.make_body(frame, [(m.sweeps.subset(frame, ["a"]), "1/2"), (frame.universe(), "1/2")])
    b = m.evidence.make_body(frame, [(m.sweeps.subset(frame, ["b"]), "1/2"), (frame.universe(), "1/2")])
    return [a, b], None


def test_trace_restores_after_an_exception():
    from dsbench.workloads import load

    m = load()
    before = _bindings()
    with pytest.raises(RuntimeError):
        with trace.installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_weighted_percentile_gives_every_slot_the_same_weight():
    unweighted = [(float(v), 1.0) for v in range(1, 101)]
    assert stats.weighted_percentile(unweighted, 75) == 75
    assert stats.weighted_percentile(unweighted, 50) == 50
    tally = Tally([])
    for slot, seconds in [(0, 1.0), (0, 1.0), (0, 1.0), (1, 5.0)]:
        tally.process(_FakeSeconds(seconds), gen.SweepJob(slot, "x"), None)
    # Three visits of the cheap slot and one of the dear one: each slot
    # still weighs half, so the median is the cheap slot's time.
    assert stats.weighted_percentile(tally.weighted_latencies(), 50) == 1.0
    assert stats.weighted_percentile(tally.weighted_latencies(), 75) == 5.0
    assert tally.cycle_rate() == pytest.approx(2 / 6.0)


class _FakeSeconds:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def run(self, item, probe):
        return ItemResult(self.seconds, "feasible", "", 1, True, 3)


def test_classify_rules():
    parent = [100.0 + i for i in range(10)]
    assert stats.classify(parent, [80.0 + i for i in range(10)], "lower", 0.1)[0] == "improved"
    assert stats.classify(parent, [101.0 + i for i in range(10)], "lower", 0.1)[0] == "no worse"
    assert stats.classify(parent, [130.0 + i for i in range(10)], "lower", 0.1)[0] == "worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0]
    assert stats.classify(noisy, [100.0] * 5, "lower", 0.1)[0] == "unresolved"
