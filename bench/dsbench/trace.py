"""Tracing from outside: wrap dsaudit's public functions, keep spans in memory.

A span is [name, start, end, parent index].  The wrappers are installed on
every dsaudit module that holds a reference to the wrapped function, so a
name re-bound by ``from .x import f`` (``dsaudit.consistency.belief``,
``dsaudit.cli.run_audit``, ...) is traced too.  The hot leaf functions
``belief`` and ``plausibility`` are only counted: a span per call would
weigh on the callers' self time.  Outputs of a few functions are kept by
reference and summarised after the traced pass, so the summaries cost the
traced functions nothing.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator

SPANNED = (
    "documents.parse_document",
    "documents.load_document",
    "evidence.make_body",
    "combine.combine",
    "combine.combine_many",
    "measures.measure_table",
    "measures.mass_from_belief",
    "consistency.build_constraints",
    "consistency.probability_bounds",
    "consistency.audit",
    "lp.minimize",
    "lp.maximize",
    "sweeps.sweep",
    "sweeps.sweep_to_csv",
    "repro.run_reproduction",
)
COUNTED = ("measures.belief", "measures.plausibility")
OBSERVED = (
    "documents.parse_document",
    "combine.combine",
    "consistency.build_constraints",
    "consistency.probability_bounds",
    "lp.minimize",
    "sweeps.sweep",
)
# Layers of the program, in the order their shares are reported.
MODULES = ("lp", "consistency", "measures", "combine", "documents", "evidence", "sweeps", "repro", "cli")

class NullProbe:
    """Stand-in for a tracer in untraced runs: every hook is a no-op."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    @contextmanager
    def paused(self) -> Iterator[None]:
        yield


class Tracer:
    """Spans, call counts and kept outputs of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.kept: list[tuple] = []
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._paused:
            yield
            return
        self.calls[name] += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made here (the benchmark's own checks) are not traced."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _spanned(self, name: str, fn):
        keep = name in OBSERVED

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.kept.append((name, fn, args, kwargs, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self._paused:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a dsaudit module binds it."""
        wrappers = {}
        for name in SPANNED + COUNTED:
            module, attr = name.split(".")
            fn = getattr(sys.modules[f"dsaudit.{module}"], attr)
            make = self._spanned if name in SPANNED else self._counted
            wrappers[id(fn)] = (fn, make(name, fn))
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "dsaudit" and not mod_name.startswith("dsaudit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patches.append((module, attr, value))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


@contextmanager
def installed() -> Iterator[Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += end - start - child[i]
    return dict(totals)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values if v is not None), default=0)


def _tableau_cols(num_vars: int, constraints) -> int:
    """Width of the simplex tableau lp.minimize builds for these constraints:
    variables, one slack per inequality, one artificial per >= or == row
    (after rows with a negative right-hand side are negated)."""
    slack = artificial = 0
    for con in constraints:
        sense = con.sense.name
        if con.rhs < 0:
            sense = {"LE": "GE", "GE": "LE"}.get(sense, sense)
        slack += sense != "EQ"
        artificial += sense != "LE"
    return num_vars + slack + artificial


def layer_metrics(tracer: Tracer, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass whose timed regions took traced_s."""
    own = self_times(tracer.spans)
    calls = tracer.calls
    m: dict[str, float] = {}
    for name in SPANNED + ("cli.main",):
        m[f"{name}.self_s"] = own.get(name, 0.0)
    for name in SPANNED + COUNTED:
        m[f"{name}.calls"] = calls[name]

    rows_max = cols_max = den_bits = constraints = builds = 0
    infeasible = pairs = focal_out = points = doc_bytes = 0
    for name, fn, pos, kw, result in tracer.kept:
        args = inspect.signature(fn).bind(*pos, **kw).arguments
        if name == "lp.minimize":
            rows_max = max(rows_max, len(args["constraints"]))
            cols_max = max(cols_max, _tableau_cols(args["num_vars"], args["constraints"]))
            if result.value is not None:
                den_bits = max(den_bits, _den_bits([result.value, *result.point]))
        elif name == "consistency.build_constraints":
            builds += 1
            constraints += len(result.constraints)
        elif name == "consistency.probability_bounds":
            infeasible += not result.feasible
        elif name == "combine.combine":
            pairs += len(args["a"].focal) * len(args["b"].focal)
            focal_out += len(result.combined.focal)
            den_bits = max(den_bits, _den_bits(mass for _, mass in result.combined.focal))
        elif name == "sweeps.sweep":
            points += len(result.points)
        elif name == "documents.parse_document":
            doc_bytes += len(args["text"].encode())

    bounds = calls["consistency.probability_bounds"]
    m["lp.rows_max"] = rows_max
    m["lp.cols_max"] = cols_max
    m["lp.solves_per_target"] = calls["lp.minimize"] / bounds if bounds else 0.0
    m["consistency.constraints_mean"] = constraints / builds if builds else 0.0
    m["consistency.infeasible_ratio"] = infeasible / bounds if bounds else 0.0
    m["combine.pairs"] = pairs
    m["combine.focal_out_mean"] = focal_out / calls["combine.combine"] if calls["combine.combine"] else 0.0
    m["sweeps.points"] = points
    m["documents.bytes"] = doc_bytes
    m["fraction.max_den_bits"] = den_bits

    by_module: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        by_module[name.split(".")[0]] += seconds
    for module in MODULES:
        m[f"share.{module}"] = by_module[module] / traced_s if traced_s else 0.0
    m["share.other"] = 1.0 - sum(m[f"share.{module}"] for module in MODULES)
    return m
