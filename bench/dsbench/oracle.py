"""Independent exact reference computations for the output checks.

These work on plain ``{bitmask: Fraction}`` dicts and share no code with
dsaudit, so a check that compares against them is a second route to the
same exact answer.
"""

from __future__ import annotations

from fractions import Fraction

Masses = dict[int, Fraction]


class CheckFailed(AssertionError):
    """An output of dsaudit differs from what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def masses_of(body) -> Masses:
    """A dsaudit body as a bitmask -> mass dict."""
    return {s.bits: m for s, m in body.focal}


def bel(masses: Masses, bits: int) -> Fraction:
    return sum((m for t, m in masses.items() if t & ~bits == 0), Fraction(0))


def pl(masses: Masses, bits: int) -> Fraction:
    return sum((m for t, m in masses.items() if t & bits), Fraction(0))


def dempster(a: Masses, b: Masses) -> tuple[Masses, Fraction]:
    """Dempster's rule; returns (combined, kappa), combined empty if kappa = 1."""
    pooled: Masses = {}
    kappa = Fraction(0)
    for s, ms in a.items():
        for t, mt in b.items():
            if s & t:
                pooled[s & t] = pooled.get(s & t, Fraction(0)) + ms * mt
            else:
                kappa += ms * mt
    if kappa == 1:
        return {}, kappa
    return {s: m / (1 - kappa) for s, m in pooled.items()}, kappa


def fold(bodies: list[Masses]) -> tuple[Masses, Fraction]:
    """Left fold of Dempster's rule; the kappa is that of the last step.

    Stops with an empty body and kappa 1 at the first total conflict.
    """
    acc, kappa = bodies[0], Fraction(0)
    for body in bodies[1:]:
        acc, kappa = dempster(acc, body)
        if not acc:
            break
    return acc, kappa


def partition_cells(x: Fraction, xbar: Fraction, y: Fraction) -> tuple[Masses, Fraction]:
    """Closed-form combined masses and kappa of the two paper families.

    Frame {a, b, c} as bits 1, 2, 4.  A = {a}: x, {b,c}: xbar, omega: rest;
    B = {a,b}: y, {c}: 1-y.  The partition family is the case xbar = 1 - x.
    """
    kappa = x * (1 - y)
    if kappa == 1:
        return {}, kappa
    d = 1 - kappa
    cells = {1: x * y / d, 2: xbar * y / d, 4: (1 - x) * (1 - y) / d, 3: (1 - x - xbar) * y / d}
    return {s: m for s, m in cells.items() if m != 0}, kappa


def family_bodies(x: Fraction, xbar: Fraction, y: Fraction) -> list[Masses]:
    a = {1: x, 6: xbar, 7: 1 - x - xbar}
    b = {3: y, 4: 1 - y}
    return [{s: m for s, m in body.items() if m != 0} for body in (a, b)]


def check_findings(
    rows, frame_size: int, combined: Masses, bodies: list[Masses], feasible: bool
) -> None:
    """Check audit rows against reference DS intervals and body bounds.

    ``rows`` holds (bits, ds_lower, ds_upper, p_lower, p_upper) per target.
    Targets must be the singletons plus the combined focal sets, ascending.
    Each DS interval must be the combined body's [bel, pl]; each feasible
    probability interval must lie inside every input body's [bel, pl].
    """
    targets = sorted({1 << i for i in range(frame_size)} | set(combined))
    require([r[0] for r in rows] == targets, f"audit targets {[r[0] for r in rows]} != {targets}")
    for bits, ds_lo, ds_hi, p_lo, p_hi in rows:
        want = (bel(combined, bits), pl(combined, bits))
        require((ds_lo, ds_hi) == want, f"DS interval of {bits:b} is {ds_lo}..{ds_hi}, want {want}")
        if not feasible:
            require(p_lo is None and p_hi is None, f"infeasible system gave bounds for {bits:b}")
            continue
        require(p_lo is not None and p_hi is not None and p_lo <= p_hi, f"bad bounds {p_lo}..{p_hi}")
        for body in bodies:
            require(
                bel(body, bits) <= p_lo and p_hi <= pl(body, bits),
                f"P({bits:b}) in [{p_lo}, {p_hi}] leaves a body's [bel, pl]",
            )
