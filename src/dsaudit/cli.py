"""Command-line interface.

Subcommands: combine, measures, audit, sweep, paper-repro.  All numeric
output is exact fraction strings.  Exit codes: 0 ok/consistent, 2 input
error, 3 total conflict, 4 inconsistency detected (an audit violation, a
`measures --invert` round trip that does not recover the masses, or a
`paper-repro` mismatch), 5 infeasible constraints.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from typing import NoReturn

import click

from .combine import TotalConflictError, combine_many
from .consistency import ConsistencyReport, Verdict, audit as run_audit
from .documents import DocumentError, EvidenceDocument, load_document
from .evidence import BodyOfEvidence, EvidenceError
from .frames import FocalSet, Frame, FrameError, _shown, enumerate_subsets, subset
from .measures import MeasureKind, belief, mass_from_belief, measure_table, plausibility
from .repro import run_reproduction
from .sweeps import DEFAULT_XBAR_SLICES, MAX_SWEEP_POINTS, Family, sweep as run_sweep, sweep_to_csv

EXIT_INPUT_ERROR = 2
EXIT_TOTAL_CONFLICT = 3
EXIT_INCONSISTENT = 4
EXIT_INFEASIBLE = 5

# `measures --all` and `--invert` tabulate all 2^n subsets of the frame.
MAX_TABLE_ELEMENTS = 16

_FORMATS = click.Choice(["table", "csv", "json"])

# The families `sweep` takes, by their command-line names.
_FAMILIES = {"partition-xy": Family.PARTITION_XY, "quasi-x-xbar-y": Family.QUASI_X_XBAR_Y}


def _write(text: str, stream: str = "stdout") -> None:
    """Write ``text`` and a newline, in one write, to the ``sys.stdout`` (or
    ``sys.stderr``) of this moment.

    `click.echo` with no file caches the stream it looks up, and its cache
    holds each stream, with an in-process caller's captured output, alive
    until the process exits; a stream passed in enters no cache.  Unless
    the stream already escapes what it cannot encode, click writes UTF-8 to
    its bytes, so any label prints under any locale.
    """
    click.echo(text, file=click.get_text_stream(stream, errors="backslashreplace"))


def _fail(code: int, message: str) -> NoReturn:
    _write(f"error: {message}", "stderr")
    sys.exit(code)


def _load(path: str) -> EvidenceDocument:
    try:
        return load_document(path)
    except DocumentError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


def _pick_bodies(
    doc: EvidenceDocument, names: tuple[str, ...], path: str
) -> list[BodyOfEvidence]:
    for name in names:
        if name not in doc.bodies:
            known = ", ".join(map(_shown, doc.bodies))
            _fail(EXIT_INPUT_ERROR, f"{path}: no body named {_shown(name)} (available: {known})")
    return [doc.bodies[name] for name in names]


def _parse_subset(frame: Frame, token: str) -> FocalSet:
    token = token.strip()
    if token.startswith("{") and token.endswith("}"):
        token = token[1:-1]
    if token in ("", "-"):
        return frame.empty()
    return subset(frame, [part.strip() for part in token.split(",")])


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _render(rows: list[list[str]], header: list[str], fmt: str, json_key: str) -> str:
    """The rows in ``fmt``, without a final newline."""
    if fmt == "table":
        return _table(rows, header)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().removesuffix("\n")
    return json.dumps({json_key: [dict(zip(header, r)) for r in rows]}, indent=2)


@click.group()
@click.version_option()
def main() -> None:
    """Exact Dempster-Shafer combination and probability auditing."""


@main.command("combine")
@click.option("--input", "-i", "path", required=True, help="Evidence JSON file.")
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@click.argument("body_names", nargs=-1, required=True)
def cmd_combine(path: str, fmt: str, body_names: tuple[str, ...]) -> None:
    """Combine the named bodies and print the result."""
    doc = _load(path)
    bodies = _pick_bodies(doc, body_names, path)
    try:
        result = combine_many(bodies)
    except TotalConflictError as exc:
        _fail(
            EXIT_TOTAL_CONFLICT,
            f"{exc} (the bodies' supports share no outcome, so no decision set exists)",
        )
    kappa = str(result.kappa)
    rows = [[str(s), str(m), kappa] for s, m in result.combined.focal]
    text = _render(rows, ["element", "mass", "kappa"], fmt, "combined")
    if fmt == "table" and result.conflict_pairs:
        pairs = ", ".join(f"({s}, {t})" for s, t in result.conflict_pairs)
        text += f"\nconflict pairs: {pairs}"
    _write(text)


@main.command("measures")
@click.option("--input", "-i", "path", required=True, help="Evidence JSON file.")
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@click.option(
    "--all",
    "show_all",
    is_flag=True,
    help=f"Every subset of the frame (at most {MAX_TABLE_ELEMENTS} elements).",
)
@click.option(
    "--invert",
    is_flag=True,
    help="Recover masses from belief and verify the round trip; adds the "
    "check to --all or to listed subsets "
    f"(at most {MAX_TABLE_ELEMENTS} elements).",
)
@click.argument("body_name")
@click.argument("subsets", nargs=-1)
def cmd_measures(
    path: str, fmt: str, show_all: bool, invert: bool, body_name: str, subsets: tuple[str, ...]
) -> None:
    """Belief and plausibility of subsets (comma-joined labels, '-' for empty)."""
    doc = _load(path)
    body = _pick_bodies(doc, (body_name,), path)[0]
    if (show_all or invert) and doc.frame.size > MAX_TABLE_ELEMENTS:
        _fail(
            EXIT_INPUT_ERROR,
            f"--all and --invert tabulate every subset of the frame; it has "
            f"{doc.frame.size} elements, and the limit is {MAX_TABLE_ELEMENTS}",
        )
    if show_all or invert:
        bel = measure_table(body, MeasureKind.BELIEF)
    if show_all:
        pl = measure_table(body, MeasureKind.PLAUSIBILITY)
        den = bel.den
        rows = [
            [str(s), str(Fraction(b, den)), str(Fraction(p, den))]
            for s, b, p in zip(enumerate_subsets(doc.frame), bel.ints, pl.ints)
        ]
    else:
        if not subsets:
            _fail(
                EXIT_INPUT_ERROR,
                "pass subsets as arguments or use --all; "
                "--invert adds the round-trip check to either",
            )
        try:
            targets = [_parse_subset(doc.frame, tok) for tok in subsets]
        except FrameError as exc:
            _fail(EXIT_INPUT_ERROR, str(exc))
        rows = [
            [str(s), str(belief(body, s)), str(plausibility(body, s))] for s in targets
        ]
    text = _render(rows, ["subset", "belief", "plausibility"], fmt, "measures")
    if invert:
        recovered = mass_from_belief(bel)
        if recovered != body:
            _write(text)
            _fail(EXIT_INCONSISTENT, f"mass recovery mismatch: {recovered}")
        if fmt == "table":
            text += "\nmass recovery from belief: OK (round-trip exact)"
    _write(text)


def _render_audit(report: ConsistencyReport, fmt: str) -> str:
    kappa = str(report.kappa)
    rows = []
    for f in report.findings:
        rows.append(
            [
                str(f.subset),
                str(f.ds_lower),
                str(f.ds_upper),
                "" if f.prob.lower is None else str(f.prob.lower),
                "" if f.prob.upper is None else str(f.prob.upper),
                f.verdict.value,
                kappa,
            ]
        )
    return _render(
        rows, ["element", "ds_lo", "ds_hi", "p_lo", "p_hi", "verdict", "kappa"], fmt, "audit"
    )


@main.command("audit")
@click.option("--input", "-i", "path", required=True, help="Evidence JSON file.")
@click.option("--format", "fmt", type=_FORMATS, default="table", show_default=True)
@click.argument("body_names", nargs=-1, required=True)
def cmd_audit(path: str, fmt: str, body_names: tuple[str, ...]) -> None:
    """Combine bodies, then audit DS intervals against probability bounds."""
    doc = _load(path)
    if len(body_names) < 2:
        _fail(EXIT_INPUT_ERROR, "audit needs at least two body names")
    bodies = _pick_bodies(doc, body_names, path)
    try:
        report = run_audit(bodies, list(body_names))
    except TotalConflictError as exc:
        _fail(EXIT_TOTAL_CONFLICT, str(exc))
    _write(_render_audit(report, fmt))
    if not report.feasible:
        sys.exit(EXIT_INFEASIBLE)
    if any(f.verdict in (Verdict.VIOLATION, Verdict.DISJOINT_VIOLATION) for f in report.findings):
        sys.exit(EXIT_INCONSISTENT)


@main.command("sweep")
@click.option(
    "--grid", "-n", "grid_density", type=int, default=12, show_default=True,
    help=(
        f"Grid steps per parameter; at most {MAX_SWEEP_POINTS} grid points in all,"
        f" and fewer than {MAX_SWEEP_POINTS} steps."
    ),
)
@click.option(
    "--xbar-slices",
    default=",".join(str(f) for f in DEFAULT_XBAR_SLICES),
    show_default=True,
    help="Comma-separated uncertainty-mass slices for the quasi family.",
)
@click.option("--full-3d", is_flag=True, help="Sweep xbar over the full grid too.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
@click.argument("family", type=click.Choice(list(_FAMILIES)))
def cmd_sweep(
    grid_density: int, xbar_slices: str, full_3d: bool, output: str, family: str
) -> None:
    """Audit a parametric family over an exact grid and write CSV."""
    try:
        result = run_sweep(_FAMILIES[family], grid_density, xbar_slices.split(","), full_3d=full_3d)
    except EvidenceError as exc:
        _fail(EXIT_INPUT_ERROR, f"--xbar-slices: {exc}")
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    text = sweep_to_csv(result)
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_INPUT_ERROR, f"{output}: {exc.strerror or exc}")
    n_rows = sum(len(p.rows) for p in result.points)
    _write(f"wrote {n_rows} rows ({len(result.points)} grid points) to {output}")


@main.command("paper-repro")
def cmd_paper_repro() -> None:
    """Re-run the built-in reproduction fixtures and compare exactly."""
    checks = run_reproduction()
    lines = [
        f"ok       {c.label}: {c.actual}"
        if c.ok
        else f"MISMATCH {c.label}: expected {c.expected}, got {c.actual}"
        for c in checks
    ]
    failures = sum(not c.ok for c in checks)
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _write("\n".join(lines))
    if failures:
        sys.exit(EXIT_INCONSISTENT)


if __name__ == "__main__":
    main()
