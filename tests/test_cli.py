"""CLI contract: subcommands, formats, exit codes, deterministic output."""

import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import dsaudit
from dsaudit import cli, consistency, documents, repro, sweeps
from dsaudit.cli import main
from dsaudit.documents import MAX_BODIES, MAX_FOCAL_SETS, MAX_LABEL_LENGTH, load_document
from dsaudit.repro import CheckResult

DATA = Path(__file__).parent / "data"

PARTITION_DOC = """
{
  "frame": ["a", "b", "c"],
  "bodies": {
    "A": [{"set": ["a"], "mass": "1/4"}, {"set": ["b", "c"], "mass": "3/4"}],
    "B": [{"set": ["a", "b"], "mass": "1/2"}, {"set": ["c"], "mass": "1/2"}]
  }
}
"""

QUASI_DOC = """
{
  "frame": ["a", "b", "c"],
  "bodies": {
    "A": [{"set": ["a"], "mass": "1/4"}, {"set": ["b", "c"], "mass": "1/2"},
          {"set": ["a", "b", "c"], "mass": "1/4"}],
    "B": [{"set": ["a", "b"], "mass": "1/2"}, {"set": ["c"], "mass": "1/2"}]
  }
}
"""

DISJOINT_DOC = """
{
  "frame": ["a", "b"],
  "bodies": {
    "A": [{"set": ["a"], "mass": "1"}],
    "B": [{"set": ["b"], "mass": "1"}]
  }
}
"""

BAD_SUM_DOC = """
{
  "frame": ["a", "b"],
  "bodies": {
    "A": [{"set": ["a"], "mass": "1/2"}, {"set": ["b"], "mass": "2/5"}]
  }
}
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_combine_partition_case(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["combine", "-i", path, "A", "B"])
    assert result.exit_code == 0
    assert "1/7" in result.output
    assert "3/7" in result.output
    assert "1/8" in result.output
    assert "conflict pairs" in result.output


def test_combine_json_format(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["combine", "-i", path, "--format", "json", "A", "B"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    masses = {row["element"]: row["mass"] for row in payload["combined"]}
    assert masses == {"{a}": "1/7", "{b}": "3/7", "{c}": "3/7"}


def test_combine_bad_sum_exits_2(runner, tmp_path):
    path = write(tmp_path, "bad.json", BAD_SUM_DOC)
    result = runner.invoke(main, ["combine", "-i", path, "A"])
    assert result.exit_code == 2
    assert "9/10" in result.output


def test_combine_huge_mass_exponent_exits_2(runner, tmp_path):
    path = write(tmp_path, "e.json", BAD_SUM_DOC.replace('"2/5"', '"1e-1000000"'))
    result = runner.invoke(main, ["combine", "-i", path, "A"])
    assert result.exit_code == 2
    assert "exponent" in result.output


def test_combine_over_long_mass_exits_2_with_short_stderr(runner, tmp_path):
    path = write(tmp_path, "l.json", BAD_SUM_DOC.replace('"2/5"', '"' + "1" * 10_000_000 + '"'))
    result = runner.invoke(main, ["combine", "-i", path, "A"])
    assert result.exit_code == 2
    assert "more than 20000" in result.stderr
    assert len(result.stderr) < 300


def test_combine_unknown_body_exits_2(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["combine", "-i", path, "A", "Z"])
    assert result.exit_code == 2
    assert "no body named 'Z'" in result.output


def test_combine_total_conflict_exits_3(runner, tmp_path):
    path = write(tmp_path, "d.json", DISJOINT_DOC)
    result = runner.invoke(main, ["combine", "-i", path, "A", "B"])
    assert result.exit_code == 3
    assert "no decision set" in result.output


def test_measures_subsets(runner, tmp_path):
    path = write(tmp_path, "q.json", QUASI_DOC)
    result = runner.invoke(main, ["measures", "-i", path, "A", "b,c", "a"])
    assert result.exit_code == 0
    assert "{b,c}" in result.output


def test_measures_all_and_invert(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["measures", "-i", path, "A", "--all", "--invert"])
    assert result.exit_code == 0
    assert result.output.count("\n") >= 9  # 8 subsets + header
    assert "round-trip exact" in result.output
    # With json the payload is all of stdout; the exit code carries the check.
    args = ["measures", "-i", path, "--format", "json", "A", "--all", "--invert"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert len(json.loads(result.stdout)["measures"]) == 8
    # --invert alone names no subsets to show; the message says what it adds to.
    result = runner.invoke(main, ["measures", "-i", path, "A", "--invert"])
    assert result.exit_code == 2
    assert "--invert adds the round-trip check to either" in result.output
    help_text = runner.invoke(main, ["measures", "--help"]).output
    assert "adds the check to --all or to listed subsets" in " ".join(help_text.split())


def test_measures_invert_mismatch_exits_4(runner, tmp_path, monkeypatch):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    other = load_document(path).bodies["B"]
    monkeypatch.setattr(cli, "mass_from_belief", lambda table: other)
    result = runner.invoke(main, ["measures", "-i", path, "A", "a", "--invert"])
    assert result.exit_code == 4
    assert "mass recovery mismatch" in result.output


MEASURES_DIGESTS = json.loads((DATA / "measures_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", MEASURES_DIGESTS, ids=lambda c: c["name"])
def test_measures_all_output_is_pinned(runner, case):
    # `measures --all [--invert]` stdout, pinned byte for byte (SHA-256) in
    # every format for the README evidence and one 10-element body.
    path = str(DATA / case["document"])
    args = ["measures", "-i", path, "--format", case["format"], *case["flags"], case["body"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert len(result.stdout_bytes) == case["bytes"]
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == case["sha256"]


COMBINE_DIGESTS = json.loads((DATA / "combine_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", COMBINE_DIGESTS, ids=lambda c: c["name"])
def test_combine_output_is_pinned(runner, case):
    # `combine` stdout of three bodies whose last step has conflict pairs,
    # pinned byte for byte (SHA-256) in every format.
    path = str(DATA / case["document"])
    args = ["combine", "-i", path, "--format", case["format"], *case["bodies"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert len(result.stdout_bytes) == case["bytes"]
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == case["sha256"]


def _wide_doc(size):
    labels = [f"e{i}" for i in range(size)]
    return json.dumps(
        {"frame": labels, "bodies": {"A": [{"set": labels, "mass": "1"}]}}
    )


@pytest.mark.parametrize("flag", ["--all", "--invert"])
def test_measures_table_over_element_limit_exits_2(runner, tmp_path, monkeypatch, flag):
    path = write(tmp_path, "wide.json", _wide_doc(cli.MAX_TABLE_ELEMENTS + 1))

    def no_table(*args):
        raise AssertionError("measure_table ran above the element limit")

    monkeypatch.setattr(cli, "measure_table", no_table)
    result = runner.invoke(main, ["measures", "-i", path, "A", "e0", flag])
    assert result.exit_code == 2
    assert f"the limit is {cli.MAX_TABLE_ELEMENTS}" in result.output
    help_text = runner.invoke(main, ["measures", "--help"]).output
    assert f"at most {cli.MAX_TABLE_ELEMENTS} elements" in help_text


def _capped_doc(n_bodies, n_entries):
    # The entries repeat sets; the caps are checked before any set or mass.
    body = [{"set": ["a"], "mass": f"1/{n_entries}"}] * n_entries
    return json.dumps({"frame": ["a", "b"], "bodies": {f"B{k}": body for k in range(n_bodies)}})


@pytest.mark.parametrize(
    "doc, limit",
    [(_capped_doc(2, MAX_FOCAL_SETS + 1), "entries"), (_capped_doc(MAX_BODIES + 1, 2), "bodies")],
    ids=["focal-sets", "bodies"],
)
def test_audit_over_document_cap_exits_2_before_combining(runner, tmp_path, monkeypatch, doc, limit):
    def no_combination(*args):
        raise AssertionError("a combination ran above the document caps")

    monkeypatch.setattr(consistency, "combine_many", no_combination)
    path = write(tmp_path, "big.json", doc)
    result = runner.invoke(main, ["audit", "-i", path, "B0", "B1"])
    assert result.exit_code == 2
    assert f"{limit}; the limit is" in result.output


def test_measures_whole_frame_row(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["measures", "-i", path, "A", "a,b,c"])
    assert result.exit_code == 0
    line = result.output.splitlines()[-1]
    assert line.split() == ["{a,b,c}", "1", "1"]


def test_audit_partition_case_exits_4(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["audit", "-i", path, "A", "B"])
    assert result.exit_code == 4
    assert result.output.count("Violation") == 3


def test_audit_quasi_case_reports_disjoint(runner, tmp_path):
    path = write(tmp_path, "q.json", QUASI_DOC)
    result = runner.invoke(main, ["audit", "-i", path, "A", "B"])
    assert result.exit_code == 4
    assert "DisjointViolation" in result.output


def test_audit_consistent_case_exits_0(runner, tmp_path):
    doc = """
    {
      "frame": ["a", "b", "c"],
      "bodies": {
        "P": [{"set": ["a"], "mass": "1/6"}, {"set": ["b"], "mass": "1/3"},
              {"set": ["c"], "mass": "1/2"}],
        "V": [{"set": ["a", "b", "c"], "mass": "1"}]
      }
    }
    """
    path = write(tmp_path, "ok.json", doc)
    result = runner.invoke(main, ["audit", "-i", path, "P", "V"])
    assert result.exit_code == 0
    assert result.output.count("ExactMatch") == 3


def test_audit_infeasible_exits_5(runner, tmp_path):
    doc = """
    {
      "frame": ["a", "b", "c"],
      "bodies": {
        "A": [{"set": ["a"], "mass": "99/100"}, {"set": ["c"], "mass": "1/100"}],
        "B": [{"set": ["b"], "mass": "99/100"}, {"set": ["c"], "mass": "1/100"}]
      }
    }
    """
    path = write(tmp_path, "z.json", doc)
    result = runner.invoke(main, ["audit", "-i", path, "A", "B"])
    assert result.exit_code == 5
    assert "Infeasible" in result.output


def test_audit_needs_two_names(runner, tmp_path):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    result = runner.invoke(main, ["audit", "-i", path, "A"])
    assert result.exit_code == 2


def test_sweep_writes_deterministic_csv(runner, tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["sweep", "partition-xy", "--grid", "4", "-o", str(out)]
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("family,x,xbar,y,kappa")
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data) - 1 == 75  # 25 grid points x 3 elements
    assert any("TotalConflict" in ln for ln in data)


def test_sweep_quasi_with_slices(runner, tmp_path):
    out = tmp_path / "q.csv"
    result = runner.invoke(
        main,
        ["sweep", "quasi-x-xbar-y", "--grid", "2", "--xbar-slices", "0,1/2", "-o", str(out)],
    )
    assert result.exit_code == 0
    text = out.read_text()
    assert "QuasiXXbarY" in text


def test_sweep_bad_xbar_slice_exits_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "quasi-x-xbar-y", "--grid", "2", "--xbar-slices", "1/4,0.5.5",
         "-o", str(tmp_path / "q.csv")],
    )
    assert result.exit_code == 2
    assert "--xbar-slices: cannot parse mass '0.5.5'" in result.stderr


def test_sweep_bad_density_and_slice_reports_the_density_first(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "quasi-x-xbar-y", "--grid", "1", "--xbar-slices", "1/4,0.5.5",
         "-o", str(tmp_path / "q.csv")],
    )
    assert result.exit_code == 2
    assert result.stderr == "error: grid density must be at least 2\n"


def test_sweep_to_unwritable_path_exits_2(runner, tmp_path):
    out = tmp_path / "missing" / "s.csv"
    result = runner.invoke(main, ["sweep", "partition-xy", "--grid", "3", "-o", str(out)])
    assert result.exit_code == 2
    assert f"{out}: No such file or directory" in result.stderr
    assert not out.exists()


def test_sweep_negative_xbar_slice_exits_2_before_any_audit(runner, tmp_path, monkeypatch):
    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran for a negative xbar slice")

    monkeypatch.setattr(sweeps, "audit", no_audit)
    out = tmp_path / "q.csv"
    result = runner.invoke(
        main,
        ["sweep", "quasi-x-xbar-y", "--grid", "12", "--xbar-slices", "0,-1/2", "-o", str(out)],
    )
    assert result.exit_code == 2
    assert "xbar slice -1/2 is negative" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["partition-xy", "--grid", "2", "--xbar-slices", "-1/2"],
        ["quasi-x-xbar-y", "--grid", "2", "--full-3d", "--xbar-slices", "-1/2"],
    ],
    ids=["partition", "quasi-full-3d"],
)
def test_sweep_negative_xbar_slice_exits_2_where_slices_are_unused(runner, tmp_path, monkeypatch, args):
    # Neither sweep reads the slices, yet a negative one is refused as in a
    # per-slice quasi sweep, before any audit.
    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran for a negative xbar slice")

    monkeypatch.setattr(sweeps, "audit", no_audit)
    out = tmp_path / "f.csv"
    result = runner.invoke(main, ["sweep", *args, "-o", str(out)])
    assert result.exit_code == 2
    assert "xbar slice -1/2 is negative" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["partition-xy", "--grid", "1000"],
        ["quasi-x-xbar-y", "--grid", "40", "--full-3d"],
        ["quasi-x-xbar-y", "--grid", "20000", "--xbar-slices", "2"],
    ],
)
def test_sweep_over_point_limit_exits_2_before_any_audit(runner, tmp_path, monkeypatch, args):
    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran above the sweep point limit")

    monkeypatch.setattr(sweeps, "audit", no_audit)
    out = tmp_path / "s.csv"
    result = runner.invoke(main, ["sweep", *args, "-o", str(out)])
    assert result.exit_code == 2
    assert f"the limit is {sweeps.MAX_SWEEP_POINTS}" in result.stderr
    assert not out.exists()
    help_text = runner.invoke(main, ["sweep", "--help"]).output
    assert f"at most {sweeps.MAX_SWEEP_POINTS} grid points" in help_text


def test_paper_repro_output_is_pinned(runner):
    result = runner.invoke(main, ["paper-repro"])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / "paper_repro.txt").read_bytes()


def test_paper_repro_passes(runner):
    result = runner.invoke(main, ["paper-repro"])
    assert result.exit_code == 0
    assert "MISMATCH" not in result.output
    assert "checks passed" in result.output


def test_paper_repro_mismatch_exits_4(runner, monkeypatch):
    checks = [CheckResult("kept", "1/7", "1/7"), CheckResult("broken", "1/7", "1/8")]
    monkeypatch.setattr(cli, "run_reproduction", lambda: checks)
    result = runner.invoke(main, ["paper-repro"])
    assert result.exit_code == 4
    assert "MISMATCH broken: expected 1/7, got 1/8" in result.output
    assert "1/2 checks passed" in result.output


def test_paper_repro_reads_the_ds_intervals_off_the_audit(runner, monkeypatch):
    # Every audit's {b} finding is given a wrong plausibility; the checks
    # must read it from the finding, not recompute it from the combined body.
    def skewed_audit(bodies):
        report = consistency.audit(bodies)
        findings = tuple(
            dataclasses.replace(f, ds_upper=Fraction(1)) if str(f.subset) == "{b}" else f
            for f in report.findings
        )
        return dataclasses.replace(report, findings=findings)

    monkeypatch.setattr(repro, "audit", skewed_audit)
    result = runner.invoke(main, ["paper-repro"])
    assert result.exit_code == 4
    assert "MISMATCH partition-case mass=bel=pl on {b}: expected True, got False" in result.output
    assert "MISMATCH quasi-case DS interval for {b}: expected [2/7, 3/7], got [2/7, 1]" in result.output
    assert "27/29 checks passed" in result.output


def test_audit_repeated_body_name_exits_2(runner, tmp_path):
    path = write(tmp_path, "twice.json", PARTITION_DOC.replace('"B": [', '"A": ['))
    result = runner.invoke(main, ["audit", "-i", path, "A", "A"])
    assert result.exit_code == 2
    assert "key 'A' appears more than once" in result.stderr


@pytest.mark.parametrize(
    "content, message",
    [
        (PARTITION_DOC.replace('"1/4"', "1" * 5000).encode(), "a JSON integer has too many digits"),
        (b"[" * 200_000, "arrays or objects nested too deeply"),
        (PARTITION_DOC.replace('"1/4"', '"1/4 \u00e9"').encode("latin-1"), "not UTF-8 text"),
        # {a,b} would print, and a,b would read, as a subset of two labels
        (PARTITION_DOC.replace('"c"', '"a,b"').encode(), "label 'a,b' contains one of , { }"),
    ],
    ids=["long-integer", "deep-nesting", "not-utf8", "comma-in-label"],
)
def test_malformed_document_exits_2(runner, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = runner.invoke(main, ["combine", "-i", str(path), "A"])
    assert result.exit_code == 2
    assert message in result.stderr
    assert len(result.stderr) < 300


_LONG = "x" * 10**6
# Labels and body names longer than the cap are refused by the cap itself.
_AT_CAP = "x" * MAX_LABEL_LENGTH


@pytest.mark.parametrize(
    "document, args, message",
    [
        (PARTITION_DOC.replace('["b", "c"]', f'["b", "{_LONG}"]'), ["A"], "unknown label 'xxx"),
        (
            PARTITION_DOC.replace('"A"', f'"{_AT_CAP}"').replace('"3/4"', '"x"'),
            ["B"],
            "body 'xxx",
        ),
        (PARTITION_DOC.replace('"b", "c"]', f'"{_AT_CAP}", "{_AT_CAP}"]', 1), ["A"], "duplicate"),
        (PARTITION_DOC.replace('"c"]', f'"{_AT_CAP[1:]},"]', 1), ["A"], "contains one of"),
        (PARTITION_DOC.replace('"B"', f'"{_AT_CAP}"'), [_LONG[1:]], "available: 'A', 'xxx"),
        (
            PARTITION_DOC.replace('"A"', f'"{_LONG}"').replace('"B"', f'"{_LONG}"'),
            ["A"],
            "key 'xxx",
        ),
    ],
    ids=["unknown-label", "body-name", "repeated-label", "reserved-label", "no-such-body", "key"],
)
def test_a_message_quotes_at_most_a_prefix_of_any_user_text(runner, tmp_path, document, args, message):
    # A label or body name at the cap, or a set member or key of a
    # megabyte, is quoted by a short prefix.
    path = write(tmp_path, "long.json", document)
    result = runner.invoke(main, ["combine", "-i", path, *args])
    assert result.exit_code == 2
    assert message in result.stderr
    assert "x" * 41 not in result.stderr
    assert len(result.stderr) < 1500


@pytest.mark.parametrize("length", [MAX_LABEL_LENGTH + 1, 10**6], ids=["cap+1", "megabyte"])
@pytest.mark.parametrize(
    "old, kind", [('"c"', "frame label"), ('"B"', "body name")], ids=["label", "body-name"]
)
def test_a_label_or_body_name_over_the_cap_exits_2_before_any_mass_parses(
    runner, tmp_path, monkeypatch, old, kind, length
):
    def no_mass(value):
        raise AssertionError("a mass parsed above the label cap")

    monkeypatch.setattr(documents, "mass_ratio", no_mass)
    # The first "c" is the frame's.
    path = write(tmp_path, "long.json", PARTITION_DOC.replace(old, f'"{"x" * length}"', 1))
    result = runner.invoke(main, ["combine", "-i", path, "A"])
    assert result.exit_code == 2
    assert f"{kind} 'xxx" in result.stderr
    assert f"has {length} characters; the limit is {MAX_LABEL_LENGTH}" in result.stderr
    assert len(result.stderr) < 300


def test_a_label_and_a_body_name_at_the_cap_parse(runner, tmp_path):
    document = PARTITION_DOC.replace('"c"', f'"{_AT_CAP}"').replace('"B"', f'"{_AT_CAP}"')
    result = runner.invoke(main, ["combine", "-i", write(tmp_path, "cap.json", document), "A"])
    assert result.exit_code == 0
    assert f"{{b,{_AT_CAP}}}  3/4" in result.stdout


def test_a_file_over_the_byte_cap_exits_2_unread_past_the_cap(runner, tmp_path, monkeypatch):
    cap = len(PARTITION_DOC.encode())
    path = write(tmp_path, "big.json", PARTITION_DOC + " " * 10**6)
    read = []

    class Recorded(io.BytesIO):
        def read(self, size=-1):
            data = super().read(size)
            read.append(len(data))
            return data

    monkeypatch.setattr(documents, "MAX_DOCUMENT_BYTES", cap)
    monkeypatch.setattr(
        documents, "open", lambda file, mode: Recorded(Path(file).read_bytes()), raising=False
    )
    result = runner.invoke(main, ["combine", "-i", path, "A"])
    assert result.exit_code == 2
    assert f"more than {cap} bytes, the limit for a file" in result.stderr
    assert sum(read) == cap + 1
    # A file at the cap parses.
    result = runner.invoke(main, ["combine", "-i", write(tmp_path, "p.json", PARTITION_DOC), "A"])
    assert result.exit_code == 0


def test_missing_file_exits_2(runner):
    result = runner.invoke(main, ["combine", "-i", "/nonexistent.json", "A"])
    assert result.exit_code == 2


def _live_bytes_io() -> int:
    gc.collect()
    return sum(isinstance(o, io.BytesIO) for o in gc.get_objects())


def test_no_invocation_keeps_its_captured_output(runner, tmp_path):
    # click.echo without a file caches every stream it writes to, keyed by
    # the stream and holding it alive; CliRunner captures each invocation
    # in a fresh BytesIO, so every invocation's output used to stay alive.
    path = write(tmp_path, "p.json", PARTITION_DOC)
    commands = [
        (["audit", "-i", path, "A", "B"], 4),
        (["combine", "-i", path, "A", "B"], 0),
        (["measures", "-i", path, "A", "--all", "--invert"], 0),
        (["sweep", "partition-xy", "--grid", "2", "-o", str(tmp_path / "s.csv")], 0),
        (["paper-repro"], 0),
        (["audit", "-i", path, "A"], 2),
    ]
    before = _live_bytes_io()
    for args, code in commands:
        for _ in range(20):
            assert runner.invoke(main, args).exit_code == code
    assert _live_bytes_io() <= before


@pytest.mark.parametrize("encoding", ["latin-1", "ascii", "utf-8"])
def test_a_label_stdout_cannot_encode_prints_as_utf8(encoding):
    # CliRunner's streams are always UTF-8, so this runs a real process.
    src = str(Path(dsaudit.__file__).parent.parent)
    env = {**os.environ, "PYTHONIOENCODING": encoding}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["audit", "-i", str(DATA / "non_ascii_labels.json"), "A", "B"]
    result = subprocess.run(
        [sys.executable, "-m", "dsaudit", *args], capture_output=True, env=env, timeout=120
    )
    assert result.stderr == b""
    assert result.returncode == 4
    assert result.stdout == (DATA / "non_ascii_audit.txt").read_bytes()
