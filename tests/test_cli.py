"""CLI contract: subcommands, formats, exit codes, deterministic output."""

import json

import pytest
from click.testing import CliRunner

from dsaudit import cli
from dsaudit.cli import main
from dsaudit.documents import load_document
from dsaudit.repro import CheckResult

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


def test_measures_invert_mismatch_exits_4(runner, tmp_path, monkeypatch):
    path = write(tmp_path, "p.json", PARTITION_DOC)
    other = load_document(path).bodies["B"]
    monkeypatch.setattr(cli, "mass_from_belief", lambda table: other)
    result = runner.invoke(main, ["measures", "-i", path, "A", "a", "--invert"])
    assert result.exit_code == 4
    assert "mass recovery mismatch" in result.output


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


def test_missing_file_exits_2(runner):
    result = runner.invoke(main, ["combine", "-i", "/nonexistent.json", "A"])
    assert result.exit_code == 2
