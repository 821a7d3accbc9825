"""The README's contract: its public names are exactly the package's, and
its examples run as printed."""

import re
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import dsaudit
from dsaudit import Verdict
from dsaudit.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced(after: str, lang: str = "") -> str:
    """The body of the first fenced block tagged `lang` after the text
    `after` in the README."""
    block = re.compile(rf"^```{lang}\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    return block.search(README, README.index(after)).group(1)


def test_every_public_name_is_documented_in_the_readme():
    undocumented = [name for name in dsaudit.__all__ if f"`{name}`" not in README]
    assert undocumented == []


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from dsaudit import *", namespace)
    assert [name for name in dsaudit.__all__ if name not in namespace] == []


def test_the_readme_audit_prints_its_table_and_exits_4(tmp_path):
    evidence = tmp_path / "evidence.json"
    evidence.write_text(_fenced("## Evidence files", "json"), encoding="utf-8")
    table = _fenced("`dsaudit audit -i evidence.json A B` prints")
    result = CliRunner().invoke(main, ["audit", "-i", str(evidence), "A", "B"])
    assert result.stdout == table
    assert result.exit_code == 4


def test_the_readme_library_snippet_runs_as_commented():
    namespace: dict[str, object] = {}
    exec(_fenced("## Library", "python"), namespace)
    assert namespace["result"].kappa == Fraction(1, 8)
    report = namespace["report"]
    singletons = [f.verdict for f in report.findings if f.subset.bits.bit_count() == 1]
    assert singletons == [Verdict.VIOLATION] * report.combined.frame.size
