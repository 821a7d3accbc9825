"""The README's contract: its public names are exactly the package's, and
its examples run as printed."""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import dsaudit
from dsaudit import Verdict
from dsaudit.cli import main
from dsaudit.documents import MAX_DOCUMENT_BYTES, MAX_LABEL_LENGTH

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


def test_the_stdlib_smoke_script_passes_in_a_fresh_process():
    # CI runs tests/smoke_stdlib.py before installing click, pytest or
    # hypothesis; here it runs in a process of its own, so that the library
    # it imports has not been imported by the tests.
    script = Path(__file__).parent / "smoke_stdlib.py"
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith("7/7 checks passed\n")


def test_the_readme_states_the_document_caps():
    assert f"at most {MAX_LABEL_LENGTH} characters" in README
    assert f"more than {MAX_DOCUMENT_BYTES} bytes" in README
