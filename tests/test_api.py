"""The package's public names are exactly the ones the README documents."""

from pathlib import Path

import dsaudit

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_public_name_is_documented_in_the_readme():
    undocumented = [name for name in dsaudit.__all__ if f"`{name}`" not in README]
    assert undocumented == []


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from dsaudit import *", namespace)
    assert [name for name in dsaudit.__all__ if name not in namespace] == []
