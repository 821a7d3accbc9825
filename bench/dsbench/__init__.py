"""Benchmark harness for dsaudit.

The harness measures dsaudit from outside: it generates inputs from a seed,
calls the public functions of each module, times those calls, and checks
every output exactly.  It never imports dsaudit at module import time, so a
fresh process can time that import itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_DIR = BENCH_DIR.parent
SRC_DIR = REPO_DIR / "src"


class MissingProgramError(RuntimeError):
    """The checkout has no dsaudit sources next to the benchmark."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the import path.

    The benchmark must measure the sources it ships with, never an installed
    copy, so it refuses to run when ``src/dsaudit`` is absent.
    """
    if not (SRC_DIR / "dsaudit" / "__init__.py").is_file():
        raise MissingProgramError(f"no dsaudit sources under {SRC_DIR}")
    path = str(SRC_DIR)
    if path not in sys.path:
        sys.path.insert(0, path)
