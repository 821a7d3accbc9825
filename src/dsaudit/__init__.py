"""Exact-arithmetic Dempster-Shafer evidence combination and auditing.

Combine bodies of evidence with Dempster's rule, evaluate belief and
plausibility, derive exact probability intervals from the same evidence by
linear programming over rationals, and audit the combination against those
intervals.  Every number is a `fractions.Fraction`; there is no floating
point anywhere in the pipeline.

The names below are the ones the README's Library section documents; the
record types they return live in the modules that build them.
"""

from .combine import TotalConflictError, combine, combine_many, conflict
from .consistency import Verdict, audit, build_constraints, probability_bounds
from .documents import MAX_BODIES, MAX_FOCAL_SETS, DocumentError, load_document, parse_document
from .evidence import EvidenceError, make_body, vacuous
from .frames import FRAME_SIZE_CAP, FrameError, FrameMismatchError, make_frame, subset
from .measures import (
    InversionError,
    MeasureKind,
    belief,
    mass_from_belief,
    measure_table,
    plausibility,
)
from .sweeps import Family, sweep, sweep_to_csv

__version__ = "0.1.0"

__all__ = [
    "DocumentError",
    "EvidenceError",
    "FRAME_SIZE_CAP",
    "Family",
    "FrameError",
    "FrameMismatchError",
    "InversionError",
    "MAX_BODIES",
    "MAX_FOCAL_SETS",
    "MeasureKind",
    "TotalConflictError",
    "Verdict",
    "audit",
    "belief",
    "build_constraints",
    "combine",
    "combine_many",
    "conflict",
    "load_document",
    "make_body",
    "make_frame",
    "mass_from_belief",
    "measure_table",
    "parse_document",
    "plausibility",
    "probability_bounds",
    "subset",
    "sweep",
    "sweep_to_csv",
    "vacuous",
]
