"""Evidence documents: JSON files holding a frame and named bodies.

Schema::

    {
      "frame": ["a", "b", "c"],
      "bodies": {
        "A": [{"set": ["a"], "mass": "1/4"},
              {"set": ["b", "c"], "mass": "3/4"}]
      }
    }

Masses are fraction strings ("1/4"), integer strings, decimal strings that
convert exactly ("0.25"), or JSON integers.  JSON floats are rejected: the
binary value the JSON parser hands over is usually not the decimal the file
shows.  Serialization is canonical (sets ordered by frame position, masses in
lowest terms), so parse -> dump is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .evidence import (
    MAX_MASS_EXPONENT,
    BodyOfEvidence,
    EvidenceError,
    exponent_out_of_range,
    make_body,
)
from .frames import Frame, FrameError, make_frame, subset


class DocumentError(ValueError):
    """An evidence file failed to parse or validate; message carries context."""


@dataclass(frozen=True)
class EvidenceDocument:
    frame: Frame
    bodies: dict[str, BodyOfEvidence]


def parse_mass(value: object, where: str = "mass") -> Fraction:
    """Parse a mass value from JSON, exactly or not at all."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a number string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: JSON floats are not accepted; quote the value as a string "
            f'(e.g. "1/4" or "0.25")'
        )
    if isinstance(value, str):
        if exponent_out_of_range(value):
            raise DocumentError(
                f"{where}: the exponent of {value!r} is beyond {MAX_MASS_EXPONENT}"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(
                f"{where}: cannot parse {value!r} as an exact rational"
            ) from None
    raise DocumentError(f"{where}: expected a string or integer, got {type(value).__name__}")


def parse_document(text: str, source: str = "<input>") -> EvidenceDocument:
    """Parse and validate an evidence document from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise DocumentError(f"{source}: top level must be an object")

    labels = data.get("frame")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DocumentError(f"{source}: 'frame' must be a list of strings")
    try:
        frame = make_frame(labels)
    except FrameError as exc:
        raise DocumentError(f"{source}: invalid frame: {exc}") from None

    raw_bodies = data.get("bodies")
    if not isinstance(raw_bodies, dict) or not raw_bodies:
        raise DocumentError(f"{source}: 'bodies' must be a non-empty object")

    bodies: dict[str, BodyOfEvidence] = {}
    for name, entries in raw_bodies.items():
        where = f"{source}: body '{name}'"
        if not isinstance(entries, list):
            raise DocumentError(f"{where}: must be a list of set/mass entries")
        assignments = []
        for k, entry in enumerate(entries):
            entry_where = f"{where}, entry {k + 1}"
            if not isinstance(entry, dict) or set(entry) != {"set", "mass"}:
                raise DocumentError(
                    f"{entry_where}: expected an object with keys 'set' and 'mass'"
                )
            members = entry["set"]
            if not isinstance(members, list) or not all(
                isinstance(x, str) for x in members
            ):
                raise DocumentError(f"{entry_where}: 'set' must be a list of labels")
            try:
                focal = subset(frame, members)
            except FrameError as exc:
                raise DocumentError(f"{entry_where}: {exc}") from None
            assignments.append((focal, parse_mass(entry["mass"], entry_where)))
        try:
            bodies[name] = make_body(frame, assignments)
        except (EvidenceError, FrameError) as exc:
            raise DocumentError(f"{where}: {exc}") from None
    return EvidenceDocument(frame, bodies)


def load_document(path: str) -> EvidenceDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"{path}: {exc.strerror or exc}") from None
    return parse_document(text, source=path)


def dump_document(doc: EvidenceDocument) -> str:
    """Canonical JSON form: sets in frame order, masses in lowest terms."""
    data = {
        "frame": list(doc.frame.elements),
        "bodies": {
            name: [
                {"set": list(s.labels()), "mass": str(m)} for s, m in body.focal
            ]
            for name, body in doc.bodies.items()
        },
    }
    return json.dumps(data, indent=2) + "\n"
