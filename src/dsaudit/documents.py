"""Evidence documents: JSON files holding a frame and named bodies.

Schema::

    {
      "frame": ["a", "b", "c"],
      "bodies": {
        "A": [{"set": ["a"], "mass": "1/4"},
              {"set": ["b", "c"], "mass": "3/4"}]
      }
    }

Masses go through `evidence.as_mass`: fraction strings ("1/4"), integer
strings, decimal strings that convert exactly ("0.25"), or JSON integers.
JSON floats are rejected: the binary value the JSON parser hands over is
usually not the decimal the file shows.  A key may appear only once in
each object, so a repeated body name or entry key is an error rather than
a silent overwrite.  A document holds at most MAX_BODIES bodies of at most
MAX_FOCAL_SETS entries each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .evidence import BodyOfEvidence, EvidenceError, as_mass, make_body
from .frames import FRAME_SIZE_CAP, Frame, FrameError, make_frame, subset

# An audit solves two LPs per target, and every focal set of the combined body
# is a target.  Each further body can multiply the combined focal sets by up to
# MAX_FOCAL_SETS, so both counts are capped before any mass is parsed.
# MAX_FOCAL_SETS admits a Bayesian body on the largest frame; combining four
# bodies at that cap took 0.16 s and gave 12950 focal sets, five took 1.2 s
# and gave 55454 (see the README).
MAX_FOCAL_SETS = FRAME_SIZE_CAP
MAX_BODIES = 4
_ENTRY_KEYS = {"set", "mass"}


class DocumentError(ValueError):
    """An evidence file failed to parse or validate; message carries context."""


@dataclass(frozen=True)
class EvidenceDocument:
    frame: Frame
    bodies: dict[str, BodyOfEvidence]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, refusing a key that appears twice."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in obj if keys.count(k) > 1)
        raise DocumentError(f"key '{repeated}' appears more than once in one object")
    return obj


def parse_document(text: str, source: str = "<input>") -> EvidenceDocument:
    """Parse and validate an evidence document from JSON text."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except DocumentError as exc:
        raise DocumentError(f"{source}: {exc}") from None
    except ValueError:
        # The JSON parser raises a plain ValueError only for an integer
        # literal beyond Python's int digit limit (4300 digits by default).
        raise DocumentError(f"{source}: a JSON integer has too many digits") from None
    except RecursionError:
        raise DocumentError(f"{source}: arrays or objects nested too deeply") from None
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
    if len(raw_bodies) > MAX_BODIES:
        raise DocumentError(
            f"{source}: {len(raw_bodies)} bodies; the limit is {MAX_BODIES}"
        )

    bodies: dict[str, BodyOfEvidence] = {}
    for name, entries in raw_bodies.items():
        where = f"{source}: body '{name}'"
        if not isinstance(entries, list):
            raise DocumentError(f"{where}: must be a list of set/mass entries")
        if len(entries) > MAX_FOCAL_SETS:
            raise DocumentError(
                f"{where}: {len(entries)} entries; the limit is {MAX_FOCAL_SETS}"
            )
        assignments = []
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
                raise DocumentError(
                    f"{where}, entry {k + 1}: expected an object with keys 'set' and 'mass'"
                )
            members = entry["set"]
            if not isinstance(members, list) or not all(
                isinstance(x, str) for x in members
            ):
                raise DocumentError(f"{where}, entry {k + 1}: 'set' must be a list of labels")
            try:
                focal = subset(frame, members)
                mass = as_mass(entry["mass"])
            except (FrameError, EvidenceError) as exc:
                raise DocumentError(f"{where}, entry {k + 1}: {exc}") from None
            assignments.append((focal, mass))
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
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_document(text, source=path)
