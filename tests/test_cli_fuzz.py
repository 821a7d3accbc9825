"""CLI fuzz: mutated evidence documents exit only with the documented codes.

Each example draws two or three random bodies on a frame of at most four
labels, writes them as an evidence document, applies one mutation of the
kind a hand-written file gets wrong, and runs `audit`, `combine` and
`measures --all --invert` on it.  Every run must end in exit code 0, 2, 3, 4
or 5, and no exception other than `SystemExit` may escape the command.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dsaudit.cli import main
from strategies import body_pairs, body_triples

EXIT_CODES = {0, 2, 3, 4, 5}


def _document(bodies) -> dict:
    return {
        "frame": list(bodies[0].frame.elements),
        "bodies": {
            name: [{"set": list(s.labels()), "mass": str(m)} for s, m in body.focal]
            for name, body in zip("ABC", bodies)
        },
    }


def _mutate(doc: dict, names: list[str], kind: str, draw) -> None:
    """Apply one mutation of the given kind to doc, or to the body names."""
    entries = doc["bodies"][draw(st.sampled_from(sorted(doc["bodies"])))]
    entry = draw(st.sampled_from(entries))
    if kind == "float mass":
        entry["mass"] = float(Fraction(entry["mass"]))
    elif kind == "negative mass":
        entry["mass"] = "-" + entry["mass"]
    elif kind == "bad sum":
        entry["mass"] = draw(st.sampled_from(["0", "1/3", "2", "7/5"]))
    elif kind == "repeated set":
        entries.append(dict(entry))
    elif kind == "unknown label":
        entry["set"] = [*entry["set"], "zz"]
    elif kind == "unknown body":
        names.append("Z")
    elif kind == "oversized exponent":
        entry["mass"] = draw(st.sampled_from(["1e99999", "1e-4301", "5E+0004301"]))


MUTATIONS = (
    "none",
    "float mass",
    "negative mass",
    "bad sum",
    "repeated set",
    "unknown label",
    "unknown body",
    "oversized exponent",
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(body_pairs(max_size=4), body_triples(max_size=4)), st.sampled_from(MUTATIONS), st.data())
def test_mutated_documents_exit_with_documented_codes(bodies, kind, data):
    event(kind)
    doc = _document(bodies)
    names = list(doc["bodies"])
    _mutate(doc, names, kind, data.draw)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "evidence.json")
        Path(path).write_text(json.dumps(doc))
        for args in (
            ["audit", "-i", path, *names],
            ["combine", "-i", path, *names],
            ["measures", "-i", path, "--all", "--invert", names[-1]],
        ):
            result = runner.invoke(main, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args[0],
                result.output,
            )
            assert result.exit_code in EXIT_CODES, (args[0], result.exit_code, result.output)
