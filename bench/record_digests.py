"""Record item digests from --out records into bench/digests.json.

    python3 bench/record_digests.py records.jsonl [more.jsonl ...]

Use records of timed runs of the commit whose outputs are the reference.
For each workload and seed the longest digest list wins; a record that
disagrees with an already recorded digest is an error, since both should
come from the same program.
"""

from __future__ import annotations

import json
import sys

from dsbench.runner import DIGESTS, load_digests


def main(paths: list[str]) -> int:
    digests = load_digests()
    for path in paths:
        for line in open(path, encoding="utf-8"):
            rec = json.loads(line)
            if not rec["result"]["correct"]:
                continue
            known = digests.setdefault(rec["workload"], {}).setdefault(str(rec["seed"]), [])
            new = rec["digests"]
            shared = min(len(known), len(new))
            if known[:shared] != new[:shared]:
                print(f"{path}: {rec['workload']} seed {rec['seed']} disagrees with the record")
                return 1
            if len(new) > len(known):
                known[:] = new
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
