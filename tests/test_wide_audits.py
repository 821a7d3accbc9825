"""The widest audits in tier-1: two to four bodies of 8-16 focal sets on
12-16 elements (tests/wide_systems.py).

Their finding hashes were recorded when every bound came from two cold LPs
per target, so any change to the bound path (warm starts, witnesses, pivot
rules, lazy scales) must leave every finding equal.  The three- and
four-body systems take `lp._pivot`'s `p != d` branch hundreds of times.
Each audit's LP solve count (calls of `lp.minimize`) is pinned beside its
hash: it depends only on the input and the code, so a change that saves or
adds solves shows here exactly.
"""

import pytest

from dsaudit import audit
from wide_systems import counting, finding_hash, wide_bodies

# (finding hash, LP solves) at seeds 1 and 2.
PINS = {
    (2, 16, 16): (("eabcb3660e", 165), ("57d24641c3", 209)),
    (3, 12, 10): (("e179a9e607", 150), ("762f4e2566", 151)),
    (4, 12, 8): (("ae2338be98", 92), ("86cdc2d7f3", 84)),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("shape", list(PINS), ids="{0[0]}-{0[1]}-{0[2]}".format)
def test_wide_audit_findings_are_unchanged(shape, seed):
    with counting("minimize") as counts:
        report = audit(wide_bodies(seed, *shape))
    assert report.feasible
    assert (finding_hash(report.findings), counts["minimize"]) == PINS[shape][seed - 1]
