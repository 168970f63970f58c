"""Committed reports against fresh runs.

`reports/diagnose_hadamard_haar.json` holds the rows `avds diagnose` printed
for `configs/diagnose_hadamard_haar.json` when it was committed.  The rows
are regenerated through `harness.diagnose_rows`: the budget and the tail
probability (a count over the trials) must match exactly, every other field
within 1e-12 relative, since BLAS kernels round differently across CPUs.  A
change that moves a report regenerates its file in the same commit.
"""

import json
import math
from pathlib import Path

from avds.cli import _diagnose_config
from avds.harness import diagnose_rows

ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-12
EXACT = ("m", "gram_tail_prob")


def test_diagnose_report_matches_a_fresh_run():
    want = json.loads((ROOT / "reports" / "diagnose_hadamard_haar.json").read_text())
    got = diagnose_rows(*_diagnose_config(str(ROOT / "configs" / "diagnose_hadamard_haar.json")))
    assert len(got) == len(want) == 4
    for new, old in zip(got, want):
        assert new.keys() == old.keys()
        for key in EXACT:
            assert new[key] == old[key], (old["m"], key)
        for key in new.keys() - set(EXACT):
            assert math.isclose(new[key], old[key], rel_tol=REL_TOL, abs_tol=0.0), (old["m"], key)
