"""Every binding the benchmark wraps still exists.

`bench/spans.py` times avds by replacing (module, attribute) bindings, so
a refactor that removes or renames one breaks the benchmark; this checks
all of them without running it.
"""

import runpy
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_binding_resolves():
    # run_path compiles the file in memory: nothing is written under bench/
    boundaries = runpy.run_path(str(SPANS))["BOUNDARIES"]
    bindings = [pair for pairs, _ in boundaries.values() for pair in pairs]
    assert bindings
    missing = [(m, a) for m, a in bindings if not hasattr(import_module(m), a)]
    assert not missing
