"""Every binding the benchmark wraps still exists, and every result it reads.

`bench/spans.py` times avds by replacing (module, attribute) bindings, so
a refactor that removes or renames one breaks the benchmark; the first
test checks all of them without running it.  The benchmark also reads
attributes off the results of those calls, so the second test runs unit 0
of each workload at smoke size with the bindings wrapped.  Both load the
bench files with `runpy`, which compiles them in memory: nothing is
written under bench/.
"""

import runpy
from importlib import import_module
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_binding_resolves():
    # run_path compiles the file in memory: nothing is written under bench/
    boundaries = runpy.run_path(str(SPANS))["BOUNDARIES"]
    bindings = [pair for pairs, _ in boundaries.values() for pair in pairs]
    assert bindings
    missing = [(m, a) for m, a in bindings if not hasattr(import_module(m), a)]
    assert not missing


@pytest.mark.parametrize("workload", ["figure1", "diagnose"])
def test_bench_unit_reads_every_result_it_needs(workload, tmp_path):
    # The span counts and the units read attributes off avds results
    # (`Mask.n_draws`, `BPResult.residual`, the `Diagnostics` fields); a
    # missing one makes the unit an error, so unit 0 runs here at smoke size.
    spans = runpy.run_path(str(SPANS))
    workloads = runpy.run_path(str(SPANS.with_name("workloads.py")))
    work = workloads["load"](workload, SPANS.parents[1], tmp_path, True)
    tracer = spans["Tracer"]()
    with tracer.installed():
        unit = work.run_unit(0, workloads["unit_seed"](work.default_seed, 0))
    assert unit.failed == 0 and unit.problems == []
    assert unit.digest != "error"
    assert spans["layer_metrics"](tracer.spans)
