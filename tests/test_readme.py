"""README's examples run, and its regime note counts what the committed reports hold."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from avds.cli import main
from avds.harness import RECOVERY_REL_ERR

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# A line of the regime note: "`reports/<stem>.json`: adapted / uniform / coherence of trials".
REGIME_COUNTS = re.compile(r"`reports/(\w+)\.json`: (\d+) / (\d+) / (\d+) of (\d+)")


def _recovered(report: dict) -> list:
    """Recovered trials of the adapted, uniform and coherence densities of a figure-1 report.

    A signal that is ±1 on exactly S of K entries has peak 1 and norm
    sqrt(S), so a relative l2 error of at most `RECOVERY_REL_ERR` is a PSNR
    of at least -20 log10(RECOVERY_REL_ERR) + 10 log10(K / S).
    """
    cfg = report["config"]
    assert cfg["weights"]["source"] == "uniform"  # S is the weights' sum
    dim, s = cfg["spec"]["size"] ** 2, cfg["weights"]["sparsity"]
    floor_db = -20 * math.log10(RECOVERY_REL_ERR) + 10 * math.log10(dim / s)
    return [
        sum(p >= floor_db for p in report["psnr_db"][kind])
        for kind in ("adapted", "uniform", "coherence")
    ]


def test_regime_note_counts_are_the_committed_reports():
    lines = REGIME_COUNTS.findall(README)
    assert [stem for stem, *_ in lines] == ["figure1_stated", "figure1_uniform_supports"]
    for stem, *counts in lines:
        report = json.loads((ROOT / "reports" / f"{stem}.json").read_text())
        *recovered, trials = map(int, counts)
        assert recovered == _recovered(report), stem
        assert trials == report["config"]["trials"], stem


def test_library_tour_runs():
    exec(re.search(r"```python\n(.*?)```", README, re.S).group(1), {})


def test_config_example_runs(tmp_path):
    section = README.split("## Experiment configs", 1)[1]
    raw = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    path = tmp_path / "readme-config.json"
    path.write_text(json.dumps(dict(raw, trials=1)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["experiment", "--config", str(path), "--no-timing"]) == 0
