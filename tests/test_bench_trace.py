"""The benchmark's layer tracer over one trial of each benchmark workload.

A span's count function reads the result of the function it wraps (the
length of a sampled batch, a column-sum report's trials, a released
histogram's weights), so a change of return type there makes every traced
benchmark pass write error rows.  perfbench/ lies outside the test paths;
its spans.py and workloads.py are loaded here by file path, unedited.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from tiltlab.config import parse_config
from tiltlab.experiments import run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# span targets that perfbench/spans.py names and the program no longer has;
# their spans stay empty.  Mending the span table empties this.
MISSING_TARGETS = (
    "tiltlab.ada:ScoreField.walk_max",
    "tiltlab.linalg:lambda_max_psd",
    "tiltlab.linalg:power_iteration",
    "tiltlab.mechanisms:Dataset.from_refs",
)


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
WORKLOADS = load("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_trial_keeps_csv_bytes(workload, tmp_path):
    cfg = dataclasses.replace(parse_config(WORKLOADS[workload]["config"]),
                              trials=1)
    plain = run_experiment(cfg, 7, out_dir=tmp_path / "plain")
    with spans.Tracer() as tracer:
        traced = run_experiment(cfg, 7, out_dir=tmp_path / "traced")
    assert (plain.exit_code, traced.exit_code) == (0, 0)
    assert traced.csv_path.read_bytes() == plain.csv_path.read_bytes()
    assert tuple(sorted(tracer.missing)) == MISSING_TARGETS
