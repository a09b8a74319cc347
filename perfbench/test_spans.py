"""Checks of the benchmark's own tracing; run from the repository root:

    python3 -m pytest perfbench/test_spans.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tiltlab.attack  # noqa: E402
import tiltlab.tilt  # noqa: E402
from tiltlab.config import parse_config  # noqa: E402
from tiltlab.experiments import run_experiment  # noqa: E402

from spans import SPANS, Tracer, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_span_is_assigned_to_a_workload():
    assigned = {span for w in WORKLOADS.values() for span in w["spans"]}
    assert assigned == set(SPANS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_assigned_spans_fire_and_keep_csv_bytes(workload, tmp_path):
    cfg = dataclasses.replace(parse_config(WORKLOADS[workload]["config"]),
                              trials=1)
    plain = run_experiment(cfg, 7, out_dir=tmp_path / "plain")
    with Tracer() as tracer:
        traced = run_experiment(cfg, 7, out_dir=tmp_path / "traced")
    assert tracer.missing == []
    fired = {span for span, calls in tracer.calls.items() if calls > 0}
    assert set(WORKLOADS[workload]["spans"]) <= fired
    assert traced.csv_path.read_bytes() == plain.csv_path.read_bytes()
    assert plain.exit_code == 0


def test_tracer_restores_every_binding():
    before = (tiltlab.attack.tilt_sample_many, tiltlab.tilt.tilt_sample_many)
    with Tracer():
        assert tiltlab.attack.tilt_sample_many is not before[0]
        assert tiltlab.tilt.tilt_sample_many is not before[1]
    assert (tiltlab.attack.tilt_sample_many,
            tiltlab.tilt.tilt_sample_many) == before


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in Tracer().metrics(0.0).items()}
    emitted["trace.overhead_frac"] = "frac"
    assert declared == emitted


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    assert tail_percentile([1.0] * 10) == (0.0, 0.0)
    assert tail_percentile(list(range(60)))[0] == 50.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    pct, value = tail_percentile(list(range(20000)))
    assert pct == 99.9 and 19970 <= value <= 19990
