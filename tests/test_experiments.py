"""Config parsing, experiment suites, CSV determinism, and the CLI.

The heavy numerics live in the module tests; here the suites run at toy
scale and the checks are structural: byte-identical reruns across worker
counts and chunk sizes, replayable rows, error rows that flush instead of
killing the run, exit codes, and negative controls for the row gates of
every kind but ada-run.
"""

import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tiltlab
from tiltlab.attack import ThetaSampler, run_attack_trial, separation
from tiltlab.cli import main
from tiltlab.config import KINDS, ConfigError, ExperimentConfig, parse_config
from tiltlab.experiments import (
    CHUNK_VALUES,
    EXPERIMENT_KINDS,
    _ada_theta,
    replay_row,
    run_experiment,
    run_trial,
)
from tiltlab.families import make_family
from tiltlab.mechanisms import RECONSTRUCT_CAP, EmpiricalMean, release_rows
from tiltlab.structure import check_column_sums, check_expanding, \
    check_regular
from tiltlab.tilt import divergence_check
from tiltlab.seeds import trial_seed_sequence


def test_src_imports_only_stdlib_and_numpy():
    # every import in src/tiltlab, including those inside functions, is
    # from the standard library, numpy or tiltlab itself, and numpy is the
    # one runtime dependency; scipy serves the tests alone
    root = Path(__file__).resolve().parent.parent
    foreign = []
    for path in sorted((root / "src" / "tiltlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in modules
                        if name.partition(".")[0] not in
                        sys.stdlib_module_names | {"numpy"}]
    assert foreign == []
    tomllib = pytest.importorskip("tomllib")
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group()
            for dep in project["dependencies"]] == ["numpy"]


def test_import_skips_unused_scipy_modules():
    # scipy.special alone would more than double the import time (its
    # array-API shim pulls in numpy.f2py); no experiment kind, the CLI or
    # replay needs scipy, only a multi-worker run needs multiprocessing, and
    # only a draw split into lanes (tilt.LANE_DRAWS) or a regular check in
    # theta threads (structure.THETA_WORK) needs concurrent; one BLAS
    # thread leaves every CPU to theta threads, so both BLAS settings run
    configs = ["\n".join([f"kind = {kind}"] + [
        f"{key} = {value}" for key, value in TINY_SETTINGS[kind].items()])
        for kind in sorted(EXPERIMENT_KINDS)]
    code = ("import sys, tiltlab.experiments, tiltlab.cli\n"
            "from tiltlab.config import parse_config\n"
            "from tiltlab.experiments import run_trial\n"
            f"for text in {configs!r}:\n"
            "    row = run_trial(parse_config(text), 5, 0)[0]\n"
            "    assert row['status'] == 'ok', row\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
            "('scipy', 'multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(tiltlab.__file__))
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        env = dict(os.environ, PYTHONPATH=src, **blas)
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env=env, timeout=120).stdout
        assert out.strip() == "[]"


@pytest.mark.parametrize("section,prefixes", [
    ("ada-desk", ("max population compromised fraction", "desk point holds")),
    ("query-release", ("frozen C'=24",)),
])
def test_calibration_ada_desk_smoke(tmp_path, section, prefixes):
    # the script puts src/ on the path itself, from any working directory
    root = os.path.dirname(os.path.dirname(os.path.dirname(tiltlab.__file__)))
    script = os.path.join(root, "scripts", "calibration.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, script, "--section", section, "--trials", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for prefix in prefixes:
        assert any(line.startswith(prefix) for line in lines), prefix


ATTACK_RANGE_CASES = [
    ("d = 0", "line 2: d must be >= 1"),
    ("n = 0", "line 2: n must be >= 1"),
    ("fresh = 1", "line 2: fresh must be >= 2"),
    ("region = bogus", "line 2: region must be one of l2-sphere, l2-ball, "
                       "l1-surface, l1-ball, got 'bogus'"),
    ("radius = -1", "line 2: radius must be unset or finite and > 0"),
    ("radius = 0", "line 2: radius must be unset or finite and > 0"),
    ("radius = inf", "line 2: radius must be unset or finite and > 0"),
    ("radius = nan", "line 2: radius must be unset or finite and > 0"),
    ("mechanism = nope", "line 2: mechanism must be one of exact-mean, "
                         "clamped-mean, gaussian, got 'nope'"),
    ("epsilon = 0\nmechanism = gaussian",
     "line 2: epsilon must be finite and > 0"),
    ("epsilon = inf\nmechanism = gaussian",
     "line 2: epsilon must be finite and > 0"),
    ("delta = 2\nmechanism = gaussian", r"line 2: delta must be in \(0, 1\)"),
    ("delta = 0\nmechanism = gaussian", r"line 2: delta must be in \(0, 1\)"),
    ("bound = 0\nmechanism = clamped-mean", "line 2: bound must be > 0"),
    ("bound = nan\nmechanism = clamped-mean", "line 2: bound must be > 0"),
]


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("kind = mech-bench")
        assert cfg.kind == "mech-bench"
        assert cfg.trials == 1

    def test_fields_assigned(self):
        cfg = parse_config(
            "kind = attack-hypercube\nd = 32\nn = 4\nregion = l1-surface\n"
            "radius = 2.5\ntrials = 7"
        )
        assert cfg.d == 32
        assert cfg.n == 4
        assert cfg.region == "l1-surface"
        assert cfg.radius == 2.5
        assert cfg.trials == 7

    def test_kind_required(self):
        with pytest.raises(ConfigError, match="kind is required"):
            parse_config("")
        with pytest.raises(ConfigError, match="kind is required"):
            parse_config("trials = 3")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind 'bogus'"):
            parse_config("kind = bogus")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("kind = mech-bench\nd = abc")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3.*'dd'"):
            parse_config("kind = mech-bench\n\ndd = 4")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'd'"):
            parse_config("kind = mech-bench\nd = 4\nd = 5")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2.*key = value"):
            parse_config("kind = mech-bench\ntrials")

    def test_comments_and_blanks(self):
        cfg = parse_config(
            "# suite\n\nkind = mech-bench  # trailing\n  \ntrials = 2\n"
        )
        assert cfg.kind == "mech-bench"
        assert cfg.trials == 2

    def test_optional_fields_typed(self):
        cfg = parse_config("kind = ada-run\ntau = 0.25\nW = 4096")
        assert cfg.tau == 0.25
        assert isinstance(cfg.W, int) and cfg.W == 4096

    def test_int_accepts_hex(self):
        cfg = parse_config("kind = mech-bench\ntrials = 0x10")
        assert cfg.trials == 16

    def test_negative_trials(self):
        with pytest.raises(ConfigError, match="trials must be nonnegative"):
            parse_config("kind = mech-bench\ntrials = -1")

    @pytest.mark.parametrize("line,match", [
        ("d = 0", "line 2: d must be >= 1"),
        ("n_columns = 1", "line 2: n_columns must be >= 2"),
        ("n_subsets = 0", "line 2: n_subsets must be >= 1"),
        ("n_theta = 0", "line 2: n_theta must be >= 1"),
        ("k_subset = 0", r"line 2: k_subset must be in \[1, 1\.000\]"),
        ("k_subset = 2", r"line 2: k_subset must be in \[1, 1\.000\]"),
        ("radius = 0", "line 2: radius must be unset or finite and > 0"),
        ("radius = -1", "line 2: radius must be unset or finite and > 0"),
        ("radius = nan", "line 2: radius must be unset or finite and > 0"),
        ("eta_probe = nan", "line 2: eta_probe must be unset or finite"),
        ("eta_probe = inf", "line 2: eta_probe must be unset or finite"),
        ("eta_probe = -inf", "line 2: eta_probe must be unset or finite"),
        ("cap_scale = inf", "line 2: cap_scale must be finite and > 0"),
        ("cap_scale = nan", "line 2: cap_scale must be finite and > 0"),
        ("cap_scale = 0", "line 2: cap_scale must be finite and > 0"),
        ("cap_scale = -1", "line 2: cap_scale must be finite and > 0"),
        # no subset is larger than the n_columns = 2048 columns
        ("k_subset = 5000\ncap_scale = 1e6",
         r"line 2: k_subset must be in \[1, 2048\.000\]"),
    ])
    def test_structure_ranges(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"kind = verify-structure\n{line}")

    def test_structure_cap_uses_every_key(self):
        # 0.1 * 64 / ln 16 = 2.31 admits k = 2; n_columns = 256 does not
        parse_config("kind = verify-structure\nn_columns = 16\nk_subset = 2")
        with pytest.raises(ConfigError, match="k_subset must be in"):
            parse_config("kind = verify-structure\nk_subset = 2\n"
                         "cap_scale = 0.05\nn_columns = 16")

    def test_structure_range_edges_accepted(self):
        cfg = parse_config("kind = verify-structure\nradius = 1e-9\n"
                           "eta_probe = -1")
        assert (cfg.radius, cfg.eta_probe) == (1e-9, -1.0)

    def test_structure_ranges_only_for_structure(self):
        assert parse_config("kind = mech-bench\nn_theta = 0").n_theta == 0
        # only the attack, ada-run and verify-structure kinds read radius
        cfg = parse_config("kind = divergence-check\nradius = -1\n"
                           "eta_probe = nan")
        assert cfg.radius == -1.0 and math.isnan(cfg.eta_probe)

    @pytest.mark.parametrize("line,match", [
        ("d = 0", "line 2: d must be >= 1"),
        ("n = 0", "line 2: n must be >= 1"),
        ("m = 0", rf"line 2: m must be in \[1, {RECONSTRUCT_CAP}\]"),
        (f"m = {RECONSTRUCT_CAP + 1}",
         rf"line 2: m must be in \[1, {RECONSTRUCT_CAP}\]"),
        ("k = 0", "line 2: k must be a power of two"),
        ("k = 3", "line 2: k must be a power of two"),
        ("k = 48", "line 2: k must be a power of two"),
        ("alpha = 0", r"line 2: alpha must be in \(0, 1\)"),
        ("alpha = 1", r"line 2: alpha must be in \(0, 1\)"),
        ("mc_accuracy = 1", "line 2: mc_accuracy must be >= 2"),
        ("mc_gap = 1", "line 2: mc_gap must be >= 2"),
        ("W = 15", r"line 2: W must be >= n\^2 = 16"),
        ("tau = -1", "line 2: tau must be unset or finite and > 0"),
        ("tau = 0", "line 2: tau must be unset or finite and > 0"),
        ("tau = inf", "line 2: tau must be unset or finite and > 0"),
        ("tau = nan", "line 2: tau must be unset or finite and > 0"),
        ("radius = 0", "line 2: radius must be unset or finite and > 0"),
        ("radius = -1", "line 2: radius must be unset or finite and > 0"),
        ("radius = inf", "line 2: radius must be unset or finite and > 0"),
        ("C = 0", "line 2: C must be finite and > 0"),
        ("C = -2", "line 2: C must be finite and > 0"),
        ("theta_mode = bogus", "line 2: theta_mode must be sampled or frozen"),
        ("analyst = oracle", "line 2: analyst must be one of exact-mean, "
                             "gaussian-noised, sample-split, clamped-mean, "
                             "got 'oracle'"),
        ("sigma = -1\nanalyst = gaussian-noised",
         "line 2: sigma must be nonnegative, got -1.0"),
        ("sigma = nan\nanalyst = gaussian-noised",
         "line 2: sigma must be nonnegative, got nan"),
        ("folds = 0\nanalyst = sample-split",
         "line 2: folds must be positive, got 0"),
        ("bound = 0\nanalyst = clamped-mean",
         "line 2: bound must be positive, got 0.0"),
    ])
    def test_ada_ranges(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"kind = ada-run\n{line}")

    def test_analyst_settings_checked_only_for_their_analyst(self):
        cfg = parse_config("kind = ada-run\nsigma = -1\nfolds = 0\n"
                           "bound = 0\ntau = 1e-9\nC = 1e-9\n"
                           "theta_mode = frozen")
        assert (cfg.sigma, cfg.folds, cfg.bound) == (-1.0, 0, 0.0)
        for analyst in ("gaussian-noised", "sample-split", "clamped-mean"):
            parse_config(f"kind = ada-run\nanalyst = {analyst}\nsigma = 0\n"
                         "folds = 1\nbound = 1e-9")

    def test_sample_split_folds_at_most_n(self):
        # a fold with no points cannot answer its stages
        with pytest.raises(ConfigError,
                           match="line 6: folds must be <= n = 3 for "
                                 "sample-split, got 5"):
            parse_config("kind = ada-run\nm = 2\nk = 2\nd = 5\nn = 3\n"
                         "folds = 5\nanalyst = sample-split")
        cfg = parse_config("kind = ada-run\nm = 2\nk = 2\nd = 5\nn = 3\n"
                           "folds = 3\nanalyst = sample-split\n"
                           "mc_accuracy = 64\nmc_gap = 64")
        assert run_trial(cfg, 1, 0)[0]["status"] == "ok"
        # other analysts do not read folds
        parse_config("kind = ada-run\nn = 3\nfolds = 5")

    def test_ada_range_edges_accepted(self):
        cfg = parse_config(f"kind = ada-run\nd = 1\nn = 1\n"
                           f"m = {RECONSTRUCT_CAP}\nk = 1\nalpha = 0.999\n"
                           "mc_accuracy = 2\nmc_gap = 2\nW = 1")
        assert (cfg.m, cfg.k, cfg.W) == (RECONSTRUCT_CAP, 1, 1)
        assert parse_config("kind = ada-run\nn = 4\nW = 16").W == 16

    def test_ada_ranges_only_for_ada(self):
        assert parse_config("kind = mech-bench\nk = 3\nmc_gap = 1").k == 3

    @pytest.mark.parametrize("line,match", [
        ("support = 0", "line 2: support must be >= 1"),
        ("epsilon = 0", r"line 2: epsilon must be finite and > 0"),
        ("epsilon = -1", r"line 2: epsilon must be finite and > 0"),
        ("epsilon = inf", r"line 2: epsilon must be finite and > 0"),
        ("delta = 0", r"line 2: delta must be in \(0, 1\)"),
        ("delta = 1", r"line 2: delta must be in \(0, 1\)"),
        ("delta = nan", r"line 2: delta must be in \(0, 1\)"),
        ("mass = -1", "line 2: mass must be finite and >= 0"),
        ("mass = nan", "line 2: mass must be finite and >= 0"),
        ("universe = 4", "line 2: universe must be unset or >= support = 32"),
    ])
    def test_mech_bench_ranges(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"kind = mech-bench\n{line}")

    def test_mech_bench_range_edges_accepted(self, tmp_path):
        cfg = parse_config("kind = mech-bench\ntrials = 3\nsupport = 1\n"
                           "epsilon = 1e-9\ndelta = 0.999\nmass = 0\n"
                           "universe = 1")
        assert (cfg.support, cfg.mass, cfg.universe) == (1, 0.0, 1)
        assert run_experiment(cfg, 3, out_dir=tmp_path).exit_code == 0

    def test_mech_bench_ranges_only_for_mech_bench(self):
        cfg = parse_config("kind = ada-run\nsupport = 0\ndelta = 1")
        assert (cfg.support, cfg.delta) == (0, 1)

    @pytest.mark.parametrize("kind", ["attack-hypercube", "attack-random"])
    @pytest.mark.parametrize("line,match", ATTACK_RANGE_CASES)
    def test_attack_ranges(self, kind, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"kind = {kind}\n{line}")

    def test_attack_random_needs_two_columns(self):
        with pytest.raises(ConfigError,
                           match="line 2: n_columns must be >= 2"):
            parse_config("kind = attack-random\nn_columns = 1")
        cfg = parse_config("kind = attack-hypercube\nn_columns = 1")
        assert cfg.n_columns == 1

    @pytest.mark.parametrize("kind", ["attack-hypercube", "attack-random"])
    def test_attack_range_edges_accepted(self, kind, tmp_path):
        cfg = parse_config(f"kind = {kind}\ntrials = 2\nd = 1\nn = 1\n"
                           "fresh = 2\nn_columns = 2\nradius = 1e-9\n"
                           "region = l1-ball\nmechanism = gaussian\n"
                           "epsilon = 1e-9\ndelta = 0.999")
        assert (cfg.d, cfg.n, cfg.fresh, cfg.n_columns) == (1, 1, 2, 2)
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        assert res.aggregate["error_rows"] == 0

    @pytest.mark.parametrize("kind", ["attack-random", "verify-structure"])
    def test_column_softmax_radius_cap(self, kind, tmp_path):
        # radius * d past 1e300 could overflow the column softmax's logits;
        # at the cap every trial runs to its end
        with pytest.raises(ConfigError, match="line 2: radius \\* d must be "
                                              "<= 1e\\+300"):
            parse_config(f"kind = {kind}\nradius = 1e308\nd = 64")
        with pytest.raises(ConfigError, match="radius \\* d"):
            parse_config(f"kind = {kind}\nradius = 1e299\nd = 11")
        cfg = parse_config(f"kind = {kind}\nradius = 4e298\n" + "\n".join(
            f"{key} = {value}" for key, value in TINY_SETTINGS[kind].items()))
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        assert res.aggregate["error_rows"] == 0
        # the tensor tilt has no softmax to overflow
        parse_config("kind = attack-hypercube\nradius = 1e308\nd = 64")

    def test_attack_mechanism_settings_checked_only_for_their_mechanism(self):
        cfg = parse_config("kind = attack-hypercube\nepsilon = 0\n"
                           "delta = 1\nbound = 0")
        assert (cfg.epsilon, cfg.delta, cfg.bound) == (0.0, 1.0, 0.0)
        parse_config("kind = attack-random\nmechanism = clamped-mean\n"
                     "epsilon = 0\ndelta = 1\nbound = 1e-9")
        parse_config("kind = attack-random\nmechanism = gaussian\n"
                     "bound = 0")

    def test_attack_ranges_only_for_attack(self):
        cfg = parse_config("kind = mech-bench\nregion = bogus\nfresh = 1\n"
                           "mechanism = nope")
        assert (cfg.region, cfg.fresh, cfg.mechanism) == ("bogus", 1, "nope")
        # divergence-check reads only trials
        cfg = parse_config("kind = divergence-check\nd = 0\nn = 0\n"
                           "region = bogus\nmechanism = nope")
        assert (cfg.d, cfg.n) == (0, 0)


class TestAdaTheta:
    def test_frozen_same_across_trials(self):
        cfg = ExperimentConfig(kind="ada-run", theta_mode="frozen")
        a = _ada_theta(cfg, 3, 0, 24, 4)
        b = _ada_theta(cfg, 3, 5, 24, 4)
        assert np.array_equal(a, b)

    def test_sampled_varies_by_trial(self):
        cfg = ExperimentConfig(kind="ada-run", theta_mode="sampled")
        a = _ada_theta(cfg, 3, 0, 24, 4)
        b = _ada_theta(cfg, 3, 1, 24, 4)
        assert not np.array_equal(a, b)

    def test_modes_use_disjoint_streams(self):
        frozen = ExperimentConfig(kind="ada-run", theta_mode="frozen")
        sampled = ExperimentConfig(kind="ada-run", theta_mode="sampled")
        a = _ada_theta(frozen, 3, 0, 24, 4)
        b = _ada_theta(sampled, 3, 0, 24, 4)
        assert not np.array_equal(a, b)

    def test_surface_radius(self):
        cfg = ExperimentConfig(kind="ada-run", theta_mode="sampled")
        theta = _ada_theta(cfg, 3, 2, 24, 4)
        assert np.abs(theta).sum() == pytest.approx(24 / np.sqrt(4))

    def test_unknown_mode(self):
        cfg = ExperimentConfig(kind="ada-run", theta_mode="bogus")
        with pytest.raises(ValueError, match="theta_mode"):
            _ada_theta(cfg, 3, 0, 24, 4)


# per-kind toy-scale settings that finish in well under a second
TINY_SETTINGS = {
    "attack-hypercube": dict(d=8, n=2, fresh=50),
    "attack-random": dict(d=16, n_columns=32, n=2, fresh=100),
    "ada-run": dict(m=2, k=4, d=6, n=32, mc_accuracy=256, mc_gap=512),
    "mech-bench": dict(support=8),
    "verify-structure": dict(d=24, n_columns=512, n_theta=60,
                             n_subsets=300, k_subset=2, cap_scale=1.0),
    "divergence-check": {},
}


def tiny_config(kind, **overrides):
    return ExperimentConfig(kind=kind, **{**TINY_SETTINGS[kind], **overrides})


# per-kind (settings, master seed) that make every trial raise
ERROR_CASES = {
    "attack-hypercube": (dict(mechanism="nope"), 7),
    "attack-random": (dict(n_columns=1), 7),
    "ada-run": (dict(analyst="oracle"), 7),
    "mech-bench": (dict(mass=-1.0), 7),
    "verify-structure": (dict(d=0), 7),
    # divergence-check reads no setting a config can break; a negative
    # master seed cannot seed its trial stream
    "divergence-check": ({}, -1),
}


def test_kind_table_matches_config_kinds():
    # a kind added to one module only would parse but not run, or the reverse
    assert tuple(EXPERIMENT_KINDS) == KINDS
    assert set(TINY_SETTINGS) == set(ERROR_CASES) == set(KINDS)


class TestRunTrial:
    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_row_covers_header(self, kind):
        row = run_trial(tiny_config(kind), 7, 0)[0]
        assert list(row) == EXPERIMENT_KINDS[kind].header
        assert all(isinstance(v, str) for v in row.values())
        assert row["status"] == "ok"

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_error_row_covers_header(self, kind):
        # configs built in code skip the parse-time range checks
        overrides, seed = ERROR_CASES[kind]
        row, logs, tb = run_trial(tiny_config(kind, **overrides), seed, 0)
        assert list(row) == EXPERIMENT_KINDS[kind].header
        assert all(isinstance(v, str) for v in row.values())
        assert row["status"].startswith("error:")
        assert all(row[col] == "" for col in EXPERIMENT_KINDS[kind].columns)
        assert logs == []
        assert tb.startswith("Traceback (most recent call last):")

    def test_divergence_catalog_all_ok(self):
        cfg = tiny_config("divergence-check")
        for trial in range(12):
            row = run_trial(cfg, 7, trial)[0]
            assert row["status"] == "ok"
            assert float(row["abs_err"]) <= 1e-6

    def test_error_becomes_row(self):
        # a config built in code skips the parse-time range checks
        row, logs, tb = run_trial(tiny_config("mech-bench", mass=-1.0), 7, 0)
        assert row["status"].startswith("error:ValueError:")
        assert row["linf"] == ""
        assert logs == []
        assert tb.rstrip().splitlines()[-1].startswith("ValueError: ")

    def test_ada_emits_logs(self):
        row, logs, tb = run_trial(tiny_config("ada-run"), 7, 0)
        assert row["status"] == "ok" and tb is None
        # one line per stage plus the final summary
        assert len(logs) == 6 + 1
        assert all(line.startswith("trial=0 ") for line in logs)
        assert "gap=" in logs[-1]


def edit_attack_reports(monkeypatch, edit):
    """Run the real attack trial, then edit its report before the kind's
    row gate reads it."""
    def trial(*args, **kwargs):
        report = run_attack_trial(*args, **kwargs)
        edit(report)
        return report

    monkeypatch.setattr("tiltlab.experiments.run_attack_trial", trial)


class TestAttackGates:
    """Negative controls: scores moved just past a kind's row gate give an
    invariant-failed row, and scores moved to just inside it an ok row."""

    @pytest.mark.parametrize("ses, status", [
        (5.0, "ok"), (-5.0, "ok"),
        (7.0, "invariant-failed"), (-7.0, "invariant-failed"),
    ])
    def test_hypercube_fresh_mean_within_six_se(self, monkeypatch, ses,
                                                status):
        def shift(report):
            fresh = report.fresh_scores
            se = fresh.std(ddof=1) / math.sqrt(len(fresh))
            report.fresh_scores = fresh - fresh.mean() + ses * se

        edit_attack_reports(monkeypatch, shift)
        row = run_trial(tiny_config("attack-hypercube"), 7, 0)[0]
        assert float(row["fresh_mean"]) == pytest.approx(
            ses * float(row["fresh_se"]), rel=1e-9)
        assert row["status"] == status

    @pytest.mark.parametrize("ratio, status", [
        (1.0, "ok"), (1.2, "invariant-failed"),
    ])
    def test_random_second_moment_within_bound(self, monkeypatch, ratio,
                                               status):
        # the gate applies from 1e5 fresh points on
        cfg = tiny_config("attack-random", fresh=100_000)
        row = run_trial(cfg, 7, 0)[0]
        assert row["status"] == "ok"
        scale = math.sqrt(ratio * float(row["moment_bound"])
                          / float(row["fresh_second_moment"]))

        def stretch(report):
            report.fresh_scores = report.fresh_scores * scale

        edit_attack_reports(monkeypatch, stretch)
        row = run_trial(cfg, 7, 0)[0]
        assert float(row["fresh_second_moment"]) == pytest.approx(
            ratio * float(row["moment_bound"]), rel=1e-9)
        assert row["status"] == status

    @pytest.mark.parametrize("total, status", [
        (-1e-12, "ok"), (-1e-6, "invariant-failed"),
    ])
    def test_random_exact_mean_in_total_nonnegative(self, monkeypatch, total,
                                                    status):
        cfg = tiny_config("attack-random")
        assert cfg.mechanism == "exact-mean"

        def move(report):
            scores = report.in_scores
            report.in_scores = scores - scores.mean() + total / len(scores)

        edit_attack_reports(monkeypatch, move)
        row = run_trial(cfg, 7, 0)[0]
        assert float(row["in_total"]) == pytest.approx(total, abs=1e-11)
        assert row["status"] == status


def edit_releases(monkeypatch, edit):
    """Run the real batched release, then hand ``edit`` each row's input
    weights, its input mass and its writable released weights before the
    gate reads them."""
    def release(weights, target, noise, extra):
        block, background = release_rows(weights, target, noise, extra)
        for row_in, mass_in, row_out in zip(weights, target, block):
            edit(row_in, mass_in, row_out)
        return block, background

    monkeypatch.setattr("tiltlab.experiments.release_rows", release)


class TestMechBenchGates:
    """Negative controls for mech-bench: a release whose mass drifts, or
    whose sup-norm distance grows, just past the gate is invariant-failed,
    and the same release just inside the gate is ok."""

    @pytest.mark.parametrize("drift, status", [
        (0.5e-9, "ok"), (-0.5e-9, "ok"),
        (2e-9, "invariant-failed"), (-2e-9, "invariant-failed"),
    ])
    def test_mass_within_relative_1e9(self, monkeypatch, drift, status):
        def shift(weights_in, mass_in, weights):
            # on the largest weight, so a negative drift stays >= 0
            weights[weights.argmax()] += drift * max(1.0, mass_in)

        edit_releases(monkeypatch, shift)
        row = run_trial(tiny_config("mech-bench"), 7, 0)[0]
        mass_in = float(row["mass_in"])
        assert float(row["mass_out"]) - mass_in == pytest.approx(
            drift * max(1.0, mass_in), rel=1e-3)
        assert row["status"] == status

    @pytest.mark.parametrize("ratio, status", [
        (0.99, "ok"), (1.01, "invariant-failed"),
    ])
    def test_sup_norm_within_bound(self, monkeypatch, ratio, status):
        cfg = tiny_config("mech-bench")
        bound = float(run_trial(cfg, 7, 0)[0]["bound"])

        def stretch(weights_in, mass_in, weights):
            # element 0 lands ratio * bound above its input; the others
            # give back that mass in proportion to their weights, each by
            # far less than the bound, so the total holds
            moved = weights_in[0] + ratio * bound - weights[0]
            rest = weights[1:]
            rest -= moved * rest / rest.sum()
            weights[0] += moved

        edit_releases(monkeypatch, stretch)
        row = run_trial(cfg, 7, 0)[0]
        assert float(row["linf"]) == pytest.approx(ratio * bound, rel=1e-9)
        assert float(row["mass_out"]) == pytest.approx(
            float(row["mass_in"]), rel=1e-12)
        assert row["status"] == status


def edit_reports(monkeypatch, name, real, edit):
    """Run the real check ``name`` of tiltlab.experiments, then hand its
    report to ``edit``, whose return value the kind's row gate reads."""
    monkeypatch.setattr(f"tiltlab.experiments.{name}",
                        lambda *args, **kwargs: edit(real(*args, **kwargs)))


class TestDivergenceGate:
    """Negative control for divergence-check: an identity residual just
    past 1e-6 is invariant-failed, and one inside it is ok."""

    @pytest.mark.parametrize("abs_err, status", [
        (0.5e-6, "ok"), (2e-6, "invariant-failed"),
    ])
    def test_abs_err_within_1e6(self, monkeypatch, abs_err, status):
        edit_reports(monkeypatch, "divergence_check", divergence_check,
                     lambda r: dataclasses.replace(r, abs_err=abs_err))
        row = run_trial(tiny_config("divergence-check"), 7, 0)[0]
        assert float(row["abs_err"]) == abs_err
        assert row["status"] == status


class TestStructureGates:
    """Negative controls for verify-structure: a column-sum violation, a
    mean square just past 4 standard errors, or a fail fraction just past
    1% is invariant-failed, and the same report just inside the gate is
    ok; a run allows one invariant-failed row in 20 and no more."""

    def test_one_column_sum_violation(self, monkeypatch):
        cfg = tiny_config("verify-structure")
        assert run_trial(cfg, 7, 0)[0]["col_violations"] == "0"
        edit_reports(monkeypatch, "check_column_sums", check_column_sums,
                     lambda r: dataclasses.replace(r, violations=1))
        row = run_trial(cfg, 7, 0)[0]
        assert row["col_violations"] == "1"
        assert row["status"] == "invariant-failed"

    @pytest.mark.parametrize("ses, status", [
        (3.9, "ok"), (-3.9, "ok"),
        (4.1, "invariant-failed"), (-4.1, "invariant-failed"),
    ])
    def test_mean_square_within_four_se(self, monkeypatch, ses, status):
        def move(report):
            assert report.stderr_sq > 0
            return dataclasses.replace(
                report, mean_sq=report.expected_sq + ses * report.stderr_sq)

        edit_reports(monkeypatch, "check_column_sums", check_column_sums,
                     move)
        row = run_trial(tiny_config("verify-structure"), 7, 0)[0]
        assert float(row["col_mean_sq"]) - float(row["col_expected_sq"]) \
            == pytest.approx(ses * float(row["col_stderr_sq"]), rel=1e-9)
        assert row["status"] == status

    @pytest.mark.parametrize("frac, status", [
        (0.010, "ok"), (0.011, "invariant-failed"),
    ])
    @pytest.mark.parametrize("name, real, field, column", [
        ("check_expanding", check_expanding, "fail_fraction",
         "expanding_fail_frac"),
        ("check_regular", check_regular, "fraction_above",
         "regular_fail_frac"),
    ])
    def test_fail_fraction_within_one_percent(self, monkeypatch, name, real,
                                              field, column, frac, status):
        edit_reports(monkeypatch, name, real,
                     lambda r: dataclasses.replace(r, **{field: frac}))
        row = run_trial(tiny_config("verify-structure"), 7, 0)[0]
        assert float(row[column]) == frac
        assert row["status"] == status

    @pytest.mark.parametrize("bad, ok", [(1, True), (2, False)])
    def test_run_allows_one_failed_row_in_twenty(self, monkeypatch,
                                                 tmp_path, bad, ok):
        calls = []

        def violate_first(report):
            calls.append(report)  # one call per trial, in trial order
            return dataclasses.replace(
                report, violations=int(len(calls) <= bad))

        edit_reports(monkeypatch, "check_column_sums", check_column_sums,
                     violate_first)
        res = run_experiment(tiny_config("verify-structure", trials=20), 7,
                             out_dir=tmp_path)
        assert [row["status"] for row in res.rows] == \
            ["invariant-failed"] * bad + ["ok"] * (20 - bad)
        assert res.invariants_ok is ok
        assert res.exit_code == (0 if ok else 1)


def force_chunk(monkeypatch, kind, size):
    """Hand ``size`` trials (all of them for None) to each trials call of
    ``kind``, and return the list of the chunks its calls get."""
    record = EXPERIMENT_KINDS[kind]
    chunks = []

    def trials(cfg, master_seed, chunk):
        chunks.append(list(chunk))
        return record.trials(cfg, master_seed, chunk)

    chunk = record.chunk if size == "default" \
        else (lambda cfg: cfg.trials) if size is None else (lambda cfg: size)
    monkeypatch.setitem(EXPERIMENT_KINDS, kind, dataclasses.replace(
        record, trials=trials, chunk=chunk))
    return chunks


class TestChunks:
    """run_experiment hands contiguous chunks of trials to one call of the
    kind's trials function each; the bytes do not depend on the chunks."""

    # support 64 makes the default chunk CHUNK_VALUES // 64 trials, so 70
    # trials span three chunks; universe 100 spreads deficits over the
    # background, and delta 0.3 makes the truncated Laplace reject draws
    WIDE = dict(trials=70, support=64, universe=100, delta=0.3)

    def test_default_chunk_follows_the_value_budget(self):
        chunk = EXPERIMENT_KINDS["mech-bench"].chunk
        assert chunk(tiny_config("mech-bench", **self.WIDE)) == \
            CHUNK_VALUES // 64 < 70 // 2
        assert chunk(tiny_config("mech-bench", support=10 ** 6)) == 1
        for kind in sorted(set(EXPERIMENT_KINDS) - {"mech-bench"}):
            assert EXPERIMENT_KINDS[kind].chunk(tiny_config(kind)) == 1

    @pytest.mark.parametrize("size", [1, 7, "default", None])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bytes_equal_across_chunk_sizes(self, monkeypatch, tmp_path,
                                            size, workers):
        cfg = tiny_config("mech-bench", **self.WIDE)
        plain = run_experiment(cfg, 5, out_dir=tmp_path / "plain")
        force_chunk(monkeypatch, "mech-bench", size)
        res = run_experiment(cfg, 5, out_dir=tmp_path / "chunked",
                             workers=workers)
        assert res.csv_path.read_bytes() == plain.csv_path.read_bytes()
        assert res.manifest_path.read_bytes() == \
            plain.manifest_path.read_bytes()
        assert [row["status"] for row in res.rows] == ["ok"] * 70
        # a replayed row is the chunk of one
        assert replay_row(res.csv_path, 33)[2]

    @pytest.mark.parametrize("kind, trials, want", [
        ("mech-bench", 70, [range(0, 32), range(32, 64), range(64, 70)]),
        ("divergence-check", 3, [[0], [1], [2]]),
    ])
    def test_clean_run_calls_each_chunk_once(self, monkeypatch, tmp_path,
                                             kind, trials, want):
        overrides = self.WIDE if kind == "mech-bench" else {}
        cfg = tiny_config(kind, **{**overrides, "trials": trials})
        chunks = force_chunk(monkeypatch, kind, "default")
        res = run_experiment(cfg, 5, out_dir=tmp_path)
        # no fallback to single trials, and no trial computed twice
        assert chunks == [list(c) for c in want]
        assert res.exit_code == 0

    def test_failing_chunk_reruns_its_trials_alone(self, monkeypatch,
                                                   tmp_path):
        cfg = tiny_config("mech-bench", **self.WIDE)
        clean = run_experiment(cfg, 5, out_dir=tmp_path / "clean")
        record = EXPERIMENT_KINDS["mech-bench"]
        chunks = []

        def trials(cfg, master_seed, chunk):
            chunks.append(list(chunk))
            if 40 in chunk:
                raise RuntimeError("trial 40")
            return record.trials(cfg, master_seed, chunk)

        monkeypatch.setitem(EXPERIMENT_KINDS, "mech-bench",
                            dataclasses.replace(record, trials=trials))
        res = run_experiment(cfg, 5, out_dir=tmp_path / "failed")
        assert chunks == [list(range(32)), list(range(32, 64))] \
            + [[t] for t in range(32, 64)] + [list(range(64, 70))]
        assert res.rows[40]["status"] == "error:RuntimeError:trial 40"
        assert res.rows[:40] + res.rows[41:] == \
            clean.rows[:40] + clean.rows[41:]
        text = res.errors_path.read_text()
        assert text.startswith("trial=40 seed=5\nTraceback")
        assert text.count("Traceback (most recent call last):") == 1

    def test_gate_fails_only_its_own_row_of_a_chunk(self, monkeypatch,
                                                    tmp_path):
        cfg = tiny_config("mech-bench", **self.WIDE)
        rows_seen = []

        def drift_row_5(weights_in, mass_in, weights):
            rows_seen.append(None)
            if len(rows_seen) == 6:
                weights[weights.argmax()] += 2e-9 * max(1.0, mass_in)

        edit_releases(monkeypatch, drift_row_5)
        res = run_experiment(cfg, 5, out_dir=tmp_path)
        assert [row["status"] for row in res.rows] == \
            ["ok"] * 5 + ["invariant-failed"] + ["ok"] * 64


# the edge values of every key each kind reads, one override set per entry;
# floats at 1e-300 and 1e300, delta near 1, and every region, mechanism and
# analyst by name (folds > n is the one entry here that must not parse)
_FLOAT_EDGES = (1e-300, 1e300)
_ATTACK_EDGES = [
    {"d": 1}, {"n": 1}, {"fresh": 2},
    *({"radius": x} for x in _FLOAT_EDGES),
    *({"region": r} for r in ("l2-sphere", "l2-ball", "l1-surface",
                              "l1-ball")),
    *({"mechanism": "gaussian", key: x}
      for key in ("epsilon", "delta") for x in _FLOAT_EDGES),
    {"mechanism": "gaussian", "delta": 0.9999999},
    {"mechanism": "gaussian", "delta": 0.999999999999},
    *({"mechanism": "clamped-mean", "bound": x} for x in _FLOAT_EDGES),
    {"mechanism": "exact-mean"},
]
FUZZ_EDGES = {
    "attack-hypercube": _ATTACK_EDGES,
    "attack-random": [*_ATTACK_EDGES, {"n_columns": 2}],
    "ada-run": [
        {"d": 1}, {"n": 1}, {"m": 1}, {"k": 1}, {"theta_mode": "frozen"},
        {"mc_accuracy": 2, "mc_gap": 2}, {"W": 64},
        {"alpha": 1e-300}, {"alpha": 0.999999999999},
        *({key: x} for key in ("tau", "C", "radius") for x in _FLOAT_EDGES),
        {"analyst": "exact-mean"},
        *({"analyst": "gaussian-noised", "sigma": x}
          for x in (0.0, *_FLOAT_EDGES)),
        *({"analyst": "sample-split", "folds": f} for f in (1, 8, 9)),
        *({"analyst": "clamped-mean", "bound": x} for x in _FLOAT_EDGES),
    ],
    "mech-bench": [
        {"support": 1}, {"universe": 4}, {"universe": 10 ** 6},
        *({key: x} for key in ("epsilon", "delta", "mass")
          for x in _FLOAT_EDGES),
        {"delta": 0.9999999}, {"delta": 0.999999999999}, {"mass": 0.0},
    ],
    "verify-structure": [
        {"d": 1}, {"n_columns": 2}, {"n_subsets": 1}, {"n_theta": 1},
        {"k_subset": 2}, {"k_subset": 64, "cap_scale": 1e300},
        *({key: x} for key in ("cap_scale", "radius")
          for x in _FLOAT_EDGES),
        *({"eta_probe": x} for x in (-1e300, 0.0, *_FLOAT_EDGES)),
    ],
    "divergence-check": [{"trials": 1}],
}
# small shapes each edge lands on
FUZZ_BASE = {
    "attack-hypercube": dict(d=4, n=2, fresh=20),
    "attack-random": dict(d=4, n_columns=8, n=2, fresh=20),
    "ada-run": dict(m=2, k=2, d=3, n=8, mc_accuracy=32, mc_gap=32),
    "mech-bench": dict(support=4),
    "verify-structure": dict(d=8, n_columns=64, n_theta=8, n_subsets=16,
                             cap_scale=1.0),
    "divergence-check": {},
}


def fuzz_texts(kind, combos=24, seed=0):
    """Config texts of kind: each edge alone on the small base shape, then
    combos seeded draws of two to four edges at once (a later edge's keys
    win)."""
    edges = FUZZ_EDGES[kind]
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    picks = [[e] for e in edges] + [
        [edges[i] for i in rng.choice(len(edges), size=int(size),
                                      replace=False)]
        for size in rng.integers(2, 5, size=combos) if size <= len(edges)]
    for pick in picks:
        values = {"kind": kind, **FUZZ_BASE[kind]}
        for edge in pick:
            values.update(edge)
        yield "\n".join(f"{key} = {value}" for key, value in values.items())


def test_fuzz_texts_cover_every_name():
    # every region, mechanism and analyst the parser knows
    texts = "\n".join(t for kind in KINDS for t in fuzz_texts(kind))
    for name in ("l2-sphere", "l2-ball", "l1-surface", "l1-ball",
                 "exact-mean", "clamped-mean", "gaussian", "gaussian-noised",
                 "sample-split"):
        assert f"= {name}\n" in texts + "\n"


@pytest.mark.parametrize("kind", KINDS)
def test_every_parsed_config_runs_a_trial(kind):
    # the guard of "every config the parser accepts runs to its end": a text
    # either raises ConfigError or runs one trial to a row that is not an
    # error row (invariant-failed is a verdict, not a crash)
    for text in fuzz_texts(kind):
        try:
            cfg = parse_config(text)
        except ConfigError:
            continue
        row, _, tb = run_trial(cfg, 5, 0)
        assert not row["status"].startswith("error:"), (text, tb)


@pytest.mark.parametrize("delta", ["0.9999999", "0.999999999999"])
def test_mech_bench_with_delta_near_one_runs_to_its_end(delta, tmp_path):
    # a truncation v of 5e-7 and 5e-12 noise scales, inside which a
    # rejection draw lands about once in 2e6 and 2e11 tries
    cfg = parse_config(f"kind = mech-bench\ntrials = 100\nsupport = 32\n"
                       f"delta = {delta}")
    res = run_experiment(cfg, 1, out_dir=tmp_path)
    assert res.exit_code == 0
    assert [row["status"] for row in res.rows] == ["ok"] * 100


class TestRunExperiment:
    def test_zero_trials_header_only(self, tmp_path):
        cfg = tiny_config("mech-bench", trials=0)
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        assert res.exit_code == 0
        content = res.csv_path.read_bytes()
        header = EXPERIMENT_KINDS["mech-bench"].header
        assert content == (",".join(header) + "\r\n").encode()
        assert not res.log_path.exists()

    def test_csv_crlf_endings(self, tmp_path):
        cfg = tiny_config("mech-bench", trials=2)
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        content = res.csv_path.read_bytes()
        assert content.count(b"\r\n") == 3
        assert b"\n" not in content.replace(b"\r\n", b"")

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = tiny_config("attack-random", trials=3)
        res1 = run_experiment(cfg, 11, out_dir=tmp_path / "a")
        res2 = run_experiment(cfg, 11, out_dir=tmp_path / "b")
        assert res1.csv_path.read_bytes() == res2.csv_path.read_bytes()
        assert res1.manifest_path.read_text() == res2.manifest_path.read_text()

    def test_worker_count_invisible(self, tmp_path):
        cfg = tiny_config("divergence-check", trials=4)
        res1 = run_experiment(cfg, 11, out_dir=tmp_path / "a", workers=1)
        res3 = run_experiment(cfg, 11, out_dir=tmp_path / "b", workers=3)
        assert res1.csv_path.read_bytes() == res3.csv_path.read_bytes()

    @pytest.mark.parametrize("workers", [0, -4])
    def test_rejects_worker_count_below_one(self, tmp_path, workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="workers"):
            run_experiment(tiny_config("mech-bench", trials=2), 11,
                           out_dir=out, workers=workers)
        assert not out.exists()

    def test_seed_changes_rows(self, tmp_path):
        cfg = tiny_config("attack-hypercube", trials=2)
        res1 = run_experiment(cfg, 1, out_dir=tmp_path / "a")
        res2 = run_experiment(cfg, 2, out_dir=tmp_path / "b")
        assert res1.csv_path.read_bytes() != res2.csv_path.read_bytes()

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config("attack-hypercube", trials=3)
        res = run_experiment(cfg, 5, out_dir=tmp_path)
        manifest = json.loads(res.manifest_path.read_text())
        assert manifest["kind"] == "attack-hypercube"
        assert manifest["master_seed"] == 5
        assert manifest["rows"] == 3
        assert manifest["header"] == \
            EXPERIMENT_KINDS["attack-hypercube"].header
        assert manifest["invariants_ok"] is True
        assert manifest["config"]["d"] == 8
        assert "aggregate_separation" in manifest["aggregate"]
        # the same trials, scored from their reports rather than CSV rows
        family = make_family("hypercube", d=cfg.d)
        sampler = ThetaSampler(cfg.region, family.dim, 5.0 * math.sqrt(cfg.d))
        reports = [
            run_attack_trial(family, sampler, EmpiricalMean(), cfg.n,
                             cfg.fresh,
                             np.random.default_rng(trial_seed_sequence(5, t)))
            for t in range(3)
        ]
        assert manifest["aggregate"]["aggregate_separation"] == \
            separation([r.in_scores.sum() for r in reports],
                       [r.fresh_scores.mean() for r in reports])

    def test_ada_log_file(self, tmp_path):
        cfg = tiny_config("ada-run", trials=2)
        res = run_experiment(cfg, 5, out_dir=tmp_path)
        lines = res.log_path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("trial=0 ")) == 7
        assert sum(1 for l in lines if l.startswith("trial=1 ")) == 7

    def test_verify_structure_ok(self, tmp_path):
        cfg = tiny_config("verify-structure", trials=3)
        res = run_experiment(cfg, 11, out_dir=tmp_path)
        assert res.invariants_ok
        for row in res.rows:
            assert row["col_violations"] == "0"
            assert float(row["expanding_fail_frac"]) <= 0.01
            assert float(row["regular_fail_frac"]) <= 0.01

    def test_huge_radius_writes_only_ok_rows(self, tmp_path):
        # warnings as errors: an overflow warning would make an error row
        cfg = tiny_config("attack-hypercube", d=64, n=8, fresh=1000,
                          trials=2, radius=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_experiment(cfg, 1, out_dir=tmp_path)
        assert [row["status"] for row in res.rows] == ["ok", "ok"]
        assert not res.errors_path.exists()

    def test_errors_log_holds_each_traceback(self, tmp_path, monkeypatch):
        kind = "mech-bench"
        cfg = tiny_config(kind, trials=5)
        clean = run_experiment(cfg, 3, out_dir=tmp_path / "clean")
        assert not clean.errors_path.exists()
        record = EXPERIMENT_KINDS[kind]

        def trials(cfg, master_seed, chunk):
            odd = [t for t in chunk if t % 2]
            if odd:
                raise RuntimeError(f"odd trial {odd[0]}")
            return record.trials(cfg, master_seed, chunk)

        monkeypatch.setitem(EXPERIMENT_KINDS, kind,
                            dataclasses.replace(record, trials=trials))
        res = run_experiment(cfg, 3, out_dir=tmp_path / "failed")
        statuses = [row["status"] for row in res.rows]
        assert statuses == [
            f"error:RuntimeError:odd trial {t}" if t % 2 else row["status"]
            for t, row in enumerate(clean.rows)]
        csv_statuses = [line.rsplit(",", 1)[1] for line in
                        res.csv_path.read_text().splitlines()[1:]]
        assert csv_statuses == statuses
        assert res.errors_path == tmp_path / "failed" / f"{kind}.errors.log"
        text = res.errors_path.read_text()
        heads = [line for line in text.splitlines()
                 if line.startswith("trial=")]
        assert heads == ["trial=1 seed=3", "trial=3 seed=3"]
        assert text.count("Traceback (most recent call last):") == 2
        assert text.index("RuntimeError: odd trial 1") \
            < text.index("trial=3 seed=3") \
            < text.index("RuntimeError: odd trial 3")
        assert "in trial" in text  # the frame that raised
        # a clean rerun into the same directory leaves no errors log
        monkeypatch.setitem(EXPERIMENT_KINDS, kind, record)
        rerun = run_experiment(cfg, 3, out_dir=tmp_path / "failed")
        assert not rerun.errors_path.exists()
        assert rerun.csv_path.read_bytes() == clean.csv_path.read_bytes()

    def test_rerun_without_log_lines_removes_stale_log(self, tmp_path):
        # every ada-run trial logs its stages, an error row logs nothing
        cfg = tiny_config("ada-run", trials=1)
        first = run_experiment(cfg, 5, out_dir=tmp_path)
        assert first.log_path.exists()
        rerun = run_experiment(dataclasses.replace(cfg, analyst="oracle"), 5,
                               out_dir=tmp_path)
        assert rerun.rows[0]["status"].startswith("error:ValueError:analyst")
        assert rerun.log_path == first.log_path
        assert not rerun.log_path.exists()

    def test_error_row_fails_invariants(self, tmp_path):
        cfg = tiny_config("mech-bench", trials=2, support=0)
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        assert res.exit_code == 1
        assert not res.invariants_ok
        assert res.aggregate["error_rows"] == 2
        # the CSV still has one line per trial
        assert res.csv_path.read_bytes().count(b"\r\n") == 3

    @pytest.mark.parametrize("kind,trials,bad,ok", [
        ("verify-structure", 19, 1, False),
        ("verify-structure", 20, 1, True),
        ("verify-structure", 40, 2, True),
        ("verify-structure", 40, 3, False),
        ("mech-bench", 20, 1, False),
    ])
    def test_failure_allowance(self, tmp_path, monkeypatch, kind, trials, bad,
                               ok):
        record = EXPERIMENT_KINDS[kind]

        def some_bad(cfg, master_seed, chunk):
            return [(dict.fromkeys(record.columns, 0), t >= bad, [])
                    for t in chunk]

        monkeypatch.setitem(EXPERIMENT_KINDS, kind,
                            dataclasses.replace(record, trials=some_bad))
        res = run_experiment(ExperimentConfig(kind=kind, trials=trials), 3,
                             out_dir=tmp_path)
        assert res.aggregate["ok_rows"] == trials - bad
        assert res.invariants_ok is ok
        assert res.exit_code == (0 if ok else 1)

    def test_replay_row_matches(self, tmp_path):
        cfg = tiny_config("attack-random", trials=3)
        res = run_experiment(cfg, 9, out_dir=tmp_path)
        stored, recomputed, match = replay_row(res.csv_path, 2)
        assert match
        assert stored == recomputed
        assert stored["trial"] == "2"

    def test_replay_row_out_of_range(self, tmp_path):
        cfg = tiny_config("mech-bench", trials=1)
        res = run_experiment(cfg, 9, out_dir=tmp_path)
        with pytest.raises(IndexError, match="out of range"):
            replay_row(res.csv_path, 1)

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = ExperimentConfig(kind="nope")
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment(cfg, 0, out_dir=tmp_path)


def write_config(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


class TestCli:
    def test_run_and_replay(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 2\nsupport = 8")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--seed", "5",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "invariants ok" in captured
        assert (out / "mech-bench.csv").exists()
        assert (out / "manifest.json").exists()

        assert main(["replay", "--csv", str(out / "mech-bench.csv"),
                     "--row", "1"]) == 0
        assert "match" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["file", "below-file"])
    def test_unusable_out_is_one_line(self, tmp_path, capsys, monkeypatch,
                                      target):
        # an existing file, or a path below one, is no output directory:
        # exit 2 with one line before any trial runs
        trials = []
        monkeypatch.setattr("tiltlab.experiments.run_trials",
                            lambda *args: trials.append(args))
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 2")
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" if target == "file" else "/dev/null/x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and trials == []
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cannot write output: ")
        assert str(out) in lines[0]

    def test_run_reports_errors_log(self, tmp_path, capsys, monkeypatch):
        def trials(cfg, master_seed, chunk):
            raise RuntimeError("no trial")

        monkeypatch.setitem(EXPERIMENT_KINDS, "mech-bench", dataclasses.replace(
            EXPERIMENT_KINDS["mech-bench"], trials=trials))
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 2")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr().out
        assert f"wrote {out / 'mech-bench.errors.log'}" in captured
        assert "INVARIANTS FAILED" in captured

    def test_run_names_only_logs_it_wrote(self, tmp_path, capsys,
                                          monkeypatch):
        settings = "".join(f"{key} = {value}\n"
                           for key, value in TINY_SETTINGS["ada-run"].items())
        cfg = write_config(tmp_path, f"kind = ada-run\ntrials = 1\n{settings}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert f"wrote {out / 'ada-run.log'}" in capsys.readouterr().out

        def trials(cfg, master_seed, chunk):
            raise RuntimeError("no trial")

        monkeypatch.setitem(EXPERIMENT_KINDS, "ada-run", dataclasses.replace(
            EXPERIMENT_KINDS["ada-run"], trials=trials))
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert "ada-run.log" not in capsys.readouterr().out
        assert not (out / "ada-run.log").exists()

    def test_run_invariant_failure_exit_code(self, tmp_path, capsys):
        # parses, then genuinely fails the regular check: at d = 16 the
        # tilted column covariances of a 64-column matrix are far from
        # regular (regular_fail_frac 0.85)
        cfg = write_config(tmp_path, "kind = verify-structure\ntrials = 1\n"
                           "d = 16\nn_columns = 64\nn_subsets = 100\n"
                           "n_theta = 20\nradius = 5")
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 1
        assert "INVARIANTS FAILED" in capsys.readouterr().out

    def test_default_verify_structure_runs_clean(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = verify-structure")
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0
        assert "invariants ok" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        "d = 0", "n_columns = 1", "n_subsets = 0", "n_theta = 0",
        "k_subset = 0", "k_subset = 2", "radius = 0", "radius = -1",
        "eta_probe = nan", "cap_scale = inf", "cap_scale = nan",
        "cap_scale = 0", "cap_scale = -1", "k_subset = 5000\ncap_scale = 1e6",
    ])
    def test_bad_structure_config_exit_code(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"kind = verify-structure\n{line}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "k = 3", f"m = {RECONSTRUCT_CAP + 1}", "alpha = 0", "n = 0", "d = 0",
        "mc_gap = 1", "tau = -1", "radius = 0", "radius = -1", "C = 0",
        "theta_mode = bogus",
        "analyst = oracle", "sigma = -1\nanalyst = gaussian-noised",
        "folds = 0\nanalyst = sample-split",
        "bound = 0\nanalyst = clamped-mean",
    ])
    def test_bad_ada_config_exit_code(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"kind = ada-run\n{line}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "support = 0", "epsilon = 0", "delta = 1", "universe = 4", "mass = -1",
    ])
    def test_bad_mech_bench_config_exit_code(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"kind = mech-bench\n{line}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["attack-hypercube", "attack-random"])
    @pytest.mark.parametrize("line", [line for line, _ in ATTACK_RANGE_CASES])
    def test_bad_attack_config_exit_code(self, tmp_path, capsys, kind, line):
        cfg = write_config(tmp_path, f"kind = {kind}\n{line}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "kind = attack-random\nd = 64\nn_columns = 2048\nradius = 1e308",
        "kind = ada-run\nm = 2\nk = 2\nd = 5\nn = 3\n"
        "analyst = sample-split\nfolds = 5",
    ], ids=["radius-overflow", "folds-over-n"])
    def test_unrunnable_config_exit_code(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_attack_random_columns_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = attack-random\nn_columns = 1")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,env,message", [
        (["--seed", "-1"], None, "master seed must be >= 0, got -1"),
        ([], "-1", "master seed must be >= 0, got -1"),
        ([], "abc", "TILTLAB_SEED must be an integer, got 'abc'"),
        (["--workers", "0"], None, "--workers must be >= 1, got 0"),
        (["--workers", "-4"], None, "--workers must be >= 1, got -4"),
    ], ids=["flag-negative", "env-negative", "env-not-integer",
            "workers-zero", "workers-negative"])
    def test_bad_seed_exit_code(self, tmp_path, capsys, monkeypatch, flags,
                                env, message):
        if env is None:
            monkeypatch.delenv("TILTLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("TILTLAB_SEED", env)
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = bogus")
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.txt")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"kind = mech-bench\n\xff\xfe = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read config:")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_replay_missing_csv_exit_code(self, tmp_path, capsys):
        assert main(["replay", "--csv", str(tmp_path / "absent.csv"),
                     "--row", "0"]) == 2
        assert "replay failed" in capsys.readouterr().err

    def test_replay_row_out_of_range_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["replay", "--csv", str(out / "mech-bench.csv"),
                     "--row", "5"]) == 2

    def test_replay_unknown_manifest_key_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["bogus"] = 1
        manifest_path.write_text(json.dumps(manifest))
        assert main(["replay", "--csv", str(out / "mech-bench.csv"),
                     "--row", "0"]) == 2
        err = capsys.readouterr().err
        assert "replay failed" in err and "bogus" in err

    @pytest.mark.parametrize("kind,key,value", [
        ("verify-structure", "k_subset", 5),
        ("ada-run", "k", 3),
        ("ada-run", "tau", -1.0),
        ("ada-run", "theta_mode", "bogus"),
        ("attack-hypercube", "region", "bogus"),
        ("attack-hypercube", "mechanism", "nope"),
        ("attack-random", "n_columns", 1),
        ("attack-random", "radius", -1.0),
        ("ada-run", "radius", 0.0),
        ("ada-run", "radius", -1.0),
        ("verify-structure", "radius", -1.0),
        ("attack-random", "radius", 1e308),
        ("verify-structure", "radius", 1e308),
        ("ada-run", "folds", {"analyst": "sample-split", "folds": 33}),
        ("verify-structure", "eta_probe", math.nan),
        ("verify-structure", "cap_scale", math.inf),
        ("verify-structure", "cap_scale", math.nan),
        ("verify-structure", "cap_scale", 0.0),
        ("verify-structure", "cap_scale", -1.0),
        # a dict value sets further keys: k_subset over the 512 columns
        ("verify-structure", "k_subset", {"k_subset": 5000,
                                          "cap_scale": 1e6}),
    ])
    def test_replay_out_of_range_manifest_exit_code(self, tmp_path, capsys,
                                                    kind, key, value):
        cfg = tiny_config(kind)
        out = tmp_path / "out"
        run_experiment(cfg, 4, out_dir=out)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(value if isinstance(value, dict)
                                  else {key: value})
        manifest_path.write_text(json.dumps(manifest))
        assert main(["replay", "--csv", str(out / f"{kind}.csv"),
                     "--row", "0"]) == 2
        captured = capsys.readouterr()
        assert "replay failed: manifest config out of range" in captured.err
        assert key in captured.err
        assert "MISMATCH" not in captured.out

    @pytest.mark.parametrize("key,value,message", [
        ("support", "4", "support must be int, got '4'"),
        ("mass", None, "mass must be float, got None"),
        ("trials", True, "trials must be int, got True"),
        ("epsilon", False, "epsilon must be float, got False"),
        ("n", 4.0, "n must be int, got 4.0"),
        ("out", 3, "out must be str, got 3"),
        ("universe", "8", "universe must be int or None, got '8'"),
        ("kind", "bogus", "unknown kind 'bogus'"),
        ("kind", None, "kind must be str, got None"),
    ])
    def test_replay_wrongly_typed_manifest_exit_code(self, tmp_path, capsys,
                                                     key, value, message):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["replay", "--csv", str(out / "mech-bench.csv"),
                     "--row", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("replay failed: manifest config "
                                       f"does not match: {message}")
        assert captured.err.count("\n") == 1
        assert "MISMATCH" not in captured.out

    def test_replay_accepts_int_for_float_and_none_for_optional(self,
                                                                tmp_path):
        res = run_experiment(tiny_config("mech-bench"), 4, out_dir=tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["universe"] is None
        manifest["config"]["mass"] = int(manifest["config"]["mass"])
        manifest_path.write_text(json.dumps(manifest))
        assert replay_row(res.csv_path, 0)[2]

    def test_replay_other_version_manifest_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "0.0.1"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["replay", "--csv", str(out / "mech-bench.csv"),
                     "--row", "0"]) == 2
        captured = capsys.readouterr()
        assert "replay failed:" in captured.err
        assert "'0.0.1'" in captured.err
        assert repr(tiltlab.__version__) in captured.err
        assert "MISMATCH" not in captured.out

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        monkeypatch.setenv("TILTLAB_SEED", "42")
        out = tmp_path / "env"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        rows = (out / "mech-bench.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "42"

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        monkeypatch.setenv("TILTLAB_SEED", "42")
        out = tmp_path / "flag"
        main(["run", "--config", cfg, "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        rows = (out / "mech-bench.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "7"

    def test_env_out_default(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        monkeypatch.setenv("TILTLAB_OUT", str(tmp_path / "envout"))
        main(["run", "--config", cfg])
        capsys.readouterr()
        assert (tmp_path / "envout" / "mech-bench.csv").exists()
