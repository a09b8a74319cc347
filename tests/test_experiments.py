"""Config parsing, experiment suites, CSV determinism, and the CLI.

The heavy numerics live in the module tests; here the suites run at toy
scale and the checks are structural: byte-identical reruns across worker
counts, replayable rows, error rows that flush instead of killing the run,
and exit codes.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tiltlab
from tiltlab.attack import ThetaSampler, aggregate_separation, run_attack_trial
from tiltlab.cli import main
from tiltlab.config import ConfigError, ExperimentConfig, parse_config
from tiltlab.experiments import (
    CSV_HEADERS,
    _ada_theta,
    replay_row,
    run_experiment,
    run_trial,
)
from tiltlab.families import make_family
from tiltlab.mechanisms import RECONSTRUCT_CAP, EmpiricalMean
from tiltlab.seeds import trial_seed_sequence


def test_import_skips_unused_scipy_modules():
    # scipy.stats and scipy.optimize cost most of the import time and no
    # experiment kind needs them
    code = ("import sys, tiltlab.experiments; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(tiltlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=120).stdout
    assert out.strip() == "[]"


def test_calibration_ada_desk_smoke(tmp_path):
    # the script puts src/ on the path itself, from any working directory
    root = os.path.dirname(os.path.dirname(os.path.dirname(tiltlab.__file__)))
    script = os.path.join(root, "scripts", "calibration.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, script, "--section", "ada-desk", "--trials", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("max population compromised fraction")
               for line in lines)
    assert any(line.startswith("desk point holds") for line in lines)


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

    def test_structure_ranges_only_for_structure(self):
        assert parse_config("kind = mech-bench\nn_theta = 0").n_theta == 0

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


def tiny_config(kind, **overrides):
    """Per-kind toy-scale settings that finish in well under a second."""
    base = {
        "attack-hypercube": dict(d=8, n=2, fresh=50),
        "attack-random": dict(d=16, n_columns=32, n=2, fresh=100),
        "ada-run": dict(m=2, k=4, d=6, n=32, mc_accuracy=256, mc_gap=512),
        "mech-bench": dict(support=8),
        "verify-structure": dict(d=24, n_columns=512, n_theta=60,
                                 n_subsets=300, k_subset=2, cap_scale=1.0),
        "divergence-check": {},
    }[kind]
    base.update(overrides)
    return ExperimentConfig(kind=kind, **base)


class TestRunTrial:
    @pytest.mark.parametrize("kind", sorted(CSV_HEADERS))
    def test_row_covers_header(self, kind):
        row, _ = run_trial(tiny_config(kind), 7, 0)
        assert list(row) == CSV_HEADERS[kind]
        assert all(isinstance(v, str) for v in row.values())
        assert row["status"] == "ok"

    @pytest.mark.parametrize("kind,overrides,seed", [
        ("attack-hypercube", dict(mechanism="nope"), 7),
        ("attack-random", dict(n_columns=1), 7),
        ("ada-run", dict(analyst="oracle"), 7),
        ("mech-bench", dict(mass=-1.0), 7),
        ("verify-structure", dict(d=0), 7),
        # divergence-check reads no setting a config can break; a negative
        # master seed cannot seed its trial stream
        ("divergence-check", {}, -1),
    ])
    def test_error_row_covers_header(self, kind, overrides, seed):
        # configs built in code skip the parse-time range checks
        row, logs = run_trial(tiny_config(kind, **overrides), seed, 0)
        assert list(row) == CSV_HEADERS[kind]
        assert all(isinstance(v, str) for v in row.values())
        assert row["status"].startswith("error:")
        assert all(row[col] == "" for col in CSV_HEADERS[kind][2:-1])
        assert logs == []

    def test_divergence_catalog_all_ok(self):
        cfg = tiny_config("divergence-check")
        for trial in range(12):
            row, _ = run_trial(cfg, 7, trial)
            assert row["status"] == "ok"
            assert float(row["abs_err"]) <= 1e-6

    def test_error_becomes_row(self):
        # a config built in code skips the parse-time range checks
        row, logs = run_trial(tiny_config("mech-bench", mass=-1.0), 7, 0)
        assert row["status"].startswith("error:ValueError:")
        assert row["linf"] == ""
        assert logs == []

    def test_ada_emits_logs(self):
        row, logs = run_trial(tiny_config("ada-run"), 7, 0)
        assert row["status"] == "ok"
        # one line per stage plus the final summary
        assert len(logs) == 6 + 1
        assert all(line.startswith("trial=0 ") for line in logs)
        assert "gap=" in logs[-1]


class TestRunExperiment:
    def test_zero_trials_header_only(self, tmp_path):
        cfg = tiny_config("mech-bench", trials=0)
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        assert res.exit_code == 0
        content = res.csv_path.read_bytes()
        assert content == (",".join(CSV_HEADERS["mech-bench"]) + "\r\n").encode()
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
        assert manifest["header"] == CSV_HEADERS["attack-hypercube"]
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
            aggregate_separation(reports)

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

    def test_error_row_fails_invariants(self, tmp_path):
        cfg = tiny_config("mech-bench", trials=2, support=0)
        res = run_experiment(cfg, 3, out_dir=tmp_path)
        assert res.exit_code == 1
        assert not res.invariants_ok
        assert res.aggregate["error_rows"] == 2
        # the CSV still has one line per trial
        assert res.csv_path.read_bytes().count(b"\r\n") == 3

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
        "k_subset = 0", "k_subset = 2",
    ])
    def test_bad_structure_config_exit_code(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"kind = verify-structure\n{line}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "k = 3", f"m = {RECONSTRUCT_CAP + 1}", "alpha = 0", "n = 0", "d = 0",
        "mc_gap = 1", "tau = -1", "C = 0", "theta_mode = bogus",
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

    def test_bad_attack_random_columns_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = attack-random\nn_columns = 1")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: line 2:" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind = bogus")
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.txt")]) == 2
        assert "cannot read config" in capsys.readouterr().err

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
    ])
    def test_replay_out_of_range_manifest_exit_code(self, tmp_path, capsys,
                                                    kind, key, value):
        cfg = tiny_config(kind)
        out = tmp_path / "out"
        run_experiment(cfg, 4, out_dir=out)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["replay", "--csv", str(out / f"{kind}.csv"),
                     "--row", "0"]) == 2
        captured = capsys.readouterr()
        assert "replay failed: manifest config out of range" in captured.err
        assert key in captured.err
        assert "MISMATCH" not in captured.out

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

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, "kind = mech-bench\ntrials = 1")
        monkeypatch.setenv("TILTLAB_SEED", "forty")
        with pytest.raises(SystemExit, match="TILTLAB_SEED"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
