"""Config parsing, experiment suites, CSV determinism, and the CLI.

The heavy numerics live in the module tests; here the suites run at toy
scale and the checks are structural: byte-identical reruns across worker
counts, replayable rows, error rows that flush instead of killing the run,
and exit codes.
"""

import json
import os

import numpy as np
import pytest

from tiltlab.cli import main
from tiltlab.config import ConfigError, ExperimentConfig, parse_config
from tiltlab.experiments import (
    CSV_HEADERS,
    _ada_theta,
    replay_row,
    run_experiment,
    run_trial,
)


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("kind = mech-bench")
        assert cfg.kind == "mech-bench"
        assert cfg.trials == 1

    def test_fields_assigned(self):
        cfg = parse_config(
            "kind = attack-hypercube\nd = 32\nn = 4\nregion = l1-sphere\n"
            "radius = 2.5\ntrials = 7"
        )
        assert cfg.d == 32
        assert cfg.n == 4
        assert cfg.region == "l1-sphere"
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

    def test_divergence_catalog_all_ok(self):
        cfg = tiny_config("divergence-check")
        for trial in range(12):
            row, _ = run_trial(cfg, 7, trial)
            assert row["status"] == "ok"
            assert float(row["abs_err"]) <= 1e-6

    def test_error_becomes_row(self):
        row, logs = run_trial(tiny_config("mech-bench", support=0), 7, 0)
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
        cfg = write_config(tmp_path,
                           "kind = mech-bench\ntrials = 1\nsupport = 0")
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 1
        assert "INVARIANTS FAILED" in capsys.readouterr().out

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
