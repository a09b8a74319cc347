"""The benchmark's workload table and the layer spans each one must fire.

Each workload is one `tiltlab` config, run through
`tiltlab.experiments.run_experiment` with one worker and the workload seed
as master seed. `trials` sets the length of one pass over the workload; a
run repeats passes until its time is spent. The README says why each
workload was chosen.
"""

WORKLOADS = {
    "attack-hypercube": {
        "config": """\
kind = attack-hypercube
trials = 1
d = 64
n = 8
fresh = 100000
mechanism = exact-mean
""",
        "spans": [
            "experiments.run_trial", "families.make_family", "tilt.tilt",
            "tilt.tilt_sample_many", "attack.ThetaSampler.sample",
            "attack.run_attack_trial", "mechanisms.Dataset.from_refs",
            "mechanisms.mean",
        ],
    },
    "ada-desk": {
        "config": """\
kind = ada-run
trials = 20
m = 6
k = 64
d = 32
n = 384
""",
        "spans": [
            "experiments.run_trial", "families.make_family", "tilt.tilt",
            "tilt.tilt_sample_many", "attack.ThetaSampler.sample",
            "ada.run_ada_protocol", "ada.ScoreField.walk_max", "ada.gap",
            "ada.obfuscate_many", "ada.StageQueryBatch.eval_mean",
            "mechanisms.reconstruct_slices_batch", "mechanisms.project_to_H",
        ],
    },
    "structure": {
        # k_subset = 1 because the default 3 is over the cap at d = 64,
        # n_columns = 2048; d = 128 would trip the per-row 1% bound by chance
        "config": """\
kind = verify-structure
trials = 4
d = 64
n_columns = 2048
k_subset = 1
""",
        "spans": [
            "experiments.run_trial", "families.make_family",
            "structure.check_column_sums", "structure.check_expanding",
            "structure.check_regular", "structure.tilted_column_cov",
            "linalg.lambda_max_psd", "linalg.power_iteration",
        ],
    },
    "histogram": {
        "config": """\
kind = mech-bench
trials = 2000
support = 32
""",
        "spans": [
            "experiments.run_trial", "mechanisms.sparse_histogram",
            "mechanisms.linf_distance",
        ],
    },
}
