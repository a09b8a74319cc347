"""The mutant table: one-line changes to src/tiltlab that a named test must
catch.

Each row names a file under src/tiltlab, an exact text that occurs once in
src/, the text that replaces it, and the pytest node id that must fail on
the mutated tree.  An equivalent mutant, one that no test at this scale can
tell apart from the program, names no test and says why instead.

scripts/mutants.py applies each row to a copy of the tree and runs its test
(a few minutes for the table, so not part of Tier-1);
tests/test_mutants.py checks in Tier-1 that every old text still occurs
exactly once, so a rename fails there instead of leaving a row that mutates
nothing.

Sources: the seven mutants of the ROADMAP pilot (the first seven rows), and
the mutants that earlier changes tried by hand and listed in CHANGES.md.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str  # under src/tiltlab
    old: str  # exact text, found exactly once in src/
    new: str
    test: str  # pytest node id that must fail on the mutant ("" if equivalent)
    equivalent: str = ""  # why no test can tell the mutant apart


EXP = "tests/test_experiments.py"
MECH = "tests/test_mechanisms.py"
STRUCT = "tests/test_structure.py"
TILT = "tests/test_tilt.py"
ADA = "tests/test_ada.py"

MUTANTS = (
    # the ROADMAP pilot
    Mutant("attack.py", "EQUAL_ULPS = 4\n", "EQUAL_ULPS = 4000\n",
           "tests/test_attack.py::TestSeparationStatistic"),
    Mutant("mechanisms.py", "best_f - 0.5 * box", "best_f - 0.25 * box",
           f"{MECH}::TestCertifiedStop::"
           "test_matches_uncertified_loop_at_heavy_compromise"),
    Mutant("experiments.py", "abs(fresh_mean) <= 6 * fresh_se",
           "abs(fresh_mean) <= 60 * fresh_se",
           f"{EXP}::TestAttackGates::test_hypercube_fresh_mean_within_six_se"),
    Mutant("experiments.py", "second <= 1.1 * bound", "second <= 2.0 * bound",
           f"{EXP}::TestAttackGates::test_random_second_moment_within_bound"),
    Mutant("structure.py", "rng.random(trials) ** (1.0 / d)",
           "rng.random(trials) ** (1.0 / (d + 1))",
           f"{STRUCT}::TestRegular::test_thetas_are_uniform_in_the_ball"),
    Mutant("ada.py", "math.log(2.0 * n_queries", "math.log(4.0 * n_queries",
           f"{ADA}::TestRunProtocol::test_accuracy_flag_negative_control"),
    Mutant("mechanisms.py", "RECONSTRUCT_STOP_ULPS = 18\n",
           "RECONSTRUCT_STOP_ULPS = 18e9\n",
           f"{MECH}::TestCertifiedStop::"
           "test_warm_start_just_above_the_floor_still_steps"),
    # the row gates of every kind but ada-run
    Mutant("experiments.py", "<= 1e-9 * np.maximum(1.0, np.abs(mass_in))",
           "<= 1e-8 * np.maximum(1.0, np.abs(mass_in))",
           f"{EXP}::TestMechBenchGates::test_mass_within_relative_1e9"),
    Mutant("experiments.py", "& (linf <= bound)", "& (linf <= 1.1 * bound)",
           f"{EXP}::TestMechBenchGates::test_sup_norm_within_bound"),
    Mutant("experiments.py", "report.abs_err <= 1e-6",
           "report.abs_err <= 1e-5",
           f"{EXP}::TestDivergenceGate::test_abs_err_within_1e6"),
    Mutant("experiments.py", "<= 4 * col.stderr_sq", "<= 5 * col.stderr_sq",
           f"{EXP}::TestStructureGates::test_mean_square_within_four_se"),
    Mutant("experiments.py", "expanding.fail_fraction <= 0.01",
           "expanding.fail_fraction <= 0.02",
           f"{EXP}::TestStructureGates::test_fail_fraction_within_one_percent"),
    Mutant("experiments.py", "regular <= 0.01", "regular <= 0.02",
           f"{EXP}::TestStructureGates::test_fail_fraction_within_one_percent"),
    # the mech-bench run stream
    Mutant("experiments.py", "advance(trials.start * 2 * s)",
           "advance(trials.start * s)",
           f"{EXP}::TestMechBenchStream::test_rows_are_slices_of_the_run_stream"),
    # structure numerics
    Mutant("structure.py", "rng.integers(0, j + 1, size=count)",
           "rng.integers(0, j, size=count)",
           f"{STRUCT}::TestSampleKSubsets::test_all_subsets_uniform"),
    Mutant("structure.py", "b = a * np.sqrt(p)", "b = a * p",
           f"{STRUCT}::TestTiltedColumnCov::test_matches_direct_product"),
    # threads and BLAS
    Mutant("tilt.py", "(1 if _blas_control() else _BLAS_THREADS)",
           "(_BLAS_THREADS)",
           f"{STRUCT}::TestRegularThreads::"
           "test_threads_whatever_the_environment_when_blas_is_held"),
    Mutant("tilt.py", "blas[1](blas_threads)", "blas[1](1)",
           f"{STRUCT}::TestRegularThreads::test_ranges_hold_blas_at_one_thread"),
    # the sampler's chunks, ties and lanes
    Mutant("tilt.py", "plus.flat[tied] = keyed < lo",
           "plus.flat[tied] = keyed <= lo",
           f"{TILT}::TestChunkSampler::test_forced_ties_are_a_53_bit_comparison"),
    Mutant("tilt.py", "random_raw() >> (64 - TIE_BITS)",
           "random_raw() >> (63 - TIE_BITS)",
           f"{TILT}::TestChunkSampler::test_forced_ties_are_a_53_bit_comparison"),
    Mutant("tilt.py", "advance(first * block * words)",
           "advance(first * block * words + 1)",
           f"{TILT}::TestLanes::test_blocks_match_one_block_draw"),
    Mutant("tilt.py", "np.less(chunks, hi, out=plus)",
           "np.less_equal(chunks, hi, out=plus)", "",
           "a chunk equal to hi is a tie, and the tie branch overwrites its "
           "bit, so <= and < give the same v-bits"),
    # the ADA protocol
    Mutant("ada.py", "np.cumsum(neg, axis=1, dtype=_U64) - neg",
           "np.cumsum(neg, axis=1, dtype=_U64)",
           f"{ADA}::TestObfuscation::test_masks_match_five_round_reference"),
    Mutant("ada.py", "_digest(np.ascontiguousarray(answers))",
           "_digest(answers)",
           f"{ADA}::TestRunProtocol::test_strided_answers_hash_like_their_bytes"),
    Mutant("ada.py", "pop_comp = run_max[n:] > tau",
           "pop_comp = run_max[n:] >= tau", "",
           "a population point's running score equals tau with probability "
           "zero, so > and >= compromise the same points"),
    # exact sums and the release
    Mutant("mechanisms.py", "bits - 106", "bits - 116",
           f"{MECH}::TestRowFsums::test_midpoints_and_specials"),
    Mutant("mechanisms.py", "    out[pick, top] = patch\n", "",
           f"{MECH}::TestSparseHistogram::test_mass_exact_at_tiny_and_large_totals"),
)
