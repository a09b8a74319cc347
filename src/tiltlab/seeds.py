"""Deterministic seed derivation for experiment suites.

Trial ``i`` of a run with master seed ``s`` uses
``SeedSequence(entropy=s, spawn_key=(i,))``, independent of worker count or
execution order. Sub-streams inside a trial spawn from that sequence with
fixed branch indices, so replaying a single row reproduces it bitwise.

``mech-bench`` trials are the exception: each takes a fixed count of
uniforms, so trial ``i`` at support ``k`` reads words ``[2ki, 2k(i+1))`` of
one PCG64 stream per run, seeded by
``SeedSequence(entropy=(s, experiments.MECH_STREAM_TAG))``, and reaches
them by ``advance`` instead of seeding a stream of its own.
"""

from __future__ import annotations

import numpy as np


def trial_seed_sequence(master_seed: int, trial: int) -> np.random.SeedSequence:
    if master_seed < 0 or trial < 0:
        raise ValueError("master_seed and trial must be nonnegative")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
