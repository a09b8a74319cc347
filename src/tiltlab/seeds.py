"""Deterministic seed derivation for experiment suites.

Trial ``i`` of a run with master seed ``s`` always uses
``SeedSequence(entropy=s, spawn_key=(i,))``, independent of worker count or
execution order. Sub-streams inside a trial spawn from that sequence with
fixed branch indices, so replaying a single row reproduces it bitwise.
"""

from __future__ import annotations

import numpy as np


def trial_seed_sequence(master_seed: int, trial: int) -> np.random.SeedSequence:
    if master_seed < 0 or trial < 0:
        raise ValueError("master_seed and trial must be nonnegative")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
