"""Layer spans timed from outside the program.

A `Tracer` wraps the public functions of each layer while it is active and
restores them on exit. `from .x import f` copies the name `f` into the
importing module, so a function is patched under every `tiltlab` module
attribute that holds it, which is the binding its callers resolve. Methods
are patched on their class. The wrappers consume no randomness, so a traced
run writes the same CSV bytes as an untraced one.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (targets, work counts taken from the call's result)
SPANS = {
    "experiments.run_trial": (["tiltlab.experiments:run_trial"], {}),
    "families.make_family": (["tiltlab.families:make_family"], {}),
    "tilt.tilt": (["tiltlab.tilt:tilt"], {}),
    "tilt.tilt_sample_many": (["tiltlab.tilt:tilt_sample_many"],
                              {"points": len}),
    "attack.ThetaSampler.sample": (["tiltlab.attack:ThetaSampler.sample"], {}),
    "attack.run_attack_trial": (["tiltlab.attack:run_attack_trial"], {}),
    "mechanisms.Dataset.from_refs": (["tiltlab.mechanisms:Dataset.from_refs"],
                                     {"points": lambda ds: ds.n}),
    "mechanisms.mean": (["tiltlab.mechanisms:EmpiricalMean.__call__",
                         "tiltlab.mechanisms:ClampedMean.__call__",
                         "tiltlab.mechanisms:GaussianMechanism.__call__"], {}),
    "mechanisms.sparse_histogram": (
        ["tiltlab.mechanisms:sparse_histogram"],
        {"elements": lambda hist: len(hist.weights)}),
    "mechanisms.linf_distance": (
        ["tiltlab.mechanisms:HistogramVector.linf_distance"], {}),
    "mechanisms.reconstruct_slices_batch": (
        ["tiltlab.mechanisms:reconstruct_slices_batch"], {}),
    "mechanisms.project_to_H": (["tiltlab.mechanisms:project_to_H"], {}),
    "ada.run_ada_protocol": (["tiltlab.ada:run_ada_protocol"], {}),
    "ada.ScoreField.walk_max": (["tiltlab.ada:ScoreField.walk_max"], {}),
    "ada.gap": (["tiltlab.ada:gap"], {}),
    "ada.obfuscate_many": (["tiltlab.ada:obfuscate_many"], {}),
    "ada.StageQueryBatch.eval_mean": (["tiltlab.ada:StageQueryBatch.eval_mean"],
                                      {}),
    "structure.check_column_sums": (
        ["tiltlab.structure:check_column_sums"],
        {"subsets": lambda report: report.trials}),
    "structure.check_expanding": (["tiltlab.structure:check_expanding"], {}),
    "structure.check_regular": (["tiltlab.structure:check_regular"], {}),
    "structure.tilted_column_cov": (["tiltlab.structure:tilted_column_cov"], {}),
    "linalg.lambda_max_psd": (["tiltlab.linalg:lambda_max_psd"], {}),
    "linalg.power_iteration": (["tiltlab.linalg:power_iteration"],
                               {"converged": lambda out: int(out[1])}),
}

# spans whose self time (own duration minus that of child spans) is reported
SELF_TIMED = ("experiments.run_trial", "attack.run_attack_trial",
              "ada.run_ada_protocol", "ada.gap", "linalg.lambda_max_psd")

TRIAL_SPAN = "experiments.run_trial"
# a tail percentile is reported only with at least this many trials beyond it
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


class Tracer:
    """Context manager that times every span in `SPANS` while active."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.trial_durations = []
        self.missing = []
        self._open = []  # child time accumulated by each open span
        self._restore = []

    def __enter__(self):
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and name.split(".")[0] == "tiltlab"]
        for span, (targets, counts) in SPANS.items():
            for target in targets:
                self._patch(span, target, counts, modules)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, span, target, counts, modules):
        module_name, _, path = target.partition(":")
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            # the program renamed or removed this layer; its span stays empty
            self.missing.append(target)
            return
        if owner_name:
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__, counts))
            else:
                wrapped = self._wrap(span, raw, counts)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = self._wrap(span, raw, counts)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, name, raw))
                    setattr(mod, name, wrapped)

    def _wrap(self, span, fn, counts):
        clock = time.perf_counter
        keep = span == TRIAL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += took
                self.total[span] += took
                self.self_time[span] += took - child
                self.calls[span] += 1
                if keep:
                    self.trial_durations.append(took)
            for key, count in counts.items():
                self.counts[f"{span}.{key}"] += count(out)
            return out

        return traced

    def metrics(self, wall: float) -> dict:
        """Per-layer totals over one traced pass whose wall time was `wall`."""
        out = {}
        for span, (_, counts) in SPANS.items():
            out[f"{span}.s"] = (self.total[span], "s")
            if span in SELF_TIMED:
                out[f"{span}.self_s"] = (self.self_time[span], "s")
            out[f"{span}.calls"] = (self.calls[span], "count")
            for key in counts:
                out[f"{span}.{key}"] = (self.counts[f"{span}.{key}"], "count")
        calls = self.calls["linalg.power_iteration"]
        converged = self.counts["linalg.power_iteration.converged"]
        out["linalg.power_iteration.converged_frac"] = (
            converged / calls if calls else 0.0, "frac")
        durations = self.trial_durations
        out[f"{TRIAL_SPAN}.p50_s"] = (
            statistics.median(durations) if durations else 0.0, "s")
        pct, tail = tail_percentile(durations)
        out[f"{TRIAL_SPAN}.tail_pct"] = (pct, "%")
        out[f"{TRIAL_SPAN}.tail_s"] = (tail, "s")
        out["experiments.write_s"] = (wall - self.total[TRIAL_SPAN], "s")
        return out


def tail_percentile(durations) -> tuple:
    """(percentile, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it; (0.0, 0.0) when there is none."""
    n = len(durations)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(durations, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return 0.0, 0.0
