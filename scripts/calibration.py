"""One-off calibration runs whose outputs freeze tuning constants.

Three sections, each backing a constant or desk operating point that the
library and the acceptance suite rely on:

  query-release   C' = mechanisms.QUERY_RELEASE_CPRIME (histogram mass rule)
  eta-probe       structure.ETA_PROBE_SCALE (expanding-check probe level)
  ada-desk        the staged-protocol desk point: m=6, k=64, d=32, alpha=1/8,
                  C=2, under-sampled n = m*k = 384, over-sampled n = 3840

Run `python3 scripts/calibration.py` (optionally --section and --trials) to
reproduce.  The frozen record below is the output of the default invocation
(master seed 1234) that fixed the constants.

    $ python3 scripts/calibration.py
    == query-release calibration (d=512, N=4096, alpha=0.5, eps=1.0, delta=1e-06) ==
    C'= 6: mass n=   331.6  passes 100/100  worst err ratio 0.1557
    C'=12: mass n=   663.1  passes 100/100  worst err ratio 0.0883
    C'=24: mass n=  1326.3  passes 100/100  worst err ratio 0.0460
    frozen C'=24.0: every trial passes with err <= 0.05 * (alpha sqrt(d))
    == eta-probe calibration (r = 0.3 sqrt(ln N), 2000 thetas/matrix) ==
    d= 64 N=2048: probe=0.06lnN fail 0.0000-0.0000 | 0.2lnN fail 1.0000-1.0000 | regular>2 fail 0.0000-0.0005
    d=128 N=4096: probe=0.06lnN fail 0.0000-0.0000 | 0.2lnN fail 1.0000-1.0000 | regular>2 fail 0.0050-0.0095
    frozen ETA_PROBE_SCALE=0.06: worst matrix fail fraction 0.0000 (<= 0.01)
    == ada-desk calibration (m=6, k=64, d=32, alpha=0.125, C=2.0, tau=2.7191) ==
    under n=384:  gap>=alpha/2 in 60/60  gaps 0.2786/0.2952/0.3178 (min/med/max)
    over  n=3840: gap<=2alpha  in 60/60  gaps 0.0394/0.0429/0.0460 (min/med/max)
    max population compromised fraction over all runs/stages: 0.0000
    desk point holds: under-gaps clear alpha/2, over-gaps stay below 2alpha
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tiltlab.ada import builtin_analysts, run_ada_protocol
from tiltlab.attack import ThetaSampler
from tiltlab.experiments import THETA_STREAM_TAG
from tiltlab.families import make_family
from tiltlab.mechanisms import (
    QUERY_RELEASE_CPRIME,
    HistogramVector,
    histogram_query_release,
    required_mass,
)
from tiltlab.seeds import trial_seed_sequence
from tiltlab.structure import ETA_PROBE_SCALE, check_expanding, check_regular


def query_release_section(master_seed: int, trials: int) -> None:
    d, n_cols, alpha, eps, delta = 512, 4096, 0.5, 1.0, 1e-6
    support = 64
    budget = alpha * math.sqrt(d)
    print(f"== query-release calibration (d={d}, N={n_cols}, alpha={alpha}, "
          f"eps={eps}, delta={delta}) ==")
    for cprime in (6.0, 12.0, 24.0):
        n_req = required_mass(eps, delta, alpha, cprime)
        passes = 0
        worst = 0.0
        for t in range(trials):
            mat_seq, rng_seq = trial_seed_sequence(master_seed, t).spawn(2)
            rng = np.random.default_rng(rng_seq)
            fam = make_family(
                "matrix-columns", d=d, n_columns=n_cols,
                seed=int(mat_seq.generate_state(1, dtype=np.uint64)[0]),
            )
            ids = rng.choice(n_cols, size=support, replace=False)
            raw = rng.uniform(0.2, 1.0, size=support)
            raw *= n_req / raw.sum()
            hist = HistogramVector(
                weights={int(u): float(w) for u, w in zip(ids, raw)},
                universe_size=n_cols,
            )
            yhat, _ = histogram_query_release(
                fam, hist, epsilon=eps, delta=delta, alpha=alpha, rng=rng,
                cprime=cprime,
            )
            dense = np.zeros(n_cols)
            for u, w in hist.weights.items():
                dense[u] = w
            truth = fam.matrix.astype(float) @ dense / hist.total
            ratio = float(np.linalg.norm(yhat - truth)) / budget
            worst = max(worst, ratio)
            passes += ratio <= 1.0
        print(f"C'={cprime:2.0f}: mass n={n_req:8.1f}  passes {passes:3d}/"
              f"{trials}  worst err ratio {worst:.4f}")
        if cprime == QUERY_RELEASE_CPRIME:
            verdict = "every trial passes" if passes == trials \
                else f"ONLY {passes}/{trials} PASS"
            print(f"frozen C'={cprime}: {verdict} with err <= "
                  f"{worst:.2f} * (alpha sqrt(d))")


def eta_probe_section(master_seed: int, matrices: int, thetas: int) -> None:
    print(f"== eta-probe calibration (r = 0.3 sqrt(ln N), "
          f"{thetas} thetas/matrix) ==")
    worst_frozen = 0.0
    for d, n_cols in ((64, 2048), (128, 4096)):
        r = 0.3 * math.sqrt(math.log(n_cols))
        frozen = ETA_PROBE_SCALE * math.log(n_cols)
        rejected = 0.2 * math.log(n_cols)
        fails_frozen, fails_rej, fails_reg = [], [], []
        for t in range(matrices):
            mat_seq, rng_seq = trial_seed_sequence(master_seed, t).spawn(2)
            rng = np.random.default_rng(rng_seq)
            fam = make_family(
                "matrix-columns", d=d, n_columns=n_cols,
                seed=int(mat_seq.generate_state(1, dtype=np.uint64)[0]),
            )
            rep = check_expanding(fam.matrix, r, frozen, thetas, rng)
            fails_frozen.append(rep.fail_fraction)
            fails_rej.append(float(np.mean(rep.values < rejected)))
            reg = check_regular(fam.matrix, r, thetas, rng)
            fails_reg.append(reg.fraction_above)
        worst_frozen = max(worst_frozen, max(fails_frozen))
        print(f"d={d:3d} N={n_cols}: probe=0.06lnN fail "
              f"{min(fails_frozen):.4f}-{max(fails_frozen):.4f} | 0.2lnN fail "
              f"{min(fails_rej):.4f}-{max(fails_rej):.4f} | regular>2 fail "
              f"{min(fails_reg):.4f}-{max(fails_reg):.4f}")
    ok = "<= 0.01" if worst_frozen <= 0.01 else "EXCEEDS 0.01"
    print(f"frozen ETA_PROBE_SCALE={ETA_PROBE_SCALE}: worst matrix fail "
          f"fraction {worst_frozen:.4f} ({ok})")


def ada_desk_section(master_seed: int, trials: int) -> None:
    m, k, d, alpha, c_const = 6, 64, 32, 0.125, 2.0
    n_under = m * k
    n_over = 10 * n_under
    fam = make_family("tensor", m=m, k=k, d=d)
    sampler = ThetaSampler("l1-surface", fam.dim, fam.dim / math.sqrt(k))
    analyst_factory = builtin_analysts()["exact-mean"]
    tau = c_const * math.sqrt(d * math.log(1.0 / alpha)) / m
    print(f"== ada-desk calibration (m={m}, k={k}, d={d}, alpha={alpha}, "
          f"C={c_const}, tau={tau:.4f}) ==")
    under_gaps, over_gaps, max_pop = [], [], 0.0
    for t in range(trials):
        theta_rng = np.random.default_rng(np.random.SeedSequence(
            entropy=(master_seed, THETA_STREAM_TAG), spawn_key=(t,)))
        theta = sampler.sample(theta_rng)
        for n, out in ((n_under, under_gaps), (n_over, over_gaps)):
            tr = run_ada_protocol(
                analyst_factory(), fam, theta, n=n,
                seed=trial_seed_sequence(master_seed, t if n == n_under
                                         else trials + t),
                alpha=alpha, C=c_const,
            )
            out.append(tr.final_gap.value)
            max_pop = max(max_pop,
                          max(r.pop_compromised_frac for r in tr.stages))
    under = np.array(under_gaps)
    over = np.array(over_gaps)
    print(f"under n={n_under}:  gap>=alpha/2 in "
          f"{int((under >= alpha / 2).sum())}/{trials}  gaps "
          f"{under.min():.4f}/{np.median(under):.4f}/{under.max():.4f} "
          f"(min/med/max)")
    print(f"over  n={n_over}: gap<=2alpha  in "
          f"{int((over <= 2 * alpha).sum())}/{trials}  gaps "
          f"{over.min():.4f}/{np.median(over):.4f}/{over.max():.4f} "
          f"(min/med/max)")
    print(f"max population compromised fraction over all runs/stages: "
          f"{max_pop:.4f}")
    good = ((under >= alpha / 2).mean() >= 0.05
            and (over <= 2 * alpha).mean() >= 0.95 and max_pop <= 0.05)
    print("desk point holds: under-gaps clear alpha/2, over-gaps stay below "
          "2alpha" if good else "DESK POINT DOES NOT HOLD")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--section", default="all",
                        choices=["all", "query-release", "eta-probe",
                                 "ada-desk"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--trials", type=int, default=None,
                        help="override per-section trial counts")
    args = parser.parse_args()
    t0 = time.time()
    if args.section in ("all", "query-release"):
        query_release_section(args.seed, args.trials or 100)
    if args.section in ("all", "eta-probe"):
        eta_probe_section(args.seed, matrices=5,
                          thetas=args.trials or 2000)
    if args.section in ("all", "ada-desk"):
        ada_desk_section(args.seed, args.trials or 60)
    print(f"[{time.time() - t0:.1f}s]", file=sys.stderr)


if __name__ == "__main__":
    main()
