"""Do the theta estimators' bootstrap standard errors match their spread?

Simulates one path per seed, estimates the extremal index of |X| at its
Q-quantile with the blocks (BLOCK_LEN), runs (RUN_LEN) and intervals
estimators, and prints, per estimator, the mean of theta_hat, the median
bootstrap stderr, the sd of theta_hat across the seeds and the ratio of
the last two. With S
seeds the sd has a relative standard error of about 1/sqrt(2 (S - 1)),
printed below the table; a calibrated stderr gives a ratio within a few
of those of 1.

Usage (from the repository root, with src on PYTHONPATH):
    python scripts/stderr_calibration.py [--model fig2-sv] [--n 100000]
        [--seeds 300:340]

--model is a preset name (fig1-left, fig1-right, fig2-garch, fig2-sv) or
a model JSON file as the CLI's --model reads it; --seeds is a half-open
range first:stop.
"""

import argparse
import json
import math

import numpy as np

import svextremes as sv

Q = 0.995
BLOCK_LEN = 100
RUN_LEN = 10


def load_model(name: str):
    if name in sv.PRESET_NAMES:
        return sv.preset_config(name, sv.RngSeed(0)).model
    with open(name) as f:
        return sv.config_from_json(json.load(f))


def calibration(model, n: int, seeds) -> dict:
    """estimator -> (theta_hat per seed, stderr per seed)."""
    calls = {"runs": lambda v, u: sv.runs_theta(v, u, RUN_LEN),
             "blocks": lambda v, u: sv.blocks_theta(v, u, BLOCK_LEN),
             "intervals": lambda v, u: sv.intervals_theta(v, u)}
    out = {name: ([], []) for name in calls}
    for s in seeds:
        v = np.abs(sv.simulate(model, n, seed=sv.RngSeed(s)).x)
        u = float(np.quantile(v, Q))
        for name, call in calls.items():
            r = call(v, u)
            out[name][0].append(r.theta_hat)
            out[name][1].append(r.stderr)
    return {name: (np.asarray(th), np.asarray(se))
            for name, (th, se) in out.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="fig2-sv")
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seeds", default="300:340")
    args = ap.parse_args()
    first, stop = (int(s) for s in args.seeds.split(":"))
    seeds = range(first, stop)

    table = calibration(load_model(args.model), args.n, seeds)
    print(f"{args.model}, n = {args.n}, seeds {first}-{stop - 1}, "
          f"q = {Q}")
    print("| estimator | mean | median bootstrap se | sd across seeds "
          "| se / sd |")
    print("|---|---|---|---|---|")
    for name, (th, se) in table.items():
        sd = float(np.std(th, ddof=1))
        med = float(np.median(se))
        print(f"| {name} | {np.mean(th):.3f} | {med:.4f} | {sd:.4f} "
              f"| {med / sd:.2f} |")
    print(f"relative se of the sd: {1 / math.sqrt(2 * (len(seeds) - 1)):.3f}")


if __name__ == "__main__":
    main()
