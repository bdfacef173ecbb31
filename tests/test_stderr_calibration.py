"""The theta estimators' bootstrap stderr against their spread across seeds.

A stderr is calibrated when it matches the sd of theta_hat over
independent paths. With S = 40 seeds that sd has a relative standard
error of 1/sqrt(2 (S - 1)) = 0.113, so the median stderr must lie within
2.5 of those, a factor 1 -/+ 0.283, of the sd. The circular block
bootstrap that came before the cluster bootstrap read 0.33 of the sd for
runs and 0.69 for blocks on fig2-sv; the cluster bootstrap reads
0.86-0.99 on both models. scripts/stderr_calibration.py prints the same
table for any model, n and seed range.
"""

import math

import numpy as np
import pytest

from svextremes import (MaSvConfig, RngSeed, blocks_theta, intervals_theta,
                        pareto, preset_config, runs_theta, simulate,
                        std_normal)

SEEDS = range(300, 340)
N = 100_000
Q = 0.995
BAND = 2.5 / math.sqrt(2 * (len(SEEDS) - 1))

MODELS = {
    "fig2-sv": preset_config("fig2-sv", RngSeed(0)).model,
    "ma-1-1": MaSvConfig(p=1.0, psi=(1.0, 1.0), eta=pareto(4.0),
                         z=std_normal()),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_median_stderr_matches_spread_across_seeds(name):
    calls = {"runs": lambda v, u: runs_theta(v, u, 10),
             "blocks": lambda v, u: blocks_theta(v, u, 100),
             "intervals": lambda v, u: intervals_theta(v, u)}
    theta = {m: [] for m in calls}
    stderr = {m: [] for m in calls}
    for s in SEEDS:
        v = np.abs(simulate(MODELS[name], N, seed=RngSeed(s)).x)
        u = float(np.quantile(v, Q))
        for m, call in calls.items():
            r = call(v, u)
            theta[m].append(r.theta_hat)
            stderr[m].append(r.stderr)
    for m in calls:
        ratio = float(np.median(stderr[m])) / float(np.std(theta[m], ddof=1))
        assert abs(ratio - 1.0) <= BAND, (m, ratio)
