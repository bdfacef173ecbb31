"""The theta estimators' bootstrap stderr against their spread across seeds.

A stderr is calibrated when it matches the sd of theta_hat over
independent paths. With S = 40 seeds that sd has a relative standard
error of 1/sqrt(2 (S - 1)) = 0.113, so the median stderr must lie within
2.5 of those, a factor 1 -/+ 0.283, of the sd. The circular block
bootstrap that came before the cluster bootstrap read 0.33 of the sd for
runs and 0.69 for blocks on fig2-sv; the cluster bootstrap reads
0.86-0.99 on both models. The loop is scripts/stderr_calibration.py's
calibration(), which prints the same table for any model, n and seed
range.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from svextremes import (MaSvConfig, RngSeed, pareto, preset_config,
                        std_normal)

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(300, 340)
N = 100_000
BAND = 2.5 / math.sqrt(2 * (len(SEEDS) - 1))

MODELS = {
    "fig2-sv": preset_config("fig2-sv", RngSeed(0)).model,
    "ma-1-1": MaSvConfig(p=1.0, psi=(1.0, 1.0), eta=pareto(4.0),
                         z=std_normal()),
}


def load_script():
    spec = importlib.util.spec_from_file_location(
        "stderr_calibration", ROOT / "scripts" / "stderr_calibration.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", sorted(MODELS))
def test_median_stderr_matches_spread_across_seeds(name):
    # the script's loop: runs, blocks and intervals at its q-quantile
    script = load_script()
    assert (script.Q, script.BLOCK_LEN, script.RUN_LEN) == (0.995, 100, 10)
    for m, (theta, stderr) in script.calibration(MODELS[name], N,
                                                 SEEDS).items():
        ratio = float(np.median(stderr)) / float(np.std(theta, ddof=1))
        assert abs(ratio - 1.0) <= BAND, (m, ratio)
