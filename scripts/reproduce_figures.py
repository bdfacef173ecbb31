"""Regenerate the four reference-figure experiments.

Writes one subdirectory per preset (path.csv, figure.csv, extremogram.csv,
report.json). Each figure.csv lists the exceedance marks, one `t,x,side`
row per value of x below its empirical 1% quantile (side `low`) or above
its 99% quantile (side `high`); the plots in the write-up draw path.csv
and mark these rows. Prints per preset the two thresholds, the mark
counts and any analysis errors.

Usage: python scripts/reproduce_figures.py [--seed 42] [--out figs]
"""

import argparse
import json

from svextremes import PRESET_NAMES, RngSeed
from svextremes.experiments import preset_config, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="figs")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    for name in PRESET_NAMES:
        cfg = preset_config(name, RngSeed(args.seed))
        report = run_experiment(cfg, f"{args.out}/{name}",
                                threads=args.threads)
        summary = {}
        for r in report.results:
            if r["analysis"] == "figure":
                for key in ("threshold_low", "threshold_high",
                            "marks_low", "marks_high"):
                    summary[key] = r[key]
            if "error" in r:
                summary.setdefault("errors", []).append(r["error"])
        print(name, json.dumps(summary))


if __name__ == "__main__":
    main()
