"""Command line interface.

Global flags (before the subcommand) pick the master seed, the output
directory, and the worker thread count; the thread count never changes
numerical results, only wall time. Model configs are JSON files in the
same schema the library's config_to_json produces. Subcommands write
their outputs under --out and echo a JSON summary to stdout. The path
and theory commands run the experiment analysis of the same name from
experiments.ANALYSES on one spec; they write no path.csv or report.json.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from pathlib import Path as FsPath

import click
import numpy as np

from . import estimators as est
from .experiments import (ANALYSES, AnalysisInputs, ExperimentConfig,
                          PRESET_NAMES, _json_text, _write_json,
                          preset_config, run_experiment)
from .models import config_from_json, path_to_csv, simulate, DEFAULT_BURN_IN
from .rng import RngSeed

_SERIES = click.Choice(["x", "x_abs", "sigma"])


def _echo_json(obj) -> None:
    click.echo(_json_text(obj))


def _load_model(path: str):
    try:
        with open(path) as fh:
            return config_from_json(json.load(fh))
    except (OSError, ValueError) as e:
        raise click.ClickException(f"bad model config {path}: {e}")


def _read_path_csv(path: str):
    """The sigma and x columns of a path.csv, found by their header names.

    Every row must hold a number in both columns: an empty or malformed
    field, a short row or a file without data rows is rejected.
    """
    try:
        with open(path) as fh:
            header = [name.strip() for name in fh.readline().split(",")]
            missing = [c for c in ("sigma", "x") if c not in header]
            if missing:
                raise ValueError(f"missing column {', '.join(missing)}")
            cols = (header.index("sigma"), header.index("x"))
            with warnings.catch_warnings():
                # loadtxt warns on a file without data rows, rejected below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2)
        if data.shape[0] == 0:
            raise ValueError("no data rows")
    except (OSError, ValueError) as e:
        raise click.ClickException(f"bad path csv {path}: {e}")
    sigma, x = np.ascontiguousarray(data.T)
    return sigma, x


def _path_inputs(ctx, model, input_csv, n, burn_in) -> AnalysisInputs:
    """A stored path.csv or a fresh simulation, as analysis inputs."""
    if (model is None) == (input_csv is None):
        raise click.ClickException("give exactly one of --model or --input")
    if input_csv is not None:
        sigma, x = _read_path_csv(input_csv)
        return replace(ctx.obj, sigma=sigma, x=x)
    cfg = _load_model(model)
    path = _sim(cfg, n, ctx, burn_in)
    return replace(ctx.obj, sigma=path.sigma, x=path.x, model=cfg,
                   burn_in=burn_in)


def _analysis(kind: str, spec: dict, run: AnalysisInputs) -> dict:
    try:
        return ANALYSES[kind](spec, run)
    except ValueError as e:
        raise click.ClickException(str(e))


def _sim(cfg, n, ctx, burn_in):
    try:
        return simulate(cfg, n, burn_in=burn_in, seed=ctx.obj.seed)
    except ValueError as e:
        raise click.ClickException(str(e))


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed (unsigned 64-bit).")
@click.option("--out", type=click.Path(file_okay=False), default="svx-out",
              show_default=True, help="Output directory.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Monte Carlo worker threads; do not affect results.")
@click.pass_context
def main(ctx, seed, out, threads):
    """Simulation and tail/cluster analysis for SV models."""
    try:
        rs = RngSeed(seed)
    except ValueError as e:
        raise click.ClickException(str(e))
    if threads < 1:
        raise click.ClickException("threads must be >= 1")
    # the inputs every analysis shares; a command adds its path and model
    ctx.obj = AnalysisInputs(None, None, None, rs, FsPath(out), threads)


@main.command("simulate")
@click.option("--model", required=True, type=click.Path(exists=True),
              help="Model config JSON.")
@click.option("--n", type=int, required=True, help="Path length.")
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN,
              show_default=True)
@click.pass_context
def simulate_cmd(ctx, model, n, burn_in):
    """Simulate a path and write it as CSV."""
    cfg = _load_model(model)
    path = _sim(cfg, n, ctx, burn_in)
    csv = ctx.obj.artifact("path.csv")
    path_to_csv(path, csv)
    _echo_json({"path_csv": str(csv), "n": path.n,
                "sigma_max": float(path.sigma.max()),
                "x_absmax": float(np.abs(path.x).max())})


@main.command()
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--input", "input_csv", type=click.Path(exists=True),
              default=None, help="Existing path.csv instead of simulating.")
@click.option("--n", type=int, default=10_000, show_default=True)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN,
              show_default=True)
@click.option("--k", type=int, required=True, help="Number of top order "
              "statistics.")
@click.option("--series", type=_SERIES, default="x_abs", show_default=True)
@click.pass_context
def hill(ctx, model, input_csv, n, burn_in, k, series):
    """Hill estimate of the tail index of a series."""
    run = _path_inputs(ctx, model, input_csv, n, burn_in)
    out = _analysis("hill", {"k": k, "series": series}, run)
    _write_json(run.artifact("hill.json"), out)
    _echo_json(out)


@main.command("theta-est")
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--input", "input_csv", type=click.Path(exists=True),
              default=None)
@click.option("--n", type=int, default=10_000, show_default=True)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN,
              show_default=True)
@click.option("--method", type=click.Choice(["blocks", "runs", "intervals"]),
              required=True)
@click.option("--q", type=float, default=0.995, show_default=True,
              help="Threshold quantile of the chosen series.")
@click.option("--block-len", type=int, default=100, show_default=True)
@click.option("--run-len", type=int, default=10, show_default=True)
@click.option("--series", type=_SERIES, default="x_abs", show_default=True)
@click.pass_context
def theta_est(ctx, model, input_csv, n, burn_in, method, q, block_len,
              run_len, series):
    """Blocks, runs or intervals estimate of the extremal index."""
    run = _path_inputs(ctx, model, input_csv, n, burn_in)
    out = _analysis("theta", {"method": method, "q": q,
                              "block_len": block_len, "run_len": run_len,
                              "series": series}, run)
    _write_json(run.artifact("theta.json"), out)
    _echo_json(out)


@main.command()
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--input", "input_csv", type=click.Path(exists=True),
              default=None)
@click.option("--n", type=int, default=10_000, show_default=True)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN,
              show_default=True)
@click.option("--lags", default="1,2,3,4,5,6,7,8,9,10", show_default=True,
              help="Comma-separated lags.")
@click.option("--q", type=float, default=0.99, show_default=True)
@click.option("--series", type=_SERIES, default="x_abs", show_default=True)
@click.pass_context
def extremogram(ctx, model, input_csv, n, burn_in, lags, q, series):
    """Sample extremogram at the given lags."""
    run = _path_inputs(ctx, model, input_csv, n, burn_in)
    try:
        lag_list = [int(s) for s in lags.split(",") if s.strip()]
    except ValueError as e:
        raise click.ClickException(str(e))
    out = _analysis("extremogram",
                    {"lags": lag_list, "q": q, "series": series}, run)
    out["csv"] = str(run.out / out["csv"])
    _echo_json(out)


@main.command("theta-theory")
@click.option("--which",
              type=click.Choice(["kesten", "theta-sigma", "theta-x-sre",
                                 "theta-x-ma"]), required=True)
@click.option("--model", required=True, type=click.Path(exists=True),
              help="sresv config (kesten, theta-sigma, theta-x-sre) or "
              "masv config (theta-x-ma).")
@click.option("--alpha", type=float, default=None,
              help="Tail index of sigma^p; required except for kesten.")
@click.option("--m", type=int, default=50, show_default=True)
@click.option("--mc-reps", type=int, default=None,
              help="Defaults: 1e6 (kesten, theta-x-sre), 2e5 (others).")
@click.option("--tol", type=float, default=1e-4, show_default=True)
@click.option("--trunc-t", type=int, default=10_000, show_default=True)
@click.pass_context
def theta_theory(ctx, which, model, alpha, m, mc_reps, tol, trunc_t):
    """Evaluate a theoretical tail or extremal-index quantity."""
    cfg = _load_model(model)
    if alpha is None and which != "kesten":
        raise click.ClickException("--alpha is required")
    spec = {"which": which.replace("-", "_"), "alpha": alpha, "m": m,
            "tol": tol, "trunc_T": trunc_t}
    if mc_reps is not None:
        spec["mc_reps"] = mc_reps
    out = {**_analysis("theory", spec, replace(ctx.obj, model=cfg)),
           "which": which}
    _write_json(ctx.obj.artifact("theory.json"), out)
    _echo_json(out)


@main.command()
@click.option("--model", required=True, type=click.Path(exists=True))
@click.option("--n", type=int, default=100_000, show_default=True)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN,
              show_default=True)
@click.option("--k", type=int, default=None,
              help="Hill order statistics (default n // 50).")
@click.option("--q", type=float, default=0.99, show_default=True)
@click.option("--alpha", type=float, default=None,
              help="Tail index of X for the moment-transfer ratio "
              "(default: Hill estimate on |x|).")
@click.pass_context
def diagnose(ctx, model, n, burn_in, k, q, alpha):
    """Battery: Hill, three theta estimates, extremogram, tail transfer."""
    run = _path_inputs(ctx, model, None, n, burn_in)
    k = k if k is not None else max(n // 50, 10)
    out = {"n": n, "q": q, "k": k}
    errors = {}

    def attempt(name, fn):
        try:
            out[name] = fn()
        except ValueError as e:
            errors[name] = str(e)

    def value(kind, key, **spec):
        return lambda: ANALYSES[kind](spec, run)[key]

    attempt("hill_sigma", value("hill", "alpha_hat", k=k, series="sigma"))
    attempt("hill_x_abs", value("hill", "alpha_hat", k=k))
    attempt("u", lambda: float(np.quantile(np.abs(run.x), q)))
    for method in ("blocks", "runs", "intervals"):
        attempt(f"theta_{method}", value("theta", "theta_hat",
                                         method=method, q=q))
    # the chi values only: diagnose writes no extremogram.csv
    attempt("extremogram",
            lambda: est.extremogram(np.abs(run.x), range(1, 11),
                                    q).chi_hat.tolist())
    a = alpha if alpha is not None else out.get("hill_x_abs")
    if a is not None:
        attempt("breiman_ratio", value("breiman", "ratios", alpha=a))
        out["breiman_alpha"] = float(a)
    if errors:
        out["errors"] = errors
    _write_json(run.artifact("diagnose.json"), out)
    _echo_json(out)


@main.group()
def experiment():
    """Run a full experiment from a config file or a built-in preset."""


@experiment.command("run")
@click.argument("config", type=click.Path(exists=True))
@click.pass_context
def experiment_run(ctx, config):
    """Run the experiment described by CONFIG (JSON)."""
    try:
        with open(config) as fh:
            cfg = ExperimentConfig.from_json(json.load(fh))
    except (OSError, ValueError) as e:
        raise click.ClickException(f"bad experiment config: {e}")
    _run_and_echo(ctx, cfg)


@experiment.command("preset")
@click.argument("name", type=click.Choice(list(PRESET_NAMES)))
@click.pass_context
def experiment_preset(ctx, name):
    """Run a built-in preset experiment."""
    cfg = preset_config(name, ctx.obj.seed)
    _run_and_echo(ctx, cfg)


def _run_and_echo(ctx, cfg: ExperimentConfig) -> None:
    out = ctx.obj.out
    try:
        report = run_experiment(cfg, out, threads=ctx.obj.threads)
    except ValueError as e:
        raise click.ClickException(str(e))
    summary = {"out": str(out), "n_analyses": len(report.results),
               "errors": [r["analysis"] for r in report.results
                          if "error" in r]}
    _echo_json(summary)


if __name__ == "__main__":
    main()
