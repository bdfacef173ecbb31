"""Command line interface.

Global flags (before the subcommand) pick the master seed, the output
directory, and the worker thread count; the thread count never changes
numerical results, only wall time. Model configs are JSON files in the
same schema the library's config_to_json produces. Subcommands write
their outputs under --out and echo a JSON summary to stdout. Every
analysis a command runs comes from experiments.ANALYSES, on a spec that
experiments.read_spec reads before anything is simulated. hill,
theta-est, extremogram and theta-theory run the analysis of the same
name and echo its entry, warnings included. diagnose runs its battery
as an experiment (path.csv, report.json) and sums it up in diagnose.json.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from pathlib import Path as FsPath

import click
import numpy as np

from .experiments import (ANALYSES, SPECS, AnalysisInputs,
                          ExperimentConfig, PRESET_NAMES, _json_text,
                          _write_json, preset_config, read_spec,
                          recording_warnings, run_experiment)
from .models import config_from_json, path_to_csv, simulate, DEFAULT_BURN_IN
from .rng import RngSeed

_SERIES = click.Choice(SPECS["hill"]["series"][0].choices)


def _default(kind: str, name: str):
    return SPECS[kind][name][1]


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

    Every row must hold a number other than NaN in both columns (+-inf
    included): an empty, malformed or NaN field, a short row or a file
    without data rows is rejected.
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
        nan = np.argwhere(np.isnan(data))
        if nan.size:
            row, col = nan[0]
            raise ValueError(f"column {('sigma', 'x')[col]} holds NaN in "
                             f"data row {row + 1}")
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
    path = _call(simulate, cfg, n, burn_in, ctx.obj.seed)
    return replace(ctx.obj, sigma=path.sigma, x=path.x, model=cfg,
                   burn_in=burn_in)


def _call(fn, *args):
    """fn(*args), with a ValueError as the command's error message."""
    try:
        return fn(*args)
    except ValueError as e:
        raise click.ClickException(str(e))


def _analyze(kind: str, spec: dict, run: AnalysisInputs) -> dict:
    """The report entry of one analysis, with its warnings."""
    out = {}
    with recording_warnings(out):
        out.update(_call(ANALYSES[kind], spec, run))
    return out


# every option shows its default, and an analysis option takes it from
# experiments.SPECS
@click.group(context_settings={"show_default": True})
@click.option("--seed", type=int, default=0,
              help="Master seed (unsigned 64-bit).")
@click.option("--out", type=click.Path(file_okay=False), default="svx-out",
              help="Output directory.")
@click.option("--threads", type=int, default=1,
              help="Monte Carlo worker threads; do not affect results.")
@click.pass_context
def main(ctx, seed, out, threads):
    """Simulation and tail/cluster analysis for SV models."""
    rs = _call(RngSeed, seed)
    if threads < 1:
        raise click.ClickException("threads must be >= 1")
    # the inputs every analysis shares; a command adds its path and model
    ctx.obj = AnalysisInputs(None, None, None, rs, FsPath(out), threads)


@main.command("simulate")
@click.option("--model", required=True, type=click.Path(exists=True),
              help="Model config JSON.")
@click.option("--n", type=int, required=True, help="Path length.")
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN)
@click.pass_context
def simulate_cmd(ctx, model, n, burn_in):
    """Simulate a path and write it as CSV."""
    cfg = _load_model(model)
    path = _call(simulate, cfg, n, burn_in, ctx.obj.seed)
    csv = ctx.obj.artifact("path.csv")
    path_to_csv(path, csv)
    _echo_json({"path_csv": str(csv), "n": path.n,
                "sigma_max": float(path.sigma.max()),
                "x_absmax": float(np.abs(path.x).max())})


@main.command()
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--input", "input_csv", type=click.Path(exists=True),
              default=None, help="Existing path.csv instead of simulating.")
@click.option("--n", type=int, default=10_000)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN)
@click.option("--k", type=int, required=True, help="Number of top order "
              "statistics.")
@click.option("--series", type=_SERIES, default=_default("hill", "series"))
@click.pass_context
def hill(ctx, model, input_csv, n, burn_in, k, series):
    """Hill estimate of the tail index of a series."""
    spec = _call(read_spec, "hill", {"k": k, "series": series})
    run = _path_inputs(ctx, model, input_csv, n, burn_in)
    out = _analyze("hill", spec, run)
    _write_json(run.artifact("hill.json"), out)
    _echo_json(out)


@main.command("theta-est")
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--input", "input_csv", type=click.Path(exists=True),
              default=None)
@click.option("--n", type=int, default=10_000)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN)
@click.option("--method", required=True,
              type=click.Choice(SPECS["theta"]["method"][0].choices))
@click.option("--q", type=float, default=_default("theta", "q"),
              help="Threshold quantile of the chosen series.")
@click.option("--block-len", type=int, default=_default("theta", "block_len"))
@click.option("--run-len", type=int, default=_default("theta", "run_len"))
@click.option("--series", type=_SERIES, default=_default("theta", "series"))
@click.pass_context
def theta_est(ctx, model, input_csv, n, burn_in, method, q, block_len,
              run_len, series):
    """Blocks, runs or intervals estimate of the extremal index."""
    spec = _call(read_spec, "theta", {"method": method, "q": q,
                                      "block_len": block_len,
                                      "run_len": run_len, "series": series})
    run = _path_inputs(ctx, model, input_csv, n, burn_in)
    out = _analyze("theta", spec, run)
    _write_json(run.artifact("theta.json"), out)
    _echo_json(out)


@main.command()
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--input", "input_csv", type=click.Path(exists=True),
              default=None)
@click.option("--n", type=int, default=10_000)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN)
@click.option("--lags", default="1,2,3,4,5,6,7,8,9,10",
              help="Comma-separated lags.")
@click.option("--q", type=float, default=_default("extremogram", "q"))
@click.option("--series", type=_SERIES,
              default=_default("extremogram", "series"))
@click.pass_context
def extremogram(ctx, model, input_csv, n, burn_in, lags, q, series):
    """Sample extremogram at the given lags."""
    lag_list = []
    for s in filter(str.strip, lags.split(",")):
        try:
            lag_list.append(int(s))
        except ValueError:
            raise click.ClickException(
                f"--lags must be comma-separated integers, got {s.strip()!r}")
    spec = _call(read_spec, "extremogram",
                 {"lags": lag_list, "q": q, "series": series})
    run = _path_inputs(ctx, model, input_csv, n, burn_in)
    out = _analyze("extremogram", spec, run)
    out["csv"] = str(run.out / out["csv"])
    _echo_json(out)


@main.command("theta-theory")
@click.option("--which",
              type=click.Choice([w.replace("_", "-") for w in
                                 SPECS["theory"]["which"][0].choices]),
              required=True)
@click.option("--model", required=True, type=click.Path(exists=True),
              help="sresv config (kesten, theta-sigma, theta-x-sre) or "
              "masv config (theta-x-ma).")
@click.option("--alpha", type=float, default=None,
              help="Tail index of sigma^p; required except for kesten.")
@click.option("--m", type=int, default=_default("theory", "m"))
@click.option("--mc-reps", type=int, default=None,
              help="Defaults: 1e6 (kesten, theta-x-sre), 2e5 (others).")
@click.option("--tol", type=float, default=_default("theory", "tol"))
@click.option("--trunc-t", type=int, default=_default("theory", "trunc_T"))
@click.pass_context
def theta_theory(ctx, which, model, alpha, m, mc_reps, tol, trunc_t):
    """Evaluate a theoretical tail or extremal-index quantity."""
    if alpha is None and which != "kesten":
        raise click.ClickException("--alpha is required")
    spec = {"which": which.replace("-", "_"), "alpha": alpha, "m": m,
            "tol": tol, "trunc_T": trunc_t, "mc_reps": mc_reps}
    # an option without a value is a field the spec leaves out
    spec = _call(read_spec, "theory",
                 {k: v for k, v in spec.items() if v is not None})
    cfg = _load_model(model)
    out = {**_analyze("theory", spec, replace(ctx.obj, model=cfg)),
           "which": which}
    _write_json(ctx.obj.artifact("theory.json"), out)
    _echo_json(out)


@main.command()
@click.option("--model", required=True, type=click.Path(exists=True))
@click.option("--n", type=int, default=100_000)
@click.option("--burn-in", type=int, default=DEFAULT_BURN_IN)
@click.option("--k", type=int, default=None,
              help="Hill order statistics (default n // 50).")
@click.option("--q", type=float, default=0.99)
@click.option("--alpha", type=float, default=None,
              help="Tail index of X for the moment-transfer ratio "
              "(default: Hill estimate on |x|).")
@click.pass_context
def diagnose(ctx, model, n, burn_in, k, q, alpha):
    """Battery: Hill, three theta estimates, extremogram, tail transfer."""
    k = k if k is not None else max(n // 50, 10)
    breiman = {"hill_k": k} if alpha is None else {"alpha": alpha}
    # diagnose.json key -> (the report entry's key it holds, the analysis)
    battery = {
        **{f"hill_{s}": ("alpha_hat", dict(analysis="hill", k=k, series=s))
           for s in ("sigma", "x_abs")},
        **{f"theta_{m}": ("theta_hat", dict(analysis="theta", method=m, q=q))
           for m in ("blocks", "runs", "intervals")},
        "extremogram": ("chi_hat", dict(analysis="extremogram", q=q,
                                        lags=[*range(1, 11)])),
        "breiman_ratio": ("ratios", dict(analysis="breiman", **breiman))}
    # the config reads every spec, before anything is simulated
    cfg = _call(ExperimentConfig, _load_model(model), n, ctx.obj.seed,
                burn_in, [a for _, a in battery.values()], "diagnose")
    entries = dict(zip(battery, _call(run_experiment, cfg, ctx.obj.out,
                                      ctx.obj.threads).results))
    out = {"n": n, "q": q, "k": k, **{name: e[battery[name][0]] for name, e
                                      in entries.items() if "error" not in e}}
    out.update([("u", e["u"]) for e in entries.values() if "u" in e][:1])
    if "alpha" in entries["breiman_ratio"]:
        out["breiman_alpha"] = entries["breiman_ratio"]["alpha"]
    for summary, field in (("errors", "error"), ("warnings", "warnings")):
        found = {name: e[field] for name, e in entries.items() if field in e}
        if found:
            out[summary] = found
    _write_json(ctx.obj.artifact("diagnose.json"), out)
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
    report = _call(run_experiment, cfg, out, ctx.obj.threads)
    summary = {"out": str(out), "n_analyses": len(report.results),
               "errors": [r["analysis"] for r in report.results
                          if "error" in r]}
    _echo_json(summary)


if __name__ == "__main__":
    main()
