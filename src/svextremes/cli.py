"""Command line interface.

Global flags (before the subcommand) pick the master seed, the output
directory, and the worker thread count; the thread count never changes
numerical results, only wall time. Model configs are JSON files in the
same schema the library's config_to_json produces. Subcommands write
their outputs under --out and echo a JSON summary to stdout.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path as FsPath

import click
import numpy as np

from . import estimators as est
from . import theory
from .experiments import (ExperimentConfig, PRESET_NAMES,
                          _write_extremogram_csv, preset_config,
                          run_experiment)
from .models import config_from_json, path_to_csv, simulate, DEFAULT_BURN_IN
from .rng import RngSeed

_SERIES = click.Choice(["x", "x_abs", "sigma"])


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _echo_json(obj) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True,
                          default=_json_default))


def _write_json(fp: FsPath, obj) -> None:
    fp.write_text(json.dumps(obj, indent=2, sort_keys=True,
                             default=_json_default) + "\n")


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


def _get_series(ctx, model, input_csv, n, burn_in, series):
    """Series values either from a stored path.csv or a fresh simulation."""
    if (model is None) == (input_csv is None):
        raise click.ClickException("give exactly one of --model or --input")
    if input_csv is not None:
        sigma, x = _read_path_csv(input_csv)
    else:
        cfg = _load_model(model)
        path = _sim(cfg, n, ctx, burn_in)
        sigma, x = path.sigma, path.x
    if series == "x":
        return x
    if series == "x_abs":
        return np.abs(x)
    return sigma


def _sim(cfg, n, ctx, burn_in):
    try:
        return simulate(cfg, n, burn_in=burn_in, seed=ctx.obj["seed"])
    except ValueError as e:
        raise click.ClickException(str(e))


def _out_dir(ctx) -> FsPath:
    out = FsPath(ctx.obj["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed (unsigned 64-bit).")
@click.option("--out", type=click.Path(file_okay=False), default="svx-out",
              show_default=True, help="Output directory.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads; does not affect results.")
@click.pass_context
def main(ctx, seed, out, threads):
    """Simulation and tail/cluster analysis for SV models."""
    try:
        rs = RngSeed(seed)
    except ValueError as e:
        raise click.ClickException(str(e))
    if threads < 1:
        raise click.ClickException("threads must be >= 1")
    ctx.obj = {"seed": rs, "out": out, "threads": threads}


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
    out = _out_dir(ctx)
    path_to_csv(path, out / "path.csv")
    _echo_json({"path_csv": str(out / "path.csv"), "n": path.n,
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
    v = _get_series(ctx, model, input_csv, n, burn_in, series)
    try:
        r = est.hill(v, k)
    except ValueError as e:
        raise click.ClickException(str(e))
    out = {"series": series, "k": r.k, "alpha_hat": r.alpha_hat,
           "ci_low": r.ci_low, "ci_high": r.ci_high}
    _write_json(_out_dir(ctx) / "hill.json", out)
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
    v = _get_series(ctx, model, input_csv, n, burn_in, series)
    u = float(np.quantile(v, q))
    threads = ctx.obj["threads"]
    try:
        if method == "blocks":
            r = est.blocks_theta(v, u, block_len, threads=threads)
        elif method == "runs":
            r = est.runs_theta(v, u, run_len, threads=threads)
        else:
            r = est.intervals_theta(v, u, threads=threads)
    except ValueError as e:
        raise click.ClickException(str(e))
    out = {"theta_hat": r.theta_hat, "method": r.method,
           "tuning": dict(r.tuning), "stderr": r.stderr, "q": q, "u": u,
           "series": series}
    _write_json(_out_dir(ctx) / "theta.json", out)
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
    v = _get_series(ctx, model, input_csv, n, burn_in, series)
    try:
        lag_list = [int(s) for s in lags.split(",") if s.strip()]
        r = est.extremogram(v, lag_list, q)
    except ValueError as e:
        raise click.ClickException(str(e))
    out_dir = _out_dir(ctx)
    _write_extremogram_csv(out_dir / "extremogram.csv", r)
    _echo_json({"series": series, "q": r.q, "u": r.u, "lags": list(r.lags),
                "chi_hat": [float(c) for c in r.chi_hat],
                "stderr": [float(s) for s in r.stderr],
                "csv": str(out_dir / "extremogram.csv")})


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
    seed = ctx.obj["seed"]
    threads = ctx.obj["threads"]
    if mc_reps is None:
        mc_reps = 1_000_000 if which in ("kesten", "theta-x-sre") else 200_000
    try:
        if which == "kesten":
            problem = theory.KestenProblem(cfg.pair_source)
            r = theory.kesten_index(problem, mc_reps=mc_reps, tol=tol,
                                    seed=seed)
            out = {"which": which, **r.to_json()}
        else:
            if alpha is None:
                raise click.ClickException("--alpha is required")
            if which == "theta-sigma":
                problem = theory.KestenProblem(cfg.pair_source)
                r = theory.theta_sigma_sre(problem, alpha, mc_reps=mc_reps,
                                           trunc_T=trunc_t, seed=seed,
                                           threads=threads)
            elif which == "theta-x-sre":
                problem = theory.KestenProblem(cfg.pair_source)
                r = theory.theta_x_sre(problem, cfg.z, alpha, cfg.p, m,
                                       mc_reps=mc_reps, seed=seed,
                                       threads=threads)
            else:
                r = theory.theta_x_ma(cfg.psi, alpha, cfg.p, cfg.z,
                                      mc_reps=mc_reps, seed=seed,
                                      threads=threads)
            out = {"which": which, **r.to_json()}
    except (ValueError, AttributeError) as e:
        raise click.ClickException(str(e))
    _write_json(_out_dir(ctx) / "theory.json", out)
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
    cfg = _load_model(model)
    path = _sim(cfg, n, ctx, burn_in)
    threads = ctx.obj["threads"]
    k = k if k is not None else max(n // 50, 10)
    x_abs = np.abs(path.x)
    out = {"n": n, "q": q, "k": k}
    errors = {}

    def attempt(name, fn):
        try:
            out[name] = fn()
        except ValueError as e:
            errors[name] = str(e)

    attempt("hill_sigma", lambda: est.hill(path.sigma, k).alpha_hat)
    attempt("hill_x_abs", lambda: est.hill(x_abs, k).alpha_hat)
    u = float(np.quantile(x_abs, q))
    out["u"] = u
    attempt("theta_blocks",
            lambda: est.blocks_theta(x_abs, u, 100, threads=threads).theta_hat)
    attempt("theta_runs",
            lambda: est.runs_theta(x_abs, u, 10, threads=threads).theta_hat)
    attempt("theta_intervals",
            lambda: est.intervals_theta(x_abs, u, threads=threads).theta_hat)
    attempt("extremogram",
            lambda: [float(c) for c in
                     est.extremogram(x_abs, list(range(1, 11)), q).chi_hat])
    a = alpha if alpha is not None else out.get("hill_x_abs")
    if a is not None:
        attempt("breiman_ratio",
                lambda: [float(v) for v in
                         est.breiman_ratio(path.sigma, path.x,
                                           [0.99, 0.995, 0.999], a,
                                           z=cfg.z).ratios])
        out["breiman_alpha"] = float(a)
    if errors:
        out["errors"] = errors
    _write_json(_out_dir(ctx) / "diagnose.json", out)
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
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise click.ClickException(f"bad experiment config: {e}")
    _run_and_echo(ctx, cfg)


@experiment.command("preset")
@click.argument("name", type=click.Choice(list(PRESET_NAMES)))
@click.pass_context
def experiment_preset(ctx, name):
    """Run a built-in preset experiment."""
    cfg = preset_config(name, ctx.obj["seed"])
    _run_and_echo(ctx, cfg)


def _run_and_echo(ctx, cfg: ExperimentConfig) -> None:
    out = FsPath(ctx.obj["out"])
    try:
        report = run_experiment(cfg, out, threads=ctx.obj["threads"])
    except ValueError as e:
        raise click.ClickException(str(e))
    summary = {"out": str(out), "n_analyses": len(report.results),
               "errors": [r["analysis"] for r in report.results
                          if "error" in r]}
    _echo_json(summary)


if __name__ == "__main__":
    main()
