"""Command line interface.

Global flags (before the subcommand) pick the master seed, the output
directory, and the worker thread count; the thread count never changes
numerical results, only wall time. Model configs are JSON files in the
schema of config_to_json, and a stored path (--input) is a path.csv that
models.read_path_csv reads. Subcommands write their outputs under --out
and echo a JSON summary to stdout. Every analysis a command runs comes
from experiments.ANALYSES, on a spec that experiments.read_spec reads
before anything is simulated. hill, theta-est, extremogram and
theta-theory are built from experiments.SPECS, one per analysis kind:
each takes one option per field of its spec (--<field>, _ spelled -),
with the spec's defaults, runs that analysis and echoes its entry,
warnings included. diagnose runs its battery as an experiment
(path.csv, report.json) and sums it up in diagnose.json.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path as FsPath

import click
import numpy as np

from .experiments import (ANALYSES, SPECS, AnalysisInputs,
                          ExperimentConfig, PRESET_NAMES, _json_text,
                          _write_json, analysis_seed, preset_config,
                          read_spec, recording_warnings, run_experiment)
from .models import (DEFAULT_BURN_IN, config_from_json, path_to_csv,
                     read_path_csv, simulate)
from .rng import RngSeed

def _echo_json(obj) -> None:
    click.echo(_json_text(obj))


def _load_model(path: str):
    try:
        with open(path) as fh:
            return config_from_json(json.load(fh))
    except (OSError, ValueError) as e:
        raise click.ClickException(f"bad model config {path}: {e}")


def _path_inputs(ctx, model, input_csv, n, burn_in) -> AnalysisInputs:
    """A stored path.csv or a fresh simulation, as analysis inputs."""
    if (model is None) == (input_csv is None):
        raise click.ClickException("give exactly one of --model or --input")
    if input_csv is not None:
        try:
            sigma, x = read_path_csv(input_csv)
        except (OSError, ValueError) as e:
            raise click.ClickException(f"bad path csv {input_csv}: {e}")
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
    # click's Path checks --out itself; a directory below a file could
    # never be made
    above = next((p for p in FsPath(out).parents if p.is_file()), None)
    if above is not None:
        raise click.BadParameter(f"Directory {out!r} lies below the file "
                                 f"{str(above)!r}.", param_hint="'--out'")
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


# analysis kind -> (command, the JSON file it writes or None, its help)
_COMMANDS = {
    "hill": ("hill", "hill.json",
             "Hill estimate of the tail index of a series."),
    "theta": ("theta-est", "theta.json",
              "Blocks, runs or intervals estimate of the extremal index."),
    "extremogram": ("extremogram", None,
                    "Sample extremogram at the given lags."),
    "theory": ("theta-theory", "theory.json",
               "Evaluate a theoretical tail or extremal-index quantity. "
               "kesten is exact for a GARCH(1,1) pair with std_normal eta "
               "and beta1 >= alpha1 (a Gauss-Hermite rule: f_stderr 0.0, "
               "mc_reps 0) and uses --mc-reps draws of A for any other "
               "law; on both routes it stops once |E A^kappa - 1| < --tol."),
}


# (analysis kind, spec field) -> the help of its option
_OPTION_HELP = {
    ("theory", "mc_reps"):
        "Monte Carlo size (default 10^6 for kesten and theta-x-sre, "
        "2*10^5 otherwise). theta-sigma takes this many samples of the sup "
        "from Lindley chains, one per chunk of 2^15 samples, each after "
        "--trunc-t burn-in steps, and its mc_stderr from the chains' "
        "regeneration cycles.",
    ("theory", "trunc_T"):
        "theta-sigma: burn-in steps of each chain before it samples. "
        "truncation.risk_fraction bounds the chance that a chain still "
        "depends on its start after them; above 1% it warns.",
}


def _int_list(ctx, param, text):
    """An option's comma-separated integers, as a list."""
    items = []
    for s in filter(str.strip, text.split(",")):
        try:
            items.append(int(s))
        except ValueError:
            raise click.ClickException(f"{param.opts[0]} must be comma-"
                                       f"separated integers, got "
                                       f"{s.strip()!r}")
    return items


def _spec_option(kind: str, field: str) -> click.Option:
    """--<field> (_ spelled -), typed by the field's rule: required where
    the spec requires it, else at the spec's default; an option without a
    value leaves its field out of the spec."""
    rule, default = SPECS[kind][field]
    option_type, callback = getattr(rule, "type", None), None
    if hasattr(rule, "choices"):
        # the command line spells theory's which with hyphens
        option_type = click.Choice([c.replace("_", "-") if field == "which"
                                    else c for c in rule.choices])
    elif hasattr(rule, "item"):  # a list of whole numbers
        callback = _int_list
    if (kind, field) == ("extremogram", "lags"):
        default = ",".join(map(str, range(1, 11)))
    return click.Option([f"--{field.lower().replace('_', '-')}", field],
                        type=option_type, callback=callback,
                        required=default is ...,
                        default=None if default is ... else default,
                        help=_OPTION_HELP.get((kind, field)))


def _source_options(kind: str) -> list:
    """A path command reads a stored path.csv or simulates one; the theory
    command reads only a model."""
    if kind == "theory":
        return [click.Option(
            ["--model"], required=True, type=click.Path(exists=True),
            help="sresv config (kesten, theta-sigma, theta-x-sre) or "
            "masv config (theta-x-ma).")]
    return [click.Option(["--model"], type=click.Path(exists=True)),
            click.Option(["--input", "input_csv"],
                         type=click.Path(exists=True),
                         help="Existing path.csv instead of simulating."),
            click.Option(["--n"], type=int, default=10_000),
            click.Option(["--burn-in"], type=int, default=DEFAULT_BURN_IN)]


def _analysis_command(kind: str) -> click.Command:
    """The command that runs one analysis kind and echoes its entry."""
    name, json_name, help_text = _COMMANDS[kind]

    @click.pass_context
    def run(ctx, model, input_csv=None, n=None, burn_in=None, **fields):
        if "which" in fields:
            fields["which"] = fields["which"].replace("-", "_")
        spec = _call(read_spec, kind, {k: v for k, v in fields.items()
                                       if v is not None})
        inputs = (replace(ctx.obj, model=_load_model(model))
                  if kind == "theory"
                  else _path_inputs(ctx, model, input_csv, n, burn_in))
        out = {}
        with recording_warnings(out):
            # run as an experiment's first analysis; a path is simulated
            # at the master seed, as in an experiment
            out.update(_call(ANALYSES[kind], spec, replace(
                inputs, seed=analysis_seed(ctx.obj.seed, kind, 0))))
        if "which" in out:
            out["which"] = out["which"].replace("_", "-")
        if "csv" in out:
            out["csv"] = str(inputs.out / out["csv"])
        if json_name is not None:
            _write_json(inputs.artifact(json_name), out)
        _echo_json(out)

    return click.Command(name, callback=run, help=help_text, params=[
        *_source_options(kind), *(_spec_option(kind, f) for f in SPECS[kind])])


for _kind in _COMMANDS:
    main.add_command(_analysis_command(_kind))


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
