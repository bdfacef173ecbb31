"""Reproducible experiment driver and the one analysis registry.

An experiment is one simulated path plus a list of analyses, described by
a JSON-friendly config. Running it writes, into an output directory:

  * path.csv        the simulated path (t, sigma, x)
  * report.json     config echo, analysis results, timings, version
  * extremogram*.csv   when those analyses are requested
  * figure.csv      one row (t, x, side) per exceedance mark, when a
                    figure analysis is requested; path.csv holds the rest

ANALYSES maps each analysis kind to one function (spec, AnalysisInputs)
-> report entry, built from the result's own to_json(). run_experiment
calls it for every spec of the config; the CLI's path and theory
commands call it for one spec, so they print the entry's keys.

Failures inside a single analysis are recorded in the report (with the
error message) instead of aborting the run; simulation or config failures
do abort, and a malformed config raises a ValueError that names the
field, as does a figure spec whose quantile levels are out of order or
outside (0, 1), a theta or extremogram spec whose q is, a breiman spec
with a q_grid level outside (0, 1), and a spec that misses a required
field or holds a lags, m_grid or q_grid that is not a list, or a
breiman or theory alpha, theory tol or anticluster y that is not a
finite number > 0 (_check_spec). An analysis spec's integer fields
(k, block_len, lags, mc_reps, ...) must be whole numbers, as n and
burn_in must; a bad one is that entry's error, as is an unknown series.
Warnings raised inside an analysis are recorded in its entry, as a
"warnings" list that is present only when it is not empty.
Re-running from the config embedded in a report reproduces every output
byte for byte, timings excepted.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path as FsPath
from typing import Optional

import numpy as np

from . import estimators as est
from . import theory
from .distributions import finite_real, laplace, std_normal, student_t
from .models import (DEFAULT_BURN_IN, ExpAr1Config, Garch11Pair, MaSvConfig,
                     SreSvConfig, _check_length, _field, _object,
                     config_from_json, config_to_json, path_to_csv,
                     simulate)
from .rng import RngSeed

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "preset_config", "PRESET_NAMES"]


def _whole_number(name: str, value) -> int:
    """value as an int; a float must be integral, as JSON may spell 10
    as 10.0, and anything else is rejected."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: object
    n: int
    seed: RngSeed
    burn_in: int = DEFAULT_BURN_IN
    analyses: tuple = ()
    label: str = ""

    def __post_init__(self):
        for name in ("n", "burn_in"):
            object.__setattr__(self, name,
                               _whole_number(name, getattr(self, name)))
        _check_length(self.n, self.burn_in)
        object.__setattr__(self, "analyses",
                           tuple(dict(a) for a in self.analyses))
        for a in self.analyses:
            kind = a.get("analysis")
            if not isinstance(kind, str) or kind not in ANALYSES:
                raise ValueError(f"unknown analysis {kind!r}")
            _check_spec(kind, a)

    def to_json(self) -> dict:
        return {"model": config_to_json(self.model), "n": self.n,
                "burn_in": self.burn_in, "seed": self.seed.to_json(),
                "analyses": [dict(a) for a in self.analyses],
                "label": self.label}

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        """The config a to_json dict describes; a malformed one raises a
        ValueError that names the field."""
        _object(obj, "experiment config")
        try:
            model = config_from_json(_field(obj, "model"))
        except ValueError as e:
            raise ValueError(f"field 'model': {e}") from None
        analyses = obj.get("analyses", [])
        if not (isinstance(analyses, list)
                and all(isinstance(a, dict) for a in analyses)):
            raise ValueError("field 'analyses' must be a list of objects, "
                             f"got {analyses!r}")
        return ExperimentConfig(model=model, n=_field(obj, "n"),
                                seed=RngSeed.from_json(_field(obj, "seed")),
                                burn_in=obj.get("burn_in", DEFAULT_BURN_IN),
                                analyses=tuple(analyses),
                                label=str(obj.get("label", "")))


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    results: tuple
    timings: dict
    version: str

    def to_json(self) -> dict:
        return {"config": self.config.to_json(),
                "results": [dict(r) for r in self.results],
                "timings": dict(self.timings), "version": self.version}

    @staticmethod
    def from_json(obj: dict) -> "ExperimentReport":
        return ExperimentReport(ExperimentConfig.from_json(obj["config"]),
                                tuple(obj["results"]), dict(obj["timings"]),
                                str(obj["version"]))


@dataclass(frozen=True)
class AnalysisInputs:
    """What an analysis reads besides its spec: the path (sigma and x),
    the model that made it (None for a stored path.csv), the seed of its
    own randomness, its artifact directory, and ordinal, the number of
    earlier analyses of its kind in the run."""

    sigma: Optional[np.ndarray]
    x: Optional[np.ndarray]
    model: object
    seed: RngSeed
    out: FsPath
    threads: int = 1
    burn_in: int = DEFAULT_BURN_IN
    ordinal: int = 0

    def series(self, name: str) -> np.ndarray:
        if name == "x":
            return self.x
        if name == "x_abs":
            return np.abs(self.x)
        if name == "sigma":
            return self.sigma
        raise ValueError(f"unknown series {name!r}; use x, x_abs or sigma")

    def artifact(self, name: str) -> FsPath:
        """The path of an artifact file, creating the directory first."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name


def _hill(spec: dict, run: AnalysisInputs) -> dict:
    series = spec.get("series", "x_abs")
    r = est.hill(run.series(series), _whole_number("k", spec["k"]))
    return {"series": series, **r.to_json()}


def _theta(spec: dict, run: AnalysisInputs) -> dict:
    method = spec["method"]
    series = spec.get("series", "x_abs")
    q = float(spec.get("q", 0.995))
    v = run.series(series)
    u = float(np.quantile(v, q))
    if method == "blocks":
        r = est.blocks_theta(v, u, _whole_number(
            "block_len", spec.get("block_len", 100)))
    elif method == "runs":
        r = est.runs_theta(v, u, _whole_number(
            "run_len", spec.get("run_len", 10)))
    elif method == "intervals":
        r = est.intervals_theta(v, u)
    else:
        raise ValueError(f"unknown theta method {method!r}")
    return {**r.to_json(), "series": series, "q": q, "u": u}


def _extremogram(spec: dict, run: AnalysisInputs) -> dict:
    series = spec.get("series", "x_abs")
    lags = [_whole_number("lags", h) for h in spec["lags"]]
    q = float(spec.get("q", 0.99))
    r = est.extremogram(run.series(series), lags, q)
    name = ("extremogram.csv" if run.ordinal == 0
            else f"extremogram_{run.ordinal + 1}.csv")
    lines = ["lag,chi_hat,stderr"] + [
        f"{h},{c:.17g},{s:.17g}" for h, c, s in zip(r.lags, r.chi_hat,
                                                    r.stderr)]
    run.artifact(name).write_text("\n".join(lines) + "\n")
    return {"series": series, **r.to_json(), "csv": name}


def _breiman_levels(spec: dict) -> list:
    """The spec's q_grid levels as floats in (0, 1), else a ValueError
    that names the field."""
    return [_level("breiman", "q_grid", q)
            for q in spec.get("q_grid", (0.99, 0.995, 0.999))]


def _breiman(spec: dict, run: AnalysisInputs) -> dict:
    alpha = float(spec["alpha"])
    r = est.breiman_ratio(run.sigma, run.x, _breiman_levels(spec), alpha,
                          z=run.model.z)
    return {"alpha": alpha, **r.to_json()}


def _anticluster(spec: dict, run: AnalysisInputs) -> dict:
    n = run.x.size
    m_grid = [_whole_number("m_grid", m) for m in spec["m_grid"]]
    r_n = _whole_number("r_n", spec.get("r_n", math.isqrt(n)))
    r = est.anticluster_diag(run.model, m_grid, r_n,
                             float(spec.get("y", 1.0)), n,
                             reps=_whole_number("reps", spec.get("reps", 200)),
                             seed=run.seed, burn_in=run.burn_in)
    out = r.to_json()
    del out["n"]  # the path length, which the report's config holds
    return out


def _theory(spec: dict, run: AnalysisInputs) -> dict:
    which = spec["which"]
    model = run.model
    if which == "theta_x_ma":
        if not isinstance(model, MaSvConfig):
            raise ValueError("theta_x_ma needs a masv model")
    elif which not in ("kesten", "theta_sigma", "theta_x_sre"):
        raise ValueError(f"unknown theory quantity {which!r}")
    elif not isinstance(model, SreSvConfig):
        raise ValueError(f"{which} needs an sresv model")
    mc_reps = _whole_number("mc_reps", spec.get(
        "mc_reps",
        1_000_000 if which in ("kesten", "theta_x_sre") else 200_000))
    if which == "theta_x_ma":
        r = theory.theta_x_ma(model.psi, alpha=float(spec["alpha"]),
                              p=model.p, z=model.z, mc_reps=mc_reps,
                              seed=run.seed, threads=run.threads)
        return {"which": which, **r.to_json()}
    problem = theory.KestenProblem(model.pair_source)
    if which == "kesten":
        r = theory.kesten_index(problem, mc_reps=mc_reps,
                                tol=float(spec.get("tol", 1e-4)),
                                seed=run.seed)
    elif which == "theta_sigma":
        r = theory.theta_sigma_sre(
            problem, alpha=float(spec["alpha"]), mc_reps=mc_reps,
            trunc_T=_whole_number("trunc_T", spec.get("trunc_T", 10_000)),
            seed=run.seed, threads=run.threads)
    else:
        r = theory.theta_x_sre(problem, z=model.z, alpha=float(spec["alpha"]),
                               p=model.p,
                               m=_whole_number("m", spec.get("m", 50)),
                               mc_reps=mc_reps, seed=run.seed,
                               threads=run.threads)
    return {"which": which, **r.to_json()}


def _level(kind: str, name: str, q) -> float:
    """q as a float if it is a finite number in (0, 1), else a ValueError
    that names the analysis kind and the field."""
    if not (finite_real(q) and 0.0 < q < 1.0):
        raise ValueError(f"{kind} {name} must be a finite number in "
                         f"(0, 1), got {q!r}")
    return float(q)


# by analysis kind: the fields a spec must hold (a theory spec alpha too,
# for every quantity but kesten), the fields that must be lists and
# those that must be finite numbers > 0 where a spec holds them
_REQUIRED = {"hill": ("k",), "theta": ("method",), "extremogram": ("lags",),
             "breiman": ("alpha",), "anticluster": ("m_grid",),
             "theory": ("which",)}
_LISTS = {"extremogram": ("lags",), "anticluster": ("m_grid",),
          "breiman": ("q_grid",)}
_POSITIVE = {"breiman": ("alpha",), "anticluster": ("y",),
             "theory": ("alpha", "tol")}


def _check_spec(kind: str, spec: dict) -> None:
    """Raise a ValueError that names the kind and the field when a spec
    misses a required field or holds a malformed list, level or positive
    number; the whole-number and series rules stay the entry's."""
    required = _REQUIRED.get(kind, ())
    if kind == "theory" and spec.get("which") in (
            "theta_sigma", "theta_x_sre", "theta_x_ma"):
        required += ("alpha",)
    for name in required:
        if name not in spec:
            raise ValueError(f"{kind} {name} is required")
    for name in _LISTS.get(kind, ()):
        v = spec.get(name, [])
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"{kind} {name} must be a list, got {v!r}")
    for name in _POSITIVE.get(kind, ()):
        v = spec.get(name, 1.0)
        if not (finite_real(v) and v > 0):
            raise ValueError(f"{kind} {name} must be a finite number > 0, "
                             f"got {v!r}")
    if kind == "figure":
        _figure_levels(spec)
    elif kind == "breiman":
        _breiman_levels(spec)
    elif kind in ("theta", "extremogram") and "q" in spec:
        _level(kind, "q", spec["q"])


def _figure_levels(spec: dict) -> tuple:
    """The spec's (q_low, q_high): finite numbers in (0, 1) with q_low <
    q_high, else a ValueError that names the field."""
    levels = [_level("figure", name, spec.get(name, default))
              for name, default in (("q_low", 0.01), ("q_high", 0.99))]
    if not levels[0] < levels[1]:
        raise ValueError(f"figure q_low must be below q_high, got "
                         f"q_low={levels[0]!r}, q_high={levels[1]!r}")
    return tuple(levels)


def _figure(spec: dict, run: AnalysisInputs) -> dict:
    q_low, q_high = _figure_levels(spec)
    lo = float(np.quantile(run.x, q_low))
    hi = float(np.quantile(run.x, q_high))
    marks_low, marks_high = _write_figure_csv(run.artifact("figure.csv"),
                                              run.x, lo, hi)
    return {"q_low": q_low, "q_high": q_high, "threshold_low": lo,
            "threshold_high": hi, "marks_low": marks_low,
            "marks_high": marks_high, "csv": "figure.csv"}


# analysis kind -> function (spec, inputs) -> report entry; the CLI's path
# and theory commands call the same functions
ANALYSES = {"hill": _hill, "theta": _theta, "extremogram": _extremogram,
            "breiman": _breiman, "anticluster": _anticluster,
            "theory": _theory, "figure": _figure}


def _write_figure_csv(fp: FsPath, x: np.ndarray, lo: float,
                      hi: float) -> tuple:
    """Write a `t,x,side` row per mark in increasing t, side `low` where
    x < lo and `high` where x > hi; return the two mark counts."""
    low, high = x < lo, x > hi
    t = np.flatnonzero(low | high)
    with open(fp, "w") as fh:
        fh.write("t,x,side\n")
        fh.writelines("%d,%.17g,%s\n" % (i, v, "low" if is_low else "high")
                      for i, v, is_low in zip(t.tolist(), x[t].tolist(),
                                              low[t].tolist()))
    return int(np.count_nonzero(low)), int(np.count_nonzero(high))


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def _write_json(fp: FsPath, obj) -> None:
    fp.write_text(_json_text(obj) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir,
                   threads: int = 1) -> ExperimentReport:
    from . import __version__

    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    path = simulate(cfg.model, cfg.n, burn_in=cfg.burn_in, seed=cfg.seed)
    timings["simulate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    path_to_csv(path, out / "path.csv")
    timings["write_path_csv"] = time.perf_counter() - t0

    results = []
    seen = {}
    run = AnalysisInputs(path.sigma, path.x, cfg.model, cfg.seed, out,
                         threads, cfg.burn_in)
    for i, spec in enumerate(cfg.analyses):
        kind = spec["analysis"]
        ordinal = seen.get(kind, 0)
        seen[kind] = ordinal + 1
        entry = {"analysis": kind, "index": i}
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                # resampling analyses draw from a namespaced child seed,
                # which cannot overlap the simulation streams
                entry.update(ANALYSES[kind](spec, replace(
                    run, seed=cfg.seed.child(1000 + i), ordinal=ordinal)))
            except Exception as e:  # recorded, not fatal
                entry["error"] = f"{type(e).__name__}: {e}"
        timings[f"analysis_{i}_{kind}"] = time.perf_counter() - t0
        if caught:
            entry["warnings"] = [f"{w.category.__name__}: {w.message}"
                                 for w in caught]
        results.append(entry)

    report = ExperimentReport(cfg, tuple(results), timings, __version__)
    _write_json(out / "report.json", report.to_json())
    return report


def _fig1_model(variant: str):
    if variant == "left":
        # log-volatility AR(1) driven by Laplace noise, Gaussian returns
        return ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal())
    # Gaussian driver (unit variance), t(4) returns
    return ExpAr1Config(phi=0.9, eta=std_normal(), z=student_t(4.0))


def _fig2_model(garch_returns: bool):
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                       eta=std_normal())
    return SreSvConfig(p=2.0, pair_source=pair, z=std_normal(),
                       garch_returns=garch_returns)


def preset_config(name: str, seed: RngSeed) -> ExperimentConfig:
    """Built-in experiment configs for the reference figures.

    fig1-left / fig1-right: exponential AR(1) volatility paths of length
    1000 with exceedance marks at the empirical 1% and 99% quantiles.
    fig2-garch / fig2-sv: GARCH(1,1) recursions, either fed back into the
    returns (garch) or run as an independent-volatility SV model (sv),
    with cluster-size analyses alongside the figure.
    """
    common = dict(n=1000, seed=seed, label=name)
    fig = {"analysis": "figure", "q_low": 0.01, "q_high": 0.99}
    xg = {"analysis": "extremogram", "lags": list(range(1, 11)), "q": 0.99}
    if name == "fig1-left":
        return ExperimentConfig(model=_fig1_model("left"),
                                analyses=(fig, xg,
                                          {"analysis": "hill", "k": 200},
                                          {"analysis": "theta",
                                           "method": "intervals",
                                           "q": 0.99}),
                                **common)
    if name == "fig1-right":
        return ExperimentConfig(model=_fig1_model("right"),
                                analyses=(fig, xg,
                                          {"analysis": "hill", "k": 200}),
                                **common)
    if name in ("fig2-garch", "fig2-sv"):
        model = _fig2_model(garch_returns=(name == "fig2-garch"))
        return ExperimentConfig(model=model,
                                analyses=(fig, xg,
                                          {"analysis": "theta",
                                           "method": "intervals",
                                           "q": 0.995},
                                          {"analysis": "theta",
                                           "method": "blocks",
                                           "block_len": 100, "q": 0.995},
                                          {"analysis": "theory",
                                           "which": "kesten",
                                           "mc_reps": 200_000},
                                          {"analysis": "theory",
                                           "which": "theta_x_sre",
                                           "alpha": 2.0, "m": 50,
                                           "mc_reps": 200_000}),
                                **common)
    raise ValueError(f"unknown preset {name!r}; "
                     f"choose from {', '.join(PRESET_NAMES)}")


PRESET_NAMES = ("fig1-left", "fig1-right", "fig2-garch", "fig2-sv")
