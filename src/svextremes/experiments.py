"""Reproducible experiment driver.

An experiment is one simulated path plus a list of analyses, described by
a JSON-friendly config. Running it writes, into an output directory:

  * path.csv        the simulated path (t, sigma, x)
  * report.json     config echo, analysis results, timings, version
  * extremogram*.csv, figure.csv   when those analyses are requested

Failures inside a single analysis are recorded in the report (with the
error message) instead of aborting the run; simulation or config failures
do abort. Warnings raised inside an analysis are recorded in its entry,
as a "warnings" list that is present only when it is not empty.
Re-running from the config embedded in a report reproduces every output
byte for byte, timings excepted.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import estimators as est
from . import theory
from .distributions import laplace, std_normal, student_t
from .models import (DEFAULT_BURN_IN, ExpAr1Config, Garch11Pair, MaSvConfig,
                     Path, SreSvConfig, config_from_json, config_to_json,
                     path_to_csv, simulate, write_csv_rows)
from .rng import RngSeed

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "preset_config", "PRESET_NAMES"]

_ANALYSES = ("hill", "theta", "extremogram", "breiman", "anticluster",
             "theory", "figure")


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        object.__setattr__(self, "analyses",
                           tuple(dict(a) for a in self.analyses))
        for a in self.analyses:
            kind = a.get("analysis")
            if kind not in _ANALYSES:
                raise ValueError(f"unknown analysis {kind!r}")

    def to_json(self) -> dict:
        return {"model": config_to_json(self.model), "n": self.n,
                "burn_in": self.burn_in, "seed": self.seed.to_json(),
                "analyses": [dict(a) for a in self.analyses],
                "label": self.label}

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        return ExperimentConfig(model=config_from_json(obj["model"]),
                                n=obj["n"],
                                seed=RngSeed.from_json(obj["seed"]),
                                burn_in=obj.get("burn_in", DEFAULT_BURN_IN),
                                analyses=tuple(obj.get("analyses", ())),
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


def _series(path: Path, name: str) -> np.ndarray:
    if name == "x":
        return path.x
    if name == "x_abs":
        return np.abs(path.x)
    if name == "sigma":
        return path.sigma
    raise ValueError(f"unknown series {name!r}; use x, x_abs or sigma")


def _theta_json(r: est.ThetaEstimate) -> dict:
    return {"theta_hat": r.theta_hat, "method": r.method,
            "tuning": dict(r.tuning), "stderr": r.stderr}


def _run_one(kind: str, spec: dict, cfg: ExperimentConfig, path: Path,
             out_dir: FsPath, index: int, ordinal: int,
             threads: int) -> dict:
    # fresh randomness for resampling analyses lives in a namespaced child
    # seed so it cannot overlap the simulation streams
    sub_seed = cfg.seed.child(1000 + index)
    if kind == "hill":
        series = spec.get("series", "x_abs")
        r = est.hill(_series(path, series), int(spec["k"]))
        return {"series": series, "k": r.k, "alpha_hat": r.alpha_hat,
                "ci_low": r.ci_low, "ci_high": r.ci_high}
    if kind == "theta":
        method = spec["method"]
        series = spec.get("series", "x_abs")
        q = float(spec.get("q", 0.995))
        v = _series(path, series)
        u = float(np.quantile(v, q))
        if method == "blocks":
            r = est.blocks_theta(v, u, int(spec.get("block_len", 100)),
                                 threads=threads)
        elif method == "runs":
            r = est.runs_theta(v, u, int(spec.get("run_len", 10)),
                               threads=threads)
        elif method == "intervals":
            r = est.intervals_theta(v, u, threads=threads)
        else:
            raise ValueError(f"unknown theta method {method!r}")
        out = _theta_json(r)
        out.update({"series": series, "q": q, "u": u})
        return out
    if kind == "extremogram":
        series = spec.get("series", "x_abs")
        lags = [int(h) for h in spec["lags"]]
        q = float(spec.get("q", 0.99))
        r = est.extremogram(_series(path, series), lags, q)
        name = ("extremogram.csv" if ordinal == 0
                else f"extremogram_{ordinal + 1}.csv")
        _write_extremogram_csv(out_dir / name, r)
        return {"series": series, "q": r.q, "u": r.u,
                "lags": list(r.lags), "chi_hat": [float(c) for c in r.chi_hat],
                "stderr": [float(s) for s in r.stderr], "csv": name}
    if kind == "breiman":
        q_grid = [float(q) for q in spec.get("q_grid", (0.99, 0.995, 0.999))]
        alpha = float(spec["alpha"])
        r = est.breiman_ratio(path.sigma, path.x, q_grid, alpha,
                              z=cfg.model.z)
        return {"alpha": alpha, **r.to_json()}
    if kind == "anticluster":
        m_grid = [int(m) for m in spec["m_grid"]]
        r_n = int(spec.get("r_n", math.isqrt(cfg.n)))
        r = est.anticluster_diag(cfg.model, m_grid, r_n,
                                 float(spec.get("y", 1.0)), cfg.n,
                                 reps=int(spec.get("reps", 200)),
                                 seed=sub_seed, burn_in=cfg.burn_in)
        return {"m_grid": list(r.m_grid),
                "estimates": [float(v) for v in r.estimates],
                "stderrs": [float(s) for s in r.stderrs],
                "n_windows": r.n_windows, "a_n": r.a_n, "u": r.u,
                "r_n": r.r_n, "y": r.y}
    if kind == "theory":
        return _run_theory(spec, cfg, sub_seed, threads)
    if kind == "figure":
        q_low = float(spec.get("q_low", 0.01))
        q_high = float(spec.get("q_high", 0.99))
        lo = float(np.quantile(path.x, q_low))
        hi = float(np.quantile(path.x, q_high))
        _write_figure_csv(out_dir / "figure.csv", path.x, lo, hi)
        return {"q_low": q_low, "q_high": q_high, "threshold_low": lo,
                "threshold_high": hi, "csv": "figure.csv"}
    raise ValueError(f"unknown analysis {kind!r}")


def _problem_from_model(model) -> theory.KestenProblem:
    if not isinstance(model, SreSvConfig):
        raise ValueError("kesten/theta analyses need an sresv model")
    return theory.KestenProblem(model.pair_source)


def _run_theory(spec: dict, cfg: ExperimentConfig, sub_seed: RngSeed,
                threads: int) -> dict:
    which = spec["which"]
    if which == "kesten":
        r = theory.kesten_index(_problem_from_model(cfg.model),
                                mc_reps=int(spec.get("mc_reps", 1_000_000)),
                                tol=float(spec.get("tol", 1e-4)),
                                seed=sub_seed)
        return {"which": which, **r.to_json()}
    if which == "theta_sigma":
        r = theory.theta_sigma_sre(_problem_from_model(cfg.model),
                                   alpha=float(spec["alpha"]),
                                   mc_reps=int(spec.get("mc_reps", 200_000)),
                                   trunc_T=int(spec.get("trunc_T", 10_000)),
                                   seed=sub_seed, threads=threads)
        return {"which": which, **r.to_json()}
    if which == "theta_x_sre":
        model = cfg.model
        if not isinstance(model, SreSvConfig):
            raise ValueError("theta_x_sre needs an sresv model")
        r = theory.theta_x_sre(theory.KestenProblem(model.pair_source),
                               z=model.z, alpha=float(spec["alpha"]),
                               p=model.p, m=int(spec.get("m", 50)),
                               mc_reps=int(spec.get("mc_reps", 1_000_000)),
                               seed=sub_seed, threads=threads)
        return {"which": which, **r.to_json()}
    if which == "theta_x_ma":
        model = cfg.model
        if not isinstance(model, MaSvConfig):
            raise ValueError("theta_x_ma needs a masv model")
        r = theory.theta_x_ma(model.psi, alpha=float(spec["alpha"]),
                              p=model.p, z=model.z,
                              mc_reps=int(spec.get("mc_reps", 200_000)),
                              seed=sub_seed, threads=threads)
        return {"which": which, **r.to_json()}
    raise ValueError(f"unknown theory quantity {which!r}")


def _write_extremogram_csv(fp: FsPath, r: est.ExtremogramResult) -> None:
    lines = ["lag,chi_hat,stderr"]
    for h, c, s in zip(r.lags, r.chi_hat, r.stderr):
        lines.append(f"{h},{c:.17g},{s:.17g}")
    fp.write_text("\n".join(lines) + "\n")


def _write_figure_csv(fp: FsPath, x: np.ndarray, lo: float,
                      hi: float) -> None:
    with open(fp, "w") as fh:
        write_csv_rows(fh, "t,x,exceed_low,exceed_high\n",
                       (x, x < lo, x > hi))


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _write_json(fp: FsPath, obj) -> None:
    fp.write_text(json.dumps(obj, indent=2, sort_keys=True,
                             default=_json_default) + "\n")


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
    for i, spec in enumerate(cfg.analyses):
        kind = spec["analysis"]
        ordinal = seen.get(kind, 0)
        seen[kind] = ordinal + 1
        entry = {"analysis": kind, "index": i}
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                entry.update(_run_one(kind, spec, cfg, path, out, i,
                                      ordinal, threads))
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
