"""Reproducible experiment driver and the one analysis registry.

An experiment is one simulated path plus a list of analyses, described by
an ExperimentConfig, whose JSON form is its fields (JsonFields; an
unknown key at any level is rejected). Running it writes, into an
output directory:

  * path.csv        the simulated path (t, sigma, x)
  * report.json     config echo, analysis results, timings, version
  * extremogram.csv one row (lag, chi_hat, stderr) per lag, and
    figure.csv      one row (t, x, side) per exceedance mark (path.csv
                    holds the rest), for each such analysis; the k-th of
                    its kind in a run writes <stem>_<k>.csv instead

SPECS holds each analysis kind's fields, each with its rule (as every
config field has one, checked when the config is built) and default.
read_spec reads a spec by it where the spec enters (when an
ExperimentConfig is built, or in a CLI command before it simulates): an
unknown field, a missing required field or a bad value raises a
ValueError that names the kind and the field. ANALYSES maps each kind to
one function (read spec, AnalysisInputs) -> report entry, built from the
result's own to_json(); run_experiment calls it for every spec of the
config, and the CLI's path and theory commands for one. An error that
depends on the path or the model (a k above the path length, a theory
quantity on the wrong model family) is recorded as that entry's error
instead of aborting the run; simulation or config failures do abort.
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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath
from typing import Optional

import numpy as np

from . import estimators as est
from .distributions import (JsonFields, at_least, check_int, laplace, level,
                            list_of, one_of, positive, std_normal, student_t)
from .models import (DEFAULT_BURN_IN, ExpAr1Config, Garch11Pair, MaSvConfig,
                     ModelConfig, SreSvConfig, path_to_csv, simulate)
from .rng import RngSeed

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "preset_config", "PRESET_NAMES"]


_SERIES = one_of("x", "x_abs", "sigma")
_count = at_least(1)

# kind -> field -> (rule, default), a rule as the config fields have
# (distributions: at_least, number, ...). Default ... marks a required
# field, None one the analysis fills in (anticluster r_n, theory mc_reps,
# breiman alpha from hill_k) or only kesten omits (theory alpha)
SPECS = {
    "hill": {"k": (at_least(2), ...), "series": (_SERIES, "x_abs")},
    "theta": {"method": (one_of("blocks", "runs", "intervals"), ...),
              "q": (level, 0.995), "block_len": (_count, 100),
              "run_len": (_count, 10), "series": (_SERIES, "x_abs")},
    "extremogram": {"lags": (list_of(at_least(0)), ...),
                    "q": (level, 0.99), "series": (_SERIES, "x_abs")},
    "breiman": {"alpha": (positive, None), "hill_k": (at_least(2), None),
                "q_grid": (list_of(level), (0.99, 0.995, 0.999))},
    "anticluster": {"m_grid": (list_of(_count), ...),
                    "r_n": (at_least(2), None), "y": (positive, 1.0),
                    "reps": (_count, 200)},
    "theory": {"which": (one_of("kesten", "theta_sigma", "theta_x_sre",
                                 "theta_x_ma"), ...),
               "alpha": (positive, None), "mc_reps": (at_least(2), None),
               "tol": (positive, 1e-4), "trunc_T": (_count, 10_000),
               "m": (_count, 50)},
    "figure": {"q_low": (level, 0.01), "q_high": (level, 0.99)},
}


def read_spec(kind, spec: dict) -> dict:
    """Every field of an analysis spec of this kind, as its rule reads it
    or at its default; a spec's own "analysis" key is not a field. An
    unknown kind or field, a missing required field, a bad value and a
    figure q_low not below q_high raise a ValueError naming them."""
    if not isinstance(kind, str) or kind not in SPECS:
        raise ValueError(f"unknown analysis {kind!r}")
    fields = SPECS[kind]
    for name in spec:
        if name not in fields and name != "analysis":
            raise ValueError(f"{kind} has no field {name!r}")
    out = {}
    for name, (rule, default) in fields.items():
        if name in spec:
            out[name] = rule(f"{kind} {name}", spec[name])
        elif default is ...:
            raise ValueError(f"{kind} {name} is required")
        else:
            out[name] = default
    if kind == "theory" and out["which"] != "kesten" and out["alpha"] is None:
        raise ValueError("theory alpha is required")
    if kind == "breiman" and (out["alpha"] is None) == (out["hill_k"] is None):
        raise ValueError("breiman alpha is required" if out["alpha"] is None
                         else "breiman takes alpha or hill_k, not both")
    # swapped levels would mark rows as both low and high
    if kind == "figure" and not out["q_low"] < out["q_high"]:
        raise ValueError(f"figure q_low must be below q_high, got "
                         f"q_low={out['q_low']!r}, q_high={out['q_high']!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig(JsonFields):
    model: ModelConfig
    n: int = field(metadata={"rule": _count})
    seed: RngSeed
    burn_in: int = field(default=DEFAULT_BURN_IN,
                         metadata={"rule": at_least(0)})
    analyses: tuple[dict, ...] = ()
    label: str = ""
    # analyses as read_spec reads them, the specs run_experiment runs
    specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.check_fields()
        object.__setattr__(self, "specs", tuple(
            read_spec(a.get("analysis"), a) for a in self.analyses))


@dataclass(frozen=True)
class ExperimentReport(JsonFields):
    config: ExperimentConfig
    results: tuple[dict, ...]
    timings: dict
    version: str


@dataclass(frozen=True)
class AnalysisInputs:
    """What an analysis reads besides its spec: the path (sigma and x),
    the model that made it (None for a stored path.csv), the seed of its
    own randomness (analysis_seed), its artifact directory, ordinal, the
    number of earlier analyses of its kind in the run, and the run's
    exceedance sets by (series, q), which replace() shares and the run
    frees at its end."""

    sigma: Optional[np.ndarray]
    x: Optional[np.ndarray]
    model: object
    seed: Optional[RngSeed]
    out: FsPath
    threads: int = 1
    burn_in: int = DEFAULT_BURN_IN
    ordinal: int = 0
    sets: dict = field(default_factory=dict, repr=False, compare=False)

    def series(self, name: str) -> np.ndarray:
        """x, |x| or sigma, by a spec's series name."""
        if name == "x":
            return self.x
        return np.abs(self.x) if name == "x_abs" else self.sigma

    def exceedance_set(self, name: str, q: float) -> est.ExceedanceSet:
        """A series' values above its q-quantile, built once per run."""
        if (name, q) not in self.sets:
            v = self.series(name)
            self.sets[name, q] = est.ExceedanceSet.of(v, est._quantile(v, q))
        return self.sets[name, q]

    def artifact(self, name: str) -> FsPath:
        """The path of an artifact file, creating the directory first."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def write_csv(self, stem: str, header: str, row: str, *columns) -> str:
        """Write this analysis's CSV, <stem>.csv for the first of its kind
        in the run and <stem>_<k>.csv for the k-th, and return its name:
        the header, then row % the items at each index of the columns."""
        name = (f"{stem}.csv" if self.ordinal == 0
                else f"{stem}_{self.ordinal + 1}.csv")
        fields = [None] * (len(columns) * len(columns[0]))
        for j, column in enumerate(columns):
            fields[j::len(columns)] = column
        self.artifact(name).write_text(
            f"{header}\n" + (row * len(columns[0])) % tuple(fields))
        return name


def _hill(spec: dict, run: AnalysisInputs) -> dict:
    r = est.hill(run.series(spec["series"]), spec["k"])
    return {"series": spec["series"], **r.to_json()}


def _theta(spec: dict, run: AnalysisInputs) -> dict:
    s = run.exceedance_set(spec["series"], spec["q"])
    r = est._theta(s, spec["method"], spec)
    return {**r.to_json(), "series": spec["series"], "q": spec["q"], "u": s.u}


def _extremogram(spec: dict, run: AnalysisInputs) -> dict:
    r = est.extremogram(run.series(spec["series"]), spec["lags"], spec["q"])
    name = run.write_csv("extremogram", "lag,chi_hat,stderr",
                         "%d,%.17g,%.17g\n", r.lags.tolist(),
                         r.chi_hat.tolist(), r.stderr.tolist())
    return {"series": spec["series"], **r.to_json(), "csv": name}


def _breiman(spec: dict, run: AnalysisInputs) -> dict:
    alpha = (spec["alpha"]  # else the Hill estimate on |x| at hill_k
             or est.hill(run.series("x_abs"), spec["hill_k"]).alpha_hat)
    # z multiplies sigma in x; GARCH returns hold z = eta
    r = est.breiman_ratio(run.sigma, run.x, spec["q_grid"], alpha,
                          z=run.model.z)
    return {"alpha": alpha, **r.to_json()}


def _anticluster(spec: dict, run: AnalysisInputs) -> dict:
    n = run.x.size
    r_n = math.isqrt(n) if spec["r_n"] is None else spec["r_n"]
    r = est.anticluster_diag(run.model, spec["m_grid"], r_n, spec["y"], n,
                             reps=spec["reps"], seed=run.seed,
                             burn_in=run.burn_in)
    out = r.to_json()
    del out["n"]  # the path length, which the report's config holds
    return out


def _theory(spec: dict, run: AnalysisInputs) -> dict:
    from . import theory  # only a theory analysis loads it

    which, model = spec["which"], run.model
    kw = {"seed": run.seed}
    if spec["mc_reps"] is not None:  # else the routine's own default
        kw["mc_reps"] = spec["mc_reps"]
    if which == "theta_x_ma":
        if not isinstance(model, MaSvConfig):
            raise ValueError("theta_x_ma needs a masv model")
        index = model.eta.alpha or model.eta.df  # sigma^p inherits eta's index
        if spec["alpha"] != index:
            raise ValueError(f"theta_x_ma alpha {spec['alpha']!r} differs "
                             f"from eta's tail index {index!r}")
        r = theory.theta_x_ma(model.psi, alpha=spec["alpha"], p=model.p,
                              z=model.z, threads=run.threads, **kw)
    elif not isinstance(model, SreSvConfig):
        raise ValueError(f"{which} needs an sresv model")
    elif which == "kesten":
        r = theory.kesten_index(theory.KestenProblem(model.pair_source),
                                tol=spec["tol"], **kw)
    elif which == "theta_sigma":
        r = theory.theta_sigma_sre(theory.KestenProblem(model.pair_source),
                                   alpha=spec["alpha"],
                                   trunc_T=spec["trunc_T"],
                                   threads=run.threads, **kw)
    elif model.garch_returns:  # theta_x_sre takes A_1 independent of Z_0
        raise ValueError("theta_x_sre needs an sresv model without "
                         "garch_returns")
    else:
        r = theory.theta_x_sre(theory.KestenProblem(model.pair_source),
                               z=model.z, alpha=spec["alpha"], p=model.p,
                               m=spec["m"], threads=run.threads, **kw)
    return {"which": which, **r.to_json()}


def _figure(spec: dict, run: AnalysisInputs) -> dict:
    lo = est._quantile(run.x, spec["q_low"])
    hi = est._quantile(run.x, spec["q_high"])
    # a mark is low where x < lo and high where x > hi, in increasing t
    low, high = run.x < lo, run.x > hi
    t = np.flatnonzero(low | high)
    name = run.write_csv("figure", "t,x,side", "%d,%.17g,%s\n", t.tolist(),
                         run.x[t].tolist(),
                         np.where(low[t], "low", "high").tolist())
    return {**spec, "threshold_low": lo, "threshold_high": hi,
            "marks_low": int(np.count_nonzero(low)),
            "marks_high": int(np.count_nonzero(high)), "csv": name}


# analysis kind -> function (read spec, inputs) -> report entry; the CLI's
# path and theory commands call the same functions
ANALYSES = {"hill": _hill, "theta": _theta, "extremogram": _extremogram,
            "breiman": _breiman, "anticluster": _anticluster,
            "theory": _theory, "figure": _figure}


def analysis_seed(seed: RngSeed, kind: str, index: int) -> Optional[RngSeed]:
    """The seed analysis `index` of a run at `seed` draws from: the child
    seed.child(1000 + index), which cannot overlap the simulation
    streams, for the kinds that draw (anticluster, theory), and None for
    the rest, which draw nothing and so derive no seed."""
    return (seed.child(1000 + index) if kind in ("anticluster", "theory")
            else None)


@contextmanager
def recording_warnings(entry: dict):
    """Record the warnings the block raises in entry, as a "warnings" list
    of "<Category>: <message>" strings, present only when not empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    if caught:
        entry["warnings"] = [f"{w.category.__name__}: {w.message}"
                             for w in caught]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(fp: FsPath, obj) -> None:
    fp.write_text(_json_text(obj) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir,
                   threads: int = 1) -> ExperimentReport:
    from . import __version__

    check_int("threads", threads, 1)
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
    run = AnalysisInputs(path.sigma, path.x, cfg.model, cfg.seed, out,
                         threads, cfg.burn_in)
    kinds = [a["analysis"] for a in cfg.analyses]
    for i, (kind, spec) in enumerate(zip(kinds, cfg.specs)):
        entry = {"analysis": kind, "index": i}
        t0 = time.perf_counter()
        with recording_warnings(entry):
            try:
                entry.update(ANALYSES[kind](spec, replace(
                    run, seed=analysis_seed(cfg.seed, kind, i),
                    ordinal=kinds[:i].count(kind))))
            except Exception as e:  # recorded, not fatal
                entry["error"] = f"{type(e).__name__}: {e}"
        timings[f"analysis_{i}_{kind}"] = time.perf_counter() - t0
        results.append(entry)

    report = ExperimentReport(cfg, tuple(results), timings, __version__)
    _write_json(out / "report.json", report.to_json())
    return report


def _fig2_analyses(garch_returns: bool) -> tuple:
    analyses = ({"analysis": "theta", "method": "intervals", "q": 0.995},
                {"analysis": "theta", "method": "blocks", "block_len": 100,
                 "q": 0.995},
                {"analysis": "theory", "which": "kesten", "mc_reps": 200_000})
    if garch_returns:  # A_1 and Z_0 share eta_0: no theta_x_sre
        return analyses
    return (*analyses, {"analysis": "theory", "which": "theta_x_sre",
                        "alpha": 2.0, "m": 50, "mc_reps": 200_000})


def _garch_sv(garch_returns: bool) -> SreSvConfig:
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                       eta=std_normal())
    return SreSvConfig(p=2.0, pair_source=pair, z=std_normal(),
                       garch_returns=garch_returns)


# name -> (model builder, builder of the analyses after figure, extremogram)
_PRESETS = {
    # log-volatility AR(1) driven by Laplace noise, Gaussian returns
    "fig1-left": (
        lambda: ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal()),
        lambda: ({"analysis": "hill", "k": 200},
                 {"analysis": "theta", "method": "intervals", "q": 0.99})),
    # Gaussian driver (unit variance), t(4) returns
    "fig1-right": (
        lambda: ExpAr1Config(phi=0.9, eta=std_normal(), z=student_t(4.0)),
        lambda: ({"analysis": "hill", "k": 200},)),
    "fig2-garch": (lambda: _garch_sv(True), lambda: _fig2_analyses(True)),
    "fig2-sv": (lambda: _garch_sv(False), lambda: _fig2_analyses(False)),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str, seed: RngSeed) -> ExperimentConfig:
    """Built-in experiment configs for the reference figures.

    fig1-left / fig1-right: exponential AR(1) volatility paths of length
    1000 with exceedance marks at the empirical 1% and 99% quantiles.
    fig2-garch / fig2-sv: GARCH(1,1) recursions, either fed back into the
    returns (garch) or run as an independent-volatility SV model (sv),
    with intervals and blocks theta estimates and the Kesten root
    alongside the figure and the extremogram; fig2-sv adds theta_x_sre,
    which does not hold for GARCH returns (A_1 and Z_0 share eta_0).
    """
    if name not in PRESET_NAMES:  # a tuple: an unhashable name gets this too
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {', '.join(PRESET_NAMES)}")
    model, analyses = _PRESETS[name]
    # new dicts on every call, so no two configs share a lags list
    return ExperimentConfig(
        model=model(), n=1000, seed=seed, label=name,
        analyses=({"analysis": "figure", "q_low": 0.01, "q_high": 0.99},
                  {"analysis": "extremogram", "lags": list(range(1, 11)),
                   "q": 0.99}, *analyses()))
