"""Experiment-driver tests: artifacts, reproducibility, preset claims."""

import json

import numpy as np
import pytest

import svextremes
from svextremes import (ExperimentConfig, ExperimentReport, Garch11Pair,
                        PRESET_NAMES, RngSeed, SreSvConfig, laplace,
                        preset_config, run_experiment, simulate, std_normal,
                        student_t)
from svextremes.experiments import _fig1_model, _write_figure_csv
from svextremes.models import ExpAr1Config


def small_model():
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    return SreSvConfig(p=2.0, pair_source=pair, z=std_normal())


def small_config(analyses=(), n=2000, seed=11):
    return ExperimentConfig(model=small_model(), n=n, seed=RngSeed(seed),
                            burn_in=1000, analyses=analyses, label="unit")


# -- config record --------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown analysis"):
        small_config(analyses=({"analysis": "bogus"},))
    with pytest.raises(ValueError, match="n must be"):
        small_config(n=0)
    with pytest.raises(ValueError, match="burn_in"):
        ExperimentConfig(model=small_model(), n=10, seed=RngSeed(0),
                         burn_in=-1)


def test_config_rejects_fractional_n_and_burn_in():
    with pytest.raises(ValueError, match="n must be a whole number, got 10.5"):
        small_config(n=10.5)
    with pytest.raises(ValueError, match="burn_in must be a whole number"):
        ExperimentConfig(model=small_model(), n=10, seed=RngSeed(0),
                         burn_in=2.5)


def test_config_from_json_rejects_fractional_n_and_keeps_integral_floats():
    obj = small_config().to_json()
    with pytest.raises(ValueError, match="n must be a whole number"):
        ExperimentConfig.from_json({**obj, "n": 10.5})
    with pytest.raises(ValueError, match="burn_in must be a whole number"):
        ExperimentConfig.from_json({**obj, "burn_in": "1000"})
    cfg = ExperimentConfig.from_json({**obj, "n": 1000000.0,
                                      "burn_in": 100.0})
    assert (cfg.n, cfg.burn_in) == (1000000, 100)
    assert type(cfg.n) is int and type(cfg.burn_in) is int

def test_config_json_roundtrip():
    cfg = small_config(analyses=({"analysis": "hill", "k": 100},
                                 {"analysis": "theta", "method": "blocks",
                                  "q": 0.99, "block_len": 50}))
    rt = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert rt == cfg


# -- running --------------------------------------------------------------

def test_empty_analysis_list_writes_path_only(tmp_path):
    report = run_experiment(small_config(), tmp_path / "out")
    assert (tmp_path / "out" / "path.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert report.results == ()
    assert report.version == svextremes.__version__
    assert "simulate" in report.timings
    assert "write_path_csv" in report.timings


def test_analysis_results_recorded(tmp_path):
    cfg = small_config(analyses=(
        {"analysis": "hill", "k": 100},
        {"analysis": "theta", "method": "intervals", "q": 0.99},
        {"analysis": "breiman", "alpha": 4.0, "q_grid": [0.99]},
    ))
    report = run_experiment(cfg, tmp_path / "out")
    assert [r["analysis"] for r in report.results] == ["hill", "theta",
                                                       "breiman"]
    assert report.results[0]["alpha_hat"] > 0
    assert 0 < report.results[1]["theta_hat"] <= 1
    assert report.results[2]["target"] == pytest.approx(1.5)  # E(Z_+)^4
    blob = json.loads((tmp_path / "out" / "report.json").read_text())
    assert blob["results"][0]["alpha_hat"] == report.results[0]["alpha_hat"]


def test_analysis_error_recorded_not_fatal(tmp_path):
    cfg = small_config(analyses=(
        {"analysis": "hill", "k": 1},               # invalid k
        {"analysis": "hill", "k": 100, "series": "bogus"},
        {"analysis": "hill", "k": 100},             # still runs
    ))
    report = run_experiment(cfg, tmp_path / "out")
    assert report.results[0]["error"].startswith("ValueError: k must be")
    assert "unknown series" in report.results[1]["error"]
    assert "error" not in report.results[2]
    assert report.results[2]["alpha_hat"] > 0


def test_analysis_warnings_recorded_per_entry(tmp_path):
    # sigma has nothing above its own maximum, so level 1.0 is dropped
    # with a warning, once in each breiman analysis
    dropped = "UserWarning: no exceedances at level 1.0; grid point dropped"
    breiman = {"analysis": "breiman", "alpha": 4.0, "q_grid": [0.99, 1.0]}
    cfg = small_config(analyses=({"analysis": "hill", "k": 100}, breiman,
                                 breiman))
    report = run_experiment(cfg, tmp_path / "out")
    assert "warnings" not in report.results[0]
    assert report.results[1]["warnings"] == [dropped]
    assert report.results[2]["warnings"] == [dropped]
    assert report.results[1]["levels"] == [0.99]
    blob = json.loads((tmp_path / "out" / "report.json").read_text())
    assert blob["results"][1]["warnings"] == [dropped]
    assert "warnings" not in blob["results"][0]


def read_marks(fp):
    """figure.csv as (t, x, side) arrays."""
    lines = fp.read_text().splitlines()
    assert lines[0] == "t,x,side"
    rows = [line.split(",") for line in lines[1:]]
    return (np.array([int(r[0]) for r in rows], dtype=np.intp),
            np.array([float(r[1]) for r in rows]),
            np.array([r[2] for r in rows], dtype=object))


def test_figure_csv_marks_exceedances(tmp_path):
    cfg = small_config(analyses=({"analysis": "figure", "q_low": 0.05,
                                  "q_high": 0.95},), n=400)
    report = run_experiment(cfg, tmp_path / "out")
    entry = report.results[0]
    t, x, side = read_marks(tmp_path / "out" / "figure.csv")
    path = simulate(cfg.model, cfg.n, burn_in=cfg.burn_in, seed=cfg.seed)
    low = np.flatnonzero(path.x < entry["threshold_low"])
    high = np.flatnonzero(path.x > entry["threshold_high"])
    assert np.array_equal(t, np.union1d(low, high))
    assert np.array_equal(x, path.x[t])
    assert np.array_equal(t[side == "low"], low)
    assert np.array_equal(t[side == "high"], high)
    assert set(side) == {"low", "high"}
    assert (entry["marks_low"], entry["marks_high"]) == (low.size, high.size)
    assert high.size == pytest.approx(0.05 * 400, abs=5)


@pytest.mark.parametrize("spec, field", [
    ({"q_low": 1.5}, "q_low"), ({"q_low": 0.0}, "q_low"),
    ({"q_low": -0.1}, "q_low"), ({"q_low": float("nan")}, "q_low"),
    ({"q_low": "0.01"}, "q_low"), ({"q_low": True}, "q_low"),
    ({"q_high": 1.0}, "q_high"), ({"q_high": float("inf")}, "q_high"),
    ({"q_high": None}, "q_high"),
    ({"q_low": 0.99, "q_high": 0.01}, "q_low must be below q_high"),
    ({"q_low": 0.5, "q_high": 0.5}, "q_low must be below q_high"),
    ({"q_low": 0.995}, "q_low must be below q_high")])
def test_figure_spec_rejected_where_it_enters(spec, field):
    # swapped levels would mark rows as both low and high
    analyses = ({"analysis": "figure", **spec},)
    with pytest.raises(ValueError, match=f"figure {field}"):
        small_config(analyses=analyses)
    blob = small_config().to_json()
    blob["analyses"] = list(analyses)
    with pytest.raises(ValueError, match=f"figure {field}"):
        ExperimentConfig.from_json(blob)


def test_figure_spec_accepts_levels_in_order():
    for spec in ({}, {"q_low": 0.2}, {"q_high": np.float64(0.5)},
                 {"q_low": 1e-9, "q_high": 1 - 1e-9}):
        small_config(analyses=({"analysis": "figure", **spec},))


@pytest.mark.parametrize("q", [1.5, 0.0, 1.0, float("nan"), "0.99", True])
@pytest.mark.parametrize("spec", [
    {"analysis": "theta", "method": "intervals"},
    {"analysis": "extremogram", "lags": [1]}], ids=["theta", "extremogram"])
def test_quantile_spec_rejected_where_it_enters(spec, q):
    # a q outside (0, 1) used to pass the config, simulate the path and
    # leave numpy's "Quantiles must be in the range [0, 1]" in the entry
    kind = spec["analysis"]
    analyses = ({**spec, "q": q},)
    cfg = dict(model=ExpAr1Config(phi=0.5, eta=laplace(4.0), z=std_normal()),
               n=200, seed=RngSeed(1))
    with pytest.raises(ValueError, match=f"{kind} q must be a finite number"):
        ExperimentConfig(**cfg, analyses=analyses)
    blob = ExperimentConfig(**cfg).to_json()
    blob["analyses"] = list(analyses)
    with pytest.raises(ValueError, match=f"{kind} q must be a finite number"):
        ExperimentConfig.from_json(blob)


def test_extremogram_csv_naming(tmp_path):
    cfg = small_config(analyses=(
        {"analysis": "figure"},
        {"analysis": "extremogram", "lags": [1, 2], "q": 0.95},
        {"analysis": "extremogram", "lags": [1], "q": 0.9},
    ))
    report = run_experiment(cfg, tmp_path / "out")
    assert report.results[1]["csv"] == "extremogram.csv"
    assert report.results[2]["csv"] == "extremogram_2.csv"
    lines = (tmp_path / "out" / "extremogram.csv").read_text().splitlines()
    assert lines[0] == "lag,chi_hat,stderr"
    assert len(lines) == 3


def test_theory_analysis_needs_matching_model(tmp_path):
    cfg = ExperimentConfig(model=ExpAr1Config(phi=0.5, eta=laplace(4.0),
                                              z=std_normal()),
                           n=100, seed=RngSeed(0), burn_in=100,
                           analyses=({"analysis": "theory",
                                      "which": "kesten", "mc_reps": 1000},))
    report = run_experiment(cfg, tmp_path / "out")
    assert "sresv model" in report.results[0]["error"]


def test_rerun_from_report_is_byte_identical(tmp_path):
    cfg = small_config(analyses=(
        {"analysis": "figure"},
        {"analysis": "extremogram", "lags": [1, 2, 3], "q": 0.95},
        {"analysis": "hill", "k": 100},
        {"analysis": "theta", "method": "blocks", "q": 0.99,
         "block_len": 50},
        {"analysis": "theory", "which": "theta_x_sre", "alpha": 2.0,
         "m": 5, "mc_reps": 20_000},
    ))
    run_experiment(cfg, tmp_path / "a", threads=1)
    blob = json.loads((tmp_path / "a" / "report.json").read_text())
    cfg2 = ExperimentConfig.from_json(blob["config"])
    run_experiment(cfg2, tmp_path / "b", threads=3)
    for name in ("path.csv", "figure.csv", "extremogram.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("timings")
    rb.pop("timings")
    assert ra == rb


def test_report_json_roundtrip(tmp_path):
    cfg = small_config(analyses=({"analysis": "hill", "k": 100},))
    report = run_experiment(cfg, tmp_path / "out")
    rt = ExperimentReport.from_json(
        json.loads((tmp_path / "out" / "report.json").read_text()))
    assert rt.config == report.config
    assert rt.version == report.version
    assert rt.results[0]["alpha_hat"] == report.results[0]["alpha_hat"]


# -- presets --------------------------------------------------------------

def test_preset_configs_construct():
    for name in PRESET_NAMES:
        cfg = preset_config(name, RngSeed(5))
        assert cfg.n == 1000
        assert cfg.label == name
        kinds = [a["analysis"] for a in cfg.analyses]
        assert kinds[0] == "figure"
        assert "extremogram" in kinds
    assert preset_config("fig2-garch", RngSeed(5)).model.garch_returns
    assert not preset_config("fig2-sv", RngSeed(5)).model.garch_returns
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("fig3", RngSeed(5))


def test_fig1_right_is_gaussian_log_ar1_with_t4_returns():
    # the classical case the paper's abstract cites: Gaussian log-volatility
    # with regularly varying Z, so sigma is lighter-tailed than Z
    assert _fig1_model("right") == ExpAr1Config(phi=0.9, eta=std_normal(),
                                                z=student_t(4.0))
    assert preset_config("fig1-right", RngSeed(0)).model == \
        _fig1_model("right")


def test_figure_csv_bytes_match_per_row_formatting(tmp_path):
    # the reference formats each mark with Python's %; (-1, -0.5) marks
    # -0.0 and 5e-324 high, (inf, inf) marks every value but nan and
    # inf low, and nan thresholds mark nothing
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, -2.0, 2.0,
                  1.0, -1.0])
    for lo, hi in ((-1.0, 1.0), (-1.0, -0.5), (np.inf, np.inf),
                   (np.nan, np.nan)):
        lo, hi = np.float64(lo), np.float64(hi)
        counts = _write_figure_csv(tmp_path / "figure.csv", x, lo, hi)
        ref = "t,x,side\n" + "".join(
            "%d,%.17g,%s\n" % (t, v, "low" if v < lo else "high")
            for t, v in enumerate(x.tolist()) if v < lo or v > hi)
        assert (tmp_path / "figure.csv").read_text() == ref, (lo, hi)
        assert counts == (np.count_nonzero(x < lo),
                          np.count_nonzero(x > hi))


def _preset_marks(name, seed):
    # the marks of the preset's figure, low or high, as a bool per step
    cfg = preset_config(name, RngSeed(0))
    fig = next(a for a in cfg.analyses if a["analysis"] == "figure")
    x = simulate(cfg.model, cfg.n, burn_in=cfg.burn_in, seed=seed).x
    return ((x < np.quantile(x, fig["q_low"]))
            | (x > np.quantile(x, fig["q_high"])))


def _adjacent_mark_fraction(name, n_seeds=50):
    # share of seeds whose preset figure.csv marks contain an adjacent pair
    hits = 0
    for s in range(n_seeds):
        e = _preset_marks(name, RngSeed(s))
        hits += bool(np.any(e[1:] & e[:-1]))
    return hits / n_seeds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fig1_figure_csv_holds_the_marks_of_the_adjacency_check(tmp_path,
                                                                seed):
    run_experiment(preset_config("fig1-left", RngSeed(seed)), tmp_path)
    t, _, _ = read_marks(tmp_path / "figure.csv")
    assert np.array_equal(t,
                          np.flatnonzero(_preset_marks("fig1-left",
                                                       RngSeed(seed))))
    assert t.size == 20


def test_fig2_preset_shows_clustered_exceedances():
    # claimed: an adjacent pair among the figure's marks in >= 50% of
    # seeds. Z is symmetric and independent of sigma, so the members of a
    # volatility cluster take random signs and a clustered pair lands in one
    # tail only about half the time; counting either-tail marks, as the
    # figure shows them, the rate over 200 seeds is 0.82 (0.405 for upper-
    # tail marks alone), against 0.33 for i.i.d. normal data.
    assert _adjacent_mark_fraction("fig2-sv") >= 0.5


def test_fig1_preset_shows_isolated_exceedances():
    # claimed: no adjacent pair among the figure's marks in >= 90% of
    # seeds. The AR(1) log-volatility at phi = 0.9 is persistent enough
    # that every one of the 50 length-1000 paths has an adjacent pair of
    # either-tail marks at the 1%/99% levels, so the measured no-adjacency
    # rate is 0.0 (0.36 for upper-tail marks alone). The exact law agrees:
    # its lag-1 extremogram of |X| is 0.21 at q = 0.99.
    assert 1.0 - _adjacent_mark_fraction("fig1-left") >= 0.9


def test_fig2_preset_runs_clean(tmp_path):
    report = run_experiment(preset_config("fig2-sv", RngSeed(0)),
                            tmp_path / "out")
    assert all("error" not in r for r in report.results)
    kinds = [r["analysis"] for r in report.results]
    assert kinds.count("theory") == 2
    kesten = next(r for r in report.results if r.get("which") == "kesten")
    assert abs(kesten["kappa"] - 2.0) < 0.1
