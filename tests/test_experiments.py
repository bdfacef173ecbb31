"""Experiment-driver tests: artifacts, reproducibility, preset claims."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import svextremes
from svextremes import estimators
from svextremes import (ExperimentConfig, ExperimentReport, Garch11Pair,
                        MaSvConfig, PRESET_NAMES, RngSeed, SreSvConfig,
                        constant, laplace, pareto, preset_config,
                        run_experiment, simulate, std_normal, student_t)
from svextremes.experiments import ANALYSES, AnalysisInputs, read_spec
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


@pytest.mark.parametrize("field, message", [
    ("model", "field 'model' must be ExpAr1Config or EgarchConfig or "
              "SreSvConfig or MaSvConfig, got 5"),
    ("seed", "field 'seed' must be RngSeed, got 5")])
def test_config_rejects_a_model_or_seed_of_the_wrong_type(tmp_path, field,
                                                          message):
    # the parent built both and failed inside run_experiment, after it
    # had made the output directory
    kw = {"model": small_model(), "n": 100, "seed": RngSeed(0), field: 5}
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_experiment(ExperimentConfig(**kw), out)
    assert not out.exists()


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


@pytest.mark.parametrize("field, value, message", [
    ("label", 5, "field 'label' must be a string, got 5"),
    *(("analyses", v, f"field 'analyses' must be a list, each item an "
                      f"object, got {v!r}")
      for v in (5, [5], "ab", [{"analysis": "hill", "k": 10}, 5]))])
def test_config_rejects_a_label_or_analyses_of_the_wrong_type(
        tmp_path, field, value, message):
    # the parent built label=5, then wrote a report.json that its own
    # from_json rejected; bad analyses failed with a TypeError or a
    # message that named no field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(small_model(), 100, RngSeed(0), **{field: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_json({**small_config().to_json(),
                                    field: value})
    assert small_config(analyses=[{"analysis": "hill", "k": 10}]).analyses \
        == ({"analysis": "hill", "k": 10},)


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


def test_signed_series_is_the_path_x(tmp_path):
    # series "x" reads the signed path: each entry is the library call on x
    path = simulate(small_model(), 20_000, seed=RngSeed(4))
    x = path.x
    run = AnalysisInputs(path.sigma, x, path.config, RngSeed(0), tmp_path)

    def entry(kind, **spec):
        return ANALYSES[kind](read_spec(kind, {**spec, "series": "x"}), run)

    assert entry("hill", k=100) == {"series": "x",
                                    **estimators.hill(x, 100).to_json()}
    u = estimators._quantile(x, 0.995)
    assert entry("theta", method="intervals") == {
        **estimators.intervals_theta(x, u).to_json(), "series": "x",
        "q": 0.995, "u": u}
    assert entry("extremogram", lags=[1, 2]) == {
        "series": "x", **estimators.extremogram(x, [1, 2], 0.99).to_json(),
        "csv": "extremogram.csv"}


def test_analysis_error_recorded_not_fatal(tmp_path):
    cfg = small_config(analyses=(
        {"analysis": "extremogram", "lags": [1000]},  # not below n/2
        {"analysis": "hill", "k": 5000},            # above the path length
        {"analysis": "hill", "k": 100},             # still runs
    ))
    report = run_experiment(cfg, tmp_path / "out")
    assert report.results[0]["error"] == (
        "ValueError: each lag must satisfy 0 <= lag < n/2")
    assert report.results[1]["error"] == (
        "ValueError: need at least k+1 strictly positive values")
    assert "error" not in report.results[2]
    assert report.results[2]["alpha_hat"] > 0


def test_hill_on_infinite_sigma_is_recorded_as_plus_inf(tmp_path):
    # sigma = |eta|^100 of a pareto(1) eta overflows twice in 2,000 steps
    model = MaSvConfig(p=0.01, psi=(1.0,), eta=pareto(1.0), z=std_normal())
    cfg = ExperimentConfig(model=model, n=2000, seed=RngSeed(1), burn_in=0,
                           analyses=({"analysis": "hill", "k": 100,
                                      "series": "sigma"},))
    with np.errstate(over="ignore"):
        report = run_experiment(cfg, tmp_path / "out")
    assert report.results[0]["error"] == "ValueError: values contain +inf"


def test_threshold_statistics_on_infinite_sigma_record_plus_inf(tmp_path):
    # the parent counted the 2 infinite sigma as exceedances of every
    # threshold; the figure's quantiles still take +-inf
    model = MaSvConfig(p=0.01, psi=(1.0,), eta=pareto(1.0), z=std_normal())
    cfg = ExperimentConfig(model=model, n=2000, seed=RngSeed(1), burn_in=0,
                           analyses=(
        *({"analysis": "theta", "method": m, "series": "sigma"}
          for m in ("blocks", "runs", "intervals")),
        {"analysis": "extremogram", "lags": [1], "series": "sigma"},
        {"analysis": "breiman", "alpha": 1.0},
        {"analysis": "figure"}))
    with np.errstate(over="ignore"):
        report = run_experiment(cfg, tmp_path / "out")
    *counted, figure = report.results
    assert [r["error"] for r in counted] == \
        ["ValueError: values contain +inf"] * 5
    assert "error" not in figure
    assert figure["marks_low"] == figure["marks_high"] == 20


def test_theta_x_sre_on_garch_returns_is_an_entry_error(tmp_path):
    # the formula takes A_1 as independent of Z_0, which share eta_0 under
    # GARCH returns; the parent read 0.2618 on fig2-garch, where the GARCH
    # value is about 0.206. The Kesten root of sigma's recursion holds
    model = replace(small_model(), garch_returns=True)
    cfg = ExperimentConfig(model=model, n=100, seed=RngSeed(1), analyses=(
        {"analysis": "theory", "which": "theta_x_sre", "alpha": 2.0,
         "m": 5, "mc_reps": 1000},
        {"analysis": "theory", "which": "kesten", "mc_reps": 20_000}))
    theta_x, kesten = run_experiment(cfg, tmp_path / "out").results
    assert theta_x["error"] == ("ValueError: theta_x_sre needs an sresv "
                                "model without garch_returns")
    assert "error" not in kesten


def test_fractional_analysis_tuning_is_an_entry_error():
    # rejected when the config is built, before any path is simulated
    for spec, name in (
            ({"analysis": "theta", "method": "blocks", "q": 0.95,
              "block_len": 10.5}, "theta block_len"),
            ({"analysis": "hill", "k": 20.7}, "hill k"),
            ({"analysis": "theta", "method": "runs", "run_len": 2.5},
             "theta run_len"),
            ({"analysis": "extremogram", "lags": [1, 2.5]},
             "extremogram lags"),
            ({"analysis": "anticluster", "m_grid": [1.5]},
             "anticluster m_grid"),
            ({"analysis": "anticluster", "m_grid": [1], "r_n": 10.5},
             "anticluster r_n"),
            ({"analysis": "anticluster", "m_grid": [1], "reps": 0.5},
             "anticluster reps")):
        with pytest.raises(ValueError, match=f"^{name} must be a whole "
                                             "number, got "):
            small_config(analyses=(spec,))


def test_theory_tuning_is_read_as_whole_numbers():
    for spec, name in (
            ({"which": "kesten", "mc_reps": 1000.5}, "mc_reps"),
            ({"which": "theta_sigma", "alpha": 2.0, "mc_reps": 1000,
              "trunc_T": 100.5}, "trunc_T"),
            ({"which": "theta_x_sre", "alpha": 2.0, "mc_reps": 1000,
              "m": 2.5}, "m")):
        with pytest.raises(ValueError, match=f"^theory {name} must be a "
                                             "whole number, got "):
            small_config(analyses=({"analysis": "theory", **spec},), n=10)


def test_integral_float_tuning_runs_as_its_int(tmp_path):
    def results(k, block_len, mc_reps):
        cfg = small_config(analyses=(
            {"analysis": "hill", "k": k},
            {"analysis": "theta", "method": "blocks", "q": 0.99,
             "block_len": block_len},
            {"analysis": "theory", "which": "kesten", "mc_reps": mc_reps}))
        report = run_experiment(cfg, tmp_path / str(k))
        return [{key: v for key, v in r.items() if key != "index"}
                for r in report.results]

    as_float = results(100.0, 50.0, 20_000.0)
    assert as_float == results(100, 50, 20_000)
    assert type(as_float[0]["k"]) is int
    assert as_float[1]["tuning"]["block_len"] == 50
    assert type(as_float[2]["mc_reps"]) is int


def test_analysis_warnings_recorded_per_entry(tmp_path):
    # with Z = 1/2, x = sigma/2 never exceeds sigma's 0.99 quantile on
    # this path, so that level is dropped with a warning, once in each
    # breiman analysis
    dropped = "UserWarning: no exceedances at level 0.99; grid point dropped"
    breiman = {"analysis": "breiman", "alpha": 4.0, "q_grid": [0.5, 0.99]}
    cfg = small_config(analyses=({"analysis": "hill", "k": 100}, breiman,
                                 breiman))
    cfg = replace(cfg, model=replace(cfg.model, z=constant(0.5)))
    report = run_experiment(cfg, tmp_path / "out")
    assert "warnings" not in report.results[0]
    assert report.results[1]["warnings"] == [dropped]
    assert report.results[2]["warnings"] == [dropped]
    assert report.results[1]["levels"] == [0.5]
    blob = json.loads((tmp_path / "out" / "report.json").read_text())
    assert blob["results"][1]["warnings"] == [dropped]
    assert "warnings" not in blob["results"][0]


def test_breiman_alpha_from_hill_k_is_the_hill_estimate(tmp_path):
    # a spec with hill_k runs breiman at Hill's alpha_hat on |x| at that
    # k, and records it as the entry's alpha
    hill = {"analysis": "hill", "k": 100}
    report = run_experiment(small_config(analyses=(
        hill, {"analysis": "breiman", "hill_k": 100})), tmp_path / "a")
    alpha = report.results[0]["alpha_hat"]
    given = run_experiment(small_config(analyses=(
        hill, {"analysis": "breiman", "alpha": alpha})), tmp_path / "b")
    assert report.results[1] == given.results[1]  # ratios included
    assert report.results[1]["alpha"] == alpha


def test_breiman_records_a_failed_hill_as_its_error(tmp_path):
    # hill_k above the path length fails in Hill, which is the entry's
    # error
    report = run_experiment(small_config(analyses=(
        {"analysis": "breiman", "hill_k": 5000},)), tmp_path / "out")
    assert report.results[0]["error"] == ("ValueError: need at least k+1 "
                                          "strictly positive values")


def test_breiman_target_of_garch_returns_is_eta_moment(tmp_path):
    # x = sigma eta on GARCH returns, so the target is E(eta_+)^4 = 1.5.
    # A z other than eta, once taken for the target's law (a t(3) z gave
    # "ValueError: moment diverges"), is rejected where the model enters
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    with pytest.raises(ValueError, match=re.escape(
            "garch_returns multiplies sigma by the pair's eta std_normal(), "
            "so z must equal it, got z student_t(df=3.0, "
            "standardized=False)")):
        SreSvConfig(p=2.0, pair_source=pair,
                    z=student_t(3.0, standardized=False), garch_returns=True)
    model = SreSvConfig(p=2.0, pair_source=pair, z=std_normal(),
                        garch_returns=True)
    cfg = ExperimentConfig(model=model, n=20_000, seed=RngSeed(1),
                           analyses=({"analysis": "breiman", "alpha": 4.0},))
    entry = run_experiment(cfg, tmp_path / "out").results[0]
    assert "error" not in entry
    assert entry["target"] == pytest.approx(1.5, rel=1e-12)


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


@pytest.mark.parametrize("spec, message", [
    ({"q_grid": [0.99, 1.5]}, "breiman q_grid must be a finite number"),
    ({"q_grid": [1.0]}, "breiman q_grid must be a finite number"),
    ({"q_grid": ["0.99"]}, "breiman q_grid must be a finite number"),
    ({"q_grid": 0.99}, "breiman q_grid must be a list"),
    ({"alpha": float("nan")}, "breiman alpha must be a finite number > 0"),
    ({"alpha": 0.0}, "breiman alpha must be a finite number > 0"),
    ({"alpha": float("inf")}, "breiman alpha must be a finite number > 0"),
    ({"alpha": "4"}, "breiman alpha must be a finite number > 0"),
    ({"alpha": 10**400}, "breiman alpha must be a finite number > 0"),
    ({"alpha": True}, "breiman alpha must be a finite number > 0"),
    ({"hill_k": 100}, "breiman takes alpha or hill_k, not both"),
    ({"hill_k": 2.5}, "breiman hill_k must be a whole number, got 2.5"),
    ({"hill_k": "100"}, "breiman hill_k must be a whole number, got '100'"),
    ({"hill_k": None}, "breiman hill_k must be a whole number, got None")])
def test_breiman_spec_rejected_where_it_enters(spec, message):
    # q_grid [1.5] used to simulate the path and then record numpy's
    # "Quantiles must be in the range [0, 1]"; alpha nan wrote a NaN
    # target, which is not JSON, and alpha 0 the target 0.5
    analyses = ({"analysis": "breiman", "alpha": 4.0, **spec},)
    with pytest.raises(ValueError, match=message):
        small_config(analyses=analyses)
    blob = small_config().to_json()
    blob["analyses"] = list(analyses)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(blob)


@pytest.mark.parametrize("spec, message", [
    ({"analysis": "hill", "k": -3}, "hill k must be >= 2"),
    ({"analysis": "hill", "k": 1.0}, "hill k must be >= 2"),
    ({"analysis": "breiman", "hill_k": 1},
     "breiman hill_k must be >= 2")])
def test_hill_order_statistics_rejected_where_they_enter(spec, message):
    # Hill needs two order statistics: a smaller k is refused where the
    # spec enters, not after the path is simulated
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_spec(spec["analysis"], spec)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_config(analyses=(spec,))


@pytest.mark.parametrize("spec, message", [
    ({"analysis": "theta"}, "theta method is required"),
    ({"analysis": "hill"}, "hill k is required"),
    ({"analysis": "extremogram"}, "extremogram lags is required"),
    ({"analysis": "breiman"}, "breiman alpha is required"),
    ({"analysis": "anticluster"}, "anticluster m_grid is required"),
    ({"analysis": "theory"}, "theory which is required"),
    *(({"analysis": "theory", "which": which}, "theory alpha is required")
      for which in ("theta_sigma", "theta_x_sre", "theta_x_ma")),
    ({"analysis": "theory", "which": "kesten", "alpha": "2"},
     "theory alpha must be a finite number > 0, got '2'"),
    ({"analysis": "theory", "which": "theta_sigma", "alpha": 0.0},
     "theory alpha must be a finite number > 0"),
    ({"analysis": "theory", "which": "theta_x_sre", "alpha": float("nan")},
     "theory alpha must be a finite number > 0"),
    ({"analysis": "theory", "which": "kesten", "tol": "0.001"},
     "theory tol must be a finite number > 0, got '0.001'"),
    ({"analysis": "theory", "which": "kesten", "tol": -1e-4},
     "theory tol must be a finite number > 0"),
    ({"analysis": "anticluster", "m_grid": [1], "y": "1"},
     "anticluster y must be a finite number > 0, got '1'"),
    ({"analysis": "anticluster", "m_grid": [1], "y": float("nan")},
     "anticluster y must be a finite number > 0"),
    ({"analysis": "anticluster", "m_grid": [1], "y": -1},
     "anticluster y must be a finite number > 0"),
    ({"analysis": "anticluster", "m_grid": 3},
     "anticluster m_grid must be a list, got 3"),
    ({"analysis": "extremogram", "lags": 3},
     "extremogram lags must be a list, got 3"),
    ({"analysis": "theta", "method": "blocks", "block_len": 0},
     "theta block_len must be >= 1"),
    ({"analysis": "theta", "method": "runs", "run_len": -3},
     "theta run_len must be >= 1"),
    ({"analysis": "theory", "which": "kesten", "m": 0},
     "theory m must be >= 1"),
    ({"analysis": "theory", "which": "kesten", "trunc_T": 0},
     "theory trunc_T must be >= 1"),
    ({"analysis": "theory", "which": "kesten", "mc_reps": 1},
     "theory mc_reps must be >= 2"),
    ({"analysis": "extremogram", "lags": [1, -1]},
     "extremogram lags must be >= 0"),
    ({"analysis": "extremogram", "lags": []},
     "extremogram lags must not be empty"),
    ({"analysis": "anticluster", "m_grid": [0]},
     "anticluster m_grid must be >= 1"),
    ({"analysis": "anticluster", "m_grid": []},
     "anticluster m_grid must not be empty"),
    ({"analysis": "anticluster", "m_grid": [1], "r_n": 0},
     "anticluster r_n must be >= 2"),
    ({"analysis": "anticluster", "m_grid": [1], "reps": 0},
     "anticluster reps must be >= 1")])
def test_analysis_spec_rejected_where_it_enters(spec, message):
    # each of these used to simulate the path first, then record a bare
    # KeyError, fail with a message that names no field, or run with a
    # string turned into a number
    with pytest.raises(ValueError, match=re.escape(message)):
        small_config(analyses=(spec,))
    blob = small_config().to_json()
    blob["analyses"] = [spec]
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_json(blob)


@pytest.mark.parametrize("spec, message", [
    ({"analysis": "hill", "k": 20, "bogus": 1}, "hill has no field 'bogus'"),
    ({"analysis": "figure", "q": 0.5}, "figure has no field 'q'"),
    ({"analysis": "hill", "k": 100, "series": "bogus"},
     "hill series must be one of x, x_abs, sigma, got 'bogus'"),
    ({"analysis": "theta", "method": "peaks"},
     "theta method must be one of blocks, runs, intervals, got 'peaks'"),
    ({"analysis": "theory", "which": "theta_x"},
     "theory which must be one of kesten, theta_sigma, theta_x_sre, "
     "theta_x_ma, got 'theta_x'"),
    ({"analysis": "theory", "which": "kesten", "mc_reps": True},
     "theory mc_reps must be a whole number, got True")])
def test_unknown_field_or_choice_rejected_where_it_enters(spec, message):
    # an unknown field used to be ignored, and an unknown series or method
    # to be recorded as the entry's error once the path was simulated
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_config(analyses=(spec,))


def test_read_spec_fills_in_defaults():
    assert read_spec("theta", {"method": "runs"}) == {
        "method": "runs", "q": 0.995, "block_len": 100, "run_len": 10,
        "series": "x_abs"}
    assert read_spec("theory", {"analysis": "theory", "which": "kesten",
                                "mc_reps": 1e5}) == {
        "which": "kesten", "alpha": None, "mc_reps": 100_000, "tol": 1e-4,
        "trunc_T": 10_000, "m": 50}
    cfg = small_config(analyses=({"analysis": "hill", "k": 100.0},))
    assert cfg.analyses == ({"analysis": "hill", "k": 100.0},)
    assert cfg.specs == ({"k": 100, "series": "x_abs"},)


def test_kesten_spec_needs_no_alpha():
    small_config(analyses=({"analysis": "theory", "which": "kesten"},))


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


def test_each_figure_and_extremogram_writes_its_own_csv(tmp_path):
    # the parent wrote both figure analyses to figure.csv, so the first
    # entry's mark counts described the second entry's file
    cfg = small_config(analyses=(
        {"analysis": "figure", "q_low": 0.01, "q_high": 0.99},
        {"analysis": "extremogram", "lags": [1, 2], "q": 0.95},
        {"analysis": "figure", "q_low": 0.1, "q_high": 0.9},
        {"analysis": "extremogram", "lags": [1, 3, 4], "q": 0.9},
    ))
    report = run_experiment(cfg, tmp_path / "out")
    names = ["figure.csv", "extremogram.csv", "figure_2.csv",
             "extremogram_2.csv"]
    assert [e["csv"] for e in report.results] == names
    assert sorted(fp.name for fp in (tmp_path / "out").iterdir()) == sorted(
        [*names, "path.csv", "report.json"])
    path = simulate(cfg.model, cfg.n, burn_in=cfg.burn_in, seed=cfg.seed)
    counts = []
    for entry in report.results[0::2]:
        t, x, side = read_marks(tmp_path / "out" / entry["csv"])
        low = np.flatnonzero(path.x < entry["threshold_low"])
        high = np.flatnonzero(path.x > entry["threshold_high"])
        assert np.array_equal(t[side == "low"], low)
        assert np.array_equal(t[side == "high"], high)
        assert np.array_equal(x, path.x[t])
        assert (entry["marks_low"], entry["marks_high"]) == (low.size,
                                                              high.size)
        counts.append(low.size + high.size)
    assert counts == [40, 400]
    for entry in report.results[1::2]:
        lines = (tmp_path / "out" / entry["csv"]).read_text().splitlines()
        assert lines[0] == "lag,chi_hat,stderr"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == entry["lags"]
        assert [float(r[1]) for r in rows] == entry["chi_hat"]
        assert [float(r[2]) for r in rows] == entry["stderr"]


def test_theory_analysis_needs_matching_model(tmp_path):
    cfg = ExperimentConfig(model=ExpAr1Config(phi=0.5, eta=laplace(4.0),
                                              z=std_normal()),
                           n=100, seed=RngSeed(0), burn_in=100,
                           analyses=({"analysis": "theory",
                                      "which": "kesten", "mc_reps": 1000},))
    report = run_experiment(cfg, tmp_path / "out")
    assert "sresv model" in report.results[0]["error"]


@pytest.mark.parametrize("eta, alpha, index", [
    (pareto(4.0), 3.0, 4.0), (pareto(4.0), 1.0, 4.0),
    (student_t(3.0), 4.0, 3.0)])
def test_theta_x_ma_alpha_must_be_eta_tail_index(tmp_path, eta, alpha,
                                                 index):
    # sigma^p = |sum_j psi_j eta_{t-j}| has eta's tail index. The parent
    # ran any alpha: 0.9596 at alpha 3 and 0.7547 at alpha 1 on pareto(4)
    model = MaSvConfig(p=1.0, psi=(1.0, 0.5), eta=eta, z=student_t(8.0))
    run = AnalysisInputs(None, None, model, RngSeed(5), tmp_path)

    def theory(alpha):
        return ANALYSES["theory"](read_spec("theory", {
            "which": "theta_x_ma", "alpha": alpha, "mc_reps": 2000}), run)

    with pytest.raises(ValueError, match=re.escape(
            f"theta_x_ma alpha {alpha!r} differs from eta's tail index "
            f"{index!r}")):
        theory(alpha)
    assert 0.0 < theory(index)["value"] <= 1.0


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


def test_report_from_json_names_a_missing_field():
    blob = ExperimentReport(small_config(), (), {}, "0").to_json()
    del blob["results"]
    with pytest.raises(ValueError, match="^missing field 'results'$"):
        ExperimentReport.from_json(blob)


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
    # theta_x_sre does not hold under GARCH returns; the Kesten root does
    whiches = {name: [a.get("which") for a in preset_config(
        name, RngSeed(5)).analyses if a["analysis"] == "theory"]
        for name in ("fig2-garch", "fig2-sv")}
    assert whiches == {"fig2-garch": ["kesten"],
                       "fig2-sv": ["kesten", "theta_x_sre"]}
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("fig3", RngSeed(5))
    # each call builds its own analysis dicts
    a, b = preset_config("fig2-sv", RngSeed(5)), preset_config("fig2-sv",
                                                               RngSeed(5))
    assert a == b
    assert a.analyses[1]["lags"] is not b.analyses[1]["lags"]


def test_fig1_right_is_gaussian_log_ar1_with_t4_returns():
    # the classical case the paper's abstract cites: Gaussian log-volatility
    # with regularly varying Z, so sigma is lighter-tailed than Z
    assert preset_config("fig1-right", RngSeed(0)).model == \
        ExpAr1Config(phi=0.9, eta=std_normal(), z=student_t(4.0))


def test_figure_csv_bytes_match_per_row_formatting(tmp_path, monkeypatch):
    # the reference formats each mark with Python's %; (-1, -0.5) marks
    # -0.0 and 5e-324 high, (inf, inf) marks every value but nan and
    # inf low, and nan thresholds mark nothing. The figure analysis
    # writes through AnalysisInputs.write_csv; its thresholds are given
    # in place of the quantiles, which a series with nan has none of
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, -2.0, 2.0,
                  1.0, -1.0])
    run = AnalysisInputs(None, x, None, RngSeed(0), tmp_path)
    for lo, hi in ((-1.0, 1.0), (-1.0, -0.5), (np.inf, np.inf),
                   (np.nan, np.nan)):
        lo, hi = np.float64(lo), np.float64(hi)
        monkeypatch.setattr(estimators, "_quantile",
                            lambda v, q, lo=lo, hi=hi: {0.01: lo,
                                                        0.99: hi}[q])
        entry = ANALYSES["figure"]({"q_low": 0.01, "q_high": 0.99}, run)
        ref = "t,x,side\n" + "".join(
            "%d,%.17g,%s\n" % (t, v, "low" if v < lo else "high")
            for t, v in enumerate(x.tolist()) if v < lo or v > hi)
        assert entry["csv"] == "figure.csv"
        assert (tmp_path / "figure.csv").read_text() == ref, (lo, hi)
        assert (entry["marks_low"], entry["marks_high"]) == (
            np.count_nonzero(x < lo), np.count_nonzero(x > hi))


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
