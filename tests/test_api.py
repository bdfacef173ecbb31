"""The package API: each result's JSON is its fields, and the public
names are the modules' __all__ lists."""

import re

import numpy as np
import pytest

import svextremes as sv
from svextremes import (distributions, estimators, experiments, models, rng,
                        theory)
from svextremes.estimators import (AnticlusterResult, BreimanResult,
                                   ExtremogramResult, HillResult,
                                   ThetaEstimate)
from svextremes.theory import KestenRoot, ThetaTheoryResult

MODULES = (distributions, rng, models, estimators, theory, experiments)

PUBLIC_NAMES = {
    "__version__",
    "InnovationSpec", "std_normal", "student_t", "laplace", "pareto",
    "constant", "sample_innovation", "tail_prob", "moment_abs",
    "moment_pos",
    "RngSeed",
    "ExpAr1Config", "EgarchConfig", "Garch11Pair", "GenericPair",
    "SreSvConfig", "MaSvConfig", "Path", "simulate", "config_to_json",
    "config_from_json", "path_to_csv", "read_path_csv", "DEFAULT_BURN_IN",
    "HillResult", "ThetaEstimate", "ExtremogramResult", "AnticlusterResult",
    "BreimanResult", "hill", "blocks_theta", "runs_theta", "intervals_theta",
    "extremogram", "anticluster_diag", "breiman_ratio",
    "KestenProblem", "KestenRoot", "ThetaTheoryResult", "kesten_index",
    "theta_sigma_sre", "theta_sigma_sre_quadrature", "theta_x_sre",
    "theta_x_ma",
    "ExperimentConfig", "ExperimentReport", "run_experiment",
    "preset_config", "PRESET_NAMES",
}


# -- result JSON ----------------------------------------------------------

RESULTS = [
    (HillResult(k=10, alpha_hat=2.0, ci_low=1.0, ci_high=3.0),
     {"k": 10, "alpha_hat": 2.0, "ci_low": 1.0, "ci_high": 3.0}),
    (ThetaEstimate(theta_hat=0.5, method="runs",
                   tuning={"run_len": 5, "u": 1.5}, stderr=0.1),
     {"method": "runs", "theta_hat": 0.5, "stderr": 0.1,
      "tuning": {"run_len": 5, "u": 1.5}}),
    (ExtremogramResult(q=0.9, u=1.25, lags=np.array([1, 3]),
                       chi_hat=np.array([0.5, 0.25]),
                       stderr=np.array([0.1, 0.05])),
     {"q": 0.9, "u": 1.25, "lags": [1, 3], "chi_hat": [0.5, 0.25],
      "stderr": [0.1, 0.05]}),
    (AnticlusterResult(m_grid=(1, 5), estimates=np.array([0.5, 0.25]),
                       stderrs=np.array([0.1, 0.1]), n_windows=20, a_n=3.0,
                       u=1.5, r_n=10, y=0.5, n=1000),
     {"m_grid": [1, 5], "estimates": [0.5, 0.25], "stderrs": [0.1, 0.1],
      "n_windows": 20, "a_n": 3.0, "u": 1.5, "r_n": 10, "y": 0.5,
      "n": 1000}),
    (BreimanResult(levels=np.array([0.99, 0.995]),
                   thresholds=np.array([2.0, 3.0]),
                   ratios=np.array([1.5, 1.25]), target=1.0),
     {"levels": [0.99, 0.995], "thresholds": [2.0, 3.0],
      "ratios": [1.5, 1.25], "target": 1.0}),
    (KestenRoot(kappa=2.0, f_stderr=1e-3, mc_reps=1000,
                bracket=(1e-3, 64.0)),
     {"kappa": 2.0, "f_stderr": 1e-3, "mc_reps": 1000,
      "bracket": [1e-3, 64.0]}),
    (ThetaTheoryResult(value=0.5, mc_stderr=0.01,
                       truncation={"m": 2, "live_fraction": 0.25},
                       mc_reps=1000, sequence=np.array([1.0, 0.5])),
     {"value": 0.5, "mc_stderr": 0.01,
      "truncation": {"m": 2, "live_fraction": 0.25}, "mc_reps": 1000,
      "sequence": [1.0, 0.5]}),
]


def plain(obj):
    """obj has only dicts, lists, str, int, float, bool and None in it."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and plain(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(plain(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


@pytest.mark.parametrize("result, expected", RESULTS,
                         ids=[type(r).__name__ for r, _ in RESULTS])
def test_result_json_is_its_fields(result, expected):
    out = result.to_json()
    assert out == expected
    assert plain(out)


def test_result_json_copies_dicts():
    est, _ = RESULTS[1]
    out = est.to_json()
    out["tuning"]["u"] = 0.0
    assert est.tuning["u"] == 1.5


def test_theta_theory_json_leaves_out_an_unset_sequence():
    r = ThetaTheoryResult(value=0.5, mc_stderr=0.01, truncation={"T": 10},
                          mc_reps=1000)
    assert r.to_json() == {"value": 0.5, "mc_stderr": 0.01,
                           "truncation": {"T": 10}, "mc_reps": 1000}


def test_breiman_json_keeps_a_none_target():
    r = BreimanResult(levels=np.array([0.99]), thresholds=np.array([2.0]),
                      ratios=np.array([1.5]), target=None)
    assert r.to_json() == {"levels": [0.99], "thresholds": [2.0],
                           "ratios": [1.5], "target": None}


# -- public names ---------------------------------------------------------

def test_package_all_is_the_module_lists():
    assert len(sv.__all__) == len(set(sv.__all__))
    assert set(sv.__all__) == PUBLIC_NAMES
    assert sv.__all__ == ["__version__",
                          *(n for m in MODULES for n in m.__all__)]


def test_each_public_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sv, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    ns = {}
    exec("from svextremes import *", ns)
    del ns["__builtins__"]
    assert set(ns) == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", [
    (distributions, "draw"), (estimators, "exceedances"),
    (models, "ModelConfig"), (models, "simulate_exp_ar1"),
    (models, "simulate_egarch"), (models, "simulate_sre_sv"),
    (models, "simulate_ma_sv"), (models, "probe_multipliers"),
    (rng, "chunk_sizes"), (rng, "chunked_map")])
def test_internal_names_stay_importable_by_module_path(module, name):
    assert name not in module.__all__
    assert not hasattr(sv, name)
    assert hasattr(module, name)


# -- seeds ----------------------------------------------------------------

def _garch_problem():
    return sv.KestenProblem(sv.Garch11Pair(alpha0=1e-7, alpha1=0.1,
                                           beta1=0.89, eta=sv.std_normal()))


SEEDED = {
    "simulate": lambda seed: sv.simulate(
        sv.SreSvConfig(p=2.0, pair_source=sv.Garch11Pair(
            alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=sv.std_normal()),
            z=sv.std_normal()), 100, seed=seed),
    "sample_innovation": lambda seed: sv.sample_innovation(
        sv.std_normal(), 10, seed),
    "anticluster_diag": lambda seed: sv.anticluster_diag(
        sv.ExpAr1Config(phi=0.5, eta=sv.std_normal(), z=sv.std_normal()),
        m=(1,), r_n=10, y=1.0, n=100, reps=1, seed=seed),
    "kesten_index": lambda seed: sv.kesten_index(_garch_problem(),
                                                 mc_reps=100, seed=seed),
    "theta_sigma_sre": lambda seed: sv.theta_sigma_sre(
        _garch_problem(), alpha=2.0, mc_reps=100, seed=seed),
    "theta_sigma_sre_quadrature": lambda seed: sv.theta_sigma_sre_quadrature(
        _garch_problem(), alpha=2.0, mc_reps=100, seed=seed),
    "theta_x_sre": lambda seed: sv.theta_x_sre(
        _garch_problem(), sv.std_normal(), alpha=2.0, p=2.0, m=5,
        mc_reps=100, seed=seed),
    # a constant Z has a closed form that reads no seed
    "theta_x_ma": lambda seed: sv.theta_x_ma(
        (1.0, 1.0), alpha=4.0, p=1.0, z=sv.constant(1.0), seed=seed),
}


@pytest.mark.parametrize("seed", [5, None])
@pytest.mark.parametrize("call", SEEDED)
def test_seed_that_is_no_rng_seed_rejected_where_it_enters(call, seed):
    # each used to fail deep inside with an AttributeError, or not at all
    with pytest.raises(ValueError,
                       match=f"^seed must be an RngSeed, got {seed}$"):
        SEEDED[call](seed)


# -- counts, psi and breiman inputs checked where they enter -----------------

def _experiment(threads, tmp_path):
    cfg = sv.ExperimentConfig(
        model=sv.ExpAr1Config(phi=0.5, eta=sv.std_normal(),
                              z=sv.std_normal()),
        n=100, seed=sv.RngSeed(0), analyses=({"analysis": "hill", "k": 10},))
    sv.run_experiment(cfg, tmp_path / "out", threads=threads)


_SIGMA = np.linspace(1.0, 2.0, 200)

CHECKED_ON_ENTRY = {
    "run_experiment": _experiment,
    "theta_sigma_sre": lambda threads, _: sv.theta_sigma_sre(
        _garch_problem(), alpha=2.0, mc_reps=100, threads=threads),
    "theta_x_sre": lambda threads, _: sv.theta_x_sre(
        _garch_problem(), sv.std_normal(), alpha=2.0, p=2.0, m=5,
        mc_reps=100, threads=threads),
    "theta_x_ma": lambda threads, _: sv.theta_x_ma(
        (1.0, 1.0), alpha=4.0, p=1.0, z=sv.std_normal(), mc_reps=100,
        threads=threads),
    "blocks_theta": lambda n_boot, _: sv.blocks_theta(
        _SIGMA, 1.5, block_len=10, n_boot=n_boot),
    "theta_x_ma psi": lambda psi, _: sv.theta_x_ma(
        psi, alpha=4.0, p=1.0, z=sv.std_normal(), mc_reps=100),
    "breiman_ratio z": lambda z, _: sv.breiman_ratio(
        _SIGMA, _SIGMA, q_grid=(0.9,), alpha=2.0, z=z),
    "breiman_ratio q_grid": lambda q_grid, _: sv.breiman_ratio(
        _SIGMA, _SIGMA, q_grid=q_grid, alpha=2.0),
    "extremogram lags": lambda lags, _: sv.extremogram(_SIGMA, lags, 0.9),
    "KestenProblem": lambda a_sampler, _: sv.KestenProblem(a_sampler),
    "kesten_index": lambda problem, _: sv.kesten_index(problem, mc_reps=100),
    "theta_sigma_sre problem": lambda problem, _: sv.theta_sigma_sre(
        problem, alpha=2.0, mc_reps=100),
    "theta_sigma_sre_quadrature problem": lambda problem, _:
        sv.theta_sigma_sre_quadrature(problem, alpha=2.0, mc_reps=100),
    "theta_sigma_sre_quadrature alpha": lambda alpha, _:
        sv.theta_sigma_sre_quadrature(_garch_problem(), alpha=alpha,
                                      mc_reps=2000),
    "theta_x_sre problem": lambda problem, _: sv.theta_x_sre(
        problem, sv.std_normal(), alpha=2.0, p=2.0, m=5, mc_reps=100),
    "theta_x_sre z": lambda z, _: sv.theta_x_sre(
        _garch_problem(), z, alpha=2.0, p=2.0, m=5, mc_reps=100),
    "theta_x_ma z": lambda z, _: sv.theta_x_ma(
        (1.0, 1.0), alpha=4.0, p=1.0, z=z, mc_reps=100),
    "simulate": lambda cfg, _: sv.simulate(cfg, 10),
}


@pytest.mark.parametrize("call, value, message", [
    *((call, value, message)
      for call in ("run_experiment", "theta_sigma_sre", "theta_x_sre",
                   "theta_x_ma")
      for value, message in (
          (0, "threads must be >= 1"),
          (2.5, "threads must be an integer, got 2.5"),
          ("2", "threads must be an integer, got '2'"),
          (None, "threads must be an integer, got None"))),
    ("blocks_theta", True, "n_boot must be an integer, got True"),
    ("blocks_theta", 2.5, "n_boot must be an integer, got 2.5"),
    ("blocks_theta", "5", "n_boot must be an integer, got '5'"),
    ("theta_x_ma psi", ("1", "2"),
     "psi must be finite numbers, got ('1', '2')"),
    ("theta_x_ma psi", (True, True),
     "psi must be finite numbers, got (True, True)"),
    ("breiman_ratio z", 5, "z must be an InnovationSpec or None, got 5"),
    ("breiman_ratio q_grid", (), "q_grid must not be empty"),
    ("breiman_ratio q_grid", 5, "q_grid must be a list, got 5"),
    ("extremogram lags", 5, "lags must be a list, got 5"),
    ("KestenProblem", 5,
     "a_sampler must be a pair, InnovationSpec or callable, got 5"),
    *((call, 5, "problem must be KestenProblem, got 5")
      for call in ("kesten_index", "theta_sigma_sre problem",
                   "theta_sigma_sre_quadrature problem",
                   "theta_x_sre problem")),
    ("theta_sigma_sre_quadrature alpha", 3.0,
     "alpha inconsistent with multiplier law: at alpha = 3.0 the 100000 "
     "calibration draws give E A^alpha = 1.03805 with standard error "
     "0.00209, not within 5 standard errors of 1"),
    ("theta_x_sre z", 5, "z must be InnovationSpec, got 5"),
    ("theta_x_ma z", 5, "z must be InnovationSpec, got 5"),
    ("simulate", 5, "cfg must be a model config, got 5")])
def test_argument_rejected_where_it_enters(tmp_path, call, value, message):
    # the parent ran threads 0 and 2.5, n_boot True, psi ('1', '2') and
    # (True, True), q_grid () and the quadrature at alpha 3, raised a
    # TypeError or an AttributeError for the int arguments, and failed
    # later on the rest
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CHECKED_ON_ENTRY[call](value, tmp_path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lags", [[1, 2], (2, 1), range(1, 3),
                                  np.array([1, 2]), (h for h in (1, 2))],
                         ids=["list", "tuple", "range", "array", "generator"])
def test_lags_accepted_as_any_iterable(lags):
    r = sv.extremogram(_SIGMA, lags, 0.9)
    assert r.lags.tolist() == [1, 2]


@pytest.mark.parametrize("q_grid", [[0.9, 0.95], (0.9, 0.95),
                                    np.array([0.9, 0.95])],
                         ids=["list", "tuple", "array"])
def test_levels_accepted_as_any_sequence(q_grid):
    r = sv.breiman_ratio(_SIGMA, _SIGMA, q_grid=q_grid, alpha=2.0)
    assert r.levels.tolist() == [0.9, 0.95]


def test_config_json_holds_no_numpy_values(tmp_path):
    # analyses echo their specs as given; a numpy integer in one is
    # written as its Python value, and report.json is plain JSON
    cfg = sv.ExperimentConfig(
        model=sv.ExpAr1Config(phi=0.5, eta=sv.std_normal(),
                              z=sv.std_normal()),
        n=500, seed=sv.RngSeed(0),
        analyses=({"analysis": "hill", "k": np.int64(10)},
                  {"analysis": "extremogram", "lags": [np.int64(1)],
                   "q": np.float64(0.9)}))
    assert plain(cfg.to_json())
    report = sv.run_experiment(cfg, tmp_path / "out")
    assert plain(report.to_json())
    blob = (tmp_path / "out" / "report.json").read_text()
    assert '"k": 10' in blob
