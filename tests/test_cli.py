"""End-to-end CLI tests through click's runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import svextremes
from svextremes import (ExperimentConfig, Garch11Pair, GenericPair,
                        MaSvConfig, RngSeed, SreSvConfig, config_to_json,
                        constant, laplace, pareto, path_to_csv,
                        run_experiment, simulate, std_normal, student_t)
from svextremes.cli import _read_path_csv, main
from svextremes.models import EgarchConfig, ExpAr1Config


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    configs = {
        "garch.json": SreSvConfig(p=2.0, pair_source=pair, z=std_normal()),
        "ar.json": ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal()),
        "ma.json": MaSvConfig(p=1.0, psi=(1.0, 1.0), eta=pareto(4.0),
                              z=constant(1.0)),
    }
    for name, cfg in configs.items():
        Path(name).write_text(json.dumps(config_to_json(cfg)))
    return tmp_path


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args])
    if result.exception is not None and result.exit_code == 0:
        raise result.exception
    return result


def test_simulate_writes_path(runner, workdir):
    r = invoke(runner, "--seed", 5, "--out", "o", "simulate",
               "--model", "garch.json", "--n", 50, "--burn-in", 10)
    assert r.exit_code == 0
    lines = Path("o/path.csv").read_text().splitlines()
    assert lines[0] == "t,sigma,x"
    assert len(lines) == 51
    summary = json.loads(r.output)
    assert summary["n"] == 50


def test_simulate_seed_controls_output(runner, workdir):
    invoke(runner, "--seed", 5, "--out", "a", "simulate", "--model",
           "garch.json", "--n", 30, "--burn-in", 10)
    invoke(runner, "--seed", 5, "--out", "b", "simulate", "--model",
           "garch.json", "--n", 30, "--burn-in", 10)
    invoke(runner, "--seed", 6, "--out", "c", "simulate", "--model",
           "garch.json", "--n", 30, "--burn-in", 10)
    a = Path("a/path.csv").read_bytes()
    assert a == Path("b/path.csv").read_bytes()
    assert a != Path("c/path.csv").read_bytes()


def test_bad_seed_and_threads_rejected(runner, workdir):
    r = invoke(runner, "--seed", -1, "simulate", "--model", "garch.json",
               "--n", 10)
    assert r.exit_code != 0
    assert "64-bit" in r.output
    r = invoke(runner, "--threads", 0, "simulate", "--model", "garch.json",
               "--n", 10)
    assert r.exit_code != 0


# one config of each family and pair type, as config_to_json writes them
VALID_MODELS = [config_to_json(c) for c in (
    ExpAr1Config(phi=0.9, eta=laplace(4.0), z=student_t(4.0)),
    EgarchConfig(alpha0=0.1, gamma0=0.5, delta0=0.5, phi=0.5,
                 z=laplace(2.0)),
    SreSvConfig(p=2.0, pair_source=Garch11Pair(1e-7, 0.1, 0.89,
                                               std_normal()),
                z=std_normal()),
    SreSvConfig(p=1.0, pair_source=GenericPair(constant(0.5), pareto(4.0)),
                z=constant(1.0)),
    MaSvConfig(p=1.0, psi=(1.0, 0.5), eta=pareto(4.0), z=std_normal()),
)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)


def _field_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _replace(obj, path, value):
    out = json.loads(json.dumps(obj))
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


# a valid config with one field, at any depth, replaced by any JSON value
MUTATED_MODELS = st.sampled_from(VALID_MODELS).flatmap(
    lambda cfg: st.builds(_replace, st.just(cfg),
                          st.sampled_from(list(_field_paths(cfg))),
                          JSON_VALUES))


def simulate_model_json(obj):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(obj))
        return CliRunner().invoke(main, [
            "--out", str(Path(tmp) / "o"), "simulate", "--model",
            str(model), "--n", "20", "--burn-in", "10"])


def assert_bad_model_config(r):
    # a ClickException ends the runner with SystemExit; any other
    # exception would be a traceback for the user
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), repr(r.exception)
    assert "bad model config" in r.output


@pytest.mark.parametrize("obj, field", [
    ([], "model config must be a JSON object"),
    ({**VALID_MODELS[0], "phi": [1]}, "field 'phi'"),
    ({**VALID_MODELS[2], "pair": "x"}, "field 'pair'"),
    ({**VALID_MODELS[0], "eta": 3}, "field 'eta'"),
    (_replace(VALID_MODELS[2], ("pair", "eta"), 3), "field 'eta'"),
    ({**VALID_MODELS[1], "light_tailed": "no"}, "field 'light_tailed'"),
    ({**VALID_MODELS[4], "psi": [1, None]}, "field 'psi'"),
    ({**VALID_MODELS[0], "phi": 10 ** 400}, "field 'phi'"),
    (_replace(VALID_MODELS[0], ("z", "standardized"), 1),
     "field 'standardized'"),
    ({k: v for k, v in VALID_MODELS[0].items() if k != "phi"},
     "missing field 'phi'"),
])
def test_simulate_bad_model_config_names_the_field(obj, field):
    r = simulate_model_json(obj)
    assert_bad_model_config(r)
    assert field in r.output


@given(obj=JSON_VALUES)
@settings(max_examples=60, deadline=None)
def test_simulate_any_json_value_is_a_bad_model_config(obj):
    assert_bad_model_config(simulate_model_json(obj))


@given(obj=MUTATED_MODELS)
@settings(max_examples=80, deadline=None)
def test_simulate_mutated_model_config_never_a_traceback(obj):
    r = simulate_model_json(obj)
    if r.exit_code != 0:
        assert_bad_model_config(r)


def test_hill_from_model_and_from_csv(runner, workdir):
    r = invoke(runner, "--seed", 1, "--out", "o", "hill", "--model",
               "garch.json", "--n", 20000, "--burn-in", 1000, "--k", 200)
    assert r.exit_code == 0
    res = json.loads(Path("o/hill.json").read_text())
    assert res["k"] == 200 and res["alpha_hat"] > 0
    # reuse the stored path: same numbers without resimulating
    invoke(runner, "--seed", 1, "--out", "p", "simulate", "--model",
           "garch.json", "--n", 20000, "--burn-in", 1000)
    r2 = invoke(runner, "--out", "o2", "hill", "--input", "p/path.csv",
                "--k", 200)
    assert r2.exit_code == 0
    assert json.loads(r2.output)["alpha_hat"] == res["alpha_hat"]
    r3 = invoke(runner, "--out", "o3", "hill", "--input", "p/path.csv",
                "--k", 200, "--series", "sigma")
    assert r3.exit_code == 0


def test_exactly_one_input_source(runner, workdir):
    r = invoke(runner, "hill", "--k", 100)
    assert r.exit_code != 0
    assert "exactly one of --model or --input" in r.output
    invoke(runner, "--out", "p", "simulate", "--model", "garch.json",
           "--n", 100, "--burn-in", 10)
    r = invoke(runner, "hill", "--k", 10, "--model", "garch.json",
               "--input", "p/path.csv")
    assert r.exit_code != 0
    assert "exactly one" in r.output


def test_theta_est(runner, workdir):
    r = invoke(runner, "--seed", 2, "--out", "o", "theta-est", "--model",
               "garch.json", "--n", 20000, "--burn-in", 1000,
               "--method", "blocks", "--q", 0.99, "--block-len", 50)
    assert r.exit_code == 0
    res = json.loads(Path("o/theta.json").read_text())
    assert res["method"] == "blocks"
    assert 0 < res["theta_hat"] <= 1
    assert res["tuning"]["block_len"] == 50
    r = invoke(runner, "--seed", 2, "--out", "o", "theta-est", "--model",
               "garch.json", "--n", 5000, "--burn-in", 100,
               "--method", "intervals", "--q", 0.999)
    assert r.exit_code == 0


def test_theta_est_threshold_too_high(runner, workdir):
    # constant series has no strict exceedances of its own quantile
    Path("flat.csv").write_text("t,sigma,x\n" + "".join(
        f"{t},1,1\n" for t in range(100)))
    r = invoke(runner, "theta-est", "--input", "flat.csv",
               "--method", "blocks", "--q", 0.9)
    assert r.exit_code != 0
    assert "empty exceedance set" in r.output


def test_extremogram_csv(runner, workdir):
    r = invoke(runner, "--seed", 3, "--out", "o", "extremogram", "--model",
               "garch.json", "--n", 20000, "--burn-in", 1000,
               "--lags", "1,2,3", "--q", 0.99)
    assert r.exit_code == 0
    lines = Path("o/extremogram.csv").read_text().splitlines()
    assert lines[0] == "lag,chi_hat,stderr"
    assert len(lines) == 4
    assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2, 3]


def test_theta_theory_kesten(runner, workdir):
    r = invoke(runner, "--seed", 0, "--out", "o", "theta-theory", "--which",
               "kesten", "--model", "garch.json", "--mc-reps", 100_000)
    assert r.exit_code == 0
    res = json.loads(Path("o/theory.json").read_text())
    assert abs(res["kappa"] - 2.0) < 0.1


def test_theta_theory_ma(runner, workdir):
    r = invoke(runner, "--seed", 0, "--out", "o", "theta-theory", "--which",
               "theta-x-ma", "--model", "ma.json", "--alpha", 4)
    assert r.exit_code == 0
    # constant z: exact closed form 1 / (1 + 1)
    assert json.loads(r.output)["value"] == 0.5


def test_theta_theory_requires_alpha(runner, workdir):
    r = invoke(runner, "theta-theory", "--which", "theta-sigma", "--model",
               "garch.json")
    assert r.exit_code != 0
    assert "--alpha is required" in r.output


def test_theta_theory_model_mismatch(runner, workdir):
    r = invoke(runner, "theta-theory", "--which", "kesten", "--model",
               "ma.json")
    assert r.exit_code != 0
    assert "sresv model" in r.output
    r = invoke(runner, "theta-theory", "--which", "theta-x-ma", "--model",
               "garch.json", "--alpha", 4)
    assert r.exit_code != 0
    assert "masv model" in r.output


def test_theta_theory_thread_invariance(runner, workdir):
    for threads, out in ((1, "t1"), (3, "t3")):
        invoke(runner, "--seed", 9, "--threads", threads, "--out", out,
               "theta-theory", "--which", "theta-x-sre", "--model",
               "garch.json", "--alpha", 2, "--m", 10, "--mc-reps", 100_000)
    assert (Path("t1/theory.json").read_bytes()
            == Path("t3/theory.json").read_bytes())


def test_diagnose(runner, workdir):
    r = invoke(runner, "--seed", 4, "--out", "o", "diagnose", "--model",
               "garch.json", "--n", 20000, "--burn-in", 1000)
    assert r.exit_code == 0
    res = json.loads(Path("o/diagnose.json").read_text())
    for key in ("hill_sigma", "hill_x_abs", "theta_blocks", "theta_runs",
                "theta_intervals", "extremogram", "breiman_ratio"):
        assert key in res, key
    assert len(res["extremogram"]) == 10
    assert "errors" not in res


def test_quantile_out_of_range_is_no_traceback(runner, workdir):
    r = invoke(runner, "--out", "o", "theta-est", "--model", "garch.json",
               "--n", 2000, "--burn-in", 100, "--method", "blocks",
               "--q", 1.5)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert "Quantiles must be in the range [0, 1]" in r.output
    r = invoke(runner, "--out", "o", "diagnose", "--model", "garch.json",
               "--n", 2000, "--burn-in", 100, "--q", 1.5)
    assert r.exit_code == 0
    errors = json.loads(r.output)["errors"]
    assert set(errors) == {"u", "theta_blocks", "theta_runs",
                           "theta_intervals", "extremogram"}


def test_experiment_run(runner, workdir):
    from svextremes import ExperimentConfig, RngSeed
    cfg = ExperimentConfig(
        model=SreSvConfig(p=2.0,
                          pair_source=Garch11Pair(1e-7, 0.1, 0.89,
                                                  std_normal()),
                          z=std_normal()),
        n=500, seed=RngSeed(7), burn_in=200,
        analyses=({"analysis": "figure"}, {"analysis": "hill", "k": 50}))
    Path("exp.json").write_text(json.dumps(cfg.to_json()))
    r = invoke(runner, "--out", "o", "experiment", "run", "exp.json")
    assert r.exit_code == 0
    assert json.loads(r.output)["errors"] == []
    assert Path("o/report.json").exists()
    assert Path("o/figure.csv").exists()


def test_experiment_run_analysis_error_still_exits_zero(runner, workdir):
    from svextremes import ExperimentConfig, RngSeed
    cfg = ExperimentConfig(
        model=ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal()),
        n=300, seed=RngSeed(7), burn_in=100,
        analyses=({"analysis": "hill", "k": 1},))
    Path("exp.json").write_text(json.dumps(cfg.to_json()))
    r = invoke(runner, "--out", "o", "experiment", "run", "exp.json")
    assert r.exit_code == 0
    assert json.loads(r.output)["errors"] == ["hill"]


def test_experiment_run_bad_config_fails(runner, workdir):
    Path("bad.json").write_text("{not json")
    r = invoke(runner, "experiment", "run", "bad.json")
    assert r.exit_code != 0
    assert "bad experiment config" in r.output
    Path("bad2.json").write_text(json.dumps(
        {"model": {"family": "arch"}, "n": 10, "seed": {"master_seed": 0}}))
    r = invoke(runner, "experiment", "run", "bad2.json")
    assert r.exit_code != 0


def experiment_config_json(obj):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.json"
        config.write_text(json.dumps(obj))
        return CliRunner().invoke(main, [
            "--out", str(Path(tmp) / "o"), "experiment", "run",
            str(config)])


def assert_bad_experiment_config(r):
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), repr(r.exception)
    assert "bad experiment config" in r.output


VALID_EXPERIMENT = {"model": VALID_MODELS[0], "n": 10,
                    "seed": {"master_seed": 0}}


@pytest.mark.parametrize("obj, field", [
    ([], "experiment config must be a JSON object"),
    ({**VALID_EXPERIMENT, "seed": 5}, "seed must be a JSON object, got 5"),
    ({**VALID_EXPERIMENT, "seed": {}}, "missing field 'master_seed'"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": True}},
     "field 'master_seed' must be an integer"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": 1.5}},
     "field 'master_seed' must be an integer"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": -1}}, "master_seed must"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": 0, "stream_id": "1"}},
     "field 'stream_id' must be an integer"),
    ({k: v for k, v in VALID_EXPERIMENT.items() if k != "n"},
     "missing field 'n'"),
    ({k: v for k, v in VALID_EXPERIMENT.items() if k != "seed"},
     "missing field 'seed'"),
    ({**VALID_EXPERIMENT, "n": "10"}, "n must be a whole number"),
    ({**VALID_EXPERIMENT, "model": {"family": "arch"}}, "field 'model'"),
    ({**VALID_EXPERIMENT, "analyses": [3]}, "field 'analyses'"),
    ({**VALID_EXPERIMENT, "analyses": {"analysis": "hill"}},
     "field 'analyses'"),
    ({**VALID_EXPERIMENT, "analyses": [{"analysis": []}]},
     "unknown analysis"),
    ({**VALID_EXPERIMENT, "analyses": [{"analysis": "figure",
                                        "q_low": 1.5}]},
     "figure q_low must be a finite number in (0, 1), got 1.5"),
    ({**VALID_EXPERIMENT, "analyses": [{"analysis": "figure", "q_low": 0.99,
                                        "q_high": 0.01}]},
     "figure q_low must be below q_high"),
])
def test_experiment_run_bad_config_names_the_field(obj, field):
    r = experiment_config_json(obj)
    assert_bad_experiment_config(r)
    assert field in r.output


@given(obj=JSON_VALUES)
@settings(max_examples=60, deadline=None)
def test_experiment_run_any_json_value_is_a_bad_config(obj):
    assert_bad_experiment_config(experiment_config_json(obj))


def test_experiment_preset(runner, workdir):
    r = invoke(runner, "--seed", 3, "--out", "o", "experiment", "preset",
               "fig1-right")
    assert r.exit_code == 0
    summary = json.loads(r.output)
    assert summary["errors"] == []
    assert Path("o/figure.csv").exists()
    assert Path("o/extremogram.csv").exists()
    r = invoke(runner, "experiment", "preset", "fig3")
    assert r.exit_code != 0


NO_SCIPY_RUN = """
import json, os, sys, tempfile
import svextremes as sv
from svextremes.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
pair = sv.Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                      eta=sv.std_normal())
models = [
    sv.ExpAr1Config(phi=0.9, eta=sv.laplace(4.0), z=sv.std_normal()),
    sv.EgarchConfig(alpha0=0.1, gamma0=0.5, delta0=0.5, phi=0.5,
                    z=sv.laplace(1.0)),
    sv.SreSvConfig(p=2.0, pair_source=pair, z=sv.std_normal()),
    sv.MaSvConfig(p=1.0, psi=(1.0, 0.5), eta=sv.pareto(4.0),
                  z=sv.student_t(8.0)),
]
os.chdir(tempfile.mkdtemp())
for i, cfg in enumerate(models):
    with open(f"m{i}.json", "w") as fh:
        json.dump(sv.config_to_json(cfg), fh)
    main(["--out", f"o{i}", "simulate", "--model", f"m{i}.json",
          "--n", "2000", "--burn-in", "100"], standalone_mode=False)
with open("fig1.json", "w") as fh:
    json.dump(sv.preset_config("fig1-left", sv.RngSeed(3)).to_json(), fh)
main(["--out", "e", "experiment", "run", "fig1.json"], standalone_mode=False)
print(json.dumps([after_import, scipy_modules()]))
"""


def test_import_cli_loads_no_scipy_stats_signal_or_special():
    # neither importing the CLI nor simulating every family nor running
    # a fig1 experiment loads any scipy module
    src = str(Path(svextremes.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [[], []]


def test_import_cli_builds_no_csv_tables():
    # the '%.17g' writer builds its tables on the first write, not at
    # import, and neither step loads a module the import did not
    code = ("import io, sys, numpy, svextremes.cli, svextremes.models as m; "
            "before = set(sys.modules); "
            "print(m._g17_tables.cache_info().currsize); "
            "m.write_csv_rows(io.StringIO(), 'h', (numpy.ones(3),)); "
            "print(m._g17_tables.cache_info().currsize); "
            "print(sorted(set(sys.modules) - before), "
            "sorted(k for k in ('fractions', 'decimal') if k in before))")
    src = str(Path(svextremes.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.split("\n") == ["0", "1", "[] []", ""]


@pytest.mark.parametrize("spec, args", [
    ({"analysis": "hill", "k": 200}, ("hill", "--k", 200)),
    ({"analysis": "theta", "method": "blocks", "q": 0.99, "block_len": 50},
     ("theta-est", "--method", "blocks", "--q", 0.99, "--block-len", 50)),
    ({"analysis": "theta", "method": "runs", "q": 0.99, "run_len": 5},
     ("theta-est", "--method", "runs", "--q", 0.99, "--run-len", 5)),
    ({"analysis": "theta", "method": "intervals", "q": 0.99},
     ("theta-est", "--method", "intervals", "--q", 0.99)),
    ({"analysis": "extremogram", "lags": [1, 2, 3], "q": 0.99},
     ("extremogram", "--lags", "1,2,3", "--q", 0.99)),
], ids=["hill", "theta-blocks", "theta-runs", "theta-intervals",
        "extremogram"])
def test_cli_matches_the_experiment_entry(runner, workdir, spec, args):
    # a path command on the experiment's own path.csv prints the
    # experiment's report entry and writes the same CSV
    model = json.loads(Path("garch.json").read_text())
    cfg = ExperimentConfig.from_json({
        "model": model, "n": 20000, "burn_in": 1000,
        "seed": RngSeed(3).to_json(), "analyses": [spec]})
    run_experiment(cfg, "e")
    entry = json.loads(Path("e/report.json").read_text())["results"][0]
    assert "error" not in entry
    r = invoke(runner, "--seed", 3, "--out", "c", args[0], "--input",
               "e/path.csv", *args[1:])
    assert r.exit_code == 0

    def strip(obj):
        return {k: v for k, v in obj.items()
                if k not in ("analysis", "index", "csv")}

    assert strip(json.loads(r.output)) == strip(entry)
    if args[0] == "extremogram":
        assert Path("c/extremogram.csv").read_bytes() == \
            Path("e/extremogram.csv").read_bytes()

def test_read_path_csv_round_trips_bits(tmp_path):
    path = simulate(ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal()),
                    2000, burn_in=100, seed=RngSeed(3))
    path_to_csv(path, tmp_path / "path.csv")
    sigma, x = _read_path_csv(str(tmp_path / "path.csv"))
    assert np.array_equal(sigma, path.sigma)
    assert np.array_equal(x, path.x)
    assert sigma.flags.c_contiguous and x.flags.c_contiguous


def test_read_path_csv_finds_columns_by_name(tmp_path):
    fp = tmp_path / "p.csv"
    fp.write_text("x, t ,sigma\n-1.5,0,2\n0.25,1,0.5\n")
    sigma, x = _read_path_csv(str(fp))
    assert sigma.tolist() == [2.0, 0.5]
    assert x.tolist() == [-1.5, 0.25]


def test_read_path_csv_one_row(tmp_path):
    fp = tmp_path / "p.csv"
    fp.write_text("t,sigma,x\n0,2,-3\n")
    sigma, x = _read_path_csv(str(fp))
    assert sigma.shape == (1,) and x.shape == (1,)
    assert (sigma[0], x[0]) == (2.0, -3.0)


@pytest.mark.parametrize("text, reason", [
    ("t,sigma\n0,1\n", "missing column x"),
    ("t,sig,x\n0,1,1\n", "missing column sigma"),
    ("t,sigma,x\n0,1,1\n1,,1\n", "could not convert string ''"),
    ("t,sigma,x\n0,1,1\n1,abc,1\n", "could not convert string 'abc'"),
    ("t,sigma,x\n0,1,1\n1,1\n", "invalid column index"),
    ("t,sigma,x\n", "no data rows"),
    ("", "missing column"),
], ids=["no-x", "no-sigma", "empty-field", "malformed-field", "short-row",
        "header-only", "empty-file"])
def test_bad_path_csv_rejected(runner, workdir, text, reason):
    Path("bad.csv").write_text(text)
    r = invoke(runner, "hill", "--input", "bad.csv", "--k", 1)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)  # a message, no traceback
    assert "bad path csv bad.csv" in r.output
    assert reason in r.output


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("which, model", [
    ("theta-sigma", "garch.json"), ("theta-x-sre", "garch.json"),
    ("theta-x-ma", "ma.json")])
def test_theta_theory_bad_alpha_is_no_traceback(runner, workdir, which,
                                                model, alpha):
    r = invoke(runner, "theta-theory", "--which", which, "--model", model,
               "--alpha", alpha, "--mc-reps", 100)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert "alpha must be finite and > 0" in r.output


@pytest.mark.parametrize("which", ["theta-sigma", "theta-x-sre"])
def test_theta_theory_zero_count_is_no_traceback(runner, workdir, which):
    # at seed 0 none of 10 replicates succeeds (theta-sigma) or is still
    # live at m = 50 (theta-x-sre): a 0 says theta is below the resolution
    r = invoke(runner, "--seed", 0, "theta-theory", "--which", which,
               "--model", "garch.json", "--alpha", 2, "--mc-reps", 10)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert "is 0 of mc_reps=10 replicates" in r.output
    assert "theta must lie" not in r.output


@pytest.fixture()
def zero_multiplier_model(workdir):
    # A == 0: sigma^p = B, a generic pair without clustering or Kesten root
    cfg = SreSvConfig(p=1.0, pair_source=GenericPair(constant(0.0),
                                                     pareto(3.0)),
                      z=std_normal())
    Path("generic.json").write_text(json.dumps(config_to_json(cfg)))
    return cfg


def test_theta_theory_reads_a_generic_pair(runner, zero_multiplier_model):
    r = invoke(runner, "--out", "o", "theta-theory", "--which",
               "theta-sigma", "--model", "generic.json", "--alpha", 1,
               "--mc-reps", 1000)
    assert r.exit_code == 0
    assert json.loads(r.output)["value"] == 1.0
    r = invoke(runner, "theta-theory", "--which", "kesten", "--model",
               "generic.json", "--mc-reps", 1000)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert "Error: no finite tail index in bracket" in r.output


def test_experiment_theory_on_a_generic_pair(tmp_path, zero_multiplier_model):
    cfg = ExperimentConfig(model=zero_multiplier_model, n=200,
                           seed=RngSeed(3), burn_in=10,
                           analyses=({"analysis": "theory",
                                      "which": "kesten", "mc_reps": 1000},))
    report = run_experiment(cfg, tmp_path / "o")
    assert report.results[0]["error"] == (
        "ValueError: no finite tail index in bracket")


@pytest.mark.parametrize("reps", [0, 1])
def test_theta_theory_mc_reps_below_two_rejected(runner, workdir, reps):
    r = invoke(runner, "theta-theory", "--which", "theta-x-ma", "--model",
               "ma.json", "--alpha", 4, "--mc-reps", reps)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert "mc_reps must be >= 2" in r.output
