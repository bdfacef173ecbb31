"""End-to-end CLI tests through click's runner."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import svextremes
from svextremes import (ExperimentConfig, Garch11Pair, GenericPair,
                        MaSvConfig, RngSeed, SreSvConfig, config_from_json,
                        config_to_json,
                        constant, laplace, pareto, path_to_csv,
                        run_experiment, simulate, std_normal, student_t)
from svextremes.cli import main
from svextremes.experiments import SPECS
from svextremes.models import (DEFAULT_BURN_IN, EgarchConfig, ExpAr1Config,
                               read_path_csv)


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


def run_python(*args, **kw) -> subprocess.CompletedProcess:
    """A Python process on this checkout's sources, its output as text."""
    src = str(Path(svextremes.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kw)


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


def _object_paths(obj, prefix=()):
    yield prefix
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _object_paths(value, prefix + (key,))


def _replace(obj, path, value):
    out = json.loads(json.dumps(obj))
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


# a valid config with one field, at any depth, replaced by any JSON value,
# or an unknown one added to any of its objects
MUTATED_MODELS = st.sampled_from(VALID_MODELS).flatmap(
    lambda cfg: st.builds(
        _replace, st.just(cfg),
        st.sampled_from(list(_field_paths(cfg)))
        | st.builds(lambda path, key: path + (key,),
                    st.sampled_from(list(_object_paths(cfg))),
                    st.text(max_size=6)),
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


@pytest.mark.parametrize("model, path, message", [
    (0, (), "expar1 has no field 'bogus'"),
    (0, ("eta",), "field 'eta': innovation spec has no field 'bogus'"),
    (0, ("z",), "field 'z': innovation spec has no field 'bogus'"),
    (2, ("pair",), "field 'pair': garch11 has no field 'bogus'"),
    (2, ("pair", "eta"),
     "field 'pair': field 'eta': innovation spec has no field 'bogus'"),
    (3, ("pair",), "field 'pair': generic has no field 'bogus'"),
])
def test_unknown_model_key_rejected_by_name(model, path, message):
    # the parent ignored an unknown key at every level
    obj = _replace(VALID_MODELS[model], path + ("bogus",), 1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_json(obj)
    r = simulate_model_json(obj)
    assert_bad_model_config(r)
    assert message in r.output


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


@pytest.mark.parametrize("series", ["x_abs", "sigma"])
def test_hill_input_with_plus_inf_is_an_error(runner, workdir, series):
    # read_path_csv reads inf; the parent ended with "inconsistent Hill
    # result"
    Path("p.csv").write_text("t,sigma,x\n0,1,1\n1,2,-2\n2,inf,-inf\n"
                             "3,3,3\n4,4,-4\n")
    r = invoke(runner, "--out", "o", "hill", "--input", "p.csv", "--k", 2,
               "--series", series)
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "Error: values contain +inf" in r.output


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


@pytest.mark.parametrize("lags, bad", [("1.5", "1.5"), ("1, x ,3", "x")])
def test_extremogram_non_integer_lag_names_the_option(runner, workdir, lags,
                                                      bad):
    r = invoke(runner, "--out", "o", "extremogram", "--model", "ar.json",
               "--n", 2000, "--lags", lags)
    assert r.exit_code == 1
    assert (f"Error: --lags must be comma-separated integers, got {bad!r}"
            in r.output)
    assert "invalid literal" not in r.output


def test_theta_theory_kesten(runner, workdir):
    r = invoke(runner, "--seed", 0, "--out", "o", "theta-theory", "--which",
               "kesten", "--model", "garch.json", "--mc-reps", 100_000)
    assert r.exit_code == 0
    res = json.loads(Path("o/theory.json").read_text())
    assert abs(res["kappa"] - 2.0) < 0.1


@pytest.mark.parametrize("trunc_t, warned", [(3, True), (10_000, False)])
def test_theta_theory_records_warnings_as_an_experiment_does(
        runner, workdir, trunc_t, warned):
    # the parent printed no warnings key and sent the truncation warning
    # to stderr, where an experiment records it in the analysis entry
    args = ("--which", "theta-sigma", "--model", "garch.json", "--alpha", 2,
            "--trunc-t", trunc_t, "--mc-reps", 2000)
    r = invoke(runner, "--seed", 0, "--out", "o", "theta-theory", *args)
    assert r.exit_code == 0
    assert r.stderr == ""
    out = json.loads(r.stdout)
    assert json.loads(Path("o/theory.json").read_text()) == out
    cfg = ExperimentConfig.from_json({
        "model": json.loads(Path("garch.json").read_text()), "n": 100,
        "seed": RngSeed(0).to_json(), "analyses": [
            {"analysis": "theory", "which": "theta_sigma", "alpha": 2.0,
             "trunc_T": trunc_t, "mc_reps": 2000}]})
    entry = run_experiment(cfg, "e").results[0]
    for got in (out, entry):
        risk = got["truncation"]["risk_fraction"]
        if warned:
            assert got["warnings"] == [f"UserWarning: truncation risk "
                                       f"{risk:.3f} exceeds 1%; increase "
                                       f"trunc_T"]
        else:
            assert risk <= 0.01 and "warnings" not in got


@pytest.mark.parametrize("command", [
    (("theta-est", "--method", "blocks", "--q", 1.5),
     "theta q must be a finite number in (0, 1), got 1.5"),
    (("extremogram", "--q", 1.5),
     "extremogram q must be a finite number in (0, 1), got 1.5"),
    (("diagnose", "--q", 1.5),
     "theta q must be a finite number in (0, 1), got 1.5"),
    (("theta-est", "--method", "blocks", "--block-len", 0),
     "theta block_len must be >= 1")])
def test_path_command_reads_its_spec_before_simulating(runner, workdir,
                                                        monkeypatch, command):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr("svextremes.cli.simulate", simulate)
    args, message = command
    r = invoke(runner, "--out", "o", *args, "--model", "garch.json")
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert f"Error: {message}" in r.output
    assert not Path("o").exists()


def test_diagnose_reads_k_before_simulating(runner, workdir, monkeypatch):
    # a k below 2 is refused where the spec enters, before any simulation
    def simulate(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr("svextremes.experiments.simulate", simulate)
    r = invoke(runner, "--out", "o", "diagnose", "--model", "garch.json",
               "--k", 1)
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "Error: hill k must be >= 2" in r.output
    assert not Path("o").exists()


def test_theta_theory_ma(runner, workdir):
    r = invoke(runner, "--seed", 0, "--out", "o", "theta-theory", "--which",
               "theta-x-ma", "--model", "ma.json", "--alpha", 4)
    assert r.exit_code == 0
    # constant z: exact closed form 1 / (1 + 1)
    assert json.loads(r.output)["value"] == 0.5


def test_theta_theory_ma_alpha_must_be_eta_tail_index(runner, workdir):
    # the analysis's check: ma.json's eta is pareto(4)
    r = invoke(runner, "theta-theory", "--which", "theta-x-ma", "--model",
               "ma.json", "--alpha", 3)
    assert r.exit_code == 1
    assert "Error: theta_x_ma alpha 3.0 differs from eta's tail index 4.0" \
        in r.output


def test_theta_theory_requires_alpha(runner, workdir):
    r = invoke(runner, "theta-theory", "--which", "theta-sigma", "--model",
               "garch.json")
    assert r.exit_code != 0
    # read_spec's wording, as every other spec error on the command line
    assert "Error: theory alpha is required" in r.output


def test_theta_theory_x_sre_on_garch_returns_is_an_error(runner, workdir):
    # theta_x_sre takes A_1 as independent of Z_0, which share eta_0
    # under GARCH returns; the parent printed the SV value
    cfg = config_from_json(json.loads(Path("garch.json").read_text()))
    Path("gr.json").write_text(json.dumps(config_to_json(
        replace(cfg, garch_returns=True))))
    r = invoke(runner, "--out", "o", "theta-theory", "--which",
               "theta-x-sre", "--model", "gr.json", "--alpha", 2)
    assert r.exit_code == 1
    assert ("Error: theta_x_sre needs an sresv model without "
            "garch_returns") in r.output
    assert not Path("o").exists()


@pytest.mark.parametrize("command", [
    ("hill", "--k", 20, "--input", "p/path.csv"),
    ("simulate", "--model", "garch.json", "--n", 50),
    ("experiment", "run", "exp.json")], ids=["hill", "simulate", "experiment"])
def test_out_below_a_file_is_a_usage_error(runner, workdir, command):
    # the parent ended in a NotADirectoryError traceback
    invoke(runner, "--out", "p", "simulate", "--model", "garch.json",
           "--n", 100, "--burn-in", 10)
    Path("exp.json").write_text(json.dumps(ExperimentConfig(
        config_from_json(json.loads(Path("garch.json").read_text())), 100,
        RngSeed(0), analyses=({"analysis": "hill", "k": 10},)).to_json()))
    Path("afile").write_text("")
    for out in ("afile/sub", "afile/sub/deeper"):
        r = invoke(runner, "--out", out, *command)
        assert r.exit_code == 2
        assert r.output.endswith(f"Error: Invalid value for '--out': "
                                 f"Directory '{out}' lies below the file "
                                 f"'afile'.\n")
    assert Path("afile").read_text() == ""


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


def test_diagnose_extremogram_is_the_extremogram_command(runner, workdir):
    # diagnose runs the extremogram analysis on its path, lags 1..10 at
    # --q, so it writes that command's CSV and prints its chi values
    common = ("--model", "garch.json", "--n", 20000, "--burn-in", 1000)
    r = invoke(runner, "--seed", 4, "--out", "d", "diagnose", *common,
               "--q", 0.98)
    assert r.exit_code == 0
    r = invoke(runner, "--seed", 4, "--out", "e", "extremogram", *common,
               "--q", 0.98)
    assert r.exit_code == 0
    assert (Path("d/extremogram.csv").read_bytes()
            == Path("e/extremogram.csv").read_bytes())
    res = json.loads(Path("d/diagnose.json").read_text())
    assert res["extremogram"] == json.loads(r.stdout)["chi_hat"]


def untimed_report(out: str) -> str:
    """report.json of an --out directory, without its timings."""
    report = json.loads(Path(out, "report.json").read_text())
    del report["timings"]
    return json.dumps(report, indent=2, sort_keys=True)


def test_diagnose_reruns_from_its_report(runner, workdir):
    # diagnose runs an experiment: the config in its report.json reruns
    # it, and diagnose.json sums up the report's entries
    r = invoke(runner, "--seed", 4, "--out", "d", "diagnose", "--model",
               "garch.json", "--n", 5000, "--burn-in", 1000)
    assert r.exit_code == 0
    assert sorted(fp.name for fp in Path("d").iterdir()) == [
        "diagnose.json", "extremogram.csv", "path.csv", "report.json"]
    report = json.loads(Path("d/report.json").read_text())
    assert report["config"]["label"] == "diagnose"
    assert report["config"]["analyses"][-1] == {"analysis": "breiman",
                                                "hill_k": 100}
    Path("cfg.json").write_text(json.dumps(report["config"]))
    r = invoke(runner, "--out", "e", "experiment", "run", "cfg.json")
    assert r.exit_code == 0
    for name in ("path.csv", "extremogram.csv"):
        assert Path("d", name).read_bytes() == Path("e", name).read_bytes()
    assert untimed_report("d") == untimed_report("e")
    res = json.loads(Path("d/diagnose.json").read_text())
    entries = report["results"]
    assert res["hill_x_abs"] == entries[1]["alpha_hat"] == res["breiman_alpha"]
    assert res["theta_intervals"] == entries[4]["theta_hat"]
    assert res["u"] == entries[2]["u"]
    assert res["breiman_ratio"] == entries[6]["ratios"]


def test_diagnose_records_its_warnings_and_leaves_stderr_empty(workdir):
    # sigma == 1: every breiman level is empty, and Hill on sigma fails.
    # The parent printed the three warnings on stderr
    const = SreSvConfig(p=1.0, pair_source=GenericPair(constant(0.0),
                                                       constant(1.0)),
                        z=std_normal())
    Path("const.json").write_text(json.dumps(config_to_json(const)))
    proc = run_python("-m", "svextremes", "--seed", "0", "--out", "o",
                      "diagnose", "--model", "const.json", "--n", "2000",
                      "--burn-in", "10", "--alpha", "4")
    assert (proc.returncode, proc.stderr) == (0, "")
    res = json.loads(proc.stdout)
    assert json.loads(Path("o/diagnose.json").read_text()) == res
    assert res["warnings"] == {"breiman_ratio": [
        f"UserWarning: no exceedances at level {q}; grid point dropped"
        for q in (0.99, 0.995, 0.999)]}
    assert res["errors"] == {"hill_sigma": "ValueError: degenerate tail sample"}
    assert (res["breiman_ratio"], res["breiman_alpha"]) == ([], 4.0)


def test_diagnose_records_a_failed_hill_on_x_as_the_breiman_error(
        runner, workdir):
    # x == 1: without --alpha, breiman's alpha is Hill's on |x|, which
    # fails; the parent left breiman out silently
    ones = SreSvConfig(p=1.0, pair_source=GenericPair(constant(0.0),
                                                      constant(1.0)),
                       z=constant(1.0))
    Path("ones.json").write_text(json.dumps(config_to_json(ones)))
    r = invoke(runner, "--out", "o", "diagnose", "--model", "ones.json",
               "--n", 2000, "--burn-in", 10)
    assert r.exit_code == 0
    res = json.loads(r.stdout)
    degenerate = "ValueError: degenerate tail sample"
    assert res["errors"]["hill_x_abs"] == degenerate
    assert res["errors"]["breiman_ratio"] == degenerate
    assert "breiman_ratio" not in res and "breiman_alpha" not in res


def test_quantile_out_of_range_is_no_traceback(runner, workdir):
    r = invoke(runner, "--out", "o", "theta-est", "--model", "garch.json",
               "--n", 2000, "--burn-in", 100, "--method", "blocks",
               "--q", 1.5)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert "theta q must be a finite number in (0, 1), got 1.5" in r.output
    r = invoke(runner, "--out", "o", "diagnose", "--model", "garch.json",
               "--n", 2000, "--burn-in", 100, "--q", 1.5)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert ("Error: theta q must be a finite number in (0, 1), got 1.5"
            in r.output)


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
        analyses=({"analysis": "hill", "k": 1000},))  # above the length
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
     "master_seed must be an integer, got True"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": 1.5}},
     "master_seed must be an integer, got 1.5"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": -1}}, "master_seed must"),
    ({**VALID_EXPERIMENT, "seed": {"master_seed": 0, "stream_id": "1"}},
     "stream_id must be an integer, got '1'"),
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
    ({**VALID_EXPERIMENT, "analyses": [{"analysis": "breiman"}]},
     "breiman alpha is required"),
])
def test_experiment_run_bad_config_names_the_field(obj, field):
    r = experiment_config_json(obj)
    assert_bad_experiment_config(r)
    assert field in r.output


@pytest.mark.parametrize("path, key, message", [
    ((), "burnin", "experiment config has no field 'burnin'"),
    (("seed",), "steam_id",
     "field 'seed': rng seed has no field 'steam_id'"),
    (("model",), "bogus", "field 'model': expar1 has no field 'bogus'"),
    (("model", "z"), "bogus",
     "field 'model': field 'z': innovation spec has no field 'bogus'"),
])
def test_unknown_experiment_key_rejected_by_name(path, key, message):
    # the parent ran {"burnin": 5} with a burn-in of 10,000 and
    # {"steam_id": 3} as stream 0
    obj = _replace(VALID_EXPERIMENT, path + (key,), 5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_json(obj)
    r = experiment_config_json(obj)
    assert_bad_experiment_config(r)
    assert message in r.output


@given(obj=JSON_VALUES)
@settings(max_examples=60, deadline=None)
def test_experiment_run_any_json_value_is_a_bad_config(obj):
    assert_bad_experiment_config(experiment_config_json(obj))


# one valid spec of each analysis kind, every field given
VALID_SPECS = [
    {"analysis": "figure", "q_low": 0.05, "q_high": 0.95},
    {"analysis": "hill", "k": 5, "series": "x"},
    {"analysis": "theta", "method": "blocks", "q": 0.9, "block_len": 2,
     "run_len": 2, "series": "sigma"},
    {"analysis": "extremogram", "lags": [1, 2], "q": 0.9, "series": "x_abs"},
    {"analysis": "breiman", "alpha": 4.0, "q_grid": [0.5, 0.9]},
    {"analysis": "anticluster", "m_grid": [1], "r_n": 3, "y": 1.0,
     "reps": 2},
    {"analysis": "theory", "which": "theta_x_sre", "alpha": 2.0,
     "mc_reps": 100, "tol": 1e-3, "trunc_T": 10, "m": 3},
]

# a valid spec with one field replaced, or an unknown one added, by any
# JSON value
MUTATED_SPECS = st.sampled_from(VALID_SPECS).flatmap(
    lambda spec: st.builds(lambda name, value: {**spec, name: value},
                           st.sampled_from(list(spec)) | st.text(max_size=6),
                           JSON_VALUES))


@given(spec=MUTATED_SPECS)
@settings(max_examples=80, deadline=None)
def test_mutated_analysis_spec_is_read_or_a_bad_config(spec):
    obj = {**VALID_EXPERIMENT, "analyses": [spec]}
    try:
        ExperimentConfig.from_json(obj)
    except ValueError:
        # a spec that is read runs as any other; only a rejected one is
        # run here, as its config is refused before anything is simulated
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
    out = run_python("-c", NO_SCIPY_RUN, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [[], []]


def modules_after(tmp_path, command) -> list:
    """The modules a CLI process has loaded when command, run on a stored
    path.csv, ends."""
    path = simulate(ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal()),
                    2000, burn_in=100, seed=RngSeed(3))
    path_to_csv(path, tmp_path / "path.csv")
    code = ("import sys; from svextremes.cli import main; "
            "main(sys.argv[1:], standalone_mode=False); print(*sys.modules)")
    out = run_python("-c", code, "--out", str(tmp_path / "o"), command[0],
                     "--input", str(tmp_path / "path.csv"), *command[1:],
                     check=True).stdout
    return out.splitlines()[-1].split()


@pytest.mark.parametrize("command", [
    ("theta-est", "--method", "blocks"), ("extremogram",)])
def test_path_command_on_a_stored_path_loads_no_numpy_ma(tmp_path, command):
    # every threshold comes from one single-index partition; np.quantile
    # would import numpy.ma, about 16 ms of each such process
    assert [m for m in modules_after(tmp_path, command)
            if m.split(".")[:2] == ["numpy", "ma"]] == []


@pytest.mark.parametrize("command", [
    ("hill", "--k", "20"), ("theta-est", "--method", "blocks"),
    ("extremogram",)], ids=["hill", "theta-est", "extremogram"])
def test_path_command_on_a_stored_path_loads_no_theory_or_thread_pool(
        tmp_path, command):
    # each process compiles what it imports; the parent loaded theory.py
    # and concurrent.futures, about 12 ms of each such process
    loaded = modules_after(tmp_path, command)
    assert "svextremes.estimators" in loaded
    assert "svextremes.theory" not in loaded
    assert "concurrent.futures" not in loaded
    # hill and extremogram draw nothing, so they derive no analysis seed,
    # which would load numpy.random (about 10 ms and 5 MB of RSS); the
    # theta bootstrap draws its replicates
    if command[0] != "theta-est":
        assert "numpy.random" not in loaded


def test_import_package_loads_no_module():
    code = ("import sys, svextremes; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('svextremes.')))")
    assert run_python("-c", code, check=True).stdout == "[]\n"


def test_public_name_loads_no_module_after_its_own():
    # modules are searched in __all__ order: distributions, rng, models,
    # estimators, theory, experiments
    code = ("import sys, svextremes as sv; sv.KestenProblem; "
            "print(*sorted(m for m in sys.modules "
            "if m.startswith('svextremes.')))")
    assert run_python("-c", code, check=True).stdout.split() == [
        f"svextremes.{m}" for m in ("distributions", "estimators", "models",
                                    "rng", "theory")]


def test_unknown_package_attribute_is_an_attribute_error():
    for name in ("no_such_name", "_private", "chunked_map"):
        with pytest.raises(AttributeError, match=f"^module 'svextremes' "
                                                 f"has no attribute "
                                                 f"'{name}'$"):
            getattr(svextremes, name)


POOL_RACE = """
import threading, time
import concurrent.futures as cf
from svextremes import rng

made = []

class Pool(cf.ThreadPoolExecutor):
    def __init__(self, *args, **kw):
        time.sleep(0.05)  # room for the other thread to race in
        made.append(self)
        super().__init__(*args, **kw)

cf.ThreadPoolExecutor = Pool
rng._usable_cpus = lambda: 2
start = threading.Barrier(2)

def first_call():
    start.wait()
    assert rng.chunked_map(lambda i: i, 4, threads=2) == [0, 1, 2, 3]

racers = [threading.Thread(target=first_call) for _ in range(2)]
for t in racers:
    t.start()
for t in racers:
    t.join()
print(len(made), rng._HELPERS is made[0])
"""


def test_racing_first_chunked_map_calls_make_one_pool():
    assert run_python("-c", POOL_RACE, check=True).stdout == "1 True\n"


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
    out = run_python("-c", code, check=True).stdout
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
    *(({"analysis": "theory", "which": which.replace("-", "_"),
        **fields}, ("theta-theory", "--which", which, *args))
      for which, fields, args in (
          ("kesten", {"mc_reps": 20_000}, ("--mc-reps", 20_000)),
          ("theta-sigma", {"alpha": 2.0, "mc_reps": 2000},
           ("--alpha", 2, "--mc-reps", 2000)),
          ("theta-x-sre", {"alpha": 2.0, "m": 10, "mc_reps": 2000},
           ("--alpha", 2, "--m", 10, "--mc-reps", 2000)),
          ("theta-x-ma", {"alpha": 4.0}, ("--alpha", 4))))
], ids=["hill", "theta-blocks", "theta-runs", "theta-intervals",
        "extremogram", "theory-kesten", "theory-theta-sigma",
        "theory-theta-x-sre", "theory-theta-x-ma"])
def test_cli_matches_the_experiment_entry(runner, workdir, spec, args):
    # a path command on the experiment's own path.csv, and the theory
    # command on its model, print the experiment's report entry and write
    # the same CSV; the theory command spells which with hyphens
    model = "ma.json" if spec.get("which") == "theta_x_ma" else "garch.json"
    cfg = ExperimentConfig.from_json({
        "model": json.loads(Path(model).read_text()), "n": 20000,
        "burn_in": 1000, "seed": RngSeed(3).to_json(), "analyses": [spec]})
    run_experiment(cfg, "e")
    entry = json.loads(Path("e/report.json").read_text())["results"][0]
    assert "error" not in entry
    # both run the analysis at the seed's child 1000, the experiment's
    # first analysis and the command alike
    source = (("--model", model) if args[0] == "theta-theory"
              else ("--input", "e/path.csv"))
    r = invoke(runner, "--seed", 3, "--out", "c", args[0], *source,
               *args[1:])
    assert r.exit_code == 0

    def strip(obj):
        return {k: v for k, v in obj.items()
                if k not in ("analysis", "index", "csv")}

    if "which" in entry:
        entry["which"] = entry["which"].replace("_", "-")
    assert strip(json.loads(r.output)) == strip(entry)
    if args[0] == "extremogram":
        assert Path("c/extremogram.csv").read_bytes() == \
            Path("e/extremogram.csv").read_bytes()


# the options every path command shares, before its spec's
PATH_OPTIONS = {"--model": (False, None), "--input": (False, None),
                "--n": (False, 10_000), "--burn-in": (False, DEFAULT_BURN_IN)}


@pytest.mark.parametrize("kind, command", [
    ("hill", "hill"), ("theta", "theta-est"), ("extremogram", "extremogram"),
    ("theory", "theta-theory")])
def test_analysis_command_takes_one_option_per_spec_field(kind, command):
    # --<field> spelled with -, required where the spec requires it and at
    # the spec's default otherwise; extremogram's lags alone has its
    # default from the command line
    shared = ({"--model": (True, None)} if kind == "theory"
              else PATH_OPTIONS)
    fields = {}
    for field, (_, default) in SPECS[kind].items():
        if (kind, field) == ("extremogram", "lags"):
            default = "1,2,3,4,5,6,7,8,9,10"
        fields[f"--{field.lower().replace('_', '-')}"] = (
            default is ..., None if default is ... else default)
    params = main.commands[command].params
    info = [p.to_info_dict() for p in params]
    assert [(i["opts"], i["required"], i["default"]) for i in info] == [
        ([name], *v) for name, v in {**shared, **fields}.items()]
    assert [p.name for p in params[len(shared):]] == [*SPECS[kind]]


def test_read_path_csv_round_trips_bits(tmp_path):
    path = simulate(ExpAr1Config(phi=0.9, eta=laplace(4.0), z=std_normal()),
                    2000, burn_in=100, seed=RngSeed(3))
    path_to_csv(path, tmp_path / "path.csv")
    sigma, x = read_path_csv(str(tmp_path / "path.csv"))
    assert np.array_equal(sigma, path.sigma)
    assert np.array_equal(x, path.x)
    assert sigma.flags.c_contiguous and x.flags.c_contiguous


def test_read_path_csv_finds_columns_by_name(tmp_path):
    fp = tmp_path / "p.csv"
    fp.write_text("x, t ,sigma\n-1.5,0,2\n0.25,1,0.5\n")
    sigma, x = read_path_csv(str(fp))
    assert sigma.tolist() == [2.0, 0.5]
    assert x.tolist() == [-1.5, 0.25]


def test_read_path_csv_one_row(tmp_path):
    fp = tmp_path / "p.csv"
    fp.write_text("t,sigma,x\n0,2,-3\n")
    sigma, x = read_path_csv(str(fp))
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
    ("t,sigma,x\n0,1,inf\n1,1,-inf\n2,1,nan\n",
     "column x holds NaN in data row 3"),
    ("t,sigma,x\n0,1,1\n1,NaN,1\n", "column sigma holds NaN in data row 2"),
    # the parent read only sigma and x, so a bad t passed
    ("t,sigma,x\n0,1,1\nabc,1,1\n", "could not convert string 'abc'"),
    ("t,sigma,x\n0,1,1\nnan,1,1\n", "column t holds NaN in data row 2"),
    # path.csv has no comment syntax: a '#' line or field is no number
    ("t,sigma,x\n0,1,1\n# a note\n1,1,1\n",
     "could not convert string '# a note'"),
    ("t,sigma,x\n0,1,1\n1,1,2 # a note\n",
     "could not convert string '2 # a note'"),
], ids=["no-x", "no-sigma", "empty-field", "malformed-field", "short-row",
        "header-only", "empty-file", "nan-x", "nan-sigma", "malformed-t",
        "nan-t", "comment-line", "comment-field"])
def test_bad_path_csv_rejected(runner, workdir, text, reason):
    Path("bad.csv").write_text(text)
    r = invoke(runner, "hill", "--input", "bad.csv", "--k", 2)
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
    assert "theory alpha must be a finite number > 0" in r.output


@pytest.mark.parametrize("which", ["theta-sigma", "theta-x-sre"])
def test_theta_theory_zero_count_is_no_traceback(runner, workdir, which):
    # at seed 0 (the analysis draws from its child 1000) every one of 10
    # sampled sups lies at or above 0 (theta-sigma), and no replicate of
    # 10 is still live at m = 50 (theta-x-sre): a 0 says theta is below
    # the resolution
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
