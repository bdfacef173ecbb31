"""Print one sha256 per output of a fixed battery of CLI commands.

Every path command (simulate on a GARCH, an EGARCH, an exp-AR(1) and a
generic SRE model, hill, theta-est with each method and with no option
it may leave out, extremogram on a stored path and on sigma of a
constant-volatility model, theta-theory with each quantity (the Kesten
root by its exact route, and by its sample route at 1.1 * 10^6 draws),
on a generic SRE pair, at a truncation whose warning its JSON records
and, for theta_sigma, on a t(5) eta pair at its Kesten root, diagnose
with breiman's alpha from Hill, at a given alpha, and on a
constant-volatility model whose errors and warnings diagnose.json
records), nine commands that must fail (among them a model whose phi
breaks its rule, one whose Laplace rate breaks its law's rule, a
path.csv whose t is no number, a theta_x_sre on GARCH returns and an
--out below a file), two
`experiment run`s whose configs use all seven analysis kinds, the
second with no optional spec field, a third whose theta analyses
alternate between two levels (each level's exceedance set is built
once, and both are kept until the run ends), a fourth with two figure
and two extremogram analyses (each writes its own CSV), the `fig1-right`
preset (t(4) returns, so its report echoes a Student-t spec), and an
`experiment run` of the config in that preset's report.json (the config
writer, reader and writer again), run at fixed seeds on the sources of
this checkout: `simulate` as a `python -m svextremes` process, the rest
in this process through click's CliRunner. The first line names the
Python and numpy versions; each later line is

    <command>:<output> <sha256 or value>

with <output> one of `exit` (the exit code), `stdout`, `stderr` (only
when not empty), `out` (`none` when the command left no --out
directory) or the name of a file under --out. `timings` is removed from
report.json before hashing, since it is the one field that changes from
run to run. Two checkouts give equal lines exactly where their outputs
are byte-identical. tests/output_digest.txt holds this output, and
tests/test_output_digest.py checks it.

Usage (from the repository root): python scripts/output_digest.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import svextremes as sv  # noqa: E402
from svextremes.cli import main as cli_main  # noqa: E402

VERSIONS = f"# python {platform.python_version()}, numpy {np.__version__}"
# the one command run as a process, so that the module entry point runs
PROCESS = "simulate"

PAIR = sv.Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                      eta=sv.std_normal())
MODELS = {
    "garch.json": sv.SreSvConfig(p=2.0, pair_source=PAIR, z=sv.std_normal()),
    "ar.json": sv.ExpAr1Config(phi=0.9, eta=sv.laplace(4.0),
                               z=sv.std_normal()),
    "egarch.json": sv.EgarchConfig(alpha0=0.0, gamma0=0.5, delta0=0.5,
                                   phi=0.5, z=sv.laplace(2.0)),
    "ma.json": sv.MaSvConfig(p=1.0, psi=(1.0, 0.5), eta=sv.pareto(4.0),
                             z=sv.student_t(8.0)),
    # A == 0: a generic pair whose multiplier law has no Kesten root
    "generic.json": sv.SreSvConfig(
        p=1.0, pair_source=sv.GenericPair(sv.constant(0.0), sv.pareto(3.0)),
        z=sv.std_normal()),
    # t(5) eta: kesten_index solves this law on its sample of draws, and
    # theta_sigma runs its chain on it
    "garch_t5.json": sv.SreSvConfig(
        p=2.0, pair_source=sv.Garch11Pair(alpha0=1e-7, alpha1=0.1,
                                          beta1=0.89, eta=sv.student_t(5.0)),
        z=sv.std_normal()),
    # GARCH returns: A_1 and Z_0 share eta_0, so theta_x_sre fails
    "garch_returns.json": sv.SreSvConfig(p=2.0, pair_source=PAIR,
                                         z=sv.std_normal(),
                                         garch_returns=True),
    # A == 0 and B == 1: sigma is 1 at every step, so the extremogram's
    # threshold equals every value
    "const.json": sv.SreSvConfig(
        p=1.0, pair_source=sv.GenericPair(sv.constant(0.0),
                                          sv.constant(1.0)),
        z=sv.std_normal()),
}

# every experiment analysis kind, the theory quantities that fit an SRE
# model, a second extremogram (its own CSV) and a theta_x_ma on the
# wrong family (an error entry)
EXPERIMENT = {
    "model": sv.config_to_json(MODELS["garch.json"]), "n": 4000,
    "burn_in": 1000, "seed": {"master_seed": 17, "stream_id": 0},
    "label": "digest",
    "analyses": [
        {"analysis": "figure", "q_low": 0.02, "q_high": 0.98},
        {"analysis": "extremogram", "lags": [1, 2, 5], "q": 0.99},
        {"analysis": "extremogram", "lags": [1], "q": 0.95,
         "series": "sigma"},
        {"analysis": "hill", "k": 100},
        {"analysis": "hill", "k": 100, "series": "sigma"},
        {"analysis": "theta", "method": "blocks", "q": 0.99,
         "block_len": 40},
        {"analysis": "theta", "method": "runs", "q": 0.99, "run_len": 5},
        {"analysis": "theta", "method": "intervals", "q": 0.99},
        {"analysis": "breiman", "alpha": 4.0},
        {"analysis": "anticluster", "m_grid": [1, 5], "r_n": 20,
         "reps": 20},
        {"analysis": "theory", "which": "kesten", "mc_reps": 100_000},
        {"analysis": "theory", "which": "theta_sigma", "alpha": 2.0,
         "mc_reps": 20_000},
        {"analysis": "theory", "which": "theta_x_sre", "alpha": 2.0,
         "m": 10, "mc_reps": 20_000},
        {"analysis": "theory", "which": "theta_x_ma", "alpha": 4.0},
    ],
}

# one spec per analysis kind, each without its optional fields, so every
# spec default (theory mc_reps included) shows in the outputs
DEFAULTS = {**EXPERIMENT, "label": "defaults", "analyses": [
    {"analysis": "figure"},
    {"analysis": "extremogram", "lags": [1, 2]},
    {"analysis": "hill", "k": 100},
    {"analysis": "theta", "method": "blocks"},
    {"analysis": "breiman", "alpha": 4.0},
    {"analysis": "anticluster", "m_grid": [1, 5]},
    {"analysis": "theory", "which": "kesten"},
    {"analysis": "theory", "which": "theta_sigma", "alpha": 2.0},
    {"analysis": "theory", "which": "theta_x_sre", "alpha": 2.0},
]}

# theta at two levels in turn: each level's exceedance set is built on
# first use, and both are kept until the run ends
INTERLEAVED = {**EXPERIMENT, "label": "interleaved", "analyses": [
    {"analysis": "theta", "method": "intervals", "q": 0.99},
    {"analysis": "theta", "method": "blocks", "q": 0.995, "block_len": 40},
    {"analysis": "theta", "method": "runs", "q": 0.99, "run_len": 5},
    {"analysis": "theta", "method": "intervals", "q": 0.995},
]}

# two figures and two extremograms at other levels: figure.csv,
# extremogram.csv, figure_2.csv and extremogram_2.csv
TWICE = {**EXPERIMENT, "label": "twice", "analyses": [
    {"analysis": "figure", "q_low": 0.01, "q_high": 0.99},
    {"analysis": "extremogram", "lags": [1, 2], "q": 0.99},
    {"analysis": "figure", "q_low": 0.1, "q_high": 0.9},
    {"analysis": "extremogram", "lags": [1, 5], "q": 0.9},
]}

INPUT = ("--input", "path/path.csv")
COMMANDS = [
    ("simulate", ("--seed", "1", "--out", "path", "simulate", "--model",
                  "garch.json", "--n", "20000", "--burn-in", "1000")),
    ("simulate-egarch", ("--seed", "8", "--out", "o", "simulate", "--model",
                         "egarch.json", "--n", "20000", "--burn-in",
                         "1000")),
    # a float a at phi = 0.9, where the scan's products round, and an
    # array a with an array b
    ("simulate-ar", ("--seed", "11", "--out", "o", "simulate", "--model",
                     "ar.json", "--n", "20000", "--burn-in", "1000")),
    ("simulate-generic", ("--seed", "12", "--out", "o", "simulate",
                          "--model", "generic.json", "--n", "20000",
                          "--burn-in", "1000")),
    ("hill", ("--out", "o", "hill", *INPUT, "--k", "200")),
    ("hill-model", ("--seed", "2", "--out", "o", "hill", "--model",
                    "ar.json", "--n", "5000", "--burn-in", "100", "--k",
                    "100", "--series", "sigma")),
    *((f"theta-est-{m}", ("--out", "o", "theta-est", *INPUT, "--method", m,
                          "--q", "0.99", "--block-len", "50", "--run-len",
                          "5"))
      for m in ("blocks", "runs", "intervals")),
    ("theta-est-defaults", ("--out", "o", "theta-est", *INPUT, "--method",
                            "blocks")),
    ("extremogram", ("--out", "o", "extremogram", *INPUT, "--lags",
                     "1,2,3,7", "--q", "0.98")),
    ("extremogram-constant", ("--seed", "9", "--out", "o", "extremogram",
                              "--model", "const.json", "--n", "2000",
                              "--burn-in", "10", "--lags", "0,1,5",
                              "--q", "0.9", "--series", "sigma")),
    ("theta-theory-kesten", ("--out", "o", "theta-theory", "--which",
                             "kesten", "--model", "garch.json",
                             "--mc-reps", "100000")),
    # on the sample route, 1.1M draws span several of the 2^16-value
    # slices of the strided bound sums
    ("theta-theory-kesten-large", ("--out", "o", "theta-theory", "--which",
                                   "kesten", "--model", "garch_t5.json",
                                   "--mc-reps", "1100000")),
    ("theta-theory-theta-sigma", ("--seed", "3", "--out", "o",
                                  "theta-theory", "--which", "theta-sigma",
                                  "--model", "garch.json", "--alpha", "2",
                                  "--mc-reps", "20000")),
    ("theta-theory-theta-x-sre", ("--seed", "4", "--out", "o",
                                  "theta-theory", "--which", "theta-x-sre",
                                  "--model", "garch.json", "--alpha", "2",
                                  "--m", "10", "--mc-reps", "20000")),
    ("theta-theory-theta-x-ma", ("--seed", "5", "--out", "o",
                                 "theta-theory", "--which", "theta-x-ma",
                                 "--model", "ma.json", "--alpha", "4",
                                 "--mc-reps", "20000")),
    ("theta-theory-generic", ("--seed", "7", "--out", "o", "theta-theory",
                              "--which", "theta-sigma", "--model",
                              "generic.json", "--alpha", "1",
                              "--mc-reps", "20000")),
    # trunc_T = 3 leaves theta_sigma's chain near its start: a truncation
    # risk bound of 1, and a warning
    ("theta-theory-warning", ("--seed", "13", "--out", "o", "theta-theory",
                              "--which", "theta-sigma", "--model",
                              "garch.json", "--alpha", "2", "--trunc-t",
                              "3", "--mc-reps", "2000")),
    ("diagnose", ("--seed", "6", "--out", "o", "diagnose", "--model",
                  "garch.json", "--n", "20000", "--burn-in", "1000")),
    # sigma == 1 leaves every breiman level empty: three warnings, and an
    # error from Hill on sigma
    ("diagnose-warning", ("--seed", "0", "--out", "o", "diagnose", "--model",
                          "const.json", "--n", "2000", "--burn-in", "10",
                          "--alpha", "4")),
    # breiman at a given alpha, not at the Hill estimate on |x|
    ("diagnose-alpha", ("--seed", "6", "--out", "o", "diagnose", "--model",
                        "garch.json", "--n", "20000", "--burn-in", "1000",
                        "--alpha", "4")),
    ("fail-model-mismatch", ("--out", "o", "theta-theory", "--which",
                             "kesten", "--model", "ma.json")),
    ("fail-extremogram-lag", ("--out", "o", "extremogram", *INPUT,
                              "--lags", "20000")),
    # specs read where they enter: a block length below 1, and a theta
    # quantity without its alpha
    ("fail-theta-block-len", ("--out", "o", "theta-est", *INPUT, "--method",
                              "blocks", "--block-len", "0")),
    ("fail-theory-alpha", ("--out", "o", "theta-theory", "--which",
                           "theta-sigma", "--model", "garch.json")),
    # a config field read by its rule, and the t column of a stored path
    ("fail-model-field", ("--out", "o", "simulate", "--model",
                          "bad_phi.json", "--n", "100")),
    ("fail-input-t", ("--out", "o", "hill", "--input", "bad_t.csv", "--k",
                      "2")),
    # an innovation-law parameter read by its rule
    ("fail-law-param", ("--out", "o", "simulate", "--model",
                        "bad_rate.json", "--n", "100")),
    ("experiment-run", ("--out", "o", "experiment", "run", "exp.json")),
    ("experiment-defaults", ("--out", "o", "experiment", "run",
                             "defaults.json")),
    ("experiment-interleaved", ("--out", "o", "experiment", "run",
                                "interleaved.json")),
    ("experiment-twice", ("--out", "o", "experiment", "run", "twice.json")),
    ("experiment-preset", ("--seed", "10", "--out", "o", "experiment",
                           "preset", "fig1-right")),
    # the config of the preset's report.json, which main writes
    ("experiment-roundtrip", ("--out", "o", "experiment", "run",
                              "roundtrip.json")),
    # last, so that the lines before them keep their order
    ("fail-theta-x-sre-garch-returns", ("--out", "o", "theta-theory",
                                        "--which", "theta-x-sre", "--model",
                                        "garch_returns.json", "--alpha",
                                        "2")),
    ("fail-out-below-file", ("--out", "afile/sub", "hill", *INPUT, "--k",
                             "20")),
    # theta_sigma's chain on a second law: the t(5) eta pair at 1.415,
    # the root theta-theory-kesten-large reads (1.41504)
    ("theta-theory-theta-sigma-t5", ("--seed", "14", "--out", "o",
                                     "theta-theory", "--which",
                                     "theta-sigma", "--model",
                                     "garch_t5.json", "--alpha", "1.415",
                                     "--mc-reps", "20000")),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_bytes(fp: Path) -> bytes:
    if fp.name != "report.json":
        return fp.read_bytes()
    report = json.loads(fp.read_text())
    report.pop("timings", None)
    return json.dumps(report, indent=2, sort_keys=True).encode()


def run(runner: CliRunner, name: str, args, work: Path) -> list:
    """One command's lines; an exception the CLI does not turn into an
    error message is raised."""
    out_dir = work / args[args.index("--out") + 1]
    if name == PROCESS:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "svextremes", *args],
                              cwd=work, env=env, capture_output=True)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    else:
        result = runner.invoke(cli_main, args,
                               prog_name="python -m svextremes")
        if not isinstance(result.exception, (SystemExit, type(None))):
            raise result.exception
        code, stdout, stderr = (result.exit_code, result.stdout_bytes,
                                result.stderr_bytes)
    lines = [f"{name}:exit {code}", f"{name}:stdout {sha(stdout)}"]
    if stderr:
        lines.append(f"{name}:stderr {sha(stderr)}")
    if not out_dir.is_dir():
        lines.append(f"{name}:out none")
    else:
        for fp in sorted(out_dir.iterdir()):
            lines.append(f"{name}:{fp.name} {sha(file_bytes(fp))}")
    return lines


def digest() -> list:
    """The lines after the first, from COMMANDS run in a temporary
    directory, which is the working directory meanwhile."""
    lines = []
    runner = CliRunner()
    with runner.isolated_filesystem() as tmp:
        work = Path(tmp)
        for fname, cfg in MODELS.items():
            (work / fname).write_text(json.dumps(sv.config_to_json(cfg)))
        (work / "exp.json").write_text(json.dumps(EXPERIMENT))
        (work / "defaults.json").write_text(json.dumps(DEFAULTS))
        (work / "interleaved.json").write_text(json.dumps(INTERLEAVED))
        (work / "twice.json").write_text(json.dumps(TWICE))
        (work / "bad_phi.json").write_text(json.dumps(
            {**sv.config_to_json(MODELS["ar.json"]), "phi": 1.5}))
        (work / "bad_rate.json").write_text(json.dumps(
            {**sv.config_to_json(MODELS["ar.json"]),
             "eta": {"kind": "laplace", "rate": -1}}))
        (work / "bad_t.csv").write_text("t,sigma,x\n0,1,1\nabc,1,1\n")
        (work / "afile").write_text("")
        for name, args in COMMANDS:
            lines += run(runner, name, args, work)
            if name == "experiment-preset":
                report = json.loads((work / "o" / "report.json").read_text())
                (work / "roundtrip.json").write_text(
                    json.dumps(report["config"]))
            if name != "simulate":  # later commands read path/path.csv
                for fp in (work / "o").glob("*"):
                    fp.unlink()
                if (work / "o").is_dir():
                    (work / "o").rmdir()
    return lines


if __name__ == "__main__":
    print(VERSIONS, *digest(), sep="\n")
