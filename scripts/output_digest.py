"""Print one sha256 per output of a fixed battery of CLI commands.

Every path command (simulate on a GARCH and an EGARCH model, hill,
theta-est with each method, extremogram on a stored path and on sigma of
a constant-volatility model, theta-theory with each quantity
and on a generic SRE pair, diagnose), two commands that must fail, and one `experiment run` whose
config uses all seven analysis kinds run at fixed seeds, each as a
`python -m svextremes` process on the sources of this checkout. Each output line is

    <command>:<output> <sha256 or value>

with <output> one of `exit` (the exit code), `stdout`, `stderr` (only
when not empty), `out` (`none` when the command left no --out
directory) or the name of a file under --out. `timings` is removed from
report.json before hashing, since it is the one field that changes from
run to run. Two checkouts give equal lines exactly where their outputs
are byte-identical.

Usage (from the repository root): python scripts/output_digest.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import svextremes as sv  # noqa: E402

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

INPUT = ("--input", "path/path.csv")
COMMANDS = [
    ("simulate", ("--seed", "1", "--out", "path", "simulate", "--model",
                  "garch.json", "--n", "20000", "--burn-in", "1000")),
    ("simulate-egarch", ("--seed", "8", "--out", "o", "simulate", "--model",
                         "egarch.json", "--n", "20000", "--burn-in",
                         "1000")),
    ("hill", ("--out", "o", "hill", *INPUT, "--k", "200")),
    ("hill-model", ("--seed", "2", "--out", "o", "hill", "--model",
                    "ar.json", "--n", "5000", "--burn-in", "100", "--k",
                    "100", "--series", "sigma")),
    *((f"theta-est-{m}", ("--out", "o", "theta-est", *INPUT, "--method", m,
                          "--q", "0.99", "--block-len", "50", "--run-len",
                          "5"))
      for m in ("blocks", "runs", "intervals")),
    ("extremogram", ("--out", "o", "extremogram", *INPUT, "--lags",
                     "1,2,3,7", "--q", "0.98")),
    ("extremogram-constant", ("--seed", "9", "--out", "o", "extremogram",
                              "--model", "const.json", "--n", "2000",
                              "--burn-in", "10", "--lags", "0,1,5",
                              "--q", "0.9", "--series", "sigma")),
    ("theta-theory-kesten", ("--out", "o", "theta-theory", "--which",
                             "kesten", "--model", "garch.json",
                             "--mc-reps", "100000")),
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
    ("diagnose", ("--seed", "6", "--out", "o", "diagnose", "--model",
                  "garch.json", "--n", "20000", "--burn-in", "1000")),
    ("fail-model-mismatch", ("--out", "o", "theta-theory", "--which",
                             "kesten", "--model", "ma.json")),
    ("fail-extremogram-lag", ("--out", "o", "extremogram", *INPUT,
                              "--lags", "20000")),
    ("experiment-run", ("--out", "o", "experiment", "run", "exp.json")),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_bytes(fp: Path) -> bytes:
    if fp.name != "report.json":
        return fp.read_bytes()
    report = json.loads(fp.read_text())
    report.pop("timings", None)
    return json.dumps(report, indent=2, sort_keys=True).encode()


def run(name: str, args, work: Path, env: dict) -> list:
    out_dir = work / args[args.index("--out") + 1]
    proc = subprocess.run([sys.executable, "-m", "svextremes", *args],
                          cwd=work, env=env, capture_output=True)
    lines = [f"{name}:exit {proc.returncode}",
             f"{name}:stdout {sha(proc.stdout)}"]
    if proc.stderr:
        lines.append(f"{name}:stderr {sha(proc.stderr)}")
    if not out_dir.is_dir():
        lines.append(f"{name}:out none")
    else:
        for fp in sorted(out_dir.iterdir()):
            lines.append(f"{name}:{fp.name} {sha(file_bytes(fp))}")
    return lines


def main() -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for fname, cfg in MODELS.items():
            (work / fname).write_text(json.dumps(sv.config_to_json(cfg)))
        (work / "exp.json").write_text(json.dumps(EXPERIMENT))
        for name, args in COMMANDS:
            for line in run(name, args, work, env):
                print(line, flush=True)
            if name != "simulate":  # later commands read path/path.csv
                for fp in (work / "o").glob("*"):
                    fp.unlink()
                if (work / "o").is_dir():
                    (work / "o").rmdir()


if __name__ == "__main__":
    main()
