"""The three benchmark workloads.

Each workload builds its inputs from the workload seed when it is
constructed (that is its set-up), runs one timed pass per `run_pass` call
and checks its own outputs afterwards, outside the timed region. A pass
is one closed-loop step of a single client: every call into the program
starts only after the previous one has returned.

  experiment-sre-1e5  run_experiment on the fig2-sv GARCH(1,1)-SV model,
                      seven analyses, all artifacts written.
  cli-reanalyze-1e5   three `svextremes ... --input path.csv` commands,
                      each its own process, on a stored log-AR(1) path.
  theory-sre-mc       the Kesten root and the SRE / MA extremal-index
                      Monte Carlo routines; no path, one small JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import svextremes as sv

N_PATH = 100_000

EXPERIMENT_ANALYSES = (
    {"analysis": "figure", "q_low": 0.01, "q_high": 0.99},
    {"analysis": "extremogram", "lags": list(range(1, 11)), "q": 0.99},
    {"analysis": "hill", "k": 2000},
    {"analysis": "theta", "method": "intervals", "q": 0.995},
    {"analysis": "theta", "method": "blocks", "block_len": 100, "q": 0.995},
    {"analysis": "theta", "method": "runs", "run_len": 10, "q": 0.995},
    {"analysis": "breiman", "alpha": 4.0},
)
# metric suffix for each analysis above, in the same order
ANALYSIS_LABELS = ("figure", "extremogram", "hill", "theta_intervals",
                   "theta_blocks", "theta_runs", "breiman")

CLI_COMMANDS = (
    ("hill", ("--k", "2000")),
    ("theta-est", ("--method", "intervals", "--q", "0.995")),
    ("extremogram", ("--q", "0.99")),
)

# Monte Carlo sizes of the theory workload
KESTEN_REPS = 1_000_000
THETA_SIGMA_REPS = 2 ** 16
QUADRATURE_REPS = 2 ** 12
THETA_X_SRE_REPS = 2 ** 16
THETA_X_SRE_M = 50
THETA_X_MA_REPS = 1_000_000

# oracles and tolerances of tests/test_theory.py
KAPPA_ORACLE = 1.9954946282347668
MA_THETA_ORACLE = 0.924413657462314
SRE_THETA_M50_REF = 0.2733
SRE_THETA_REF_REPS = 400_000


def garch_pair() -> sv.Garch11Pair:
    return sv.Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                          eta=sv.std_normal())


def fig2_sv_model() -> sv.SreSvConfig:
    return sv.SreSvConfig(p=2.0, pair_source=garch_pair(), z=sv.std_normal())


def fig1_left_model() -> sv.ExpAr1Config:
    return sv.ExpAr1Config(phi=0.9, eta=sv.laplace(4.0), z=sv.std_normal())


def experiment_config(seed: int) -> sv.ExperimentConfig:
    return sv.ExperimentConfig(model=fig2_sv_model(), n=N_PATH,
                               seed=sv.RngSeed(seed),
                               analyses=EXPERIMENT_ANALYSES,
                               label="perfbench")


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_default).encode()


def _hash_items(items) -> str:
    """sha256 over (name, bytes) pairs, each length-prefixed."""
    h = hashlib.sha256()
    for name, data in items:
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _out_files(out_dir: Path) -> list:
    return sorted(p for p in out_dir.iterdir() if p.is_file())


def _clear(out_dir: Path) -> None:
    for p in _out_files(out_dir):
        p.unlink()


class Checks:
    """Counts attempted and failed operations and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    """Defaults shared by the workloads."""

    def final_checks(self, checks: Checks) -> None:
        pass

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ExperimentWorkload(Workload):
    name = "experiment-sre-1e5"

    def __init__(self, seed: int, work_dir: Path):
        self.cfg = experiment_config(seed)
        self.out = work_dir / "experiment-out"
        self.out.mkdir(parents=True, exist_ok=True)

    def run_pass(self, threads: int, tracer):
        with tracer.span("experiments.run_experiment", threads=threads):
            return sv.run_experiment(self.cfg, self.out, threads=threads)

    def inspect(self, report, checks: Checks):
        """Check one pass; returns (digest, artifact bytes)."""
        for entry in report.results:
            tag = f"analysis {entry['index']} {entry['analysis']}"
            checks.expect("error" not in entry,
                          f"{tag}: {entry.get('error')}")
            if entry["analysis"] == "theta" and "error" not in entry:
                checks.expect(0.0 < entry["theta_hat"] <= 1.0,
                              f"{tag}: theta_hat {entry['theta_hat']!r}")
        items, total = [], 0
        for fp in _out_files(self.out):
            data = fp.read_bytes()
            total += len(data)
            if fp.name == "report.json":
                obj = json.loads(data)
                obj.pop("timings")
                data = canonical(obj)
            items.append((fp.name, data))
        _clear(self.out)
        return _hash_items(items), total

    @staticmethod
    def working_set() -> str:
        return (f"sigma and x: 2 float64 arrays of n={N_PATH} = "
                f"{2 * 8 * N_PATH / 1e6:.1f} MB, plus |x| and n-long "
                f"bootstrap index arrays of {8 * N_PATH / 1e6:.1f} MB each")


def cli_library(v: np.ndarray, threads: int) -> dict:
    """The library call behind each CLI command, on an in-memory series."""
    return {
        "hill": lambda: sv.hill(v, 2000),
        "theta-est": lambda: sv.intervals_theta(
            v, float(np.quantile(v, 0.995)), threads=threads),
        "extremogram": lambda: sv.extremogram(v, list(range(1, 11)), 0.99),
    }


def cli_expected(v: np.ndarray, threads: int) -> dict:
    """The JSON each CLI command prints, computed by library calls on the
    in-memory series (the CLI's `csv` path field left out)."""
    calls = cli_library(v, threads)
    h, t, x = calls["hill"](), calls["theta-est"](), calls["extremogram"]()
    return {
        "hill": {"series": "x_abs", "k": h.k, "alpha_hat": h.alpha_hat,
                 "ci_low": h.ci_low, "ci_high": h.ci_high},
        "theta-est": {"theta_hat": t.theta_hat, "method": t.method,
                      "tuning": dict(t.tuning), "stderr": t.stderr,
                      "q": 0.995, "u": t.tuning["u"], "series": "x_abs"},
        "extremogram": {"series": "x_abs", "q": x.q, "u": x.u,
                        "lags": [int(h) for h in x.lags],
                        "chi_hat": [float(c) for c in x.chi_hat],
                        "stderr": [float(s) for s in x.stderr]},
    }


def cli_args(cmd: str, extra, csv: Path, out: Path, threads: int) -> list:
    return ["--threads", str(threads), "--out", str(out), cmd,
            "--input", str(csv), *extra]


class CliWorkload(Workload):
    name = "cli-reanalyze-1e5"

    def __init__(self, seed: int, work_dir: Path):
        self.path = sv.simulate(fig1_left_model(), N_PATH,
                                seed=sv.RngSeed(seed))
        self.csv = work_dir / "path.csv"
        sv.path_to_csv(self.path, self.csv)
        self.out = work_dir / "cli-out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.streams = work_dir / "cli-streams"
        self.streams.mkdir(parents=True, exist_ok=True)
        self.outputs = []
        self.max_rss_kb = 0

    def command(self, cmd: str, extra, threads: int) -> list:
        return [sys.executable, "-m", "svextremes",
                *cli_args(cmd, extra, self.csv, self.out, threads)]

    def run_command(self, argv: list) -> tuple:
        """Run one command to its end; returns (exit code, stdout, stderr).

        The child is reaped with wait4, which gives its own peak RSS; the
        process-wide RUSAGE_CHILDREN would also count the set-up samples.
        """
        out_fp, err_fp = self.streams / "stdout", self.streams / "stderr"
        with open(out_fp, "w") as out, open(err_fp, "w") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_fp.read_text(), err_fp.read_text()

    def run_pass(self, threads: int, tracer):
        done = []
        for cmd, extra in CLI_COMMANDS:
            with tracer.span(f"cli.{cmd}.process", threads=threads):
                done.append((cmd, self.run_command(
                    self.command(cmd, extra, threads))))
        return done

    def inspect(self, done, checks: Checks):
        outputs = {}
        for cmd, (code, stdout, stderr) in done:
            ok = code == 0
            checks.expect(ok, f"{cmd} exited {code}: {stderr.strip()[-300:]}")
            if not ok:
                continue
            try:
                obj = json.loads(stdout)
            except ValueError:
                checks.expect(False, f"{cmd} printed no JSON")
                continue
            obj.pop("csv", None)
            outputs[cmd] = obj
        total = sum(fp.stat().st_size for fp in _out_files(self.out))
        _clear(self.out)
        self.outputs.append(outputs)
        return _hash_items((k, canonical(outputs[k]))
                           for k in sorted(outputs)), total

    def final_checks(self, checks: Checks) -> None:
        expected = cli_expected(np.abs(self.path.x), threads=2)
        for i, outputs in enumerate(self.outputs):
            for cmd, want in expected.items():
                got = outputs.get(cmd)
                checks.expect(got is not None and
                              canonical(got) == canonical(want),
                              f"pass {i}: {cmd} JSON differs from the "
                              "library result on the in-memory path")

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0

    @staticmethod
    def working_set() -> str:
        return (f"per command: path.csv of n={N_PATH} rows (about "
                f"{50 * N_PATH / 1e6:.0f} MB of text) parsed into 3 float64 "
                f"columns of {8 * N_PATH / 1e6:.1f} MB each")


def theory_calls(prob: sv.KestenProblem, s: sv.RngSeed,
                 threads: int) -> dict:
    """The theory workload's calls: result key -> (span name, call).
    kesten_index and the quadrature route take no thread count."""
    return {
        "kesten": ("theory.kesten_index", lambda: sv.kesten_index(
            prob, mc_reps=KESTEN_REPS, seed=s.child(1))),
        "theta_sigma": ("theory.theta_sigma_sre", lambda: sv.theta_sigma_sre(
            prob, alpha=2.0, mc_reps=THETA_SIGMA_REPS, seed=s.child(2),
            threads=threads)),
        "theta_sigma_quadrature": (
            "theory.theta_sigma_sre_quadrature",
            lambda: sv.theta_sigma_sre_quadrature(
                prob, alpha=2.0, mc_reps=QUADRATURE_REPS, seed=s.child(3))),
        "theta_x_sre": ("theory.theta_x_sre", lambda: sv.theta_x_sre(
            prob, sv.std_normal(), alpha=2.0, p=2.0, m=THETA_X_SRE_M,
            mc_reps=THETA_X_SRE_REPS, seed=s.child(4), threads=threads)),
        "theta_x_ma": ("theory.theta_x_ma", lambda: sv.theta_x_ma(
            (1.0, 1.0), alpha=4.0, p=1.0, z=sv.std_normal(),
            mc_reps=THETA_X_MA_REPS, seed=s.child(5), threads=threads)),
    }


class TheoryWorkload(Workload):
    name = "theory-sre-mc"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = sv.RngSeed(seed)
        self.problem = sv.KestenProblem(garch_pair())
        self.out = work_dir / "theory-out"
        self.out.mkdir(parents=True, exist_ok=True)

    def run_pass(self, threads: int, tracer):
        res = {}
        for key, (span, call) in theory_calls(self.problem, self.seed,
                                              threads).items():
            with tracer.span(span, threads=threads):
                res[key] = call()
        (self.out / "theory.json").write_text(json.dumps(
            {k: r.to_json() for k, r in res.items()}, indent=2,
            sort_keys=True, default=_json_default) + "\n")
        return res

    def inspect(self, res, checks: Checks):
        kappa = res["kesten"].kappa
        checks.expect(abs(kappa - KAPPA_ORACLE) < 0.05,
                      f"kappa {kappa!r} not within 0.05 of the oracle")
        ma = res["theta_x_ma"]
        checks.expect(abs(ma.value - MA_THETA_ORACLE) < 4 * ma.mc_stderr,
                      f"theta_x_ma {ma.value!r} not within 4 se of the oracle")
        xs = res["theta_x_sre"]
        se = xs.mc_stderr * math.sqrt(1.0 + xs.mc_reps / SRE_THETA_REF_REPS)
        checks.expect(abs(xs.value - SRE_THETA_M50_REF) < 4 * se,
                      f"theta_x_sre {xs.value!r} not within 4 combined se "
                      "of the reference run")
        seq = np.asarray(xs.sequence)
        checks.expect(seq[0] == 1.0 and bool(np.all(np.diff(seq) <= 0)),
                      "theta_x_sre sequence does not start at 1 or increases")
        mc, quad = res["theta_sigma"], res["theta_sigma_quadrature"]
        checks.expect(abs(mc.value - quad.value) < 0.02,
                      f"theta_sigma routes differ: {mc.value!r} vs "
                      f"{quad.value!r}")
        fp = self.out / "theory.json"
        data = fp.read_bytes()
        _clear(self.out)
        return _hash_items([(fp.name, data)]), len(data)

    @staticmethod
    def working_set() -> str:
        return ("per Monte Carlo chunk: a few float64 arrays of 65536 "
                "replicates = 0.5 MB each; kesten_index holds "
                f"{KESTEN_REPS} draws = {8 * KESTEN_REPS / 1e6:.0f} MB")


WORKLOADS = {w.name: w for w in (ExperimentWorkload, CliWorkload,
                                 TheoryWorkload)}
