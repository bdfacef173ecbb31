"""Per-layer sweep of the traced run.

Every layer is timed from outside, by spans around calls into the public
functions of its module, on the inputs of the three workloads. The
experiment workload is also replayed stage by stage (simulate, write,
each estimator without and with its bootstrap), which gives the
estimate/bootstrap split and the write share. Thread-sensitive calls run
at threads=1 and at threads=2. The experiment and CLI layers take their
inputs from the workload classes, reusing the traced workload's own
instance where it is one of them.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import svextremes as sv
from svextremes import cli as sv_cli
from svextremes import distributions

import workloads as wl

IMPORT_PROBE = ("import json, sys, time\n"
                "before = set(sys.modules)\n"
                "t0 = time.perf_counter()\n"
                "import svextremes\n"
                "t1 = time.perf_counter()\n"
                "print(json.dumps({'s': t1 - t0, "
                "'modules': len(set(sys.modules) - before)}))\n")


class Sweep:
    def __init__(self, tracer, seed: int, work_dir: Path, checks, workload):
        self.tr = tracer
        self.seed = seed
        self.work = work_dir / "layers"
        self.work.mkdir(parents=True, exist_ok=True)
        self.checks = checks
        self.workload = workload
        self.m = {}

    def instance(self, cls):
        """The traced workload if it is a `cls`, else a new one (its
        set-up runs outside the layer spans)."""
        if isinstance(self.workload, cls):
            return self.workload
        return cls(self.seed, self.work)

    def timed(self, name, fn, reps=1, **attrs):
        """Median span duration of `reps` calls, and the last result."""
        times = []
        for _ in range(reps):
            with self.tr.span(name, **attrs) as rec:
                out = fn()
            times.append(rec["end"] - rec["start"])
        return statistics.median(times), out

    def layer(self, name):
        return self.tr.span(f"layer.{name}")

    def run(self) -> dict:
        for step in (self.import_layer, self.distributions_layer,
                     self.models_layer, self.estimators_layer,
                     self.theory_layer, self.experiments_layer,
                     self.cli_layer):
            step()
        return self.m

    # -- import --------------------------------------------------------

    def import_layer(self):
        with self.layer("import"):
            runs = []
            for _ in range(3):
                with self.tr.span("import.svextremes"):
                    p = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                       capture_output=True, text=True,
                                       timeout=60, check=True)
                runs.append(json.loads(p.stdout))
        self.m["import.s"] = statistics.median(r["s"] for r in runs)
        self.m["import.modules"] = runs[-1]["modules"]

    # -- distributions -------------------------------------------------

    def distributions_layer(self):
        n = 1_000_000
        with self.layer("distributions"):
            for label, spec in (("std_normal", sv.std_normal()),
                                ("laplace", sv.laplace(4.0))):
                g = sv.RngSeed(self.seed).generator()
                t, _ = self.timed("distributions.draw",
                                  lambda: distributions.draw(spec, g, n),
                                  reps=5, kind=label)
                self.m[f"distributions.draw.ns_per_value.{label}"] = \
                    t / n * 1e9

    # -- models --------------------------------------------------------

    def models_layer(self):
        with self.layer("models"):
            t, model = self.timed("models.SreSvConfig", wl.fig2_sv_model,
                                  reps=5)
            self.m["models.SreSvConfig.init_s"] = t
            t, path = self.timed(
                "models.simulate",
                lambda: sv.simulate(model, wl.N_PATH,
                                    seed=sv.RngSeed(self.seed)), reps=3)
            self.m["models.simulate.s"] = t
            self.m["models.simulate.rows"] = path.n
            csv = self.work / "models-path.csv"
            t, _ = self.timed("models.path_to_csv",
                              lambda: sv.path_to_csv(path, csv), reps=3)
            self.m["models.path_to_csv.s"] = t
            self.m["models.path_to_csv.bytes"] = csv.stat().st_size
        self.path = path

    # -- estimators ----------------------------------------------------

    def estimators_layer(self):
        path = self.path
        v = np.abs(path.x)
        with self.layer("estimators"):
            self.m["estimators.hill.s"], _ = self.timed(
                "estimators.hill", lambda: sv.hill(v, 2000), reps=3)
            self.m["estimators.extremogram.s"], _ = self.timed(
                "estimators.extremogram",
                lambda: sv.extremogram(v, list(range(1, 11)), 0.99), reps=3)
            self.m["estimators.breiman_ratio.s"], _ = self.timed(
                "estimators.breiman_ratio",
                lambda: sv.breiman_ratio(path.sigma, path.x,
                                         (0.99, 0.995, 0.999), 4.0,
                                         z=path.config.z), reps=3)
            u = float(np.quantile(v, 0.995))
            replicates = 0
            for fn, args in ((sv.blocks_theta, (100,)),
                             (sv.runs_theta, (10,)),
                             (sv.intervals_theta, ())):
                name = f"estimators.{fn.__name__}"
                est, _ = self.timed(name, lambda: fn(v, u, *args, n_boot=0),
                                    reps=3, n_boot=0)
                full2, _ = self.timed(name, lambda: fn(v, u, *args,
                                                       threads=2),
                                      reps=3, threads=2)
                full1, _ = self.timed(name, lambda: fn(v, u, *args,
                                                       threads=1),
                                      reps=3, threads=1)
                self.m[f"{name}.estimate_s"] = est
                self.m[f"{name}.bootstrap_s"] = full2 - est
                self.m[f"{name}.t1_over_t2"] = full1 / full2
                self.m[f"{name}.exceedances"] = int(np.count_nonzero(v > u))
                replicates += inspect.signature(fn).parameters[
                    "n_boot"].default
            self.m["estimators.bootstrap_replicates"] = replicates

    # -- theory --------------------------------------------------------

    def theory_layer(self):
        s = sv.RngSeed(self.seed)
        with self.layer("theory"):
            t, prob = self.timed("theory.KestenProblem",
                                 lambda: sv.KestenProblem(wl.garch_pair()),
                                 reps=5)
            self.m["theory.KestenProblem.init_s"] = t
            calls = {th: wl.theory_calls(prob, s, th) for th in (2, 1)}
            t2, res = {}, {}
            for key, (span, call) in calls[2].items():
                t2[key], res[key] = self.timed(span, call, threads=2)
            t1 = {key: self.timed(calls[1][key][0], calls[1][key][1],
                                  threads=1)[0]
                  for key in ("theta_sigma", "theta_x_sre")}
        sig, quad, xs, ma = (res["theta_sigma"], res["theta_sigma_quadrature"],
                             res["theta_x_sre"], res["theta_x_ma"])
        self.m.update({
            "theory.kesten_index.s": t2["kesten"],
            "theory.theta_sigma_sre.s": t2["theta_sigma"],
            "theory.theta_sigma_sre.mc_stderr": sig.mc_stderr,
            "theory.theta_sigma_sre.resolved_frac":
                1.0 - sig.truncation["risk_fraction"],
            "theory.theta_sigma_sre.t1_over_t2":
                t1["theta_sigma"] / t2["theta_sigma"],
            "theory.theta_sigma_sre.s_at_se1e-3":
                t2["theta_sigma"] * (sig.mc_stderr / 1e-3) ** 2,
            "theory.theta_sigma_sre_quadrature.s":
                t2["theta_sigma_quadrature"],
            "theory.theta_sigma_sre_quadrature.resolved_frac":
                1.0 - quad.truncation["risk_fraction"],
            "theory.theta_x_sre.s": t2["theta_x_sre"],
            "theory.theta_x_sre.mc_stderr": xs.mc_stderr,
            "theory.theta_x_sre.t1_over_t2":
                t1["theta_x_sre"] / t2["theta_x_sre"],
            "theory.theta_x_sre.s_at_se1e-3":
                t2["theta_x_sre"] * (xs.mc_stderr / 1e-3) ** 2,
            "theory.theta_x_ma.s": t2["theta_x_ma"],
            "theory.theta_x_ma.mc_stderr": ma.mc_stderr,
            "theory.mc_reps": sum(r.mc_reps for r in res.values()),
        })

    # -- experiments ---------------------------------------------------

    def experiments_layer(self):
        w = self.instance(wl.ExperimentWorkload)
        cfg, out = w.cfg, w.out
        totals, untimed, stages = [], [], []
        with self.layer("experiments"):
            for _ in range(3):
                t, report = self.timed(
                    "experiments.run_experiment",
                    lambda: sv.run_experiment(cfg, out, threads=2),
                    threads=2)
                totals.append(t)
                untimed.append(t - sum(report.timings.values()))
                stages.append([report.timings[f"analysis_{i}_{a['analysis']}"]
                               for i, a in enumerate(cfg.analyses)])
        self.m["experiments.run_experiment.s"] = statistics.median(totals)
        self.m["experiments.run_experiment.untimed_s"] = \
            statistics.median(untimed)
        for label, col in zip(wl.ANALYSIS_LABELS, zip(*stages)):
            self.m[f"experiments.analysis.{label}_s"] = \
                statistics.median(col)
        # report.json holds the run's timings, so its size moves by a few
        # bytes from run to run; the other artifacts repeat exactly
        for name in ("path.csv", "figure.csv", "extremogram.csv",
                     "report.json"):
            self.m[f"experiments.artifact_bytes.{name}"] = \
                (out / name).stat().st_size

    # -- cli -----------------------------------------------------------

    def cli_layer(self):
        w = self.instance(wl.CliWorkload)
        csv, out = w.csv, w.out
        v = np.abs(w.path.x)
        expected = wl.cli_expected(v, threads=2)
        library = wl.cli_library(v, threads=2)
        with self.layer("cli"):
            for cmd, extra in wl.CLI_COMMANDS:
                args = wl.cli_args(cmd, extra, csv, out, threads=2)
                printed = io.StringIO()

                def in_process():
                    printed.seek(0)
                    printed.truncate()
                    with contextlib.redirect_stdout(printed):
                        sv_cli.main(args, standalone_mode=False)

                t_in, _ = self.timed(f"cli.{cmd}", in_process, reps=3,
                                     threads=2)
                got = json.loads(printed.getvalue())
                got.pop("csv", None)
                self.checks.expect(
                    wl.canonical(got) == wl.canonical(expected[cmd]),
                    f"in-process {cmd} JSON differs from the library result")
                t_lib, _ = self.timed(f"cli.{cmd}.library", library[cmd],
                                      reps=3, threads=2)
                t_proc, _ = self.timed(
                    f"cli.{cmd}.process",
                    lambda: subprocess.run(
                        [sys.executable, "-m", "svextremes", *args],
                        capture_output=True, timeout=120, check=True),
                    reps=2, threads=2)
                self.m[f"cli.{cmd}.s"] = t_in
                self.m[f"cli.{cmd}.overhead_s"] = t_in - t_lib
                self.m[f"cli.{cmd}.process_s"] = t_proc - t_in
