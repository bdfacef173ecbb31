"""svextremes benchmark: one command per workload, metrics and checks.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the program is imported from its `src`.
Workloads and metric names are those of BENCHMARK.json. Every workload is
a closed loop with one client at --threads 2: a call starts only after
the previous one has returned.

--trace 0 prints the end-to-end metrics:
  wall_s       median wall time of one timed pass
  wall_s_tail  the highest percentile of pass time with at least 10
               passes beyond it (with fewer than 20 passes no percentile
               at or above the median qualifies, and the maximum is given)
  setup_s      fresh interpreter to first timed call, median of the
               measure worker's own set-up and of the set-up samples it
               takes between its passes (see worker.py)
  peak_rss_mb  peak RSS of the process running the passes (for the CLI
               workload, the largest of its command processes)
  artifact_mb  bytes the pass writes to its output directory, in 1e6 B
--trace 1 prints the per-layer metrics of a separate traced run.

Every run checks the program's outputs (see workloads.py). A failed
operation or check makes `correct` false and the exit status 1. Results,
the environment record and spans go to .perfbench_out/ in the checkout;
temporary files go to .perfbench_work/ and are removed at the end.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spawn import ROOT, WorkerFailed, run_worker

# The run may take --seconds of passes plus this much for set-ups, checks
# and, in a traced run, the layer sweep; at --seconds 25 a run ends within
# 145 s.
TIME_MARGIN_S = 120.0
MIN_TAIL_PASSES = 20
TAIL_BEYOND = 10


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def cpu_model():
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes():
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = read_text(idx / "level")
        if level in ("2", "3"):
            out[f"L{level}"] = read_text(idx / "size")
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (the checkout is not a git repository)"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def version(pkg):
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args):
    return {"workload": args.workload, "seed": args.seed,
            "run_seconds": args.seconds, "trace": args.trace,
            "client": "closed loop, 1 client, threads=2",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "cache_per_cpu0": cache_sizes(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "click": version("click"), "git_commit": git_commit()}


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
        self.work = ROOT / ".perfbench_work" / args.workload
        self.out = ROOT / ".perfbench_out"
        self.tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out.mkdir(exist_ok=True)

    def spawn(self, mode):
        """Run the one worker of this run; returns its result."""
        return run_worker(self.args.workload, mode, self.args.seed,
                          self.args.seconds, self.work / mode,
                          self.deadline - time.monotonic(),
                          spans=self.out / f"{self.tag}_spans.json")

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def tail(walls):
    """(value, percentile, passes beyond it) of the tail of pass times."""
    xs = sorted(walls)
    n = len(xs)
    if n < MIN_TAIL_PASSES:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def end_to_end(runner):
    res = runner.spawn("measure")
    walls = [p["wall"] for p in res["passes"]]
    value, pct, beyond = tail(walls)
    setup = res["setup_samples"]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "artifact_mb": statistics.median(p["bytes"] for p in res["passes"])
        / 1e6,
    }
    notes = [f"passes: {len(walls)}",
             f"wall_s_tail: p{pct:.1f} of {len(walls)} passes, "
             f"{beyond} beyond it",
             f"setup_s samples: {setup}",
             f"digest threads=2: {res['passes'][0]['digest']}"]
    detail = {"pass_walls": walls, "setup_samples": setup,
              "tail": {"percentile": pct, "passes": len(walls),
                       "beyond": beyond},
              "digest": res["passes"][0]["digest"]}
    return res, metrics, notes, detail


def traced(runner):
    res = runner.spawn("trace")
    m = res["per_layer"]
    untraced, traced_n = res["pass_counts"]
    notes = [f"passes: {untraced} untraced, {traced_n} traced, 1 at threads=1",
             f"digest threads=2: {res['digest']} (threads=1 checked)",
             f"traced wall {m['trace.wall_s']!r} s = self "
             f"{m['trace.self_s']!r} s + overhead {m['trace.overhead_s']!r}"
             f" s + remainder {m['trace.remainder_s']!r} s",
             f"spans recorded: {res['spans_recorded']}, written to "
             f".perfbench_out/{runner.tag}_spans.json",
             "self time by span (trace group, name, seconds):"]
    notes += [f"  {grp:10s} {name:45s} {s:.6f}"
              for grp, name, s in res["self_by_name"]]
    detail = {"digest": res["digest"], "self_by_name": res["self_by_name"]}
    return res, m, notes, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "svextremes" / "__init__.py").is_file():
        sys.exit(f"no svextremes sources under {ROOT / 'src'}; run the "
                 "benchmark from the root of a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names}")
    if not 0 <= args.seed < 2 ** 64:
        sys.exit("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        sys.exit("--seconds must be positive")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    runner = Runner(args)
    try:
        res, metrics, notes, detail = (traced if args.trace
                                       else end_to_end)(runner)
    except WorkerFailed as e:
        sys.exit(f"benchmark failed: {e}")
    finally:
        runner.cleanup()
    if set(metrics) != set(units):
        sys.exit("metrics do not match BENCHMARK.json: missing "
                 f"{sorted(set(units) - set(metrics))}, extra "
                 f"{sorted(set(metrics) - set(units))}")

    env = environment(args)
    env["svextremes"] = res["version"]
    env["working_set_computed"] = (res["working_set"] + "; not measured, "
                                   "compare with the cache sizes above")
    failures = res["failures"]
    attempted = max(res["attempted"], 1)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    print(f"failed_frac: {len(failures)}/{attempted} = "
          f"{len(failures) / attempted!r}")
    for f in failures:
        print(f"FAILED: {f}")
    for name in (m["name"] for m in declared):
        print(f"{name} = {metrics[name]!r} {units[name]}")

    out = {"correct": not failures, "attempted": attempted,
           "failed": len(failures),
           "metrics": {m["name"]: {"value": metrics[m["name"]],
                                   "unit": m["unit"]} for m in declared}}
    (runner.out / f"{runner.tag}.json").write_text(json.dumps(
        {"environment": env, "detail": detail, "failures": failures,
         "result": out}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(out))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
