"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH, so its set-up time covers interpreter start, `import
svextremes` and the workload's own set-up. Writes one JSON result file.

  --mode setup    set up, report the set-up time, exit
  --mode measure  set up, then timed passes at threads=2 for --seconds,
                  with set-up samples (fresh setup workers) spread evenly
                  between the passes
  --mode trace    untraced passes, traced passes, one threads=1 pass and
                  the per-layer sweep, spans written at the end
"""

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import svextremes

import workloads as wl
from spans import NullTracer, Tracer
from spawn import run_worker

THREADS = 2
# set-up samples a measure worker takes between its passes; with its own
# set-up the run has SETUP_SAMPLES + 1 of them
SETUP_SAMPLES = 6
SETUP_TIMEOUT_S = 60.0


def run_passes(w, checks, seconds, tracer, min_passes=1, between=None):
    """Closed loop of passes for about `seconds`; returns pass records.

    `between(busy)`, if given, is called after each pass with the seconds
    spent so far on passes and their checks; the time it takes is not
    counted against `seconds`.
    """
    passes = []
    start = time.perf_counter()
    idle = 0.0
    while True:
        if isinstance(tracer, Tracer):
            tracer.trace = len(passes)
        t0 = time.perf_counter()
        try:
            with tracer.span("pass", threads=THREADS):
                out = w.run_pass(THREADS, tracer)
        except Exception as e:
            if not passes:  # nothing was measured: fail the whole run
                raise
            checks.expect(False, f"pass {len(passes)} raised "
                                 f"{type(e).__name__}: {e}")
            return passes
        wall = time.perf_counter() - t0
        digest, nbytes = w.inspect(out, checks)
        passes.append({"wall": wall, "digest": digest, "bytes": nbytes})
        walls = [p["wall"] for p in passes]
        if between is not None:
            t0 = time.perf_counter()
            between(t0 - start - idle)
            idle += time.perf_counter() - t0
        elapsed = time.perf_counter() - start - idle
        if (len(passes) >= min_passes
                and elapsed + statistics.median(walls) > seconds):
            return passes


class SetupSampler:
    """Takes SETUP_SAMPLES set-up samples, spread evenly over the passes.

    Each sample is a setup worker in a fresh interpreter, started while
    the measure worker waits, so no two processes of the benchmark run at
    once. Spreading the samples over the run, instead of taking them back
    to back, makes their median follow the machine's speed over the whole
    run rather than over its first seconds.
    """

    def __init__(self, args):
        self.args = args
        self.step = args.seconds / (SETUP_SAMPLES + 1)
        self.samples = []

    def __call__(self, busy):
        while (len(self.samples) < SETUP_SAMPLES
               and busy >= (len(self.samples) + 1) * self.step):
            self.take()

    def take(self):
        work = Path(self.args.work_dir) / f"setup{len(self.samples)}"
        res = run_worker(self.args.workload, "setup", self.args.seed, 0.0,
                         work, SETUP_TIMEOUT_S, own_group=False)
        shutil.rmtree(work, ignore_errors=True)
        self.samples.append(res["setup_s"])

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


def check_digests(passes, checks, what):
    first = passes[0]["digest"]
    for i, p in enumerate(passes[1:], 1):
        checks.expect(p["digest"] == first,
                      f"{what}: pass {i} output digest differs from pass 0")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(svextremes.__file__).resolve().parents:
        sys.exit(f"svextremes was imported from {svextremes.__file__}, "
                 f"not from {src}")

    work = Path(args.work_dir)
    w = wl.WORKLOADS[args.workload](args.seed, work)
    setup_s = time.monotonic() - args.spawned_at
    res = {"setup_s": setup_s, "version": svextremes.__version__,
           "working_set": w.working_set()}
    checks = wl.Checks()

    if args.mode == "measure":
        sampler = SetupSampler(args)
        passes = run_passes(w, checks, args.seconds, NullTracer(),
                            between=sampler)
        res["setup_samples"] = [setup_s] + sampler.finish()
        res["peak_rss_mb"] = w.peak_rss_mb()
        check_digests(passes, checks, "threads=2")
        w.final_checks(checks)
        res["passes"] = passes
    elif args.mode == "trace":
        res.update(trace(w, checks, args))

    res["attempted"] = checks.attempted
    res["failures"] = checks.failures
    Path(args.result).write_text(json.dumps(res))


def trace(w, checks, args):
    import layers  # imports click through svextremes.cli; only traced runs

    seg = args.seconds / 3.0
    untraced = run_passes(w, checks, seg, NullTracer(), min_passes=3)
    tr = Tracer()
    traced = run_passes(w, checks, seg, tr, min_passes=3)
    check_digests(untraced + traced, checks, "threads=2")

    # thread invariance: one pass at threads=1 must give the same digest
    tr.trace = "threads=1"
    t0 = time.perf_counter()
    with tr.span("pass", threads=1):
        out = w.run_pass(1, tr)
    t1_wall = time.perf_counter() - t0
    digest1, _ = w.inspect(out, checks)
    checks.expect(digest1 == untraced[0]["digest"],
                  "threads=1 output digest differs from threads=2")
    w.final_checks(checks)

    tr.trace = "layers"
    m = layers.Sweep(tr, args.seed, Path(args.work_dir), checks, w).run()

    self_t = tr.self_times()
    pass_self = [sum(self_t[s["id"]] for s in tr.spans
                     if s["trace"] == p and s["name"] != "pass")
                 for p in range(len(traced))]
    m["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    m["trace.untraced_wall_s"] = statistics.median(p["wall"] for p in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.self_s"] = statistics.median(pass_self)
    m["trace.remainder_s"] = (m["trace.wall_s"] - m["trace.self_s"]
                              - m["trace.overhead_s"])
    m["trace.t1_over_t2"] = t1_wall / m["trace.wall_s"]

    self_by_name = {}
    for s in tr.spans:
        key = (s["trace"] if isinstance(s["trace"], str) else "passes",
               s["name"])
        self_by_name[key] = self_by_name.get(key, 0.0) + self_t[s["id"]]
    Path(args.spans).write_text(json.dumps(
        [dict(s, self=self_t[s["id"]]) for s in tr.spans]))
    return {"per_layer": m, "digest": untraced[0]["digest"],
            "pass_counts": [len(untraced), len(traced)],
            "self_by_name": [[k[0], k[1], v]
                             for k, v in sorted(self_by_name.items())],
            "spans_recorded": len(tr.spans)}


if __name__ == "__main__":
    main()
