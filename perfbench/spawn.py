"""Start one benchmark worker in a fresh interpreter and read its result.

Shared by run.py, which starts the measure or trace worker, and by
worker.py, which starts the set-up samples it interleaves with its passes.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


class WorkerFailed(Exception):
    pass


def run_worker(workload, mode, seed, seconds, work, timeout, spans=None,
               own_group=True):
    """Run worker.py in `work` (created here); returns its result dict.

    The worker's set-up time counts from just before the interpreter is
    started, so it covers interpreter start, `import svextremes` and the
    workload's own set-up. With `own_group` the worker leads a process
    group of its own, so that a timeout also stops what it has started; a
    worker started by another worker stays in that worker's group.
    """
    if timeout <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    work = Path(work)
    work.mkdir()
    result = work / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--mode", mode, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", str(work),
           "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    p = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                         env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=own_group)
    try:
        _, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        if own_group:
            os.killpg(p.pid, signal.SIGKILL)
        else:
            p.kill()
        p.communicate()
        raise WorkerFailed(f"{mode} worker timed out")
    if p.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {p.returncode}:\n"
                           f"{err.strip()[-2000:]}")
    return json.loads(result.read_text())
