"""Reproducible random number streams.

All randomness in the toolkit flows through an RngSeed: a (master_seed,
stream_id) pair that is expanded into independent substreams through
numpy's SeedSequence spawning. The underlying bit generator is Philox,
a counter-based generator, so a stream is fully determined by its key
and never depends on how much another stream has consumed. Parallel
code partitions work into fixed-size chunks, gives every chunk its own
substream, and reduces results in chunk order; the thread count can
then never change a result, only the wall-clock time.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .distributions import JsonFields, check_int

__all__ = ["RngSeed"]


def _uint64(name: str, value) -> int:
    v = check_int(name, value)
    if not 0 <= v < 2**64:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
    return v


@dataclass(frozen=True)
class RngSeed(JsonFields):
    """Seed for one logical random stream.

    master_seed identifies the whole experiment, stream_id one stream
    inside it; each is stored as an int. Substreams for internal purposes
    (noise sequences, Monte Carlo chunks, calibration runs) are derived
    with generator(), which appends a path of integers to the spawn key.
    """

    master_seed: int = field(metadata={"rule": _uint64})
    stream_id: int = field(default=0, metadata={"rule": _uint64})

    def __post_init__(self):
        self.check_fields()

    def _sequence(self, path) -> np.random.SeedSequence:
        """The SeedSequence that generator() and child() expand."""
        key = (self.stream_id, *map(int, path))
        return np.random.SeedSequence(self.master_seed, spawn_key=key)

    def generator(self, *path: int) -> np.random.Generator:
        """Generator for the substream addressed by `path`."""
        return np.random.Generator(np.random.Philox(self._sequence(path)))

    def child(self, *path: int) -> "RngSeed":
        """Derived seed for a nested component that itself needs an RngSeed.

        The child key is produced by the same SeedSequence expansion as
        generator(), so children at distinct paths are independent and the
        derivation is deterministic.
        """
        st = self._sequence(path).generate_state(2, np.uint64)
        return RngSeed(int(st[0]), int(st[1]))


def check_seed(seed) -> None:
    """A ValueError that names seed unless it is an RngSeed; each public
    routine that takes a seed calls it on entry."""
    if not isinstance(seed, RngSeed):
        raise ValueError(f"seed must be an RngSeed, got {seed!r}")


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split `total` into fixed chunks. The split depends only on the
    arguments, never on the number of workers."""
    if total < 0 or chunk < 1:
        raise ValueError("need total >= 0 and chunk >= 1")
    full, rem = divmod(total, chunk)
    out = [chunk] * full
    if rem:
        out.append(rem)
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Helper threads shared by every chunked_map call: they start on first
# use and idle between calls. A thread started per call can start before
# the previous one has handed back its malloc arena; it then opens another
# one, and the freed blocks kept there raise the peak RSS. The pool, and
# concurrent.futures with it, is made by the first call that needs a
# helper, so a process that never does loads neither.
_HELPERS = None
_HELPERS_LOCK = threading.Lock()


def _helper_pool():
    """The shared helper pool, made once even when threads race here."""
    global _HELPERS
    with _HELPERS_LOCK:
        if _HELPERS is None:
            from concurrent.futures import ThreadPoolExecutor
            _HELPERS = ThreadPoolExecutor(
                thread_name_prefix="svextremes-chunk")
        return _HELPERS


def chunked_map(fn, n_chunks: int, threads: int = 1) -> list:
    """Evaluate fn(0..n_chunks-1) and return results in index order.

    The calling thread is one of the workers: with w = min(threads,
    n_chunks, usable CPUs) > 1 it takes chunks together with up to w - 1
    helper threads, each pulling the next index from one shared counter.
    A helper still busy with another call's chunks is not waited for:
    the workers present do every chunk. The caller must make fn(i)
    depend only on i (e.g. by deriving a substream from i), so the result
    list is identical for every thread count. When a call raises, no
    worker starts another chunk, and the exception is raised once every
    worker has stopped (the caller's own first).
    """
    workers = min(threads, n_chunks, _usable_cpus())
    if workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    out = [None] * n_chunks
    lock = threading.Lock()
    todo = iter(range(n_chunks))

    def work():
        nonlocal todo
        try:
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                out[i] = fn(i)
        except BaseException:
            with lock:
                todo = iter(())
            raise

    from concurrent.futures import wait

    pool = _helper_pool()
    helpers = [pool.submit(work) for _ in range(workers - 1)]
    try:
        work()
    finally:
        # a helper that has not started has nothing left to do; one that
        # has is waited for, so no chunk runs after the return
        started = [f for f in helpers if not f.cancel()]
        wait(started)
    for f in started:
        f.result()
    return out
