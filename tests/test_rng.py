import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svextremes import rng
from svextremes.rng import RngSeed, chunk_sizes, chunked_map

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_same_seed_same_draws():
    a = RngSeed(123).generator().random(16)
    b = RngSeed(123).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngSeed(123, 0).generator().random(16)
    b = RngSeed(123, 1).generator().random(16)
    assert not np.array_equal(a, b)


def test_spawn_paths_differ():
    s = RngSeed(9)
    root = s.generator().random(8)
    a = s.generator(0).random(8)
    b = s.generator(1).random(8)
    assert not np.array_equal(root, a)
    assert not np.array_equal(a, b)


def test_child_is_deterministic_and_distinct():
    s = RngSeed(17, 2)
    assert s.child(4) == s.child(4)
    assert s.child(4) != s.child(5)
    assert s.child(1, 2) != s.child(2, 1)
    # child streams must not replay the parent's draws
    a = s.child(0).generator().random(8)
    b = s.generator(0).random(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "x"])
def test_seed_validation(bad):
    with pytest.raises((ValueError, TypeError)):
        RngSeed(bad)


@given(master=U64, stream=U64)
@settings(max_examples=50, deadline=None)
def test_json_roundtrip(master, stream):
    s = RngSeed(master, stream)
    assert RngSeed.from_json(s.to_json()) == s


def test_from_json_rejects_an_unknown_key():
    # the parent ran {"master_seed": 1, "steam_id": 3} as stream 0
    with pytest.raises(ValueError,
                       match="^rng seed has no field 'steam_id'$"):
        RngSeed.from_json({"master_seed": 1, "steam_id": 3})


@pytest.mark.parametrize("name, value", [
    ("master_seed", True), ("master_seed", 1.5), ("stream_id", "1"),
    ("stream_id", None)])
def test_seed_field_not_an_integer_is_a_value_error(name, value):
    # the parent raised a TypeError
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer, got "
                             f"{re.escape(repr(value))}$"):
        RngSeed(**{"master_seed": 1, name: value})


def test_seed_fields_are_plain_ints():
    s = RngSeed(np.uint64(2**64 - 1), np.int32(3))
    assert type(s.master_seed) is int and type(s.stream_id) is int
    assert s == RngSeed(2**64 - 1, 3)
    assert s.to_json() == {"master_seed": 2**64 - 1, "stream_id": 3}


def test_chunk_sizes():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(3, 4) == [3]
    with pytest.raises(ValueError):
        chunk_sizes(5, 0)


@pytest.mark.parametrize("threads", [1, 2, 5])
def test_chunked_map_preserves_order(threads):
    out = chunked_map(lambda i: i * i, 9, threads)
    assert out == [i * i for i in range(9)]


def test_chunked_map_thread_invariance_with_rng():
    seed = RngSeed(77)

    def one(i):
        return float(seed.generator(i).random())

    assert chunked_map(one, 12, 1) == chunked_map(one, 12, 4)


def test_chunked_map_threads_capped_at_usable_cpus():
    # one OS thread per requested worker would be a million threads
    out = chunked_map(lambda i: threading.get_ident(), 64, threads=10**6)
    assert len(out) == 64
    assert 1 <= len(set(out)) <= rng._usable_cpus()


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_chunked_map_passes_on_an_exception(monkeypatch, where):
    # two workers even on a one-CPU machine: the caller and one helper
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    caller = threading.get_ident()
    entered = {True: threading.Event(), False: threading.Event()}
    started = []

    def fn(i):
        started.append(i)
        on_caller = threading.get_ident() == caller
        entered[on_caller].set()
        if on_caller == (where == "caller"):
            raise ValueError(f"chunk {i} failed")
        # leave chunks for the other worker to fail on
        assert entered[not on_caller].wait(10)
        return i

    with pytest.raises(ValueError, match="chunk .* failed"):
        chunked_map(fn, 200, threads=2)
    assert len(started) < 200  # no worker started a chunk after the raise


def test_chunked_map_takes_every_chunk_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval: a lost update
    # of the shared chunk counter would run a chunk twice or skip one
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 8)
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = chunked_map(lambda i: taken.append(i) or i, 3000, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(3000))
    assert sorted(taken) == list(range(3000))


def test_chunked_map_nested_calls_finish_on_a_busy_pool(monkeypatch):
    # one helper thread, busy with the outer call: an inner call's helper
    # task never starts, so the inner caller does every chunk itself
    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rng, "_HELPERS", pool)
    result = []

    def outer():
        result.append(chunked_map(
            lambda i: chunked_map(lambda j: 10 * i + j, 3, threads=2),
            4, threads=2))

    runner = threading.Thread(target=outer, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert result == [[[10 * i + j for j in range(3)] for i in range(4)]]
    pool.shutdown()
