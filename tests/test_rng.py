import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
