"""The theta estimators on exceedance indices against the indicator series.

tests/dense_theta.py holds the estimators and their circular block
bootstrap written over the n-long boolean series. The package works on
the sorted exceedance indices; every gap and count is an integer, so the
two must agree bit for bit in theta_hat and in stderr.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_theta as dense
from svextremes import (Garch11Pair, RngSeed, SreSvConfig, blocks_theta,
                        intervals_theta, runs_theta, simulate, std_normal)
from svextremes.estimators import _resample


def series(n, positions):
    v = np.zeros(n)
    v[list(positions)] = 1.0
    return v


def assert_same(n, positions, tuning, n_boot, threads):
    """All three estimators equal the dense oracle on one exceedance set."""
    v = series(n, positions)
    pairs = [(dense.blocks_theta(v, 0.5, tuning, n_boot),
              blocks_theta(v, 0.5, tuning, n_boot, threads)),
             (dense.runs_theta(v, 0.5, tuning, n_boot),
              runs_theta(v, 0.5, tuning, n_boot, threads))]
    if len(positions) >= 2:
        pairs.append((dense.intervals_theta(v, 0.5, n_boot),
                      intervals_theta(v, 0.5, n_boot, threads)))
    for (th, se), r in pairs:
        assert (r.theta_hat, r.stderr) == (th, se), r.method


def sparse_resample(e, starts, block_len):
    """_resample on the doubled index and count arrays it expects."""
    e2 = np.concatenate((e, e))
    full = np.array([np.count_nonzero(e2[s:s + block_len])
                     for s in range(e.size)])
    return _resample(np.flatnonzero(e2), full, starts, block_len)


@pytest.mark.parametrize("starts", [
    [8, 0, 9],   # block 0 wraps; the partial last block wraps
    [6, 7, 0],   # block 0 ends exactly at n; block 1 wraps
    [0, 4, 8],   # the identity resample
    [9, 9, 9],   # every block wraps
])
def test_resample_matches_indicator_series(starts):
    # n = 10 in blocks of 4: lengths 4, 4 and a partial last block of 2
    e = np.zeros(10, dtype=bool)
    e[[0, 1, 5, 9]] = True
    starts = np.asarray(starts)
    expected = np.flatnonzero(dense.resample(e, starts, 4))
    got = sparse_resample(e, starts, 4)
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("positions", [
    (0, 1, 2, 40, 41, 73, 74, 75, 76, 98, 99),  # hits at 0 and at n-1
    (0, 99),
    (3, 17, 18, 19, 50, 51, 52, 53, 54, 87),
])
@pytest.mark.parametrize("tuning", [1, 7, 99, 100, 105])
def test_theta_and_stderr_bit_equal_to_indicator_series(tuning, positions,
                                                        threads):
    # n = 100; tuning n-1 leaves a last block of one position, n one block
    # that always wraps, and n+5 a block longer than the series
    assert_same(100, positions, tuning, n_boot=40, threads=threads)


@given(data=st.data(), n=st.integers(2, 150))
@settings(max_examples=80, deadline=None)
def test_random_exceedance_sets_bit_equal(data, n):
    positions = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=n))
    tuning = data.draw(st.integers(1, n + 5))
    threads = data.draw(st.integers(1, 3))
    assert_same(n, sorted(positions), tuning, n_boot=25, threads=threads)


def test_garch_path_bit_equal_at_default_replicates():
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    model = SreSvConfig(p=2.0, pair_source=pair, z=std_normal())
    v = np.abs(simulate(model, 20_000, burn_in=2000, seed=RngSeed(8)).x)
    u = float(np.quantile(v, 0.995))
    for (th, se), r in (
            (dense.blocks_theta(v, u, 100), blocks_theta(v, u, 100,
                                                         threads=2)),
            (dense.runs_theta(v, u, 10), runs_theta(v, u, 10, threads=2)),
            (dense.intervals_theta(v, u), intervals_theta(v, u,
                                                          threads=2))):
        assert (r.theta_hat, r.stderr) == (th, se), r.method
        assert se > 0
