"""Indicator-series estimators: the reference for the sparse ones.

These are the blocks, runs and intervals estimators and their circular
block bootstrap, the extremogram and the anticlustering window rule,
written over n-long boolean exceedance series as the package computed
them before it moved to sorted exceedance indices. Each bootstrap
replicate builds the resampled series in full. The package's estimators
must return the same numbers bit for bit.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from svextremes.estimators import _BOOTSTRAP_SEED
from svextremes.rng import chunked_map


def blocks_core(e, block_len):
    n = e.size
    n_exc = int(e.sum())
    if n_exc == 0:
        return np.nan
    nb = -(-n // block_len)
    padded = np.zeros(nb * block_len, dtype=bool)
    padded[:n] = e
    k_blocks = int(padded.reshape(nb, block_len).any(axis=1).sum())
    if k_blocks == nb:
        return min(1.0, k_blocks / n_exc)
    th = math.log1p(-k_blocks / nb) / (block_len * math.log1p(-n_exc / n))
    return min(1.0, th)


def runs_core(e, run_len):
    idx = np.flatnonzero(e)
    if idx.size == 0:
        return np.nan
    ep = np.concatenate([e, np.zeros(run_len, dtype=bool)])
    win = sliding_window_view(ep[1:], run_len)
    clear = ~win[idx].any(axis=1)
    return min(1.0, float(clear.sum()) / idx.size)


def intervals_core(e):
    idx = np.flatnonzero(e)
    n_exc = idx.size
    if n_exc < 2:
        return np.nan
    t = np.diff(idx).astype(float)
    if t.max() <= 2.0:
        num = 2.0 * t.sum() ** 2
        den = (n_exc - 1) * float((t * t).sum())
    else:
        tm1 = t - 1.0
        num = 2.0 * tm1.sum() ** 2
        den = (n_exc - 1) * float((tm1 * (t - 2.0)).sum())
    return min(1.0, num / den)


def resample(e, starts, block_len):
    """The resampled indicator series of one bootstrap replicate."""
    n = e.size
    offsets = np.arange(block_len)
    idx = (starts[:, None] + offsets[None, :]).ravel()[:n] % n
    return e[idx]


def bootstrap_stderr(e, stat, block_len, n_boot, threads=1):
    if n_boot < 2:
        return 0.0
    n = e.size
    block_len = int(min(max(block_len, 1), n))
    nb = -(-n // block_len)

    def one(i):
        g = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(_BOOTSTRAP_SEED, spawn_key=(i,))))
        starts = g.integers(0, n, size=nb)
        return stat(resample(e, starts, block_len))

    vals = np.asarray(chunked_map(one, n_boot, threads), dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        return 0.0
    return float(np.std(vals, ddof=1))


def blocks_theta(values, u, block_len, n_boot=100, threads=1):
    e = np.asarray(values) > u
    th = blocks_core(e, block_len)
    se = bootstrap_stderr(e, lambda r: blocks_core(r, block_len),
                          block_len, n_boot, threads)
    return th, se


def runs_theta(values, u, run_len, n_boot=100, threads=1):
    e = np.asarray(values) > u
    th = runs_core(e, run_len)
    se = bootstrap_stderr(e, lambda r: runs_core(r, run_len),
                          run_len, n_boot, threads)
    return th, se


def intervals_theta(values, u, n_boot=100, threads=1):
    e = np.asarray(values) > u
    th = intervals_core(e)
    mean_gap = int(max(1, round(float(np.mean(np.diff(np.flatnonzero(e)))))))
    se = bootstrap_stderr(e, intervals_core, mean_gap, n_boot, threads)
    return th, se


def extremogram(values, lags, q):
    """(u, chi_hat, stderr), with each lag's counts read from v >= u."""
    v = np.asarray(values, dtype=float)
    n = v.size
    lags = sorted(int(h) for h in lags)
    u = float(np.quantile(v, q))
    e = v >= u
    chi = np.empty(len(lags))
    se = np.empty(len(lags))
    for j, h in enumerate(lags):
        left = e[:n - h]
        right = e[h:]
        both = int((left & right).sum())
        cond = int(left.sum()) + int(right.sum())
        if cond == 0:
            raise ValueError("no exceedances")
        chi[j] = 2.0 * both / cond
        se[j] = math.sqrt(max(chi[j] * (1.0 - chi[j]), 0.0) / (cond / 2.0))
    return u, chi, se


def window_hits(w, r_n, m):
    """Whether the window w = (|X_t| > u for |t| <= r_n), centred at
    index r_n, holds an exceedance at some m <= |t| <= r_n."""
    return bool(w[r_n + m:].any() | w[:r_n - m + 1].any())
