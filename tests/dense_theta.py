"""Indicator-series estimators: the reference for the sparse ones.

These are the blocks, runs and intervals estimators, the extremogram and
the anticlustering window rule, written over n-long boolean exceedance
series as the package computed them before it moved to sorted exceedance
indices, and the cluster bootstrap of the theta estimators (Ferro &
Segers, 2003), whose replicates are built here as full n-long series.
The package's estimators must return the same numbers bit for bit.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from svextremes.estimators import _BOOTSTRAP_SEED


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


def clusters(e):
    """The intervals declustering of the indicator series e, N >= 2: the
    slices of e from each cluster's first exceedance to its last, and the
    lengths of the non-exceedance runs between clusters."""
    idx = np.flatnonzero(e)
    gaps = np.diff(idx).tolist()
    c = max(1, math.floor(intervals_core(e) * idx.size))
    # the c - 1 largest gaps separate the clusters; while the smallest of
    # them ties with the largest gap left inside, keep both inside
    desc = sorted(gaps, reverse=True)
    while 1 < c <= len(desc) and desc[c - 2] == desc[c - 1]:
        c -= 1
    cut = desc[c - 1] if c <= len(desc) else 0
    parts, runs = [], []
    lo = idx[0]
    for a, b in zip(idx[:-1], idx[1:]):
        if b - a > cut:
            parts.append(e[lo:a + 1])
            runs.append(b - a - 1)
            lo = b
    parts.append(e[lo:idx[-1] + 1])
    assert len(parts) == c
    return parts, runs


def bootstrap_stderr(e, stat, n_boot):
    """The cluster bootstrap, each replicate built as an n-long series:
    the sample's leading non-exceedances, then the drawn clusters with a
    drawn run between each two, cut or padded with non-exceedances to n.
    Replicate i draws its clusters, then its runs, by the i-th call of
    one stream."""
    n = e.size
    if n_boot < 2 or np.count_nonzero(e) < 2:
        return 0.0
    parts, runs = clusters(e)
    c = len(parts)
    lead = int(np.argmax(e))
    g = np.random.Generator(np.random.Philox(_BOOTSTRAP_SEED))
    vals = []
    for _ in range(n_boot):
        draw = g.integers(0, [c] * c + [c - 1] * (c - 1))
        pick, gap = draw[:c], draw[c:]
        r = [np.zeros(lead, dtype=bool)]
        for k in range(c):
            r.append(parts[pick[k]])
            if k < c - 1:
                r.append(np.zeros(runs[gap[k]], dtype=bool))
        r.append(np.zeros(n, dtype=bool))
        vals.append(stat(np.concatenate(r)[:n]))
    vals = np.asarray(vals, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        return 0.0
    return float(np.std(vals, ddof=1))


def blocks_theta(values, u, block_len, n_boot=100):
    e = np.asarray(values) > u
    th = blocks_core(e, block_len)
    se = bootstrap_stderr(e, lambda r: blocks_core(r, block_len), n_boot)
    return th, se


def runs_theta(values, u, run_len, n_boot=100):
    e = np.asarray(values) > u
    th = runs_core(e, run_len)
    se = bootstrap_stderr(e, lambda r: runs_core(r, run_len), n_boot)
    return th, se


def intervals_theta(values, u, n_boot=100):
    e = np.asarray(values) > u
    th = intervals_core(e)
    se = bootstrap_stderr(e, intervals_core, n_boot)
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
