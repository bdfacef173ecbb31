"""Path statistics: tail index, extremal index, extremogram, diagnostics.

Estimator conventions, used consistently below:
  * exceedances(values, u), the sorted indices of the values strictly
    above u, is the one exceedance representation: the three theta
    estimators and their bootstrap, the extremogram and the
    anticlustering check share it. Counts and gaps are integers, so each
    result is bit-equal to its form on the n-long indicator series;
  * the extremogram counts value >= u (a constant series reads as
    perfect persistence): the exceedances of the float just below u;
  * thresholds are explicit; callers convert quantile levels to u with
    np.quantile (type-7 interpolation);
  * runs_theta treats indices past either end of the series as
    non-exceedances; the extremogram counts only pairs (t, t+h) that lie
    fully inside the observed range;
  * blocks_theta is the log-corrected form of Smith & Weissman (1994);
    a partial last block counts as one of the b blocks, and when every
    block holds an exceedance the log form is undefined and the plain
    ratio K/N is returned instead;
  * standard errors are binomial for the extremogram and the
    anticlustering diagnostic, and a circular block bootstrap (block =
    declustering length) for the three theta estimators, since serial
    dependence invalidates i.i.d. formulas; its replicates run on the
    calling thread, whatever `threads` a caller passes;
  * values must be one-dimensional and free of NaN, and hill's k,
    block_len and run_len integers (numpy's too) in range; otherwise
    hill, the theta estimators, the extremogram and breiman_ratio raise
    a ValueError that names the field.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .models import DEFAULT_BURN_IN, ModelConfig, simulate
from .distributions import InnovationSpec, moment_pos
from .rng import RngSeed

__all__ = [
    "HillResult", "ThetaEstimate", "ExtremogramResult",
    "AnticlusterResult", "BreimanResult",
    "hill", "blocks_theta", "runs_theta", "intervals_theta",
    "extremogram", "anticluster_diag", "breiman_ratio", "exceedances",
]

_BOOTSTRAP_SEED = 0xB0075
_ANTICLUSTER_CALIBRATION = 10  # anticluster_diag's a_n run, in units of n


@dataclass(frozen=True)
class HillResult:
    k: int
    alpha_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.alpha_hat > 0 and self.ci_low < self.alpha_hat < self.ci_high):
            raise ValueError("inconsistent Hill result")

    def to_json(self) -> dict:
        return {"k": self.k, "alpha_hat": self.alpha_hat,
                "ci_low": self.ci_low, "ci_high": self.ci_high}


@dataclass(frozen=True)
class ThetaEstimate:
    theta_hat: float
    method: str
    tuning: dict
    stderr: float

    def __post_init__(self):
        if not 0.0 < self.theta_hat <= 1.0:
            raise ValueError("theta_hat must lie in (0, 1]")

    def to_json(self) -> dict:
        return {"method": self.method, "theta_hat": self.theta_hat,
                "stderr": self.stderr, "tuning": dict(self.tuning)}


def _values_1d(values) -> np.ndarray:
    """values as a 1-D float array; NaN and other shapes are rejected."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(
            f"values must be one-dimensional, got shape {v.shape}")
    if np.isnan(v).any():
        raise ValueError("values contain NaN")
    return v


def _check_int(name: str, value, low: int) -> int:
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def exceedances(values, u: float) -> np.ndarray:
    """Sorted indices of the values strictly above u."""
    return np.flatnonzero(_values_1d(values) > u)


# -- tail index -----------------------------------------------------------

def hill(values, k: int) -> HillResult:
    """Hill estimator from the top k order statistics over the (k+1)-th.

    alpha_hat = k / sum_i log(X_(n-i+1) / X_(n-k)); the 95% band is
    alpha_hat (1 +/- 1.96/sqrt(k)). Only strictly positive values enter;
    pass sigma or |X|.
    """
    k = _check_int("k", k, 2)
    v = _values_1d(values)
    v = v[v > 0]
    if v.size < k + 1:
        raise ValueError("need at least k+1 strictly positive values")
    part = np.partition(v, v.size - k - 1)
    tail = part[v.size - k:]
    pivot = part[v.size - k - 1]
    if np.all(tail == pivot):
        raise ValueError("degenerate tail sample")
    s = float(np.sum(np.log(tail / pivot)))
    alpha_hat = k / s
    half = 1.96 / math.sqrt(k)
    return HillResult(k, alpha_hat, alpha_hat * (1.0 - half),
                      alpha_hat * (1.0 + half))


# -- extremal index estimators --------------------------------------------

def _blocks_core(idx: np.ndarray, n: int, block_len: int) -> float:
    n_exc = idx.size
    if n_exc == 0:
        return np.nan
    nb = -(-n // block_len)
    # idx is sorted, so the block numbers idx // block_len are too
    k_blocks = int(np.count_nonzero(np.diff(idx // block_len))) + 1
    if k_blocks == nb:
        # every block hit: log(1 - K/b) is undefined, fall back to K/N
        return min(1.0, k_blocks / n_exc)
    th = math.log1p(-k_blocks / nb) / (block_len * math.log1p(-n_exc / n))
    return min(1.0, th)


def _runs_core(idx: np.ndarray, run_len: int) -> float:
    if idx.size == 0:
        return np.nan
    # an exceedance is clear when the next one is more than run_len away;
    # the last one is always clear, since positions past the end are not
    # exceedances
    clear = int(np.count_nonzero(np.diff(idx) > run_len)) + 1
    return min(1.0, float(clear) / idx.size)


def _intervals_core(idx: np.ndarray) -> float:
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


def _resample(idx2: np.ndarray, full: np.ndarray, starts: np.ndarray,
              block_len: int) -> np.ndarray:
    """Exceedance positions of one circular block bootstrap series.

    Block j of the resampled series copies the block_len positions from
    starts[j] on, taken mod n, into positions j*block_len onwards, and the
    series stops at n. On the series repeated twice a block never wraps:
    idx2 holds the sorted exceedance indices of that doubled series, and
    full[s] counts those in [s, s + block_len), for 0 <= s < n. The
    result is sorted.
    """
    cnt = full[starts]
    # only the blocks that hold an exceedance contribute
    k = np.flatnonzero(cnt)
    cnt = cnt[k].astype(np.intp)
    s = starts[k]
    first = np.cumsum(cnt) - cnt
    src = (np.arange(int(cnt.sum()))
           + np.repeat(np.searchsorted(idx2, s) - first, cnt))
    out = idx2[src] + np.repeat(k * block_len - s, cnt)
    return out[:np.searchsorted(out, full.size)]


def _bootstrap_stderr(idx: np.ndarray, n: int, stat, block_len: int,
                      n_boot: int) -> float:
    """Circular block bootstrap of stat(indices, n) on sorted exceedances.

    Replicate i draws its block starts from its own Philox stream. The
    replicates run on the calling thread: each is a few small numpy
    calls, for which helper threads would only contend for the GIL.
    """
    if n_boot < 2:
        return 0.0
    block_len = int(min(max(block_len, 1), n))
    nb = -(-n // block_len)
    idx2 = np.concatenate((idx, idx + n))
    # below[k] counts the exceedances of the doubled series before k;
    # each count in full is at most block_len, which its type holds
    below = np.zeros(n + block_len + 1, dtype=np.intp)
    below[idx2[idx2 < n + block_len] + 1] = 1
    np.cumsum(below, out=below)
    full = np.empty(n, np.min_scalar_type(block_len))
    np.subtract(below[block_len:block_len + n], below[:n], out=full,
                casting="unsafe")
    vals = np.empty(n_boot)
    for i in range(n_boot):
        g = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(_BOOTSTRAP_SEED, spawn_key=(i,))))
        starts = g.integers(0, n, size=nb)
        vals[i] = stat(_resample(idx2, full, starts, block_len), n)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        return 0.0
    return float(np.std(vals, ddof=1))


def _theta(method: str, tuning: dict, values, u: float, n_boot: int, stat,
           block_len: int | None, too_few: str) -> ThetaEstimate:
    """stat(indices, n) on the exceedances of u, NaN when they are too
    few, and its bootstrap stderr over blocks of block_len (None: of the
    mean gap between exceedances)."""
    if n_boot < 0:
        raise ValueError("n_boot must be >= 0")
    idx = exceedances(values, u)
    n = len(values)
    th = stat(idx, n)
    if np.isnan(th):
        raise ValueError(too_few)
    if block_len is None:
        block_len = int(max(1, round(float(np.mean(np.diff(idx))))))
    se = _bootstrap_stderr(idx, n, stat, block_len, n_boot)
    return ThetaEstimate(th, method, {**tuning, "u": float(u)}, se)


def blocks_theta(values, u: float, block_len: int, n_boot: int = 100,
                 threads: int = 1) -> ThetaEstimate:
    """Log-corrected blocks estimator (Smith & Weissman, 1994).

    With n values cut into b = ceil(n / block_len) blocks (a partial last
    block counts), K blocks holding an exceedance and N exceedances,
      theta_hat = min(1, log(1 - K/b) / (block_len log(1 - N/n))).
    The plain ratio K/N is biased low on i.i.d. data, towards
    (1 - e^-lambda)/lambda with lambda = N block_len / n exceedances per
    block; the log form removes that bias. When K = b the log form is
    undefined and K/N (capped at 1) is returned. threads is unused: the
    bootstrap runs on the calling thread.
    """
    block_len = _check_int("block_len", block_len, 1)
    return _theta("blocks", {"block_len": block_len}, values, u, n_boot,
                  lambda idx, n: _blocks_core(idx, n, block_len), block_len,
                  "empty exceedance set")


def runs_theta(values, u: float, run_len: int, n_boot: int = 100,
               threads: int = 1) -> ThetaEstimate:
    """Fraction of exceedances followed by run_len clear positions.

    threads is unused: the bootstrap runs on the calling thread.
    """
    run_len = _check_int("run_len", run_len, 1)
    return _theta("runs", {"run_len": run_len}, values, u, n_boot,
                  lambda idx, n: _runs_core(idx, run_len), run_len,
                  "empty exceedance set")


def intervals_theta(values, u: float, n_boot: int = 100,
                    threads: int = 1) -> ThetaEstimate:
    """Interexceedance-time estimator; tuning-free.

    With gaps T_i between consecutive exceedance times, returns
      min(1, 2 (sum T_i)^2 / ((N-1) sum T_i^2))            if max T <= 2,
      min(1, 2 (sum (T_i-1))^2 / ((N-1) sum (T_i-1)(T_i-2)))  otherwise.
    Depends on the data only through the exceedance times, so it is
    invariant under strictly increasing transformations of the values.
    The bootstrap resamples blocks of the mean gap. threads is unused:
    the bootstrap runs on the calling thread.
    """
    return _theta("intervals", {}, values, u, n_boot,
                  lambda idx, n: _intervals_core(idx), None,
                  "insufficient exceedances")


# -- extremogram ----------------------------------------------------------

@dataclass(frozen=True)
class ExtremogramResult:
    q: float
    u: float
    lags: np.ndarray
    chi_hat: np.ndarray
    stderr: np.ndarray

    def to_json(self) -> dict:
        return {"q": self.q, "u": self.u, "lags": self.lags.tolist(),
                "chi_hat": self.chi_hat.tolist(),
                "stderr": self.stderr.tolist()}


def extremogram(values, lags, q: float) -> ExtremogramResult:
    """chi_hat(h) = P(X_{t+h} >= u | X_t >= u) at the empirical q-quantile.

    Only pairs (t, t+h) fully inside the range are counted, and the
    conditioning count averages the left and right pair members, which
    makes the estimate exactly invariant under time reversal.
    """
    v = _values_1d(values)
    n = v.size
    lags = np.asarray(sorted(int(h) for h in lags), dtype=int)
    if lags.size == 0:
        raise ValueError("need at least one lag")
    if (lags < 0).any() or (lags >= n / 2).any():
        raise ValueError("each lag must satisfy 0 <= lag < n/2")
    u = float(np.quantile(v, q))
    # v >= u: the values above the float just below u, or all at -inf
    idx = (np.arange(n) if u == -np.inf
           else exceedances(v, np.nextafter(u, -np.inf)))
    if idx.size == 0:  # else every lag below n/2 has a conditioning pair
        raise ValueError("no exceedances")
    # the left pair members are the indices below n - h, the right ones
    # those from h on; a pair counts in both when idx + h is in idx too
    cond = (np.searchsorted(idx, n - lags) + idx.size
            - np.searchsorted(idx, lags))
    both = np.empty(lags.size)
    for j, h in enumerate(lags):
        ends = idx + h  # past the end for the indices from n - h on
        pos = np.searchsorted(idx, ends)
        both[j] = np.count_nonzero(idx.take(pos, mode="clip") == ends)
    chi = 2.0 * both / cond
    se = np.sqrt(np.maximum(chi * (1.0 - chi), 0.0) / (cond / 2.0))
    return ExtremogramResult(float(q), u, lags, chi, se)


# -- anticlustering diagnostic --------------------------------------------

@dataclass
class AnticlusterResult:
    """Conditional exceedance frequencies over two-sided windows.

    estimate[i] is the fraction of windows, centered at an exceedance of
    u = y * a_n, in which |X_t| > u for some m[i] <= |t| <= r_n. Windows
    are harvested from fresh simulations and kept at least 2 r_n + 1
    apart, so they count as independent replicates.
    """

    m_grid: tuple
    estimates: np.ndarray
    stderrs: np.ndarray
    n_windows: int
    a_n: float
    u: float
    r_n: int
    y: float
    n: int

    def to_json(self) -> dict:
        return {"m_grid": list(self.m_grid),
                "estimates": self.estimates.tolist(),
                "stderrs": self.stderrs.tolist(),
                "n_windows": self.n_windows, "a_n": self.a_n, "u": self.u,
                "r_n": self.r_n, "y": self.y, "n": self.n}


def _window_reach(exc: np.ndarray, t: int, r_n: int) -> int:
    """Largest |s - t| over the sorted exceedances s in [t - r_n, t + r_n]."""
    lo, hi = np.searchsorted(exc, (t - r_n, t + r_n + 1))
    return int(max(t - exc[lo], exc[hi - 1] - t))


def anticluster_diag(cfg: ModelConfig, m, r_n: int, y: float, n: int,
                     reps: int, seed: RngSeed,
                     burn_in: int = DEFAULT_BURN_IN) -> AnticlusterResult:
    """Estimate P(max_{m <= |t| <= r_n} |X_t| > y a_n given |X_0| > y a_n).

    a_n is the empirical (1 - 1/n) quantile of |X| from a calibration run
    of length _ANTICLUSTER_CALIBRATION * n. Because exceedances of a_n
    occur about once per n observations, windows are collected from successive
    independent path segments until `reps` are found (or a simulation
    budget of about 4 reps * n draws runs out).
    """
    m_grid = tuple(int(v) for v in np.atleast_1d(m))
    if len(m_grid) == 0:
        raise ValueError("need at least one m")
    if any(not 1 <= v < r_n for v in m_grid):
        raise ValueError("need 1 <= m < r_n")
    if reps < 1 or n < 2:
        raise ValueError("need reps >= 1 and n >= 2")

    cal = simulate(cfg, _ANTICLUSTER_CALIBRATION * n, burn_in, seed.child(0))
    a_n = float(np.quantile(np.abs(cal.x), 1.0 - 1.0 / n))
    u = y * a_n

    width = 2 * r_n + 1
    seg_len = max(width, min(n, 1_000_000))
    max_segments = max(8, 4 * math.ceil(reps * n / seg_len))

    # one integer per window: the largest |offset| of an exceedance from
    # its centre, which is >= m exactly when the window hits at m
    reach = []
    for s in range(max_segments):
        if len(reach) >= reps:
            break
        seg = simulate(cfg, seg_len, burn_in, seed.child(1, s))
        exc = exceedances(np.abs(seg.x), u)
        last = -width
        for t in exc[(exc >= r_n) & (exc < seg_len - r_n)]:
            if len(reach) >= reps:
                break
            if t - last >= width:
                reach.append(_window_reach(exc, t, r_n))
                last = t
    if not reach:
        raise ValueError("threshold too high")
    if len(reach) < reps:
        warnings.warn(f"found only {len(reach)} of {reps} windows "
                      "within the simulation budget")

    reach = np.asarray(reach)
    est = (reach >= np.asarray(m_grid)[:, None]).mean(axis=1)
    se = np.sqrt(np.maximum(est * (1.0 - est), 0.0) / reach.size)
    return AnticlusterResult(m_grid, est, se, reach.size, a_n, u,
                             int(r_n), float(y), int(n))


# -- Breiman ratio --------------------------------------------------------

@dataclass
class BreimanResult:
    levels: np.ndarray
    thresholds: np.ndarray
    ratios: np.ndarray
    target: float | None

    def to_json(self) -> dict:
        return {"levels": self.levels.tolist(),
                "thresholds": self.thresholds.tolist(),
                "ratios": self.ratios.tolist(), "target": self.target}


def breiman_ratio(sigma_values, x_values, q_grid, alpha: float,
                  z: InnovationSpec | None = None) -> BreimanResult:
    """Empirical P(X > x)/P(sigma > x) at sigma-quantile levels.

    The ratio should approach EZ_+^alpha at high thresholds; the target
    is computed from the noise spec when one is given. Grid points with
    an empty numerator or denominator are dropped with a warning.
    """
    sig = _values_1d(sigma_values)
    x = _values_1d(x_values)
    if sig.size != x.size:
        raise ValueError("sigma and x series must have equal length")
    target = moment_pos(z, float(alpha)) if z is not None else None
    levels, thresholds, ratios = [], [], []
    for q in q_grid:
        xq = float(np.quantile(sig, q))
        den = float(np.mean(sig > xq))
        num = float(np.mean(x > xq))
        if den == 0.0 or num == 0.0:
            warnings.warn(f"no exceedances at level {q}; grid point dropped")
            continue
        levels.append(float(q))
        thresholds.append(xq)
        ratios.append(num / den)
    return BreimanResult(np.asarray(levels), np.asarray(thresholds),
                         np.asarray(ratios), target)
