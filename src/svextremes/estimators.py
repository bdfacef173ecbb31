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
    _quantile, which returns np.quantile's type-7 value bit for bit from
    one single-index partition, and calls np.quantile itself where
    numpy's answer rests on its index clipping or partition order (the
    level at the maximum, an infinite or a zero neighbour);
  * runs_theta treats indices past either end of the series as
    non-exceedances; the extremogram counts only pairs (t, t+h) that lie
    fully inside the observed range;
  * blocks_theta is the log-corrected form of Smith & Weissman (1994);
    a partial last block counts as one of the b blocks, and when every
    block holds an exceedance the log form is undefined and the plain
    ratio K/N is returned instead;
  * standard errors are binomial for the extremogram and the
    anticlustering diagnostic. The three theta estimators share one
    cluster bootstrap (Ferro & Segers, 2003), since serial dependence
    invalidates i.i.d. formulas. It declusters the N exceedances with
    the intervals estimate theta_hat: the C - 1 largest gaps, with C =
    max(1, floor(theta_hat N)), separate C clusters, and gaps that tie
    with the largest gap left inside a cluster stay inside too, so C can
    shrink. A replicate draws C clusters and C - 1 of those gaps with
    replacement, lays them out alternately from the sample's first
    exceedance on and keeps the positions below n. Its cost follows C,
    not n. An ExceedanceSet keeps its replicate set, so the estimators on
    one set share it and each scores a batch of replicates at once from
    their integer gap totals. A run keeps one set per series and level
    until it ends (experiments.AnalysisInputs); a public estimator builds
    a one-off set. The replicates run on the calling thread; the
    estimators keep a `threads` argument, unused, because callers pass it;
  * values must be one-dimensional and free of NaN; hill, the theta
    estimators, the extremogram and breiman_ratio reject +inf too, which
    no threshold statistic can count (_quantile takes +-inf). hill's k,
    block_len, run_len, n_boot, the extremogram's lags and
    anticluster_diag's m, r_n, reps and n must be integers (numpy's too,
    a bool not) in range, the theta estimators' u a real number other
    than NaN (+-inf included), breiman_ratio's z an InnovationSpec or
    None, and levels, y, alpha and q_grid (not empty) as the config
    fields' rules read them; otherwise hill, the theta estimators, the
    extremogram, anticluster_diag and breiman_ratio raise a ValueError
    that names the argument.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import DEFAULT_BURN_IN, ModelConfig, simulate
from .distributions import (InnovationSpec, JsonFields, check_int,
                            level, list_of, moment_pos, number, positive)
from .rng import RngSeed, check_seed

__all__ = [
    "HillResult", "ThetaEstimate", "ExtremogramResult",
    "AnticlusterResult", "BreimanResult",
    "hill", "blocks_theta", "runs_theta", "intervals_theta",
    "extremogram", "anticluster_diag", "breiman_ratio",
]

_BOOTSTRAP_SEED = 0xB0075
_BATCH_POSITIONS = 1 << 15  # bootstrap positions built per batch
_ANTICLUSTER_CALIBRATION = 10  # anticluster_diag's a_n run, in units of n
_PROBABILITY = number("in [0, 1]", lambda v: 0.0 <= v <= 1.0)


@dataclass(frozen=True)
class HillResult(JsonFields):
    k: int
    alpha_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.alpha_hat > 0 and self.ci_low < self.alpha_hat < self.ci_high):
            raise ValueError("inconsistent Hill result")


@dataclass(frozen=True)
class ThetaEstimate(JsonFields):
    theta_hat: float
    method: str
    tuning: dict
    stderr: float

    def __post_init__(self):
        if not 0.0 < self.theta_hat <= 1.0:
            raise ValueError("theta_hat must lie in (0, 1]")


def _values_1d(values) -> np.ndarray:
    """values as a 1-D float array; NaN and other shapes are rejected."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(
            f"values must be one-dimensional, got shape {v.shape}")
    if np.isnan(v).any():
        raise ValueError("values contain NaN")
    return v


def _counted_values(values) -> np.ndarray:
    """_values_1d(values), +inf rejected too: a threshold statistic
    cannot count a value above every threshold."""
    v = _values_1d(values)
    if (v == np.inf).any():
        raise ValueError("values contain +inf")
    return v


def _quantile(values, q: float) -> float:
    """np.quantile(values, q), type 7, bit for bit, from one partition.

    With h = (n - 1) q and i = floor(h), the i-th and (i+1)-th order
    statistics a and b are interpolated by numpy's own arithmetic
    (_lerp). np.quantile partitions at four indices; one suffices here.
    Where numpy's value rests on its index clipping (i >= n - 1, whose
    maximum +inf reads NaN) or on its partition order (an infinite a or
    b, or the sign of a zero one), np.quantile itself answers.
    """
    v = _values_1d(values)
    if v.size == 0:
        raise ValueError("values must not be empty")
    _PROBABILITY("q", q)
    h = (v.size - 1) * float(q)
    i = math.floor(h)
    if i < v.size - 1:
        part = np.partition(v, i)
        a, b = float(part[i]), float(part[i + 1:].min())
        if (math.isfinite(a) and math.isfinite(b)
                and a != 0.0 and b != 0.0):
            g = h - i
            return a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)
    return float(np.quantile(v, q))


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
    k = check_int("k", k, 2)
    v = _counted_values(values)
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

class _Replicates(NamedTuple):
    """Exceedance sets laid end to end, none empty: set j is
    pos[first[j]:first[j] + count[j]], sorted."""

    pos: np.ndarray
    first: np.ndarray
    count: np.ndarray


def _one_set(idx: np.ndarray) -> _Replicates:
    return _Replicates(idx, np.zeros(1, np.intp), np.array([idx.size]))


def _steps(a: np.ndarray, r: _Replicates) -> np.ndarray:
    """The step from each entry of a, laid out like r.pos, to the next
    entry of its set, and 0 at each set's last entry: summed over a set's
    entries, a function that is 0 at 0 sums over the set's own steps."""
    d = np.zeros(a.size, np.int64)
    np.subtract(a[1:], a[:-1], out=d[:-1])
    d[r.first[1:] - 1] = 0
    return d


def _totals(x: np.ndarray, r: _Replicates) -> np.ndarray:
    """Per set, the exact integer sum of x over its positions."""
    return np.add.reduceat(x, r.first, dtype=np.int64)


def _blocks_scores(r: _Replicates, n: int, block_len: int) -> np.ndarray:
    nb = -(-n // block_len)
    # the block numbers rise within a set, so each change is a new block
    k = _totals(_steps(r.pos // block_len, r) > 0, r) + 1
    # every block hit: log(1 - K/b) is undefined, fall back to K/N
    out = np.minimum(1.0, k / r.count)
    part = np.flatnonzero(k != nb)
    # math.log1p, not np.log1p, whose last bit can differ
    lk = list(map(math.log1p, (-k[part] / nb).tolist()))
    lm = list(map(math.log1p, (-r.count[part] / n).tolist()))
    out[part] = np.minimum(1.0, np.divide(lk, np.multiply(block_len, lm)))
    return out


def _runs_scores(r: _Replicates, n: int, run_len: int) -> np.ndarray:
    # an exceedance is clear when the next one is more than run_len away;
    # the last one is always clear, since positions past the end are not
    # exceedances
    clear = _totals(_steps(r.pos, r) > run_len, r) + 1
    return np.minimum(1.0, clear / r.count)


def _intervals_scores(r: _Replicates) -> np.ndarray:
    """The intervals estimate of each set, NaN for one position, from its
    integer gap totals: the sum S, the sum of squares Q and the largest
    gap. Where max T > 2 the formula reads T - 1 for T, whose totals are
    S - (N - 1) and sum (T-1)(T-2) = Q - 3S + 2(N - 1). The float sums
    of the gaps themselves are these integers exactly."""
    d = _steps(r.pos, r)
    m1 = r.count - 1
    s, q = _totals(d, r), _totals(d * d, r)
    small = np.maximum.reduceat(d, r.first) <= 2
    s, q = (np.where(small, s, s - m1),
            np.where(small, q, q - 3 * s + 2 * m1))
    ok = m1 > 0
    out = np.full(r.count.size, np.nan)
    num = np.array([2.0 * t ** 2 for t in s[ok].astype(float).tolist()])
    out[ok] = np.minimum(1.0, num / (m1[ok] * q[ok].astype(float)))
    return out


def _declustered(idx: np.ndarray) -> tuple:
    """The clusters of N >= 2 sorted exceedances idx.

    The intervals estimate theta_hat sets C = max(1, floor(theta_hat N))
    clusters, separated by the C - 1 largest gaps. Gaps that tie with the
    largest gap left inside a cluster stay inside too, so C can shrink.
    Returns each cluster's first position in idx, its size and the C - 1
    gaps between consecutive clusters.
    """
    n_exc = idx.size
    c = max(1, math.floor(_intervals_scores(_one_set(idx))[0] * n_exc))
    gaps = np.diff(idx)
    # c == n_exc: every gap separates two clusters
    cut = (np.arange(gaps.size) if c == n_exc else np.flatnonzero(
        gaps > np.partition(gaps, n_exc - 1 - c)[n_exc - 1 - c]))
    first = np.concatenate(([0], cut + 1))
    return first, np.diff(first, append=n_exc), gaps[cut]


def _replicate_set(idx: np.ndarray, n: int, n_boot: int) -> tuple:
    """The n_boot replicates of the cluster bootstrap of idx, N >= 2, as
    batches of _Replicates with read-only arrays.

    Replicate i draws C clusters and C - 1 intercluster gaps with
    replacement (_declustered) from one Philox stream, by its i-th call
    g.integers(0, high) with high = (C,) * C + (C - 1,) * (C - 1), lays
    them out alternately from the sample's first exceedance on and keeps
    the positions below n. A batch of replicates, about _BATCH_POSITIONS
    positions, draws by one call over rows of high, which gives the same
    values, and is built by one set of numpy calls.
    """
    first, size, between = _declustered(idx)
    c = first.size
    # each exceedance's offset from the first one of its cluster
    off = idx - np.repeat(idx[first], size)
    span = off[first + size - 1]
    high = np.repeat([c, c - 1], [c, c - 1])
    g = np.random.Generator(np.random.Philox(_BOOTSTRAP_SEED))
    per_batch = max(1, _BATCH_POSITIONS // idx.size)
    batches = []
    for lo in range(0, n_boot, per_batch):
        draws = g.integers(0, np.broadcast_to(
            high, (min(per_batch, n_boot - lo), high.size)))
        pick, gap = draws[:, :c], draws[:, c:]
        # the first drawn cluster starts at the sample's first exceedance,
        # each later one after the span of the one before and a drawn gap
        start = np.zeros(pick.shape, np.intp)
        np.cumsum(span[pick[:, :-1]] + between[gap], axis=1,
                  out=start[:, 1:])
        start += idx[0]
        # the batch's drawn clusters laid end to end, replicate after
        # replicate: the k-th entry is exceedance k - (end - cnt) of its
        # drawn cluster, moved to that cluster's start
        cnt = size[pick].ravel()
        end = np.cumsum(cnt)
        pos = (off[np.arange(end[-1])
                   + np.repeat(first[pick].ravel() - (end - cnt), cnt)]
               + np.repeat(start.ravel(), cnt))
        # positions rise within a replicate, so the ones below n are a
        # prefix of it; no replicate is empty before the cut
        keep = pos < n
        count = np.add.reduceat(keep, np.concatenate(([0], end[c - 1:-1:c])),
                                dtype=np.intp)
        r = _Replicates(pos[keep], np.cumsum(count) - count, count)
        for a in r:
            a.flags.writeable = False
        batches.append(r)
    return tuple(batches)


@dataclass(frozen=True)
class ExceedanceSet:
    """The exceedances of n values above u: idx, their sorted indices,
    read-only, and kept, the replicate set of each n_boot (_replicate_set)
    as first built, which the estimators on the set share."""

    n: int
    u: float
    idx: np.ndarray
    kept: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, values, u) -> ExceedanceSet:
        """The values strictly above u, a real number other than NaN."""
        u = _threshold(u)
        v = _counted_values(values)
        idx = np.flatnonzero(v > u)
        idx.flags.writeable = False
        return cls(v.size, u, idx)

    def stderr(self, n_boot: int, score, *args) -> float:
        """Cluster bootstrap (Ferro & Segers, 2003) of a theta estimator.

        score(r, n, *args) gives the estimate on each set of _Replicates r,
        once per batch, by a few numpy calls over its integer gap totals;
        on the calling thread, as helpers would contend for the GIL.
        """
        if n_boot < 2 or self.idx.size < 2:  # N = 1: every replicate is it
            return 0.0
        if n_boot not in self.kept:
            self.kept[n_boot] = _replicate_set(self.idx, self.n, n_boot)
        vals = np.concatenate([score(r, self.n, *args)
                               for r in self.kept[n_boot]])
        vals = vals[np.isfinite(vals)]
        return float(np.std(vals, ddof=1)) if vals.size >= 2 else 0.0


def _threshold(u) -> float:
    """u as a float: a real number (not a bool) that a float holds, +-inf
    included (none or every value exceeds it), NaN not."""
    try:
        if isinstance(u, numbers.Real) and not isinstance(u, bool) and u == u:
            return float(u)
    except OverflowError:  # an int beyond the largest float
        pass
    raise ValueError(f"u must be a real number other than NaN, got {u!r}")


# method -> (its tuning field or None, score(r, n[, tuning]) on each set
# of the _Replicates r, the error when theta_hat is NaN)
_METHODS = {
    "blocks": ("block_len", _blocks_scores, "empty exceedance set"),
    "runs": ("run_len", _runs_scores, "empty exceedance set"),
    "intervals": (None, lambda r, n: _intervals_scores(r),
                  "insufficient exceedances"),
}


def _theta(s: ExceedanceSet, method: str, tuning: dict,
           n_boot: int = 100) -> ThetaEstimate:
    """The method's estimate on s, tuned by its field of tuning, and its
    cluster bootstrap stderr."""
    name, score, too_few = _METHODS[method]
    tune = {} if name is None else {name: check_int(name, tuning[name], 1)}
    n_boot = check_int("n_boot", n_boot, 0)
    args = tuple(tune.values())
    th = float(score(_one_set(s.idx), s.n, *args)[0]) if s.idx.size else np.nan
    if np.isnan(th):
        raise ValueError(too_few)
    return ThetaEstimate(th, method, {**tune, "u": s.u},
                         s.stderr(n_boot, score, *args))


def blocks_theta(values, u: float, block_len: int, n_boot: int = 100,
                 threads: int = 1) -> ThetaEstimate:
    """Log-corrected blocks estimator (Smith & Weissman, 1994).

    With n values cut into b = ceil(n / block_len) blocks (a partial last
    block counts), K blocks holding an exceedance and N exceedances,
      theta_hat = min(1, log(1 - K/b) / (block_len log(1 - N/n))).
    The plain ratio K/N is biased low on i.i.d. data, towards
    (1 - e^-lambda)/lambda with lambda = N block_len / n exceedances per
    block; the log form removes that bias. When K = b the log form is
    undefined and K/N (capped at 1) is returned. The stderr is the
    cluster bootstrap's (module docstring), which declusters with the
    intervals estimate, not with block_len. threads is unused: the
    bootstrap runs on the calling thread.
    """
    return _theta(ExceedanceSet.of(values, u), "blocks",
                  {"block_len": block_len}, n_boot)


def runs_theta(values, u: float, run_len: int, n_boot: int = 100,
               threads: int = 1) -> ThetaEstimate:
    """Fraction of exceedances followed by run_len clear positions.

    The stderr is the cluster bootstrap's (module docstring), which
    declusters with the intervals estimate, not with run_len. threads is
    unused: the bootstrap runs on the calling thread.
    """
    return _theta(ExceedanceSet.of(values, u), "runs",
                  {"run_len": run_len}, n_boot)


def intervals_theta(values, u: float, n_boot: int = 100,
                    threads: int = 1) -> ThetaEstimate:
    """Interexceedance-time estimator; tuning-free.

    With gaps T_i between consecutive exceedance times, returns
      min(1, 2 (sum T_i)^2 / ((N-1) sum T_i^2))            if max T <= 2,
      min(1, 2 (sum (T_i-1))^2 / ((N-1) sum (T_i-1)(T_i-2)))  otherwise.
    Depends on the data only through the exceedance times, so it is
    invariant under strictly increasing transformations of the values.
    The stderr is the cluster bootstrap's (module docstring), whose
    clusters this estimate sets. threads is unused: the bootstrap runs
    on the calling thread.
    """
    return _theta(ExceedanceSet.of(values, u), "intervals", {}, n_boot)


# -- extremogram ----------------------------------------------------------

@dataclass(frozen=True)
class ExtremogramResult(JsonFields):
    q: float
    u: float
    lags: np.ndarray
    chi_hat: np.ndarray
    stderr: np.ndarray


def extremogram(values, lags, q: float) -> ExtremogramResult:
    """chi_hat(h) = P(X_{t+h} >= u | X_t >= u) at the empirical q-quantile.

    Only pairs (t, t+h) fully inside the range are counted, and the
    conditioning count averages the left and right pair members, which
    makes the estimate exactly invariant under time reversal.
    """
    _PROBABILITY("q", q)
    v = _counted_values(values)
    n = v.size
    if not np.iterable(lags):
        raise ValueError(f"lags must be a list, got {lags!r}")
    lags = np.asarray(sorted(check_int("lags", h) for h in lags), dtype=int)
    if lags.size == 0:
        raise ValueError("need at least one lag")
    if (lags < 0).any() or (lags >= n / 2).any():
        raise ValueError("each lag must satisfy 0 <= lag < n/2")
    u = _quantile(v, q)
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
class AnticlusterResult(JsonFields):
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
    check_seed(seed)
    r_n, reps, n = check_int("r_n", r_n), check_int("reps", reps), \
        check_int("n", n)
    m_grid = tuple(check_int("m", v) for v in np.atleast_1d(m).tolist())
    if len(m_grid) == 0:
        raise ValueError("need at least one m")
    if any(not 1 <= v < r_n for v in m_grid):
        raise ValueError("need 1 <= m < r_n")
    if reps < 1 or n < 2:
        raise ValueError("need reps >= 1 and n >= 2")
    y = positive("y", y)

    cal = simulate(cfg, _ANTICLUSTER_CALIBRATION * n, burn_in, seed.child(0))
    a_n = _quantile(np.abs(cal.x), 1.0 - 1.0 / n)
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
                             r_n, y, n)


# -- Breiman ratio --------------------------------------------------------

@dataclass
class BreimanResult(JsonFields):
    levels: np.ndarray
    thresholds: np.ndarray
    ratios: np.ndarray
    target: float | None


def breiman_ratio(sigma_values, x_values, q_grid, alpha: float,
                  z: InnovationSpec | None = None) -> BreimanResult:
    """Empirical P(X > x)/P(sigma > x) at sigma-quantile levels.

    The ratio should approach EZ_+^alpha at high thresholds; the target
    is computed from the noise spec when one is given. alpha must be a
    finite number > 0 and each level of q_grid lie in (0, 1). Grid points
    with an empty numerator or denominator are dropped with a warning.
    """
    sig = _counted_values(sigma_values)
    x = _counted_values(x_values)
    if sig.size != x.size:
        raise ValueError("sigma and x series must have equal length")
    alpha = positive("alpha", alpha)
    q_grid = list_of(level)("q_grid", tuple(q_grid) if np.iterable(q_grid)
                            else q_grid)
    if not (z is None or isinstance(z, InnovationSpec)):
        raise ValueError(f"z must be an InnovationSpec or None, got {z!r}")
    target = moment_pos(z, alpha) if z is not None else None
    levels, thresholds, ratios = [], [], []
    for q in q_grid:
        xq = _quantile(sig, q)
        den = np.count_nonzero(sig > xq) / sig.size
        num = np.count_nonzero(x > xq) / x.size
        if den == 0.0 or num == 0.0:
            warnings.warn(f"no exceedances at level {q}; grid point dropped")
            continue
        levels.append(q)
        thresholds.append(xq)
        ratios.append(num / den)
    return BreimanResult(np.asarray(levels), np.asarray(thresholds),
                         np.asarray(ratios), target)
