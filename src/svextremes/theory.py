"""Theoretical tail and extremal-index quantities, evaluated numerically.

Four quantities, all tied to the stochastic recurrence / moving average
structure of the volatility:

  * kesten_index: the root kappa in [0.001, 64] of E A^kappa = 1, the
    power-law index of the stationary solution of
    sigma_t^p = A_t sigma_{t-1}^p + B_t.
  * theta_sigma_sre: the volatility extremal index
        theta_sigma = alpha Int_1^inf P(sup_{t>=1} prod_{j<=t} A_j <= 1/y)
                      y^{-alpha-1} dy,
    evaluated as an expectation under a Pareto(alpha) change of variables,
    with an independent quadrature route kept as a cross-check.
  * theta_x_sre: the m-truncated extremal index of |X| for SRE volatility,
        E(|Z_1|^{alpha p} - max_{j=2..m} (|Z_j|^p prod_{i=2..j} A_i)^alpha)_+
        / E|Z|^{alpha p},
    reported as the whole sequence over m' = 1..m so convergence is visible.
  * theta_x_ma: the extremal index of |X| for finite moving average
    volatility, E max_j |Z_j|^{alpha p} |psi_j|^alpha /
    (E|Z|^{alpha p} sum_j |psi_j|^alpha), exact for constant Z.

The SRE routines take the law of A as a KestenProblem, which any SRE
pair gives and which models.probe_multipliers checks as it checks an
SreSvConfig. Conventions: alpha always denotes the index of sigma^p (the
Kesten root), so sigma and X are regularly varying with index alpha * p.
Monte Carlo work is split into fixed chunks (2^15 replicates for the SRE
routines, 2^16 values for theta_x_ma) with one substream per chunk and
reduced in chunk order, making results independent of the thread count;
rng.chunked_map runs the chunks on the calling thread and helpers.

The SRE walks stop each replicate at the step where its contribution is
settled and draw only for the live ones. Both theta_sigma routes share
_sup_log_products, which stops a walk once its sup passes the caller's
cap or its log product falls L / alpha below its sup (L = _LUNDBERG_L
= 30): when E A^alpha = 1, Lundberg's inequality bounds the chance of a
later climb above that sup by e^-L, whatever alpha is. It advances the
live walks in block steps of up to 2^15 draws, so a few survivors take
many steps per numpy call. theta_x_sre drops a replicate once its
running max reaches |Z_1|^{alpha p}. A count of 0 (no success, no live
replicate) would make theta read 0 and raises a ValueError instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import InnovationSpec, draw, moment_abs
from .models import probe_multipliers
from .rng import RngSeed, chunk_sizes, chunked_map

__all__ = [
    "KestenProblem", "KestenRoot", "ThetaTheoryResult",
    "kesten_index", "theta_sigma_sre", "theta_sigma_sre_quadrature",
    "theta_x_sre", "theta_x_ma",
]

_KAPPA_BRACKET = (1e-3, 64.0)  # where kesten_index looks for kappa
_GRID_POINTS = 10_000  # of the theta_sigma_sre_quadrature grid
# L of the Lundberg stop in _sup_log_products
_LUNDBERG_L = 30.0
_BLOCK = 2 ** 15  # most values one block step of _sup_log_products draws
_CHUNK = 2 ** 15  # replicates per chunk of theta_sigma_sre and theta_x_sre
_MA_CHUNK = 2 ** 16  # values (replicates x len(psi)) per theta_x_ma chunk


@dataclass(frozen=True)
class KestenProblem:
    """The law of the multiplier A of sigma_t^p = A_t sigma_{t-1}^p + B_t.

    a_sampler is any SRE pair (an object with draw_a: Garch11Pair,
    GenericPair), an InnovationSpec, or a callable (generator, size) ->
    array. Construction runs models.probe_multipliers, the probe of
    SreSvConfig, so a law fails here exactly when its model does.
    Whether P(A > 1) > 0, which a finite Kesten index additionally needs,
    is checked by kesten_index itself so that degenerate laws (A == 0)
    can still be used for the theta formulas, where they are meaningful.
    The calibration sample (10^5 doubles, 0.8 MB) is kept for the alpha
    check of the theta routes.
    """

    a_sampler: object
    _calibration: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_calibration",
                           probe_multipliers(self.draw_a))

    def draw_a(self, g: np.random.Generator, size: int) -> np.ndarray:
        if hasattr(self.a_sampler, "draw_a"):
            return self.a_sampler.draw_a(g, size)
        if isinstance(self.a_sampler, InnovationSpec):
            return draw(self.a_sampler, g, size)
        return np.asarray(self.a_sampler(g, size), dtype=float)


@dataclass(frozen=True)
class KestenRoot:
    """Root of the empirical moment equation, with its precision."""

    kappa: float
    f_stderr: float
    mc_reps: int
    bracket: tuple

    def to_json(self) -> dict:
        return {"kappa": self.kappa, "f_stderr": self.f_stderr,
                "mc_reps": self.mc_reps, "bracket": list(self.bracket)}


@dataclass(frozen=True)
class ThetaTheoryResult:
    value: float
    mc_stderr: float
    truncation: dict
    mc_reps: int
    sequence: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError("theta must lie in (0, 1]")

    def to_json(self) -> dict:
        out = {"value": self.value, "mc_stderr": self.mc_stderr,
               "truncation": dict(self.truncation), "mc_reps": self.mc_reps}
        if self.sequence is not None:
            out["sequence"] = np.asarray(self.sequence).tolist()
        return out


def _log_a_sample(problem: KestenProblem, g: np.random.Generator,
                  size: int) -> np.ndarray:
    a = problem.draw_a(g, size)
    with np.errstate(divide="ignore"):
        return np.log(a)


def _check_args(mc_reps: int, finite: dict | None = None,
                **positive: float) -> None:
    # a standard error needs two replicates; alpha and p are exponents;
    # finite maps a name to an array whose entries must all be finite
    if mc_reps < 2:
        raise ValueError("mc_reps must be >= 2")
    for name, v in positive.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    for name, v in (finite or {}).items():
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v.tolist()}")


def _chunk_totals(parts: list) -> list:
    """Elementwise sums of the per-chunk result tuples, in chunk order."""
    totals = list(parts[0])
    for part in parts[1:]:
        totals = [t + v for t, v in zip(totals, part)]
    return totals


def _ratio_stderr(n: int, sn: float, sd: float, ssn: float, ssd: float,
                  snd: float) -> float:
    """Delta-method standard error of sn / sd, from the sums over n
    replicates of N, D, N^2, D^2 and N D."""
    value = sn / sd
    nbar, dbar = sn / n, sd / n
    var_n = ssn / n - nbar * nbar
    var_d = ssd / n - dbar * dbar
    cov = snd / n - nbar * dbar
    var_ratio = max(var_n + value * value * var_d - 2.0 * value * cov, 0.0)
    return math.sqrt(var_ratio / n) / dbar


def _check_count(count: int, mc_reps: int, what: str) -> None:
    """A theta estimate needs a count above 0; at 0 it reads 0, which
    says only that theta is below what mc_reps replicates resolve."""
    if count == 0:
        raise ValueError(f"{what} is 0 of mc_reps={mc_reps} replicates: "
                         "theta is below the Monte Carlo resolution; "
                         "increase mc_reps")


def kesten_index(problem: KestenProblem, mc_reps: int = 1_000_000,
                 tol: float = 1e-4, seed: RngSeed = RngSeed(0)) -> KestenRoot:
    """Solve mean(A_i^kappa) = 1 over one common-random-numbers sample.

    The sample is drawn once and sorted, so the root depends only on the
    multiset of draws; bisection runs until |mean(A^kappa) - 1| < tol.
    """
    _check_args(mc_reps, tol=tol)
    # at most two n-long arrays are alive at once: the sample is sorted in
    # place, each f(kappa) takes one temporary, and A^kappa overwrites
    # the sample at the end
    la = _log_a_sample(problem, seed.generator(), mc_reps)
    la.sort()
    if not la[-1] > 0.0:  # no draw above 1: E A^kappa < 1 for every kappa
        raise ValueError("no finite tail index in bracket")

    def f(kappa: float) -> float:
        t = np.multiply(kappa, la)
        with np.errstate(over="ignore"):
            return float(np.mean(np.exp(t, out=t))) - 1.0

    lo, hi = _KAPPA_BRACKET
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 or not np.isfinite(f_lo):
        raise ValueError("no finite tail index in bracket")
    if f_hi < 0.0:
        raise ValueError("no finite tail index in bracket")
    kappa, fk = lo, f_lo
    for _ in range(200):
        kappa = 0.5 * (lo + hi)
        fk = f(kappa)
        if abs(fk) < tol:
            break
        if fk > 0.0:
            hi = kappa
        else:
            lo = kappa
    la *= kappa
    with np.errstate(over="ignore"):
        pow_a = np.exp(la, out=la)
    se = float(np.std(pow_a, ddof=1) / math.sqrt(mc_reps))
    return KestenRoot(float(kappa), se, mc_reps, _KAPPA_BRACKET)


def _check_alpha(problem: KestenProblem, alpha: float) -> None:
    """alpha must solve E A^alpha = 1 on the calibration sample.

    Skipped for the degenerate A == 0 law, where no such alpha exists but
    the theta formulas still make sense (every product vanishes).
    """
    a = problem._calibration
    if float(a.max()) == 0.0:
        return
    pw = a ** alpha
    m = float(np.mean(pw))
    se = float(np.std(pw, ddof=1) / math.sqrt(pw.size))
    if abs(m - 1.0) > 5.0 * max(se, 1e-12):
        raise ValueError("alpha inconsistent with multiplier law")


def _sup_log_products(problem: KestenProblem, g: np.random.Generator,
                      cap: np.ndarray, trunc_T: int, alpha: float):
    """Sup over t >= 1 of log prod_{j<=t} A_j per replicate, one per cap.

    A replicate stops at the first step where its sup passes its cap, its
    log product lies _LUNDBERG_L / alpha below its sup (this includes a
    log product of -inf, from a zero multiplier), or its walk reaches
    trunc_T steps. A stopped sup above the cap is a lower bound, which is
    all a caller asking "sup <= cap?" needs. When E A^alpha = 1,
    Lundberg's inequality bounds the chance that the walk later climbs
    back above a sup it has fallen L / alpha below by e^-L.

    The walks advance in block steps: with L live replicates, one draw of
    k = clamp(_BLOCK // L, 1, trunc_T - t) log-multipliers per replicate
    forms an (L, k) array, row-major, so the stream depends only on the
    live counts. The carried log product joins column 0 before the row
    cumsum, so every partial sum is added left to right as a step-by-step
    walk adds it; a running max gives the sups, and each row stops at its
    first column that meets a rule. Stopped rows drop out, so the cost
    tracks the survivor count, and a block holds at most max(L, _BLOCK)
    values.
    Returns (sup_log, hit_horizon), where hit_horizon flags replicates
    still unresolved at trunc_T.
    """
    size = cap.size
    sup_out = np.empty(size)
    hit = np.zeros(size, dtype=bool)
    idx = np.arange(size)
    # every walk starts at log product 0 with no sup: one value each,
    # broadcast until the first block gives each replicate its own
    logprod, sup = np.zeros(1), np.full(1, -np.inf)
    depth = _LUNDBERG_L / alpha
    # the running sups and their Lundberg floors, reused block to block
    bufs = np.empty((2, max(size, _BLOCK)))
    t = 0
    while idx.size and t < trunc_T:
        n = idx.size
        k = min(max(_BLOCK // n, 1), trunc_T - t)
        t += k
        walk = _log_a_sample(problem, g, n * k).reshape(n, k)
        walk[:, 0] += logprod
        np.cumsum(walk, axis=1, out=walk)
        run = np.maximum.accumulate(walk, axis=1,
                                    out=bufs[0, :n * k].reshape(n, k))
        np.maximum(run, sup[:, None], out=run)
        floor = np.subtract(run, depth, out=bufs[1, :n * k].reshape(n, k))
        # <= also stops a zero product, where sup and logprod are both -inf
        done = run > cap[:, None]
        done |= walk <= floor
        stop = done.any(axis=1)
        rows = np.flatnonzero(stop)
        sup_out[idx[rows]] = run[rows, done[rows].argmax(axis=1)]
        keep = ~stop
        idx, cap = idx[keep], cap[keep]
        logprod, sup = walk[keep, -1], run[keep, -1]  # copies, not views
    sup_out[idx] = sup
    hit[idx] = True
    return sup_out, hit


def theta_sigma_sre(problem: KestenProblem, alpha: float,
                    mc_reps: int = 200_000, trunc_T: int = 10_000,
                    seed: RngSeed = RngSeed(0),
                    threads: int = 1) -> ThetaTheoryResult:
    """Extremal index of the SRE volatility sequence.

    Uses theta_sigma = P(sup_{t>=1} prod_{j<=t} A_j <= 1/Y) with
    Y ~ Pareto(alpha), which is the integral above after the change of
    variables. Each replicate's walk stops once its sup passes
    b = -log Y (a failure) or its log product falls _LUNDBERG_L / alpha
    below its sup (a success, wrong with probability at most e^-L).
    Reports the binomial standard error and the fraction of replicates
    still unresolved at trunc_T (truncation risk), counted as successes.
    """
    _check_args(mc_reps, alpha=alpha)
    if trunc_T < 1:
        raise ValueError("trunc_T must be >= 1")
    _check_alpha(problem, alpha)
    sizes = chunk_sizes(mc_reps, _CHUNK)

    def one(i: int):
        g = seed.generator(i)
        b = g.random(sizes[i])
        np.subtract(1.0, b, out=b)        # U in (0, 1]
        np.log(b, out=b)
        b /= alpha                        # -log Y = log(U) / alpha <= 0
        sup, hit = _sup_log_products(problem, g, b, trunc_T, alpha)
        return int(np.count_nonzero(sup <= b)), int(np.count_nonzero(hit))

    succ, risk = _chunk_totals(chunked_map(one, len(sizes), threads))
    _check_count(succ, mc_reps, "the success count")
    value = succ / mc_reps
    se = math.sqrt(max(value * (1.0 - value), 0.0) / mc_reps)
    risk_frac = risk / mc_reps
    if risk_frac > 0.01:
        warnings.warn(f"truncation risk {risk_frac:.3f} exceeds 1%; "
                      "increase trunc_T")
    return ThetaTheoryResult(value, se,
                             {"trunc_T": trunc_T, "risk_fraction": risk_frac},
                             mc_reps)


def theta_sigma_sre_quadrature(problem: KestenProblem, alpha: float,
                               mc_reps: int = 200_000, trunc_T: int = 10_000,
                               seed: RngSeed = RngSeed(0)
                               ) -> ThetaTheoryResult:
    """Cross-check route: direct integration over y on a log grid.

    Samples the sup of products once, forms its empirical distribution
    function G, and evaluates alpha Int_1^ymax G(1/y) y^{-alpha-1} dy by
    the trapezoid rule on a log-spaced grid. The integrand reads G only
    at -log y <= 0, so every walk stops once its sup passes 0. Independent
    of the change-of-variables estimator in everything but the sup law.
    Up to the grid, the value is the mean over replicates of
    (1 - e^{alpha sup})_+, so its standard error is their sd over
    sqrt(mc_reps).
    """
    _check_args(mc_reps, alpha=alpha)
    if trunc_T < 1:
        raise ValueError("trunc_T must be >= 1")
    g = seed.generator()
    sup, hit = _sup_log_products(problem, g, np.zeros(mc_reps), trunc_T,
                                 alpha)
    _check_count(int(np.count_nonzero(sup <= 0.0)), mc_reps,
                 "the count of sups <= 0")
    sup_sorted = np.sort(sup)
    y_max = max(10.0, 1e14 ** (1.0 / alpha))
    y = np.exp(np.linspace(0.0, math.log(y_max), _GRID_POINTS))
    # G(1/y) = P(sup_log <= -log y)
    cdf = np.searchsorted(sup_sorted, -np.log(y), side="right") / mc_reps
    integrand = alpha * cdf * y ** (-alpha - 1.0)
    value = float(np.trapezoid(integrand, y))
    # a zero product (sup -inf) adds 1, a sup above 0 adds nothing
    se = float(np.std(np.maximum(-np.expm1(alpha * sup), 0.0), ddof=1)
               / math.sqrt(mc_reps))
    risk_frac = float(np.mean(hit))
    return ThetaTheoryResult(min(value, 1.0), se,
                             {"trunc_T": trunc_T, "risk_fraction": risk_frac,
                              "grid_points": _GRID_POINTS},
                             mc_reps)


def _abs_power(z: InnovationSpec, g: np.random.Generator, n: int,
               e: float) -> np.ndarray:
    """|Z|^e for n draws of z, computed in the draw's own buffer."""
    v = draw(z, g, n)
    np.abs(v, out=v)
    v **= e
    return v


def _check_z_moment(z: InnovationSpec, r: float) -> None:
    mz = moment_abs(z, r)  # raises "moment diverges" when infinite
    if mz == 0.0:
        raise ValueError("degenerate z with E|Z|^r = 0")


def theta_x_sre(problem: KestenProblem, z: InnovationSpec, alpha: float,
                p: float, m: int, mc_reps: int = 1_000_000,
                seed: RngSeed = RngSeed(0),
                threads: int = 1) -> ThetaTheoryResult:
    """m-truncated extremal index of |X| = sigma |Z| for SRE volatility.

    Self-normalized ratio estimator: numerator and denominator share the
    |Z_1| draws, so m = 1 returns exactly 1 (the empty max is zero) and
    the sequence over m' is non-increasing replicate by replicate. A
    replicate whose running max has reached |Z_1|^{alpha p} adds 0 at
    every later m', so it stops there and only the live ones draw Z and A.
    The truncation record gives live_fraction, the share of replicates
    still unresolved at m.
    """
    _check_args(mc_reps, alpha=alpha, p=p)
    if m < 1:
        raise ValueError("m must be >= 1")
    ap = alpha * p
    _check_z_moment(z, ap)
    _check_alpha(problem, alpha)
    sizes = chunk_sizes(mc_reps, _CHUNK)

    def one(i: int):
        g = seed.generator(i)
        t1 = _abs_power(z, g, sizes[i], ap)
        sd, ssd = float(t1.sum()), float((t1 * t1).sum())
        num = np.zeros(m)
        num[0] = sd
        best = np.zeros(t1.size)
        logprod = np.zeros(t1.size)
        for j in range(1, m):
            zj = _abs_power(z, g, t1.size, p)
            logprod += _log_a_sample(problem, g, t1.size)
            with np.errstate(over="ignore", under="ignore"):
                cand = zj ** alpha * np.exp(alpha * logprod)
            np.maximum(best, cand, out=best)
            live = best < t1
            if not live.all():
                t1, best, logprod = t1[live], best[live], logprod[live]
            num[j] = float((t1 - best).sum())
        gap = t1 - best
        return (num, sd, float((gap * gap).sum()), ssd,
                float((gap * t1).sum()), t1.size)

    num, sd, ssn, ssd, snd, live = _chunk_totals(
        chunked_map(one, len(sizes), threads))
    # a live replicate adds t1 - best > 0, so the numerator is 0 iff none is
    _check_count(live, mc_reps, f"the count of replicates live at m={m}")
    seq = num / sd
    se = _ratio_stderr(mc_reps, num[-1], sd, ssn, ssd, snd)
    return ThetaTheoryResult(float(seq[-1]), se,
                             {"m": m, "live_fraction": live / mc_reps},
                             mc_reps, sequence=seq)


def theta_x_ma(psi, alpha: float, p: float, z: InnovationSpec,
               mc_reps: int = 200_000, seed: RngSeed = RngSeed(0),
               threads: int = 1) -> ThetaTheoryResult:
    """Extremal index of |X| for moving-average volatility.

    theta = E max_j |Z_j|^{alpha p} |psi_j|^alpha
            / (E|Z|^{alpha p} sum_j |psi_j|^alpha).
    For constant Z the Z factors cancel and the closed form
    max_j |psi_j|^alpha / sum_j |psi_j|^alpha is returned exactly.
    Coefficients are normalized by max |psi_j| first, so scaling every
    psi_j by a common factor cannot move the result. A ratio of sums
    above 1 (theta near 1) reads 1; mc_stderr is the uncapped ratio's.
    """
    psi = np.asarray(psi, dtype=float)
    _check_args(mc_reps, finite={"psi": psi}, alpha=alpha, p=p)
    w = np.abs(psi)
    if w.size == 0 or not np.any(w > 0):
        raise ValueError("psi needs at least one nonzero coefficient")
    ap = alpha * p
    r = (w / w.max()) ** alpha
    rsum = float(r.sum())
    if z.kind == "constant":
        if z.c == 0:
            raise ValueError("degenerate z with E|Z|^r = 0")
        return ThetaTheoryResult(1.0 / rsum, 0.0, {}, 0)
    _check_z_moment(z, ap)
    q1 = w.size
    sizes = chunk_sizes(mc_reps, max(_MA_CHUNK // q1, 1))

    def one(i: int):
        g = seed.generator(i)
        size = sizes[i]
        t = _abs_power(z, g, size * q1, ap).reshape(size, q1)
        # the row max of t r and the row sum of t over the columns: no
        # row-wise reduction, which holds the interpreter lock on short
        # rows. Summed left to right, as numpy sums rows of fewer than 8
        n_i = t[:, 0] * r[0]
        d_i = t[:, 0].copy()
        col = np.empty(size)
        for j in range(1, q1):
            np.multiply(t[:, j], r[j], out=col)
            np.maximum(n_i, col, out=n_i)
            d_i += t[:, j]
        d_i /= q1
        d_i *= rsum
        return (float(n_i.sum()), float(d_i.sum()), float((n_i * n_i).sum()),
                float((d_i * d_i).sum()), float((n_i * d_i).sum()))

    sn, sd, ssn, ssd, snd = _chunk_totals(
        chunked_map(one, len(sizes), threads))
    return ThetaTheoryResult(min(float(sn / sd), 1.0),
                             _ratio_stderr(mc_reps, sn, sd, ssn, ssd, snd),
                             {}, mc_reps)
