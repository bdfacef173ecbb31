"""Theoretical tail and extremal-index quantities, evaluated numerically.

Four quantities, all tied to the stochastic recurrence / moving average
structure of the volatility:

  * kesten_index: the root kappa in [0.001, 64] of E A^kappa = 1, the
    power-law index of the stationary solution of
    sigma_t^p = A_t sigma_{t-1}^p + B_t. For GARCH(1,1) multipliers
    A = alpha1 eta^2 + beta1 with standard normal eta and beta1 >= alpha1
    it is exact: E A^kappa is a Gauss-Hermite sum over fixed nodes, and
    the root reports f_stderr 0.0 and mc_reps 0. Every other law is
    solved on a sample of mc_reps draws of A.
  * theta_sigma_sre: the volatility extremal index
        theta_sigma = alpha Int_1^inf P(sup_{t>=1} prod_{j<=t} A_j <= 1/y)
                      y^{-alpha-1} dy = E(1 - e^{alpha M})_+,
    M = sup_{t>=1} sum_{j<=t} log A_j, the mean over samples of M drawn
    from Lindley chains, with an independent quadrature route kept as a
    cross-check.
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
The theta routines run their Monte Carlo through _mc_sums: fixed chunks
(2^15 samples or replicates for the SRE routines, 2^16 values for
theta_x_ma), one substream per chunk and sums in chunk order, so no
result depends on the thread count; rng.chunked_map runs them on the
caller and helpers.

On its exact route kesten_index holds _GH_NODES values of A and the
rule, built once per process. On its sample route it keeps one
mc_reps-long array, its sorted log sample (8 MB at the default 10^6).
It draws and logs A in slices of _LEAF = 2^16 values, and sums A^kappa
over the leaves of numpy's pairwise-summation tree (_pairwise) through
one _LEAF-long buffer. Philox draws in sequence and the leaves are the
tree's own, so for a sampler that draws one array per call kappa and
f_stderr equal those of one large draw reduced by np.mean and np.std,
bit for bit. Its one settle step, f_at, sums the whole sample only when
bounds on the sum from every 16th sorted value cannot settle a
decision. Those values, the first and last of each run of 16, are
copied once into two contiguous arrays, which every bound sum reads. On
10^6 draws of the tests' GARCH(1,1) multipliers that leaves two
whole-sample passes per call, the stop step and the standard error,
against 9-16 when every step summed them all. Both routes share one
bisection (_bisect_kappa), which stops once |E A^kappa - 1| < tol.

theta_sigma_sre draws one sample of M per step of a Lindley chain
W_n = (W_{n-1} + log A_n)_+: once the chain is stationary,
V_n = W_{n-1} + log A_n has the law of M. Each chunk runs one chain from
W_0 = 0, trunc_T burn-in steps and then its samples, in blocks of up to
_CHAIN_BLOCK = 2^14 steps: one cumsum and one running min per block,
its sums restarted from the W carried into it, so rounding does not grow
with the chain. Its stderr comes from the chain's regeneration cycles at
W = 0, and its risk_fraction is a coupling bound on the chance that a
chain still depends on its start.

The quadrature route samples the sup with _sup_log_products, one walk
per replicate, which stops a walk once its sup passes 0 or its log
product falls L / alpha below its sup, with L = log(1000 mc_reps): when
E A^alpha = 1, Lundberg's inequality bounds the chance of a later climb
above that sup by e^-L = 1 / (1000 mc_reps), whatever alpha is, so a
call expects at most 1/1000 wrong stops. It advances the live walks in
block steps of up to 2^15 draws, so a few survivors take many steps per
numpy call. A block is summed in a step-major copy: a short one (at most
_STEPWISE = 64 steps, as with 512 or more live walks) advances every
walk one step per vector add and max, a long one accumulates along its
steps, and either way every partial sum is added left to right.

theta_x_sre drops a replicate once its running max reaches
|Z_1|^{alpha p}. A count of 0 (no success, no live replicate) would make
theta read 0 and raises a ValueError instead.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (InnovationSpec, JsonFields, check_int, constant,
                            draw, finite_real, laplace, moment_abs, positive,
                            std_normal)
from .models import Garch11Pair, probe_multipliers
from .rng import RngSeed, check_seed, chunk_sizes, chunked_map

__all__ = [
    "KestenProblem", "KestenRoot", "ThetaTheoryResult",
    "kesten_index", "theta_sigma_sre", "theta_sigma_sre_quadrature",
    "theta_x_sre", "theta_x_ma",
]

_KAPPA_BRACKET = (1e-3, 64.0)  # where kesten_index looks for kappa
_GRID_POINTS = 10_000  # of the theta_sigma_sre_quadrature grid
# the Lundberg stop of _sup_log_products expects at most one wrong stop
# per this many calls
_LUNDBERG_CALLS = 1000
_BLOCK = 2 ** 15  # most values one block step of _sup_log_products draws
# longest block that _sup_log_products advances one step at a time
_STEPWISE = 64
_CHUNK = 2 ** 15  # samples per chunk of theta_sigma_sre and theta_x_sre
_CHAIN_BLOCK = 2 ** 14  # most steps of theta_sigma_sre's chain per draw
# e^x is 0.0 below this, so theta_sigma_sre floors alpha log A here
_EXP_FLOOR = -746.0
_MA_CHUNK = 2 ** 16  # values (replicates x len(psi)) per theta_x_ma chunk
_LEAF = 2 ** 16  # most values kesten_index draws or reduces at once
_SLACK = 1e-12  # relative rounding slack of kesten_index's bounds on a sum
# nodes of kesten_index's Gauss-Hermite rule; 320 move no kappa of the
# tests' laws by 1e-12
_GH_NODES = 160


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
        if not callable(self.a_sampler):
            raise ValueError(f"a_sampler must be a pair, InnovationSpec or "
                             f"callable, got {self.a_sampler!r}")
        return np.asarray(self.a_sampler(g, size), dtype=float)


@dataclass(frozen=True)
class KestenRoot(JsonFields):
    """Root kappa of E A^kappa = 1 in bracket, with its precision.

    f_stderr is the standard error of the sample mean of A^kappa at
    kappa over mc_reps draws. The exact route computes E A^kappa by a
    quadrature rule, with no Monte Carlo error: f_stderr is 0.0 and
    mc_reps is 0. Either way |E A^kappa - 1| < tol at kappa, unless
    kesten_index warned.
    """

    kappa: float
    f_stderr: float
    mc_reps: int
    bracket: tuple


@dataclass(frozen=True)
class ThetaTheoryResult(JsonFields):
    value: float
    mc_stderr: float
    truncation: dict
    mc_reps: int
    sequence: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError("theta must lie in (0, 1]")


def _log_a_sample(problem: KestenProblem, g: np.random.Generator,
                  size: int) -> np.ndarray:
    a = problem.draw_a(g, size)
    with np.errstate(divide="ignore"):
        return np.log(a)


def _mc_sums(one, chunk: int, mc_reps: int, seed: RngSeed,
             threads: int) -> list:
    """Elementwise sums, in chunk order, of the tuples one(g, size) over
    chunk_sizes(mc_reps, chunk), chunk i drawing from seed.generator(i):
    so the thread count changes no result."""
    sizes = chunk_sizes(mc_reps, chunk)
    parts = chunked_map(lambda i: one(seed.generator(i), sizes[i]),
                        len(sizes), threads)
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


def _pairwise(lo: int, hi: int, leaf) -> float:
    """Sum of leaf(i, j) over the leaves of numpy's pairwise-summation
    tree on [lo, hi): a range is halved, the first half rounded down to
    a multiple of 8, until each piece holds at most _LEAF values. When
    leaf(i, j) is np.add.reduce of the values i..j-1, the result is
    np.add.reduce of all of them, bit for bit."""
    n = hi - lo
    if n <= _LEAF:
        return leaf(lo, hi)
    half = n // 2 - n // 2 % 8
    return _pairwise(lo, lo + half, leaf) + _pairwise(lo + half, hi, leaf)


def _bisect_kappa(f_at, tol: float) -> float:
    """The kappa in _KAPPA_BRACKET where f(kappa) = E A^kappa - 1 falls
    below tol in size, by bisection. f_at(kappa, settle) gives f(kappa),
    or a bound on it when the bound alone puts f above settle or below
    -settle (settle inf always asks for f itself). A bracket whose ends
    do not straddle 0 raises; a bisection that stops short of tol (the
    midpoint no longer moves, or 200 halvings) warns."""
    lo, hi = _KAPPA_BRACKET
    # a root needs f(lo) <= 0 (not above 0, inf or nan) and f(hi) >= 0
    if not f_at(lo, 0.0) <= 0.0 or f_at(hi, 0.0) < 0.0:
        raise ValueError("no finite tail index in bracket")
    for _ in range(200):
        kappa = 0.5 * (lo + hi)
        if kappa in (lo, hi):  # from here on no step moves kappa
            break
        f = f_at(kappa, tol)
        if abs(f) < tol:  # only f itself, not a bound, comes below tol
            break
        if f > 0.0:
            hi = kappa
        else:
            lo = kappa
    if not abs(f) < tol:  # stopped short: f(kappa) itself
        f = f_at(kappa, math.inf)
        if not abs(f) < tol:
            warnings.warn(f"kesten_index stopped at |f| = {abs(f):.3g}, "
                          f"not below tol = {tol:.3g}")
    return kappa


@functools.cache
def _hermite_rule(nodes: int) -> tuple:
    """The nodes-point Gauss-Hermite rule for a standard normal law: its
    nodes and its weights, which sum to 1."""
    from numpy.polynomial.hermite_e import hermegauss  # first use only

    x, w = hermegauss(nodes)
    return x, w / math.sqrt(2.0 * math.pi)


def _exact_multipliers(problem: KestenProblem):
    """A at the nodes of the _GH_NODES-point Gauss-Hermite rule and the
    rule's weights, when the law of A is GARCH(1,1) with standard normal
    eta and beta1 >= alpha1; else None. E A^kappa is then a normal
    integral whose integrand has its branch points at eta = +-i
    sqrt(beta1 / alpha1), at least 1 from the real line, and the rule
    gives it to a relative 3.1e-13 or better (2e-15 from beta1 >= 1.5
    alpha1; against mpmath for kappa from 0.01 to 63.5). Nearer the
    line it converges slowly (at alpha1 = 1.5, beta1 = 0 it misses by
    1.6e-3 at 200 nodes), so those laws keep the sample."""
    pair = problem.a_sampler
    if not (isinstance(pair, Garch11Pair) and pair.eta == std_normal()
            and pair.beta1 >= pair.alpha1):
        return None
    x, w = _hermite_rule(_GH_NODES)
    return pair._a_of(x.copy()), w


def kesten_index(problem: KestenProblem, mc_reps: int = 1_000_000,
                 tol: float = 1e-4, seed: RngSeed = RngSeed(0)) -> KestenRoot:
    """Solve E A^kappa = 1 for kappa, by bisection until |f| < tol with
    f(kappa) = E A^kappa - 1; it warns when it stops short of that (the
    midpoint no longer moves, or 200 halvings). tol bounds the same f on
    both routes below.

    Exact route: when the law of A is GARCH(1,1) with standard normal
    eta and beta1 >= alpha1 (_exact_multipliers), E A^kappa is the sum
    of w_i A_i^kappa over the _GH_NODES-point Gauss-Hermite rule, A_i
    the pair's own _a_of at the nodes. mc_reps and seed go unused, and
    the root reports f_stderr 0.0 and mc_reps 0: no Monte Carlo error.

    Sample route, for every other law: E A^kappa is the mean over one
    common-random-numbers sample of mc_reps draws, drawn once and
    sorted, so the root depends only on the multiset of draws, and
    f_stderr is the standard error of that mean at the root.

    The sorted log sample is the one mc_reps-long array. A is drawn in
    slices of _LEAF values from the one generator, each logged straight
    into it; the sequential Philox stream makes this the sample of one
    large draw when the sampler draws one array per call (a sampler that
    draws several, say its values and then a mask, interleaves them
    differently in slices). Each mean of A^kappa, and the final standard
    error, runs over the leaves of numpy's pairwise-summation tree
    (_pairwise) through one _LEAF-long scratch buffer, so every sum, and
    hence kappa and f_stderr, equals that of np.mean and np.std(ddof=1)
    over the whole A^kappa array, bit for bit.

    Most steps need no whole-sample sum. A^kappa rises with log A, so
    each run of 16 sorted values sums to between 16 times its first and
    16 times its last term (a short last run by its size), and the sums
    over la[0::16] and la[15::16] bound the whole sum within a relative
    slack of 1e-12 for rounding. Those two are copied once, after the
    sort, into contiguous arrays of mc_reps / 16 values each (1 MB
    together at 10^6 draws), which every bound sum reads in place of a
    strided view of the sample. Every decision asks f_at(kappa, settle):
    a bound that puts f strictly above settle or below -settle decides
    alone, else f is the whole sum's, kept as the stderr's mean. The
    bracket checks ask with settle 0 and each bisection step with tol,
    so every branch, kappa and f_stderr are those of whole sums.
    """
    check_seed(seed)
    _check_type("problem", problem, KestenProblem)
    check_int("mc_reps", mc_reps, 2)
    positive("tol", tol)
    exact = _exact_multipliers(problem)
    if exact is not None:
        a, w = exact

        def f_exact(kappa: float, settle: float) -> float:
            with np.errstate(over="ignore"):
                return float(np.add.reduce(w * a ** kappa)) - 1.0

        return KestenRoot(_bisect_kappa(f_exact, tol), 0.0, 0,
                          _KAPPA_BRACKET)
    g = seed.generator()
    la = np.empty(mc_reps)
    for lo in range(0, mc_reps, _LEAF):
        hi = min(lo + _LEAF, mc_reps)
        with np.errstate(divide="ignore"):
            np.log(problem.draw_a(g, hi - lo), out=la[lo:hi])
    la.sort()
    if not la[-1] > 0.0:  # no draw above 1: E A^kappa < 1 for every kappa
        raise ValueError("no finite tail index in bracket")
    buf = np.empty(min(mc_reps, _LEAF))

    def pow_into(kappa: float, values: np.ndarray) -> np.ndarray:
        t = np.multiply(kappa, values, out=buf[:values.size])
        with np.errstate(over="ignore"):
            return np.exp(t, out=t)

    def sum_pow(kappa: float, values: np.ndarray = la,
                center: Optional[float] = None) -> float:
        # the sum of A^kappa over values, or of (A^kappa - center)^2
        def leaf(lo: int, hi: int) -> float:
            t = pow_into(kappa, values[lo:hi])
            if center is not None:
                t -= center
                t *= t
            return np.add.reduce(t)

        return _pairwise(0, values.size, leaf)

    def f_of(total: float) -> float:
        # f from a sum of A^kappa; it rises with the sum, so the same
        # arithmetic on bounds of a sum bounds its f
        return float(total / mc_reps) - 1.0

    runs, short = divmod(mc_reps, 16)
    # the first and last log A of each run of 16, read by every bound
    # sum: contiguous copies of la[0::16] and la[15::16], so no sum walks
    # the whole sample at a stride of 16
    first, last = la[0::16].copy(), la[15::16].copy()
    total = None  # the last whole sum of A^kappa, kept for the stderr

    def f_at(kappa: float, settle: float) -> float:
        # a bound on f(kappa) that alone puts f above settle or below
        # -settle (strictly: settle inf always sums), else the whole sum's
        # f; a short last run weighs its first and last term by its size
        nonlocal total
        f_lb = f_of((16.0 * sum_pow(kappa, first[:runs])
                     + short * sum_pow(kappa, first[runs:])) * (1.0 - _SLACK))
        if f_lb > settle:
            return f_lb
        f_ub = f_of((16.0 * sum_pow(kappa, last)
                     + short * sum_pow(kappa, la[16 * runs:][-1:]))
                    * (1.0 + _SLACK))
        if f_ub < -settle:
            return f_ub
        total = sum_pow(kappa)
        return f_of(total)

    kappa = _bisect_kappa(f_at, tol)
    # np.std(ddof=1): the mean, then the squared deviations from it; the
    # bisection's last f_at(kappa, ...) summed the whole sample
    var = sum_pow(kappa, center=total / mc_reps) / (mc_reps - 1)
    se = float(np.sqrt(var) / math.sqrt(mc_reps))
    return KestenRoot(float(kappa), se, mc_reps, _KAPPA_BRACKET)


def _check_type(name: str, value, cls) -> None:
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be {cls.__name__}, got {value!r}")


def _check_alpha(problem: KestenProblem, alpha: float) -> None:
    """alpha must solve E A^alpha = 1 on the calibration sample: its mean
    of A^alpha within 5 standard errors of 1.

    Skipped for the degenerate A == 0 law, where no such alpha exists but
    the theta formulas still make sense (every product vanishes).
    """
    _check_type("problem", problem, KestenProblem)
    a = problem._calibration
    if float(a.max()) == 0.0:
        return
    pw = a ** alpha
    m = float(np.mean(pw))
    se = float(np.std(pw, ddof=1) / math.sqrt(pw.size))
    if abs(m - 1.0) > 5.0 * max(se, 1e-12):
        raise ValueError(f"alpha inconsistent with multiplier law: at alpha "
                         f"= {alpha!r} the {pw.size} calibration draws give "
                         f"E A^alpha = {m:.6g} with standard error "
                         f"{se:.3g}, not within 5 standard errors of 1")


def _sup_log_products(problem: KestenProblem, g: np.random.Generator,
                      size: int, cap: float, trunc_T: int, alpha: float):
    """Sup over t >= 1 of log prod_{j<=t} A_j for `size` replicates.

    A replicate stops at the first step where its sup passes cap, its
    log product lies L / alpha below its sup (this includes a log product
    of -inf, from a zero multiplier), or its walk reaches trunc_T steps.
    A stopped sup above cap is a lower bound, which is all a caller
    asking "sup <= cap?" needs. When E A^alpha = 1, Lundberg's inequality
    bounds the chance that the walk later climbs back above a sup it has
    fallen L / alpha below by e^-L. L = log(_LUNDBERG_CALLS * size), so a
    call expects at most 1 / _LUNDBERG_CALLS wrong stops whatever its
    size: L / alpha is 18.0 / alpha at 2^16 replicates and 15.2 / alpha
    at 2^12.

    The walks advance in block steps: with N live replicates, one draw of
    k = clamp(_BLOCK // N, 1, trunc_T - t) log-multipliers per replicate
    is read as an (N, k) array, row-major (replicate i takes draws
    i k .. i k + k - 1), so the stream depends only on the live counts.
    It is summed in a step-major (k, N) copy, so each step reads N
    contiguous values. The carried log products join step 0; a block of
    at most _STEPWISE steps then advances all N walks one step at a time,
    one vector add for the log products and one vector max for the sups,
    while a longer block (fewer than 512 walks) runs numpy's cumsum and
    running max along its steps. Either way every partial sum is added
    left to right as a step-by-step walk adds it, and each walk stops at
    its first step that meets a rule. Stopped walks drop out, so the cost
    tracks the survivor count, and a block holds at most max(N, _BLOCK)
    values.
    Returns (sup_log, hit_horizon), where hit_horizon flags replicates
    still unresolved at trunc_T.
    """
    sup_out = np.empty(size)
    hit = np.zeros(size, dtype=bool)
    idx = np.arange(size)
    # every walk starts at log product 0 with no sup: one value each,
    # broadcast until the first block gives each replicate its own
    logprod, sup = np.zeros(1), np.full(1, -np.inf)
    depth = math.log(_LUNDBERG_CALLS * size) / alpha
    # the step-major walks, their running sups and their Lundberg floors,
    # reused block to block
    bufs = np.empty((3, max(size, _BLOCK)))
    t = 0
    while idx.size and t < trunc_T:
        n = idx.size
        k = min(max(_BLOCK // n, 1), trunc_T - t)
        t += k
        walk = bufs[0, :n * k].reshape(k, n)
        walk[...] = _log_a_sample(problem, g, n * k).reshape(n, k).T
        walk[0] += logprod
        run = bufs[1, :n * k].reshape(k, n)
        if k <= _STEPWISE:  # every walk one step at a time
            np.maximum(walk[0], sup, out=run[0])
            for j in range(1, k):
                np.add(walk[j - 1], walk[j], out=walk[j])
                np.maximum(run[j - 1], walk[j], out=run[j])
        else:
            np.cumsum(walk, axis=0, out=walk)
            np.maximum.accumulate(walk, axis=0, out=run)
            np.maximum(run, sup, out=run)
        floor = np.subtract(run, depth, out=bufs[2, :n * k].reshape(k, n))
        # <= also stops a zero product, where sup and logprod are both -inf
        done = run > cap
        done |= walk <= floor
        stop = done.any(axis=0)
        cols = np.flatnonzero(stop)
        sup_out[idx[cols]] = run[done[:, cols].argmax(axis=0), cols]
        keep = ~stop
        idx = idx[keep]
        logprod, sup = walk[-1, keep], run[-1, keep]  # copies, not views
    sup_out[idx] = sup
    hit[idx] = True
    return sup_out, hit


def _lindley_blocks(problem: KestenProblem, g: np.random.Generator,
                    trunc_T: int, size: int, floor: float):
    """V_n = W_{n-1} + log A_n for the `size` steps that follow trunc_T
    burn-in steps of the Lindley chain W_n = (V_n)_+ from W_0 = 0: one
    array per block of at most _CHAIN_BLOCK steps, drawn as one call.
    The burn-in and the sampled steps are each cut into blocks from
    their own start.

    log A is floored at `floor`. Within a block, with S_n the sum of its
    first n log A and w the W carried into it, W_n = S_n - min(-w, S_1,
    ..., S_n), so one cumsum and one running min give the block; a step
    where V_n <= 0 takes the new min and its W_n is exactly 0. Each block
    starts its sums afresh, so a value's rounding stays that of at most
    _CHAIN_BLOCK additions, however long the chain.
    """
    w = 0.0
    for steps, sampled in ((trunc_T, False), (size, True)):
        for lo in range(0, steps, _CHAIN_BLOCK):
            s = _log_a_sample(problem, g, min(_CHAIN_BLOCK, steps - lo))
            np.maximum(s, floor, out=s)
            np.cumsum(s, out=s)
            v = np.empty(s.size)
            # min(-w, S_1, ..., S_{n-1}), the running min before step n
            np.minimum.accumulate(s[:-1], out=v[1:])
            np.minimum(v[1:], -w, out=v[1:])
            v[0] = -w
            np.subtract(s, v, out=v)
            w = max(float(v[-1]), 0.0)
            if sampled:
                yield v


def _lindley_sums(problem: KestenProblem, g: np.random.Generator,
                  size: int, trunc_T: int, alpha: float) -> tuple:
    """One chunk of theta_sigma_sre: a Lindley chain from W_0 = 0 run
    trunc_T steps, then `size` sampled steps. Returns the count of
    positive terms (1 - e^{alpha V_n})_+, then the regeneration-cycle
    sums: the cycle count, the sum of N, the sum of N^2, of D^2 and of
    N D, and last the sum of e^{alpha W_n / 2} over the sampled steps.

    A cycle ends at each sampled step with V_n <= 0 (W_n = 0), and only
    there can a term be positive, so N is the term of its last step and D
    its length in steps. The steps before the first end and after the
    last count as one cycle each, so the D sum to size and the N to the
    sum of every term.
    """
    succ = cycles = ssd = 0
    sn = ssn = snd = ew = 0.0
    last, n = -1, 0  # the step of the last cycle end, the steps so far
    for v in _lindley_blocks(problem, g, trunc_T, size, _EXP_FLOOR / alpha):
        ends = np.flatnonzero(v <= 0.0)
        term = v[ends]
        term *= alpha
        np.expm1(term, out=term)
        np.negative(term, out=term)  # exactly 1.0 at a floored zero A
        ends += n
        d = np.diff(ends, prepend=last)
        succ += int(np.count_nonzero(term))
        cycles += ends.size
        sn += float(np.add.reduce(term))
        ssn += float(np.dot(term, term))
        ssd += int(np.dot(d, d))
        snd += float(np.dot(term, d))
        if ends.size:
            last = int(ends[-1])
        np.maximum(v, 0.0, out=v)
        v *= 0.5 * alpha
        ew += float(np.add.reduce(np.exp(v, out=v)))
        n += v.size
    if last < size - 1:  # the steps after the last end: N = 0
        cycles += 1
        ssd += (size - 1 - last) ** 2
    return succ, cycles, sn, ssn, ssd, snd, ew


def theta_sigma_sre(problem: KestenProblem, alpha: float,
                    mc_reps: int = 200_000, trunc_T: int = 10_000,
                    seed: RngSeed = RngSeed(0),
                    threads: int = 1) -> ThetaTheoryResult:
    """Extremal index of the SRE volatility sequence,
    theta_sigma = E(1 - e^{alpha M})_+ with M = sup_{t>=1} sum_{j<=t} log A_j,
    the integral above after the change of variables y -> Pareto(alpha).

    The samples of M come from a Lindley chain. W_n = (W_{n-1} + log A_n)_+
    is a stationary Markov chain when W_0 has the law of sup_{t>=0} of
    the walk, and then V_n = W_{n-1} + log A_n has the law of M, since
    log A_n is independent of W_{n-1} (Lindley's recursion read
    backwards in time). So every step of one chain gives one sample of M.
    Each _mc_sums chunk runs one chain from W_0 = 0: trunc_T burn-in
    steps, then its share of the mc_reps sampled steps, and the value is
    the mean of (1 - e^{alpha V_n})_+ over all of them (_lindley_sums).
    At the default 2 * 10^5 samples and trunc_T, the burn-in of the 7
    chunks adds 70,000 draws of A (35%) to the samples' 200,000.

    mc_stderr comes from regeneration cycles: the chain forgets its past
    at each W_n = 0, so the cycles between such steps are independent,
    and the value is the ratio of the cycle sums of terms and of lengths,
    whose delta-method standard error _ratio_stderr gives.

    truncation["risk_fraction"] bounds the chance that a chunk's sampled
    steps still depend on the chain's start. Couple the chain with a
    stationary one, W'_0 ~ pi, driven by the same log A. From W_0 = 0 <=
    W'_0 the two stay ordered, W_n <= W'_n, and they agree from the first
    n with W'_n = 0 on. Until then W'_0 + S_n > 0, S_n the sum of the
    first n log A, so by Markov's inequality at exponent alpha / 2
        P(not coupled by T) <= P(W'_0 + S_T > 0)
                            <= E e^{alpha W / 2} (E A^{alpha/2})^T.
    E A^{alpha/2} < 1 when E A^alpha = 1, by convexity, so the bound falls
    geometrically in T = trunc_T. The first factor is the mean of
    e^{alpha W_n / 2} over the sampled steps (Lundberg's inequality caps
    it at 2), the second the mean of A^{alpha/2} over the calibration
    sample. The bound, capped at 1, warns above 1%.
    """
    check_seed(seed)
    check_int("mc_reps", mc_reps, 2)
    check_int("trunc_T", trunc_T, 1)
    positive("alpha", alpha)
    check_int("threads", threads, 1)
    _check_alpha(problem, alpha)
    succ, cycles, sn, ssn, ssd, snd, ew = _mc_sums(
        lambda g, size: _lindley_sums(problem, g, size, trunc_T, alpha),
        _CHUNK, mc_reps, seed, threads)
    _check_count(succ, mc_reps, "the success count")
    se = _ratio_stderr(cycles, sn, mc_reps, ssn, ssd, snd)
    decay = float(np.mean(problem._calibration ** (0.5 * alpha))) ** trunc_T
    risk_frac = min(ew / mc_reps * decay, 1.0) if decay else 0.0
    if risk_frac > 0.01:
        warnings.warn(f"truncation risk {risk_frac:.3f} exceeds 1%; "
                      "increase trunc_T")
    return ThetaTheoryResult(sn / mc_reps, se,
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
    check_seed(seed)
    check_int("mc_reps", mc_reps, 2)
    check_int("trunc_T", trunc_T, 1)
    positive("alpha", alpha)
    _check_alpha(problem, alpha)
    g = seed.generator()
    sup, hit = _sup_log_products(problem, g, mc_reps, 0.0, trunc_T, alpha)
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


def _checked_z(z: InnovationSpec, r: float) -> InnovationSpec:
    """z at unit scale: constant(1.0) for a nonzero constant, laplace(1.0)
    for any Laplace law. The quantities do not depend on the scale of Z,
    whose powers leave float at 1e-100 or 1e60."""
    _check_type("z", z, InnovationSpec)
    if z.kind == "constant" and z.c != 0:
        return constant(1.0)
    if z.kind == "laplace":
        z = laplace(1.0)
    if moment_abs(z, r) == 0.0:  # raises "moment diverges" when infinite
        raise ValueError("degenerate z with E|Z|^r = 0")
    return z


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
    check_seed(seed)
    check_int("mc_reps", mc_reps, 2)
    check_int("m", m, 1)
    positive("alpha", alpha)
    positive("p", p)
    check_int("threads", threads, 1)
    ap = alpha * p
    z = _checked_z(z, ap)
    _check_alpha(problem, alpha)

    def one(g: np.random.Generator, size: int):
        t1 = _abs_power(z, g, size, ap)
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

    num, sd, ssn, ssd, snd, live = _mc_sums(one, _CHUNK, mc_reps, seed,
                                            threads)
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
    check_seed(seed)
    # each item as MaSvConfig reads psi; float() would pass True or '2'
    if np.ndim(psi) != 1:
        raise ValueError("psi must be one-dimensional")
    if not all(map(finite_real, psi)):
        raise ValueError(f"psi must be finite numbers, got {psi!r}")
    check_int("mc_reps", mc_reps, 2)
    positive("alpha", alpha)
    positive("p", p)
    check_int("threads", threads, 1)
    ap = alpha * p
    z = _checked_z(z, ap)
    w = np.abs(np.asarray(psi, dtype=float))
    if w.size == 0 or not np.any(w > 0):
        raise ValueError("psi needs at least one nonzero coefficient")
    r = (w / w.max()) ** alpha
    rsum = float(r.sum())
    if z.kind == "constant":
        return ThetaTheoryResult(1.0 / rsum, 0.0, {}, 0)
    q1 = w.size

    def one(g: np.random.Generator, size: int):
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

    sn, sd, ssn, ssd, snd = _mc_sums(one, max(_MA_CHUNK // q1, 1), mc_reps,
                                     seed, threads)
    return ThetaTheoryResult(min(float(sn / sd), 1.0),
                             _ratio_stderr(mc_reps, sn, sd, ssn, ssd, snd),
                             {}, mc_reps)
