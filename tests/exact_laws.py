"""Exact finite-level targets computed from the models' own laws.

The tail and cluster tests compare path estimators with the values those
estimators should read at the level they use. Those values come from here,
not from the limits (index 4, extremal index 1/2), because at reachable
levels the laws have not reached their limits yet. Nothing in this module
simulates a path or calls an estimator: every value is computed from the
innovation laws, by inverting a characteristic function or by quadrature.

Hill at k order statistics out of n estimates the local index of the law at
tail probability p = k/n,

    alpha(u) = P(V > u) / int_u^inf P(V > x) dx / x,   P(V > u) = p,

which equals the tail index only in the limit u -> inf.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import loggamma

# the models the tests use: exp-AR(1) with phi = 0.9 and Laplace(4) noise,
# and the psi = (1, 1) moving average of Pareto(4) innovations
PHI, RATE = 0.9, 4.0
ALPHA = 4

# log-scale grid for the exp-AR(1) laws: wide enough that the density at
# either end is below 1e-17, fine enough that the trapezoid sums are
# accurate to about 1e-6 relative
_GRID_N = 2 ** 16
_GRID_LO, _GRID_HI = -50.0, 20.0


def _exp_ar1_log_cf(t):
    # Y = sum_j PHI^j eta_j with Laplace(RATE) eta: E e^{itY} is the product
    # of RATE^2 / (RATE^2 + PHI^(2j) t^2), real and even in t
    out = np.zeros_like(t)
    j = 0
    while True:
        w = PHI ** (2 * j) * t * t / RATE ** 2
        if w.max() < 1e-18:
            return out
        out -= np.log1p(w)
        j += 1


def _log_abs_normal_cf(t):
    # E |Z|^{it} = 2^{it/2} Gamma((1 + it)/2) / Gamma(1/2)
    return np.exp(0.5j * t * np.log(2.0) + loggamma(0.5 + 0.5j * t)
                  - loggamma(0.5))


def _integral_to_right_end(f, h):
    # int_{v_i}^{end} f on a grid of spacing h, by the trapezoid rule
    return np.append(np.cumsum((0.5 * h * (f[1:] + f[:-1]))[::-1])[::-1],
                     0.0)


@lru_cache(maxsize=None)
def _exp_ar1_tail_table(series):
    """(log P(V > v), alpha(v)) on the grid of v = log of the series."""
    h = (_GRID_HI - _GRID_LO) / _GRID_N
    t = 2.0 * np.pi * np.fft.rfftfreq(_GRID_N, d=h)
    cf = np.exp(_exp_ar1_log_cf(t)).astype(complex)
    if series == "x_abs":
        cf = cf * _log_abs_normal_cf(t)
    elif series != "sigma":
        raise ValueError("series must be 'sigma' or 'x_abs'")
    # density of log V on the grid v_i = _GRID_LO + i h:
    # f(v) = (1/2 pi) int e^{-itv} cf(t) dt
    dens = np.fft.irfft(np.conj(cf * np.exp(-1j * t * _GRID_LO)),
                        n=_GRID_N) / h
    # alpha(v) = S(v) / int_v^inf S(y) dy on the log scale
    surv = _integral_to_right_end(dens, h)
    tail = _integral_to_right_end(surv, h)
    keep = surv > 1e-13
    return np.log(surv[keep]), surv[keep] / tail[keep]


def exp_ar1_local_index(p, series="sigma"):
    """Local index of sigma = exp(Y) or |X| = sigma |Z| at tail probability p.

    Y is the stationary AR(1) log-volatility with coefficient PHI and
    Laplace(RATE) noise, Z is standard normal; the tail index of both
    series is RATE. The density of log V comes from a 2^16-point FFT of its
    characteristic function.
    """
    log_s, alpha = _exp_ar1_tail_table(series)
    # log_s decreases along the grid; np.interp wants increasing abscissae
    return np.interp(np.log(p), log_s[::-1], alpha[::-1])


# -- psi = (1, 1) moving average of Pareto(ALPHA) innovations -------------

def pareto_pair_survival(s):
    """P(eta_1 + eta_2 > s) for i.i.d. Pareto(ALPHA) on [1, inf).

    eta_1 > s - 1 decides alone; otherwise eta_1 = x in [1, s - 1] needs
    eta_2 > s - x, which adds int_1^{s-1} a x^(-a-1) (s-x)^(-a) dx with
    a = ALPHA. With x = s t and the partial fractions
      t^(-a-1) (1-t)^(-a) = sum_k c_k (t^(-k) + (1-t)^(-k)),
    the integral is elementary for integer a; writing each term as a power
    of s keeps it free of overflow and cancellation at large s.
    """
    a = ALPHA
    if s <= 2.0:
        return 1.0
    # c_k: the t^(-k) coefficient C(2a - k, a - 1) plus the (1-t)^(-k)
    # coefficient C(2a - k, a), which is 0 for k = a + 1
    c = [math.comb(2 * a - k, a - 1) + math.comb(2 * a - k, a)
         for k in range(a + 2)]
    ls = math.log(s - 1.0)
    total = c[1] * s ** (-2 * a) * ls
    for k in range(2, a + 2):
        total += (c[k] * s ** (k - 1 - 2 * a)
                  * -math.expm1((1 - k) * ls) / (k - 1))
    return (s - 1.0) ** (-a) + a * total


def pareto_pair_quantile(p):
    """u with P(eta_1 + eta_2 > u) = p, for 0 < p < 1."""
    hi = 4.0 * p ** (-1.0 / ALPHA) + 2.0
    return brentq(lambda s: pareto_pair_survival(s) - p, 2.0, hi,
                  xtol=1e-13, rtol=1e-13)


def ma_sigma_local_index(p):
    """Local index of sigma = eta_t + eta_{t-1} at tail probability p."""
    u = pareto_pair_quantile(p)
    tail, _ = quad(lambda x: pareto_pair_survival(x) / x, u, np.inf,
                   epsabs=0.0, epsrel=1e-10, limit=200)
    return p / tail


def ma_theta_runs(u):
    """Finite-level extremal index P(X_2 <= u | X_1 > u) of the MA path.

    X_t = eta_t + eta_{t-1} with Pareto(ALPHA) eta (psi = (1, 1), Z = 1).
    X_1 and X_2 share eta_1 = y; X_1 > u >= X_2 needs eta_0 > u - y and
    eta_2 <= u - y, which is possible only when u - y >= 1.
    """
    if u <= 2.0:
        raise ValueError("need u > 2, the lower end of X")

    def integrand(y):
        g = (u - y) ** (-ALPHA)
        return ALPHA * y ** (-ALPHA - 1.0) * g * (1.0 - g)

    num, _ = quad(integrand, 1.0, u - 1.0, points=(0.5 * u,), epsabs=0.0,
                  epsrel=1e-10, limit=200)
    return num / pareto_pair_survival(u)


# -- two-point multipliers: log A = +h with probability P, else -h --------
# E A^alpha = 1 at alpha = log(Q/P) / h, where e^{alpha h} = Q/P, and the
# log products are h times a +-1 random walk S_t with upward probability
# P. Every value below depends on P alone, not on h.

P_UP = 0.3
Q_DOWN = 1.0 - P_UP


def two_point_alpha(h):
    """The Kesten index of the two-point multipliers with step h."""
    return math.log(Q_DOWN / P_UP) / h


def two_point_theta_sigma():
    """theta_sigma = E(1 - sup_{t>=1} Pi_t^alpha)_+ = (Q - P)^2 / Q.

    Pi_t^alpha = (Q/P)^{S_t}, so only walks with sup S = -1 add: the first
    step goes down (Q) and the walk never returns to 0 (1 - P/Q). Each
    adds 1 - P/Q.
    """
    return (Q_DOWN - P_UP) ** 2 / Q_DOWN


def two_point_theta_x_sequence(m):
    """theta_x_sre's sequence for m' = 1..m with Z == 1.

    The m'-th value is E(1 - (Q/P)^{M_{m'-1}})_+, with M_k the running max
    of S over steps 1..k (the empty max adds nothing, so the first value
    is 1). A walk adds only while M <= -1, so the dynamic programme tracks
    the probability of each (position, max) pair among those walks.
    """
    r = P_UP / Q_DOWN
    out = [1.0]
    states = {(-1, -1): Q_DOWN}
    for _ in range(1, m):
        out.append(sum(w * (1.0 - r ** -mx) for (_, mx), w in states.items()))
        nxt = {}
        for (pos, mx), w in states.items():
            down = (pos - 1, mx)
            nxt[down] = nxt.get(down, 0.0) + w * Q_DOWN
            if pos + 1 <= -1:
                up = (pos + 1, max(mx, pos + 1))
                nxt[up] = nxt.get(up, 0.0) + w * P_UP
        states = nxt
    return np.array(out)
