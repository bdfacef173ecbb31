"""Theory-evaluator tests: oracles, exact degenerate cases, cross-checks.

Frozen oracle values and their provenance:
  * kappa for A = 0.1 eta^2 + 0.89, eta standard normal: 1.9954946282347668
    by 200-point Gauss-Hermite quadrature of E A^kappa (bisection to 1e-13).
  * theta for psi=(1,1), alpha=4, p=1, Z standard normal: 0.924413657462314
    by Gauss-Legendre evaluation of 2 E[Z^4 (2 Phi(|Z|) - 1)] / (2 E Z^4),
    i.e. the exact two-term max/mean ratio.
  * theta_x_sre sequence for the multipliers above (alpha=2, p=2, Z normal),
    400k-replicate reference run: m=2: 0.8516, m=5: 0.6176, m=10: 0.4594,
    m=25: 0.3225, m=50: 0.2733.
  * two-point multipliers log A = +-h, P(+h) = 0.3: theta_sigma and the
    Z == 1 theta_x_sre sequence in closed form / by dynamic programming
    (exact_laws.two_point_*), the same for every h.
"""

import math
import warnings

import numpy as np
import pytest

from svextremes import (Garch11Pair, GenericPair, KestenProblem, RngSeed,
                        SreSvConfig, ThetaTheoryResult, constant,
                        kesten_index, laplace, pareto, std_normal, student_t,
                        theta_sigma_sre, theta_sigma_sre_quadrature,
                        theta_x_ma, theta_x_sre)
from svextremes import theory
from svextremes.distributions import draw
from svextremes.models import probe_multipliers
from svextremes.rng import chunk_sizes

import exact_laws

KAPPA_ORACLE = 1.9954946282347668
MA_THETA_ORACLE = 0.924413657462314
SRE_SEQ_ORACLE = {2: 0.8516, 5: 0.6176, 10: 0.4594, 25: 0.3225, 50: 0.2733}


def garch_problem():
    return KestenProblem(Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89,
                                     eta=std_normal()))


def zero_problem():
    return KestenProblem(constant(0.0))


def two_point_problem(h):
    # log A = +h with probability P_UP, else -h
    def sampler(g, size):
        return np.exp(np.where(g.random(size) < exact_laws.P_UP, h, -h))

    return KestenProblem(sampler)


# -- Kesten index ---------------------------------------------------------

def test_kesten_garch_multipliers_match_quadrature_oracle():
    r = kesten_index(garch_problem(), mc_reps=200_000, seed=RngSeed(0))
    assert abs(r.kappa - KAPPA_ORACLE) < 0.05
    assert abs(r.kappa - 2.0) < 0.05
    assert r.mc_reps == 200_000
    assert r.bracket == (1e-3, 64.0)
    assert r.f_stderr > 0


def test_kesten_index_bit_equal_to_out_of_place_formula():
    # kesten_index works in place to bound its memory; the reference is
    # the sorted copy and the fresh A^kappa array it replaced
    seed = RngSeed(5)
    r = kesten_index(garch_problem(), mc_reps=50_000, seed=seed)
    la = np.sort(np.log(garch_problem().draw_a(seed.generator(), 50_000)))
    pow_a = np.exp(r.kappa * la)
    assert abs(float(np.mean(pow_a)) - 1.0) < 1e-4
    assert r.f_stderr == float(np.std(pow_a, ddof=1) / math.sqrt(50_000))

def test_kesten_lognormal_closed_form():
    # log A ~ Normal(-1/2, 1) has E A^kappa = exp(-kappa/2 + kappa^2/2),
    # equal to 1 at kappa = 1
    def sampler(g, size):
        return np.exp(g.normal(-0.5, 1.0, size))

    r = kesten_index(KestenProblem(sampler), mc_reps=200_000, seed=RngSeed(0))
    assert abs(r.kappa - 1.0) < 0.05


def test_kesten_bounded_multiplier_has_no_root():
    with pytest.raises(ValueError, match="no finite tail index"):
        kesten_index(KestenProblem(constant(0.5)), mc_reps=10_000)


def test_kesten_bracket_too_small():
    # the two-point law at h = 0.01 has its root log(Q/P)/h = 84.7, above
    # the bracket's upper end 64
    assert exact_laws.two_point_alpha(0.01) > 64.0
    with pytest.raises(ValueError, match="no finite tail index"):
        kesten_index(two_point_problem(0.01), mc_reps=50_000)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-4])
def test_kesten_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        kesten_index(garch_problem(), mc_reps=1000, tol=tol)


def test_kesten_problem_validation():
    with pytest.raises(ValueError, match="no stationary solution"):
        KestenProblem(pareto(4.0))  # E log A > 0 on [1, inf)
    with pytest.raises(ValueError, match="non-negative"):
        KestenProblem(std_normal())
    with pytest.raises(ValueError, match="negative values"):
        KestenProblem(lambda g, size: g.normal(size=size))
    with pytest.raises(ValueError, match="mc_reps"):
        kesten_index(garch_problem(), mc_reps=1)


# a GARCH pair at the edge of stationarity: on the probe's 10^5 draws
# mean log A is -3.3 standard errors, just past the -3 it needs
NEAR_CRITICAL = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.9068,
                            eta=std_normal())


@pytest.mark.parametrize("pair, stationary", [
    (NEAR_CRITICAL, True),
    (Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.95, eta=std_normal()),
     False),
    (GenericPair(pareto(4.0), constant(1.0)), False),
    (GenericPair(constant(0.0), pareto(3.0)), True),
], ids=["near-critical", "garch-explosive", "pareto-a", "zero-a"])
def test_model_and_kesten_problem_share_one_probe(pair, stationary):
    # one probe: a pair simulates exactly when its multiplier law is a
    # KestenProblem, and both see the same calibration draws
    if not stationary:
        with pytest.raises(ValueError, match="no stationary solution"):
            SreSvConfig(p=2.0, pair_source=pair, z=std_normal())
        with pytest.raises(ValueError, match="no stationary solution"):
            KestenProblem(pair)
        return
    SreSvConfig(p=2.0, pair_source=pair, z=std_normal())
    assert np.array_equal(KestenProblem(pair)._calibration,
                          probe_multipliers(pair.draw_a))


def test_generic_pair_draws_its_own_multiplier():
    pair = GenericPair(constant(0.0), pareto(3.0))
    prob = KestenProblem(pair)
    assert not prob._calibration.any()
    assert theta_sigma_sre(prob, alpha=1.0, mc_reps=1000).value == 1.0
    with pytest.raises(ValueError, match="no finite tail index"):
        kesten_index(prob, mc_reps=1000)
    half = KestenProblem(GenericPair(constant(0.5), pareto(3.0)))
    assert np.all(half.draw_a(RngSeed(0).generator(), 5) == 0.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("name, call", [
    ("alpha", lambda v: theta_sigma_sre(zero_problem(), alpha=v,
                                        mc_reps=100)),
    ("alpha", lambda v: theta_sigma_sre_quadrature(zero_problem(), alpha=v,
                                                   mc_reps=100)),
    ("alpha", lambda v: theta_x_sre(zero_problem(), std_normal(), alpha=v,
                                    p=1.0, m=2, mc_reps=100)),
    ("p", lambda v: theta_x_sre(zero_problem(), std_normal(), alpha=1.0,
                                p=v, m=2, mc_reps=100)),
    ("alpha", lambda v: theta_x_ma((1.0, 1.0), alpha=v, p=1.0,
                                   z=std_normal(), mc_reps=100)),
    ("p", lambda v: theta_x_ma((1.0, 1.0), alpha=4.0, p=v,
                               z=std_normal(), mc_reps=100)),
    ("alpha", lambda v: theta_x_ma((1.0, 1.0), alpha=v, p=1.0,
                                   z=constant(1.0))),
    ("p", lambda v: theta_x_ma((1.0, 1.0), alpha=4.0, p=v,
                               z=constant(1.0))),
], ids=["theta_sigma_sre", "quadrature", "theta_x_sre-alpha",
        "theta_x_sre-p", "theta_x_ma-alpha", "theta_x_ma-p",
        "theta_x_ma-constant-z-alpha", "theta_x_ma-constant-z-p"])
def test_alpha_and_p_must_be_finite_and_positive(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        call(bad)


@pytest.mark.parametrize("reps", [0, 1])
@pytest.mark.parametrize("call", [
    lambda n: theta_sigma_sre(zero_problem(), alpha=1.0, mc_reps=n),
    lambda n: theta_sigma_sre_quadrature(zero_problem(), alpha=1.0,
                                         mc_reps=n),
    lambda n: theta_x_sre(zero_problem(), std_normal(), alpha=1.0, p=1.0,
                          m=2, mc_reps=n),
    lambda n: theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=std_normal(),
                         mc_reps=n),
    lambda n: theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=constant(1.0),
                         mc_reps=n),
], ids=["theta_sigma_sre", "quadrature", "theta_x_sre", "theta_x_ma",
        "theta_x_ma-constant-z"])
def test_mc_reps_below_two_rejected(call, reps):
    with pytest.raises(ValueError, match="mc_reps must be >= 2"):
        call(reps)


# -- theta_sigma ----------------------------------------------------------

def test_theta_sigma_zero_multiplier_is_one():
    # A == 0 kills every product immediately, so no extremal clustering
    r = theta_sigma_sre(zero_problem(), alpha=1.0, mc_reps=5000)
    assert r.value == 1.0
    assert r.truncation["risk_fraction"] == 0.0


def test_theta_sigma_two_routes_agree():
    prob = garch_problem()
    mc = theta_sigma_sre(prob, alpha=2.0, mc_reps=50_000, seed=RngSeed(1))
    quad = theta_sigma_sre_quadrature(prob, alpha=2.0, mc_reps=50_000,
                                      seed=RngSeed(2))
    assert abs(mc.value - quad.value) < 0.02
    assert 0 < mc.value < 0.2  # strong volatility clustering at these params
    assert mc.mc_stderr > 0


@pytest.mark.parametrize("h", [0.5, 12.0])
def test_theta_sigma_matches_two_point_law(h):
    # at h = 12 (alpha ~ 0.07) a walk must fall ~425 below its sup before
    # a climb back is negligible; a fixed floor at log Pi = -30 read high
    r = theta_sigma_sre(two_point_problem(h), exact_laws.two_point_alpha(h),
                        mc_reps=200_000, seed=RngSeed(1))
    assert abs(r.value - exact_laws.two_point_theta_sigma()) < 4 * r.mc_stderr
    assert r.truncation["risk_fraction"] == 0.0


def test_theta_sigma_quadrature_matches_two_point_law():
    r = theta_sigma_sre_quadrature(two_point_problem(0.5),
                                   exact_laws.two_point_alpha(0.5),
                                   mc_reps=200_000, seed=RngSeed(1))
    assert abs(r.value - exact_laws.two_point_theta_sigma()) < r.mc_stderr
    assert r.truncation["risk_fraction"] == 0.0


def test_theta_sigma_quadrature_reports_the_replicate_stderr():
    # a replicate adds 1 - P/Q when its walk never returns to 0, which
    # happens with probability Q - P, and 0 otherwise: sd 0.2799
    mc_reps = 200_000
    r = theta_sigma_sre_quadrature(two_point_problem(0.5),
                                   exact_laws.two_point_alpha(0.5),
                                   mc_reps=mc_reps, seed=RngSeed(1))
    p, q = exact_laws.P_UP, exact_laws.Q_DOWN
    sd = (1.0 - p / q) * math.sqrt((q - p) * (1.0 - (q - p)))
    assert abs(sd - 0.2799) < 1e-4
    se = sd / math.sqrt(mc_reps)
    assert abs(r.mc_stderr - se) < 0.1 * se


def test_theta_sigma_rejects_wrong_alpha():
    with pytest.raises(ValueError, match="alpha inconsistent"):
        theta_sigma_sre(garch_problem(), alpha=3.0, mc_reps=1000)


def test_theta_sigma_truncation_warning():
    # products of the GARCH multipliers decay at rate |E log A| ~ 0.015 per
    # step, so a horizon of 50 leaves most replicates unresolved
    with pytest.warns(UserWarning, match="truncation risk"):
        r = theta_sigma_sre(garch_problem(), alpha=2.0, mc_reps=2000,
                            trunc_T=50)
    assert r.truncation["risk_fraction"] > 0.01
    with pytest.raises(ValueError, match="trunc_T"):
        theta_sigma_sre(garch_problem(), alpha=2.0, mc_reps=100, trunc_T=0)
    with pytest.raises(ValueError, match="trunc_T"):
        theta_sigma_sre_quadrature(garch_problem(), alpha=2.0, mc_reps=100,
                                   trunc_T=0)


def scalar_sup_walks(problem, g, cap, trunc_T, alpha):
    """theory._sup_log_products one replicate and one step at a time.

    Draws what the block steps draw: with L walks live after t steps, a
    row of k = clamp(2^15 // L, 1, trunc_T - t) log-multipliers for each,
    row by row. Each walk then adds its row left to right and stops at
    the first step where its sup passes its cap, its log product lies
    30 / alpha or more below its sup, or its horizon trunc_T is reached.
    """
    depth = 30.0 / alpha
    n = cap.size
    logprod, sup = [0.0] * n, [-math.inf] * n
    sup_out, hit = [0.0] * n, [False] * n
    live, t = list(range(n)), 0
    while live and t < trunc_T:
        k = min(max(2 ** 15 // len(live), 1), trunc_T - t)
        t += k
        with np.errstate(divide="ignore"):
            la = np.log(problem.draw_a(g, len(live) * k)).tolist()
        still = []
        for row, r in enumerate(live):
            for a in la[row * k:(row + 1) * k]:
                logprod[r] += a
                sup[r] = max(sup[r], logprod[r])
                if sup[r] > cap[r] or logprod[r] <= sup[r] - depth:
                    sup_out[r] = sup[r]
                    break
            else:
                still.append(r)
        live = still
    for r in live:
        sup_out[r], hit[r] = sup[r], True
    return np.array(sup_out), np.array(hit)


def zero_or_two_point_problem(h):
    # the two-point law, with A = 0 (log A = -inf) 5% of the time
    def sampler(g, size):
        a = np.exp(np.where(g.random(size) < exact_laws.P_UP, h, -h))
        a[g.random(size) < 0.05] = 0.0
        return a

    return KestenProblem(sampler)


@pytest.mark.parametrize("case", ["cap", "lundberg", "zero", "horizon"])
def test_sup_log_products_matches_a_scalar_walk(case):
    alpha = exact_laws.two_point_alpha(0.5)
    g = np.random.default_rng(7)
    if case == "cap":  # theta_sigma_sre's caps log(U) / alpha
        prob, n, trunc_T = garch_problem(), 300, 10_000
        alpha = 2.0
        cap = np.log(1.0 - g.random(n)) / alpha
    elif case == "lundberg":  # caps out of reach: only the floor stops
        # walks of ~1000 steps span blocks, where the order of the sums
        # shows in the last bits
        prob, n, trunc_T = garch_problem(), 300, 10_000
        alpha = 2.0
        cap = np.full(n, np.inf)
    elif case == "zero":
        prob, n, trunc_T = zero_or_two_point_problem(0.5), 300, 10_000
        cap = np.zeros(n)
    else:  # 100 walks take blocks of 327 steps; 500 ends inside the second
        prob, n, trunc_T = garch_problem(), 100, 500
        alpha = 2.0
        cap = np.full(n, np.inf)
    sup, hit = theory._sup_log_products(prob, np.random.default_rng(3), cap,
                                        trunc_T, alpha)
    ref_sup, ref_hit = scalar_sup_walks(prob, np.random.default_rng(3), cap,
                                        trunc_T, alpha)
    assert np.array_equal(sup.view(np.int64), ref_sup.view(np.int64))
    assert np.array_equal(hit, ref_hit)
    stopped = ~hit
    if case == "cap":
        assert np.any(sup > cap) and np.any(stopped & (sup <= cap))
    elif case == "lundberg":
        assert stopped.all() and np.all(np.isfinite(sup))
    elif case == "zero":
        assert np.any(sup == -np.inf) and stopped.all()
    else:
        assert 0 < np.count_nonzero(hit) < n


def test_theta_sigma_thread_invariant():
    # four chunks of 2^15 replicates or fewer
    args = dict(alpha=2.0, mc_reps=3 * 2 ** 15 + 1000, seed=RngSeed(6))
    runs = [theta_sigma_sre(garch_problem(), threads=t, **args).to_json()
            for t in (1, 2, 3, 5)]
    assert all(r == runs[0] for r in runs[1:])


def test_zero_count_names_mc_reps():
    # no replicate of 10 succeeds: theta would read 0, which only says it
    # lies below what 10 replicates resolve
    with pytest.raises(ValueError, match=r"success count is 0 of mc_reps=10"):
        theta_sigma_sre(garch_problem(), alpha=2.0, mc_reps=10,
                        seed=RngSeed(0))
    with pytest.raises(ValueError,
                       match=r"live at m=50 is 0 of mc_reps=10"):
        theta_x_sre(garch_problem(), std_normal(), alpha=2.0, p=2.0, m=50,
                    mc_reps=10, seed=RngSeed(0))
    with pytest.raises(ValueError, match=r"sups <= 0 is 0 of mc_reps=10"):
        theta_sigma_sre_quadrature(garch_problem(), alpha=2.0, mc_reps=10,
                                   seed=RngSeed(4))


# -- theta_x for SRE volatility -------------------------------------------

def test_theta_x_sre_m_one_is_exactly_one():
    r = theta_x_sre(garch_problem(), std_normal(), alpha=2.0, p=2.0, m=1,
                    mc_reps=1000)
    assert r.value == 1.0
    assert np.array_equal(r.sequence, np.ones(1))


def test_theta_x_sre_zero_multiplier_sequence_is_flat():
    r = theta_x_sre(zero_problem(), std_normal(), alpha=1.0, p=1.0, m=5,
                    mc_reps=2000)
    assert np.array_equal(r.sequence, np.ones(5))


def test_theta_x_sre_sequence_matches_reference_run():
    r = theta_x_sre(garch_problem(), std_normal(), alpha=2.0, p=2.0, m=50,
                    mc_reps=100_000, seed=RngSeed(0))
    for m_ref, val in SRE_SEQ_ORACLE.items():
        assert abs(r.sequence[m_ref - 1] - val) < 0.02
    assert np.all(np.diff(r.sequence) <= 0)
    assert r.sequence[0] == 1.0
    assert r.value == r.sequence[-1]


def test_theta_x_sre_matches_two_point_law():
    # Z == 1: the m-th value is E(1 - e^{alpha h M_{m-1}})_+; an explicit m
    # reads the same value as the longer run's sequence at that m
    exact = exact_laws.two_point_theta_x_sequence(50)
    args = dict(problem=two_point_problem(0.5), z=constant(1.0),
                alpha=exact_laws.two_point_alpha(0.5), p=1.0,
                mc_reps=200_000, seed=RngSeed(1))
    full = theta_x_sre(m=50, **args)
    for m in (2, 5, 10, 50):
        r = theta_x_sre(m=m, **args)
        assert abs(r.value - exact[m - 1]) < 4 * r.mc_stderr
        assert r.value == full.sequence[m - 1]


def test_theta_x_sre_live_fraction():
    # replicates whose running max reached |Z_1|^{alpha p} stop; the
    # rest are live, all of them at m = 1 and with A == 0 (max stays 0)
    one = theta_x_sre(garch_problem(), std_normal(), alpha=2.0, p=2.0, m=1,
                      mc_reps=1000)
    assert one.truncation == {"m": 1, "live_fraction": 1.0}
    flat = theta_x_sre(zero_problem(), std_normal(), alpha=1.0, p=1.0, m=5,
                       mc_reps=2000)
    assert flat.truncation["live_fraction"] == 1.0
    fig2 = [theta_x_sre(garch_problem(), std_normal(), alpha=2.0, p=2.0,
                        m=m, mc_reps=20_000, seed=RngSeed(3))
            for m in (2, 50)]
    lf = [r.truncation["live_fraction"] for r in fig2]
    assert 0.0 < lf[1] < lf[0] < 1.0
    assert 0.02 < lf[1] < 0.1  # about 5% still unresolved at m = 50


def test_theta_x_sre_thread_invariant():
    args = dict(z=std_normal(), alpha=2.0, p=2.0, m=10, mc_reps=150_000,
                seed=RngSeed(4))
    r1 = theta_x_sre(garch_problem(), threads=1, **args)
    r3 = theta_x_sre(garch_problem(), threads=3, **args)
    assert r1.value == r3.value
    assert np.array_equal(r1.sequence, r3.sequence)
    assert r1.mc_stderr == r3.mc_stderr


def test_theta_x_sre_moment_guards():
    with pytest.raises(ValueError, match="moment diverges"):
        theta_x_sre(garch_problem(), student_t(3.0), alpha=2.0, p=2.0, m=5)
    with pytest.raises(ValueError, match="degenerate z"):
        theta_x_sre(garch_problem(), constant(0.0), alpha=2.0, p=2.0, m=5)
    with pytest.raises(ValueError, match="m must be"):
        theta_x_sre(garch_problem(), std_normal(), alpha=2.0, p=2.0, m=0)


# -- theta_x for MA volatility --------------------------------------------

def test_theta_x_ma_single_coefficient_is_one():
    assert theta_x_ma((2.5,), alpha=4.0, p=1.0, z=constant(1.0)).value == 1.0
    r = theta_x_ma((2.5,), alpha=4.0, p=1.0, z=std_normal(), mc_reps=5000)
    assert r.value == 1.0  # max and mean coincide with one term


def test_theta_x_ma_constant_z_closed_forms():
    assert theta_x_ma((1.0, 1.0), alpha=1.0, p=1.0,
                      z=constant(1.0)).value == 0.5
    r = theta_x_ma((1.0, 0.5), alpha=4.0, p=1.0, z=constant(2.0))
    assert r.value == 1.0 / 1.0625
    assert r.mc_stderr == 0.0
    # sign of psi never matters
    assert theta_x_ma((-1.0, 1.0), alpha=4.0, p=1.0,
                      z=constant(1.0)).value == 0.5


def test_theta_x_ma_scale_invariant_exactly():
    a = theta_x_ma((2.0, 1.0), alpha=4.0, p=1.0, z=std_normal(),
                   mc_reps=20_000, seed=RngSeed(9))
    b = theta_x_ma((1.0, 0.5), alpha=4.0, p=1.0, z=std_normal(),
                   mc_reps=20_000, seed=RngSeed(9))
    assert a.value == b.value


def test_theta_x_ma_normal_z_matches_oracle():
    r = theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=std_normal(),
                   seed=RngSeed(0))
    assert abs(r.value - MA_THETA_ORACLE) < 4 * r.mc_stderr
    assert r.mc_stderr < 1e-3


def test_theta_x_ma_thread_invariant():
    a = theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=std_normal(),
                   mc_reps=100_000, seed=RngSeed(2), threads=1)
    b = theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=std_normal(),
                   mc_reps=100_000, seed=RngSeed(2), threads=4)
    assert a.value == b.value


@pytest.mark.parametrize("q", range(1, 8))
def test_theta_x_ma_equals_the_row_mean_formula(q):
    # the denominator as a row mean of t, chunk by chunk, bit for bit
    psi, alpha, p, z = np.linspace(1.0, -0.4, q), 3.0, 1.5, laplace(1.0)
    mc_reps, seed = 70_001, RngSeed(5)
    r = theta_x_ma(psi, alpha=alpha, p=p, z=z, mc_reps=mc_reps, seed=seed)
    w = np.abs(psi)
    rr = (w / w.max()) ** alpha
    sums = [0.0] * 5
    for i, size in enumerate(chunk_sizes(mc_reps, max(2 ** 16 // q, 1))):
        t = np.abs(draw(z, seed.generator(i), size * q)).reshape(
            size, q) ** (alpha * p)
        n_i = (t * rr).max(axis=1)
        d_i = t.mean(axis=1) * float(rr.sum())
        part = (n_i.sum(), d_i.sum(), (n_i * n_i).sum(), (d_i * d_i).sum(),
                (n_i * d_i).sum())
        sums = [a + float(b) for a, b in zip(sums, part)]
    sn, sd = sums[0], sums[1]
    assert r.value == min(sn / sd, 1.0)
    assert r.mc_stderr == theory._ratio_stderr(mc_reps, *sums)


@pytest.mark.parametrize("z", [laplace(1.0), student_t(8.0)],
                         ids=["laplace", "student_t"])
def test_theta_x_ma_capped_at_one(z):
    # the ratio of sample sums reads 1.047 +- 0.021 (Laplace) and
    # 1.0005 +- 0.019 (t(8)) at this seed; 2e5 replicates give 0.986
    r = theta_x_ma((0.189, -0.523), alpha=3.0, p=1.0, z=z, mc_reps=20011,
                   seed=RngSeed(2))
    assert r.value == 1.0
    assert 0.015 < r.mc_stderr < 0.025  # the uncapped ratio's
    assert r.mc_reps == 20011


def test_theta_x_ma_validation():
    with pytest.raises(ValueError, match="nonzero"):
        theta_x_ma((0.0, 0.0), alpha=4.0, p=1.0, z=std_normal())
    with pytest.raises(ValueError, match="degenerate z"):
        theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=constant(0.0))
    with pytest.raises(ValueError, match="moment diverges"):
        theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=student_t(4.0))


@pytest.mark.parametrize("psi", [(1.0, np.nan), (1.0, np.inf),
                                 (-np.inf, 0.5)])
@pytest.mark.parametrize("z", [std_normal(), constant(1.0)])
def test_theta_x_ma_psi_must_be_finite(psi, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(ValueError, match="^psi must be finite"):
            theta_x_ma(psi, alpha=4.0, p=1.0, z=z, mc_reps=100)


# -- result record --------------------------------------------------------

def test_theta_result_range_enforced():
    with pytest.raises(ValueError, match="theta must lie"):
        ThetaTheoryResult(0.0, 0.0, {}, 10)
    with pytest.raises(ValueError, match="theta must lie"):
        ThetaTheoryResult(1.5, 0.0, {}, 10)


def test_result_records_serialize():
    r = theta_x_sre(zero_problem(), std_normal(), alpha=1.0, p=1.0, m=3,
                    mc_reps=500)
    d = r.to_json()
    assert d["sequence"] == [1.0, 1.0, 1.0]
    k = kesten_index(garch_problem(), mc_reps=10_000, seed=RngSeed(0))
    assert set(k.to_json()) == {"kappa", "f_stderr", "mc_reps", "bracket"}
