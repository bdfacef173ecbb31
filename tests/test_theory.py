"""Theory-evaluator tests: oracles, exact degenerate cases, cross-checks.

Frozen oracle values and their provenance:
  * kappa for A = 0.1 eta^2 + 0.89, eta standard normal: 1.9954946282347668
    by 200-point Gauss-Hermite quadrature of E A^kappa (bisection to 1e-13);
    mpmath at 30 digits gives 1.99549462823475913.
  * theta for psi=(1,1), alpha=4, p=1, Z standard normal: 0.9244131815783876,
    the exact two-term max/mean ratio 2 E[Z^4 (2 Phi(|Z|) - 1)] / (2 E Z^4),
    equal to Int_0^inf (1 - erf(x / sqrt 2)^2) 4 x^3 dx / 6; mpmath at 30
    digits gives 0.924413181578387562 for both forms.
  * theta_x_sre sequence for the multipliers above (alpha=2, p=2, Z normal),
    400k-replicate reference run: m=2: 0.8516, m=5: 0.6176, m=10: 0.4594,
    m=25: 0.3225, m=50: 0.2733.
  * two-point multipliers log A = +-h, P(+h) = 0.3: theta_sigma and the
    Z == 1 theta_x_sre sequence in closed form / by dynamic programming
    (exact_laws.two_point_*), the same for every h.
"""

import math
import tracemalloc
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

import dense_kesten
import exact_laws

KAPPA_ORACLE = 1.9954946282347668
MA_THETA_ORACLE = 0.9244131815783876
SRE_SEQ_ORACLE = {2: 0.8516, 5: 0.6176, 10: 0.4594, 25: 0.3225, 50: 0.2733}


def garch_pair(alpha1=0.1, beta1=0.89):
    return Garch11Pair(alpha0=1e-7, alpha1=alpha1, beta1=beta1,
                       eta=std_normal())


def garch_problem():
    return KestenProblem(garch_pair())


def sampled(pair):
    # the same draws of A through a callable, which kesten_index always
    # solves on its sample route
    return KestenProblem(lambda g, n: pair.draw_a(g, n))


def zero_problem():
    return KestenProblem(constant(0.0))


def two_point_problem(h):
    # log A = +h with probability P_UP, else -h
    def sampler(g, size):
        return np.exp(np.where(g.random(size) < exact_laws.P_UP, h, -h))

    return KestenProblem(sampler)


# -- Kesten index ---------------------------------------------------------

def test_kesten_garch_multipliers_match_quadrature_oracle():
    # the exact route: a Gauss-Hermite rule, no Monte Carlo. At the root
    # f'(kappa) = E A^kappa log A = 0.022, so |f| < tol bounds the error
    # of kappa by tol / 0.022: 4.5e-12 at tol = 1e-13 (it stops 2.6e-12
    # off), 4.5e-13 at tol = 1e-14 (8e-14 off)
    r = kesten_index(garch_problem(), tol=1e-14)
    assert abs(r.kappa - KAPPA_ORACLE) < 1e-12
    assert (r.mc_reps, r.f_stderr) == (0, 0.0)
    assert r.bracket == (1e-3, 64.0)
    assert abs(kesten_index(garch_problem()).kappa - KAPPA_ORACLE) < 0.05


@pytest.mark.parametrize("alpha1, beta1", [(0.1, 0.89), (0.2, 0.75),
                                           (0.45, 0.45)])
def test_kesten_gauss_hermite_rule_is_converged(monkeypatch, alpha1, beta1):
    # fig2's pair and two heavier ones; beta1 = alpha1 is the exact
    # route's edge, where the rule converges slowest
    problem = KestenProblem(garch_pair(alpha1, beta1))
    r = kesten_index(problem, tol=1e-14)
    monkeypatch.setattr(theory, "_GH_NODES", 2 * theory._GH_NODES)
    r2 = kesten_index(problem, tol=1e-14)
    assert abs(r2.kappa - r.kappa) < 1e-12
    assert (r.mc_reps, r2.mc_reps) == (0, 0)


@pytest.mark.parametrize("pair, exact", [
    (garch_pair(), True), (garch_pair(0.45, 0.45), True),
    (garch_pair(0.9, 0.05), False),
    (Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=laplace(2.0)),
     False)], ids=["fig2", "edge", "beta1-below-alpha1", "laplace-eta"])
def test_kesten_route_follows_the_law(pair, exact):
    # beta1 < alpha1 puts the integrand's branch points within 1 of the
    # real line, where the fixed rule has not converged: the sample route
    r = kesten_index(KestenProblem(pair), mc_reps=1000, seed=RngSeed(1))
    assert (r.mc_reps == 0) == exact
    if not exact:
        assert (r.kappa, r.f_stderr) == dense_kesten.kesten_dense(
            KestenProblem(pair), 1000, RngSeed(1))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kesten_sample_route_agrees_with_the_exact_route(seed):
    # the sample root stops where |f_sample| < tol, and f_sample at the
    # exact root lies within 4 f_stderr of 0 but for a 6e-5 chance, so
    # kappa lies within (4 f_stderr + tol) / f'(kappa) of the exact root
    pair, tol = garch_pair(), 1e-4
    exact = kesten_index(KestenProblem(pair), tol=1e-14)
    r = kesten_index(sampled(pair), mc_reps=200_000, tol=tol,
                     seed=RngSeed(seed))
    x, w = theory._hermite_rule(theory._GH_NODES)
    a = pair._a_of(x.copy())
    slope = float(np.sum(w * a ** exact.kappa * np.log(a)))  # f'(kappa)
    assert r.mc_reps == 200_000 and r.f_stderr > 0
    assert abs(r.kappa - exact.kappa) < (4.0 * r.f_stderr + tol) / slope


def lognormal_problem():
    # log A ~ Normal(-1/2, 1) has E A^kappa = exp(-kappa/2 + kappa^2/2),
    # equal to 1 at kappa = 1
    def sampler(g, size):
        return np.exp(g.normal(-0.5, 1.0, size))

    return KestenProblem(sampler)


KESTEN_LAWS = {
    "garch-normal": lambda: sampled(garch_pair()),
    "garch-t5": lambda: KestenProblem(Garch11Pair(
        alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=student_t(5.0))),
    "two-point": lambda: two_point_problem(0.5),
    "lognormal": lognormal_problem,
    # zero multipliers: the sorted log sample starts with -inf
    "zero-normal": lambda: KestenProblem(
        lambda g, size: np.maximum(g.normal(0.3, 1.0, size), 0.0)),
}


@pytest.mark.parametrize("mc_reps", [2, 7, 65_536, 65_537, 300_001,
                                     1_000_000, 1_048_593])
@pytest.mark.parametrize("law", KESTEN_LAWS)
def test_kesten_index_bit_equal_to_out_of_place_formula(law, mc_reps):
    # kesten_index draws and reduces in slices to bound its memory; the
    # reference draws once and takes np.mean and np.std of whole arrays.
    # Sizes past 2^16 span several leaves of the pairwise-summation tree;
    # 1,048,593 = 16 * (2^16 + 1) + 1 spans two slices of the strided
    # bound sums and ends in a short run of one value
    seed = RngSeed(5)
    try:
        kappa, se = dense_kesten.kesten_dense(KESTEN_LAWS[law](), mc_reps,
                                              seed)
    except ValueError as e:
        assert mc_reps <= 7, e  # only a handful of draws can miss the root
        with pytest.raises(ValueError, match=f"^{e}$"):
            kesten_index(KESTEN_LAWS[law](), mc_reps=mc_reps, seed=seed)
        return
    r = kesten_index(KESTEN_LAWS[law](), mc_reps=mc_reps, seed=seed)
    assert r.kappa == kappa
    assert r.f_stderr == se


def test_kesten_index_holds_one_sample():
    # the sorted 8 MB log sample is its only mc_reps-long array; the
    # whole-array formula held two (16.0 MB)
    prob = sampled(garch_pair())
    tracemalloc.start()
    try:
        kesten_index(prob, mc_reps=1_000_000, seed=RngSeed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.5e6


def test_kesten_index_makes_few_whole_sample_passes(monkeypatch):
    # the bounds settle the bracket checks and every bisection step but
    # the stop step, whose sum is also the stderr's mean; the stderr's
    # squared deviations are the other pass (2 here). Summing the whole
    # sample at every step took 9-16 passes at seeds 0-7
    mc_reps, passes = 1_000_000, []
    pairwise = theory._pairwise

    def counted(lo, hi, leaf):
        if (lo, hi) == (0, mc_reps):  # a top-level call, not a recursion
            passes.append(lo)
        return pairwise(lo, hi, leaf)

    monkeypatch.setattr(theory, "_pairwise", counted)
    kesten_index(sampled(garch_pair()), mc_reps=mc_reps, seed=RngSeed(0))
    assert len(passes) <= 4


def test_kesten_index_warns_when_tol_is_not_reached():
    # near the root f moves in steps of about 1e-16, and on this sample
    # no kappa gives f == 0 exactly, so no tol below 1e-16 is reachable.
    # The bisection ends once its midpoint no longer moves, at the kappa
    # that 200 halvings reach
    seed = RngSeed(6)
    with pytest.warns(UserWarning,
                      match=r"^kesten_index stopped at \|f\| = 2\.22e-16, "
                            r"not below tol = 1e-300$"):
        r = kesten_index(lognormal_problem(), mc_reps=100, tol=1e-300,
                         seed=seed)
    assert (r.kappa, r.f_stderr) == dense_kesten.kesten_dense(
        lognormal_problem(), 100, seed, tol=1e-300)


def test_kesten_lognormal_closed_form():
    r = kesten_index(lognormal_problem(), mc_reps=200_000, seed=RngSeed(0))
    assert abs(r.kappa - 1.0) < 0.05


def test_kesten_bounded_multiplier_has_no_root():
    with pytest.raises(ValueError, match="no finite tail index"):
        kesten_index(KestenProblem(constant(0.5)), mc_reps=10_000)
    # the exact route's bracket check: alpha1 = 0 leaves A = beta1 < 1
    with pytest.raises(ValueError, match="^no finite tail index in bracket$"):
        kesten_index(KestenProblem(garch_pair(0.0, 0.9)))


def test_kesten_lower_bracket_rejects_on_the_whole_sum(monkeypatch):
    # log A = +-100 with 485 of each 1000 draws up: E log A = -3 passes
    # the stationarity probe, yet mean(A^0.001) = 1.002, so f is above 0
    # at the bracket's lower end. The run of 16 that holds the switch
    # from -100 to +100 keeps both bounds there from settling the sign:
    # the one whole-sample sum, at 0.001, rejects
    up = np.arange(1000) < 485
    law = np.exp(np.where(up, 100.0, -100.0))
    problem = KestenProblem(lambda g, size: np.resize(law, size))
    passes, pairwise = [], theory._pairwise

    def counted(lo, hi, leaf):
        if (lo, hi) == (0, 1000):  # a whole-sample sum
            passes.append(lo)
        return pairwise(lo, hi, leaf)

    monkeypatch.setattr(theory, "_pairwise", counted)
    with pytest.raises(ValueError, match="^no finite tail index in bracket$"):
        kesten_index(problem, mc_reps=1000)
    assert len(passes) == 1
    with pytest.raises(ValueError, match="^no finite tail index in bracket$"):
        dense_kesten.kesten_dense(problem, 1000, RngSeed(0))


def test_kesten_bracket_too_small():
    # the two-point law at h = 0.01 has its root log(Q/P)/h = 84.7, above
    # the bracket's upper end 64
    assert exact_laws.two_point_alpha(0.01) > 64.0
    with pytest.raises(ValueError, match="no finite tail index"):
        kesten_index(two_point_problem(0.01), mc_reps=50_000)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-4])
def test_kesten_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError,
                       match="^tol must be a finite number > 0"):
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


@pytest.mark.parametrize("sampler, message", [
    (lambda g, size: np.exp(g.normal(-0.5, 1.0, size + 1)),
     "asked for 100000 draws of A, got 100001"),
    (lambda g, size: np.exp(g.normal(-0.5, 1.0, (size, 1))),
     r"draws of A must be one-dimensional, got shape \(100000, 1\)"),
    (lambda g, size: np.exp(g.normal(-0.5, 1.0, ())),
     r"draws of A must be one-dimensional, got shape \(\)"),
    (lambda g, size: np.where(np.arange(size) == 7, np.nan,
                              np.exp(g.normal(-0.5, 1.0, size))),
     "draws of A contain NaN"),
], ids=["size-plus-one", "column", "scalar", "nan"])
def test_callable_sampler_output_checked_by_the_probe(sampler, message):
    # a bad sampler fails at construction, with a message that names the
    # problem, not later inside kesten_index or as "no stationary solution"
    with pytest.raises(ValueError, match=f"^{message}$"):
        KestenProblem(sampler)
    with pytest.raises(ValueError, match=f"^{message}$"):
        probe_multipliers(sampler)


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
    with pytest.raises(ValueError,
                       match=f"^{name} must be a finite number > 0"):
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


def _kesten(**kw):
    return kesten_index(garch_problem(), **{"mc_reps": 1000, **kw})


def _theta_sigma(**kw):
    return theta_sigma_sre(zero_problem(),
                           **{"alpha": 1.0, "mc_reps": 100, **kw})


def _quadrature(**kw):
    return theta_sigma_sre_quadrature(zero_problem(),
                                      **{"alpha": 1.0, "mc_reps": 100, **kw})


def _theta_x_sre(**kw):
    return theta_x_sre(zero_problem(), std_normal(),
                       **{"alpha": 1.0, "p": 1.0, "m": 2, "mc_reps": 100,
                          **kw})


def _theta_x_ma(**kw):
    return theta_x_ma((1.0, 1.0), z=std_normal(),
                      **{"alpha": 4.0, "p": 1.0, "mc_reps": 100, **kw})


# each public routine, its positive number arguments and its integer ones
_CHECKED = [(_kesten, ("tol",), ("mc_reps",)),
            (_theta_sigma, ("alpha",), ("mc_reps", "trunc_T")),
            (_quadrature, ("alpha",), ("mc_reps", "trunc_T")),
            (_theta_x_sre, ("alpha", "p"), ("mc_reps", "m")),
            (_theta_x_ma, ("alpha", "p"), ("mc_reps",))]


@pytest.mark.parametrize("call, name, bad, message", [
    *(pytest.param(call, name, bad,
                   f"^{name} must be a finite number > 0, got ",
                   id=f"{call.__name__[1:]}-{name}-{label}")
      for call, positive, _ in _CHECKED for name in positive
      for label, bad in (("huge", 10 ** 400), ("bool", True),
                         ("string", "2"))),
    *(pytest.param(call, name, bad, f"^{name} must be an integer, got ",
                   id=f"{call.__name__[1:]}-{name}-{label}")
      for call, _, integer in _CHECKED for name in integer
      for label, bad in (("fraction", 2.5), ("float", 1000.0),
                         ("bool", True)))])
def test_routine_rejects_a_bad_argument_by_name(call, name, bad, message):
    # a huge int used to overflow math.isfinite, a bool to run as 0 or 1
    # and a float count to fail inside numpy with a TypeError
    with pytest.raises(ValueError, match=message):
        call(**{name: bad})


# -- theta_sigma ----------------------------------------------------------

def test_theta_sigma_zero_multiplier_is_one():
    # A == 0 kills every product immediately, so no extremal clustering
    # (a zero A floors alpha log A where e^x is 0.0: every term is 1.0)
    r = theta_sigma_sre(zero_problem(), alpha=1.0, mc_reps=5000)
    assert (r.value, r.mc_stderr) == (1.0, 0.0)
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
    # at h = 12 (alpha ~ 0.07) a walk must fall ~270 below its sup before
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
    # the coupling bound E e^{alpha W / 2} (E A^{alpha/2})^trunc_T, with
    # E A = 0.99 on the GARCH multipliers, is near 1 after 3 or 50 burn-in
    # steps and 1e-43 after the default 10^4
    for trunc_T in (3, 50):
        with pytest.warns(UserWarning, match="truncation risk"):
            r = theta_sigma_sre(garch_problem(), alpha=2.0, mc_reps=2000,
                                trunc_T=trunc_T)
        assert 0.5 < r.truncation["risk_fraction"] <= 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = theta_sigma_sre(garch_problem(), alpha=2.0, mc_reps=2000)
    assert 0.0 < r.truncation["risk_fraction"] < 1e-40
    with pytest.raises(ValueError, match="trunc_T"):
        theta_sigma_sre(garch_problem(), alpha=2.0, mc_reps=100, trunc_T=0)
    with pytest.raises(ValueError, match="trunc_T"):
        theta_sigma_sre_quadrature(garch_problem(), alpha=2.0, mc_reps=100,
                                   trunc_T=0)


def scalar_sup_walks(problem, g, n, cap, trunc_T, alpha):
    """theory._sup_log_products one replicate and one step at a time.

    Draws what the block steps draw: with N walks live after t steps, a
    row of k = clamp(2^15 // N, 1, trunc_T - t) log-multipliers for each,
    row by row. Each walk then adds its row left to right and stops at
    the first step where its sup passes cap, its log product lies
    log(1000 n) / alpha or more below its sup, or its horizon trunc_T is
    reached.
    """
    depth = math.log(1000 * n) / alpha
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
                if sup[r] > cap or logprod[r] <= sup[r] - depth:
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


@pytest.mark.parametrize("case", ["lundberg", "zero", "horizon",
                                  "quadrature-steps", "lundberg-steps"])
def test_sup_log_products_matches_a_scalar_walk(case):
    # 300 or 100 walks take blocks of 109 steps or more, which numpy
    # accumulates; the -steps cases start with 512 walks or more, whose
    # blocks of at most 64 steps advance one step at a time, and end in
    # long blocks once few walks are left (0.3 s of scalar walks in all)
    alpha = exact_laws.two_point_alpha(0.5)
    if case == "quadrature-steps":
        # theta_sigma_sre_quadrature's cap 0: blocks of 16, 46, 56, 59
        # and 60 steps, then four longer ones
        prob, n, trunc_T, cap = garch_problem(), 2048, 10_000, 0.0
        alpha = 2.0
    elif case == "lundberg-steps":  # ten blocks of 32-49 steps
        prob, n, trunc_T, cap = garch_problem(), 1024, 10_000, math.inf
        alpha = 2.0
    elif case == "lundberg":  # cap out of reach: only the floor stops
        # walks of ~1000 steps span blocks, where the order of the sums
        # shows in the last bits
        prob, n, trunc_T, cap = garch_problem(), 300, 10_000, math.inf
        alpha = 2.0
    elif case == "zero":
        prob, n, trunc_T = zero_or_two_point_problem(0.5), 300, 10_000
        cap = 0.0
    else:  # 100 walks take blocks of 327 steps; 500 ends inside the second
        prob, n, trunc_T, cap = garch_problem(), 100, 500, math.inf
        alpha = 2.0
    sup, hit = theory._sup_log_products(prob, np.random.default_rng(3), n,
                                        cap, trunc_T, alpha)
    ref_sup, ref_hit = scalar_sup_walks(prob, np.random.default_rng(3), n,
                                        cap, trunc_T, alpha)
    assert np.array_equal(sup.view(np.int64), ref_sup.view(np.int64))
    assert np.array_equal(hit, ref_hit)
    stopped = ~hit
    if case == "quadrature-steps":
        assert np.any(sup > cap) and np.any(stopped & (sup <= cap))
    elif case in ("lundberg", "lundberg-steps"):
        assert stopped.all() and np.all(np.isfinite(sup))
    elif case == "zero":
        assert np.any(sup == -np.inf) and stopped.all()
    else:
        assert 0 < np.count_nonzero(hit) < n


def scalar_lindley_sums(problem, g, size, trunc_T, alpha):
    """theory._lindley_sums as one chain stepped in Python.

    Draws what the chunked chain draws, trunc_T values and then size, each
    in slices of theory._CHAIN_BLOCK, and steps W_n = max(W_{n-1} + log A_n,
    0) from W_0 = 0 one value at a time, log(0) = -inf included. After
    trunc_T steps each step adds e^{alpha W_n / 2}, and a step with
    V_n = W_{n-1} + log A_n <= 0 closes a regeneration cycle: its term
    1 - e^{alpha V_n} and the cycle's length in steps.
    """
    block = theory._CHAIN_BLOCK
    la = []
    for steps in (trunc_T, size):
        for lo in range(0, steps, block):
            a = problem.draw_a(g, min(block, steps - lo))
            with np.errstate(divide="ignore"):
                la += np.log(a).tolist()
    w, last = 0.0, -1
    succ = cycles = ssd = 0
    sn = ssn = snd = ew = 0.0
    for n, x in enumerate(la):
        v = w + x
        w = max(v, 0.0)
        k = n - trunc_T
        if k < 0:
            continue
        ew += math.exp(alpha * w / 2.0)
        if v <= 0.0:
            term, d, last = -math.expm1(alpha * v), k - last, k
            succ += term > 0.0
            cycles += 1
            sn, ssn = sn + term, ssn + term * term
            ssd, snd = ssd + d * d, snd + term * d
    if last < size - 1:
        cycles += 1
        ssd += (size - 1 - last) ** 2
    return succ, cycles, sn, ssn, ssd, snd, ew


@pytest.mark.parametrize("size, trunc_T", [(30_000, 10_000), (5000, 3),
                                           (20_000, 16_385)],
                         ids=["default-burn-in", "short-burn-in",
                              "burn-in-past-a-block"])
@pytest.mark.parametrize("law", ["fig2", "zero-or-two-point"])
def test_lindley_chain_matches_a_scalar_chain(law, size, trunc_T):
    # the blocks restart their sums from the carried W, so the chain's
    # floats differ from one summed step by step only in the last bits:
    # relative 2e-13 or less on these chains. Every count is exact: a
    # zero A takes log A = -inf here and the floor in the blocks, and
    # either way gives W_n = 0 and a term of exactly 1.
    if law == "fig2":
        prob, alpha = garch_problem(), 2.0
    else:
        prob, alpha = zero_or_two_point_problem(0.5), \
            exact_laws.two_point_alpha(0.5)
    got = theory._lindley_sums(prob, np.random.default_rng(3), size,
                               trunc_T, alpha)
    want = scalar_lindley_sums(prob, np.random.default_rng(3), size,
                               trunc_T, alpha)
    succ, cycles, sn, ssn, ssd, snd, ew = got
    assert (succ, cycles, ssd) == (want[0], want[1], want[4])
    assert 0 < succ < cycles
    np.testing.assert_allclose([sn, ssn, snd, ew],
                               [want[2], want[3], want[5], want[6]],
                               rtol=1e-11, atol=0.0)


# stderr calibration: with S seeds the sd of the values has a relative
# standard error of 1/sqrt(2 (S - 1)), 0.113 at S = 40, so the sd must
# lie within 2.5 of those, a factor 1 -/+ 0.283, of the median stderr.
# The chain's regeneration stderr read 0.86-1.15 of the sd on both laws
# at 2^14-2^16 samples and two seed ranges.
CALIBRATION_SEEDS = range(300, 340)
CALIBRATION_BAND = 2.5 / math.sqrt(2 * (len(CALIBRATION_SEEDS) - 1))


@pytest.mark.parametrize("law", ["fig2", "two-point"])
def test_theta_sigma_stderr_matches_spread_across_seeds(law):
    if law == "fig2":
        prob, alpha = garch_problem(), 2.0
    else:
        prob, alpha = two_point_problem(0.5), exact_laws.two_point_alpha(0.5)
    runs = [theta_sigma_sre(prob, alpha, mc_reps=2 ** 15, seed=RngSeed(s))
            for s in CALIBRATION_SEEDS]
    sd = float(np.std([r.value for r in runs], ddof=1))
    ratio = sd / float(np.median([r.mc_stderr for r in runs]))
    assert abs(ratio - 1.0) <= CALIBRATION_BAND, ratio


def test_theta_sigma_thread_invariant():
    # four chunks, the last one short: each runs its own chain
    args = dict(alpha=2.0, mc_reps=3 * 2 ** 15 + 1000, seed=RngSeed(6))
    runs = [theta_sigma_sre(garch_problem(), threads=t, **args)
            for t in (1, 2, 3)]
    keys = [(r.value.hex(), r.mc_stderr.hex(),
             r.truncation["risk_fraction"].hex()) for r in runs]
    assert keys[1:] == keys[:1] * 2


def test_zero_count_names_mc_reps():
    # no sample of 10 succeeds (every sampled sup is at or above 0), and
    # no replicate of 10: theta would read 0, which only says it lies
    # below what 10 samples resolve
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


def test_theta_x_sre_constant_z_at_any_scale():
    # the quantity does not depend on the scale of Z, and |c|^4 leaves
    # float at 1e-100 (underflow to 0) and at 1e60 (overflow to inf)
    def at(c):
        r = theta_x_sre(garch_problem(), constant(c), alpha=2.0, p=2.0,
                        m=10, mc_reps=1000)
        return r.value, r.mc_stderr, r.sequence.tolist()
    unit = at(1.0)
    assert 0 < unit[1] < 0.01
    assert at(1e-100) == unit and at(1e60) == unit and at(-3.0) == unit
    for call in (lambda z: theta_x_sre(garch_problem(), z, alpha=2.0, p=2.0,
                                       m=10, mc_reps=1000),
                 lambda z: theta_x_ma((1.0, 1.0), alpha=2.0, p=2.0, z=z)):
        with pytest.raises(ValueError, match="degenerate z"):
            call(constant(0.0))
    assert theta_x_ma((1.0, 0.5), alpha=2.0, p=2.0,
                      z=constant(1e-100)).value == 0.8


def test_theta_x_laplace_z_at_any_rate():
    # neither quantity depends on the scale of Z: every Laplace law runs
    # at rate 1. Unscaled, |Z|^4 left float: laplace(1e60) read a stderr
    # of 0.0, laplace(1e100) raised "degenerate z" and laplace(1e-100) an
    # OverflowError from moment_abs
    def at(rate):
        sre = theta_x_sre(garch_problem(), laplace(rate), alpha=2.0, p=2.0,
                          m=10, mc_reps=1000)
        ma = theta_x_ma((1.0, 0.5), alpha=2.0, p=2.0, z=laplace(rate),
                        mc_reps=1000)
        return (sre.value, sre.mc_stderr, sre.sequence.tolist(), ma.value,
                ma.mc_stderr)
    unit = at(1.0)
    assert unit[1] > 0 and unit[4] > 0
    for rate in (1e-100, 1e60, 1e100):
        assert at(rate) == unit


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


@pytest.mark.parametrize("psi", [[[1.0, 1.0]], 1.0])
def test_theta_x_ma_psi_must_be_one_dimensional(psi):
    # the parent failed on [[1, 1]] with a numpy broadcast error
    with pytest.raises(ValueError, match="^psi must be one-dimensional$"):
        theta_x_ma(psi, 2.0, 1.0, std_normal())


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
