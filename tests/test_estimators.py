"""Estimator tests: exact small fixtures, i.i.d. calibration, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svextremes import (ExpAr1Config, Garch11Pair, GenericPair, MaSvConfig,
                        RngSeed, SreSvConfig, anticluster_diag, blocks_theta,
                        breiman_ratio, constant, extremogram, hill,
                        intervals_theta, laplace, pareto, runs_theta,
                        sample_innovation, simulate, std_normal,
                        theta_x_ma)

import exact_laws

SEED = RngSeed(3)


def pareto_sample(n, seed=3):
    return sample_innovation(pareto(4.0), n, RngSeed(seed))


def indicator_series(n, positions):
    v = np.zeros(n)
    v[list(positions)] = 1.0
    return v


# -- Hill -----------------------------------------------------------------

def test_hill_geometric_fixture():
    e = np.e
    r = hill([1.0, e, e ** 2, e ** 3], k=3)
    # log spacings 1, 2, 3 sum to 6, so alpha_hat = 3/6
    assert r.alpha_hat == pytest.approx(0.5, rel=1e-12)
    assert r.ci_low < r.alpha_hat < r.ci_high


def test_hill_validation():
    with pytest.raises(ValueError, match="k must be >= 2"):
        hill([1.0, 2.0, 3.0], k=1)
    with pytest.raises(ValueError, match="k\\+1 strictly positive"):
        hill([-1.0, 2.0, 3.0], k=2)
    with pytest.raises(ValueError, match="degenerate tail"):
        hill([5.0] * 5, k=2)


def test_hill_iid_pareto():
    r = hill(pareto_sample(100_000), k=1000)
    assert 3.6 <= r.alpha_hat <= 4.4
    assert r.ci_low == pytest.approx(r.alpha_hat * (1 - 1.96 / np.sqrt(1000)))


@given(vals=st.lists(st.floats(1e-3, 1e6), min_size=8, max_size=40,
                     unique=True),
       j=st.integers(-20, 20))
def test_hill_scale_invariance(vals, j):
    # powers of two rescale mantissas exactly, so the estimate is bitwise
    # unchanged
    v = np.asarray(vals)
    c = 2.0 ** j
    assert hill(c * v, k=5).alpha_hat == hill(v, k=5).alpha_hat


# -- extremal index: exact fixtures ---------------------------------------

def test_blocks_isolated_exceedances():
    v = indicator_series(100, [10, 30, 50, 70, 90])
    r = blocks_theta(v, u=0.5, block_len=20, n_boot=0)
    assert r.theta_hat == 1.0
    assert r.method == "blocks"


def test_blocks_paired_exceedances():
    # five pairs, one pair per block of 20: 5 blocks / 10 exceedances
    v = indicator_series(100, [10, 11, 30, 31, 50, 51, 70, 71, 90, 91])
    r = blocks_theta(v, u=0.5, block_len=20, n_boot=0)
    assert r.theta_hat == 0.5


def test_blocks_log_corrected_fixture():
    # two pairs in ten blocks of 10: K = 2 of b = 10 blocks hit, N = 4 of
    # n = 100 values exceed, so theta = log(1 - K/b) / (10 log(1 - N/n))
    v = indicator_series(100, [10, 11, 30, 31])
    r = blocks_theta(v, u=0.5, block_len=10, n_boot=0)
    expected = np.log(1 - 2 / 10) / (10 * np.log(1 - 4 / 100))
    assert r.theta_hat == pytest.approx(expected, rel=1e-12)


def test_blocks_partial_last_block_counts():
    # n = 25 with block_len 10 gives b = 3 blocks, the last one partial;
    # all four exceedances sit in it, so K/b = 1/3 with N/n = 4/25
    v = indicator_series(25, [20, 21, 22, 23])
    r = blocks_theta(v, u=0.5, block_len=10, n_boot=0)
    expected = np.log(1 - 1 / 3) / (10 * np.log(1 - 4 / 25))
    assert r.theta_hat == pytest.approx(expected, rel=1e-12)
    assert r.theta_hat < 1.0


def test_runs_single_exceedance():
    v = indicator_series(100, [50])
    assert runs_theta(v, u=0.5, run_len=5, n_boot=0).theta_hat == 1.0


def test_runs_adjacent_pair():
    # the first of the pair sees its partner inside the run window
    v = indicator_series(100, [10, 11])
    assert runs_theta(v, u=0.5, run_len=5, n_boot=0).theta_hat == 0.5


def test_runs_trailing_exceedance_counts_clear():
    v = indicator_series(200, [199])
    assert runs_theta(v, u=0.5, run_len=5, n_boot=0).theta_hat == 1.0


def test_intervals_regular_spacing():
    # gaps (2, 2, 2): the small-gap branch gives 2*36/(3*12) = 2, capped at 1
    v = indicator_series(20, [0, 2, 4, 6])
    assert intervals_theta(v, u=0.5, n_boot=0).theta_hat == 1.0


def test_intervals_mixed_gaps():
    # gaps (1, 1, 9): max > 2 branch, 2*(0+0+8)^2 / (3 * (0+0+8*7))
    v = indicator_series(20, [0, 1, 2, 11])
    assert intervals_theta(v, u=0.5, n_boot=0).theta_hat == 128 / 168


def test_theta_estimators_reject_empty():
    v = np.zeros(100)
    with pytest.raises(ValueError, match="empty exceedance set"):
        blocks_theta(v, u=0.5, block_len=10)
    with pytest.raises(ValueError, match="empty exceedance set"):
        runs_theta(v, u=0.5, run_len=5)
    with pytest.raises(ValueError, match="insufficient exceedances"):
        intervals_theta(indicator_series(100, [7]), u=0.5)
    with pytest.raises(ValueError, match="block_len"):
        blocks_theta(indicator_series(10, [3]), u=0.5, block_len=0)
    with pytest.raises(ValueError, match="run_len"):
        runs_theta(indicator_series(10, [3]), u=0.5, run_len=0)


@pytest.mark.parametrize("values, message", [
    (np.ones((20, 20)), "one-dimensional"),
    (np.float64(3.0), "one-dimensional"),
    (np.r_[np.arange(1.0, 200.0), np.nan], "contain NaN"),
])
def test_estimators_reject_bad_values(values, message):
    calls = (lambda: hill(values, k=2),
             lambda: blocks_theta(values, 0.5, block_len=5),
             lambda: runs_theta(values, 0.5, run_len=5),
             lambda: intervals_theta(values, 0.5),
             lambda: extremogram(values, (1,), q=0.9),
             lambda: breiman_ratio(values, np.ones(5), (0.9,), alpha=2.0),
             lambda: breiman_ratio(np.ones(5), values, (0.9,), alpha=2.0))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("call, field", [
    (lambda v, k: hill(v, k), "k"),
    (lambda v, k: blocks_theta(v, 1.5, block_len=k, n_boot=0), "block_len"),
    (lambda v, k: runs_theta(v, 1.5, run_len=k, n_boot=0), "run_len"),
])
def test_integer_tuning_checked_where_it_enters(call, field):
    v = np.arange(1.0, 41.0)
    for bad in (2.5, 10.5, 3.0, "3"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            call(v, bad)
    # numpy integers are integers: the result equals the int one's
    assert call(v, np.int32(3)) == call(v, 3)
    assert call(v, np.int64(3)).to_json() == call(v, 3).to_json()


def test_theta_estimators_check_n_boot():
    v = indicator_series(50, [3, 4, 20, 21, 40])
    calls = (lambda b: blocks_theta(v, 0.5, block_len=5, n_boot=b),
             lambda b: runs_theta(v, 0.5, run_len=5, n_boot=b),
             lambda b: intervals_theta(v, 0.5, n_boot=b))
    for call in calls:
        with pytest.raises(ValueError, match="n_boot must be >= 0"):
            call(-1)
        # 0 and 1 replicates mean no bootstrap
        assert call(0).stderr == call(1).stderr == 0.0


# -- extremal index: i.i.d. calibration and invariances -------------------

def test_blocks_iid_near_one():
    # target band [0.85, 1.0]; the plain ratio K/N cannot reach it at this
    # tuning: with lambda = block_len (1-q) = 0.5 exceedances per block the
    # i.i.d. expectation is (1 - e^-lambda)/lambda = 0.787 +/- 0.02, because
    # multiple exceedances collide in one block even without clustering
    v = pareto_sample(100_000)
    u = float(np.quantile(v, 0.99))
    assert 0.85 <= blocks_theta(v, u, block_len=50, n_boot=0).theta_hat <= 1.0


def test_runs_iid_near_one():
    v = pareto_sample(100_000)
    u = float(np.quantile(v, 0.99))
    assert 0.85 <= runs_theta(v, u, run_len=10, n_boot=0).theta_hat <= 1.0


def test_intervals_iid_near_one():
    v = pareto_sample(100_000)
    u = float(np.quantile(v, 0.99))
    assert 0.85 <= intervals_theta(v, u, n_boot=0).theta_hat <= 1.0


@given(pos=st.sets(st.integers(0, 199), min_size=2, max_size=60))
@settings(max_examples=60)
def test_theta_estimators_stay_in_unit_interval(pos):
    v = indicator_series(200, pos)
    for th in (blocks_theta(v, 0.5, block_len=7, n_boot=0).theta_hat,
               runs_theta(v, 0.5, run_len=3, n_boot=0).theta_hat,
               intervals_theta(v, 0.5, n_boot=0).theta_hat):
        assert 0.0 < th <= 1.0


@given(pos=st.sets(st.integers(0, 199), min_size=2, max_size=60),
       j=st.integers(-16, 16))
@settings(max_examples=60)
def test_intervals_depends_only_on_exceedance_times(pos, j):
    # scaling values and threshold together preserves the exceedance set
    v = indicator_series(200, pos) + 1.0
    c = 2.0 ** j
    base = intervals_theta(v, 1.5, n_boot=0).theta_hat
    assert intervals_theta(c * v, c * 1.5, n_boot=0).theta_hat == base


def test_bootstrap_stderr_deterministic_and_thread_invariant():
    v = pareto_sample(20_000, seed=5)
    u = float(np.quantile(v, 0.99))
    r1 = blocks_theta(v, u, block_len=50, n_boot=50, threads=1)
    r2 = blocks_theta(v, u, block_len=50, n_boot=50, threads=3)
    assert r1.stderr == r2.stderr
    assert r1.stderr > 0
    r3 = intervals_theta(v, u, n_boot=50, threads=1)
    r4 = intervals_theta(v, u, n_boot=50, threads=4)
    assert r3.stderr == r4.stderr


def test_ma_path_intervals_near_half():
    # psi=(1,1) duplicates every large innovation across two adjacent
    # sigmas, so theta = 1/2 in the limit. At a finite level u the two sums
    # sharing a shock differ in their other summand, so one of them can
    # stay under u and the cluster reads as a singleton; the estimator then
    # reads theta(u) = P(X_2 <= u | X_1 > u), which the law gives exactly:
    # 0.595 at the seed-0 99.5% threshold u = 5.91, where the path reads
    # 0.588 (10-seed mean 0.598, sd 0.008).
    cfg = MaSvConfig(p=1.0, psi=(1.0, 1.0), eta=pareto(4.0), z=constant(1.0))
    path = simulate(cfg, 1_000_000, seed=RngSeed(0))
    u = float(np.quantile(path.x, 0.995))
    th = intervals_theta(path.x, u, n_boot=0).theta_hat
    assert abs(th - exact_laws.ma_theta_runs(u)) <= 0.05
    # theta(u) falls to the closed-form limit as u grows
    limit = theta_x_ma((1.0, 1.0), alpha=4.0, p=1.0, z=constant(1.0)).value
    ladder = [exact_laws.ma_theta_runs(v) for v in (u, 14.0, 100.0, 1000.0)]
    assert np.all(np.diff(ladder) < 0) and min(ladder) > limit
    assert ladder[-1] - limit < 1e-3


# -- extremogram ----------------------------------------------------------

def test_extremogram_constant_series_is_one():
    r = extremogram(np.ones(100), lags=(0, 1, 5), q=0.9)
    assert np.array_equal(r.chi_hat, np.ones(3))
    assert r.u == 1.0


def test_extremogram_lag_zero_is_one():
    v = pareto_sample(1000)
    r = extremogram(v, lags=(0,), q=0.9)
    assert r.chi_hat[0] == 1.0


def test_extremogram_iid_matches_exceedance_rate():
    v = pareto_sample(1_000_000)
    r = extremogram(v, lags=(1,), q=0.95)
    assert 0.04 <= r.chi_hat[0] <= 0.06


def test_extremogram_garch_sv_clusters():
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    cfg = SreSvConfig(p=2.0, pair_source=pair, z=std_normal())
    path = simulate(cfg, 1_000_000, seed=RngSeed(0))
    r = extremogram(np.abs(path.x), lags=(1,), q=0.99)
    # i.i.d. level would be 0.01
    assert r.chi_hat[0] >= 0.05


@given(vals=st.lists(st.floats(-100, 100, allow_nan=False), min_size=12,
                     max_size=60))
@settings(max_examples=60)
def test_extremogram_time_reversal_invariance(vals):
    v = np.asarray(vals)
    r1 = extremogram(v, lags=(1, 2, 3), q=0.75)
    r2 = extremogram(v[::-1], lags=(1, 2, 3), q=0.75)
    assert np.array_equal(r1.chi_hat, r2.chi_hat)


def test_extremogram_lag_validation():
    v = pareto_sample(100)
    with pytest.raises(ValueError, match="lag must satisfy"):
        extremogram(v, lags=(50,), q=0.9)
    with pytest.raises(ValueError, match="lag must satisfy"):
        extremogram(v, lags=(-1,), q=0.9)
    with pytest.raises(ValueError, match="at least one lag"):
        extremogram(v, lags=(), q=0.9)


# -- anticlustering diagnostic --------------------------------------------

def constant_path_config():
    return SreSvConfig(p=1.0, pair_source=GenericPair(constant(0.0),
                                                      constant(1.0)),
                       z=constant(1.0))


def test_anticluster_constant_path_all_ones():
    # |X| == 1 everywhere, so every window position exceeds u = 0.5
    r = anticluster_diag(constant_path_config(), m=(1, 5), r_n=10, y=0.5,
                         n=1000, reps=20, seed=SEED, burn_in=10)
    assert np.array_equal(r.estimates, np.ones(2))
    assert r.n_windows == 20
    assert r.u == 0.5


def test_anticluster_iid_matches_binomial_bound():
    # i.i.d. |X|: hit probability over a window of 2 r_n positions is about
    # 2 r_n / n at the (1 - 1/n) threshold
    cfg = ExpAr1Config(phi=0.0, eta=laplace(4.0), z=std_normal())
    r = anticluster_diag(cfg, m=(1,), r_n=100, y=1.0, n=20_000, reps=150,
                         seed=SEED, burn_in=100)
    bound = 2 * (2 * r.r_n / r.n) + 3 * r.stderrs[0]
    assert r.estimates[0] <= bound


def test_anticluster_threshold_too_high():
    with pytest.raises(ValueError, match="threshold too high"):
        anticluster_diag(constant_path_config(), m=(1,), r_n=10, y=2.0,
                         n=1000, reps=2, seed=SEED, burn_in=10)


def test_anticluster_budget_warning():
    # y = 2 cuts the exceedance rate by ~2^4, so the segment budget runs
    # out before `reps` windows are found
    cfg = ExpAr1Config(phi=0.0, eta=laplace(4.0), z=std_normal())
    with pytest.warns(UserWarning, match="found only"):
        r = anticluster_diag(cfg, m=(1,), r_n=50, y=2.0, n=20_000, reps=40,
                             seed=SEED, burn_in=10)
    assert 0 < r.n_windows < 40


def test_anticluster_validation():
    cfg = constant_path_config()
    with pytest.raises(ValueError, match="1 <= m < r_n"):
        anticluster_diag(cfg, m=(10,), r_n=10, y=0.5, n=1000, reps=5,
                         seed=SEED, burn_in=10)
    with pytest.raises(ValueError, match="reps >= 1"):
        anticluster_diag(cfg, m=(1,), r_n=10, y=0.5, n=1000, reps=0,
                         seed=SEED, burn_in=10)


# -- Breiman ratio --------------------------------------------------------

def test_breiman_identity_noise():
    sig = pareto_sample(100_000)
    r = breiman_ratio(sig, sig, q_grid=(0.9, 0.99), alpha=4.0,
                      z=constant(1.0))
    assert np.array_equal(r.ratios, np.ones(2))
    assert r.target == 1.0


def test_breiman_doubling_noise():
    # X = 2 sigma with Pareto(4) sigma: ratio -> 2^4 once u/2 clears the
    # support lower end
    sig = pareto_sample(200_000)
    r = breiman_ratio(sig, 2.0 * sig, q_grid=(0.99, 0.999), alpha=4.0,
                      z=constant(2.0))
    assert r.target == 16.0
    assert np.all(np.abs(r.ratios - 16.0) < 3.0)


def test_breiman_drops_empty_levels():
    sig = pareto_sample(10_000)
    with pytest.warns(UserWarning, match="grid point dropped"):
        r = breiman_ratio(sig, 1e-3 * sig, q_grid=(0.9,), alpha=4.0)
    assert r.ratios.size == 0
    assert r.target is None


def test_breiman_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        breiman_ratio(np.ones(10), np.ones(11), q_grid=(0.9,), alpha=4.0)
