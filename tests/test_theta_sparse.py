"""The theta estimators on exceedance indices against the indicator series.

tests/dense_theta.py holds the estimators written over the n-long boolean
series, and a cluster bootstrap that builds each replicate as a full
n-long series. The package declusters and resamples the sorted exceedance
indices; every gap and count is an integer, so the two must agree bit for
bit in theta_hat and in stderr.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_theta as dense
from svextremes import (Garch11Pair, RngSeed, SreSvConfig, blocks_theta,
                        intervals_theta, runs_theta, simulate, std_normal)
from svextremes import estimators, experiments
from svextremes.estimators import (ExceedanceSet, _declustered,
                                   _replicate_set, _runs_scores, _theta)


def series(n, positions):
    v = np.zeros(n)
    v[list(positions)] = 1.0
    return v


def assert_same(n, positions, tuning, n_boot, threads):
    """All three estimators equal the dense oracle on one exceedance set."""
    v = series(n, positions)
    pairs = [(dense.blocks_theta(v, 0.5, tuning, n_boot),
              blocks_theta(v, 0.5, tuning, n_boot, threads)),
             (dense.runs_theta(v, 0.5, tuning, n_boot),
              runs_theta(v, 0.5, tuning, n_boot, threads))]
    if len(positions) >= 2:
        pairs.append((dense.intervals_theta(v, 0.5, n_boot),
                      intervals_theta(v, 0.5, n_boot, threads)))
    for (th, se), r in pairs:
        assert (r.theta_hat, r.stderr) == (th, se), r.method


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("positions", [
    (0, 1, 2, 40, 41, 73, 74, 75, 76, 98, 99),  # hits at 0 and at n-1
    (0, 99),
    (3, 17, 18, 19, 50, 51, 52, 53, 54, 87),
])
@pytest.mark.parametrize("tuning", [1, 7, 99, 100, 105])
def test_theta_and_stderr_bit_equal_to_indicator_series(tuning, positions,
                                                        threads):
    # n = 100; tuning n-1 leaves a last block of one position, n one block
    # that always wraps, and n+5 a block longer than the series
    assert_same(100, positions, tuning, n_boot=40, threads=threads)


@given(data=st.data(), n=st.integers(2, 150))
@settings(max_examples=80, deadline=None)
def test_random_exceedance_sets_bit_equal(data, n):
    positions = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=n))
    tuning = data.draw(st.integers(1, n + 5))
    threads = data.draw(st.integers(1, 3))
    assert_same(n, sorted(positions), tuning, n_boot=25, threads=threads)


@pytest.mark.parametrize("batch", [1, 7])
@given(data=st.data(), n=st.integers(2, 150))
@settings(max_examples=40, deadline=None)
def test_random_exceedance_sets_bit_equal_at_small_batches(batch, data, n):
    # a batch of one replicate, and of a few (7 positions hold one
    # replicate of N >= 7, several of a smaller N); the test above runs
    # the default, one batch of every replicate
    positions = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=n))
    tuning = data.draw(st.integers(1, n + 5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_BATCH_POSITIONS", batch)
        assert_same(n, sorted(positions), tuning, n_boot=25, threads=1)


def garch_model():
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    return SreSvConfig(p=2.0, pair_source=pair, z=std_normal())


def garch_exceedances(seed, q):
    v = np.abs(simulate(garch_model(), 20_000, burn_in=2000,
                        seed=RngSeed(seed)).x)
    return v, float(np.quantile(v, q))


def test_garch_path_bit_equal_at_default_replicates():
    v, u = garch_exceedances(8, 0.995)
    for (th, se), r in (
            (dense.blocks_theta(v, u, 100), blocks_theta(v, u, 100,
                                                         threads=2)),
            (dense.runs_theta(v, u, 10), runs_theta(v, u, 10, threads=2)),
            (dense.intervals_theta(v, u), intervals_theta(v, u,
                                                          threads=2))):
        assert (r.theta_hat, r.stderr) == (th, se), r.method
        assert se > 0


# -- cluster bootstrap edge cases -----------------------------------------

def declustered(positions):
    first, size, between = _declustered(np.asarray(positions))
    return first.tolist(), size.tolist(), between.tolist()


def test_gaps_tied_across_the_cut_stay_inside_clusters():
    # four runs of three, 10 apart: theta_hat = 1458/2376 sets C = 7, so
    # the cut falls among the eight gaps of 1; all of them stay inside,
    # and C shrinks to the four runs
    positions = [0, 1, 2, 12, 13, 14, 24, 25, 26, 36, 37, 38]
    assert intervals_theta(series(50, positions), 0.5,
                           n_boot=0).theta_hat == 1458 / 2376
    assert declustered(positions) == ([0, 3, 6, 9], [3, 3, 3, 3],
                                      [10, 10, 10])
    assert_same(50, positions, 5, n_boot=40, threads=1)


def test_theta_one_makes_every_gap_a_separator():
    # no gap above 2, so theta_hat = 1 and C = N: single-exceedance
    # clusters, and the replicates reorder the gaps
    positions = [0, 2, 3, 5, 6, 7, 9]
    assert intervals_theta(series(30, positions), 0.5,
                           n_boot=0).theta_hat == 1.0
    assert declustered(positions) == ([0, 1, 2, 3, 4, 5, 6], [1] * 7,
                                      [2, 1, 2, 1, 1, 2])
    assert_same(30, positions, 3, n_boot=40, threads=1)
    assert blocks_theta(series(30, positions), 0.5, 3).stderr > 0


def test_all_gaps_tied_leaves_the_sample_unchanged():
    # equal gaps give theta_hat = 1, so C = N and not 1: with N >= 2, C
    # is always at least 2, since sum (T-1)(T-2) <= (max T - 2) sum (T-1)
    # keeps theta_hat N above 2. Every replicate is then the sample.
    positions = [4, 11, 18, 25, 32]
    assert declustered(positions) == ([0, 1, 2, 3, 4], [1] * 5, [7] * 4)
    assert_same(40, positions, 6, n_boot=40, threads=1)
    for r in (blocks_theta(series(40, positions), 0.5, 6),
              runs_theta(series(40, positions), 0.5, 6),
              intervals_theta(series(40, positions), 0.5)):
        assert r.stderr < 1e-15, r.method


@pytest.mark.parametrize("positions", [(3, 17), (0, 99), (98, 99)])
def test_two_exceedances(positions):
    # N = 2: theta_hat = 1, two single-exceedance clusters and one gap
    assert declustered(positions) == ([0, 1], [1, 1],
                                      [positions[1] - positions[0]])
    assert_same(100, positions, 10, n_boot=40, threads=1)


def test_one_exceedance_has_no_bootstrap_spread():
    v = series(100, [42])
    assert blocks_theta(v, 0.5, 10).stderr == 0.0
    assert runs_theta(v, 0.5, 10).stderr == 0.0
    assert dense.blocks_theta(v, 0.5, 10) == (1.0, 0.0)


@pytest.mark.parametrize("n_boot", [0, 1])
def test_fewer_than_two_replicates_give_zero(n_boot):
    positions = (0, 5, 6, 7, 30, 31, 60, 99)
    assert_same(100, positions, 5, n_boot=n_boot, threads=1)
    v = series(100, positions)
    assert intervals_theta(v, 0.5, n_boot).stderr == 0.0


def test_replicates_reach_both_ends_of_the_series():
    # exceedances at 0 and n - 1: replicates start at 0, and the ones
    # that run past n lose their last positions
    positions = (0, 1, 2, 30, 31, 55, 56, 57, 58, 99)
    assert_same(100, positions, 7, n_boot=100, threads=1)


def test_threads_change_no_byte():
    v, u = garch_exceedances(3, 0.99)
    for call in (lambda t: blocks_theta(v, u, 100, threads=t),
                 lambda t: runs_theta(v, u, 10, threads=t),
                 lambda t: intervals_theta(v, u, threads=t)):
        one, three = call(1), call(3)
        assert one.to_json() == three.to_json()
        assert one.stderr > 0


def test_a_replicate_depends_on_neither_n_boot_nor_the_batch_size(
        monkeypatch):
    v, u = garch_exceedances(4, 0.99)

    def replicates(n_boot):
        seen = []

        def score(r, n):
            seen.extend(r.pos[f:f + c].tolist()
                        for f, c in zip(r.first, r.count))
            return _runs_scores(r, n, 5)
        ExceedanceSet.of(v, u).stderr(n_boot, score)
        return seen

    assert replicates(100)[:50] == replicates(50)
    calls = (lambda: blocks_theta(v, u, 100), lambda: runs_theta(v, u, 10),
             lambda: intervals_theta(v, u))
    stderrs = [call().stderr for call in calls]
    for batch in (1, 1 << 20):
        monkeypatch.setattr(estimators, "_BATCH_POSITIONS", batch)
        assert [call().stderr for call in calls] == stderrs, batch


# -- the kept replicate sets ----------------------------------------------

def test_interleaved_sets_equal_fresh_calls():
    # set A, set B, A again and A at another n_boot: each call on a kept
    # set equals the public call, which builds a one-off set, and A again
    # reuses A's replicates
    (va, ua), (vb, ub) = garch_exceedances(4, 0.99), garch_exceedances(5, 0.99)
    sa, sb = ExceedanceSet.of(va, ua), ExceedanceSet.of(vb, ub)
    calls = [(lambda: intervals_theta(va, ua),
              lambda: _theta(sa, "intervals", {})),
             (lambda: blocks_theta(vb, ub, 50),
              lambda: _theta(sb, "blocks", {"block_len": 50})),
             (lambda: runs_theta(va, ua, 10),
              lambda: _theta(sa, "runs", {"run_len": 10})),
             (lambda: blocks_theta(va, ua, 50, n_boot=60),
              lambda: _theta(sa, "blocks", {"block_len": 50}, n_boot=60)),
             (lambda: intervals_theta(va, ua, n_boot=60),
              lambda: _theta(sa, "intervals", {}, n_boot=60))]
    want = [fresh().to_json() for fresh, _ in calls]
    assert [kept().to_json() for _, kept in calls] == want
    assert sorted(sa.kept) == [60, 100] and sorted(sb.kept) == [100]
    kept = sa.kept[60]
    assert _theta(sa, "runs", {"run_len": 10}, n_boot=60).stderr > 0
    assert sa.kept[60] is kept
    assert sa.kept[100] is not kept
    idx = np.flatnonzero(va > ua)
    assert len(_replicate_set(idx, va.size - 1, 61)) < 61
    with pytest.MonkeyPatch.context() as mp:
        # N >= 7 exceedances: one replicate per batch of 7 positions
        mp.setattr(estimators, "_BATCH_POSITIONS", 7)
        assert len(_replicate_set(idx, va.size - 1, 61)) == 61


def test_replicates_cut_at_the_end_of_the_series():
    # four clusters of two, 29, 29 and 37 apart: a replicate draws eight
    # positions, and one that draws the gap of 37 twice or more runs past
    # n = 100 and keeps six or seven; at a batch of one position every
    # replicate is the last of its batch
    positions = (0, 1, 30, 31, 60, 61, 98, 99)
    idx = np.asarray(positions)
    for batch in (1, 7, estimators._BATCH_POSITIONS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_BATCH_POSITIONS", batch)
            counts = np.concatenate([r.count for r in
                                     _replicate_set(idx, 100, 40)])
            assert counts.max() == 8 and counts.min() in (6, 7), batch
            assert_same(100, positions, 10, n_boot=40, threads=1)


def test_kept_set_is_read_only(tmp_path):
    path = simulate(garch_model(), 20_000, burn_in=2000, seed=RngSeed(4))
    run = experiments.AnalysisInputs(path.sigma, path.x, garch_model(),
                                     RngSeed(4), tmp_path)
    spec = experiments.read_spec("theta", {"method": "runs", "q": 0.99})
    experiments.ANALYSES["theta"](spec, run)
    s = run.sets["x_abs", 0.99]
    batches = s.kept[100]
    arrays = [s.idx] + [a for r in batches for a in r]
    assert len(batches) >= 1 and all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        batches[0].pos[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        s.idx[0] = 0


def test_a_run_builds_each_replicate_set_once(tmp_path, monkeypatch):
    # three (series, q) pairs, their theta analyses interleaved: one
    # declustering each per run, and a second run of the same config,
    # at another thread count, builds its own and reads the same
    built = []

    def counted(idx):
        built.append(idx.size)
        return _declustered(idx)
    monkeypatch.setattr(estimators, "_declustered", counted)
    cfg = experiments.ExperimentConfig(
        model=garch_model(), n=20_000, seed=RngSeed(4), burn_in=2000,
        analyses=(
            {"analysis": "theta", "method": "blocks", "q": 0.99},
            {"analysis": "theta", "method": "runs", "q": 0.995},
            {"analysis": "theta", "method": "intervals", "q": 0.99},
            {"analysis": "theta", "method": "runs", "q": 0.99},
            {"analysis": "theta", "method": "intervals", "q": 0.99,
             "series": "sigma"},
            {"analysis": "theta", "method": "blocks", "q": 0.995}))
    first = experiments.run_experiment(cfg, tmp_path / "a")
    assert len(built) == 3
    second = experiments.run_experiment(cfg, tmp_path / "b", threads=3)
    assert built[3:] == built[:3]
    assert second.results == first.results
    assert all("error" not in e and e["stderr"] > 0 for e in first.results)
