"""The extremogram and the anticlustering rule on exceedance indices
against the indicator series.

tests/dense_theta.py holds both written over n-long boolean series. The
package reads every count from the sorted exceedance indices, so the two
must agree bit for bit, ties at the threshold and infinite values
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_theta as dense
from svextremes import (Garch11Pair, RngSeed, SreSvConfig, extremogram,
                        simulate, std_normal)
from svextremes.estimators import _window_reach


def outcome(call):
    """The call's (u, chi_hat, stderr) as bytes, or its ValueError."""
    try:
        with np.errstate(invalid="ignore"):  # quantiles between infinities
            r = call()
    except ValueError as e:
        return str(e)
    if not isinstance(r, tuple):
        r = (r.u, r.chi_hat, r.stderr)
    u, chi, se = r
    return np.float64(u).tobytes(), chi.tobytes(), se.tobytes()


def assert_same(v, lags, q):
    v = np.asarray(v, dtype=float)
    got = outcome(lambda: extremogram(v, lags, q))
    assert got == outcome(lambda: dense.extremogram(v, lags, q))
    assert not isinstance(got, str) or got == "no exceedances"


@st.composite
def lag_sets(draw, n):
    """Lags below n/2 that always include the largest one."""
    top = (n - 1) // 2
    return draw(st.lists(st.integers(0, top), max_size=6)) + [top]


@given(data=st.data(), vals=st.lists(st.integers(0, 3), min_size=2,
                                     max_size=80),
       q=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_integer_series_with_ties_bit_equal(data, vals, q):
    # four values over up to 80 places: u sits on a tie for most q
    assert_same(vals, data.draw(lag_sets(len(vals))), q)


@given(data=st.data(), c=st.floats(allow_nan=False), n=st.integers(2, 60),
       q=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_constant_series_bit_equal(data, c, n, q):
    assert_same(np.full(n, c), data.draw(lag_sets(n)), q)


@given(data=st.data(),
       vals=st.lists(st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, 1.0]),
                               st.floats(-1e3, 1e3)),
                     min_size=2, max_size=60),
       q=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_series_with_infinities_bit_equal(data, vals, q):
    assert_same(vals, data.draw(lag_sets(len(vals))), q)


def test_threshold_at_minus_infinity_takes_every_value(monkeypatch):
    # numpy's type-7 quantile reads NaN rather than -inf next to an
    # infinite value, so the u = -inf branch is reached by patching it
    v = np.array([-np.inf, 2.0, -np.inf, -np.inf, 5.0, -np.inf, 1.0])
    monkeypatch.setattr(np, "quantile", lambda values, q: -np.inf)
    assert_same(v, (0, 1, 3), 0.5)
    assert np.array_equal(extremogram(v, (0, 1, 3), 0.5).chi_hat,
                          np.ones(3))


@pytest.mark.parametrize("q", [0.95, 0.99, 0.999])
def test_garch_path_bit_equal(q):
    pair = Garch11Pair(alpha0=1e-7, alpha1=0.1, beta1=0.89, eta=std_normal())
    model = SreSvConfig(p=2.0, pair_source=pair, z=std_normal())
    v = np.abs(simulate(model, 20_000, burn_in=2000, seed=RngSeed(8)).x)
    assert_same(v, range(0, 11), q)
    assert_same(v, (9_999,), q)


@given(data=st.data(), r_n=st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_window_reach_matches_window_rule(data, r_n):
    width = 2 * r_n + 1
    n = data.draw(st.integers(width, 3 * width))
    t = data.draw(st.integers(r_n, n - r_n - 1))
    positions = data.draw(st.sets(st.integers(0, n - 1), max_size=n)) | {t}
    e = np.zeros(n, dtype=bool)
    e[list(positions)] = True
    reach = _window_reach(np.flatnonzero(e), t, r_n)
    w = e[t - r_n:t + r_n + 1]
    for m in range(1, r_n):
        assert dense.window_hits(w, r_n, m) == (reach >= m), m
