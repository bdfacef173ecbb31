import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svextremes.distributions import (InnovationSpec, constant, laplace,
                                      moment_abs, moment_abs_mc, moment_pos,
                                      pareto, sample_innovation, std_normal,
                                      student_t, tail_prob)
from svextremes.rng import RngSeed


# -- sampling -------------------------------------------------------------

def test_constant_sample():
    assert np.array_equal(sample_innovation(constant(2.0), 3, RngSeed(0)),
                          [2.0, 2.0, 2.0])


def test_sampling_determinism():
    a = sample_innovation(std_normal(), 2, RngSeed(3))
    b = sample_innovation(std_normal(), 2, RngSeed(3))
    assert np.array_equal(a, b)


def test_pareto_sample_tail_frequency():
    # P(X > 10) = 1e-4; band is about 1.6 binomial sd wide on each side
    x = sample_innovation(pareto(4.0), 100_000, RngSeed(1))
    emp = float(np.mean(x > 10.0))
    assert 0.5e-4 <= emp <= 1.5e-4


def test_standardized_t_has_unit_variance():
    x = sample_innovation(student_t(4.0), 200_000, RngSeed(2))
    assert abs(float(np.var(x)) - 1.0) < 0.08


def test_standardized_t_low_df_rejected():
    with pytest.raises(ValueError, match="variance undefined"):
        student_t(2.0)


# -- analytic tails -------------------------------------------------------

def test_tail_prob_pareto():
    assert tail_prob(pareto(4.0), 1.0) == 1.0
    assert tail_prob(pareto(4.0), 10.0) == pytest.approx(1e-4, rel=1e-12)


def test_tail_prob_laplace():
    assert tail_prob(laplace(4.0), math.log(10.0)) == \
        pytest.approx(0.5e-4, rel=1e-12)


@pytest.mark.parametrize("spec", [std_normal(), student_t(2.5),
                                  student_t(4.0), student_t(30.5),
                                  student_t(3.0, standardized=False)],
                         ids=lambda s: f"{s.kind}-{s.df}-{s.standardized}")
def test_tail_prob_equals_scipy_stats_bit_for_bit(spec):
    from scipy import stats

    x = np.linspace(-40.0, 40.0, 20_001)
    if spec.kind == "std_normal":
        ref = stats.norm.sf(x)
    else:
        scale = math.sqrt(spec.df / (spec.df - 2.0)) if spec.standardized \
            else 1.0
        ref = stats.t.sf(x * scale, spec.df)
    got = np.array([tail_prob(spec, v) for v in x.tolist()])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("spec", [std_normal(), student_t(4.0),
                                  laplace(4.0), pareto(4.0)])
def test_empirical_survival_matches_tail_prob(spec):
    n = 1_000_000
    x = sample_innovation(spec, n, RngSeed(11))
    lo = float(np.quantile(x, 0.5))
    hi = float(np.quantile(x, 0.999))
    for t in np.linspace(lo, hi, 7):
        p = tail_prob(spec, float(t))
        emp = float(np.mean(x > t))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(emp - p) <= 5 * se


# -- moments --------------------------------------------------------------

def test_moment_constant():
    assert moment_abs(constant(3.0), 2.0) == 9.0


def test_moment_normal_fourth():
    assert moment_abs(std_normal(), 4.0) == pytest.approx(3.0, rel=1e-12)
    assert moment_pos(std_normal(), 4.0) == pytest.approx(1.5, rel=1e-12)


def test_moment_diverges():
    with pytest.raises(ValueError, match="moment diverges"):
        moment_abs(pareto(4.0), 5.0)
    with pytest.raises(ValueError, match="moment diverges"):
        moment_abs(student_t(4.0), 4.0)


@pytest.mark.parametrize("spec,r", [
    (std_normal(), 2.0), (std_normal(), 4.0), (laplace(1.0), 2.0),
    (laplace(4.0), 1.0), (pareto(4.0), 2.0), (student_t(5.0), 2.0),
    (constant(-2.0), 3.0),
])
def test_moment_mc_agrees_with_analytic(spec, r):
    exact = moment_abs(spec, r)
    mc, se = moment_abs_mc(spec, r, 200_000, RngSeed(8))
    assert abs(mc - exact) <= 4 * max(se, 1e-12)


@pytest.mark.parametrize("spec", [std_normal(), student_t(6.0),
                                  laplace(2.0)])
def test_moment_pos_halves_symmetric(spec):
    r = 2.0
    assert moment_pos(spec, r) == pytest.approx(moment_abs(spec, r) / 2.0,
                                                rel=1e-12)


def test_moment_pos_one_sided():
    assert moment_pos(pareto(4.0), 2.0) == moment_abs(pareto(4.0), 2.0)
    assert moment_pos(constant(-2.0), 3.0) == 0.0


# -- serialization --------------------------------------------------------

SPEC_STRATEGY = st.one_of(
    st.just(std_normal()),
    st.floats(min_value=2.1, max_value=50.0,
              allow_nan=False).map(lambda d: student_t(d)),
    st.floats(min_value=0.1, max_value=50.0,
              allow_nan=False).map(laplace),
    st.floats(min_value=0.1, max_value=50.0,
              allow_nan=False).map(pareto),
    st.floats(min_value=-5.0, max_value=5.0,
              allow_nan=False).map(constant),
)


@given(spec=SPEC_STRATEGY)
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(spec):
    assert InnovationSpec.from_json(spec.to_json()) == spec


def test_json_field_names():
    assert laplace(4.0).to_json() == {"kind": "laplace", "rate": 4.0}
    assert pareto(3.0).to_json() == {"kind": "pareto", "alpha": 3.0}
    assert constant(1.5).to_json() == {"kind": "constant", "c": 1.5}
    t = student_t(4.0).to_json()
    assert t == {"kind": "student_t", "df": 4.0, "standardized": True}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        InnovationSpec.from_json({"kind": "gamma", "rate": 1.0})


@pytest.mark.parametrize("make, message", [
    (lambda: pareto(math.inf), "pareto requires a finite alpha"),
    (lambda: laplace(math.inf), "laplace requires a finite rate"),
    (lambda: student_t(math.inf), "student_t requires a finite df"),
    (lambda: InnovationSpec.from_json({"kind": "laplace", "rate": "4"}),
     "laplace requires a finite rate, got '4'"),
])
def test_infinite_parameters_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()
