import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svextremes.distributions import (InnovationSpec, constant, draw,
                                      finite_real, laplace, moment_abs,
                                      moment_pos, pareto, sample_innovation,
                                      std_normal, student_t, tail_prob)
from svextremes.rng import RngSeed

from moment_oracle import moment_abs_mc


# -- sampling -------------------------------------------------------------

def test_constant_sample():
    assert np.array_equal(sample_innovation(constant(2.0), 3, RngSeed(0)),
                          [2.0, 2.0, 2.0])


def test_sampling_determinism():
    a = sample_innovation(std_normal(), 2, RngSeed(3))
    b = sample_innovation(std_normal(), 2, RngSeed(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [
    std_normal(), student_t(5.0), student_t(3.0, standardized=False),
    laplace(4.0), pareto(3.0), constant(1.5),
], ids=["std_normal", "student_t", "student_t-raw", "laplace", "pareto",
        "constant"])
def test_draw_in_slices_equals_one_draw(spec):
    # kesten_index draws its sample in 2^16-value slices from one
    # generator; the sequential stream makes that the same sample
    n, step = 3 * 2 ** 16 + 5, 2 ** 16
    whole = draw(spec, RngSeed(7).generator(), n)
    g = RngSeed(7).generator()
    parts = [draw(spec, g, min(step, n - lo)) for lo in range(0, n, step)]
    assert np.array_equal(np.concatenate(parts), whole)


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
    # below 0, one minus the mirrored tail
    assert tail_prob(laplace(4.0), -math.log(10.0)) == \
        pytest.approx(1.0 - 0.5e-4, rel=1e-12)


def test_tail_prob_constant_steps_down_at_c():
    assert tail_prob(constant(1.5), 1.0) == 1.0
    assert tail_prob(constant(1.5), 1.5) == 0.0
    assert tail_prob(constant(1.5), 2.0) == 0.0


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


def test_moment_of_order_zero_is_one_and_negative_orders_are_rejected():
    # E|V|^0 = 1, even where every positive order diverges
    assert moment_abs(pareto(0.5), 0.0) == 1.0
    assert moment_abs(constant(0.0), 0) == 1.0
    with pytest.raises(ValueError, match="^r must be >= 0$"):
        moment_abs(std_normal(), -1.0)


def test_moment_diverges():
    with pytest.raises(ValueError, match="moment diverges"):
        moment_abs(pareto(4.0), 5.0)
    with pytest.raises(ValueError, match="moment diverges"):
        moment_abs(student_t(4.0), 4.0)


@pytest.mark.parametrize("spec,r,named", [
    (laplace(1e-100), 4, "laplace(rate=1e-100) at r=4.0"),
    (std_normal(), 400, "std_normal() at r=400.0"),
    (student_t(1000.0, standardized=False), 600,
     "student_t(df=1000.0, standardized=False) at r=600.0"),
], ids=["laplace", "std_normal", "student_t-raw"])
def test_moment_beyond_float_range_names_law_and_r(spec, r, named):
    # finite moments that a float cannot hold; math.exp raised an
    # OverflowError ("math range error") for each
    with pytest.raises(ValueError,
                       match=f"^E\\|V\\|\\^r of {re.escape(named)} exceeds "
                             "the float range$"):
        moment_abs(spec, r)


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


def test_parameters_are_stored_as_floats():
    rate = laplace(4).to_json()["rate"]
    assert rate == 4.0 and type(rate) is float
    assert laplace(4) == laplace(4.0)


@pytest.mark.parametrize("make, message", [
    (lambda: InnovationSpec("laplace", rate=4.0, df=3.0),
     "laplace takes no df, got 3.0"),
    (lambda: InnovationSpec.from_json({"kind": "laplace", "rate": 4,
                                       "df": 3}),
     "laplace takes no df, got 3"),
    (lambda: InnovationSpec("std_normal", standardized=True),
     "std_normal takes no standardized, got True"),
    (lambda: InnovationSpec("pareto", alpha=3.0, c=1.0),
     "pareto takes no c, got 1.0"),
    (lambda: InnovationSpec("student_t", df=4.0, standardized=1),
     "field 'standardized' must be true or false, got 1"),
    (lambda: InnovationSpec.from_json({"kind": "pareto", "alpha": 3,
                                       "shape": 1}),
     "innovation spec has no field 'shape'"),
    (lambda: InnovationSpec.from_json({"rate": 4.0}),
     "missing field 'kind'"),
])
def test_parameter_its_kind_does_not_use_rejected(make, message):
    # the parent read {"kind": "laplace", "rate": 4, "df": 3} and dropped
    # df when it wrote the spec back
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        InnovationSpec.from_json({"kind": "gamma", "rate": 1.0})


@pytest.mark.parametrize("make, message", [
    (lambda: pareto(math.inf), "alpha must be a finite number > 0, got inf"),
    (lambda: laplace(math.inf), "rate must be a finite number > 0, got inf"),
    (lambda: student_t(math.inf), "df must be a finite number > 0, got inf"),
    (lambda: InnovationSpec.from_json({"kind": "laplace", "rate": "4"}),
     "rate must be a finite number > 0, got '4'"),
], ids=["pareto-alpha-inf", "laplace-rate-inf", "student_t-df-inf",
        "laplace-rate-string"])
def test_infinite_parameters_rejected(make, message):
    # each parameter is read by its rule in PARAMETERS; the parent said
    # "<kind> requires a finite <parameter>"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: InnovationSpec("student_t"), "student_t requires df"),
    (lambda: InnovationSpec.from_json({"kind": "laplace"}),
     "laplace requires rate"),
    (lambda: InnovationSpec("pareto"), "pareto requires alpha"),
    (lambda: constant(math.nan), "field 'c' must be a finite number, got nan"),
    (lambda: laplace(-1.0), "rate must be a finite number > 0, got -1.0"),
    (lambda: student_t(0.0), "df must be a finite number > 0, got 0.0"),
], ids=["student_t-no-df", "laplace-no-rate", "pareto-no-alpha", "c-nan",
        "laplace-rate-negative", "student_t-df-zero"])
def test_missing_or_out_of_range_parameter_named(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_constant_and_student_t_parameters_read_by_their_rules():
    assert constant(0).c == 0.0 and type(constant(0).c) is float
    assert student_t(4).standardized is True
    assert student_t(3, standardized=False).standardized is False


@pytest.mark.parametrize("value, finite", [
    (np.float32(np.inf), False), (np.float32(-np.inf), False),
    (np.float32(np.nan), False), (np.float32(0.5), True),
    (10**400, False), (10**300, True), (np.int64(3), True),
    (math.inf, False), (True, False), ("1", False)])
def test_finite_real(value, finite):
    # the parent read a float32 infinity as finite, with a RuntimeWarning
    # from casting the largest float to float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert finite_real(value) is finite
