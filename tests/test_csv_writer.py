"""The vectorized CSV writer against Python's per-row % formatting.

`reference` is the row-at-a-time writer the vectorized one replaced; every
test requires the two to agree byte for byte.
"""

import io
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svextremes import RngSeed, simulate
from svextremes.models import (_CSV_BLOCK, _CSV_WORD, _g17_words,
                               _index_words, write_csv_rows)

from test_models import fig2_config


def reference(columns) -> str:
    fmt = "%d" + ",%.17g" * len(columns) + "\n"
    rows = zip(range(len(columns[0])), *(c.tolist() for c in columns))
    return "h\n" + "".join(fmt % r for r in rows)


def written(columns) -> str:
    buf = io.StringIO()
    write_csv_rows(buf, "h\n", columns)
    return buf.getvalue()


def assert_matches_reference(*columns):
    got, want = written(columns), reference(columns)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split("\n"), want.split("\n"))
               if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:5]}")


def blank(rows, width=4):
    words = np.empty((rows, width), _CSV_WORD)
    return words, np.empty_like(words)


def with_neighbours(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_doubles_match_percent_formatting(values):
    # st.floats() draws every double: NaN, +-inf, +-0 and subnormals too
    assert_matches_reference(np.array(values, dtype=np.float64))


def test_random_bit_patterns_match_percent_formatting():
    bits = np.random.default_rng(20_131_107).integers(
        0, 2 ** 64, size=1_000_000, dtype=np.uint64, endpoint=False)
    assert_matches_reference(bits.view(np.float64))


def test_powers_of_ten_and_neighbours():
    assert_matches_reference(with_neighbours(
        [float(f"1e{e}") for e in range(-323, 309)]))


def test_g_notation_switch_points():
    # %g is fixed for -4 <= E < 17 and scientific outside
    assert_matches_reference(with_neighbours(
        [1e-5, 5e-5, 1e-4, 9.99999999999999999e-5, 5e-4, 1e-3, 1e15, 5e15,
         1e16, 5e16, 1e17, 5e17, 0.1, 1.0, 10.0, 1.5, 123.0,
         0.000123456789]))


def test_values_rounding_up_to_a_power_of_ten():
    # doubles just below 10^E whose 17 digits round up to 10^17, so the
    # output takes the next exponent: the double nearest 1e-243 lies
    # below it and prints as '1e-243'
    near = with_neighbours([float(f"1e{e}") for e in range(-300, 300)])
    up = [v for v in near.tolist() if v > 0
          and Decimal("%.17g" % v).normalize().as_tuple().digits == (1,)
          and Fraction(v) < Fraction(Decimal("%.17g" % v))]
    assert len(up) >= 10
    assert_matches_reference(np.array(up))


def exact_ties() -> np.ndarray:
    # m 2^-j with m odd has an exact decimal expansion ending in 5; with
    # 18 significant digits it lies exactly halfway between two 17-digit
    # values, so %.17g must round half to even
    rng = np.random.default_rng(7)
    ties = []
    for j in range(1, 60):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if lo >= hi:
            continue
        for m in rng.integers(lo, hi, size=20).tolist() + [lo, hi - 1]:
            m |= 1
            if m < hi and len(str(m * 5 ** j)) == 18:
                ties.append(m / 2 ** j)
    return np.array(ties)


def test_exact_seventeen_digit_ties():
    ties = exact_ties()
    digits = [Decimal(v).as_tuple().digits for v in ties.tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    # both rounding directions occur
    assert {d[-2] % 2 for d in digits} == {0, 1}
    assert ties.size >= 200
    assert_matches_reference(np.concatenate([ties, -ties]))
    # and they leave the fast path
    assert _g17_words(ties, ord(","), *blank(ties.size)).size == ties.size


def test_bool_columns_and_block_edges():
    # three float columns across two block edges, with slow-path values on
    # the first; a bool column is rejected
    n = 2 * _CSV_BLOCK + 3
    x = np.random.default_rng(3).standard_normal(n)
    x[_CSV_BLOCK - 2:_CSV_BLOCK + 2] = [0.0, np.nan, -np.inf, 1e-320]
    assert_matches_reference(x, -x, np.exp(x))
    with pytest.raises(TypeError, match="bool"):
        write_csv_rows(io.StringIO(), "h\n", (x, x > 1.0))


@pytest.mark.parametrize("start, rows, width", [
    (0, 120, 1), (9_999_990, 10, 1), (9_999_995, 10, 2),
    (10 ** 14 - 5, 10, 2), (10 ** 15 - 5, 10, 3)])
def test_row_index_field(start, rows, width):
    # the index is right-aligned in `width` words; widths past one word
    # only occur beyond 10^7 rows
    words, keep = blank(rows, width)
    _index_words(start, words, keep)
    text = words.view(np.uint8)[keep.view(np.bool_)].tobytes().decode()
    assert text == "".join("%d," % t for t in range(start, start + rows))


def test_simulated_path_takes_the_fast_path():
    path = simulate(fig2_config(), 20_000, burn_in=100, seed=RngSeed(4))
    for v in (path.sigma, path.x):
        assert _g17_words(v, ord(","), *blank(v.size)).size == 0


def test_other_column_types_are_rejected():
    with pytest.raises(TypeError, match="int64"):
        write_csv_rows(io.StringIO(), "h\n", (np.arange(3),))
