"""The numpy ``%.17g`` formatter against ``"%.17g" % x``, its oracle."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcsim._float_text import _TEN, float_text


def _texts(values) -> list[str]:
    rows = float_text(np.asarray(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode() for row in rows]


def _assert_formats(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    assert _texts(values) == ["%.17g" % x for x in values.tolist()]


def _neighbours(x: float) -> list[float]:
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


def test_powers_of_ten_and_their_neighbours():
    values = [y for j in range(-4, 17) for x in (float(f"1e{j}"), -float(f"1e{j}"))
              for y in _neighbours(x)]
    _assert_formats(values)


def test_the_thresholds_are_the_least_doubles_at_or_above_the_powers_of_ten():
    # floor(log10 |x|) is read from the count of thresholds at or below |x|.
    for j, t in zip(range(-5, 21), _TEN.tolist()):
        assert Fraction(t) >= Fraction(10) ** j > Fraction(float(np.nextafter(t, 0.0)))


def test_the_bounds_of_the_integer_path():
    # fl(1e-4) <= |x| < 1e16 goes through the integer digits, the rest through %.
    _assert_formats([*_neighbours(1e-4), *_neighbours(1e16), 9999999999999998.0,
                     0.0001, 0.00010000000000000002, 9.9999999999999991e-05])


@pytest.mark.parametrize("x, text", [
    (1 + 2 ** -17, "1.0000076293945312"),    # a tie, rounded to even
    (1 + 2 ** -52, "1.0000000000000002"),
    (0.1, "0.10000000000000001"),
    (0.5, "0.5"),
    (-0.25, "-0.25"),
    (1234.5, "1234.5"),
    (1e15 + 0.125, "1000000000000000.1"),
    (-2.0 ** -11, "-0.00048828125"),
    (100.0, "100"),
])
def test_chosen_values(x, text):
    assert _texts([x]) == [text] == ["%.17g" % x]


def test_ties_round_half_to_even():
    # Doubles whose exact decimal has 18 significant digits, the last a 5:
    # halfway between two 17-digit texts.
    rng = np.random.default_rng(3)
    candidates = np.ldexp(rng.integers(1, 2 ** 20, 40000).astype(float), rng.integers(-40, 0, 40000))
    ties = [x for x in candidates.tolist()
            if 1e-4 <= x < 1e16 and len(Decimal(x).as_tuple().digits) == 18]
    assert len(ties) > 100
    # Both ways: the 17th digit is odd (rounded up) or even (rounded down).
    assert {Decimal(x).as_tuple().digits[16] % 2 for x in ties} == {0, 1}
    _assert_formats(ties)


def test_zeros_subnormals_infinities_and_nan():
    tiny = np.nextafter(0.0, 1.0)
    smallest_normal = np.finfo(np.float64).tiny
    _assert_formats([0.0, -0.0, tiny, -tiny, 3 * tiny, smallest_normal,
                     float(np.nextafter(smallest_normal, 0.0)), -smallest_normal,
                     np.inf, -np.inf, np.nan, -np.nan, np.finfo(np.float64).max])


def test_random_bit_patterns_over_every_exponent():
    rng = np.random.default_rng(20240)
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 16)
    bits = rng.integers(0, 2 ** 63, exponents.size, dtype=np.uint64, endpoint=True)
    bits &= np.uint64((1 << 52) - 1) | np.uint64(1 << 63)
    bits |= exponents << np.uint64(52)
    _assert_formats(bits.view(np.float64))


def test_a_seeded_sample():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64),
        rng.normal(0.0, 1e4, 20000),
        np.ldexp(rng.uniform(1.0, 2.0, 20000), rng.integers(-15, 55, 20000)),
        np.round(rng.uniform(-1e8, 1e8, 20000)) / 10.0 ** rng.integers(0, 6, 20000),
    ])
    _assert_formats(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_any_floats(values):
    _assert_formats(values)


def test_a_table_mixing_both_paths_keeps_its_order():
    table = np.array([
        [0.0, 1.5, np.nan, -2.5e-5, 123.456],
        [1e300, -0.0, 4e-4, np.inf, 1e16 - 2],
        [5e-324, 0.1, -1e16, 7.0, -np.inf],
    ])
    text = float_text(table)
    assert text.shape == (table.size, 24) and text.dtype == np.uint8
    _assert_formats(table)
