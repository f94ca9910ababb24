"""Digit recursion: hand values, conventions, and the truncation sandwich."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavinet import InvalidInputError, PrecisionError, mixed_radix_digits
from heavinet.radix import (
    DigitVector,
    binary_digits,
    binary_digits_array,
    check_radix,
    radix_products,
)


def test_hand_values():
    assert mixed_radix_digits(0.25, (10, 10)).digits == (2, 5)
    assert mixed_radix_digits(0.0, (2, 2, 2)).digits == (0, 0, 0)
    assert mixed_radix_digits(0.5, (3,)).digits == (1,)
    assert mixed_radix_digits(0.625, (2, 2, 2)).digits == (1, 0, 1)


def test_one_takes_top_digits():
    assert mixed_radix_digits(1.0, (2, 3)).digits == (1, 2)
    assert mixed_radix_digits(1.0, (7, 7)).digits == (6, 6)


def test_digit_budget_is_the_float64_significand():
    # 52 binary digits are exact; one more is a PrecisionError in every oracle
    assert mixed_radix_digits(0.75, (2,) * 52).digits[:3] == (1, 1, 0)
    assert mixed_radix_digits(0.75, (2**26, 2**26)).digits == (3 * 2**24, 0)
    assert binary_digits(0.75, 52).digits == mixed_radix_digits(0.75, (2,) * 52).digits
    assert binary_digits_array([0.75], 52)[0, :3].tolist() == [1, 1, 0]
    for oracle in (lambda: mixed_radix_digits(0.5, (2,) * 53),
                   lambda: mixed_radix_digits(0.5, (2**26, 2**26 + 1)),
                   lambda: binary_digits(0.5, 53),
                   lambda: binary_digits_array([0.5], 53),
                   lambda: binary_digits(0.5, 10**9),
                   lambda: binary_digits_array([0.5], 10**9)):
        with pytest.raises(PrecisionError, match="binary digits"):
            oracle()


def test_domain_and_radix_validation():
    with pytest.raises(InvalidInputError):
        mixed_radix_digits(-0.1, (2,))
    with pytest.raises(InvalidInputError):
        mixed_radix_digits(0.5, (1, 2))
    with pytest.raises(InvalidInputError):
        mixed_radix_digits(0.5, (2,) * 53)
    with pytest.raises(InvalidInputError, match="empty"):
        check_radix(())
    with pytest.raises(InvalidInputError, match=r"digit 3 outside \[0, 2\]"):
        DigitVector((3, 2), (3, 0))
    with pytest.raises(InvalidInputError, match="nbits=0"):
        binary_digits_array([0.5], 0)
    for x in (-0.25, 1.5):
        with pytest.raises(InvalidInputError, match=r"outside \[0, 1\]"):
            binary_digits_array([0.5, x], 4)


def test_check_radix_stops_at_the_first_prefix_past_the_budget():
    # the whole product of 10^6 twos took 25 s, and its digits are past
    # Python's int-to-str limit; the first prefix past 2^52 is 2^53
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match=f"radix prefix product {2**53} needs 53 binary"):
        check_radix((2,) * 10**6)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PrecisionError, match=f"radix prefix product {3 * 2**52} "):
        check_radix((2,) * 52 + (3, 7))
    assert check_radix([2] * 52) == (2,) * 52


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.integers(min_value=2, max_value=10), min_size=1, max_size=8))
def test_truncation_sandwich(x, radix):
    """trunc <= x <= trunc + 1/(d_1...d_L), verified in exact arithmetic."""
    dv = mixed_radix_digits(x, radix)
    trunc = dv.truncated_fraction()
    xf = Fraction(x)
    prod = radix_products(tuple(radix))[-1]
    if x == 1.0:
        assert trunc == 1 - Fraction(1, prod)
    else:
        assert trunc <= xf <= trunc + Fraction(1, prod)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=40))
def test_binary_array_matches_scalar(x, nbits):
    arr = binary_digits_array(np.array([x]), nbits)[0]
    assert tuple(arr) == binary_digits(x, nbits).digits


def test_thresholds_readout():
    dv = mixed_radix_digits(0.5, (3,))
    assert dv.thresholds() == [1, 0]  # digit 1: >=1 yes, >=2 no
