"""Positional digit expansions with per-position radices.

For a radix vector ``(d_1, ..., d_L)`` the digits of ``x`` in ``[0, 1)`` are
the floor recursion ``b_1 = floor(d_1 x)``, ``b_2 = floor(d_1 d_2 (x -
b_1/d_1))`` and so on; ``x = 1`` takes the all-``(d_l - 1)`` convention.
Digits are computed in exact integer arithmetic on the rational value of the
float argument, so a digit never lands on the wrong side of a cell boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, PrecisionError

__all__ = ["DigitVector", "mixed_radix_digits", "binary_digits", "radix_products"]


def check_digit_budget(digits: int, what: str) -> None:
    """Refuse more than 52 binary digits, the float64 significand.

    Every digit oracle and construction that needs its digits or weights
    exact calls this with its digit count; a product ``P`` of radices needs
    ``(P - 1).bit_length()`` digits.
    """
    if digits > 52:
        raise PrecisionError(f"{what} needs {digits} binary digits, "
                             "more than a float64 significand holds (52)")


def radix_products(radix: tuple[int, ...]) -> list[int]:
    """Cumulative products ``S_l = d_1 ... d_l``."""
    out = []
    s = 1
    for d in radix:
        s *= d
        out.append(s)
    return out


@dataclass(frozen=True)
class DigitVector:
    """Digits of one number for a fixed radix vector."""

    radix: tuple[int, ...]
    digits: tuple[int, ...]

    def __post_init__(self):
        for d, b in zip(self.radix, self.digits):
            if not 0 <= b <= d - 1:
                raise InvalidInputError(f"digit {b} outside [0, {d - 1}]")

    def truncated_value(self) -> float:
        """The truncation ``sum_l b_l / (d_1 ... d_l)``, a lower bound for x."""
        return float(self.truncated_fraction())

    def truncated_fraction(self) -> Fraction:
        total = Fraction(0)
        s = 1
        for d, b in zip(self.radix, self.digits):
            s *= d
            total += Fraction(b, s)
        return total

    def thresholds(self) -> list[int]:
        """Threshold readouts ``step(b_l >= t)`` for ``t`` in ``1..d_l - 1``,
        position-major, matching the bit-extractor networks' hidden layout."""
        out = []
        for d, b in zip(self.radix, self.digits):
            out.extend(1 if b >= t else 0 for t in range(1, d))
        return out


def check_radix(radix) -> tuple[int, ...]:
    """The radix vector as a tuple of ints, each at least 2, whose product
    stays within the digit budget."""
    radix = tuple(int(d) for d in radix)
    if not radix:
        raise InvalidInputError("radix vector is empty")
    if any(d < 2 for d in radix):
        raise InvalidInputError(f"radix entries must be >= 2, got {radix}")
    # the prefix products only grow: stop at the first one past the budget
    prod = 1
    for d in radix:
        prod *= d
        if prod > 2**52:
            break
    check_digit_budget((prod - 1).bit_length(), f"radix prefix product {prod}")
    return radix


def mixed_radix_digits(x: float, radix) -> DigitVector:
    """Digits of ``x`` in ``[0, 1]`` for the given radix vector.

    The recursion is evaluated on the exact rational value of the float
    ``x``, via ``b_l = F_l - d_l F_{l-1}`` with ``F_l = floor(S_l x)``.
    """
    radix = check_radix(radix)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise InvalidInputError(f"x={x} outside [0, 1]")
    if x == 1.0:
        return DigitVector(radix, tuple(d - 1 for d in radix))
    num, den = x.as_integer_ratio()
    digits = []
    prev_floor = 0
    s = 1
    for d in radix:
        s *= d
        cur = (s * num) // den
        digits.append(cur - d * prev_floor)
        prev_floor = cur
    return DigitVector(radix, tuple(digits))


def binary_digits(x: float, nbits: int) -> DigitVector:
    """First ``nbits`` binary digits of ``x``, same conventions as above."""
    check_digit_budget(nbits, "binary_digits")  # before the radix tuple is made
    return mixed_radix_digits(x, (2,) * nbits)


def binary_digits_array(xs: np.ndarray, nbits: int) -> np.ndarray:
    """Vectorized binary digits, shape (n, nbits); exact for float64 inputs.

    Scaling by powers of two is exact, so the int64 path reproduces the
    rational recursion bit for bit.
    """
    if nbits < 1:
        raise InvalidInputError(f"nbits={nbits} must be at least 1")
    check_digit_budget(nbits, "binary_digits_array")
    xs = np.asarray(xs, dtype=float)
    if np.any((xs < 0) | (xs > 1)):
        raise InvalidInputError("binary_digits_array: value outside [0, 1]")
    scaled = np.floor(xs * float(2**nbits)).astype(np.int64)
    scaled = np.minimum(scaled, 2**nbits - 1)  # x == 1 convention
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.int64)
    return ((scaled[..., None] >> shifts) & 1).astype(np.int64)
