"""Skip-network approximation of the square function on [0, 1].

The first L-1 hidden layers extract the mixed-radix digits of x for the
radix vector ``(p_1+1, s_2+1, ..., s_{L-1}+1)``; the truncation xt then
satisfies ``xt <= x <= xt + 1/S`` with ``S = (p_1+1) prod (s_l+1)``.  The
last hidden layer multiplies every pair of digit readouts through the AND
identity ``step(a + b - 3/2)``, and the output expands

    (xt + 1/(2S))^2

as an affine function of those products.  The sup error is at most ``1/S``.
"""

from __future__ import annotations

from itertools import accumulate

from ..errors import InvalidInputError
from ..networks import Architecture, NetworkKind
from ..radix import check_digit_budget, radix_products
from .bits import grow_radix_readouts
from .built import BuiltNetwork, Construction, Guarantee
from .dsl import NetBuilder

__all__ = ["square_approximator", "square_architecture"]


def square_architecture(L: int, p1: int, skips) -> Architecture:
    """The architecture ``square_approximator(L, p1, skips)`` builds, from
    its arguments alone (refused as it refuses them): widths ``(1, p_1,
    p_1+s_2, ..., p_1 + sum s_l, B(B+1)/2, 1)`` with ``B = p_1 + s_2 + ... +
    s_{L-1}``, and skip budgets ``(s_2, ..., s_L)``."""
    skips = tuple(int(s) for s in skips)
    if L < 2 or p1 < 1:
        raise InvalidInputError("square approximator needs L >= 2 and p1 >= 1")
    if len(skips) != L - 1:
        raise InvalidInputError(f"skips must have length L-1 = {L - 1}")
    if skips[-1] != 0:
        raise InvalidInputError("square approximator requires s_L = 0")
    if any(s < 0 for s in skips):
        raise InvalidInputError("skip budgets must be non-negative")
    digit_widths = list(accumulate(skips[:-1], initial=p1))
    B = digit_widths[-1]
    return Architecture(NetworkKind.SKIP, (1, *digit_widths, B * (B + 1) // 2, 1), skips)


def square_approximator(L: int, p1: int, skips) -> BuiltNetwork:
    """Network of depth L computing ``(xt + 1/(2S))^2``; skips = (s_2..s_L).

    The last skip budget must be zero: the product layer has no input taps.
    The architecture is ``square_architecture(L, p1, skips)``.
    """
    skips = square_architecture(L, p1, skips).skip_counts

    radix = (p1 + 1, *(s + 1 for s in skips[:-1]))
    prods = radix_products(radix)
    S = prods[-1]
    # the output weights are products of two grid fractions
    check_digit_budget((S * S - 1).bit_length(), f"squared digit grid {S}^2")
    half_cell = 1.0 / (2 * S)

    nb = NetBuilder(1, NetworkKind.SKIP)
    readouts = grow_radix_readouts(nb, radix)
    for (_, ell, t), h in readouts.items():
        nb.tag(f"d{ell}>={t}", h)
    keys, handles = zip(*sorted(readouts.items()))  # position-major (0, ell, t)

    nb.new_layer()
    products = {(i, j): nb.all_of([handles[i], handles[j]])
                for i in range(len(handles)) for j in range(i, len(handles))}

    # (sum_l b_l/S_l + c)^2 expanded over readout products; b_l = sum_t readouts
    coeff = [1.0 / prods[ell - 1] for _, ell, _ in keys]
    row: dict[int, float] = {}
    for (i, j), h in products.items():
        if i == j:
            row[h] = coeff[i] * coeff[i] + 2.0 * half_cell * coeff[i]
        else:
            row[h] = 2.0 * coeff[i] * coeff[j]
    nb.output([row], [half_cell * half_cell])
    net, probes = nb.build()

    bound = 1.0 / (S * (skips[-1] + 1))
    params = {"L": L, "p1": p1, "skips": list(skips)}
    return BuiltNetwork(net, Guarantee(bound, 1), probes,
                        Construction("square_approximator", params))
