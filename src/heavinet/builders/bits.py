"""Digit-extraction networks.

The skip extractor exposes, for a radix vector ``(d_1, ..., d_L)``, the
threshold readouts ``step(b_l(x) >= t)`` of the mixed-radix digits of x in
its last hidden layer: layer l carries all readouts for digits 1..l, the
``d_l - 1`` new ones tap the raw input through a skip row and subtract the
running truncation, which is an affine function of the earlier readouts.

The lin extractors work in base two.  The wide variant carries x in one
identity neuron and accumulates the digits so the last hidden layer holds
all of them; the narrow variant keeps only the current digit and the
remainder ``x - sum b_i 2^{-i}``, so layer l contains digit l.

The ``grow_*`` helpers emit the same structures into an existing builder,
one shared layer per digit level across any number of input coordinates;
the larger constructions stack their own machinery on top of them.
"""

from __future__ import annotations

from ..errors import InvalidInputError
from ..networks import NetworkKind
from ..radix import check_digit_budget, check_radix, radix_products
from .built import BuiltNetwork, Construction
from .dsl import NetBuilder

__all__ = [
    "mixed_radix_bit_extractor",
    "binary_bit_extractor_lin",
    "grow_radix_readouts",
    "grow_binary_bits_lin",
    "grow_narrow_digit",
]


def grow_radix_readouts(nb: NetBuilder, radix, coords=(0,)) -> dict[tuple[int, int, int], int]:
    """Grow digit-threshold readouts for each input coordinate in ``coords``.

    Adds one hidden layer per digit level; afterwards the last layer holds
    handles for ``step(b_l(x_i) >= t)`` keyed by ``(i, l, t)``.  Levels past
    the first tap the input through skip rows, so ``nb`` must be a skip
    builder whenever ``len(radix) > 1``.
    """
    prods = radix_products(radix)
    nb.new_layer()
    current = {(i, 1, t): nb.step({i: 1.0}, bias=-t / prods[0])
               for i in coords for t in range(1, radix[0])}
    for ell in range(2, len(radix) + 1):
        # running truncation sum_{r<ell} b_r/S_r enters through the previous
        # layer's readouts; the raw input arrives through a skip row
        trunc = {i: {h: -1.0 / prods[r - 1]
                     for (j, r, _), h in current.items() if j == i}
                 for i in coords}
        nb.new_layer()
        carried = {key: nb.forward(h) for key, h in current.items()}
        for i in coords:
            for t in range(1, radix[ell - 1]):
                carried[(i, ell, t)] = nb.step(dict(trunc[i]),
                                               bias=-t / prods[ell - 1], inp={i: 1.0})
        current = carried
    return current


def grow_binary_bits_lin(nb: NetBuilder, nbits: int, coords=(0,)) -> dict[tuple[int, int], int]:
    """Grow the wide binary extractors: after ``nbits`` layers the last one
    holds ``b_l(x_i)`` for every coordinate and level, keyed by ``(i, l)``.
    One identity neuron per coordinate carries x_i between layers."""
    nb.new_layer()
    digits = {(i, 1): nb.step({i: 1.0}, bias=-0.5) for i in coords}
    carriers = {i: nb.linear({i: 1.0}) for i in coords} if nbits > 1 else {}
    for ell in range(2, nbits + 1):
        rows = {i: {carriers[i]: 1.0,
                    **{h: -(2.0 ** -r) for (j, r), h in digits.items() if j == i}}
                for i in coords}
        nb.new_layer()
        new_digits = {key: nb.forward(h) for key, h in digits.items()}
        for i in coords:
            new_digits[(i, ell)] = nb.step(rows[i], bias=-(2.0 ** -ell))
        if ell < nbits:
            carriers = {i: nb.linear({carriers[i]: 1.0}) for i in coords}
        digits = new_digits
    return digits


def grow_narrow_digit(nb: NetBuilder, rem: int, bit: int | None, ell: int,
                      levels: int) -> tuple[int, int | None]:
    """One narrow extraction step: digit ``ell`` of a value in [0, 1) and,
    unless ``ell`` is the last of ``levels``, its next remainder.

    ``rem`` carries the remainder ``r = x - sum_{i<ell-1} b_i 2^-i`` on the
    previous layer and ``bit`` its digit ``ell - 1`` (None at ``ell = 1``,
    where ``rem`` is x itself).  Returns the handles of
    ``b_ell = step(r - b_{ell-1} 2^-(ell-1) - 2^-ell)`` and of the identity
    neuron carrying ``r - b_{ell-1} 2^-(ell-1)`` (None after the last level).
    """
    row = {rem: 1.0} if bit is None else {rem: 1.0, bit: -(2.0 ** -(ell - 1))}
    return nb.step(row, bias=-(2.0 ** -ell)), (nb.linear(row) if ell < levels else None)


def mixed_radix_bit_extractor(radix) -> BuiltNetwork:
    """Skip network exposing ``step(b_l(x) >= t)`` for every digit and level.

    Probes ``d{l}>={t}`` point at the last hidden layer, where all readouts
    are present; the output is the truncation ``sum_l b_l(x) / (d_1...d_l)``.
    """
    radix = check_radix(radix)
    prods = radix_products(radix)
    nb = NetBuilder(1, NetworkKind.SKIP)
    current = grow_radix_readouts(nb, radix)
    for (_, ell, t), h in current.items():
        nb.tag(f"d{ell}>={t}", h)
    out_row = {h: 1.0 / prods[ell - 1] for (_, ell, t), h in current.items()}
    nb.output([out_row], [0.0])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes,
                        Construction("mixed_radix_bit_extractor", {"radix": list(radix)}))


def binary_bit_extractor_lin(L: int, variant: str = "narrow") -> BuiltNetwork:
    """Lin network exposing the binary digits ``b_1(x)..b_L(x)``.

    ``wide``: one identity neuron carries x; layer l holds digits 1..l, the
    last hidden layer all of them (probes ``b{l}`` point there).
    ``narrow``: layer l holds digit l and the remainder; probes ``b{l}``
    point at layer l.
    """
    if L < 1:
        raise InvalidInputError("binary extractor: L must be >= 1")
    check_digit_budget(L, "binary extractor")
    if variant not in ("wide", "narrow"):
        raise InvalidInputError(f"binary extractor: unknown variant {variant!r}")
    nb = NetBuilder(1, NetworkKind.LIN)
    if variant == "wide":
        digits = grow_binary_bits_lin(nb, L)
        for (_, r), h in digits.items():
            nb.tag(f"b{r}", h)
        nb.output([{h: 2.0 ** -r for (_, r), h in digits.items()}], [0.0])
    else:
        rem, bit = 0, None  # the remainder before digit 1 is the input x
        for ell in range(1, L + 1):
            nb.new_layer()
            bit, rem = grow_narrow_digit(nb, rem, bit, ell, L)
            nb.tag(f"b{ell}", bit)
        nb.output([{bit: 1.0}], [0.0])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes,
                        Construction("binary_bit_extractor_lin", {"L": L, "variant": variant}))
