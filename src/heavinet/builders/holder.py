"""Approximation of smooth targets by quantized local Taylor expansion.

The domain is cut into dyadic cells (the decoder geometry); ``xt`` denotes
the center of the cell containing x.  The network computes

    sum_alpha  app(D^alpha f0 at xt) * prod_k app(x_pi(k) - xt_pi(k)) / alpha!

over the multi-indices ``alpha`` with ``|alpha|_1 < beta``, where both
factors are q-bit quantizations: the derivative values are rescaled into
[0, 1] by the caller-supplied bounds ``B_alpha``, their leading q bits are
stored in decoder tables, and the offsets ``x - xt`` reuse the extracted
digits directly.  With ``levels`` digit levels per coordinate and
``q = ceil(beta) * levels``, the output is within ``2^-q * sum B_alpha`` of
the exact truncated Taylor polynomial, and within
``2 * holder_norm_bound * 2^(-beta * levels)`` of the target itself.

Everything lands in one network: digit extraction (levels 1..q), a bank of
decoders producing the quantized derivative bits (parallel staggered slices
for the skip kind, sequential blocks with identity carriers for the lin
kind), one AND layer holding every product of a derivative bit with up to
``ceil(beta)`` digit bits, and an affine output carrying the dyadic
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from ..errors import InvalidInputError
from ..networks import NetworkKind
from ..radix import check_digit_budget
from .bits import grow_binary_bits_lin, grow_radix_readouts
from .built import BuiltNetwork, Construction, Guarantee
from .decoders import CellGeometry, grow_lin_decoder, grow_skip_decoder_bank
from .dsl import NetBuilder

__all__ = ["HolderConfig", "holder_approximator", "multi_indices", "alpha_positions"]


def multi_indices(d: int, beta: float) -> list[tuple[int, ...]]:
    """All alpha in N^d with |alpha|_1 < beta, graded lexicographic."""
    if d < 1 or beta <= 0:
        raise InvalidInputError("multi indices need d >= 1 and beta > 0")
    limit = int(math.ceil(beta)) - 1 if float(beta).is_integer() else int(math.floor(beta))

    alphas = (a for a in product(range(limit + 1), repeat=d) if sum(a) <= limit)
    return sorted(alphas, key=lambda a: (sum(a), a))


def alpha_positions(alpha: tuple[int, ...]) -> list[int]:
    """Coordinate of each factor of x^alpha, coordinates in increasing order."""
    out: list[int] = []
    for i, a in enumerate(alpha):
        out.extend([i] * a)
    return out


@dataclass
class HolderConfig:
    """Everything the construction needs to know about the target.

    ``bounds[alpha]`` must dominate ``sup |D^alpha f0|`` on the cube;
    ``deriv(alpha, X)`` returns the derivative values at the rows of X; and
    ``holder_norm_bound`` must dominate both the target's smoothness norm
    and ``sum_alpha bounds[alpha]``.  A build calls ``deriv`` once per
    alpha, with every cell center as a row of X.
    """

    beta: float
    d: int
    m: int
    n: int
    bounds: dict[tuple[int, ...], float]
    deriv: Callable[[tuple[int, ...], np.ndarray], np.ndarray]
    holder_norm_bound: float
    t: int | None = None

    def alphas(self) -> list[tuple[int, ...]]:
        return multi_indices(self.d, self.beta)

    def check(self, kind: str) -> None:
        if self.beta <= 0:
            raise InvalidInputError("beta must be positive")
        if kind == "lin" and self.t is None:
            raise InvalidInputError("lin construction needs the resolution parameter t")
        if kind == "skip" and self.t is not None:
            raise InvalidInputError("skip construction takes no t parameter")
        total = 0.0
        for alpha in self.alphas():
            b = self.bounds.get(alpha)
            if b is None or b <= 0:
                raise InvalidInputError(f"missing or non-positive bound for alpha={alpha}")
            total += b
        if total > self.holder_norm_bound * (1 + 1e-12):
            raise InvalidInputError(
                "holder_norm_bound must dominate the sum of the derivative bounds")


def _quantized_bit_tables(config: HolderConfig, geom: CellGeometry, q: int) -> np.ndarray:
    """Leading q bits of the rescaled derivative values at the cell
    centers, one payload per (alpha, bit position) with alpha outermost;
    shape (alphas * q, J, K, R)."""
    centers = geom.cell_centers()
    shifts = np.arange(q - 1, -1, -1)[:, None]
    payloads = []
    for alpha in config.alphas():
        B = float(config.bounds[alpha])
        vals = np.asarray(config.deriv(alpha, centers), dtype=float).reshape(len(centers))
        scaled = (vals + B) / (2.0 * B)
        if np.any(scaled < 0.0) or np.any(scaled > 1.0):
            raise InvalidInputError(
                f"derivative for alpha={alpha} exceeds its stated bound {B}")
        ints = np.minimum(np.floor(scaled * float(2**q)).astype(np.int64), 2**q - 1)
        payloads.append(ints >> shifts & 1)  # (q, cells), the cells in payload order
    return np.concatenate(payloads).reshape(-1, *geom.sizes)


def _product_layer_and_output(nb: NetBuilder, config: HolderConfig, geom: CellGeometry,
                              q: int, digit_handles: list[int],
                              eta_handles: dict[tuple[tuple[int, ...], int], int]) -> None:
    """The AND layer over (derivative bit, digit bits) tuples plus the
    affine output carrying the dyadic expansion coefficients.

    Digit positions with zero coefficient in ``app(x - xt)`` (levels
    1..levels) are omitted; the function is unchanged and the layer only
    gets narrower than the stated budget.
    """
    levels = geom.levels
    alphas = config.alphas()
    b_positions = [0] + list(range(levels + 1, q + 1))  # 0 encodes the constant 1
    c_b = {0: 2.0 ** -(q + 1) - 2.0 ** -(levels + 1)}
    c_b.update({ell: 2.0 ** -ell for ell in range(levels + 1, q + 1)})

    nb.new_layer()
    out_row: dict[int, float] = {}
    for alpha in alphas:
        B = float(config.bounds[alpha])
        c_eta = {0: 2.0 * B * (2.0 ** -(q + 1) - 0.5)}
        c_eta.update({ell: 2.0 * B * 2.0 ** -ell for ell in range(1, q + 1)})
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        coords = alpha_positions(alpha)
        order = len(coords)

        for ells in product(b_positions, repeat=order):
            digits = [digit_handles[coords[kappa] * q + (e - 1)]
                      for kappa, e in enumerate(ells) if e > 0]
            for ell0 in range(q + 1):
                neuron = nb.all_of(([eta_handles[(alpha, ell0)]] if ell0 else []) + digits)
                coeff = c_eta[ell0] / fact
                for e in ells:
                    coeff *= c_b[e]
                out_row[neuron] = coeff
    nb.output([out_row], [0.0])


def holder_approximator(kind: str, config: HolderConfig) -> BuiltNetwork:
    """Build the quantized Taylor network; see the module docstring."""
    if kind not in ("skip", "lin"):
        raise InvalidInputError(f"unknown kind {kind!r}")
    config.check(kind)
    geom = CellGeometry(kind, config.d, config.m, config.n,
                        config.t if kind == "lin" else 0)
    levels = geom.levels
    q = math.ceil(config.beta) * levels
    check_digit_budget(q, "holder approximator")
    alphas = config.alphas()
    payloads = _quantized_bit_tables(config, geom, q)
    pairs = [(alpha, ell) for alpha in alphas for ell in range(1, q + 1)]
    d = config.d

    if kind == "skip":
        nb = NetBuilder(d, NetworkKind.SKIP)
        digits = grow_radix_readouts(nb, (2,) * q, coords=range(d))
        carry = [digits[(i, ell, 1)] for i in range(d) for ell in range(1, q + 1)]
        bits = [carry[i * q + (lev - 1)] for i in range(d) for lev in range(1, levels + 1)]
        groups, carry = grow_skip_decoder_bank(nb, geom, payloads, bits, carry)
        nb.new_layer()
        carry = [nb.forward(h) for h in carry]
        eta_handles = {pair: nb.any_of(group) for pair, group in zip(pairs, groups)}
    else:
        nb = NetBuilder(d, NetworkKind.LIN)
        digits = grow_binary_bits_lin(nb, q, coords=range(d))
        carry = [digits[(i, ell)] for i in range(d) for ell in range(1, q + 1)]
        pending: list[int] | None = None
        for payload in payloads:
            bits = [carry[i * q + (lev - 1)] for i in range(d)
                    for lev in range(1, levels + 1)]
            parts, carry = grow_lin_decoder(nb, geom, payload, bits, carry,
                                            absorb=[pending] if pending else [])
            pending = parts
        nb.new_layer()
        carry = [nb.forward(h) for h in carry]
        carry.append(nb.any_of(pending))
        eta_handles = {pair: carry[d * q + idx] for idx, pair in enumerate(pairs)}

    digit_handles = carry[:d * q]
    for i in range(d):
        for ell in range(1, q + 1):
            nb.tag(f"b{ell}(x{i + 1})", digit_handles[i * q + (ell - 1)])
    _product_layer_and_output(nb, config, geom, q, digit_handles, eta_handles)
    net, probes = nb.build()
    bound = 2.0 * config.holder_norm_bound * 2.0 ** (-config.beta * levels)
    params = {"kind": kind, "beta": config.beta, "d": d, "m": config.m, "n": config.n,
              "q": q, "holder_norm_bound": config.holder_norm_bound}
    if kind == "lin":
        params["t"] = config.t
    return BuiltNetwork(net, Guarantee(bound, d), probes,
                        Construction("holder_approximator", params))
