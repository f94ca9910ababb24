"""Small exact constructions: box indicators, parity, XOR, one-dimensional
piecewise-constant synthesis, and the two-layer grid approximator for
Lipschitz targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..networks import NetworkKind
from .built import BuiltNetwork, Construction, Guarantee
from .dsl import NetBuilder

__all__ = [
    "PieceSpec",
    "hyperrectangle_indicator",
    "parity_network",
    "xor_network",
    "piecewise_constant_1d",
    "lipschitz_grid_approx",
]


def hyperrectangle_indicator(a, b) -> BuiltNetwork:
    """Exact indicator of the closed box ``[a_1,b_1] x ... x [a_d,b_d]``.

    Two hidden layers of widths ``(d, 2d, 1, 1)``: the inner layer tests the
    2d face constraints, the outer fires iff all of them hold.  Boundaries
    are included because the step activation fires at zero.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape != b.shape or a.size < 1:
        raise InvalidInputError("hyperrectangle: a and b must be equal-length vectors")
    for name, corner in (("a", a), ("b", b)):
        if not np.all(np.isfinite(corner)):
            raise InvalidInputError(f"hyperrectangle: {name} must be finite, got {corner.tolist()}")
    if np.any(a > b):
        raise InvalidInputError("hyperrectangle: requires a <= b componentwise")
    d = a.size
    nb = NetBuilder(d, NetworkKind.PLAIN)
    nb.new_layer()
    faces = []
    for i in range(d):
        faces.append(nb.step({i: 1.0}, bias=-float(a[i])))   # x_i >= a_i
        faces.append(nb.step({i: -1.0}, bias=float(b[i])))   # x_i <= b_i
    nb.new_layer()
    hit = nb.all_of(faces)
    nb.output([{hit: 1.0}], [0.0])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes,
                        Construction("hyperrectangle_indicator",
                                     {"a": [float(v) for v in a], "b": [float(v) for v in b]}))


def parity_network(d: int) -> BuiltNetwork:
    """Sign-orthant parity ``prod_i (2 step(x_i) - 1)`` with widths (d,d,d,1)."""
    if d < 1:
        raise InvalidInputError("parity: d must be >= 1")
    nb = NetBuilder(d, NetworkKind.PLAIN)
    nb.new_layer()
    signs = [nb.step({i: 1.0}) for i in range(d)]
    nb.new_layer()
    counters = [nb.step({h: 1.0 for h in signs}, bias=-float(k)) for k in range(1, d + 1)]
    row = {h: 2.0 * ((-1.0) ** (k + d)) for k, h in enumerate(counters, start=1)}
    nb.output([row], [(-1.0) ** d])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes, Construction("parity_network", {"d": d}))


def xor_network() -> BuiltNetwork:
    """Two-hidden-layer net for step(x1>=0, x2<0) + step(x1<0, x2>=0)."""
    nb = NetBuilder(2, NetworkKind.PLAIN)
    nb.new_layer()
    s1 = nb.step({0: 1.0})
    s2 = nb.step({1: 1.0})
    nb.new_layer()
    left = nb.step({s1: 1.0, s2: -1.0}, bias=-0.5)
    right = nb.step({s1: -1.0, s2: 1.0}, bias=-0.5)
    nb.output([{left: 1.0, right: 1.0}], [0.0])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes, Construction("xor_network", {}))


@dataclass(frozen=True)
class PieceSpec:
    """A piecewise-constant function on [0, 1].

    ``breakpoints`` are sorted; ``sides[i] = +1`` puts breakpoint i in the
    piece to its right, ``-1`` in the piece to its left; ``values`` holds the
    constants ``c_0..c_p`` left to right.
    """

    breakpoints: tuple[float, ...]
    sides: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        p = len(self.breakpoints)
        if len(self.sides) != p or len(self.values) != p + 1:
            raise InvalidInputError("piece spec: need p breakpoints, p sides, p+1 values")
        for name in ("breakpoints", "values"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise InvalidInputError(
                    f"piece spec: {name} must be finite, got {list(getattr(self, name))}")
        if any(s not in (-1, 1) for s in self.sides):
            raise InvalidInputError("piece spec: sides must be +1 or -1")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise InvalidInputError("piece spec: breakpoints must be sorted")
        if p and (self.breakpoints[0] < 0.0 or self.breakpoints[-1] > 1.0):
            raise InvalidInputError("piece spec: breakpoints must lie in [0, 1]")

    def value_at(self, x: float) -> float:
        """Reference evaluation, independent of any network."""
        idx = 0
        for t, s in zip(self.breakpoints, self.sides):
            if x > t or (x == t and s == 1):
                idx += 1
        return self.values[idx]


def piecewise_constant_1d(spec: PieceSpec) -> BuiltNetwork:
    """One hidden layer of width p realizing the spec exactly, breakpoint
    sides included: neuron i fires on ``s_i x >= s_i t_i`` and carries the
    jump ``c_i - c_{i-1}`` with the matching sign."""
    p = len(spec.breakpoints)
    nb = NetBuilder(1, NetworkKind.PLAIN)
    nb.new_layer()
    if p == 0:
        pad = nb.step({0: 0.0})  # constant function still needs one neuron
        nb.output([{pad: 0.0}], [spec.values[0]])
    else:
        row: dict[int, float] = {}
        const = spec.values[0]
        for i, (t, s) in enumerate(zip(spec.breakpoints, spec.sides)):
            h = nb.step({0: float(s)}, bias=-float(s) * float(t))
            jump = spec.values[i + 1] - spec.values[i]
            row[h] = float(s) * jump
            if s == -1:
                const += jump
        nb.output([row], [const])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes,
                        Construction("piecewise_constant_1d",
                                     {"breakpoints": list(spec.breakpoints),
                                      "sides": list(spec.sides),
                                      "values": list(spec.values)}))


def lipschitz_grid_approx(f0, d: int, p1: int, lipschitz_const: float | None = None) -> BuiltNetwork:
    """Cell-center lookup on an M^d grid of [0,1]^d with M = ceil(p1/d).

    Widths are exactly ``(d, p1, M^d, 1)``; unused first-layer slots are
    padded with constant neurons carrying zero outgoing weight.  The output
    equals ``f0`` at the center of the grid cell containing x (cells closed
    left, open right, the last cell closed at 1).  When a Lipschitz constant
    ``k`` for the sup-norm metric is supplied, the guarantee is k*d/(2*p1).
    """
    if p1 < 1:
        raise InvalidInputError("lipschitz grid: p1 must be >= 1")
    if d < 1:
        raise InvalidInputError("lipschitz grid: d must be >= 1")
    M = math.ceil(p1 / d)
    nb = NetBuilder(d, NetworkKind.PLAIN)
    nb.new_layer()
    cuts: dict[tuple[int, int], int] = {}
    for i in range(d):
        for n in range(1, M):
            cuts[(i, n)] = nb.step({i: 1.0}, bias=-n / M)  # x_i >= n/M
    for _ in range(p1 - len(cuts)):
        nb.step({0: 0.0})  # pad to the stated width p1; zero outgoing weight
    nb.new_layer()
    cells = []
    centers = []
    for flat in range(M**d):
        idx = []
        rest = flat
        for _ in range(d):
            idx.append(rest % M)
            rest //= M
        row: dict[int, float] = {}
        bias = -(d - 0.5)
        for i, n in enumerate(idx):
            if n >= 1:
                row[cuts[(i, n)]] = row.get(cuts[(i, n)], 0.0) + 1.0
            else:
                bias += 1.0  # the constraint x_i >= 0/M always holds on [0,1]^d
            if n + 1 <= M - 1:
                row[cuts[(i, n + 1)]] = row.get(cuts[(i, n + 1)], 0.0) - 1.0
            # n+1 == M: the upper face test never fires, nothing to subtract
        cells.append(nb.step(row, bias=bias))
        centers.append(np.array([(n + 0.5) / M for n in idx]))
    out_row = {}
    for h, c in zip(cells, centers):
        out_row[h] = float(np.asarray(f0(c[None, :])).reshape(-1)[0])
    nb.output([out_row], [0.0])
    net, probes = nb.build()
    guarantee = None
    params = {"d": d, "p1": p1, "cells_per_axis": M}
    if lipschitz_const is not None:
        guarantee = Guarantee(lipschitz_const * d / (2.0 * p1), d)
        params["lipschitz_const"] = float(lipschitz_const)
    return BuiltNetwork(net, guarantee, probes, Construction("lipschitz_grid_approx", params))
