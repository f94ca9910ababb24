"""Network generators shared by the property, acceptance and evaluation
tests."""

from __future__ import annotations

import functools

import numpy as np

from heavinet import Architecture, LayerParams, Network, NetworkKind
from heavinet.networks import step_rows


def random_network(kind: NetworkKind, rng: np.random.Generator,
                   max_d: int = 3, max_depth: int = 5, max_width: int = 8,
                   weight_scale: float = 2.0) -> Network:
    """Uniform weights in [-scale, scale]; skip budgets capped at 3 rows."""
    d = int(rng.integers(1, max_d + 1))
    L = int(rng.integers(1, max_depth + 1))
    hidden = [int(rng.integers(1, max_width + 1)) for _ in range(L)]
    widths = (d, *hidden, 1)
    skip_counts: tuple[int, ...] = ()
    lin_count = 0
    if kind is NetworkKind.SKIP:
        skip_counts = tuple(int(rng.integers(0, min(p, 3) + 1)) for p in hidden[1:])
    if kind is NetworkKind.LIN:
        lin_count = int(rng.integers(0, 4))
    arch = Architecture(kind, widths, skip_counts, lin_count)
    ws = arch.augmented_widths()
    layers = []
    for i in range(L + 1):
        W = rng.uniform(-weight_scale, weight_scale, (ws[i + 1], ws[i]))
        b = rng.uniform(-weight_scale, weight_scale, ws[i + 1])
        V = None
        if kind is NetworkKind.SKIP and 1 <= i <= L - 1 and skip_counts[i - 1] > 0:
            V = np.zeros((ws[i + 1], d))
            rows = rng.choice(ws[i + 1], size=skip_counts[i - 1], replace=False)
            V[rows] = rng.uniform(-weight_scale, weight_scale, (skip_counts[i - 1], d))
        layers.append(LayerParams(W, b, V))
    return Network(arch, tuple(layers))


def input_free_suffix(net: Network, rng: np.random.Generator) -> Network:
    """``net`` with the identity columns of every stage from a random one
    on zeroed, so no stage past it reads the input.  Half the time the
    identity rows feeding that stage are zeroed too: constant zeros of
    either sign, so equal step patterns form runs there."""
    arch = net.arch
    start = int(rng.integers(1, arch.depth + 1))
    rows = bool(rng.integers(2))
    layers = []
    for i, layer in enumerate(net.layers):
        W, b = layer.W.copy(), layer.b.copy()
        if i >= start and step_rows(arch, i - 1) is not None:
            W[:, step_rows(arch, i - 1):] = 0.0
        if rows and i == start - 1 and step_rows(arch, i) is not None:
            W[step_rows(arch, i):] = 0.0
            b[step_rows(arch, i):] = 0.0
        layers.append(LayerParams(W, b, layer.V))
    return Network(arch, tuple(layers))


def random_segment(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0, 1, d), rng.uniform(0, 1, d)


def position_sensitive_networks() -> dict[str, Network]:
    """Built networks with non-dyadic weights whose output floats moved by
    an ulp with a point's column in an unpadded output product."""
    from heavinet.builders import mixed_radix_bit_extractor, square_approximator

    return {
        "radix(5,5,5,5)": mixed_radix_bit_extractor((5, 5, 5, 5)).net,
        "radix(3,2,...,2)": mixed_radix_bit_extractor((3,) + (2,) * 8).net,
        "square(5,2)": square_approximator(5, 2, (2, 2, 2, 0)).net,
        "square(4,2)": square_approximator(4, 2, (2, 2, 0)).net,
    }


SQUARES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3))
HOLDERS = (("x2", "skip", 1, 1, None), ("x2", "skip", 2, 0, None), ("x2", "lin", 1, 0, 1),
           ("x2", "lin", 1, 1, 1), ("x3mx", "skip", 1, 1, None), ("x3mx", "skip", 2, 0, None),
           ("x3mx", "lin", 1, 0, 1), ("x3mx", "lin", 1, 1, 1), ("x1x2", "skip", 1, 0, None),
           ("x1x2", "skip", 2, 0, None))
RADICES = ((3, 2, 2, 2, 2, 2, 2, 2, 2), (2, 3, 2, 2, 2, 2, 2, 2, 2), (5, 5, 5, 5),
           (4, 2, 2, 2, 2, 2, 2, 2, 2), (8, 4, 2, 2, 2, 2, 2, 2), (4, 4, 4, 4, 4),
           (16, 8, 4, 4), (8, 8, 8, 4), (2,) * 11)
LIN_EXTRACTORS = ((10, "wide"), (12, "narrow"))


APPROXIMATORS = tuple([f"square({L},{s})" for L, s in SQUARES]
                      + [f"holder({target},{kind},{m},{n},{t})"
                         for target, kind, m, n, t in HOLDERS])


@functools.cache
def approximator(name: str) -> tuple[Network, np.ndarray]:
    """A square or Hoelder approximator named in ``APPROXIMATORS``, with the
    ordered grid its sup error is measured on: square(L, s) on 100 001
    points plus its cell edges, one-dimensional Hoelder networks on 2 001
    points, x1*x2 on a 201^2 (m = 1) or 101^2 (m = 2) tensor grid."""
    from heavinet.analysis.sup import axis_grid, grid_rows
    from heavinet.builders import holder_approximator, square_approximator
    from heavinet.targets import TARGETS

    family, args = name[:-1].split("(")
    args = [None if a == "None" else a for a in args.split(",")]
    if family == "square":
        L, s = map(int, args)
        S = (s + 1) ** (L - 1)
        net = square_approximator(L, s, (s,) * (L - 2) + (0,)).net
        return net, axis_grid(1, 100_000, np.arange(S + 1) / S)[0][:, None]
    target, kind, m, n, t = args
    m, n, t = int(m), int(n), None if t is None else int(t)
    net = holder_approximator(kind, TARGETS[target].holder_config(m, n, t)).net
    d = TARGETS[target].d
    axes = axis_grid(d, 2000 if d == 1 else 200 // m)
    return net, grid_rows(axes, 0, len(axes[0]) ** d)


@functools.cache
def extractors() -> dict[str, tuple[Network, int]]:
    """Digit extractors and their piece counts on [0, 1], the digit
    product."""
    import math

    from heavinet.builders import binary_bit_extractor_lin, mixed_radix_bit_extractor

    out = {f"radix{r}": (mixed_radix_bit_extractor(r).net, math.prod(r)) for r in RADICES}
    out.update({f"lin{spec}": (binary_bit_extractor_lin(*spec).net, 2 ** spec[0])
                for spec in LIN_EXTRACTORS})
    return out
