"""Network generators shared by the property, acceptance and evaluation
tests."""

from __future__ import annotations

import numpy as np

from heavinet import Architecture, LayerParams, Network, NetworkKind


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
