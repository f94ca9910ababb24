"""Built networks: a network plus the metadata its construction proves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidNetworkError
from ..networks import Network, evaluate_batch

__all__ = ["Guarantee", "Construction", "BuiltNetwork"]


@dataclass(frozen=True)
class Guarantee:
    """Proven sup-norm error bound on the unit hypercube of the given dim."""

    sup_error_bound: float
    domain_dim: int = 1


@dataclass(frozen=True)
class Construction:
    name: str
    parameters: dict = field(default_factory=dict)


@dataclass
class BuiltNetwork:
    """A network with its guarantee and a probe map locating semantic neurons.

    Probe positions are ``(hidden layer, neuron index)`` with layers numbered
    1..L and neurons 0-based within the layer's activation vector.  The
    network validated itself when it was made; construction checks that
    every probe lies inside it.
    """

    net: Network
    guarantee: Guarantee | None
    probes: dict[str, tuple[int, int]]
    construction: Construction

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ``InvalidNetworkError`` naming every probe outside the network."""
        L, ws = self.net.arch.depth, self.net.arch.augmented_widths()
        outside = [f"probe {label!r}: ({layer}, {idx}) outside hidden layers 1..{L} "
                   f"of widths {ws[1:-1]}"
                   for label, (layer, idx) in self.probes.items()
                   if not (1 <= layer <= L and 0 <= idx < ws[layer])]
        if outside:
            raise InvalidNetworkError(outside)

    def read_probes(self, x) -> dict[str, float]:
        """Every probe's activation at the one input ``x``, read from a
        traced ``evaluate_batch``."""
        _, trace = evaluate_batch(self.net, [np.ravel(x)], with_trace=True)
        return {label: float(trace[layer - 1][idx, 0])
                for label, (layer, idx) in self.probes.items()}
