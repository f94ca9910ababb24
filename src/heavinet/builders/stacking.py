"""Composition of two networks through the hidden activations.

``stack_on_hidden(front, back)`` produces one network of depth
``L_front + L_back`` whose output is the back network applied to the
front's last hidden activation vector (the front's own affine output stage
is dropped).  Because front hidden activations are binary, a skip back is
first rewritten without its input taps by ``networks.carry_input``: each
of its hidden layers up to the last tap gains forwarding neurons
``b = step(b - 1/2)`` that carry its input across, and the tap matrices
become ordinary weights on those copies.

Fronts and backs with identity neurons are not supported here; the lin
constructions in this package assemble their compositions directly.
"""

from __future__ import annotations

from ..errors import InvalidInputError
from ..networks import Architecture, Network, NetworkKind, carry_input, mat_nonzero_rows
from .built import BuiltNetwork, Construction

__all__ = ["stack_on_hidden"]


def stack_on_hidden(front: BuiltNetwork, back: BuiltNetwork) -> BuiltNetwork:
    """Feed the front's last hidden activations into the back network."""
    fnet, bnet = front.net, back.net
    if fnet.arch.kind is NetworkKind.LIN or bnet.arch.kind is NetworkKind.LIN:
        raise InvalidInputError("stack_on_hidden composes plain/skip networks only")
    hidden_width = fnet.arch.widths[-2]
    if bnet.arch.input_dim != hidden_width:
        raise InvalidInputError(
            f"back expects {bnet.arch.input_dim} inputs, front's last hidden "
            f"layer has width {hidden_width}")
    if bnet.arch.kind is NetworkKind.SKIP:
        last_tap = max((i for i, layer in enumerate(bnet.layers)
                        if layer.V is not None and mat_nonzero_rows(layer.V)), default=0)
        widths = [w + bnet.arch.input_dim if 1 <= ell <= last_tap else w
                  for ell, w in enumerate(bnet.arch.widths)]
        bnet = Network(Architecture(NetworkKind.PLAIN, tuple(widths)),
                       carry_input(bnet, last_tap, 0.5))

    Lf, Lb = fnet.arch.depth, bnet.arch.depth
    widths = fnet.arch.widths[:-1] + bnet.arch.widths[1:]
    if fnet.arch.kind is NetworkKind.SKIP:
        skip_counts = fnet.arch.skip_counts + (0,) * Lb
        arch = Architecture(NetworkKind.SKIP, widths, skip_counts)
    else:
        arch = Architecture(NetworkKind.PLAIN, widths)
    layers = fnet.layers[:-1] + bnet.layers
    net = Network(arch, tuple(layers))
    probes = {f"front.{k}": v for k, v in front.probes.items()}
    probes.update({f"back.{k}": (layer + Lf, idx) for k, (layer, idx) in back.probes.items()})
    return BuiltNetwork(net, None, probes,
                        Construction("stack_on_hidden",
                                     {"front": front.construction.name,
                                      "back": back.construction.name}))
