"""Layer-by-layer assembly of explicit-weight networks.

Builders add neurons one hidden layer at a time.  A neuron is described by
its weights on previous-layer neurons (by handle), optional taps on the raw
input (skip rows), a bias, and its activation (step or identity).  The
binary gates are stated once here: ``forward`` carries a binary neuron,
``all_of`` and ``any_of`` are the AND and OR of binary neurons.  ``build``
packs everything into weight matrices, pads identity neurons to a uniform
per-layer count for the lin kind, and returns the ``Network``, which
validates itself when made: a builder that breaks a rule of its class gets
``InvalidNetworkError``.

Each matrix is stored by one rule on its own shape and nonzero count: CSR
when it has at least ``SPARSE_MIN_ENTRIES`` entries and at most
1/``SPARSE_MAX_FILL`` of them are nonzero, dense otherwise.  A skip stage
whose input taps are all zero stores no tap matrix (``V`` is ``None``); its
architecture still counts the stage, with budget 0.

Handles are opaque integers; referencing a handle outside the immediately
preceding layer is an assembly error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..networks import Architecture, LayerParams, Network, NetworkKind

__all__ = ["NetBuilder"]

# CSR only where it pays: on a small matrix scipy's per-call overhead
# outweighs the skipped zeros, and BLAS beats a CSR product unless most
# entries are zero.
SPARSE_MIN_ENTRIES = 4096
SPARSE_MAX_FILL = 8


@dataclass
class _Neuron:
    handle: int
    layer: int
    prev: dict[int, float]
    inp: dict[int, float]
    bias: float
    linear: bool
    slot: int = -1


class NetBuilder:
    def __init__(self, input_dim: int, kind: NetworkKind):
        self.input_dim = int(input_dim)
        self.kind = kind
        self.layers: list[list[_Neuron]] = []
        self._by_handle: dict[int, _Neuron] = {}
        self._out_rows: list[dict[int, float]] | None = None
        self._out_bias: list[float] | None = None
        self.probes: dict[str, int] = {}

    # -- assembly -----------------------------------------------------------

    def new_layer(self) -> int:
        self.layers.append([])
        return len(self.layers)

    def _add(self, prev: dict[int, float], inp: dict[int, float] | None,
             bias: float, linear: bool) -> int:
        if not self.layers:
            raise InvalidInputError("add a layer before adding neurons")
        layer_idx = len(self.layers) - 1
        if layer_idx == 0:
            if inp:
                raise InvalidInputError("first hidden layer reads the input through prev")
            for k in prev:
                if not 0 <= k < self.input_dim:
                    raise InvalidInputError(f"input coordinate {k} out of range")
        else:
            for h in prev:
                n = self._by_handle.get(h)
                if n is None or n.layer != layer_idx - 1:
                    raise InvalidInputError("neuron references a non-adjacent handle")
            if inp and self.kind is not NetworkKind.SKIP:
                raise InvalidInputError("input taps beyond layer 1 need the skip kind")
            for k in inp or {}:
                if not 0 <= k < self.input_dim:
                    raise InvalidInputError(f"input coordinate {k} out of range")
        if linear and self.kind is not NetworkKind.LIN:
            raise InvalidInputError("identity neurons need the lin kind")
        handle = len(self._by_handle)
        neuron = _Neuron(handle, layer_idx, dict(prev), dict(inp or {}), float(bias), linear)
        self.layers[-1].append(neuron)
        self._by_handle[handle] = neuron
        return handle

    def step(self, prev: dict[int, float], bias: float = 0.0,
             inp: dict[int, float] | None = None) -> int:
        """Step neuron: fires iff its affine pre-activation is >= 0."""
        return self._add(prev, inp, bias, linear=False)

    def linear(self, prev: dict[int, float], bias: float = 0.0) -> int:
        """Identity neuron (lin kind only)."""
        return self._add(prev, None, bias, linear=True)

    def forward(self, handle: int) -> int:
        """Carry a binary neuron one layer: b = step(b - 1/2)."""
        return self.step({handle: 1.0}, bias=-0.5)

    def all_of(self, handles: list[int]) -> int:
        """AND of binary neurons, ``step(sum b - n + 1/2)`` over the n handles:
        fires iff every one is 1, so always when there are none.  A repeated
        handle counts each time (``all_of([a, a])`` is ``step(2a - 3/2)``)."""
        row: dict[int, float] = {}
        for h in handles:
            row[h] = row.get(h, 0.0) + 1.0
        return self.step(row, bias=0.5 - len(handles))

    def any_of(self, handles: list[int]) -> int:
        """OR of binary neurons, ``step(sum b - 1/2)``: fires iff some handle
        is 1, so never when there are none.  A repeated handle counts each
        time, as in ``all_of``."""
        row: dict[int, float] = {}
        for h in handles:
            row[h] = row.get(h, 0.0) + 1.0
        return self.step(row, bias=-0.5)

    def tag(self, label: str, handle: int) -> int:
        self.probes[label] = handle
        return handle

    def position(self, handle: int) -> tuple[int, int]:
        """(affine stage, row) that computes a neuron; valid after ``build``."""
        n = self._by_handle[handle]
        return n.layer, n.slot

    def output(self, rows: list[dict[int, float]], bias: list[float]) -> None:
        """Affine output stage: row r computes sum(w f) + bias[r]."""
        if len(rows) != len(bias):
            raise InvalidInputError("output rows and bias lengths differ")
        for row in rows:
            for h in row:
                n = self._by_handle.get(h)
                if n is None or n.layer != len(self.layers) - 1:
                    raise InvalidInputError("output references a non-last-layer handle")
        self._out_rows = [dict(r) for r in rows]
        self._out_bias = [float(v) for v in bias]

    # -- packing ------------------------------------------------------------

    def build(self) -> tuple[Network, dict[str, tuple[int, int]]]:
        if self._out_rows is None:
            raise InvalidInputError("output layer not set")
        L = len(self.layers)
        if L < 1:
            raise InvalidInputError("network needs at least one hidden layer")
        if any(not neurons for neurons in self.layers):
            raise InvalidInputError("empty hidden layer")

        step_counts, lin_counts = [], []
        for neurons in self.layers:
            # step neurons first, identity neurons after, each in insertion order
            for slot, n in enumerate(sorted(neurons, key=lambda n: n.linear)):
                n.slot = slot
            lin_counts.append(sum(n.linear for n in neurons))
            step_counts.append(len(neurons) - lin_counts[-1])
        if any(c == 0 for c in step_counts):
            raise InvalidInputError("every hidden layer needs at least one step neuron")

        if self.kind is NetworkKind.LIN:
            if lin_counts[-1]:
                raise InvalidInputError("last hidden layer of a lin network must be pure step")
            s = max(lin_counts[:-1], default=0)
            aug = [self.input_dim] + [p + (s if ell < L - 1 else 0)
                                      for ell, p in enumerate(step_counts)] + [len(self._out_rows)]
        else:
            s = 0
            aug = [self.input_dim, *step_counts, len(self._out_rows)]
        widths = (self.input_dim, *step_counts, len(self._out_rows))

        skip_counts: list[int] = []
        layer_params: list[LayerParams] = []
        for layer_idx in range(L + 1):
            n_out, n_in = aug[layer_idx + 1], aug[layer_idx]
            rows_w: list[tuple[int, int, float]] = []
            rows_v: list[tuple[int, int, float]] = []
            bias = np.zeros(n_out)
            if layer_idx < L:
                for n in self.layers[layer_idx]:
                    bias[n.slot] = n.bias
                    if layer_idx == 0:
                        rows_w.extend((n.slot, k, w) for k, w in n.prev.items())
                    else:
                        rows_w.extend((n.slot, self._by_handle[h].slot, w)
                                      for h, w in n.prev.items())
                        rows_v.extend((n.slot, k, w) for k, w in n.inp.items())
            else:
                for r, row in enumerate(self._out_rows):
                    bias[r] = self._out_bias[r]
                    rows_w.extend((r, self._by_handle[h].slot, w) for h, w in row.items())
            W = self._pack(rows_w, (n_out, n_in))
            V = None
            if self.kind is NetworkKind.SKIP and 1 <= layer_idx <= L - 1:
                tapped = len({r for r, _, w in rows_v if w != 0.0})
                if tapped:
                    V = self._pack(rows_v, (n_out, self.input_dim))
                skip_counts.append(tapped)
            # builder biases are additive constants; stages compute W h + V x - b
            layer_params.append(LayerParams(W, -bias, V))

        arch = Architecture(self.kind, widths, tuple(skip_counts), s)
        net = Network(arch, tuple(layer_params))
        probes = {label: (self._by_handle[h].layer + 1, self._by_handle[h].slot)
                  for label, h in self.probes.items()}
        return net, probes

    @staticmethod
    def _pack(triples, shape):
        """The matrix summing the (row, column, value) triples, stored by
        the module's storage rule."""
        r, c, v = zip(*triples) if triples else ((), (), ())
        r, c, v = np.array(r, dtype=int), np.array(c, dtype=int), np.array(v, dtype=float)
        entries = shape[0] * shape[1]
        if entries >= SPARSE_MIN_ENTRIES and np.count_nonzero(v) * SPARSE_MAX_FILL <= entries:
            import scipy.sparse as sp
            return sp.csr_matrix(sp.coo_matrix((v, (r, c)), shape=shape))
        M = np.zeros(shape)
        np.add.at(M, (r, c), v)
        return M
