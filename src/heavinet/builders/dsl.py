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

Handles are integers counted in insertion order.  Neurons are only ever
added to the newest layer, so each hidden layer holds consecutive handles
and a handle's layer is a range test; referencing a handle outside the
immediately preceding layer is an assembly error.

No object is kept per neuron.  Each neuron appends its bias, activation
flag and weight count to flat typed buffers (stdlib ``array``), and the
columns and values of its weights to two more; a column is a handle, or an
input coordinate in the first layer.  Input taps, which few neurons have,
and the output rows go to (row, column, value) buffers.  Entries arrive in
insertion order, so each stage's entries are one contiguous run.
``build`` assigns every slot at once: within a layer, step neurons come
first, then identity neurons, each in insertion order (one stable sort
over (layer, linear)).  Handles map to slots by one array lookup, the
running sum of the weight counts and one ``searchsorted`` over the taps
cut the entries into stages, and each matrix is one ``_pack`` call, so it
holds its entries in the order they were added.

Each matrix is stored by one rule on its own shape and nonzero count: CSR
when it has at least ``SPARSE_MIN_ENTRIES`` entries and at most
1/``SPARSE_MAX_FILL`` of them are nonzero, dense otherwise.  A skip stage
whose input taps are all zero stores no tap matrix (``V`` is ``None``); its
architecture still counts the stage, with budget 0.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from ..errors import InvalidInputError
from ..networks import Architecture, LayerParams, Network, NetworkKind

__all__ = ["NetBuilder"]

# CSR only where it pays: on a small matrix scipy's per-call overhead
# outweighs the skipped zeros, and BLAS beats a CSR product unless most
# entries are zero.
SPARSE_MIN_ENTRIES = 4096
SPARSE_MAX_FILL = 8


def _ones(handles: list[int]) -> dict[int, float]:
    """A gate's weights: 1 for each time a handle occurs, in order of first
    occurrence."""
    row = dict.fromkeys(handles, 1.0)
    if len(row) < len(handles):
        row = dict.fromkeys(row, 0.0)
        for h in handles:
            row[h] += 1.0
    return row


class _Entries:
    """Flat (row, column, value) buffers, in the order entries are added."""

    def __init__(self):
        self.rows, self.cols, self.vals = array("q"), array("q"), array("d")

    def add(self, row: int, entries: dict) -> None:
        self.rows.extend(repeat(row, len(entries)))
        self.cols.extend(entries)
        self.vals.extend(entries.values())

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.frombuffer(self.rows, dtype=np.int64),
                np.frombuffer(self.cols, dtype=np.int64), np.frombuffer(self.vals))


class NetBuilder:
    def __init__(self, input_dim: int, kind: NetworkKind):
        self.input_dim = int(input_dim)
        self.kind = kind
        self._starts: list[int] = []  # first handle of each hidden layer
        self._bias = array("d")
        self._linear = bytearray()
        self._counts, self._cols, self._vals = array("q"), array("q"), array("d")
        self._taps = _Entries()
        self._out: tuple[_Entries, np.ndarray] | None = None
        self._where: tuple[list[int], list[int]] | None = None  # (layer, slot), by handle
        self.probes: dict[str, int] = {}

    # -- assembly -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Hidden layers added so far."""
        return len(self._starts)

    def new_layer(self) -> int:
        self._starts.append(len(self._bias))
        return len(self._starts)

    def _check_inputs(self, coords: dict) -> None:
        if coords and not (min(coords) >= 0 and max(coords) < self.input_dim):
            k = next(k for k in coords if not 0 <= k < self.input_dim)
            raise InvalidInputError(f"input coordinate {k} out of range")

    def _add(self, prev: dict[int, float], inp: dict[int, float] | None,
             bias: float, linear: bool) -> int:
        starts = self._starts
        if len(starts) > 1:
            if prev and not (min(prev) >= starts[-2] and max(prev) < starts[-1]):
                raise InvalidInputError("neuron references a non-adjacent handle")
            if inp:
                if self.kind is not NetworkKind.SKIP:
                    raise InvalidInputError("input taps beyond layer 1 need the skip kind")
                self._check_inputs(inp)
        elif starts:
            if inp:
                raise InvalidInputError("first hidden layer reads the input through prev")
            self._check_inputs(prev)
        else:
            raise InvalidInputError("add a layer before adding neurons")
        if linear and self.kind is not NetworkKind.LIN:
            raise InvalidInputError("identity neurons need the lin kind")
        handle = len(self._bias)
        self._bias.append(bias)
        self._linear.append(linear)
        self._counts.append(len(prev))
        self._cols.extend(prev)
        self._vals.extend(prev.values())
        if inp:
            self._taps.add(handle, inp)
        return handle

    def step(self, prev: dict[int, float], bias: float = 0.0,
             inp: dict[int, float] | None = None) -> int:
        """Step neuron: fires iff its affine pre-activation is >= 0."""
        return self._add(prev, inp, bias, linear=False)

    def linear(self, prev: dict[int, float], bias: float = 0.0) -> int:
        """Identity neuron (lin kind only)."""
        return self._add(prev, None, bias, linear=True)

    def forward(self, handle: int) -> int:
        """Carry a binary neuron one layer: b = step(b - 1/2).  A handle of
        the previous layer is appended directly; anything else takes the
        checks of ``_add``."""
        starts = self._starts
        if len(starts) < 2 or not starts[-2] <= handle < starts[-1]:
            return self._add({handle: 1.0}, None, -0.5, False)
        carry = len(self._bias)
        self._bias.append(-0.5)
        self._linear.append(False)
        self._counts.append(1)
        self._cols.append(handle)
        self._vals.append(1.0)
        return carry

    def all_of(self, handles: list[int]) -> int:
        """AND of binary neurons, ``step(sum b - n + 1/2)`` over the n handles:
        fires iff every one is 1, so always when there are none.  A repeated
        handle counts each time (``all_of([a, a])`` is ``step(2a - 3/2)``)."""
        return self._add(_ones(handles), None, 0.5 - len(handles), False)

    def any_of(self, handles: list[int]) -> int:
        """OR of binary neurons, ``step(sum b - 1/2)``: fires iff some handle
        is 1, so never when there are none.  A repeated handle counts each
        time, as in ``all_of``."""
        return self._add(_ones(handles), None, -0.5, False)

    def tag(self, label: str, handle: int) -> int:
        self.probes[label] = handle
        return handle

    def position(self, handle: int) -> tuple[int, int]:
        """(affine stage, row) that computes a neuron; valid after ``build``."""
        layer, slot = self._where
        return layer[handle], slot[handle]

    def output(self, rows: list[dict[int, float]], bias: list[float]) -> None:
        """Affine output stage: row r computes sum(w f) + bias[r]."""
        if len(rows) != len(bias):
            raise InvalidInputError("output rows and bias lengths differ")
        last = self._starts[-1] if self._starts else 0
        entries = _Entries()
        for r, row in enumerate(rows):
            if row and not (min(row) >= last and max(row) < len(self._bias)):
                raise InvalidInputError("output references a non-last-layer handle")
            entries.add(r, row)
        self._out = entries, np.array(bias, dtype=float)

    # -- packing ------------------------------------------------------------

    def build(self) -> tuple[Network, dict[str, tuple[int, int]]]:
        if self._out is None:
            raise InvalidInputError("output layer not set")
        L = len(self._starts)
        if L < 1:
            raise InvalidInputError("network needs at least one hidden layer")
        bounds = np.array([*self._starts, len(self._bias)])
        counts = np.diff(bounds)
        if not counts.all():
            raise InvalidInputError("empty hidden layer")
        linear = np.frombuffer(self._linear, dtype=bool)
        lin_counts = np.add.reduceat(linear, bounds[:-1], dtype=np.int64)
        step_counts = (counts - lin_counts).tolist()
        if 0 in step_counts:
            raise InvalidInputError("every hidden layer needs at least one step neuron")

        out, out_bias = self._out
        if self.kind is NetworkKind.LIN:
            if lin_counts[-1]:
                raise InvalidInputError("last hidden layer of a lin network must be pure step")
            s = int(lin_counts[:-1].max(initial=0))
            aug = [self.input_dim] + [p + (s if ell < L - 1 else 0)
                                      for ell, p in enumerate(step_counts)] + [len(out_bias)]
        else:
            s = 0
            aug = [self.input_dim, *step_counts, len(out_bias)]
        widths = (self.input_dim, *step_counts, len(out_bias))

        # every slot at once: step neurons first, then identity neurons,
        # each in insertion order
        layer = np.repeat(np.arange(L), counts)
        order = np.argsort(2 * layer + linear, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order)) - np.repeat(bounds[:-1], counts)
        self._where = layer.tolist(), slot.tolist()
        # the stages' b, a lin layer's padding rows included: stages compute
        # W h + V x - b
        b_cut = np.cumsum([0, *aug[1:L + 1]])
        b_all = np.full(b_cut[-1], -0.0)
        b_all[np.repeat(b_cut[:-1], counts) + slot] = -np.frombuffer(self._bias)

        counts_w = np.frombuffer(self._counts, dtype=np.int64)
        cut = np.concatenate(([0], np.cumsum(counts_w)))[bounds]
        rows = np.repeat(slot, counts_w)
        cols, vals = np.frombuffer(self._cols, dtype=np.int64), np.frombuffer(self._vals)
        cols = np.concatenate((cols[:cut[1]], slot[cols[cut[1]:]]))  # layer 1 reads x
        tap_rows, tap_cols, tap_vals = self._taps.arrays()
        tap_cut = np.searchsorted(tap_rows, bounds)
        # a skip stage's budget counts its rows with a nonzero tap
        has_tap = np.zeros(len(order), dtype=bool)
        has_tap[tap_rows[tap_vals != 0.0]] = True
        tapped = np.add.reduceat(has_tap, bounds[:-1], dtype=np.int64).tolist()
        tap_rows = slot[tap_rows]

        skip_counts: list[int] = []
        layer_params: list[LayerParams] = []
        for ell in range(L):
            a, e = cut[ell], cut[ell + 1]
            W = self._pack(rows[a:e], cols[a:e], vals[a:e], (aug[ell + 1], aug[ell]))
            V = None
            if self.kind is NetworkKind.SKIP and ell >= 1:
                if tapped[ell]:
                    a, e = tap_cut[ell], tap_cut[ell + 1]
                    V = self._pack(tap_rows[a:e], tap_cols[a:e], tap_vals[a:e],
                                   (aug[ell + 1], self.input_dim))
                skip_counts.append(tapped[ell])
            layer_params.append(LayerParams(W, b_all[b_cut[ell]:b_cut[ell + 1]], V))
        out_rows, out_cols, out_vals = out.arrays()
        W = self._pack(out_rows, slot[out_cols], out_vals, (aug[L + 1], aug[L]))
        layer_params.append(LayerParams(W, -out_bias))

        arch = Architecture(self.kind, widths, tuple(skip_counts), s)
        net = Network(arch, tuple(layer_params))
        stage, row = self._where
        return net, {label: (stage[h] + 1, row[h]) for label, h in self.probes.items()}

    @staticmethod
    def _pack(rows, cols, vals, shape):
        """The matrix summing the entries ``(rows[i], cols[i], vals[i])``,
        stored by the module's storage rule."""
        entries = shape[0] * shape[1]
        if entries >= SPARSE_MIN_ENTRIES and np.count_nonzero(vals) * SPARSE_MAX_FILL <= entries:
            import scipy.sparse as sp
            return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=shape))
        M = np.zeros(shape)
        np.add.at(M, (rows, cols), vals)
        return M
