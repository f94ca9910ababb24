"""Point-set shattering networks.

The point set for digit budget ``levels`` is the cell centers
``z_i = i / 2^levels - 1 / 2^(levels+1)`` for ``i = 1..2^levels``.  Given a
0/1 labeling of the points, the labels are stored as the decoder table
``eta[j, k, r] = label(z_i)`` for the cell (j, k, r) containing ``z_i``,
and a digit extractor is stacked under the matching decoder.  The network
output is ``label - 1/2``, so thresholding the output recovers the label
exactly at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInputError, ResourceLimitError
from ..networks import Network, NetworkKind, issparse
from .bits import grow_binary_bits_lin, grow_radix_readouts
from .built import BuiltNetwork, Construction
from .decoders import BitTable, CellGeometry, grow_lin_decoder, grow_skip_decoder_bank
from .dsl import NetBuilder

__all__ = ["shatter_points", "shattering_net", "labels_to_table", "shatter_budgets",
           "ShatterTemplate", "shatter_template"]

MAX_POINT_BITS = 20  # enumerating labelings needs 2^points <= 2^20


def _geometry(kind: str, m: int, n: int, t: int = 0) -> CellGeometry:
    geom = CellGeometry(kind, 1, m, n, t)
    if geom.levels > MAX_POINT_BITS:
        raise ResourceLimitError(f"2^{geom.levels} points exceed the 2^{MAX_POINT_BITS} cap")
    return geom


def shatter_points(kind: str, m: int, n: int, t: int = 0) -> np.ndarray:
    """The canonical point set: one point at the center of every dyadic cell."""
    count = 2 ** _geometry(kind, m, n, t).levels
    i = np.arange(1, count + 1, dtype=float)
    return i / count - 1.0 / (2 * count)


def labels_to_table(geom: CellGeometry, labeling) -> BitTable:
    """Store point labels in decoder-table order.  Point i sits in the cell
    whose digits are i written big-endian, and with one coordinate the
    digit groups are consecutive levels in (j, k, r) order, so the payload
    order is the point order."""
    labeling = np.asarray(labeling).reshape(-1)
    if labeling.size != 2 ** geom.levels:
        raise InvalidInputError(f"labeling needs {2 ** geom.levels} entries")
    return BitTable(geom, labeling.reshape(geom.sizes))


def shatter_budgets(kind: str, m: int, n: int, t: int = 0) -> dict[str, int]:
    """Depth/width budgets the construction may not exceed."""
    if kind == "skip":
        K = 2 ** m
        return {"depth": 2 * m + n + 2 ** n + 4, "width": 2 * m + n + 6 * K + 5}
    K = 2 ** n
    return {"depth": m + n + 2 * t + 2 * 2 ** t + 2,
            "width": m + n + 2 * t + max(2 ** m, 3 * K + 1),
            "identity_neurons": K}


def _assemble(geom: CellGeometry, labeling: np.ndarray, sites: list | None = None):
    """Grow and build the network realizing ``labeling``.

    With a ``sites`` list, every payload-dependent entry of the built
    network is appended as ``(stage, row, column, cell, coefficient)``,
    column -1 standing for the bias: the entry is the sum of
    ``coefficient * label`` over its sites, ``cell`` being the flat payload
    index whose label it reads.  Returns the network and its probes.
    """
    handle_sites = [] if sites is not None else None
    if geom.levels == 0:  # one point: a constant network decides its label
        nb = NetBuilder(1, NetworkKind.SKIP if geom.kind == "skip" else NetworkKind.LIN)
        nb.new_layer()
        h = nb.tag("label", nb.step({0: 0.0}, bias=float(labeling[0]) - 0.5))
        if sites is not None:
            handle_sites.append((h, None, 0, 1.0))
        nb.output([{h: 1.0}], [-0.5])
    elif geom.kind == "skip":
        payload = labels_to_table(geom, labeling).payload
        nb = NetBuilder(1, NetworkKind.SKIP)
        readouts = grow_radix_readouts(nb, (2,) * geom.levels)
        bits = [readouts[(0, ell, 1)] for ell in range(1, geom.levels + 1)]
        (parts,), _ = grow_skip_decoder_bank(nb, geom, payload[None], bits, sites=handle_sites)
        nb.new_layer()
        label = nb.tag("label", nb.any_of(parts))
        nb.output([{label: 1.0}], [-0.5])
    else:
        payload = labels_to_table(geom, labeling).payload
        nb = NetBuilder(1, NetworkKind.LIN)
        digits = grow_binary_bits_lin(nb, geom.levels)
        bits = [digits[(0, ell)] for ell in range(1, geom.levels + 1)]
        parts, _ = grow_lin_decoder(nb, geom, payload, bits, sites=handle_sites)
        nb.output([{h: 1.0 for h in parts}], [-0.5])
    net, probes = nb.build()
    if sites is not None:
        for row, col, cell, coef in handle_sites:
            stage, slot = nb.position(row)
            sites.append((stage, slot, -1 if col is None else nb.position(col)[1], cell, coef))
    return net, probes


def shattering_net(kind: str, m: int, n: int, t: int = 0,
                   labeling=None) -> tuple[BuiltNetwork, np.ndarray]:
    """Build a network realizing the labeling on the canonical point set.

    Returns the built network and the points; ``step(output)`` at point i
    equals ``labeling[i]`` exactly.
    """
    points = shatter_points(kind, m, n, t)
    labeling = np.asarray(labeling).reshape(-1)
    if labeling.size != points.size or not np.all((labeling == 0) | (labeling == 1)):
        raise InvalidInputError(f"labeling must be {points.size} bits")
    params = {"kind": kind, "m": m, "n": n, "t": t,
              "labeling": "".join(str(int(b)) for b in labeling)}
    net, probes = _assemble(_geometry(kind, m, n, t), labeling)
    return BuiltNetwork(net, None, probes, Construction("shattering_net", params)), points


@dataclass(frozen=True)
class ShatterTemplate:
    """The shattering network built once with every label 0, plus the
    entries a labeling fills in.

    Entry e sits at ``(stage[e], row[e], col[e])`` of the stage's weight
    matrix, or of its bias vector when ``col[e]`` is -1.  Its value is the
    sum of ``site_coef * label[site_cell]`` over the sites
    ``starts[e]:starts[e+1]``; the payload order is the point order, so a
    flat payload index is a point index.
    """

    net: Network
    points: np.ndarray
    stage: np.ndarray
    row: np.ndarray
    col: np.ndarray
    starts: np.ndarray
    site_cell: np.ndarray
    site_coef: np.ndarray

    @cached_property
    def _stages(self) -> tuple:
        """Per payload-dependent stage, in stage order: the stage, its dense
        weights and bias, the (row, column) of its weight entries and the
        rows of its bias entries, each with its entry indices.  Built once,
        on the first ``fill``."""
        stages = []
        for stage in np.unique(self.stage).tolist():
            layer = self.net.layers[stage]
            W = layer.W.toarray() if issparse(layer.W) else np.asarray(layer.W)
            at = self.stage == stage
            weight, bias = np.flatnonzero(at & (self.col >= 0)), np.flatnonzero(at & (self.col < 0))
            stages.append((stage, W, np.asarray(layer.b), weight, self.row[weight],
                           self.col[weight], bias, self.row[bias]))
        return tuple(stages)

    def fill(self, labelings) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Weights of the payload-dependent stages for each labeling row.

        Maps each such stage to ``(W, b)`` with shapes (labelings, out, in)
        and (labelings, out), each a copy of the stage's dense base with
        the labelings' entries filled in: the stage overrides
        ``networks._forward`` takes.  Each is bit-identical to the stage of
        the literal ``shattering_net`` build of each labeling: every sum is
        of distinct powers of two, hence exact.
        """
        labelings = np.asarray(labelings, dtype=float)
        vals = np.add.reduceat(labelings[:, self.site_cell] * self.site_coef, self.starts, axis=1)
        filled = {}
        for stage, W, b, weight, rows, cols, bias, bias_rows in self._stages:
            W = np.repeat(W[None], len(labelings), axis=0)
            b = np.repeat(b[None], len(labelings), axis=0)
            W[:, rows, cols] += vals[:, weight]
            b[:, bias_rows] -= vals[:, bias]  # stages compute W h - b
            filled[stage] = W, b
        return filled


def shatter_template(kind: str, m: int, n: int, t: int = 0) -> ShatterTemplate:
    """Build the zero-labeling shattering network and locate the entries
    every other labeling changes."""
    geom = _geometry(kind, m, n, t)
    points = shatter_points(kind, m, n, t)
    sites: list = []
    net, _ = _assemble(geom, np.zeros(points.size, dtype=int), sites)
    stage, row, col, cell, coef = (np.array(v) for v in zip(*sites))
    order = np.lexsort((col, row, stage))
    stage, row, col, cell, coef = (v[order] for v in (stage, row, col, cell, coef))
    new_entry = np.ones(len(order), dtype=bool)
    new_entry[1:] = (np.diff(stage) != 0) | (np.diff(row) != 0) | (np.diff(col) != 0)
    starts = np.flatnonzero(new_entry)
    return ShatterTemplate(net, points, stage[starts], row[starts], col[starts],
                           starts, cell, coef)
