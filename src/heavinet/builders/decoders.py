"""Decoder networks: map the binary digits of a point to an arbitrary
stored bit indexed by the dyadic cell the point lies in.

The unit cube is cut three ways by disjoint groups of digit levels.  For
the skip family the groups are levels ``1..m`` (index j), ``m+1..2m``
(index k) and ``2m+1..2m+n`` (index r), giving ``J = K = 2^(m d)`` and
``R = 2^(n d)`` cells.  For the lin family the groups are ``1..m+t``,
``m+t+1..m+n+t`` and ``m+n+t+1..m+n+2t``, giving ``J = 2^((m+t)d)``,
``K = 2^(n d)``, ``R = 2^(t d)``.

Index convention (fixed so tests are reproducible): an index is 1 plus the
integer whose base-2 digits are the group's bits read big-endian in
lexicographic order over (coordinate, level).  Decoder inputs use the same
coordinate-major layout: input slot ``i * levels + (l - 1)`` carries digit
``l`` of coordinate ``i``.

Skip decoding runs one slice per r value: a bank of cell-index indicator
neurons, a stored-bit row selection, an AND with the k-hit, and the slice
output ``eta * step(r(x) = r)``; slices occupy staggered consecutive layers
and a running-sum neuron accumulates their outputs.  ``grow_skip_decoder_bank``
is the one generator of these slice stacks: inside a host network it
forwards the digit bits, and the standalone skip decoder is the same bank
on an empty builder, whose later slices read the digits through skip
taps.  Lin decoding packs
each stored-bit column into a dyadic real ``0.eta_1...eta_R``, selects it
with identity neurons, and streams the digits back out with the narrow
binary extractor.

Skip variants shift their output by -1/2 so that thresholding recovers the
stored bit even when it is 0 (the step activation fires at zero); the lin
variant's output is the stored bit itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, PrecisionError
from ..networks import NetworkKind
from .built import BuiltNetwork, Construction
from .dsl import NetBuilder

__all__ = ["CellGeometry", "BitTable", "decoder",
           "grow_skip_decoder_bank", "grow_lin_decoder"]


@dataclass(frozen=True)
class CellGeometry:
    """Dyadic cell structure of one decoder family."""

    kind: str  # "skip" | "lin"
    d: int
    m: int
    n: int
    t: int = 0

    def __post_init__(self):
        if self.kind not in ("skip", "lin"):
            raise InvalidInputError(f"unknown decoder kind {self.kind!r}")
        if self.d < 1 or self.m < 0 or self.n < 0 or self.t < 0:
            raise InvalidInputError("geometry requires d >= 1 and m, n, t >= 0")
        if self.kind == "skip" and self.t:
            raise InvalidInputError("skip geometry has no t parameter")
        if self.levels < 1:
            raise InvalidInputError("geometry has no digit levels at all")

    @property
    def levels(self) -> int:
        """Digit levels per coordinate."""
        return 2 * self.m + self.n if self.kind == "skip" else self.m + self.n + 2 * self.t

    def group_levels(self) -> tuple[range, range, range]:
        """1-based level ranges feeding the j, k, r indices."""
        if self.kind == "skip":
            return (range(1, self.m + 1),
                    range(self.m + 1, 2 * self.m + 1),
                    range(2 * self.m + 1, 2 * self.m + self.n + 1))
        mt = self.m + self.t
        return (range(1, mt + 1),
                range(mt + 1, mt + self.n + 1),
                range(mt + self.n + 1, mt + self.n + self.t + 1))

    @property
    def sizes(self) -> tuple[int, int, int]:
        gj, gk, gr = self.group_levels()
        return (2 ** (self.d * len(gj)), 2 ** (self.d * len(gk)), 2 ** (self.d * len(gr)))

    def bit_slot(self, coord: int, level: int) -> int:
        """Input slot of digit ``level`` of coordinate ``coord`` (0-based coord)."""
        return coord * self.levels + (level - 1)

    def group_slots(self, group: range) -> list[int]:
        return [self.bit_slot(i, ell) for i in range(self.d) for ell in group]

    def index_of_bits(self, bits) -> tuple[int, int, int]:
        """(j, k, r) of a digit matrix with shape (d, levels), entries 0/1."""
        bits = np.asarray(bits, dtype=int).reshape(self.d, self.levels)
        out = []
        for group in self.group_levels():
            v = 0
            for i in range(self.d):
                for ell in group:
                    v = 2 * v + int(bits[i, ell - 1])
            out.append(v + 1)
        return tuple(out)

    def target_bits(self, group: range, index: int) -> list[tuple[int, int]]:
        """(input slot, expected bit) pairs pinning one group index."""
        width = self.d * len(group)
        pattern = [(index - 1) >> (width - 1 - pos) & 1 for pos in range(width)]
        return list(zip(self.group_slots(group), pattern))

    def cell_bits(self, j: int, k: int, r: int) -> np.ndarray:
        """Digit matrix (d, levels) shared by every point of cell (j, k, r)."""
        bits = np.zeros((self.d, self.levels), dtype=int)
        for group, index in zip(self.group_levels(), (j, k, r)):
            for slot, beta in self.target_bits(group, index):
                bits[slot // self.levels, slot % self.levels] = beta
        return bits

    def cell_center(self, j: int, k: int, r: int) -> np.ndarray:
        bits = self.cell_bits(j, k, r)
        lev = self.levels
        weights = 0.5 ** np.arange(1, lev + 1)
        return bits @ weights + 0.5 ** (lev + 1)

    def all_cells(self):
        """Iterate (j, k, r) in payload order."""
        J, K, R = self.sizes
        for j in range(1, J + 1):
            for k in range(1, K + 1):
                for r in range(1, R + 1):
                    yield j, k, r


@dataclass(frozen=True)
class BitTable:
    """Stored binary payload over the cells of a geometry."""

    geometry: CellGeometry
    payload: np.ndarray  # shape (J, K, R), entries 0/1

    def __post_init__(self):
        J, K, R = self.geometry.sizes
        payload = np.asarray(self.payload, dtype=int)
        if payload.shape != (J, K, R):
            raise InvalidInputError(
                f"payload shape {payload.shape} does not match cells {(J, K, R)}")
        if not np.all((payload == 0) | (payload == 1)):
            raise InvalidInputError("payload entries must be 0 or 1")
        object.__setattr__(self, "payload", payload)

    def lookup_bits(self, bits) -> int:
        """Reference decode straight from the table."""
        j, k, r = self.geometry.index_of_bits(bits)
        return int(self.payload[j - 1, k - 1, r - 1])


def _indicator_row(targets: list[tuple[int, int]]) -> tuple[dict[int, float], float]:
    """Row testing that every (slot, beta) pair matches.

    Pre-activation ``sum (2 beta - 1)(2 b - 1) - (|targets| - 1/2)`` expanded
    over the raw bits; an empty target set leaves the constant +1/2, i.e. a
    neuron that always fires."""
    weights = {slot: 2.0 * (2 * beta - 1) for slot, beta in targets}
    bias = -float(sum(2 * beta - 1 for _, beta in targets)) - len(targets) + 0.5
    return weights, bias


def _dedup(handles) -> list[int]:
    seen: dict[int, None] = {}
    for h in handles:
        seen.setdefault(h)
    return list(seen)


def grow_skip_decoder_bank(nb: NetBuilder, tables: list[BitTable], bits: list[int],
                           carry: list[int] = (),
                           sites: list | None = None) -> tuple[list[list[int]], list[int]]:
    """Emit decode slice-stacks for several tables over one shared geometry.

    ``bits`` are decoder-slot handles in the builder's current last layer;
    binary forwarding replaces the skip taps, so the bank embeds into any
    host kind.  On an empty builder the bits are input coordinates
    instead: slice 1 reads them directly and later slices through skip
    taps (skip kind only), with no forwarded copies.  ``carry`` handles are
    forwarded through all R+3 added layers.  Returns one handle group per
    table — each group sums to the table's stored bit for the cell
    containing x — plus the carried handles at the new last layer.

    With a ``sites`` list, every weight that depends on the payloads is
    reported once as ``(row handle, column handle, cell, coefficient)``:
    the weight equals ``coefficient * payload.flat[cell]``, ``cell``
    indexing the stacked payloads of shape (tables, J, K, R).  These are
    the stage-B rows; everything else is payload-independent.
    """
    geom = tables[0].geometry
    if any(t.geometry != geom for t in tables):
        raise InvalidInputError("bank tables must share one geometry")
    gj, gk, gr = geom.group_levels()
    J, K, R = geom.sizes
    carry = list(carry)
    tapped = not nb.layers  # bits are input coordinates
    forwarded = [] if tapped else list(bits)
    cur = {h: h for h in _dedup(carry + forwarded)}
    stages: list[dict[int, dict]] = [{} for _ in tables]
    accums: list[int | None] = [None] * len(tables)

    for depth in range(1, R + 4):
        prev_cur = cur
        prev_stages = stages
        bits_prev = bits if tapped else ([prev_cur[h] for h in bits] if depth <= R else [])
        nb.new_layer()
        keep = _dedup(carry + (forwarded if depth <= R - 1 else []))
        cur = {h: nb.forward(prev_cur[h]) for h in keep}
        stages = [{} for _ in tables]
        for ti, table in enumerate(tables):
            payload = table.payload
            prev = prev_stages[ti]
            r = depth
            if r <= R:  # stage A of slice r: index-indicator banks
                def ind(group, index):
                    row, bias = _indicator_row(geom.target_bits(group, index))
                    taps = {bits_prev[s]: w for s, w in row.items()}
                    if tapped and depth > 1:
                        return nb.step({}, bias=bias, inp=taps)
                    return nb.step(taps, bias=bias)
                stages[ti][r] = {"j": [ind(gj, j) for j in range(1, J + 1)],
                                 "k": [ind(gk, k) for k in range(1, K + 1)],
                                 "r": ind(gr, r)}
            r = depth - 1
            if 1 <= r <= R:  # stage B: select the stored-bit row for j(x)
                blk = prev[r]
                eta = []
                for k in range(K):
                    h = nb.step({hj: 1.0 for j, hj in enumerate(blk["j"])
                                 if payload[j, k, r - 1]}, bias=-0.5)
                    if sites is not None:
                        sites.extend((h, hj, ((ti * J + j) * K + k) * R + r - 1, 1.0)
                                     for j, hj in enumerate(blk["j"]))
                    eta.append(h)
                stages[ti][r] = {
                    "eta": eta,
                    "k": [nb.forward(h) for h in blk["k"]],
                    "r": nb.forward(blk["r"]),
                }
            r = depth - 2
            if 1 <= r <= R:  # stage C: AND each stored bit with its k-hit
                blk = prev[r]
                stages[ti][r] = {"and": [nb.step({e: 1.0, kk: 1.0}, bias=-1.5)
                                         for e, kk in zip(blk["eta"], blk["k"])],
                                 "r": nb.forward(blk["r"])}
            r = depth - 3
            if 1 <= r <= R:  # stage D: slice output eta * step(r(x) = r)
                blk = prev[r]
                row = {h: 1.0 for h in blk["and"]}
                row[blk["r"]] = row.get(blk["r"], 0.0) + 1.0
                stages[ti][r] = {"out": nb.step(row, bias=-1.5)}
            # running sum of finished slice outputs
            if depth == 5 and R >= 2:
                accums[ti] = nb.forward(prev_stages[ti][1]["out"])
            elif depth >= 6:
                accums[ti] = nb.step({accums[ti]: 1.0,
                                      prev_stages[ti][depth - 4]["out"]: 1.0}, bias=-0.5)
    groups = []
    for ti in range(len(tables)):
        parts = [stages[ti][R]["out"]]
        if accums[ti] is not None:
            parts.append(accums[ti])
        groups.append(parts)
    return groups, [cur[h] for h in carry]


def grow_lin_decoder(nb: NetBuilder, table: BitTable, bits: list[int],
                     carry: list[int] = (), absorb: list[list[int]] = (),
                     sites: list | None = None) -> tuple[list[int], list[int]]:
    """Emit one lin decoder block against bit handles in the last layer.

    Adds 2R+2 layers.  ``carry`` handles are forwarded through all of them
    and returned; each group in ``absorb`` is collapsed into a fresh neuron
    ``step(sum - 1/2)`` in the first added layer, appended to the returned
    carry (this is how a preceding block's output becomes a neuron).
    Returns handles whose sum equals the stored bit of the cell containing
    x, plus the updated carry.

    With a ``sites`` list, every weight that depends on the payload is
    reported as ``(row handle, column handle, cell, coefficient)`` terms:
    an accumulator weight is the sum of ``coefficient * payload.flat[cell]``
    over its R terms, one per bit packed into the column.  Packing needs
    R <= 52 so that every packed column is an exact float64.
    """
    geom = table.geometry
    gj, gk, gr = geom.group_levels()
    J, K, R = geom.sizes
    if R > 52:
        raise PrecisionError(f"R = {R} packed digits exceed a float64 significand")
    chunk = 2 ** (geom.m * geom.d)
    payload = table.payload
    lam = payload @ (0.5 ** np.arange(1, R + 1))  # (J, K) packed stored-bit columns

    carry = list(carry)
    cur = {h: h for h in _dedup(list(carry) + list(bits))}
    jind: list[int] = []
    lam_acc: list[int] = []
    lam_bit: list[int] = []
    lam_rem: list[int] = []
    pair: list[int] = []
    rho: list[int] = []
    total: int | None = None
    absorbed: list[int] = []

    for depth in range(1, 2 * R + 3):
        prev_cur = cur
        prev = {"jind": jind, "lam_acc": lam_acc, "lam_bit": lam_bit,
                "lam_rem": lam_rem, "pair": pair, "rho": rho, "total": total}
        bits_prev = [prev_cur[h] for h in bits] if depth <= 2 * R + 1 else []
        nb.new_layer()
        keep = _dedup(carry + (bits if depth <= 2 * R else []))
        cur = {h: nb.forward(prev_cur[h]) for h in keep}
        if depth == 1:
            absorbed = [nb.step({h: 1.0 for h in group}, bias=-0.5) for group in absorb]
        else:
            absorbed = [nb.forward(h) for h in absorbed]
        jind, lam_acc, lam_bit, lam_rem, pair, rho = [], [], [], [], [], []
        total = None
        if depth <= R:
            # stage A: chunk #depth of cell-index indicators
            for j in range((depth - 1) * chunk + 1, depth * chunk + 1):
                row, bias = _indicator_row(geom.target_bits(gj, j))
                jind.append(nb.step({bits_prev[s]: w for s, w in row.items()}, bias=bias))
        if 2 <= depth <= R + 1:
            # identity accumulators folding chunk depth-1 into the packed columns
            base = (depth - 2) * chunk
            for k in range(K):
                row = {h: float(lam[base + jj, k])
                       for jj, h in enumerate(prev["jind"]) if lam[base + jj, k] != 0.0}
                if prev["lam_acc"]:
                    row[prev["lam_acc"][k]] = 1.0
                h = nb.linear(row)
                if sites is not None:
                    sites.extend((h, hj, ((base + jj) * K + k) * R + r, 0.5 ** (r + 1))
                                 for jj, hj in enumerate(prev["jind"]) for r in range(R))
                lam_acc.append(h)
        if R + 2 <= depth <= 2 * R + 1:
            ell = depth - R - 1
            # joint (k, r)-hit indicators from the forwarded bits
            for k in range(1, K + 1):
                row, bias = _indicator_row(geom.target_bits(gk, k) + geom.target_bits(gr, ell))
                pair.append(nb.step({bits_prev[s]: w for s, w in row.items()}, bias=bias))
            # narrow extraction: digit ell of every packed column
            if ell == 1:
                for k in range(K):
                    lam_bit.append(nb.step({prev["lam_acc"][k]: 1.0}, bias=-0.5))
                    if R >= 2:
                        lam_rem.append(nb.linear({prev["lam_acc"][k]: 1.0}))
            else:
                for k in range(K):
                    row = {prev["lam_rem"][k]: 1.0,
                           prev["lam_bit"][k]: -(2.0 ** -(ell - 1))}
                    lam_bit.append(nb.step(dict(row), bias=-(2.0 ** -ell)))
                    if ell < R:
                        lam_rem.append(nb.linear(dict(row)))
        if R + 3 <= depth <= 2 * R + 2:
            # selected bits of slice ell: digit AND (k, r)-hit
            rho = [nb.step({e: 1.0, p: 1.0}, bias=-1.5)
                   for e, p in zip(prev["lam_bit"], prev["pair"])]
            if depth == R + 4 and R >= 2:
                total = nb.step({h: 1.0 for h in prev["rho"]}, bias=-0.5)
            elif depth >= R + 5:
                row = {h: 1.0 for h in prev["rho"]}
                row[prev["total"]] = 1.0
                total = nb.step(row, bias=-0.5)
    parts = list(rho)
    if total is not None:
        parts.append(total)
    return parts, [cur[h] for h in carry] + absorbed


def _slice_decoder(table: BitTable, r_select: int) -> BuiltNetwork:
    """Plain three-hidden-layer decoder for one fixed r slice."""
    geom = table.geometry
    gj, gk, gr = geom.group_levels()
    J, K, R = geom.sizes
    if not 1 <= r_select <= R:
        raise InvalidInputError(f"r_select={r_select} outside 1..{R}")
    payload = table.payload
    nb = NetBuilder(geom.d * geom.levels, NetworkKind.PLAIN)
    nb.new_layer()

    def ind(group, index):
        row, bias = _indicator_row(geom.target_bits(group, index))
        return nb.step(dict(row), bias=bias)

    jind = [ind(gj, j) for j in range(1, J + 1)]
    kind = [ind(gk, k) for k in range(1, K + 1)]
    rind = ind(gr, r_select)
    nb.new_layer()
    eta = [nb.step({h: 1.0 for j, h in enumerate(jind)
                    if payload[j, k, r_select - 1]}, bias=-0.5) for k in range(K)]
    kfwd = [nb.forward(h) for h in kind]
    rfwd = nb.forward(rind)
    nb.new_layer()
    hits = [nb.step({e: 1.0, kk: 1.0}, bias=-1.5) for e, kk in zip(eta, kfwd)]
    rfwd = nb.forward(rfwd)
    out_row = {h: 1.0 for h in hits}
    out_row[rfwd] = 1.0
    nb.output([out_row], [-1.5])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes,
                        Construction("decoder", {"kind": "skip", "d": geom.d, "m": geom.m,
                                                 "n": geom.n, "r_select": r_select}))


def _standalone_decoder(table: BitTable) -> BuiltNetwork:
    """Full decoder on raw digit inputs: the skip bank with taps, or the
    lin block."""
    geom = table.geometry
    inputs = list(range(geom.d * geom.levels))
    params = {"kind": geom.kind, "d": geom.d, "m": geom.m, "n": geom.n}
    if geom.kind == "skip":
        nb = NetBuilder(len(inputs), NetworkKind.SKIP)
        (parts,), _ = grow_skip_decoder_bank(nb, [table], inputs)
        out_bias = -0.5
    else:
        nb = NetBuilder(len(inputs), NetworkKind.LIN)
        parts, _ = grow_lin_decoder(nb, table, inputs)
        out_bias = 0.0
        params["t"] = geom.t
    nb.output([{h: 1.0 for h in parts}], [out_bias])
    net, probes = nb.build()
    return BuiltNetwork(net, None, probes, Construction("decoder", params))


def decoder(kind: str, table: BitTable, r_select: int | None = None) -> BuiltNetwork:
    """Build the decoder network for a stored bit table.

    The network's input is the digit vector, not the raw point.  For skip
    variants the decoded bit is ``step(output)``; the lin variant's output
    IS the bit.  ``r_select`` picks the plain one-slice network.
    """
    if kind != table.geometry.kind:
        raise InvalidInputError(
            f"decoder kind {kind!r} does not match table geometry {table.geometry.kind!r}")
    if r_select is None:
        return _standalone_decoder(table)
    if kind == "lin":
        raise InvalidInputError("r_select applies to the skip family only")
    return _slice_decoder(table, r_select)
