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

Skip decoding runs one slice per r value in four stages: (A) a bank of
cell-index indicator neurons, (B) a stored-bit row selection (an OR), (C)
an AND with the k-hit, and (D) the slice output ``eta * step(r(x) = r)``.
``_decode_slice`` states these stages once.  ``grow_skip_decoder_bank``
staggers the slices over consecutive layers, with a running OR of their
outputs: inside a host network it forwards the digit bits, and the
standalone skip decoder is the same bank on an empty builder, whose later
slices read the digits through skip taps.  The plain one-slice decoder
(``r_select``) runs stages A-C of its slice and makes stage D's row its
output.  Lin decoding packs each stored-bit column into a dyadic real
``0.eta_1...eta_R``, selects it with identity neurons, and streams the
digits back out with the narrow extractor's digit step
(``bits.grow_narrow_digit``).

Skip variants shift their output by -1/2 so that thresholding recovers the
stored bit even when it is 0 (the step activation fires at zero); the lin
variant's output is the stored bit itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, PrecisionError
from ..networks import NetworkKind
from .bits import grow_narrow_digit
from .built import BuiltNetwork, Construction
from .dsl import NetBuilder

__all__ = ["CellGeometry", "BitTable", "decoder", "check_lin_packing",
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

    @property
    def levels(self) -> int:
        """Digit levels per coordinate; none for the one-point geometry
        m = n = t = 0."""
        return 2 * self.m + self.n if self.kind == "skip" else self.m + self.n + 2 * self.t

    def group_levels(self) -> tuple[range, range, range]:
        """1-based level ranges feeding the j, k, r indices.  A decoder
        reads at least one digit level, so a geometry without levels has no
        cell index groups."""
        if self.levels < 1:
            raise InvalidInputError("geometry has no digit levels at all")
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


def _decode_slice(nb: NetBuilder, geom: CellGeometry, payload: np.ndarray, r: int,
                  bits, taps: bool, sites: list | None = None, first_cell: int = 0):
    """Decode slice r, one stage per ``next`` into the builder's current layer.

    Stage A builds the cell-index indicators from the digit ``bits``
    (handles in the previous layer, or input coordinates read through skip
    taps when ``taps``), stage B selects the stored-bit row for j(x), and
    stage C ANDs each stored bit with its k-hit.  The third step yields
    stage D's row and bias, ``eta * step(r(x) = r) = step(row . h + bias)``
    over the stage-C layer; the fourth emits that neuron and yields it.
    Stage-B sites are reported as in ``grow_skip_decoder_bank``, with cells
    counted from ``first_cell``.
    """
    gj, gk, gr = geom.group_levels()
    J, K, R = geom.sizes

    def ind(group, index):
        row, bias = _indicator_row(geom.target_bits(group, index))
        weights = {bits[s]: w for s, w in row.items()}
        return nb.step({}, bias=bias, inp=weights) if taps else nb.step(weights, bias=bias)

    jind = [ind(gj, j) for j in range(1, J + 1)]
    khit = [ind(gk, k) for k in range(1, K + 1)]
    rhit = ind(gr, r)
    yield
    eta = []
    for k in range(K):
        # one read of the stored-bit column, not one numpy scalar per j
        eta.append(nb.any_of([jind[j] for j in np.flatnonzero(payload[:, k, r - 1]).tolist()]))
        if sites is not None:
            sites.extend((eta[-1], hj, first_cell + (j * K + k) * R + r - 1, 1.0)
                         for j, hj in enumerate(jind))
    khit = [nb.forward(h) for h in khit]
    rhit = nb.forward(rhit)
    yield
    ands = [nb.all_of([e, h]) for e, h in zip(eta, khit)]
    out = dict.fromkeys(ands + [nb.forward(rhit)], 1.0), -1.5
    yield out
    yield nb.step(*out)


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
    J, K, R = geom.sizes
    carry = list(carry)
    tapped = not nb.depth  # bits are input coordinates
    forwarded = [] if tapped else list(bits)
    cur = {h: h for h in dict.fromkeys(carry + forwarded)}
    slices = [[] for _ in tables]  # slice r of table ti at slices[ti][r - 1]
    outs: list[int | None] = [None] * len(tables)  # the latest slice output
    sums: list[list[int]] = [[] for _ in tables]  # OR of the earlier outputs

    for depth in range(1, R + 4):
        read = bits if tapped or depth > R else [cur[h] for h in bits]
        nb.new_layer()
        cur = {h: nb.forward(cur[h])
               for h in dict.fromkeys(carry + (forwarded if depth <= R - 1 else []))}
        for ti, table in enumerate(tables):
            if depth <= R:
                slices[ti].append(_decode_slice(nb, geom, table.payload, depth, read,
                                                tapped and depth > 1, sites, ti * J * K * R))
            # stages A, B, C and D of slices depth, depth-1, depth-2 and depth-3
            staged = [next(s) for s in reversed(slices[ti][max(0, depth - 4):depth])]
            if depth >= 5:
                sums[ti] = [nb.any_of(sums[ti] + [outs[ti]])]
            if depth >= 4:
                outs[ti] = staged[-1]
    return [[out, *acc] for out, acc in zip(outs, sums)], [cur[h] for h in carry]


def check_lin_packing(geom: CellGeometry) -> None:
    """Refuse a lin geometry whose stored-bit columns do not pack: each
    column packs its R = 2^(t d) bits into one float64, so R <= 52, that
    is t d <= 5.  The rule reads the geometry alone, so it can run before
    any payload is drawn, and it compares the exponent: the refusal names
    R as the power ``2^(t d)`` and never forms it."""
    if geom.kind == "lin" and geom.t * geom.d > 5:
        raise PrecisionError(f"lin decoder packing needs 2^{geom.t * geom.d} binary digits, "
                             "more than a float64 significand holds (52)")


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
    R <= 52 (``check_lin_packing``) so that every packed column is an
    exact float64.
    """
    geom = table.geometry
    gj, gk, gr = geom.group_levels()
    J, K, R = geom.sizes
    check_lin_packing(geom)
    chunk = 2 ** (geom.m * geom.d)
    lam = table.payload @ (0.5 ** np.arange(1, R + 1))  # (J, K) packed stored-bit columns

    def ind(targets):
        row, bias = _indicator_row(targets)
        return nb.step({read[s]: w for s, w in row.items()}, bias=bias)

    carry = list(carry)
    cur = {h: h for h in dict.fromkeys(carry + list(bits))}
    jind: list[int] = []  # one chunk of cell-index indicators
    acc: list[int] = []  # identity accumulators of the packed columns
    # per packed column, the narrow extraction's remainder carrier and digit
    # (the accumulator and None before digit 1)
    rem: list = []
    bit: list = []
    pair: list[int] = []  # joint (k, r)-hit indicators
    rho: list[int] = []  # selected bits of one slice
    total: list[int] = []  # OR of the earlier slices' selected bits
    absorbed: list[int] = []

    for depth in range(1, 2 * R + 3):
        read = [cur[h] for h in bits] if depth <= 2 * R + 1 else []
        nb.new_layer()
        cur = {h: nb.forward(cur[h])
               for h in dict.fromkeys(carry + (bits if depth <= 2 * R else []))}
        if depth == 1:
            absorbed = [nb.any_of(group) for group in absorb]
        else:
            absorbed = [nb.forward(h) for h in absorbed]
        prev_jind, prev_acc, prev_rem, prev_bit, prev_pair = jind, acc, rem, bit, pair
        ell = depth - R - 1  # the digit level extracted at this depth
        if depth <= R:
            # stage A: chunk #depth of cell-index indicators
            jind = [ind(geom.target_bits(gj, j))
                    for j in range((depth - 1) * chunk + 1, depth * chunk + 1)]
        if 2 <= depth <= R + 1:
            # identity accumulators folding chunk depth-1 into the packed columns
            base = (depth - 2) * chunk
            acc = []
            for k in range(K):
                row = {h: float(lam[base + jj, k])
                       for jj, h in enumerate(prev_jind) if lam[base + jj, k] != 0.0}
                if prev_acc:
                    row[prev_acc[k]] = 1.0
                acc.append(nb.linear(row))
                if sites is not None:
                    sites.extend((acc[-1], hj, ((base + jj) * K + k) * R + r, 0.5 ** (r + 1))
                                 for jj, hj in enumerate(prev_jind) for r in range(R))
            rem, bit = acc, [None] * K  # the packed columns are the first remainders
        if 1 <= ell <= R:
            # joint (k, r)-hit indicators, then digit ell of every packed column
            pair = [ind(geom.target_bits(gk, k) + geom.target_bits(gr, ell))
                    for k in range(1, K + 1)]
            bit, rem = map(list, zip(*[grow_narrow_digit(nb, rm, b, ell, R)
                                       for rm, b in zip(prev_rem, prev_bit)]))
        if 2 <= ell <= R + 1:
            # selected bits of slice ell-1: digit AND (k, r)-hit
            prev_rho, rho = rho, [nb.all_of([e, p]) for e, p in zip(prev_bit, prev_pair)]
            if ell >= 3:
                total = [nb.any_of(prev_rho + total)]
    return rho + total, [cur[h] for h in carry] + absorbed


def _slice_decoder(table: BitTable, r_select: int) -> BuiltNetwork:
    """Plain three-hidden-layer decoder for one fixed r slice."""
    geom = table.geometry
    R = geom.sizes[2]
    if not 1 <= r_select <= R:
        raise InvalidInputError(f"r_select={r_select} outside 1..{R}")
    nb = NetBuilder(geom.d * geom.levels, NetworkKind.PLAIN)
    stages = _decode_slice(nb, geom, table.payload, r_select, range(nb.input_dim), taps=False)
    for _ in range(3):  # stages A, B and C
        nb.new_layer()
        staged = next(stages)
    row, bias = staged  # stage D's row is the output
    nb.output([row], [bias])
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
