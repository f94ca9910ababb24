"""Piece structure of a network restricted to a segment.

Both analyses share one layer walk, ``_propagate``, that refines a
partition of the segment parameter t into regions.  Within a region every
neuron is affine in t, so a level is one (intercept, slope) pair per
neuron and region: the inputs and the identity neurons of a lin network
carry a slope, a step neuron's bit is constant.  A stage maps the pairs
to its pre-activations, each step neuron splits a region at most once,
and the region count stays within the paper's layer-wise ceiling.  Only
the split differs.

``exact_pieces`` splits at the exact roots of the affine pre-activations.
Piece values are read from direct evaluation at representative
midpoints, and the propagated activation pattern must match the evaluation
trace there exactly.  Adjacent pieces carrying the same output merge, and
each surviving breakpoint gets a side flag from evaluation at the
breakpoint itself: +1 if it matches the right piece, -1 the left.  When
several neurons cross at one parameter with conflicting inclusion sides,
the breakpoint's own value can match neither neighbor; such single-point
pieces are kept in ``point_values`` (the two-dimensional sign-flip pattern
produces one where the segment crosses the origin).

``sampled_pieces`` is the independent cross-check: the value sequence on
the grid ``t = k/N`` (N intervals, N+1 points), change counting, and
bisection refinement of every detected change.  Its split cuts runs of
grid indices where a step state flips.  A run boundary can land one index
away from the grid's own value change, so every run is read at its first
and its last grid point; ``_grid_values_dense`` is the literal dense
evaluator the tests compare against.  Bisection runs array-at-a-time: each
open gap carries the last-hidden-layer pattern and the output of its two
ends, read where they were first evaluated, so a round evaluates only the
midpoints of the open gaps, in one call.  Every parameter thus gets
exactly one value per ``sampled_pieces`` call.  A gap ends at the
tolerance or where a float cannot split it any further.

Both analyses judge sameness of evaluated parameters by one elementwise
rule, ``_same_value``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from ..networks import Network, evaluate_batch, step_rows
from .bounds import _layer_ceilings

__all__ = ["SegmentPartition", "exact_pieces", "sampled_pieces"]

MERGE_TOL = 1e-12


@dataclass
class SegmentPartition:
    """Breakpoints, side flags, and values of one segment restriction.

    ``side_flags[i] = +1``: breakpoint i belongs to the piece on its right;
    ``-1``: to the left; ``0``: the breakpoint is its own single-point piece
    with value ``point_values[breakpoints[i]]``.  ``values`` has one row per
    interval piece (single-point pieces excluded)."""

    x1: np.ndarray
    x2: np.ndarray
    breakpoints: np.ndarray
    side_flags: np.ndarray
    values: np.ndarray
    point_values: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def piece_count(self) -> int:
        return len(self.values) + len(self.point_values)

    def to_document(self) -> str:
        import json
        return json.dumps({
            "segment": {"x1": [float(v) for v in self.x1],
                        "x2": [float(v) for v in self.x2]},
            "piece_count": self.piece_count,
            "breakpoints": [float(t) for t in self.breakpoints],
            "side_flags": [int(s) for s in self.side_flags],
            "values": [[float(v) for v in row] for row in self.values],
            "point_values": {repr(float(t)): [float(v) for v in row]
                             for t, row in sorted(self.point_values.items())},
        })

    def value_at(self, t: float) -> np.ndarray:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise InvalidInputError(f"t={t} outside [0, 1]")
        if t in self.point_values:
            return self.point_values[t]
        hits = np.nonzero(self.breakpoints == t)[0]
        if hits.size:
            i = int(hits[0])
            return self.values[i + 1] if self.side_flags[i] > 0 else self.values[i]
        idx = int(np.searchsorted(self.breakpoints, t))
        return self.values[idx]


def _propagate(net: Network, x1: np.ndarray, x2: np.ndarray, bounds: np.ndarray, split):
    """Final region boundaries and the last hidden layer's bits per region.

    Each level is carried as intercepts ``H`` (every row) and slopes ``Hs``
    (the trailing rows that have one), a column per region: on region r
    row j is ``H[j, r] + t * Hs[j - len(H) + len(Hs), r]``.  The input
    level is ``x1, x2 - x1``; a step row carries its bit (no slope), an
    identity row its affine pre-activation.  ``split(A, S, bounds)`` gets
    the intercepts and slopes of a stage's step pre-activations and returns
    refined boundaries plus one parameter t per new region, where its
    parent's state is read.  After each stage the region count may not
    exceed the paper's layer-wise ceiling, ``bounds._layer_ceilings``.
    """
    arch = net.arch
    dx = x2 - x1
    H, Hs = x1[:, None], dx[:, None]
    ceilings = _layer_ceilings(arch)
    for i in range(arch.depth):
        layer = net.layers[i]
        A = np.asarray(layer.W @ H) - np.asarray(layer.b)[:, None]
        # the slope product runs over the slope-carrying columns alone
        S = np.asarray(layer.W[:, len(H) - len(Hs):] @ Hs) if len(Hs) \
            else np.zeros_like(A)
        if layer.V is not None:
            A = A + np.asarray(layer.V @ x1)[:, None]
            S = S + np.asarray(layer.V @ dx)[:, None]
        p = step_rows(arch, i) or len(A)
        new, ts = split(A[:p], S[:p], bounds)
        parent = np.searchsorted(bounds, new[:-1], side="right") - 1
        H, Hs = A[:, parent], S[p:, parent]
        H[:p] = H[:p] + S[:p, parent] * ts >= 0.0
        bounds = new
        if len(bounds) - 1 > ceilings[i]:
            raise AssertionError(
                f"{len(bounds) - 1} regions after layer {i + 1} exceed its ceiling {ceilings[i]}")
    return bounds, H


def _root_split(A: np.ndarray, S: np.ndarray, cuts: np.ndarray):
    """Exact roots of the step pre-activations inside each region, cuts
    closer than ``MERGE_TOL`` merged; regions are represented by midpoints."""
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.where(S != 0.0, -A / S, np.nan)
    inside = (S != 0.0) & (roots > cuts[:-1] + MERGE_TOL) & (roots < cuts[1:] - MERGE_TOL)
    new_roots = roots[inside]
    if new_roots.size:
        merged = np.sort(np.concatenate([cuts, new_roots]))
        keep = np.concatenate([[True], np.diff(merged) > MERGE_TOL])
        cuts = merged[keep]
        cuts[0], cuts[-1] = 0.0, 1.0
    return cuts, 0.5 * (cuts[:-1] + cuts[1:])


def _eval_at(net: Network, x1, x2, ts: np.ndarray, with_trace: bool = False):
    pts = (1 - ts)[:, None] * x1[None, :] + ts[:, None] * x2[None, :]
    return evaluate_batch(net, pts, with_trace=with_trace)


def _same_value(pat: np.ndarray, out: np.ndarray, i, j):
    """Whether evaluated parameters ``i`` and ``j`` carry the same output.

    ``i`` and ``j`` index columns of ``pat`` and rows of ``out``: ints,
    index arrays or slices, compared elementwise.  Columns with equal
    last-hidden-layer activation patterns are equal by construction (the
    output is one affine map of that pattern), whatever the low bits of
    the evaluated floats say — BLAS kernels may round the same dot product
    differently between columns and between calls.  Different patterns
    compare by exact output equality, which catches genuine cancellations
    (they are exact in the dyadic constructions this package emits).
    """
    return (pat[:, i] == pat[:, j]).all(axis=0) | (out[i] == out[j]).all(axis=-1)


def _segment(net: Network, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Segment endpoints as flat float vectors of the network's input dimension."""
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    x2 = np.asarray(x2, dtype=float).reshape(-1)
    if x1.shape != x2.shape or x1.shape[0] != net.arch.input_dim:
        raise InvalidInputError("segment endpoints must match the input dimension")
    return x1, x2


def exact_pieces(net: Network, x1, x2) -> SegmentPartition:
    """Exact partition of the segment restriction t -> f((1-t) x1 + t x2)."""
    x1, x2 = _segment(net, x1, x2)
    # kept although the general path handles it: a one-row evaluation
    # rounds differently from the traced batch below, in the last bit
    if np.array_equal(x1, x2):
        v = evaluate_batch(net, x1[None, :])[0]
        return SegmentPartition(x1, x2, np.array([]), np.array([], dtype=int), v[None, :])

    cuts, bits = _propagate(net, x1, x2, np.array([0.0, 1.0]), _root_split)
    # one traced evaluation covers the midpoints, the cut parameters, and
    # the endpoints; sameness of two parameters is judged by _same_value
    # on that call's columns
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    P, C = len(mids), len(cuts) - 2
    out, trace = _eval_at(net, x1, x2, np.concatenate([mids, cuts[1:-1], [0.0, 1.0]]),
                          with_trace=True)
    pat = trace[-1]
    if not np.array_equal(bits, pat[:, :P]):
        bad = int(np.nonzero(np.any(bits != pat[:, :P], axis=0))[0][0])
        raise AssertionError(
            f"piece propagation disagrees with direct evaluation at t={mids[bad]}")

    def same(i, j):
        return _same_value(pat, out, i, j)

    # merge adjacent interiors that carry the same output; a breakpoint's
    # flag compares it with the first column of each neighbouring piece
    # (not the adjacent midpoint: sameness is not transitive)
    inner = cuts[1:-1]
    point_values: dict[float, np.ndarray] = {}
    keep = np.empty(P, dtype=bool)
    keep[0] = True
    keep[1:] = ~same(slice(0, P - 1), slice(1, P))
    piece_cols = np.flatnonzero(keep)
    bp_cols = P + np.flatnonzero(keep[1:])
    bps, values = inner[keep[1:]], out[piece_cols]
    # +1: the breakpoint takes the right piece's value, -1: the left's, 0: neither
    right = same(bp_cols, piece_cols[1:])
    flags = right.astype(int) - (same(bp_cols, piece_cols[:-1]) & ~right)
    for k in np.flatnonzero(flags == 0):
        point_values[float(bps[k])] = out[bp_cols[k]]

    # crossings swallowed by merging can still hide a single-point
    # piece (opposite inclusion sides meeting at one parameter)
    swallowed = np.flatnonzero(~keep[1:])
    if swallowed.size:
        piece = np.searchsorted(bps, inner[swallowed])
        hidden = ~same(P + swallowed, piece_cols[piece])
        if hidden.any():
            piece, swallowed = piece[hidden], swallowed[hidden]
            bps = np.insert(bps, piece, inner[swallowed])
            flags = np.insert(flags, piece, 0)
            values = np.insert(values, piece + 1, values[piece], axis=0)
            point_values.update(zip(inner[swallowed].tolist(), out[P + swallowed]))

    # endpoint values differing from the adjoining interior (a crossing at
    # exactly t=0 or 1) are single-point pieces without a breakpoint entry;
    # value_at checks point_values first
    for t, col, joined in zip((0.0, 1.0), (P + C, P + C + 1),
                              same(slice(P + C, None), piece_cols[[0, -1]])):
        if not joined:
            point_values[t] = out[col]

    return SegmentPartition(x1, x2, bps, flags, values, point_values)


def _grid_values_dense(net: Network, x1, x2, N: int) -> np.ndarray:
    """Literal grid evaluation on t = k/N, k = 0..N (test reference)."""
    t = np.arange(N + 1) / N
    X = (1 - t)[:, None] * np.asarray(x1, float)[None, :] \
        + t[:, None] * np.asarray(x2, float)[None, :]
    return evaluate_batch(net, X)


def _flip_indices(A: np.ndarray, S: np.ndarray, N: int, lo: np.ndarray, hi: np.ndarray):
    """Index in (lo, hi] where the affine sign pattern changes, or hi+1.

    The step state of ``A + S * (k/N) >= 0`` is monotone in ``k``, so it
    changes at most once.  The rounded root ``k0`` lands within one index
    of that change; one evaluation of the state at ``k0-3 .. k0+2`` reads
    every candidate ``k`` in ``k0-2 .. k0+2`` against ``k-1``, and the
    first candidate in (lo, hi] whose state differs is the answer.
    """
    up = S > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.clip(-A / S, -1.0, 2.0)
    k0 = np.where(up, np.ceil(root * N), np.floor(root * N) + 1).astype(np.int64)
    k0 = np.clip(k0, lo + 1, hi + 1)
    ks = k0[:, None] + np.arange(-3, 3)
    state = A[:, None] + S[:, None] * (ks / N) >= 0.0
    cand = ks[:, 1:]
    flips = (state[:, 1:] != state[:, :-1]) & (cand > lo[:, None]) & (cand <= hi[:, None])
    first = np.argmax(flips, axis=1)
    rows = np.arange(len(first))
    return np.where(flips[rows, first], cand[rows, first], hi + 1)


def sampled_pieces(net: Network, x1, x2, N: int, refine_tol: float = 1e-12) -> int:
    """Piece count seen on the grid t = k/N plus bisection refinement.

    Counts value changes along the grid, then bisects every detected change
    down to ``refine_tol`` (which must be positive) or to adjacent floats,
    adding any further values discovered on the way.  The result never
    exceeds the exact piece count.
    """
    if N < 2:
        raise InvalidInputError("sampled_pieces needs N >= 2")
    if not refine_tol > 0:
        raise InvalidInputError(f"sampled_pieces needs refine_tol > 0, got {refine_tol}")
    x1, x2 = _segment(net, x1, x2)

    def flip_split(A: np.ndarray, S: np.ndarray, starts: np.ndarray):
        # runs of grid indices k = 0..N, split where a step state flips
        lo, hi = starts[:-1], starts[1:] - 1
        rows, cols = np.nonzero(S != 0.0)
        if rows.size:
            k = _flip_indices(A[rows, cols], S[rows, cols], N, lo[cols], hi[cols])
            splits = k[k <= hi[cols]]
            if splits.size:
                starts = np.unique(np.concatenate([starts, splits]))
        return starts, starts[:-1] / N

    starts, _ = _propagate(net, x1, x2, np.array([0, N + 1], dtype=np.int64), flip_split)
    # one traced evaluation reads every run at its first and its last grid
    # point; each change between adjacent read points is a gap to refine,
    # including one inside a run whose head still carries its left
    # neighbour's value
    ends = np.repeat(starts, 2)[1:-1]  # first and last index of each run
    ends[1::2] -= 1
    ts = ends / N
    out, trace = _eval_at(net, x1, x2, ts, with_trace=True)
    pat = trace[-1]
    changed = np.flatnonzero(~_same_value(pat, out, slice(1, None), slice(None, -1)))

    # bisection refinement, all open gaps at once; every gap carries the
    # last-hidden-layer pattern and the output of its ends a and b, read
    # when they were first evaluated, so a round evaluates only the
    # midpoints and every parameter gets exactly one value per call.
    # Patterns are carried one 0/1 row per gap, as bools.
    a, pa, oa = ts[changed], pat.T[changed].astype(bool), out[changed]
    b, pb, ob = ts[changed + 1], pat.T[changed + 1].astype(bool), out[changed + 1]
    changes = 0
    while a.size:
        mid = 0.5 * (a + b)
        # a gap ends at the tolerance or where a float cannot split it
        done = (b - a <= refine_tol) | (mid == a) | (mid == b)
        if done.any():
            changes += int(np.count_nonzero(done))
            live = ~done
            a, mid, b = a[live], mid[live], b[live]
            pa, oa, pb, ob = pa[live], oa[live], pb[live], ob[live]
            if not a.size:
                break
        mout, mtrace = _eval_at(net, x1, x2, mid, with_trace=True)
        # lay the carried a, the new mid and the carried b side by side,
        # (a, mid, b) per gap, and compare within that layout
        abm = np.stack([a, mid, b], axis=1)
        pats = np.stack([pa, mtrace[-1].T.astype(bool), pb], axis=1)
        outs = np.stack([oa, mout, ob], axis=1)
        flat_pat = pats.reshape(-1, pats.shape[2]).T
        flat_out = outs.reshape(-1, outs.shape[2])
        at_a = _same_value(flat_pat, flat_out, slice(1, None, 3), slice(0, None, 3))
        at_b = _same_value(flat_pat, flat_out, slice(1, None, 3), slice(2, None, 3))
        # keep (a, mid) unless mid carries a's value, and (mid, b) when it
        # carries a's value or not b's (a third value inside: two changes)
        keep = np.empty((a.size, 2), dtype=bool)
        keep[:, 0] = ~at_a
        keep[:, 1] = at_a | ~at_b
        a, b = abm[:, :2][keep], abm[:, 1:][keep]
        pa, pb = pats[:, :2][keep], pats[:, 1:][keep]
        oa, ob = outs[:, :2][keep], outs[:, 1:][keep]
    return changes + 1
