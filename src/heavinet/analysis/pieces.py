"""Piece structure of a network restricted to a segment.

Both analyses share one layer walk, ``_propagate``, that refines a
partition of the segment parameter t into regions.  Within a region every
neuron is affine in t, so a level is one (intercept, slope) pair per
neuron and region: the inputs and the identity neurons of a lin network
carry a slope, a step neuron's bit is constant.  A stage maps the pairs
to its pre-activations, each step neuron splits a region at most once,
and the region count stays within the paper's layer-wise ceiling.  Only
the split differs.  Propagation ends at ``networks.pattern_stage``: no
stage from there on reads the input, so every slope it would compute is a
sum of zero-weight terms, and the region count, which has met its ceiling
so far, would stay constant through the later layers.  It hands off the
regions' columns at that stage and never runs the later ones.

``exact_pieces`` splits at the float roots of the affine pre-activations
and merges two cuts only when they are the same float (``_root_split``),
so a piece of any width and a segment of any length keep their cuts.
Piece values are read from direct evaluation at representative
midpoints, and the hand-off must match direct evaluation at the pattern
stage there exactly, on every row that stage weighs.  Adjacent pieces
carrying the same output merge, and each surviving breakpoint gets a side
flag from evaluation at the breakpoint itself: +1 if it matches the right
piece, -1 the left.  When
several neurons cross at one parameter with conflicting inclusion sides,
the breakpoint's own value can match neither neighbor; such single-point
pieces are kept in ``point_values`` (the two-dimensional sign-flip pattern
produces one where the segment crosses the origin).

``sampled_pieces`` is the independent cross-check: the value sequence on
the grid ``t = k/N`` (N intervals, N+1 points), change counting, and
refinement of every detected change.  Its split cuts runs of grid indices
where a step state flips.  A run boundary can land one index away from the
grid's own value change, so every run is read at its first and its last
grid point; ``_grid_values_dense`` is the literal dense evaluator the tests
compare against.  Refinement runs array-at-a-time on a dyadic sub-grid:
each round splits every open gap j bisection levels deep by repeated
midpoints, the same floats bisection computes, and evaluates all interior
points of all gaps in one call.  j is the most levels that keep a round
within ``REFINE_POINTS`` points and stop before any sub-gap reaches the
tolerance or becomes too narrow for a float midpoint; with many open gaps
j = 1 and a round is one bisection level.  Each open gap carries the
pattern key and the output of its two ends, read where they were first
evaluated, so every parameter gets exactly one value per
``sampled_pieces`` call.  Every adjacent sub-grid pair whose values differ
becomes a new gap.  The count never exceeds the exact one.  The sub-grid
holds every point bisection evaluates, so where sameness is transitive
the count is also at least bisection's.  It is where equal patterns give
equal outputs, as the padded output stage makes them on the BLAS kernels
tested: sameness is then exact output equality.  Otherwise
``_same_value`` need not be transitive, and a round can keep fewer
sub-gaps than bisection would count.

Both analyses evaluate through ``_eval_at``: one untraced pass with the
same floats as a traced ``evaluate_batch``, whose stages past the pattern
stage run once per run of equal columns there, marked by the rule
``evaluate_batch`` uses (``networks._run_heads``).  Their parameters come
in increasing t, so a piece's parameters form few runs.  They judge
sameness of evaluated parameters by one elementwise rule, ``_same_value``,
on the outputs and one packed key per parameter, the last hidden layer's
bits as bytes (``_pattern_keys``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from ..networks import (
    Network,
    _checked_points,
    _forward,
    _run_heads,
    evaluate_batch,
    pattern_stage,
    step_rows,
)
from .bounds import _running_ceilings

__all__ = ["SegmentPartition", "exact_pieces", "sampled_pieces"]

# most points a refinement round of sampled_pieces evaluates, unless one
# level of bisection already has more: enough to spare most rounds' fixed
# cost on a small network, few enough that a large one's points stay cheap
REFINE_POINTS = 128
# pattern keys: the shifted sum costs about half of np.packbits per entry,
# but more per call; the two cost the same near 512 entries.  Row r of a
# byte of 8 rows goes to bit 7 - r, as np.packbits has it
SHIFT_PACK_MIN_ENTRIES = 512
_BIT_SHIFTS = np.arange(7, -1, -1, dtype=np.uint8)[:, None]


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
    """Final region boundaries and the hand-off: each region's column at
    ``pattern_stage(net)``.

    Each level is carried as intercepts ``H`` (every row) and slopes ``Hs``
    (the trailing rows that have one), a column per region: on region r
    row j is ``H[j, r] + t * Hs[j - len(H) + len(Hs), r]``.  The input
    level is ``x1, x2 - x1``; a step row carries its bit (no slope), an
    identity row its affine pre-activation.  ``split(A, S, bounds)`` gets
    the intercepts and slopes of a stage's step pre-activations and returns
    refined boundaries plus one parameter t per new region, where its
    parent's state is read.  After each stage the region count may not
    exceed the paper's layer-wise ceiling, ``bounds._running_ceilings``,
    formed only as far as the loop goes.

    The split loop runs on the stages before ``pattern_stage(net)`` only,
    and returns the intercepts ``H`` it reaches there.  The stages from
    there on read no input and give every step pre-activation a zero
    slope, so nothing would split and the count stays within the later
    ceilings (every factor is at least 1).  The pattern stage weighs none
    of the identity rows handed to it (the rule that places it), so those
    keep their t = 0 intercepts, and ``_forward`` from the pattern stage
    takes ``H`` to the last hidden bits of the every-stage loop, bit for
    bit.
    """
    arch = net.arch
    dx = x2 - x1
    H, Hs = x1[:, None], dx[:, None]
    for i, ceiling in zip(range(pattern_stage(net)), _running_ceilings(arch)):
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
        if len(bounds) - 1 > ceiling:
            raise AssertionError(
                f"{len(bounds) - 1} regions after layer {i + 1} exceed its ceiling {ceiling}")
    return bounds, H


def _root_split(A: np.ndarray, S: np.ndarray, cuts: np.ndarray):
    """The float roots ``-A / S`` of the step pre-activations that lie
    strictly inside their region, added to the cuts; regions are
    represented by midpoints.

    Two cuts merge only when they are the same float, so no tolerance
    decides what a piece is: a piece of any width, or of a segment of any
    length, keeps its cuts.  Roots of different neurons that round to
    adjacent floats stay two cuts; the region between them holds no float
    of its own, and its midpoint is one of its ends."""
    rows, cols = np.nonzero(S)
    roots = -A[rows, cols] / S[rows, cols]
    new = roots[(roots > cuts[cols]) & (roots < cuts[cols + 1])]
    if new.size:  # union1d sorts even when there is nothing to add
        cuts = np.union1d(cuts, new)
    return cuts, 0.5 * (cuts[:-1] + cuts[1:])


def _pattern_keys(pat: np.ndarray) -> np.ndarray:
    """One key per column of a 0/1 pattern matrix (width, points): the
    column's bits packed into bytes, first row in the high bit, as one
    void scalar (the bytes of ``np.packbits`` along the column).  Two keys
    are equal exactly when the two columns are.

    From ``SHIFT_PACK_MIN_ENTRIES`` entries on, the rows go into a uint8
    copy padded to whole bytes of 8 rows; each row is shifted to its bit
    and each byte's 8 rows are summed, so only the packed bytes are
    transposed.  A smaller pattern is packed from a transposed bool copy,
    which has the smaller fixed cost."""
    width, points = pat.shape
    if pat.size < SHIFT_PACK_MIN_ENTRIES:
        packed = np.packbits(pat.T.astype(bool, order="C"), axis=1)
    else:
        bits = np.zeros((-(-width // 8), 8, points), np.uint8)
        bits.reshape(-1, points)[:width] = pat
        bits <<= _BIT_SHIFTS
        packed = bits.sum(axis=1, dtype=np.uint8).T.copy()
    return packed.view(f"V{packed.shape[1]}")[:, 0]


def _eval_at(net: Network, x1, x2, ts: np.ndarray):
    """Outputs (points, outputs), the activations at ``pattern_stage``
    (width, points) and the last hidden layer's pattern keys at the
    parameters ``ts``, which come in increasing t.

    One block through ``networks._forward`` with no trace, in three parts.
    Every parameter goes through the stages before the pattern stage.
    Past it a column is a function of its step bits and of input-free
    identity values, so only the head of each run of equal adjacent
    columns (``networks._run_heads``) goes on, and its outputs and key
    stand for its run.  When the pattern stage is the output stage the
    hand-off is the last hidden layer, and every column goes on: there
    the marking, the gather and the two expansions cost more than the
    one output product they save, on small networks and on the digit
    extractors alike.  The output stage reads a C-ordered last hidden
    layer as it would in a traced ``evaluate_batch``: the same floats,
    without holding every layer.
    """
    cols = _checked_points(net, (1 - ts)[:, None] * x1[None, :] + ts[:, None] * x2[None, :]).T
    first, L = pattern_stage(net), net.arch.depth
    hand = _forward(net, cols, cols, 0, first)
    if first == L:  # the hand-off is the last hidden layer
        pat, run = hand, slice(None)
    else:
        mark = np.empty(len(ts), dtype=bool)
        pat = _forward(net, _run_heads(hand, True, mark), None, first, L)
        run = mark.cumsum()
        run -= 1  # per parameter, the index of its run's head
    return _forward(net, pat, None, L, L + 1).T[run], hand, _pattern_keys(pat)[run]


def _same_value(key: np.ndarray, out: np.ndarray, i, j):
    """Whether evaluated parameters ``i`` and ``j`` carry the same output.

    ``i`` and ``j`` index ``key`` and the rows of ``out``: ints, index
    arrays or slices, compared elementwise.  A further axis after the
    indexed one, in both arrays, carries through to the result, so ``key``
    of shape (points, gaps) and ``out`` of shape (points, gaps, outputs)
    compare points along each gap.  ``key`` holds one packed
    last-hidden-layer pattern per parameter (``_pattern_keys``).  Equal
    patterns give equal outputs by construction (the output is one affine
    map of that pattern).  Their floats agree too, in any column of any
    call, since the output stage pads its product to a column count BLAS
    sums in one order (``networks._forward``); the key compare keeps
    sameness from resting on that property of the BLAS kernels.  Different
    patterns compare by exact output equality, which catches genuine
    cancellations (they are exact in the dyadic constructions this
    package emits).
    """
    return (key[i] == key[j]) | (out[i] == out[j]).all(axis=-1)


def _segment(net: Network, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Segment endpoints as flat float vectors of the network's input
    dimension, with finite endpoints and a finite direction ``x2 - x1``."""
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    x2 = np.asarray(x2, dtype=float).reshape(-1)
    if x1.shape != x2.shape or x1.shape[0] != net.arch.input_dim:
        raise InvalidInputError("segment endpoints must match the input dimension")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(x2 - x1).all()
    if not finite:
        raise InvalidInputError(
            f"segment {x1.tolist()} -> {x2.tolist()}: endpoints and their difference "
            "must be finite")
    return x1, x2


def exact_pieces(net: Network, x1, x2) -> SegmentPartition:
    """Exact partition of the segment restriction t -> f((1-t) x1 + t x2).

    Propagation's hand-off is checked against direct evaluation at the
    pattern stage, at every region's midpoint, on each step row and each
    identity row the pattern stage weighs (``Network._pattern_rows``); it
    raises ``AssertionError`` at the first midpoint that differs.  That is
    at least as strict as comparing the last hidden layers: the stages
    from the pattern stage on read only those rows, so equal rows give an
    equal last hidden layer.  A hand-off made too early leaves an
    input-dependent identity row that stage weighs at its t = 0 intercept,
    which the check sees.
    """
    x1, x2 = _segment(net, x1, x2)
    cuts, hand = _propagate(net, x1, x2, np.array([0.0, 1.0]), _root_split)
    # one evaluation, in increasing t, covers the endpoints, the cut
    # parameters and the midpoints: column 2r + 1 is region r's midpoint,
    # column 2k cut k (the endpoints are cuts 0 and P); sameness of two
    # parameters is judged by _same_value on that call's outputs and
    # pattern keys
    P = len(cuts) - 1
    ts = np.empty(2 * P + 1)
    ts[0::2], ts[1::2] = cuts, 0.5 * (cuts[:-1] + cuts[1:])
    out, direct, key = _eval_at(net, x1, x2, ts)
    differ = (hand != direct[:, 1::2])[net._pattern_rows]
    if differ.any():
        bad = int(np.flatnonzero(differ.any(axis=0))[0])
        raise AssertionError(
            f"piece propagation disagrees with direct evaluation at t={ts[2 * bad + 1]}")

    def same(i, j):
        return _same_value(key, out, i, j)

    # merge adjacent interiors that carry the same output; each cut is then
    # compared with the first column of the piece on either side (not the
    # adjacent midpoint: sameness is not transitive), cut 0 and cut P (the
    # endpoints) with their one side
    keep = np.empty(P, dtype=bool)
    keep[0] = True
    keep[1:] = ~same(slice(1, 2 * P - 2, 2), slice(3, 2 * P, 2))
    # per region, the column of its piece's first region
    piece_col = 2 * np.flatnonzero(keep)[np.cumsum(keep) - 1] + 1
    right = same(slice(0, 2 * P - 1, 2), piece_col)  # cuts 0..P-1
    left = same(slice(2, 2 * P + 1, 2), piece_col)  # cuts 1..P
    # a cut is a breakpoint where the piece changes, or where it carries
    # its piece's value on neither side: a single-point piece where
    # crossings with opposite inclusion sides meet
    at = np.flatnonzero(keep[1:] | ~right[1:])
    bps, joins_right, joins_left = cuts[1:-1][at], right[1:][at], left[:-1][at]
    # +1: the breakpoint takes the right piece's value, -1: the left's, 0: neither
    flags = joins_right.astype(int) - (joins_left & ~joins_right)
    values = out[piece_col[np.concatenate([[0], at + 1])]]
    point_values = {float(t): out[2 * k + 2] for t, k in zip(bps[flags == 0], at[flags == 0])}

    # endpoint values differing from the adjoining interior (a crossing at
    # exactly t=0 or 1) are single-point pieces without a breakpoint entry;
    # value_at checks point_values first
    for t, col, joined in zip((0.0, 1.0), (0, 2 * P), (right[0], left[-1])):
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


def _splittable(a, mid, b, refine_tol: float):
    """Whether bisection splits the gap (a, b) at ``mid = 0.5 * (a + b)``:
    it is wider than the tolerance and a float lies strictly inside."""
    return (b - a > refine_tol) & (mid != a) & (mid != b)


def _sub_grid(a, mid, b, refine_tol: float) -> np.ndarray:
    """Every gap split j levels deep by repeated midpoints, one row each.

    Row g holds the 2^j + 1 points of gap (a[g], b[g]), ends included:
    the floats bisection reaches in j rounds.  j is at least 1 and grows
    while the ``len(a) * (2^j - 1)`` interior points stay within
    ``REFINE_POINTS`` and bisection would split every sub-gap again.
    """
    grid, mid = np.stack([a, b], axis=1), mid[:, None]
    while True:
        split = np.empty((len(grid), 2 * grid.shape[1] - 1))
        split[:, ::2], split[:, 1::2] = grid, mid
        grid = split
        if len(grid) * (2 * grid.shape[1] - 3) > REFINE_POINTS:
            return grid
        mid = 0.5 * (grid[:, :-1] + grid[:, 1:])
        if not _splittable(grid[:, :-1], mid, grid[:, 1:], refine_tol).all():
            return grid


def sampled_pieces(net: Network, x1, x2, N: int, refine_tol: float = 1e-12) -> int:
    """Piece count seen on the grid t = k/N plus sub-grid refinement.

    Counts value changes along the grid, then refines every detected change
    down to ``refine_tol`` (which must be positive) or to adjacent floats,
    adding any further values discovered on the way.  A round splits every
    open gap several bisection levels deep at once (``_sub_grid``), so it
    evaluates every parameter bisection would and more.  The result never
    exceeds the exact piece count, and is at least bisection's count where
    sameness is transitive (see the module docstring).
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
    # one evaluation reads every run at its first and its last grid point,
    # once each (a run one index long has one); each change between
    # adjacent read points is a gap to refine, including one inside a run
    # whose head still carries its left neighbour's value
    ends = np.repeat(starts, 2)[1:-1]  # first and last index of each run
    ends[1::2] -= 1
    ts = ends[np.concatenate(([True], ends[1:] != ends[:-1]))] / N
    out, _, key = _eval_at(net, x1, x2, ts)
    changed = np.flatnonzero(~_same_value(key, out, slice(1, None), slice(None, -1)))

    # refinement, all open gaps at once; every gap carries the pattern key
    # and the output of its ends a and b, read when they were first
    # evaluated, so a round evaluates only the interior points of its
    # sub-grid and every parameter gets exactly one value per call
    a, ka, oa = ts[changed], key[changed], out[changed]
    b, kb, ob = ts[changed + 1], key[changed + 1], out[changed + 1]
    changes = 0
    while a.size:
        mid = 0.5 * (a + b)
        done = ~_splittable(a, mid, b, refine_tol)
        if done.any():
            changes += int(np.count_nonzero(done))
            live = ~done
            a, mid, b = a[live], mid[live], b[live]
            ka, oa, kb, ob = ka[live], oa[live], kb[live], ob[live]
            if not a.size:
                break
        grid = _sub_grid(a, mid, b, refine_tol)
        G, m = grid.shape
        gout, _, gkey = _eval_at(net, x1, x2, grid[:, 1:-1].ravel())
        # every point of every gap, point-major, the carried ends first and
        # last; each adjacent pair whose values differ is a new gap, and a
        # gap whose ends differ keeps its last pair when every pair is the
        # same (sameness is not transitive), as bisection keeps (mid, b)
        keys = np.empty((m, G), dtype=key.dtype)
        keys[0], keys[-1] = ka, kb
        keys[1:-1] = gkey.reshape(G, m - 2).T
        outs = np.empty((m, G, oa.shape[1]))
        outs[0], outs[-1] = oa, ob
        outs[1:-1] = gout.reshape(G, m - 2, -1).transpose(1, 0, 2)
        keep = ~_same_value(keys, outs, slice(None, -1), slice(1, None)).T
        keep[:, -1] |= ~keep.any(axis=1)
        keys, outs = keys.T, outs.transpose(1, 0, 2)
        a, b = grid[:, :-1][keep], grid[:, 1:][keep]
        ka, kb = keys[:, :-1][keep], keys[:, 1:][keep]
        oa, ob = outs[:, :-1][keep], outs[:, 1:][keep]
    return changes + 1
