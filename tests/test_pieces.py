"""Segment partitions: worked cases, the grid cross-check, reconstruction."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from heavinet import InvalidInputError, Network, NetworkKind, evaluate, evaluate_batch
from heavinet.analysis import exact_pieces, piece_bound, pieces, sampled_pieces
from heavinet.analysis.bounds import _layer_ceilings
from heavinet.analysis.pieces import (
    _flip_indices,
    _grid_values_dense,
    _pattern_keys,
    _propagate,
    _root_split,
    _same_value,
)
from heavinet.builders import (
    binary_bit_extractor_lin,
    holder_approximator,
    hyperrectangle_indicator,
    mixed_radix_bit_extractor,
    square_approximator,
    xor_network,
)
from heavinet.builders.dsl import NetBuilder
from heavinet.networks import _forward, pattern_stage, step_rows
from heavinet.targets import TARGETS
from netgen import (
    APPROXIMATORS,
    approximator,
    extractors,
    input_free_suffix,
    position_sensitive_networks,
    random_network,
    random_segment,
)

POSITION_SENSITIVE = position_sensitive_networks()


@pytest.mark.parametrize("name", POSITION_SENSITIVE)
def test_exact_pieces_of_a_point_is_its_evaluation(name):
    # a zero-length segment is one piece, read in the traced batch of the
    # general path; its value is the single-point evaluation, bit for bit
    net = POSITION_SENSITIVE[name]
    for x in np.random.default_rng(17).uniform(0, 1, (40, 1)):
        part = exact_pieces(net, x, x)
        assert part.piece_count == 1 and part.breakpoints.size == 0
        assert part.values.tobytes() == evaluate(net, x).tobytes()


def test_square_two_pieces():
    built = square_approximator(2, 1, (0,))
    part = exact_pieces(built.net, [0.0], [1.0])
    assert part.piece_count == 2
    assert np.allclose(part.breakpoints, [0.5])
    assert part.side_flags.tolist() == [1]  # threshold owns the right piece
    assert sampled_pieces(built.net, [0.0], [1.0], 10_000) == 2


def test_rect_diagonal_three_pieces():
    built = hyperrectangle_indicator([0.2, 0.2], [0.8, 0.8])
    part = exact_pieces(built.net, [0, 0], [1, 1])
    assert part.piece_count == 3
    assert np.allclose(part.breakpoints, [0.2, 0.8])
    assert part.side_flags.tolist() == [1, -1]  # boundaries belong to the box
    assert part.values[:, 0].tolist() == [0.0, 1.0, 0.0]


NARROW_WIDTHS = {"1e-11": 1e-11, "1e-12": 1e-12, "2^-45": 2.0**-45, "1e-15": 1e-15}


@pytest.mark.parametrize("w", NARROW_WIDTHS.values(), ids=NARROW_WIDTHS)
def test_narrow_box_keeps_both_cuts(w):
    # a box narrower than any fixed tolerance in t is still its own piece
    net = hyperrectangle_indicator([0.5], [0.5 + w]).net
    part = exact_pieces(net, [0.0], [1.0])
    assert part.piece_count == 3
    assert part.breakpoints.tolist() == [0.5, 0.5 + w]
    assert part.side_flags.tolist() == [1, -1]
    assert part.values[:, 0].tolist() == [0.0, 1.0, 0.0]
    assert part.value_at(0.5 + w / 2).tolist() == evaluate(net, [0.5 + w / 2]).tolist() == [1.0]
    assert sampled_pieces(net, [0.0], [1.0], 1000) == 3


@pytest.mark.parametrize("slope", [3.0, 7.0])
def test_roots_on_adjacent_floats_read_as_evaluation(slope):
    # step(x - 0.1) and step(slope x - slope/10) cross at 0.1 and at the
    # float just below it; that float is a single-point piece of its own
    nb = NetBuilder(1, NetworkKind.PLAIN)
    nb.new_layer()
    lo = nb.step({0: 1.0}, bias=-0.1)
    hi = nb.step({0: slope}, bias=-slope / 10)
    nb.output([{lo: 1.0, hi: 2.0}], [0.0])
    net, _ = nb.build()
    roots = [0.1, float(np.nextafter(0.1, 0.0))]
    assert roots[1] == np.float64(slope / 10) / slope
    part = exact_pieces(net, [0.0], [1.0])
    assert part.piece_count == 3
    assert part.breakpoints.tolist() == [roots[1]] and part.side_flags.tolist() == [0]
    assert part.point_values[roots[1]].tolist() == [2.0]
    _assert_value_at_is_the_evaluation(part, net, [0.0], [1.0], probes=roots, neighbours=True)


@pytest.mark.parametrize("target, kind, m, n, t, pieces", [
    ("x2", "skip", 1, 0, None, 16),
    ("x2", "lin", 1, 0, 1, 64),
    ("x3mx", "skip", 1, 1, None, 512),
])
def test_long_segment_keeps_every_piece(target, kind, m, n, t, pieces):
    # over [0, 10^12] every piece on [0, 1] lies within t < 10^-12
    net = holder_approximator(kind, TARGETS[target].holder_config(m, n, t)).net
    assert exact_pieces(net, [0.0], [1.0]).piece_count == pieces
    part = exact_pieces(net, [0.0], [1e12])
    assert part.piece_count == pieces
    assert sampled_pieces(net, [0.0], [1e12], 10_000) <= part.piece_count
    _assert_value_at_is_the_evaluation(part, net, [0.0], [1e12])


@pytest.mark.parametrize("breakpoints, sides, values, interior, point_values", [
    ((0.0,), (-1,), (1.0, 2.0), 2.0, {0.0: 1.0}),
    ((1.0,), (1,), (1.0, 2.0), 1.0, {1.0: 2.0}),
    ((0.0, 1.0), (-1, 1), (1.0, 2.0, 3.0), 2.0, {0.0: 1.0, 1.0: 3.0}),
])
def test_endpoint_crossings_are_single_point_pieces(breakpoints, sides, values, interior,
                                                    point_values):
    from heavinet.builders import PieceSpec, piecewise_constant_1d

    # a crossing at exactly t = 0 or 1 gives its end a value of its own,
    # stored without a breakpoint entry
    net = piecewise_constant_1d(PieceSpec(breakpoints, sides, values)).net
    part = exact_pieces(net, [0.0], [1.0])
    assert part.piece_count == 1 + len(point_values)
    assert part.breakpoints.size == 0
    assert {t: v.tolist() for t, v in part.point_values.items()} == \
        {t: [v] for t, v in point_values.items()}
    assert part.values.tolist() == [[interior]] and part.value_at(0.5)[0] == interior
    for t, v in point_values.items():
        assert part.value_at(t)[0] == v
    assert sampled_pieces(net, [0.0], [1.0], 1000) == part.piece_count


@pytest.mark.parametrize("t", [-0.5, 1.5, math.inf])
def test_value_at_refuses_a_parameter_outside_the_segment(t):
    part = exact_pieces(xor_network().net, [0.1, -0.1], [-0.1, 0.1])
    with pytest.raises(InvalidInputError, match="outside"):
        part.value_at(t)


def test_degenerate_segment():
    built = xor_network()
    part = exact_pieces(built.net, [0.3, 0.3], [0.3, 0.3])
    assert part.piece_count == 1


def test_xor_origin_single_point_piece():
    built = xor_network()
    part = exact_pieces(built.net, [0.1, -0.1], [-0.1, 0.1])
    assert part.piece_count == 3
    assert part.side_flags.tolist() == [0]
    assert part.point_values[0.5][0] == 0.0
    assert part.value_at(0.5)[0] == 0.0
    assert part.value_at(0.25)[0] == 1.0
    # the grid hits t = 1/2 exactly, so the sampled count agrees
    assert sampled_pieces(built.net, [0.1, -0.1], [-0.1, 0.1], 10_000) == 3


def test_sampled_constant():
    built = hyperrectangle_indicator([0.0], [1.0])
    assert sampled_pieces(built.net, [0.2], [0.8], 1000) == 1


def test_sampled_rejects_tiny_grid():
    built = xor_network()
    with pytest.raises(InvalidInputError):
        sampled_pieces(built.net, [0, 0], [1, 1], 1)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_sampled_rejects_non_positive_refine_tol(tol):
    built = xor_network()
    with pytest.raises(InvalidInputError, match="refine_tol"):
        sampled_pieces(built.net, [0, 0], [1, 1], 100, refine_tol=tol)


def test_sampled_ends_gaps_a_float_cannot_split(monkeypatch):
    # below float spacing a gap's midpoint rounds to an endpoint; the gap
    # ends there as one change instead of repeating forever
    eval_at, calls = pieces._eval_at, []

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) < 200, "bisection does not terminate"
        return eval_at(*args, **kwargs)

    monkeypatch.setattr(pieces, "_eval_at", counted)
    net = mixed_radix_bit_extractor((2, 2)).net
    assert sampled_pieces(net, [0.0], [1.0], 100, refine_tol=1e-20) == 4


def test_sampled_evaluates_each_parameter_once(monkeypatch):
    # every gap carries its ends' values, so a bisection round evaluates
    # only its midpoints and no parameter is evaluated twice in one call
    eval_at, calls = pieces._eval_at, []

    def counted(net, x1, x2, ts):
        calls.append(np.array(ts))
        return eval_at(net, x1, x2, ts)

    monkeypatch.setattr(pieces, "_eval_at", counted)
    net = mixed_radix_bit_extractor((16, 8, 4, 4)).net
    assert sampled_pieces(net, [0.0], [1.0], 1_000_000, refine_tol=1e-9) == 2048
    ts = np.concatenate(calls)
    assert len(calls) == 11
    assert ts.size == 24_566
    assert np.unique(ts).size == ts.size

    # at N = 2 the run of t = 1 is one grid index long: its first and its
    # last index are one parameter, read once
    from heavinet.builders import PieceSpec, piecewise_constant_1d

    calls.clear()
    net = piecewise_constant_1d(PieceSpec((0.55, 0.56, 0.9), (1, 1, 1),
                                          (0.0, 1.0, 0.0, 2.0))).net
    assert sampled_pieces(net, [0.0], [1.0], 2, refine_tol=1e-12) == 4
    assert calls[0].tolist() == [0.0, 0.5, 1.0]
    ts = np.concatenate(calls)
    assert np.unique(ts).size == ts.size
    assert exact_pieces(net, [0.0], [1.0]).piece_count == 4


def test_sampled_refines_many_levels_per_call(monkeypatch):
    # two open gaps of width 1e-6 need ten levels down to 1e-9; a round
    # splits each gap as many levels deep as its point budget allows
    eval_at, calls = pieces._eval_at, []

    def counted(net, x1, x2, ts):
        calls.append(np.array(ts))
        return eval_at(net, x1, x2, ts)

    monkeypatch.setattr(pieces, "_eval_at", counted)
    net = hyperrectangle_indicator([0.3], [0.6]).net
    assert sampled_pieces(net, [0.0], [1.0], 1_000_000, refine_tol=1e-9) == 3
    ts = np.concatenate(calls)
    assert len(calls) <= 3
    assert np.unique(ts).size == ts.size


def test_sampled_finds_a_piece_bisection_misses():
    # on the grid t = 0, 1/2, 1 the gap (1/2, 1) runs from value 0 to 2;
    # its midpoint 3/4 carries 0 like its left end, so bisection drops
    # (1/2, 3/4) and with it the piece [0.55, 0.56) of value 1, counting
    # 2; the sub-grid evaluates points inside that piece
    from heavinet.builders import PieceSpec, piecewise_constant_1d

    net = piecewise_constant_1d(PieceSpec((0.55, 0.56, 0.9), (1, 1, 1),
                                          (0.0, 1.0, 0.0, 2.0))).net
    exact = exact_pieces(net, [0.0], [1.0]).piece_count
    assert exact == 4
    assert sampled_pieces(net, [0.0], [1.0], 2, refine_tol=1e-12) == exact


def test_flip_indices_equal_a_literal_scan():
    # the first k in (lo, hi] whose state A + S*(k/N) >= 0 differs from
    # state(k-1), found by walking the run, or hi+1 if there is none
    def scan(a, s, N, lo, hi):
        for k in range(lo + 1, hi + 1):
            if (a + s * ((k - 1) / N) >= 0.0) != (a + s * (k / N) >= 0.0):
                return k
        return hi + 1

    rng = np.random.default_rng(66)
    for N in (2, 3, 7, 10, 97, 1000):
        n = 400
        S = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-3, 1e3, n)
        # roots anywhere near [0, 1], and roots placed exactly on the grid
        root = rng.uniform(-0.5, 1.5, n)
        on_grid = rng.random(n) < 0.5
        root[on_grid] = rng.integers(-2, N + 3, on_grid.sum()) / N
        A = -S * root
        ends = np.sort(rng.integers(0, N + 1, (n, 2)), axis=1)
        lo, hi = ends[:, 0], ends[:, 1]
        got = _flip_indices(A, S, N, lo, hi)
        want = [scan(a, s, N, int(l), int(h)) for a, s, l, h in zip(A, S, lo, hi)]
        assert got.tolist() == want


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("radix", [(2, 2, 2), (4, 2), (3, 3), (8,), (2, 2, 2, 2)])
def test_sampled_bisection_finds_values_between_grid_points(radix, N):
    # a coarse grid spans several pieces per gap, so bisection meets mids
    # carrying a third value and must keep both halves
    net = mixed_radix_bit_extractor(radix).net
    want = math.prod(radix)
    assert exact_pieces(net, [0.0], [1.0]).piece_count == want
    assert sampled_pieces(net, [0.0], [1.0], N, refine_tol=1e-12) == want


def test_same_value_elementwise_equals_scalar_rule():
    def scalar(pat, out, i, j):
        return np.array_equal(pat[:, i], pat[:, j]) or np.array_equal(out[i], out[j])

    rng = np.random.default_rng(65)
    for kind in NetworkKind:
        net = random_network(kind, rng)
        x1, x2 = random_segment(rng, net.arch.input_dim)
        ts = rng.choice(np.sort(rng.uniform(0, 1, 12)), 30)
        pts = (1 - ts)[:, None] * x1[None, :] + ts[:, None] * x2[None, :]
        out, trace = evaluate_batch(net, pts, with_trace=True)
        cases = [(trace[-1], out)]
        # small integer patterns and outputs: equal outputs under different
        # patterns are common here
        cases.append((rng.integers(0, 2, (2, 30)).astype(float),
                      rng.integers(0, 2, (30, 2)).astype(float)))
        for pat, out in cases:
            key = _pattern_keys(pat)
            i, j = rng.integers(0, 30, 200), rng.integers(0, 30, 200)
            assert _same_value(key, out, i, j).tolist() == \
                [scalar(pat, out, a, b) for a, b in zip(i, j)]
            for si, sj in [(slice(0, 29), slice(1, 30)), (slice(1, None, 3), slice(0, None, 3)),
                           (slice(1, None, 3), slice(2, None, 3))]:
                want = [scalar(pat, out, a, b)
                        for a, b in zip(range(30)[si], range(30)[sj])]
                assert _same_value(key, out, si, sj).tolist() == want
            assert _same_value(key, out, 3, 3)


def test_pattern_keys_equal_exactly_when_rows_do():
    # widths on both sides of every multiple of 8 up to 64: random rows,
    # copies of them, and copies that differ only in their last bit, the
    # one beside the padding of the last byte
    rng = np.random.default_rng(68)
    for width in range(1, 71):
        pat = rng.integers(0, 2, (width, 40)).astype(float)
        pat[:, 20:30] = pat[:, :10]
        pat[:, 30:40] = pat[:, :10]
        pat[-1, 30:40] = 1.0 - pat[-1, :10]
        key = _pattern_keys(pat)
        assert key.shape == (40,)
        i, j = (a.ravel() for a in np.meshgrid(np.arange(40), np.arange(40)))
        want = (pat[:, i] == pat[:, j]).all(axis=0)
        assert (key[i] == key[j]).tolist() == want.tolist()


@pytest.mark.parametrize("points", [1, 2, 33, 255])
def test_pattern_keys_are_the_packbits_bytes(points):
    # the reference packs a transposed bool copy of the pattern; the sizes
    # fall on both sides of SHIFT_PACK_MIN_ENTRIES
    rng = np.random.default_rng(points)
    for width in range(1, 71):
        pat = rng.integers(0, 2, (width, points)).astype(float)
        want = np.packbits(pat.T.astype(bool, order="C"), axis=1)
        key = _pattern_keys(pat)
        assert key.dtype == np.dtype(f"V{want.shape[1]}")
        assert key.tobytes() == want.tobytes()


@pytest.mark.parametrize("x1, x2", [([math.nan], [1.0]), ([0.0], [math.inf]),
                                    ([1e308], [-1e308])])
def test_segment_must_be_finite(x1, x2):
    # refused before propagation: no warning from arithmetic on NaN or
    # infinity, and no partition of an overflowing direction x2 - x1
    net = mixed_radix_bit_extractor((4, 2, 2)).net
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="segment .* must be finite"):
            exact_pieces(net, x1, x2)
        with pytest.raises(InvalidInputError, match="segment .* must be finite"):
            sampled_pieces(net, x1, x2, 100)


def test_deep_lin_pieces_hold_no_full_trace(monkeypatch):
    # a 173-stage lin network: each analysis keeps the last hidden layer of
    # its points, not every layer, so its peak stays well under the bytes
    # of a full float trace of its largest evaluation
    net = holder_approximator("lin", TARGETS["x3mx"].holder_config(1, 0, 1)).net
    rows = sum(net.arch.augmented_widths()[1:-1])
    eval_at, columns = pieces._eval_at, []

    def counted(net, x1, x2, ts):
        columns.append(len(ts))
        return eval_at(net, x1, x2, ts)

    monkeypatch.setattr(pieces, "_eval_at", counted)
    for count in (lambda *a: exact_pieces(*a).piece_count,
                  lambda *a: sampled_pieces(*a, 10**6, 1e-9)):
        columns.clear()
        tracemalloc.start()
        try:
            assert count(net, [0.0], [1.0]) == 512
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * max(columns) * 8 / 2


@pytest.mark.parametrize("family, spec", [
    ("radix", (2, 2, 2)),
    *(("lin", (L, variant)) for L in (1, 3, 6) for variant in ("wide", "narrow")),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
def test_extractor_achieves_bound(family, spec):
    # a lin extractor's identity rows carry x (wide) or the remainder
    # (narrow) from layer to layer
    if family == "radix":
        net, pieces = mixed_radix_bit_extractor(spec).net, math.prod(spec)
    else:
        net, pieces = binary_bit_extractor_lin(*spec).net, 2 ** spec[0]
    part = exact_pieces(net, [0.0], [1.0])
    assert part.breakpoints.tolist() == [k / pieces for k in range(1, pieces)]
    assert (part.side_flags == 1).all() and not part.point_values
    assert part.piece_count == pieces
    if spec[-1] != "wide":  # the wide carrier row lifts the ceiling past 2^L
        assert piece_bound(net.arch) == pieces


@pytest.mark.parametrize("radix, pieces", [((3,) + (2,) * 8, 768),
                                           ((2, 3) + (2,) * 7, 768),
                                           ((5, 5, 5, 5), 625)])
def test_sampled_counts_non_power_of_two_radix(radix, pieces):
    # the grid changes value one index away from some run boundaries here,
    # so a run's head can carry its left neighbour's value
    net = mixed_radix_bit_extractor(radix).net
    N = 1_000_000
    dense = _grid_values_dense(net, [0.0], [1.0], N)
    grid = int(np.sum(np.any(dense[1:] != dense[:-1], axis=1))) + 1
    assert sampled_pieces(net, [0.0], [1.0], N, refine_tol=1e-9) == pieces
    assert exact_pieces(net, [0.0], [1.0]).piece_count == grid == pieces


def test_propagation_checks_layer_ceiling():
    # a skip network tapped at layer 2 still splits there, within
    # (p_1 + 1)(s_2 + 1) = 6 regions; a split that doubles its 4 regions
    # breaks the counting argument
    nb = NetBuilder(1, NetworkKind.SKIP)
    nb.new_layer()
    lo, hi = nb.step({0: 1.0}, bias=-0.2), nb.step({0: -1.0}, bias=0.8)
    nb.new_layer()
    mid = nb.step({lo: 0.0}, bias=-0.5, inp={0: 1.0})
    nb.output([{mid: 1.0}], [0.0])
    net, _ = nb.build()
    assert net.layers[1].V is not None and pattern_stage(net) == 2
    calls = []

    def split(A, S, cuts):
        calls.append(A)
        cuts, _ = _root_split(A, S, cuts)
        if len(calls) == 2:  # layer 2
            cuts = np.sort(np.concatenate([cuts, 0.5 * (cuts[:-1] + cuts[1:])]))
        return cuts, 0.5 * (cuts[:-1] + cuts[1:])

    with pytest.raises(AssertionError, match="after layer 2"):
        _propagate(net, np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0]), split)
    cuts, _ = _propagate(net, np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0]),
                         _root_split)
    assert np.allclose(cuts, [0.0, 0.2, 0.5, 0.8, 1.0])


def _propagate_every_stage(net, x1, x2, bounds, split):
    """The split loop on every hidden stage, as ``_propagate`` ran it before
    it stopped at ``pattern_stage``: the oracle for its cuts, and for the
    last hidden bits that ``_forward`` makes of its hand-off."""
    arch = net.arch
    dx = x2 - x1
    H, Hs = x1[:, None], dx[:, None]
    ceilings = _layer_ceilings(arch)
    for i in range(arch.depth):
        layer = net.layers[i]
        A = np.asarray(layer.W @ H) - np.asarray(layer.b)[:, None]
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


def _assert_hand_off_matches_every_stage(monkeypatch, net, x1, x2, N=1000):
    # both analyses: each _propagate call must give the oracle's cuts byte
    # for byte, split only before the pattern stage, and hand off columns
    # that the later stages take to the oracle's bits byte for byte
    calls = []

    def checked(net, x1, x2, bounds, split):
        splits = []

        def counted(A, S, cuts):
            splits.append(len(A))
            return split(A, S, cuts)

        got = _propagate(net, x1, x2, bounds, counted)
        assert len(splits) == pattern_stage(net)
        want = _propagate_every_stage(net, x1, x2, bounds, split)
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        bits = _forward(net, got[1], None, pattern_stage(net), net.arch.depth)
        assert bits.dtype == want[1].dtype and bits.tobytes() == want[1].tobytes()
        calls.append(len(got[0]))
        return got

    monkeypatch.setattr(pieces, "_propagate", checked)
    exact_pieces(net, x1, x2)
    sampled_pieces(net, x1, x2, N)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", list(NetworkKind))
def test_hand_off_matches_every_stage_on_random_networks(monkeypatch, kind):
    rng, cut = np.random.default_rng(25), np.random.default_rng(26)
    for _ in range(30):
        net = random_network(kind, rng)
        x1, x2 = random_segment(rng, net.arch.input_dim)
        for net in [net, input_free_suffix(net, cut)] if kind is NetworkKind.LIN else [net]:
            _assert_hand_off_matches_every_stage(monkeypatch, net, x1, x2)


@pytest.mark.parametrize("name", [a for a in APPROXIMATORS if a.startswith("holder")])
def test_hand_off_matches_every_stage_on_the_holder_networks(monkeypatch, name):
    net = approximator(name)[0]
    d = net.arch.input_dim
    _assert_hand_off_matches_every_stage(monkeypatch, net, np.zeros(d), np.ones(d))


def test_hand_off_matches_every_stage_on_the_extractors(monkeypatch):
    for net, _ in extractors().values():
        _assert_hand_off_matches_every_stage(monkeypatch, net, np.zeros(1), np.ones(1))


PLANTED = ["holder(x3mx,lin,1,0,1)", "holder(x2,lin,1,1,1)"]


@pytest.mark.parametrize("early", [1, 2, 3])
@pytest.mark.parametrize("name", PLANTED)
def test_planted_early_pattern_stage_is_caught(name, early):
    # a hand-off before the last stage that reads the input leaves the
    # identity rows that stage weighs at their t = 0 intercepts, which the
    # check must see (a skip network is left out: a tap stage past the
    # hand-off would get no input)
    net = approximator(name)[0]
    planted = Network(net.arch, net.layers)
    planted.__dict__["_pattern_stage"] = pattern_stage(net) - early
    with pytest.raises(AssertionError, match="piece propagation disagrees"):
        exact_pieces(planted, [0.05], [0.95])


@pytest.mark.parametrize("name", PLANTED)
def test_planted_dropped_cut_is_caught(monkeypatch, name):
    # one interior cut dropped at the first stage that makes any: the
    # merged region carries one side's state into the other side
    net = approximator(name)[0]
    dropped = []

    def split(A, S, cuts):
        new, ts = _root_split(A, S, cuts)
        if not dropped and len(new) > 2:
            dropped.append(new[len(new) // 2])
            new = np.delete(new, len(new) // 2)
            ts = 0.5 * (new[:-1] + new[1:])
        return new, ts

    monkeypatch.setattr(pieces, "_root_split", split)
    with pytest.raises(AssertionError, match="piece propagation disagrees"):
        exact_pieces(net, [0.05], [0.95])
    assert dropped


def test_only_run_heads_pass_the_pattern_stage(monkeypatch):
    # exact_pieces sends at most regions + 2 columns through the stages
    # from the pattern stage on (one per run of equal hand-off columns),
    # and neither analysis runs them inside _propagate
    net = approximator("holder(x3mx,lin,1,0,1)")[0]
    first = pattern_stage(net)
    forward, propagate = pieces._forward, pieces._propagate
    passed, inside, regions = [], [], []

    def spy(net, h, x, lo, hi, *args):
        assert not inside
        if lo <= first < hi:
            passed.append(h.shape[-1])
        return forward(net, h, x, lo, hi, *args)

    def flagged(*args):
        inside.append(True)
        try:
            cuts, hand = propagate(*args)
        finally:
            inside.pop()
        regions.append(len(cuts) - 1)
        return cuts, hand

    monkeypatch.setattr(pieces, "_forward", spy)
    monkeypatch.setattr(pieces, "_propagate", flagged)
    assert exact_pieces(net, [0.05], [0.95]).piece_count == 462
    assert regions == [462] and 0 < sum(passed) <= regions[0] + 2
    assert sampled_pieces(net, [0.05], [0.95], 10**4) == 462


def test_run_compression_equals_dense_grid():
    # the run-compressed pass must reproduce literal grid evaluation
    rng = np.random.default_rng(60)
    for kind in NetworkKind:
        for _ in range(30):
            net = random_network(kind, rng)
            x1, x2 = random_segment(rng, net.arch.input_dim)
            N = 997
            dense = _grid_values_dense(net, x1, x2, N)
            count = sampled_pieces(net, x1, x2, N, refine_tol=1.0 / N)
            dense_changes = int(np.sum(np.any(dense[1:] != dense[:-1], axis=1)))
            assert count == dense_changes + 1


def test_partition_reconstruction():
    # evaluating at random parameters and around every breakpoint lands on
    # the partition's pieces; structural agreement runs through one traced
    # call since BLAS may round the same dot product differently across
    # calls, and the stored values match to an ulp
    rng = np.random.default_rng(61)
    for kind in NetworkKind:
        for _ in range(40):
            net = random_network(kind, rng)
            x1, x2 = random_segment(rng, net.arch.input_dim)
            part = exact_pieces(net, x1, x2)
            ts = list(rng.uniform(0, 1, 100))
            for t in part.breakpoints:
                ts.extend([float(t), max(0.0, float(t) - 1e-12), min(1.0, float(t) + 1e-12)])
            edges = np.concatenate([[0.0], part.breakpoints, [1.0]])
            reps = [0.5 * (edges[i] + edges[i + 1]) for i in range(len(part.values))]
            all_ts = np.array(ts + reps)
            pts = (1 - all_ts)[:, None] * np.asarray(x1)[None, :] \
                + all_ts[:, None] * np.asarray(x2)[None, :]
            out, trace = evaluate_batch(net, pts, with_trace=True)
            key = _pattern_keys(trace[-1])
            n_t = len(ts)
            on_bp = set(float(t) for t in part.breakpoints) | set(part.point_values)
            for i, t in enumerate(all_ts[:n_t]):
                expected = part.value_at(float(t))
                assert np.allclose(out[i], expected, rtol=0,
                                   atol=4e-16 * (1 + float(np.max(np.abs(expected)))))
                if float(t) not in on_bp:
                    piece = int(np.searchsorted(part.breakpoints, float(t)))
                    assert _same_value(key, out, i, n_t + piece), f"t={t}"


def test_partition_reconstruction_exact_for_dyadic_builders():
    # builder networks evaluate in exact arithmetic, so here agreement is
    # bitwise, breakpoints and both sides included
    built = square_approximator(3, 1, (1, 0))
    part = exact_pieces(built.net, [0.0], [1.0])
    ts = np.concatenate([np.linspace(0, 1, 1001), part.breakpoints,
                         part.breakpoints - 1e-12, part.breakpoints + 1e-12])
    ts = ts[(ts >= 0) & (ts <= 1)]
    out = evaluate_batch(built.net, ts[:, None])
    for t, o in zip(ts, out):
        assert np.array_equal(o, part.value_at(float(t)))


def test_exact_pieces_soundness_randomized():
    rng = np.random.default_rng(62)
    for kind in NetworkKind:
        for _ in range(60):
            net = random_network(kind, rng)
            bound = piece_bound(net.arch)
            x1, x2 = random_segment(rng, net.arch.input_dim)
            part = exact_pieces(net, x1, x2)
            assert part.piece_count <= bound
            assert sampled_pieces(net, x1, x2, 50_000) <= part.piece_count
            _assert_value_at_is_the_evaluation(part, net, x1, x2)


def _assert_value_at_is_the_evaluation(part, net, x1, x2, probes=(), neighbours=False):
    """``part.value_at`` equals evaluation at every piece midpoint and at
    ``probes``; with ``neighbours``, also at every cut float and at the
    float on either side of it.  Evaluation is batched: a point's output
    is the same float in any batch, as in ``evaluate``.

    Off the constructions on [0, 1], the root ``-A / S`` and the
    pre-activation evaluated at x(t) round apart, so a neighbour of a cut
    can land on the other side: only midpoints are checked there."""
    edges = np.concatenate([[0.0], part.breakpoints, [1.0]])
    ts = [0.5 * (edges[:-1] + edges[1:]), np.asarray(probes, dtype=float)]
    if neighbours:
        cuts = np.concatenate([part.breakpoints, list(part.point_values)])
        ts += [cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)]
    ts = np.concatenate(ts)
    ts = ts[(ts >= 0.0) & (ts <= 1.0)]
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    want = evaluate_batch(net, (1 - ts)[:, None] * x1[None, :] + ts[:, None] * x2[None, :])
    got = np.array([part.value_at(t) for t in ts])
    bad = np.flatnonzero(np.any(got != want, axis=1))
    assert bad.size == 0, f"value_at differs from evaluation at t={ts[bad].tolist()[:5]}"


CONSTRUCTIONS = {
    **{name: (lambda name=name: approximator(name)[0]) for name in APPROXIMATORS},
    **{name: (lambda name=name: extractors()[name][0]) for name in extractors()},
    **{f"box({name})": (lambda w=w: hyperrectangle_indicator([0.5], [0.5 + w]).net)
       for name, w in NARROW_WIDTHS.items()},
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_value_at_is_the_evaluation_beside_every_cut(name):
    # the constructions on [0, 1] put every cut exactly where evaluation
    # switches, so the floats on either side of a cut read its two pieces
    net = CONSTRUCTIONS[name]()
    d = net.arch.input_dim
    part = exact_pieces(net, np.zeros(d), np.ones(d))
    _assert_value_at_is_the_evaluation(part, net, np.zeros(d), np.ones(d), neighbours=True)


def test_vector_valued_outputs():
    # partitions work for multi-output networks; values compare row-wise
    from heavinet import Architecture, LayerParams

    rng = np.random.default_rng(63)
    arch = Architecture(NetworkKind.PLAIN, (2, 4, 3, 2))
    ws = arch.augmented_widths()
    net = Network(arch, tuple(
        LayerParams(rng.uniform(-2, 2, (ws[i + 1], ws[i])), rng.uniform(-2, 2, ws[i + 1]))
        for i in range(3)))
    part = exact_pieces(net, [0.1, 0.9], [0.8, 0.2])
    assert part.values.shape[1] == 2
    assert part.piece_count <= piece_bound(arch)
    assert sampled_pieces(net, [0.1, 0.9], [0.8, 0.2], 100_000) == part.piece_count


def test_partition_recovers_synthesized_structure():
    # build a known piecewise-constant function, then ask the partition
    # machinery for its structure back: breakpoints, sides, values, exactly
    from heavinet.builders import PieceSpec, piecewise_constant_1d

    rng = np.random.default_rng(64)
    for _ in range(50):
        p = int(rng.integers(1, 7))
        bps = np.sort(rng.choice(np.arange(1, 2**16), size=p, replace=False)) / 2.0**16
        sides = tuple(int(s) for s in rng.choice([-1, 1], p))
        # distinct dyadic values so no neighboring pieces merge
        vals = rng.choice(np.arange(-2**12, 2**12), size=p + 1, replace=False) / 2.0**6
        spec = PieceSpec(tuple(bps), sides, tuple(vals))
        built = piecewise_constant_1d(spec)
        part = exact_pieces(built.net, [0.0], [1.0])
        assert part.piece_count == p + 1
        assert np.array_equal(part.breakpoints, bps)
        assert tuple(part.side_flags) == sides
        assert np.array_equal(part.values[:, 0], vals)
        assert part.point_values == {}
