"""Segment partitions: worked cases, the grid cross-check, reconstruction."""

import math

import numpy as np
import pytest

from heavinet import InvalidInputError, NetworkKind, evaluate_batch
from heavinet.analysis import exact_pieces, piece_bound, pieces, sampled_pieces
from heavinet.analysis.pieces import (
    _flip_indices,
    _grid_values_dense,
    _propagate,
    _root_split,
    _same_value,
)
from heavinet.builders import (
    hyperrectangle_indicator,
    mixed_radix_bit_extractor,
    square_approximator,
    xor_network,
)
from netgen import random_network, random_segment


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

    def counted(net, x1, x2, ts, with_trace=False):
        calls.append(np.array(ts))
        return eval_at(net, x1, x2, ts, with_trace=with_trace)

    monkeypatch.setattr(pieces, "_eval_at", counted)
    net = mixed_radix_bit_extractor((16, 8, 4, 4)).net
    assert sampled_pieces(net, [0.0], [1.0], 1_000_000, refine_tol=1e-9) == 2048
    ts = np.concatenate(calls)
    assert len(calls) == 11
    assert ts.size == 24_566
    assert np.unique(ts).size == ts.size


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
            i, j = rng.integers(0, 30, 200), rng.integers(0, 30, 200)
            assert _same_value(pat, out, i, j).tolist() == \
                [scalar(pat, out, a, b) for a, b in zip(i, j)]
            for si, sj in [(slice(0, 29), slice(1, 30)), (slice(1, None, 3), slice(0, None, 3)),
                           (slice(1, None, 3), slice(2, None, 3))]:
                want = [scalar(pat, out, a, b)
                        for a, b in zip(range(30)[si], range(30)[sj])]
                assert _same_value(pat, out, si, sj).tolist() == want
            assert _same_value(pat, out, 3, 3)


def test_extractor_achieves_bound():
    built = mixed_radix_bit_extractor((2, 2, 2))
    part = exact_pieces(built.net, [0.0], [1.0])
    assert part.piece_count == piece_bound(built.net.arch) == 8


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
    # a plain network's regions are fixed by layer 1 (p_1 + 1 = 3 here); a
    # split that still adds a boundary in layer 2 breaks the counting argument
    net = hyperrectangle_indicator([0.2], [0.8]).net
    assert net.arch.kind is NetworkKind.PLAIN and net.arch.depth == 2
    calls = []

    def split(A, S, cuts):
        calls.append(A)
        cuts, _ = _root_split(A, S, cuts)
        if len(calls) == 2:  # layer 2
            cuts = np.sort(np.append(cuts, 0.5 * (cuts[0] + cuts[1])))
        return cuts, 0.5 * (cuts[:-1] + cuts[1:])

    with pytest.raises(AssertionError, match="after layer 2"):
        _propagate(net, np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0]), split)
    cuts, _ = _propagate(net, np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0]),
                         _root_split)
    assert np.allclose(cuts, [0.0, 0.2, 0.8, 1.0])


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
            pat = trace[-1]
            n_t = len(ts)
            on_bp = set(float(t) for t in part.breakpoints) | set(part.point_values)
            for i, t in enumerate(all_ts[:n_t]):
                expected = part.value_at(float(t))
                assert np.allclose(out[i], expected, rtol=0,
                                   atol=4e-16 * (1 + float(np.max(np.abs(expected)))))
                if float(t) not in on_bp:
                    piece = int(np.searchsorted(part.breakpoints, float(t)))
                    assert _same_value(pat, out, i, n_t + piece), f"t={t}"


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


def test_vector_valued_outputs():
    # partitions work for multi-output networks; values compare row-wise
    from heavinet import Architecture, LayerParams, Network

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
