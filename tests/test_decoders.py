"""Decoder networks: index maps, stored-bit recovery, stacking."""

import numpy as np
import pytest

from heavinet import InvalidInputError, PrecisionError, evaluate, evaluate_batch, validate
from heavinet.builders import (
    BitTable,
    CellGeometry,
    decoder,
    mixed_radix_bit_extractor,
    parity_network,
    stack_on_hidden,
    xor_network,
)
from heavinet.radix import binary_digits


def test_geometry_sizes_and_groups():
    skip = CellGeometry("skip", 2, 1, 2)
    assert skip.sizes == (4, 4, 16)
    assert skip.levels == 4
    lin = CellGeometry("lin", 1, 1, 0, 1)
    assert lin.sizes == (4, 1, 2)
    assert lin.levels == 3
    with pytest.raises(InvalidInputError):
        CellGeometry("skip", 1, 1, 1, t=2)


@pytest.mark.parametrize("kind", ["skip", "lin"])
def test_geometry_without_levels_has_no_decoder(kind):
    from heavinet.builders import holder_approximator
    from heavinet.targets import TARGETS

    geom = CellGeometry(kind, 1, 0, 0)  # the one-point shattering geometry
    assert geom.levels == 0
    with pytest.raises(InvalidInputError, match="no digit levels"):
        BitTable(geom, np.ones((1, 1, 1), dtype=int))
    config = TARGETS["x2"].holder_config(0, 0, 0 if kind == "lin" else None)
    with pytest.raises(InvalidInputError, match="no digit levels"):
        holder_approximator(kind, config)


def test_index_map_round_trip():
    geom = CellGeometry("skip", 2, 1, 2)
    for j, k, r in geom.all_cells():
        bits = geom.cell_bits(j, k, r)
        assert geom.index_of_bits(bits) == (j, k, r)
        center = geom.cell_center(j, k, r)
        redug = np.array([binary_digits(c, geom.levels).digits for c in center])
        assert geom.index_of_bits(redug) == (j, k, r)


def test_skip_decoder_hand_example():
    geom = CellGeometry("skip", 1, 1, 1)
    payload = np.zeros(geom.sizes, dtype=int)
    payload[0, 0, 0] = 1
    g = decoder("skip", BitTable(geom, payload))
    # x=0.1 has digits (0,0,0) -> cell (1,1,1); x=0.6 has digits (1,0,0)
    assert evaluate(g.net, [0, 0, 0])[0] >= 0
    assert evaluate(g.net, [1, 0, 0])[0] < 0


def test_all_ones_payload_fires_everywhere():
    geom = CellGeometry("skip", 1, 1, 1)
    g = decoder("skip", BitTable(geom, np.ones(geom.sizes, dtype=int)))
    for cell in geom.all_cells():
        assert evaluate(g.net, geom.cell_bits(*cell).ravel())[0] >= 0


@pytest.mark.parametrize("m, n, widths, skip_counts", [
    (1, 1, (3, 5, 10, 8, 4, 2, 1), (5, 0, 0, 0)),
    (2, 1, (5, 9, 18, 14, 6, 2, 1), (9, 0, 0, 0)),
    (1, 2, (4, 5, 10, 13, 14, 10, 5, 2, 1), (5, 5, 5, 0, 0, 0)),
])
def test_skip_decoder_architecture(m, n, widths, skip_counts):
    # later slices read the digits through skip taps, not forwarded copies
    geom = CellGeometry("skip", 1, m, n)
    arch = decoder("skip", BitTable(geom, np.ones(geom.sizes, dtype=int))).net.arch
    assert arch.widths == widths
    assert arch.skip_counts == skip_counts


def _decode_all_cells(built, table, thresholded):
    geom = table.geometry
    bad = []
    for cell in geom.all_cells():
        out = evaluate(built.net, geom.cell_bits(*cell).ravel())[0]
        got = (1 if out >= 0 else 0) if thresholded else out
        if got != table.payload[cell[0] - 1, cell[1] - 1, cell[2] - 1]:
            bad.append(cell)
    return bad


@pytest.mark.parametrize("kind,m,n,t", [("skip", 1, 1, 0), ("skip", 2, 1, 0),
                                        ("skip", 1, 2, 0), ("lin", 1, 0, 1),
                                        ("lin", 1, 1, 1)])
def test_decoder_random_payloads(kind, m, n, t):
    rng = np.random.default_rng(30)
    geom = CellGeometry(kind, 1, m, n, t)
    for _ in range(10):
        table = BitTable(geom, rng.integers(0, 2, geom.sizes))
        built = decoder(kind, table)
        assert validate(built.net) == []
        assert _decode_all_cells(built, table, thresholded=(kind == "skip")) == []


def test_skip_decoder_budgets():
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        geom = CellGeometry("skip", 1, m, n)
        J, K, R = geom.sizes
        table = BitTable(geom, np.ones(geom.sizes, dtype=int))
        built = decoder("skip", table)
        arch = built.net.arch
        assert arch.depth == R + 3
        assert max(arch.hidden_widths) <= 6 * K + 5
        assert all(s <= 2 * K + 1 for s in arch.skip_counts)


def test_lin_decoder_budgets():
    for m, n, t in [(1, 0, 1), (1, 1, 1), (2, 1, 1)]:
        geom = CellGeometry("lin", 1, m, n, t)
        J, K, R = geom.sizes
        d, lev = 1, geom.levels
        table = BitTable(geom, np.ones(geom.sizes, dtype=int))
        built = decoder("lin", table)
        arch = built.net.arch
        assert arch.depth == 2 * R + 2
        assert max(arch.hidden_widths) <= d * lev + max(2 ** (m * d), 3 * K + 1)
        assert arch.lin_count <= K


def test_r_select_slice():
    rng = np.random.default_rng(31)
    geom = CellGeometry("skip", 1, 1, 1)
    table = BitTable(geom, rng.integers(0, 2, geom.sizes))
    for r_sel in (1, 2):
        g = decoder("skip", table, r_select=r_sel)
        assert g.net.arch.kind.value == "plain"
        assert g.net.arch.depth == 3
        assert max(g.net.arch.hidden_widths) <= 2 * geom.sizes[1] + 1
        for j, k, r in geom.all_cells():
            out = evaluate(g.net, geom.cell_bits(j, k, r).ravel())[0]
            want = int(table.payload[j - 1, k - 1, r_sel - 1]) * (1 if r == r_sel else 0)
            assert (1 if out >= 0 else 0) == want


def test_payload_mismatch_rejected():
    geom = CellGeometry("skip", 1, 1, 1)
    with pytest.raises(InvalidInputError):
        BitTable(geom, np.ones((2, 2, 3), dtype=int))
    with pytest.raises(InvalidInputError):
        BitTable(geom, 2 * np.ones(geom.sizes, dtype=int))
    lin_geom = CellGeometry("lin", 1, 1, 0, 1)
    with pytest.raises(InvalidInputError):
        decoder("skip", BitTable(lin_geom, np.zeros(lin_geom.sizes, dtype=int)))


@pytest.mark.parametrize("kind, r_select, message", [
    ("skip", 0, "r_select=0 outside 1..2"),
    ("skip", 3, "r_select=3 outside 1..2"),
    ("lin", 1, "r_select applies to the skip family only"),
])
def test_r_select_out_of_range_or_on_lin_is_refused(kind, r_select, message):
    geom = CellGeometry(kind, 1, 1, 1, 0) if kind == "skip" else CellGeometry(kind, 1, 1, 0, 1)
    table = BitTable(geom, np.zeros(geom.sizes, dtype=int))
    with pytest.raises(InvalidInputError) as err:
        decoder(kind, table, r_select)
    assert str(err.value) == message


def test_lin_packing_past_the_significand_rejected():
    # R = 2^6 = 64 stored bits cannot pack into one float64 column
    geom = CellGeometry("lin", 1, 0, 0, 6)
    with pytest.raises(PrecisionError):
        decoder("lin", BitTable(geom, np.zeros(geom.sizes, dtype=int)))


def test_stack_extractor_with_decoder():
    # end to end: raw x -> digits -> stored bit, against the index oracle
    rng = np.random.default_rng(32)
    geom = CellGeometry("skip", 1, 1, 1)
    table = BitTable(geom, rng.integers(0, 2, geom.sizes))
    front = mixed_radix_bit_extractor((2, 2, 2))
    back = decoder("skip", table)
    combo = stack_on_hidden(front, back)
    assert validate(combo.net) == []
    assert combo.net.arch.depth == front.net.arch.depth + back.net.arch.depth
    xs = np.concatenate([rng.uniform(0, 1, 1000),
                         [geom.cell_center(*c)[0] for c in geom.all_cells()]])
    out = evaluate_batch(combo.net, xs[:, None])[:, 0]
    for x, o in zip(xs, out):
        bits = np.array(binary_digits(float(x), 3).digits).reshape(1, 3)
        want = table.lookup_bits(bits)
        assert (1 if o >= 0 else 0) == want, f"x={x}"


def test_stack_error_cases():
    front = parity_network(2)      # last hidden width 2
    back = xor_network()           # input dim 2: compatible
    combo = stack_on_hidden(front, back)
    assert combo.net.arch.depth == 4
    mismatched = parity_network(3)  # last hidden width 3
    with pytest.raises(InvalidInputError):
        stack_on_hidden(mismatched, back)
    from heavinet.builders import binary_bit_extractor_lin
    with pytest.raises(InvalidInputError):
        stack_on_hidden(front, binary_bit_extractor_lin(2))


def test_stack_pass_through_identity():
    # two single-layer forwarders compose into a two-layer forwarder whose
    # probes land where the handles say
    from heavinet import NetworkKind
    from heavinet.builders.built import BuiltNetwork, Construction
    from heavinet.builders.dsl import NetBuilder

    def forwarder():
        nb = NetBuilder(1, NetworkKind.PLAIN)
        nb.new_layer()
        h = nb.tag("carry", nb.forward(0))
        nb.output([{h: 1.0}], [0.0])
        net, probes = nb.build()
        return BuiltNetwork(net, None, probes, Construction("forwarder", {}))

    combo = stack_on_hidden(forwarder(), forwarder())
    assert combo.net.arch.depth == 2
    assert combo.probes["front.carry"] == (1, 0)
    assert combo.probes["back.carry"] == (2, 0)
    for x in (0.2, 0.9, -0.1):  # first layer thresholds at 1/2, rest forwards
        assert evaluate(combo.net, [x])[0] == (1.0 if x >= 0.5 else 0.0)
