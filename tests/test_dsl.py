"""NetBuilder storage: one rule per matrix, and no tap matrix without taps."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from heavinet import NetworkKind
from heavinet.builders import (
    BitTable,
    CellGeometry,
    binary_bit_extractor_lin,
    decoder,
    holder_approximator,
    mixed_radix_bit_extractor,
    shattering_net,
    square_approximator,
)
from heavinet.builders.dsl import NetBuilder
from heavinet.serialize import to_document
from heavinet.targets import TARGETS


def _table(kind, m, n, t=0):
    geom = CellGeometry(kind, 1, m, n, t)
    return BitTable(geom, np.random.default_rng(5).integers(0, 2, geom.sizes))


BUILDS = {
    "skip holder": lambda: holder_approximator("skip", TARGETS["x3mx"].holder_config(2, 2, None)),
    "lin holder": lambda: holder_approximator("lin", TARGETS["x2"].holder_config(2, 1, 1)),
    "skip decoder": lambda: decoder("skip", _table("skip", 8, 0)),
    "lin decoder": lambda: decoder("lin", _table("lin", 9, 1, 0)),
    "slice decoder": lambda: decoder("skip", _table("skip", 8, 1), r_select=2),
    "skip shatter net": lambda: shattering_net(
        "skip", 6, 0, 0, np.random.default_rng(2).integers(0, 2, 2 ** 12))[0],
    "square": lambda: square_approximator(4, 2, (2, 2, 0)),
    "lin bits": lambda: binary_bit_extractor_lin(8, "wide"),
    "radix bits": lambda: mixed_radix_bit_extractor((2, 3, 5)),
}


@pytest.mark.parametrize("case", BUILDS)
def test_each_matrix_is_csr_exactly_when_big_and_empty(case):
    net = BUILDS[case]().net
    for i, layer in enumerate(net.layers):
        for M in (layer.W, layer.V):
            if M is None:
                continue
            entries = M.shape[0] * M.shape[1]
            nonzeros = M.count_nonzero() if sp.issparse(M) else np.count_nonzero(M)
            assert sp.issparse(M) == (entries >= 4096 and 8 * nonzeros <= entries), (i, M.shape)
            assert not sp.issparse(M) or M.format == "csr"
    if case in ("skip holder", "skip decoder", "skip shatter net"):
        assert any(sp.issparse(layer.W) for layer in net.layers)


def _tapped_and_tapless():
    # stage 1 reads x through a tap, stage 2 has none
    nb = NetBuilder(2, NetworkKind.SKIP)
    nb.new_layer()
    a = nb.step({0: 1.0, 1: -1.0})
    nb.new_layer()
    b = nb.step({a: 1.0}, bias=-0.5, inp={1: 2.0})
    nb.new_layer()
    c = nb.forward(b)
    nb.output([{c: 1.0}], [0.0])
    return nb.build()[0]


def test_a_tapless_skip_stage_stores_no_tap_matrix():
    net = _tapped_and_tapless()
    assert net.arch.skip_counts == (1, 0)
    assert [layer.V is not None for layer in net.layers] == [False, True, False, False]
    doc = json.loads(to_document(net))
    assert ["V" in layer for layer in doc["layers"]] == [False, True, False, False]
    for case in ("skip holder", "skip decoder", "skip shatter net"):
        net = BUILDS[case]().net
        taps = (0, *net.arch.skip_counts, 0)
        assert [layer.V is not None for layer in net.layers] == [s > 0 for s in taps], case
