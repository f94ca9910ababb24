"""NetBuilder: the AND/OR gates, one storage rule per matrix, no tap
matrix without taps, the slot order, and the memory a build peaks at."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from heavinet import InvalidInputError, NetworkKind, evaluate_batch
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


def test_a_carry_is_the_step_neuron_it_abbreviates():
    # forward appends a previous-layer handle directly; its network is the
    # one step({h: 1}, -1/2) builds, and every other handle gets _add's refusal
    docs = []
    for carry in (NetBuilder.forward, lambda nb, h: nb.step({h: 1.0}, bias=-0.5)):
        nb = NetBuilder(2, NetworkKind.LIN)
        nb.new_layer()
        a, b = carry(nb, 1), nb.linear({0: 1.0})
        nb.new_layer()
        c, d = nb.step({b: 1.0}), carry(nb, a)
        nb.new_layer()
        nb.output([{carry(nb, c): 1.0, carry(nb, d): 2.0}], [0.0])
        docs.append(to_document(nb.build()[0]))
    assert docs[0] == docs[1]
    nb = NetBuilder(2, NetworkKind.PLAIN)
    with pytest.raises(InvalidInputError, match="add a layer before adding neurons"):
        nb.forward(0)
    nb.new_layer()
    with pytest.raises(InvalidInputError, match="input coordinate 2 out of range"):
        nb.forward(2)
    a = nb.forward(1)
    nb.new_layer()
    b = nb.forward(a)
    nb.new_layer()
    for handle in (a, b + 1, -1):
        with pytest.raises(InvalidInputError, match="non-adjacent handle"):
            nb.forward(handle)
    assert nb.forward(b) == b + 1


def _gate_outputs(n, handles_of):
    """Outputs (AND, OR) of the gates over ``handles_of(bits)``, where
    ``bits`` are n binary neurons b_i = step(x_i - 1/2), at every point of
    {0, 1}^n; returns the points, the outputs and the gate-stage weights."""
    nb = NetBuilder(n, NetworkKind.PLAIN)
    nb.new_layer()
    bits = [nb.step({i: 1.0}, bias=-0.5) for i in range(n)]
    nb.new_layer()
    both = nb.all_of(handles_of(bits)), nb.any_of(handles_of(bits))
    nb.output([{h: 1.0} for h in both], [0.0, 0.0])
    net = nb.build()[0]
    X = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
    return X, evaluate_batch(net, X), net.layers[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gates_are_and_and_or_over_every_binary_input(n):
    X, Y, stage = _gate_outputs(n, lambda bits: bits)
    assert np.array_equal(Y[:, 0], X.min(axis=1)) and np.array_equal(Y[:, 1], X.max(axis=1))
    assert np.array_equal(stage.W, np.ones((2, n)))
    assert np.array_equal(stage.b, [n - 0.5, 0.5])  # stages compute W h - b


def test_a_repeated_handle_counts_each_time():
    # the square's x * x product: AND of a digit readout with itself
    X, Y, stage = _gate_outputs(1, lambda bits: [bits[0], bits[0]])
    assert np.array_equal(Y, np.hstack([X, X]))
    assert np.array_equal(stage.W, [[2.0], [2.0]]) and np.array_equal(stage.b, [1.5, 0.5])
    X, Y, _ = _gate_outputs(2, lambda bits: [bits[0], bits[1], bits[0]])
    assert np.array_equal(Y[:, 0], X.min(axis=1)) and np.array_equal(Y[:, 1], X.max(axis=1))


def test_gates_over_no_handles_are_constants():
    X, Y, stage = _gate_outputs(1, lambda bits: [])
    assert np.array_equal(Y, np.tile([1.0, 0.0], (len(X), 1)))  # AND always, OR never
    assert np.array_equal(stage.W, np.zeros((2, 1))) and np.array_equal(stage.b, [-0.5, 0.5])


def _grow(nb, depth):
    """``depth`` hidden layers of one step neuron each, the first reading
    x_1; returns their handles."""
    handles = []
    for _ in range(depth):
        nb.new_layer()
        handles.append(nb.step({handles[-1]: 1.0} if handles else {0: 1.0}))
    return handles


PLAIN, SKIP, LIN = NetworkKind.PLAIN, NetworkKind.SKIP, NetworkKind.LIN

# every assembly refusal of NetBuilder: (kind, steps on a 2-input builder, message)
ASSEMBLY_REFUSALS = {
    "neuron before a layer": (PLAIN, lambda nb: nb.step({0: 1.0}),
                              "add a layer before adding neurons"),
    "tap on layer 1": (SKIP, lambda nb: (nb.new_layer(), nb.step({}, inp={0: 1.0})),
                       "first hidden layer reads the input through prev"),
    "input out of range": (PLAIN, lambda nb: (nb.new_layer(), nb.step({2: 1.0})),
                           "input coordinate 2 out of range"),
    "non-adjacent handle": (PLAIN, lambda nb: nb.step({_grow(nb, 3)[0]: 1.0}),
                            "neuron references a non-adjacent handle"),
    "tap on a plain net": (PLAIN, lambda nb: nb.step({_grow(nb, 2)[0]: 1.0}, inp={0: 1.0}),
                           "input taps beyond layer 1 need the skip kind"),
    "tap out of range": (SKIP, lambda nb: nb.step({_grow(nb, 2)[0]: 1.0}, inp={3: 1.0}),
                         "input coordinate 3 out of range"),
    "identity on skip": (SKIP, lambda nb: (nb.new_layer(), nb.linear({0: 1.0})),
                         "identity neurons need the lin kind"),
    "first bad input named": (PLAIN, lambda nb: (nb.new_layer(),
                                                nb.step({1: 1.0, 4: 1.0, -3: 1.0})),
                              "input coordinate 4 out of range"),
    "negative tap": (SKIP, lambda nb: nb.step({_grow(nb, 2)[0]: 1.0}, inp={0: 1.0, -1: 1.0}),
                     "input coordinate -1 out of range"),
    "same-layer handle": (PLAIN, lambda nb: nb.step({_grow(nb, 2)[1]: 1.0}),
                          "neuron references a non-adjacent handle"),
    "unknown handle": (PLAIN, lambda nb: nb.step({_grow(nb, 2)[0]: 1.0, 99: 1.0}),
                       "neuron references a non-adjacent handle"),
    "output lengths": (PLAIN, lambda nb: nb.output([{_grow(nb, 1)[0]: 1.0}], [0.0, 0.0]),
                       "output rows and bias lengths differ"),
    "output not last": (PLAIN, lambda nb: nb.output([{_grow(nb, 2)[0]: 1.0}], [0.0]),
                        "output references a non-last-layer handle"),
    "output unknown": (PLAIN, lambda nb: nb.output([{}, {_grow(nb, 2)[1] + 1: 1.0}], [0.0, 0.0]),
                       "output references a non-last-layer handle"),
    "no output": (PLAIN, lambda nb: (_grow(nb, 1), nb.build()), "output layer not set"),
    "no hidden layer": (PLAIN, lambda nb: (nb.output([{}], [0.0]), nb.build()),
                        "network needs at least one hidden layer"),
    "empty layer": (PLAIN, lambda nb: (_grow(nb, 1), nb.new_layer(), nb.output([{}], [0.0]),
                                       nb.build()),
                    "empty hidden layer"),
    "identity only": (LIN, lambda nb: (nb.new_layer(),
                                       nb.output([{nb.linear({0: 1.0}): 1.0}], [0.0]),
                                       nb.build()),
                      "every hidden layer needs at least one step neuron"),
    "identity last": (LIN, lambda nb: (_grow(nb, 1), nb.linear({0: 1.0}),
                                       nb.output([{}], [0.0]), nb.build()),
                      "last hidden layer of a lin network must be pure step"),
}


@pytest.mark.parametrize("case", ASSEMBLY_REFUSALS)
def test_each_assembly_refusal_names_its_rule(case):
    kind, steps, message = ASSEMBLY_REFUSALS[case]
    with pytest.raises(InvalidInputError) as err:
        steps(NetBuilder(2, kind))
    assert str(err.value) == message


def test_identity_neurons_take_the_slots_after_the_step_neurons():
    # a lin layer adding step and identity neurons in turn: steps keep
    # their order in slots 0..2, identities theirs in 3..4, and position(),
    # the probes and the matrices all read the same slots
    nb = NetBuilder(1, LIN)
    nb.new_layer()
    x = nb.step({0: 1.0}, bias=-0.5)
    nb.new_layer()
    added = [nb.step({x: 1.0}, bias=-1.0), nb.linear({x: 2.0}, bias=-2.0),
             nb.step({x: 3.0}, bias=-3.0), nb.linear({x: 4.0}, bias=-4.0),
             nb.step({x: 5.0}, bias=-5.0)]
    for i, h in enumerate(added):
        nb.tag(f"n{i}", h)
    nb.new_layer()
    top = nb.step({h: 10.0 * (i + 1) for i, h in enumerate(added)})
    nb.output([{top: 1.0}], [0.0])
    net, probes = nb.build()
    slots = [0, 3, 1, 4, 2]
    assert net.arch.widths == (1, 1, 3, 1, 1) and net.arch.lin_count == 2
    assert [nb.position(h) for h in added] == [(1, s) for s in slots]
    assert [probes[f"n{i}"] for i in range(5)] == [(2, s) for s in slots]
    W1, b1, W2 = np.asarray(net.layers[1].W), net.layers[1].b, np.asarray(net.layers[2].W)
    for i, s in enumerate(slots):
        assert W1[s].tolist() == [float(i + 1), 0.0, 0.0]  # x, then two padding rows
        assert b1[s] == float(i + 1)  # stages compute W h - b
        assert W2[0, s] == 10.0 * (i + 1)
    # the first layer's two padding rows: zero weights, and -0.0 bias
    assert np.asarray(net.layers[0].W).tolist() == [[1.0], [0.0], [0.0]]
    assert [math.copysign(1.0, v) for v in net.layers[0].b] == [1.0, -1.0, -1.0]


def test_a_mid_size_build_peaks_under_200_bytes_per_stored_nonzero():
    # the skip decoder at m = 8: 37 887 nonzeros; the build peaks near 100
    # bytes per nonzero, and near 215 when each neuron held its own dicts
    table = _table("skip", 8, 0)
    tracemalloc.start()
    try:
        net = decoder("skip", table).net
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nonzeros = sum(M.count_nonzero() if sp.issparse(M) else np.count_nonzero(M)
                   for layer in net.layers for M in (layer.W, layer.V) if M is not None)
    assert peak <= 200 * nonzeros, (peak, nonzeros)
