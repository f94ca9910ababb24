"""Core network behavior: activation, validation, evaluation, embeddings."""

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from heavinet import (
    Architecture,
    InvalidInputError,
    InvalidNetworkError,
    LayerParams,
    Network,
    NetworkKind,
    embed,
    evaluate,
    evaluate_batch,
    heaviside,
    networks,
    validate,
)
from heavinet.builders import binary_bit_extractor_lin, holder_approximator
from heavinet.networks import _forward, issparse, pattern_stage, step_rows
from heavinet.targets import TARGETS
from netgen import (
    APPROXIMATORS,
    approximator,
    input_free_suffix,
    position_sensitive_networks,
    random_network,
)


def _sparse_holder(target="x2", m=2, n=1):
    return holder_approximator("skip", TARGETS[target].holder_config(m, n, None)).net


def test_heaviside_fires_at_zero():
    assert heaviside(0.0) == 1
    assert heaviside(-0.5) == 0
    assert heaviside(3.7) == 1
    assert heaviside(-0.0) == 1


def test_heaviside_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidInputError):
            heaviside(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_heaviside_matches_sign_test(u):
    assert heaviside(u) == (1 if u >= 0 else 0)


def _single_neuron_net():
    arch = Architecture(NetworkKind.PLAIN, (1, 1, 1))
    layers = (LayerParams(np.array([[1.0]]), np.array([0.0])),
              LayerParams(np.array([[1.0]]), np.array([0.0])))
    return Network(arch, layers)


def test_single_neuron_boundary():
    net = _single_neuron_net()
    assert evaluate(net, [0.0])[0] == 1.0
    assert evaluate(net, [-1e-300])[0] == 0.0
    # a vector is that many points of a one-input network
    assert evaluate_batch(net, np.array([0.0, -1e-300])).tolist() == [[1.0], [0.0]]


def test_evaluate_rejects_bad_input():
    net = _single_neuron_net()
    with pytest.raises(InvalidInputError):
        evaluate(net, [0.0, 1.0])
    with pytest.raises(InvalidInputError):
        evaluate(net, [float("nan")])


@pytest.mark.parametrize("kind", list(NetworkKind))
def test_empty_batch_gives_an_empty_output(kind):
    # square(5,3) evaluates through the run-head suffix past its pattern stage
    rng = np.random.default_rng(23)
    for net in [random_network(kind, rng) for _ in range(10)] + [approximator("square(5,3)")[0]]:
        out = evaluate_batch(net, np.empty((0, net.arch.input_dim)))
        assert out.shape == (0, net.arch.output_dim)


def test_validate_reports_shape_mismatch():
    arch = Architecture(NetworkKind.PLAIN, (1, 2, 1))
    layers = (LayerParams(np.zeros((2, 1)), np.zeros(2)),
              LayerParams(np.zeros((1, 3)), np.zeros(1)))  # W shape wrong
    with pytest.raises(InvalidNetworkError) as err:
        Network(arch, layers)
    assert any("layer 1" in v and "W shape" in v for v in err.value.violations)


def test_validate_reports_skip_budget():
    arch = Architecture(NetworkKind.SKIP, (1, 2, 2, 1), (1,))
    V = np.array([[1.0], [2.0]])  # two nonzero rows against a budget of one
    layers = (LayerParams(np.zeros((2, 1)), np.zeros(2)),
              LayerParams(np.zeros((2, 2)), np.zeros(2), V),
              LayerParams(np.zeros((1, 2)), np.zeros(1)))
    with pytest.raises(InvalidNetworkError) as err:
        Network(arch, layers)
    assert any("skip budget exceeded at layer 2" in v for v in err.value.violations)


@pytest.mark.parametrize("kind, skip_counts, lin_count, violation", [
    (NetworkKind.PLAIN, (1,), 0, "architecture: skip_counts set on a non-skip network"),
    (NetworkKind.LIN, (1,), 0, "architecture: skip_counts set on a non-skip network"),
    (NetworkKind.PLAIN, (), 1, "architecture: lin_count set on a non-lin network"),
    (NetworkKind.SKIP, (0,), 1, "architecture: lin_count set on a non-lin network"),
])
def test_validate_reports_budgets_of_another_kind(kind, skip_counts, lin_count, violation):
    # no document can say this: the reader fills these fields by kind
    arch = Architecture(kind, (1, 2, 2, 1), skip_counts, lin_count)
    layers = (LayerParams(np.zeros((2, 1)), np.zeros(2)),
              LayerParams(np.zeros((2, 2)), np.zeros(2)),
              LayerParams(np.zeros((1, 2)), np.zeros(1)))
    with pytest.raises(InvalidNetworkError) as err:
        Network(arch, layers)
    assert err.value.violations == [violation]


@pytest.mark.parametrize("kind", [NetworkKind.PLAIN, NetworkKind.LIN])
def test_validate_reports_taps_on_a_non_skip_network(kind):
    arch = Architecture(kind, (1, 2, 2, 1))
    layers = (LayerParams(np.zeros((2, 1)), np.zeros(2)),
              LayerParams(np.zeros((2, 2)), np.zeros(2), np.ones((2, 1))),
              LayerParams(np.zeros((1, 2)), np.zeros(1)))
    with pytest.raises(InvalidNetworkError) as err:
        Network(arch, layers)
    assert err.value.violations == [f"layer 1: V present on a {kind.value} network"]


def test_network_without_hidden_layer_cannot_be_made():
    with pytest.raises(InvalidNetworkError) as err:
        Network(Architecture(NetworkKind.PLAIN, (1, 1)), (LayerParams(np.eye(1), np.zeros(1)),))
    assert err.value.violations == ["architecture: depth 0 < 1"]


def test_validate_accepts_random_networks():
    rng = np.random.default_rng(0)
    for kind in NetworkKind:
        for _ in range(20):
            assert validate(random_network(kind, rng)) == []


def test_param_count_formulas():
    plain = Architecture(NetworkKind.PLAIN, (2, 3, 3, 1))
    assert plain.param_count() == (2 + 1) * 3 + (3 + 1) * 3 + (3 + 1) * 1
    skip = Architecture(NetworkKind.SKIP, (2, 3, 3, 1), (2,))
    assert skip.param_count() == plain.param_count() + 2 * 2
    lin = Architecture(NetworkKind.LIN, (2, 3, 3, 1), (), 1)
    # augmented widths (2, 4, 3, 1)
    assert lin.param_count() == (2 + 1) * 4 + (4 + 1) * 3 + (3 + 1) * 1


def test_binarity_of_hidden_activations():
    rng = np.random.default_rng(1)
    for kind in NetworkKind:
        for _ in range(25):
            net = random_network(kind, rng)
            X = rng.uniform(-1, 2, (40, net.arch.input_dim))
            _, trace = evaluate_batch(net, X, with_trace=True)
            L = net.arch.depth
            for ell, h in enumerate(trace, start=1):
                if kind is NetworkKind.LIN and ell < L:
                    p = net.arch.widths[ell]
                    step_part = h[:p]
                else:
                    step_part = h
                assert np.all((step_part == 0.0) | (step_part == 1.0))


def test_embedding_equality_exact():
    rng = np.random.default_rng(2)
    for _ in range(40):
        net = random_network(NetworkKind.PLAIN, rng)
        X = rng.uniform(-1, 2, (50, net.arch.input_dim))
        base = evaluate_batch(net, X)
        for target in (NetworkKind.SKIP, NetworkKind.LIN):
            other = embed(net, target)
            assert validate(other) == []
            assert np.array_equal(base, evaluate_batch(other, X))
    for _ in range(40):
        net = random_network(NetworkKind.SKIP, rng)
        X = rng.uniform(-1, 2, (50, net.arch.input_dim))
        # the same network with its taps stored sparse beside dense weights
        tapped_sparse = Network(net.arch, tuple(
            LayerParams(layer.W, layer.b, None if layer.V is None else sp.csr_matrix(layer.V))
            for layer in net.layers))
        for source in (net, tapped_sparse):
            lifted = embed(source, NetworkKind.LIN)
            assert validate(lifted) == []
            assert not any(issparse(layer.W) for layer in lifted.layers)
            assert np.array_equal(evaluate_batch(net, X), evaluate_batch(lifted, X))


def test_embed_identity_and_unsupported():
    rng = np.random.default_rng(3)
    net = random_network(NetworkKind.PLAIN, rng)
    assert embed(net, NetworkKind.PLAIN) is net
    lin = random_network(NetworkKind.LIN, rng)
    with pytest.raises(InvalidInputError):
        embed(lin, NetworkKind.SKIP)


def test_scale_invariance_of_hidden_rows():
    # multiplying a hidden neuron's incoming row and shift by an exact power
    # of two leaves every float in the evaluation unchanged
    rng = np.random.default_rng(4)
    for kind in NetworkKind:
        for _ in range(20):
            net = random_network(kind, rng)
            X = rng.uniform(-1, 2, (30, net.arch.input_dim))
            base = evaluate_batch(net, X)
            i = int(rng.integers(0, net.arch.depth))
            layer = net.layers[i]
            p_step = net.arch.widths[i + 1]
            row = int(rng.integers(0, p_step))  # scale a step row only
            W = np.array(layer.W, copy=True)
            b = np.array(layer.b, copy=True)
            W[row] *= 4.0
            b[row] *= 4.0
            V = None
            if layer.V is not None:
                V = np.array(layer.V, copy=True)
                V[row] *= 4.0
            layers = list(net.layers)
            layers[i] = LayerParams(W, b, V)
            scaled = Network(net.arch, tuple(layers))
            assert np.array_equal(base, evaluate_batch(scaled, X))


def test_stage_ranges_compose_to_the_whole_pass():
    # stages 0..k then k..L+1 give the whole pass and its trace bit for bit
    rng = np.random.default_rng(6)
    nets = [random_network(kind, rng) for kind in NetworkKind for _ in range(10)]
    nets.append(_sparse_holder())
    for net in nets:
        X = rng.uniform(0, 1, (40, net.arch.input_dim))
        out, trace = evaluate_batch(net, X, with_trace=True)
        cols = X.T
        for k in range(net.arch.depth + 2):
            parts: list = []
            head = _forward(net, cols, cols, 0, k, trace=parts)
            tail = _forward(net, head, cols, k, net.arch.depth + 1, trace=parts)
            assert tail.T.tobytes() == out.tobytes()
            assert [h.tobytes() for h in parts] == [h.tobytes() for h in trace]


@pytest.mark.parametrize("target, m, n", [("x2", 2, 1), ("x3mx", 2, 2)])
def test_sparse_skip_network_embeds_sparse(target, m, n):
    net = _sparse_holder(target, m, n)
    lifted = embed(net, NetworkKind.LIN)
    assert validate(lifted) == []
    assert any(sp.issparse(layer.W) for layer in net.layers)
    for mine, source in zip(lifted.layers, net.layers):
        assert sp.issparse(mine.W) == sp.issparse(source.W)
        assert mine.V is None
    X = np.linspace(0, 1, 20001)[:, None]
    assert evaluate_batch(lifted, X).tobytes() == evaluate_batch(net, X).tobytes()


def test_issparse():
    assert issparse(sp.csr_matrix(np.eye(3)))
    assert not issparse(np.eye(3))
    assert not issparse([[1.0, 0.0], [0.0, 1.0]])


def _subtract_then_compare(net, X):
    """The forward pass written out: every stage subtracts its bias, then
    the step rows compare with 0."""
    h = x = X.T
    for i, layer in enumerate(net.layers):
        z = layer.W @ h
        if layer.V is not None:
            z += layer.V @ x
        z -= layer.b[:, None]
        if i < net.arch.depth:
            p = step_rows(net.arch, i)
            z[:p] = z[:p] >= 0.0
        h = z
    return h.T


def test_step_compare_is_subtract_then_compare():
    # quarter-integer weights on an eighth grid put many pre-activations
    # exactly on their threshold, where z >= b and z - b >= 0 must agree
    rng = np.random.default_rng(8)
    for kind in NetworkKind:
        for _ in range(20):
            net = random_network(kind, rng)
            net = Network(net.arch, tuple(
                LayerParams(np.round(layer.W * 4) / 4, np.round(layer.b * 4) / 4,
                            None if layer.V is None else np.round(layer.V * 4) / 4)
                for layer in net.layers))
            X = rng.integers(-8, 17, (60, net.arch.input_dim)) / 8
            assert evaluate_batch(net, X).tobytes() == _subtract_then_compare(net, X).tobytes()


def _matmul_forward(net, X):
    """The forward pass with every product a matmul, the output stage's
    padded to a multiple of ``OUTPUT_COLUMN_MULTIPLE`` columns as
    ``_forward`` pads its leftover columns."""
    h = x = X.T
    L = net.arch.depth
    for i, layer in enumerate(net.layers):
        b = np.asarray(layer.b)[:, None]
        if i < L:
            z = layer.W @ h
            if layer.V is not None:
                z += layer.V @ x
            p = step_rows(net.arch, i) or len(z)
            z[p:] -= b[p:]
            z[:p] = z[:p] >= b[:p]
        else:
            n = h.shape[1]
            padded = np.zeros((len(h), -(-n // networks.OUTPUT_COLUMN_MULTIPLE)
                               * networks.OUTPUT_COLUMN_MULTIPLE))
            padded[:, :n] = h
            z = (layer.W @ padded)[:, :n] - b
        h = z
    return h.T


def _one_column_cases():
    rng = np.random.default_rng(23)
    X = np.sort(rng.uniform(-1, 2, (500, 1)), axis=0)
    for kind in NetworkKind:
        for k in range(10):
            yield f"{kind.value}{k}", random_network(kind, rng, max_d=1), X
    for name in APPROXIMATORS:
        yield (name, *approximator(name))
    yield "lin(12,narrow)", binary_bit_extractor_lin(12, "narrow").net, \
        np.linspace(0, 1, 4097)[:, None]
    # a broadcast output stage would give -1 * 0 = -0.0 where matmul gives 0.0
    signed = Network(Architecture(NetworkKind.PLAIN, (1, 1, 2)),
                     (LayerParams(np.array([[1.0]]), np.array([0.5])),
                      LayerParams(np.array([[-1.0], [2.0]]), np.zeros(2))))
    yield "signed zero", signed, X


def test_one_column_products_match_matmul():
    # hidden stages with one inner column (stage 0 of a one-input network,
    # a one-column skip tap) multiply by broadcasting; the outputs are the
    # matmul pass's, byte for byte, and so is an output stage of one column
    seen = set()
    for name, net, X in _one_column_cases():
        for i, layer in enumerate(net.layers):
            seen.update((i == net.arch.depth, M.shape[1])
                        for M in (layer.W, layer.V) if M is not None)
        for points in (X, X[::-1]):
            assert evaluate_batch(net, points).tobytes() == \
                _matmul_forward(net, points).tobytes(), name
    assert {(False, 1), (True, 1)} <= seen  # hidden and output stages of one column


# batch independence: a point's output is one float whatever the batch,
# the block or the column that evaluates it (run again in CI with two
# BLAS threads, selected by "batch_independent")

POSITION_SENSITIVE = position_sensitive_networks()


def _blocks_of(monkeypatch, columns: int):
    monkeypatch.setattr(networks, "BLOCK_FLOATS", 0)
    monkeypatch.setattr(networks, "BLOCK_MIN_COLUMNS", columns)


@pytest.mark.parametrize("name", POSITION_SENSITIVE)
def test_batch_independent_single_point_rows(name):
    net = POSITION_SENSITIVE[name]
    X = np.random.default_rng(15).uniform(0, 1, (3000, 1))
    single = np.array([evaluate(net, x) for x in X])
    assert single.tobytes() == evaluate_batch(net, X).tobytes()


@pytest.mark.parametrize("name", POSITION_SENSITIVE)
def test_batch_independent_blocks(monkeypatch, name):
    net = POSITION_SENSITIVE[name]
    X = np.random.default_rng(16).uniform(0, 1, (3000, 1))
    digests = {hashlib.sha256(evaluate_batch(net, X).tobytes()).hexdigest()}
    for columns in (1, 3, 8, 333):
        _blocks_of(monkeypatch, columns)
        digests.add(hashlib.sha256(evaluate_batch(net, X).tobytes()).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("columns", [None, 8192])
def test_batch_independent_literal_grid_count(monkeypatch, columns):
    # the last block of either size ends in leftover columns, which an
    # unpadded output stage rounds otherwise: it read 626 at both
    if columns is not None:
        _blocks_of(monkeypatch, columns)
    t = np.arange(1_000_001) / 1_000_000
    y = evaluate_batch(POSITION_SENSITIVE["radix(5,5,5,5)"], t[:, None])[:, 0]
    assert np.count_nonzero(y[1:] != y[:-1]) + 1 == 625


# run heads: past pattern_stage a point's output depends only on its step
# pattern, so evaluate_batch evaluates the suffix once per run of equal
# patterns (run again in CI with two BLAS threads, selected by "dedup")

def _one_pass(net, X, floats=2**22):
    """Every stage on every point, without run heads, in chunks of at most
    ``floats`` over the widest stage (a single block unless the network is
    wide; the padded output stage makes chunking exact)."""
    cols = X.T
    step = max(1, floats // max(net.arch.augmented_widths()))
    return np.concatenate([_forward(net, part, part, 0, net.arch.depth + 1).T
                           for part in np.split(cols, range(step, cols.shape[1], step), axis=1)])


def test_pattern_stage_of_each_kind():
    rng = np.random.default_rng(20)
    for _ in range(30):
        plain = random_network(NetworkKind.PLAIN, rng)
        assert pattern_stage(plain) == 1
        assert pattern_stage(embed(plain, NetworkKind.SKIP)) == 1
        assert pattern_stage(embed(plain, NetworkKind.LIN)) == 1  # no identity neuron
        skip = random_network(NetworkKind.SKIP, rng)
        taps = [i for i, layer in enumerate(skip.layers) if layer.V is not None]
        assert pattern_stage(skip) == max(taps, default=0) + 1
        # the carriers pass x on through stage L - 2, so stage L - 1 reads
        # it exactly when the skip network taps there
        lifted = embed(skip, NetworkKind.LIN)
        L = lifted.arch.depth
        want = 1 if L == 1 else L if skip.layers[L - 1].V is not None else max(L - 1, 1)
        assert pattern_stage(lifted) == want
    assert pattern_stage(approximator("square(5,3)")[0]) == 4  # the product layer reads no tap
    # only the digit extractor's carriers hold x; the lin decoder's identity
    # accumulators sum step bits
    assert pattern_stage(approximator("holder(x2,lin,1,0,1)")[0]) == 6


@pytest.mark.parametrize("name", APPROXIMATORS)
def test_dedup_matches_one_pass_on_the_approximator_grids(name):
    net, X = approximator(name)
    assert evaluate_batch(net, X).tobytes() == _one_pass(net, X).tobytes()


@pytest.mark.parametrize("kind", list(NetworkKind))
@pytest.mark.parametrize("columns", [None, 1, 3, 8])
def test_dedup_matches_one_pass_on_random_networks(monkeypatch, kind, columns):
    # sorted points make long runs, shuffled ones short runs, repeated
    # points runs that cross block boundaries
    if columns is not None:
        _blocks_of(monkeypatch, columns)
    # a lin network also runs with an input-free suffix, whose pattern
    # stage comes before its last hidden layer (cut from its own stream)
    rng, cut = np.random.default_rng(21), np.random.default_rng(24)
    for _ in range(25):
        net = random_network(kind, rng)
        X = rng.uniform(-1, 2, (300, net.arch.input_dim))
        ordered = X[np.lexsort(X.T[::-1])]
        sets = (ordered, rng.permutation(X), np.repeat(ordered[:40], 9, axis=0))
        for net in [net, input_free_suffix(net, cut)] if kind is NetworkKind.LIN else [net]:
            for points in sets:
                assert evaluate_batch(net, points).tobytes() == _one_pass(net, points).tobytes()


@pytest.mark.parametrize("name", POSITION_SENSITIVE)
@pytest.mark.parametrize("columns", [1, 3, 8, 333])
def test_dedup_matches_one_pass_at_every_block_size(monkeypatch, name, columns):
    net = POSITION_SENSITIVE[name]
    X = np.sort(np.random.default_rng(22).uniform(0, 1, (3000, 1)), axis=0)
    want = _one_pass(net, X).tobytes()
    _blocks_of(monkeypatch, columns)
    assert evaluate_batch(net, X).tobytes() == want
    assert evaluate_batch(net, X[::-1]).tobytes() == _one_pass(net, X[::-1]).tobytes()


def test_dedup_suffix_sees_run_heads_only(monkeypatch):
    net = approximator("square(5,3)")[0]
    X = np.linspace(0, 1, 100_001)[:, None]
    first = pattern_stage(net)
    seen = {0: 0, first: 0}
    forward = networks._forward

    def spy(net, h, x, lo, hi, **kwargs):
        seen[lo] += h.shape[-1]
        return forward(net, h, x, lo, hi, **kwargs)

    monkeypatch.setattr(networks, "_forward", spy)
    evaluate_batch(net, X)
    assert seen[0] == 100_001 and 0 < seen[first] <= 256


def test_dedup_peak_memory_is_no_higher_than_every_stage_on_every_point():
    # the reference runs every stage on every point in blocks of
    # BLOCK_FLOATS over the widest stage and stacks the blocks' outputs
    net = approximator("square(5,3)")[0]
    X = np.linspace(0, 1, 100_001)[:, None]
    peaks = []
    for run in (evaluate_batch, lambda net, X: _one_pass(net, X, networks.BLOCK_FLOATS)):
        tracemalloc.start()
        run(net, X)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1]
