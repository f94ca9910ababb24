"""Quantized Taylor networks: error bounds and the quantization chain."""

import numpy as np
import pytest

from heavinet import InvalidInputError, PrecisionError, evaluate_batch, validate
from heavinet.analysis import sup_error
from heavinet.builders import HolderConfig, holder_approximator, multi_indices
from heavinet.radix import binary_digits_array
from heavinet.targets import TARGETS
from taylor import taylor_reference, taylor_reference_batch


def d_square(alpha, X):
    a = alpha[0]
    if a == 0:
        return X[:, 0] ** 2
    if a == 1:
        return 2.0 * X[:, 0]
    return np.zeros(len(X))


SQUARE_CFG = dict(beta=2.0, d=1, m=1, n=1, bounds={(0,): 1.0, (1,): 2.0},
                  deriv=d_square, holder_norm_bound=5.0)


def test_multi_indices_order():
    assert multi_indices(1, 2.0) == [(0,), (1,)]
    assert multi_indices(2, 2.0) == [(0, 0), (0, 1), (1, 0)]
    assert multi_indices(1, 3.0) == [(0,), (1,), (2,)]
    assert multi_indices(2, 2.5) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_taylor_reference_hand_value():
    val = taylor_reference(d_square, 2.0, [0.5], [0.6])
    assert val == pytest.approx(0.35, abs=1e-15)
    assert abs(0.36 - val) <= 5 * 0.1 ** 2
    assert taylor_reference(d_square, 2.0, [0.3], [0.3]) == pytest.approx(0.09)


def test_taylor_exact_for_linear_targets():
    def d_lin(alpha, X):
        if alpha[0] == 0:
            return 3.0 * X[:, 0] + 1.0
        if alpha[0] == 1:
            return np.full(len(X), 3.0)
        return np.zeros(len(X))
    rng = np.random.default_rng(50)
    x0 = rng.uniform(0, 1, (20, 1))
    x = rng.uniform(0, 1, (20, 1))
    assert np.allclose(taylor_reference_batch(d_lin, 2.0, x0, x),
                       3.0 * x[:, 0] + 1.0, atol=1e-15)


def test_skip_guarantee_value():
    built = holder_approximator("skip", HolderConfig(**SQUARE_CFG))
    assert built.guarantee.sup_error_bound == 2 * 5 * 2.0 ** -6  # 0.15625
    assert validate(built.net) == []


def test_skip_sup_error_within_guarantee():
    built = holder_approximator("skip", HolderConfig(**SQUARE_CFG))
    res = sup_error(built.net, lambda X: X[:, 0] ** 2, per_axis=2000,
                    extra=np.arange(9) / 8)
    assert res.value <= built.guarantee.sup_error_bound


def test_quantization_chain_against_taylor():
    built = holder_approximator("skip", HolderConfig(**SQUARE_CFG))
    q, levels = 6, 3
    rng = np.random.default_rng(51)
    xs = rng.uniform(0, 1, (1000, 1))
    bits = binary_digits_array(xs[:, 0], levels)
    centers = bits @ (0.5 ** np.arange(1, levels + 1)) + 2.0 ** -(levels + 1)
    ref = taylor_reference_batch(d_square, 2.0, centers[:, None], xs)
    out = evaluate_batch(built.net, xs)[:, 0]
    assert np.max(np.abs(out - ref)) <= 2.0 ** -q * 3.0  # sum of bounds = 3


def test_lin_matches_skip_function():
    skip_net = holder_approximator("skip", HolderConfig(**SQUARE_CFG))
    lin_net = holder_approximator("lin", HolderConfig(**{**SQUARE_CFG, "m": 1, "n": 0}, t=1))
    xs = np.random.default_rng(52).uniform(0, 1, (500, 1))
    # same digit budget (3 levels, q=6): the two kinds quantize identically
    assert np.allclose(evaluate_batch(skip_net.net, xs), evaluate_batch(lin_net.net, xs),
                       atol=1e-12)


def test_lin_depth_formula():
    built = holder_approximator("lin", HolderConfig(**{**SQUARE_CFG, "n": 0}, t=1))
    q, R, n_alpha = 6, 2, 2
    assert built.net.arch.depth == q + (2 * R + 2) * n_alpha * q + 2


def test_skip_architecture_budgets():
    import math
    for m, n in [(1, 1), (2, 1)]:
        cfg = HolderConfig(**{**SQUARE_CFG, "m": m, "n": n})
        built = holder_approximator("skip", cfg)
        d, beta = 1, 2.0
        levels = 2 * m + n
        q = math.ceil(beta) * levels
        K, R = 2 ** (m * d), 2 ** (n * d)
        n_alpha = 2
        arch = built.net.arch
        assert arch.depth == q + R + 5
        # layer budget while the decode bank runs, and the product layer cap
        assert max(arch.hidden_widths[:-1]) <= d * q + (6 * K + 5) * n_alpha * q
        assert arch.hidden_widths[-1] <= n_alpha * (q + 1) ** math.ceil(beta)
        assert all(s <= d for s in arch.skip_counts)


def test_lin_architecture_budgets():
    import math
    cfg = HolderConfig(**{**SQUARE_CFG, "n": 0}, t=1)
    built = holder_approximator("lin", cfg)
    d, beta, m, n, t = 1, 2.0, 1, 0, 1
    levels = m + n + 2 * t
    q = math.ceil(beta) * levels
    K = 2 ** (n * d)
    n_alpha = 2
    arch = built.net.arch
    assert max(arch.hidden_widths[:-1]) <= \
        d * q + n_alpha * q + d * levels + max(2 ** (m * d), 3 * K + 1)
    assert arch.hidden_widths[-1] <= n_alpha * (q + 1) ** math.ceil(beta)
    assert arch.lin_count <= max(d, K)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        holder_approximator("lin", HolderConfig(**SQUARE_CFG))  # missing t
    bad = dict(SQUARE_CFG)
    bad["holder_norm_bound"] = 1.0  # below the sum of derivative bounds
    with pytest.raises(InvalidInputError):
        holder_approximator("skip", HolderConfig(**bad))
    with pytest.raises(PrecisionError):
        holder_approximator("skip", HolderConfig(**{**SQUARE_CFG, "m": 10, "n": 9}))
    loose = dict(SQUARE_CFG)
    loose["bounds"] = {(0,): 1.0}  # missing an index
    with pytest.raises(InvalidInputError):
        holder_approximator("skip", HolderConfig(**loose))
    with pytest.raises(InvalidInputError, match="beta must be positive"):
        holder_approximator("skip", HolderConfig(**{**SQUARE_CFG, "beta": 0.0}))
    with pytest.raises(InvalidInputError, match="takes no t"):
        holder_approximator("skip", HolderConfig(**SQUARE_CFG, t=1))
    with pytest.raises(InvalidInputError, match="unknown kind 'plain'"):
        holder_approximator("plain", HolderConfig(**SQUARE_CFG))
    for d, beta in [(0, 2.0), (1, 0.0)]:
        with pytest.raises(InvalidInputError, match="multi indices"):
            multi_indices(d, beta)


def test_oracle_exceeding_bound_rejected():
    cfg = dict(SQUARE_CFG)
    cfg["bounds"] = {(0,): 0.5, (1,): 2.0}  # sup x^2 = 1 > 0.5
    with pytest.raises(InvalidInputError):
        holder_approximator("skip", HolderConfig(**cfg))


def test_constant_target_reproduced_to_quantization():
    c = 0.713
    def d_const(alpha, X):
        return np.full(len(X), c if alpha[0] == 0 else 0.0)
    cfg = HolderConfig(beta=2.0, d=1, m=1, n=1, bounds={(0,): 1.0, (1,): 0.5},
                       deriv=d_const, holder_norm_bound=2.0)
    built = holder_approximator("skip", cfg)
    q = 6
    centers = np.arange(8) / 8 + 1 / 16
    out = evaluate_batch(built.net, centers[:, None])[:, 0]
    assert np.max(np.abs(out - c)) <= 2.0 ** -q * 1.0


@pytest.mark.parametrize("name", TARGETS)
def test_each_target_states_the_derivatives_its_construction_reads(name):
    # one entry per |alpha|_1 < beta: the value is the zero index, and every
    # derivative stays within the bound stated next to it
    target = TARGETS[name]
    assert set(target.bounds) == set(multi_indices(target.d, target.beta))
    X = np.random.default_rng(3).uniform(0, 1, (200, target.d))
    assert np.array_equal(target.value(X), target.deriv((0,) * target.d, X))
    for alpha, bound in target.bounds.items():
        assert np.max(np.abs(target.deriv(alpha, X))) <= bound
