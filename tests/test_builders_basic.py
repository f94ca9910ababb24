"""The small exact constructions against independent oracles."""

import numpy as np
import pytest

from heavinet import InvalidInputError, evaluate, evaluate_batch, validate
from heavinet.builders import (
    PieceSpec,
    hyperrectangle_indicator,
    lipschitz_grid_approx,
    parity_network,
    piecewise_constant_1d,
    xor_network,
)


def test_rect_examples():
    d1 = hyperrectangle_indicator([0.0], [1.0])
    assert evaluate(d1.net, [0.5])[0] == 1.0
    assert evaluate(d1.net, [1.0])[0] == 1.0  # boundary included
    d2 = hyperrectangle_indicator([0.2, 0.2], [0.8, 0.8])
    assert evaluate(d2.net, [0.1, 0.5])[0] == 0.0
    assert d2.net.arch.widths == (2, 4, 1, 1)


def test_rect_matches_oracle_with_boundaries():
    rng = np.random.default_rng(10)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        a = rng.uniform(0, 0.5, d)
        b = a + rng.uniform(0, 0.5, d)
        built = hyperrectangle_indicator(a, b)
        assert validate(built.net) == []
        pts = rng.uniform(-0.2, 1.2, (60, d))
        for i in range(d):  # pin some points onto each face exactly
            pts[2 * i, i] = a[i]
            pts[2 * i + 1, i] = b[i]
        want = np.all((pts >= a) & (pts <= b), axis=1).astype(float)
        got = evaluate_batch(built.net, pts)[:, 0]
        assert np.array_equal(got, want)


def test_rect_rejects_inverted_box():
    with pytest.raises(InvalidInputError):
        hyperrectangle_indicator([0.5], [0.2])
    with pytest.raises(InvalidInputError, match="equal-length"):
        hyperrectangle_indicator([0.1, 0.2], [0.5])


def test_parity_sign_product():
    rng = np.random.default_rng(11)
    for d in range(1, 7):
        built = parity_network(d)
        assert built.net.arch.widths == (d, d, d, 1)
        X = rng.uniform(-1, 1, (50, d))
        want = np.prod(np.where(X >= 0, 1.0, -1.0), axis=1)
        assert np.array_equal(evaluate_batch(built.net, X)[:, 0], want)


def test_xor_truth_table():
    built = xor_network()
    table = {(0.3, -0.2): 1.0, (-0.3, 0.2): 1.0, (0.3, 0.2): 0.0,
             (-0.3, -0.2): 0.0, (0.0, 0.0): 0.0, (0.0, -0.1): 1.0}
    for pt, want in table.items():
        assert evaluate(built.net, pt)[0] == want


def test_pc1d_examples():
    built = piecewise_constant_1d(PieceSpec((0.5,), (1,), (1.0, 2.0)))
    assert [evaluate(built.net, [x])[0] for x in (0.25, 0.5, 0.9)] == [1.0, 2.0, 2.0]
    left = piecewise_constant_1d(PieceSpec((0.5,), (-1,), (1.0, 2.0)))
    assert evaluate(left.net, [0.5])[0] == 1.0
    assert evaluate(left.net, [0.5 + 1e-9])[0] == 2.0
    const = piecewise_constant_1d(PieceSpec((), (), (7.0,)))
    assert evaluate(const.net, [0.123])[0] == 7.0


def test_pc1d_round_trip_dyadic_specs():
    # dyadic breakpoints and values keep the synthesis arithmetic exact,
    # so the network reproduces the spec at breakpoints on both sides
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = int(rng.integers(1, 7))
        bps = tuple(sorted(rng.integers(1, 2**20, p) / 2.0**20))
        sides = tuple(int(s) for s in rng.choice([-1, 1], p))
        vals = tuple(rng.integers(-2**16, 2**16, p + 1) / 2.0**10)
        spec = PieceSpec(bps, sides, vals)
        built = piecewise_constant_1d(spec)
        assert built.net.arch.widths == (1, p, 1)
        xs = list(bps) + [t - 2.0**-30 for t in bps] + [t + 2.0**-30 for t in bps] + [0.0, 1.0]
        for x in xs:
            assert evaluate(built.net, [x])[0] == spec.value_at(x)


def test_pc1d_rejects_unsorted():
    with pytest.raises(InvalidInputError):
        PieceSpec((0.7, 0.3), (1, 1), (0.0, 1.0, 2.0))
    for spec, message in [(((0.5,), (1,), (0.0,)), "p breakpoints"),
                          (((0.5,), (0,), (0.0, 1.0)), "sides"),
                          (((1.5,), (1,), (0.0, 1.0)), r"lie in \[0, 1\]")]:
        with pytest.raises(InvalidInputError, match=message):
            PieceSpec(*spec)


@pytest.mark.parametrize("build, message", [
    (lambda: parity_network(0), "d must be >= 1"),
    (lambda: lipschitz_grid_approx(lambda X: X[:, 0], 1, 0), "p1 must be >= 1"),
    (lambda: lipschitz_grid_approx(lambda X: X[:, 0], 0, 2), "d must be >= 1"),
], ids=["parity-d", "grid-p1", "grid-d"])
def test_size_arguments_refused(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_grid_approx_examples():
    built = lipschitz_grid_approx(lambda X: X[:, 0], 1, 2, lipschitz_const=1.0)
    assert evaluate(built.net, [0.3])[0] == 0.25
    assert evaluate(built.net, [0.8])[0] == 0.75
    assert built.net.arch.widths == (1, 2, 2, 1)
    assert built.guarantee.sup_error_bound == 0.25

    const = lipschitz_grid_approx(lambda X: np.full(len(X), 3.0), 2, 5)
    pts = np.random.default_rng(13).uniform(0, 1, (40, 2))
    assert np.all(evaluate_batch(const.net, pts)[:, 0] == 3.0)


def test_grid_approx_sup_error_within_stated_bound():
    built = lipschitz_grid_approx(lambda X: X[:, 0], 1, 2, lipschitz_const=1.0)
    xs = np.linspace(0, 1, 10001)[:, None]
    err = np.max(np.abs(evaluate_batch(built.net, xs)[:, 0] - xs[:, 0]))
    assert err <= 0.25


def test_grid_approx_stated_architecture():
    built = lipschitz_grid_approx(lambda X: X[:, 0] + X[:, 1], 2, 5)
    assert built.net.arch.widths == (2, 5, 9, 1)  # M = ceil(5/2) = 3, M^d = 9
    assert validate(built.net) == []


def test_built_networks_pass_self_check():
    from heavinet.builders import binary_bit_extractor_lin, mixed_radix_bit_extractor, square_approximator
    for built in [hyperrectangle_indicator([0.1], [0.9]), parity_network(3),
                  xor_network(), piecewise_constant_1d(PieceSpec((0.25,), (1,), (0.0, 1.0))),
                  lipschitz_grid_approx(lambda X: X[:, 0], 2, 4),
                  mixed_radix_bit_extractor((2, 3)), binary_bit_extractor_lin(3),
                  square_approximator(3, 1, (1, 0))]:
        built.check()
