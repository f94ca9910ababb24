"""Digit extractors against the exact floor-recursion oracle."""

import numpy as np
import pytest

from heavinet import InvalidInputError, PrecisionError, evaluate, validate
from heavinet import mixed_radix_digits
from heavinet.builders import (
    binary_bit_extractor_lin,
    holder_approximator,
    mixed_radix_bit_extractor,
)
from heavinet.networks import evaluate_batch
from heavinet.targets import TARGETS


def test_mixed_radix_examples():
    built = mixed_radix_bit_extractor((2, 2))
    assert built.read_probes(0.625) == {"d1>=1": 1.0, "d2>=1": 0.0}
    assert built.read_probes(1.0) == {"d1>=1": 1.0, "d2>=1": 1.0}
    b3 = mixed_radix_bit_extractor((3,))
    assert b3.read_probes(0.5) == {"d1>=1": 1.0, "d1>=2": 0.0}


def test_mixed_radix_against_oracle_random_points():
    rng = np.random.default_rng(20)
    for radix in [(2, 2, 2), (3, 5, 7), (10, 10), (2, 3, 4, 5), (7,)]:
        built = mixed_radix_bit_extractor(radix)
        assert validate(built.net) == []
        for x in np.concatenate([rng.uniform(0, 1, 200), [0.0, 1.0]]):
            digits = mixed_radix_digits(float(x), radix).digits
            readout = built.read_probes(float(x))
            for ell, d in enumerate(digits, start=1):
                for t in range(1, radix[ell - 1]):
                    assert readout[f"d{ell}>={t}"] == (1.0 if d >= t else 0.0), \
                        f"radix {radix} x={x} digit {ell} threshold {t}"


def test_mixed_radix_output_is_truncation():
    built = mixed_radix_bit_extractor((2, 2, 2))
    for x in (0.0, 0.1, 0.375, 0.999, 1.0):
        dv = mixed_radix_digits(x, (2, 2, 2))
        assert evaluate(built.net, [x])[0] == dv.truncated_value()


def test_mixed_radix_validation():
    with pytest.raises(InvalidInputError):
        mixed_radix_bit_extractor((1, 2))
    with pytest.raises(PrecisionError):
        mixed_radix_bit_extractor((2,) * 53)


def test_lin_extractors_match_binary_oracle():
    rng = np.random.default_rng(21)
    for variant in ("wide", "narrow"):
        for L in (1, 2, 3, 8):
            built = binary_bit_extractor_lin(L, variant)
            assert validate(built.net) == []
            xs = np.concatenate([rng.uniform(0, 1, 100), [0.0, 1.0],
                                 np.arange(2**L + 1) / 2**L])
            for x in xs:
                digits = mixed_radix_digits(float(x), (2,) * L).digits
                readout = built.read_probes(float(x))
                for ell, d in enumerate(digits, start=1):
                    assert readout[f"b{ell}"] == float(d), f"{variant} L={L} x={x} bit {ell}"


def test_narrow_architecture_is_minimal():
    built = binary_bit_extractor_lin(5, "narrow")
    assert built.net.arch.widths == (1, 1, 1, 1, 1, 1, 1)
    assert built.net.arch.lin_count == 1
    for ell in range(1, 6):
        assert built.probes[f"b{ell}"][0] == ell  # digit ell sits in layer ell


def test_lin_extractor_examples():
    narrow = binary_bit_extractor_lin(3, "narrow")
    assert narrow.read_probes(0.625) == {"b1": 1.0, "b2": 0.0, "b3": 1.0}
    wide = binary_bit_extractor_lin(2, "wide")
    assert wide.read_probes(0.0) == {"b1": 0.0, "b2": 0.0}
    assert binary_bit_extractor_lin(2, "narrow").read_probes(1.0) == {"b1": 1.0, "b2": 1.0}


def test_lin_extractor_rejects_deep():
    with pytest.raises(PrecisionError):
        binary_bit_extractor_lin(53)
    with pytest.raises(InvalidInputError, match="L must be >= 1"):
        binary_bit_extractor_lin(0)
    with pytest.raises(InvalidInputError, match="unknown variant 'tall'"):
        binary_bit_extractor_lin(3, "tall")


def test_extractor_probes_on_dense_grid():
    # dyadic radix: exact probe agreement on a dense grid plus every cell
    # boundary, read as a batch against the vectorized digit oracle
    from heavinet.radix import binary_digits_array

    built = mixed_radix_bit_extractor((2, 2, 2, 2))
    xs = np.unique(np.concatenate([np.linspace(0, 1, 2001), np.arange(17) / 16.0]))
    _, trace = evaluate_batch(built.net, xs[:, None], with_trace=True)
    last = trace[built.net.arch.depth - 1]
    bits = binary_digits_array(xs, 4)
    for ell in range(1, 5):
        _, idx = built.probes[f"d{ell}>=1"]
        assert np.array_equal(last[idx], (bits[:, ell - 1] >= 1).astype(float))


def test_extractor_width_vector():
    # layer l holds one readout per threshold of digits 1..l; the new ones
    # tap the input, so the budget vector is the radix minus one
    radix = (3, 2, 4)
    built = mixed_radix_bit_extractor(radix)
    arch = built.net.arch
    sums = np.cumsum([d - 1 for d in radix])
    assert arch.widths == (1, *map(int, sums), 1)
    assert arch.skip_counts == tuple(d - 1 for d in radix[1:])


@pytest.mark.parametrize("make", [
    lambda: mixed_radix_bit_extractor((3, 2, 4)),
    lambda: mixed_radix_bit_extractor((2,) * 6),
    lambda: binary_bit_extractor_lin(5, "wide"),
    lambda: binary_bit_extractor_lin(5, "narrow"),
    lambda: holder_approximator("skip", TARGETS["x1x2"].holder_config(1, 1, None)),
], ids=["radix(3,2,4)", "radix(2^6)", "lin-wide", "lin-narrow", "holder-x1x2"])
def test_read_probes_is_the_traced_batch_column(make):
    built = make()
    d = built.net.arch.input_dim
    X = np.concatenate([np.random.default_rng(24).uniform(0, 1, (40, d)),
                        np.zeros((1, d)), np.ones((1, d))])
    _, trace = evaluate_batch(built.net, X, with_trace=True)
    assert built.probes
    for k, x in enumerate(X):
        assert built.read_probes(x) == {
            label: float(trace[layer - 1][idx, k])
            for label, (layer, idx) in built.probes.items()}
