"""Square-function approximator: closed form, sandwich, architecture."""

import numpy as np
import pytest

from heavinet import (InvalidInputError, PrecisionError, evaluate, evaluate_batch,
                      mixed_radix_digits, validate)
from heavinet.builders import square_approximator
from heavinet.builders.square import square_architecture
from heavinet.radix import radix_products


def test_hand_example():
    built = square_approximator(2, 1, (0,))
    assert evaluate(built.net, [0.3])[0] == 0.0625  # (0 + 1/4)^2
    assert built.guarantee.sup_error_bound == 0.5
    uniform = square_approximator(3, 1, (1, 0))
    assert uniform.net.arch.widths == (1, 1, 2, 3, 1)
    assert uniform.guarantee.sup_error_bound == 0.25  # (s+1)^(1-L) at s=1, L=3


def test_lower_bound_sandwiched_by_measurement():
    # the closed-form error floor for the same architecture sits below the
    # measured error, which sits below the guarantee
    built = square_approximator(3, 1, (1, 0))
    from heavinet.analysis import approx_lower_bound, sup_error
    xs_extra = np.arange(5) / 4
    res = sup_error(built.net, lambda X: X[:, 0] ** 2, per_axis=20_000, extra=xs_extra)
    floor = approx_lower_bound((0.0, 1.0), built.net.arch)
    assert floor <= res.value <= built.guarantee.sup_error_bound


def test_closed_form_against_digit_oracle():
    # power-of-two digit grids evaluate exactly; other radices agree with
    # the closed form up to float rounding of the non-dyadic weights
    for L, p1, skips in [(2, 1, (0,)), (3, 1, (1, 0)), (3, 2, (2, 0)), (4, 1, (1, 1, 0))]:
        built = square_approximator(L, p1, skips)
        assert validate(built.net) == []
        radix = (p1 + 1, *(s + 1 for s in skips[:-1]))
        S = radix_products(radix)[-1]
        dyadic = all(d & (d - 1) == 0 for d in radix)
        xs = np.linspace(0, 1, 501)
        out = evaluate_batch(built.net, xs[:, None])[:, 0]
        for x, y in zip(xs, out):
            xt = mixed_radix_digits(float(x), radix).truncated_value()
            want = (xt + 1 / (2 * S)) ** 2
            if dyadic:
                assert y == want, f"L={L} p1={p1} x={x}"
            else:
                assert abs(y - want) <= 1e-14, f"L={L} p1={p1} x={x}"


def test_stated_width_vector():
    built = square_approximator(4, 2, (1, 3, 0))
    B = 2 + 1 + 3
    assert built.net.arch.widths == (1, 2, 3, 6, B * (B + 1) // 2, 1)
    assert built.net.arch.skip_counts == (1, 3, 0)


def test_sandwich_small():
    built = square_approximator(2, 1, (0,))
    xs = np.concatenate([np.linspace(0, 1, 100001), [0.5]])
    err = np.max(np.abs(evaluate_batch(built.net, xs[:, None])[:, 0] - xs**2))
    assert err == 0.4375
    bound = built.guarantee.sup_error_bound
    assert bound / 2 <= err <= bound


def test_requires_trailing_zero_budget():
    with pytest.raises(InvalidInputError):
        square_approximator(3, 1, (1, 1))
    with pytest.raises(InvalidInputError):
        square_approximator(1, 1, ())


@pytest.mark.parametrize("L, p1, skips", [(2, 2**26, (0,)), (3, 2**13, (2**13, 0))])
def test_squared_digit_grid_past_the_significand_rejected(L, p1, skips):
    # S = 2^26 + 1 and (2^13 + 1)^2: S^2 needs 53 binary digits
    with pytest.raises(PrecisionError, match="53 binary digits"):
        square_approximator(L, p1, skips)


# every square geometry the tests build
GEOMETRIES = sorted({(L, s, (s,) * (L - 2) + (0,)) for L in (2, 3, 4, 5) for s in (1, 2, 3)}
                    | {(2, 1, (0,)), (3, 1, (1, 0)), (3, 2, (2, 0)), (4, 1, (1, 1, 0)),
                       (4, 2, (1, 3, 0)), (4, 2, (2, 2, 0)), (5, 2, (2, 2, 2, 0))})


@pytest.mark.parametrize("L, p1, skips", GEOMETRIES)
def test_stated_architecture_is_the_built_one(L, p1, skips):
    assert square_architecture(L, p1, skips) == square_approximator(L, p1, skips).net.arch


@pytest.mark.parametrize("L, p1, skips", [(3, 1, (1, 1)), (1, 1, ()), (2, 0, (0,)),
                                          (3, 1, (0,)), (3, 1, (-1, 0))])
def test_stated_architecture_refuses_what_the_builder_refuses(L, p1, skips):
    with pytest.raises(InvalidInputError) as stated:
        square_architecture(L, p1, skips)
    with pytest.raises(InvalidInputError) as built:
        square_approximator(L, p1, skips)
    assert str(stated.value) == str(built.value)
