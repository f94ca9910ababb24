"""Sup-norm harness behavior."""

import numpy as np
import pytest

from heavinet import InvalidInputError, ResourceLimitError
from heavinet.analysis import axis_grid, sup_error
from heavinet.builders import piecewise_constant_1d, PieceSpec, square_approximator, xor_network


def test_zero_when_target_equals_network():
    built = piecewise_constant_1d(PieceSpec((0.5,), (1,), (1.0, 2.0)))

    def same(X):
        return np.where(X[:, 0] >= 0.5, 2.0, 1.0)

    res = sup_error(built.net, same, per_axis=997, extra=[0.5])
    assert res.value == 0.0
    assert res.n_points == 999  # 998 uniform points, 0.5 already on the grid


def test_argmax_reported_and_ties_go_low():
    built = piecewise_constant_1d(PieceSpec((), (), (0.0,)))
    res = sup_error(built.net, lambda X: np.ones(len(X)), per_axis=10)
    assert res.value == 1.0
    assert res.argmax[0] == 0.0  # every point ties; the first wins


def test_square_hand_measurement():
    built = square_approximator(2, 1, (0,))
    res = sup_error(built.net, lambda X: X[:, 0] ** 2, per_axis=100_000,
                    extra=[0.0, 0.5, 1.0])
    assert res.value == 0.4375
    assert res.argmax[0] == 1.0


def test_empty_grid_rejected():
    # fewer than one interval per axis is refused, extra points or not
    built = piecewise_constant_1d(PieceSpec((), (), (0.0,)))
    for per_axis in (0, -1, -2):
        with pytest.raises(InvalidInputError, match="at least one interval"):
            axis_grid(1, per_axis)
        with pytest.raises(InvalidInputError, match="at least one interval"):
            sup_error(built.net, lambda X: np.zeros(len(X)), per_axis=per_axis, extra=[0.5])


def test_default_grid_respects_budget():
    axes = axis_grid(3)
    total = len(axes[0]) ** 3
    assert total <= 4_000_000
    assert len(axes[0]) >= 100
    assert len(axis_grid(22)[0]) == 2  # one interval, which the cap then refuses
    with pytest.raises(InvalidInputError):
        axis_grid(1, extra=[1.5])


def test_non_finite_target_refused_at_its_first_grid_point():
    # NaN compares false with every error, so unrefused it would read as no error
    net = square_approximator(3, 2, (2, 0)).net
    for below, above, first in ((np.nan, 0.0, "0.0"), (0.0, np.inf, "0.5"), (0.0, -np.inf, "0.5")):
        with pytest.raises(InvalidInputError, match=rf"not finite at grid point \[{first}\]"):
            sup_error(net, lambda X: np.where(X[:, 0] < 0.5, below, above), per_axis=10)


def test_non_finite_breakpoint_refused():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="extra grid points must be finite"):
            axis_grid(1, 10, [bad])
        with pytest.raises(InvalidInputError, match="extra grid points must be finite"):
            sup_error(xor_network().net, lambda X: np.zeros(len(X)), per_axis=10, extra=[0.5, bad])


def test_grid_over_the_cap_is_a_resource_limit():
    from heavinet.analysis.sup import check_grid_size

    check_grid_size(4_000_000)
    with pytest.raises(ResourceLimitError, match="grid of 4000001 points exceeds the 4000000 cap"):
        check_grid_size(4_000_001)
    with pytest.raises(ResourceLimitError, match="grid of 4004001 points"):
        sup_error(xor_network().net, lambda X: np.zeros(len(X)), per_axis=2000)


def test_grid_rows_are_slices_of_the_last_axis_fastest_grid():
    from heavinet.analysis.sup import grid_rows

    axes = [np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2]), np.linspace(0, 1, 5)]
    whole = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert np.array_equal(grid_rows(axes, 0, 30), whole)
    for lo, hi in [(0, 1), (7, 8), (3, 19), (29, 30), (12, 12)]:
        assert np.array_equal(grid_rows(axes, lo, hi), whole[lo:hi])
