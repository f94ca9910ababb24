"""Sup-norm error measurement on deterministic grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, ResourceLimitError
from ..networks import Network, evaluate_batch

__all__ = ["SupErrorResult", "sup_error", "axis_grid", "grid_rows", "grid_blocks"]

TOTAL_POINT_CAP = 4_000_000
DEFAULT_AXIS_POINTS = 100_000
GRID_CHUNK = TOTAL_POINT_CAP // 16  # grid points enumerated and evaluated at a time


@dataclass(frozen=True)
class SupErrorResult:
    value: float
    argmax: np.ndarray
    n_points: int

    def __float__(self) -> float:
        return self.value


def check_grid_size(total: int) -> None:
    """Refuse a grid of more than ``TOTAL_POINT_CAP`` points."""
    if total > TOTAL_POINT_CAP:
        raise ResourceLimitError(f"grid of {total} points exceeds the {TOTAL_POINT_CAP} cap")


def axis_grid(d: int, per_axis: int | None = None, extra=()) -> list[np.ndarray]:
    """Per-axis coordinates: a uniform grid of ``per_axis`` intervals on
    [0, 1] (endpoints included) plus any declared breakpoints, deduplicated
    and sorted; a breakpoint must be finite and in [0, 1]."""
    if per_axis is None:
        # past 21 axes even two points per axis exceed the cap, which refuses them
        per_axis = max(1, min(DEFAULT_AXIS_POINTS, int(TOTAL_POINT_CAP ** (1.0 / d)) - 1))
    if per_axis < 1:
        raise InvalidInputError(f"a grid needs at least one interval per axis, got {per_axis}")
    base = np.linspace(0.0, 1.0, per_axis + 1)
    extra = np.asarray(list(extra), dtype=float)
    if extra.size:
        if not np.all(np.isfinite(extra)):
            raise InvalidInputError("extra grid points must be finite")
        if np.any((extra < 0) | (extra > 1)):
            raise InvalidInputError("extra grid points must lie in [0, 1]")
        base = np.unique(np.concatenate([base, extra]))
    return [base.copy() for _ in range(d)]


def grid_rows(axes: list[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Rows ``lo..hi-1`` of the tensor grid over ``axes``, enumerated
    last-axis-fastest, as an (hi - lo, d) float array; the whole grid is
    never built."""
    # the rows outlive this call: allocated before the index temporaries,
    # they do not pin the heap above the memory those give back
    rows = np.empty((hi - lo, len(axes)))
    idx = np.unravel_index(np.arange(lo, hi), [len(a) for a in axes])
    for k, (a, i) in enumerate(zip(axes, idx)):
        rows[:, k] = np.asarray(a, dtype=float)[i]
    return rows


def grid_blocks(axes: list[np.ndarray]):
    """Yield the tensor grid over ``axes``, last axis fastest, as
    ``grid_rows`` blocks of ``GRID_CHUNK`` points: the walk that
    ``sup_error`` and the CLI's ``eval --grid`` share.  The caller checks
    the grid's size."""
    total = math.prod(len(a) for a in axes)
    for lo in range(0, total, GRID_CHUNK):
        yield grid_rows(axes, lo, min(lo + GRID_CHUNK, total))


def sup_error(net: Network, f0, per_axis: int | None = None, extra=()) -> SupErrorResult:
    """Max |net - f0| over a tensor grid of the unit cube.

    ``f0`` maps an (n, d) array of points to n values.  The grid is
    ``axis_grid(d, per_axis, extra)``: ``extra`` inserts declared
    breakpoints into every axis.  Ties in the maximum resolve to the lowest
    grid index; the grid is enumerated last-axis-fastest.  A target that is
    not finite at a grid point is refused, naming the first such point.
    """
    axes = axis_grid(net.arch.input_dim, per_axis, extra)
    total = len(axes[0]) ** len(axes)
    check_grid_size(total)

    best_val = -1.0
    best_pt = None
    for block in grid_blocks(axes):
        out = evaluate_batch(net, block)[:, 0]
        target = np.asarray(f0(block), dtype=float).reshape(-1)
        finite = np.isfinite(target)
        if not finite.all():
            raise InvalidInputError(
                f"sup_error: target is not finite at grid point {block[np.argmin(finite)].tolist()}")
        err = np.abs(out - target)
        i = int(np.argmax(err))
        if err[i] > best_val:
            best_val = float(err[i])
            best_pt = block[i].copy()
    return SupErrorResult(best_val, best_pt, total)
