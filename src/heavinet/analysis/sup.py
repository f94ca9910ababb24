"""Sup-norm error measurement on deterministic grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..networks import Network, evaluate_batch

__all__ = ["SupErrorResult", "sup_error", "axis_grid", "grid_rows"]

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


def axis_grid(d: int, per_axis: int | None = None, extra=()) -> list[np.ndarray]:
    """Per-axis coordinates: a uniform grid on [0, 1] (endpoints included)
    plus any declared breakpoints, deduplicated and sorted."""
    if per_axis is None:
        per_axis = min(DEFAULT_AXIS_POINTS, int(TOTAL_POINT_CAP ** (1.0 / d)) - 1)
    base = np.linspace(0.0, 1.0, per_axis + 1)
    extra = np.asarray(list(extra), dtype=float)
    if extra.size:
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


def sup_error(net: Network, f0, per_axis: int | None = None,
              extra=(), axes: list[np.ndarray] | None = None) -> SupErrorResult:
    """Max |net - f0| over a tensor grid of the unit cube.

    ``f0`` maps an (n, d) array of points to n values.  ``extra`` inserts
    declared breakpoints into every axis.  Ties in the maximum resolve to
    the lowest grid index; the grid is enumerated last-axis-fastest.
    """
    d = net.arch.input_dim
    if axes is None:
        axes = axis_grid(d, per_axis, extra)
    if len(axes) != d or any(len(a) == 0 for a in axes):
        raise InvalidInputError("need one non-empty coordinate list per axis")
    total = 1
    for a in axes:
        total *= len(a)
    if total > TOTAL_POINT_CAP:
        raise InvalidInputError(f"grid of {total} points exceeds the {TOTAL_POINT_CAP} cap")

    best_val = -1.0
    best_pt = None
    for lo in range(0, total, GRID_CHUNK):
        block = grid_rows(axes, lo, min(lo + GRID_CHUNK, total))
        out = evaluate_batch(net, block)[:, 0]
        target = np.asarray(f0(block), dtype=float).reshape(-1)
        err = np.abs(out - target)
        i = int(np.argmax(err))
        if err[i] > best_val:
            best_val = float(err[i])
            best_pt = block[i].copy()
    return SupErrorResult(best_val, best_pt, total)
