"""Named smooth targets for the Hölder constructions and their sweeps.

Each target holds its value on rows of X, a derivative oracle, the
smoothness beta, the input dimension d, bounds on ``sup |D^alpha f|`` over
the unit cube for every ``|alpha|_1 < beta``, and a smoothness-norm bound.
The CLI's ``--target`` choices are the keys of ``TARGETS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .builders import HolderConfig

__all__ = ["SmoothTarget", "TARGETS"]


@dataclass(frozen=True)
class SmoothTarget:
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[tuple[int, ...], np.ndarray], np.ndarray]
    beta: float
    d: int
    bounds: dict[tuple[int, ...], float]
    norm: float

    def holder_config(self, m: int, n: int, t: int | None = None) -> HolderConfig:
        return HolderConfig(beta=self.beta, d=self.d, m=m, n=n, bounds=self.bounds,
                            deriv=self.deriv, holder_norm_bound=self.norm, t=t)


def _d_square(alpha, X):
    a = alpha[0]
    if a == 0:
        return X[:, 0] ** 2
    if a == 1:
        return 2.0 * X[:, 0]
    return np.zeros(len(X))


def _d_product(alpha, X):
    if alpha == (0, 0):
        return X[:, 0] * X[:, 1]
    if alpha == (1, 0):
        return X[:, 1]
    if alpha == (0, 1):
        return X[:, 0]
    return np.zeros(len(X))


def _d_cubic(alpha, X):
    a = alpha[0]
    x = X[:, 0]
    if a == 0:
        return x ** 3 - x
    if a == 1:
        return 3 * x ** 2 - 1
    if a == 2:
        return 6 * x
    return np.zeros(len(X))


TARGETS: dict[str, SmoothTarget] = {
    "x2": SmoothTarget(lambda X: X[:, 0] ** 2, _d_square, 2.0, 1,
                       {(0,): 1.0, (1,): 2.0}, 5.0),
    "x1x2": SmoothTarget(lambda X: X[:, 0] * X[:, 1], _d_product, 2.0, 2,
                         {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, 5.0),
    "x3mx": SmoothTarget(lambda X: X[:, 0] ** 3 - X[:, 0], _d_cubic, 3.0, 1,
                         {(0,): 1.0, (1,): 2.0, (2,): 6.0}, 15.0),
}
