"""Named smooth targets for the Hölder constructions and their sweeps.

Each target states every derivative ``D^alpha f`` with ``|alpha|_1 < beta``
once, keyed by alpha next to its bound on ``sup |D^alpha f|`` over the unit
cube; the zero index is the value f itself.  It also holds the smoothness
beta, the input dimension d and a smoothness-norm bound.  The CLI's
``--target`` choices are the keys of ``TARGETS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .builders import HolderConfig

__all__ = ["SmoothTarget", "TARGETS"]


@dataclass(frozen=True)
class SmoothTarget:
    """``derivs[alpha]`` is ``D^alpha f`` on rows of X and its bound."""

    beta: float
    d: int
    derivs: dict[tuple[int, ...], tuple[Callable[[np.ndarray], np.ndarray], float]]
    norm: float

    @property
    def bounds(self) -> dict[tuple[int, ...], float]:
        return {alpha: bound for alpha, (_, bound) in self.derivs.items()}

    def deriv(self, alpha: tuple[int, ...], X: np.ndarray) -> np.ndarray:
        return self.derivs[alpha][0](X)

    def value(self, X: np.ndarray) -> np.ndarray:
        return self.deriv((0,) * self.d, X)

    def holder_config(self, m: int, n: int, t: int | None = None) -> HolderConfig:
        return HolderConfig(beta=self.beta, d=self.d, m=m, n=n, bounds=self.bounds,
                            deriv=self.deriv, holder_norm_bound=self.norm, t=t)


TARGETS: dict[str, SmoothTarget] = {
    "x2": SmoothTarget(2.0, 1, {(0,): (lambda X: X[:, 0] ** 2, 1.0),
                                (1,): (lambda X: 2.0 * X[:, 0], 2.0)}, 5.0),
    "x1x2": SmoothTarget(2.0, 2, {(0, 0): (lambda X: X[:, 0] * X[:, 1], 1.0),
                                  (1, 0): (lambda X: X[:, 1], 1.0),
                                  (0, 1): (lambda X: X[:, 0], 1.0)}, 5.0),
    "x3mx": SmoothTarget(3.0, 1, {(0,): (lambda X: X[:, 0] ** 3 - X[:, 0], 1.0),
                                  (1,): (lambda X: 3 * X[:, 0] ** 2 - 1, 2.0),
                                  (2,): (lambda X: 6 * X[:, 0], 6.0)}, 15.0),
}
