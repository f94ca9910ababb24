"""Truncated multivariate Taylor polynomials: the reference values the
Hoelder approximator tests compare against."""

from __future__ import annotations

import math

import numpy as np

from heavinet.builders.holder import multi_indices
from heavinet.errors import InvalidInputError

__all__ = ["taylor_reference", "taylor_reference_batch"]


def taylor_reference_batch(deriv, beta: float, X0: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-wise ``sum_alpha D^alpha f0(x0) (x - x0)^alpha / alpha!`` over all
    multi-indices with ``|alpha|_1 < beta``."""
    X0 = np.asarray(X0, dtype=float)
    X = np.asarray(X, dtype=float)
    if X0.shape != X.shape or X0.ndim != 2:
        raise InvalidInputError("X0 and X must be equal-shaped (n, d) arrays")
    d = X0.shape[1]
    total = np.zeros(X0.shape[0])
    for alpha in multi_indices(d, beta):
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        mono = np.ones(X0.shape[0])
        for i, a in enumerate(alpha):
            if a:
                mono = mono * (X[:, i] - X0[:, i]) ** a
        total = total + np.asarray(deriv(alpha, X0), dtype=float).reshape(-1) * mono / fact
    return total


def taylor_reference(deriv, beta: float, x0, x) -> float:
    """Single-point wrapper around :func:`taylor_reference_batch`."""
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(taylor_reference_batch(deriv, beta, x0, x)[0])
