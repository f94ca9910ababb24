"""Closed-form calculators: piece-count ceilings, capacity upper bounds,
and the matching approximation-error floor.  Each raises
``InvalidInputError`` on an architecture that ``validate`` rejects."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from ..errors import InvalidInputError
from ..networks import Architecture, NetworkKind, arch_violations

__all__ = ["piece_bound", "approx_lower_bound", "vc_upper_bound", "BoundReport", "bound_report"]

# The CLI refuses architectures past these before making one: a lin piece
# bound at both caps has about 60 000 digits and prints in a fraction of a
# second.
MAX_DEPTH = 10_000
MAX_WIDTH = 1_000_000


def _check(arch: Architecture) -> None:
    violations = arch_violations(arch)
    if violations:
        raise InvalidInputError(f"invalid {violations[0]}")


def _ceiling_factors(arch: Architecture) -> list[int]:
    """The factor by which each hidden layer l = 1..L of a valid
    architecture can multiply the regions of a segment restriction: plain
    p_1 + 1, then 1; skip p_1 + 1, then s_l + 1; lin p_l + 1 over the step
    widths.  A plain network is a skip network without taps."""
    hidden = arch.hidden_widths
    if arch.kind is NetworkKind.LIN:
        return [p + 1 for p in hidden]
    taps = arch.skip_counts if arch.kind is NetworkKind.SKIP else (0,) * (arch.depth - 1)
    return [hidden[0] + 1, *(s + 1 for s in taps)]


def _layer_ceilings(arch: Architecture) -> list[int]:
    """Most regions a segment restriction can have after each hidden layer:
    the running products of ``_ceiling_factors``."""
    return list(accumulate(_ceiling_factors(arch), operator.mul))


def piece_bound(arch: Architecture) -> int:
    """Most pieces any segment restriction of this architecture can have:
    the ceiling after its last hidden layer, the product of every factor
    of ``_ceiling_factors`` (no ceiling before it is kept)."""
    _check(arch)
    return math.prod(_ceiling_factors(arch))


def approx_lower_bound(value_range: tuple[float, float], arch: Architecture) -> float:
    """Sup-norm error floor for approximating any continuous target whose
    values span ``value_range``: (sup - inf) / (2 * piece bound), divided
    exactly, so a piece bound past the float range gives 0.0, not an
    overflow."""
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidInputError("value range must be finite and satisfy sup >= inf")
    return float((Fraction(hi) - Fraction(lo)) / (2 * piece_bound(arch)))


def _rectangular(arch: Architecture) -> tuple[int, int, int] | None:
    """(L, p, s) when every hidden layer has equal width (and skip budget)."""
    hidden = arch.hidden_widths
    if len(set(hidden)) != 1:
        return None
    p = hidden[0]
    if arch.kind is NetworkKind.SKIP:
        if arch.skip_counts and len(set(arch.skip_counts)) != 1:
            return None
        s = arch.skip_counts[0] if arch.skip_counts else 0
    elif arch.kind is NetworkKind.LIN:
        s = arch.lin_count
    else:
        s = 0
    return arch.depth, p, s


def vc_upper_bound(arch: Architecture) -> float | None:
    """Closed-form capacity ceiling for rectangular architectures.

    skip (and plain, a skip network with empty taps):
    ``30 L p^2 log2(L p)``; lin: ``30 max(L^2 p s, L p^2) log2(L p)``.
    Requires width p >= max(input dim, augmentation, 2); returns None when
    the formula's precondition is unmet, never a fabricated number.
    """
    _check(arch)
    rect = _rectangular(arch)
    if rect is None:
        return None
    L, p, s = rect
    if p < max(arch.input_dim, s, 2):
        return None
    if arch.kind is NetworkKind.LIN:
        lead = max(L * L * p * s, L * p * p)
    else:
        lead = L * p * p
    return 30.0 * lead * math.log2(L * p)


@dataclass(frozen=True)
class BoundReport:
    """The closed-form numbers for one architecture."""

    kind: str
    depth: int
    widths: tuple[int, ...]
    piece_bound: int
    vc_upper_bound: float | None
    approx_lower_bound: float
    note: str = ""


def bound_report(arch: Architecture, value_range: tuple[float, float] = (0.0, 1.0)) -> BoundReport:
    vc = vc_upper_bound(arch)
    note = "" if vc is not None else "vc formula precondition unmet (needs rectangular width >= max(d, s, 2))"
    return BoundReport(arch.kind.value, arch.depth, arch.widths,
                       piece_bound(arch), vc,
                       approx_lower_bound(value_range, arch), note)
