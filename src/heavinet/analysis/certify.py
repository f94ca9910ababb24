"""Shattering certificates by labeling enumeration, batched over labelings."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..builders.shatter import (
    MAX_POINT_BITS,
    ShatterTemplate,
    shatter_budgets,
    shatter_points,
    shatter_template,
)
from ..errors import InvalidInputError, ResourceLimitError
from ..networks import _block_columns, _forward

__all__ = ["ShatterCertificate", "shatter_verify"]


@dataclass
class ShatterCertificate:
    """Outcome of realizing labelings of the construction's point set.

    ``implied_vc_lower_bound`` equals the point count iff no labeling
    failed; a non-exhaustive certificate (sampled labelings) is evidence
    for the construction rather than a complete proof, and says so in
    ``exhaustive``.
    """

    kind: str
    geometry: dict
    points: np.ndarray
    labelings_tried: int
    failures: list[str] = field(default_factory=list)
    exhaustive: bool = True
    budgets_respected: bool = True

    @property
    def implied_vc_lower_bound(self) -> int:
        return len(self.points) if not self.failures else 0

    def to_document(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "geometry": self.geometry,
            "points": [float(z) for z in self.points],
            "labelings_tried": self.labelings_tried,
            "failures": list(self.failures),
            "exhaustive": self.exhaustive,
            "budgets_respected": self.budgets_respected,
            "implied_vc_lower_bound": self.implied_vc_lower_bound,
        })


# float64 elements per chunk tensor (128 KiB).  Each chunk of labelings is one
# tensor pass whose activations and filled weights stay within this size, or
# one labeling's filled weights when those alone are larger; larger chunks
# were no faster and raised peak memory.
LABELING_CHUNK_ELEMENTS = 1 << 14


def _within_budgets(arch, kind: str, m: int, n: int, t: int) -> bool:
    budget = shatter_budgets(kind, m, n, t)
    if arch.depth > budget["depth"]:
        return False
    if max(arch.hidden_widths) > budget["width"]:
        return False
    if kind == "lin" and arch.lin_count > budget.get("identity_neurons", 0):
        return False
    return True


def _prefix(template: ShatterTemplate, x: np.ndarray) -> np.ndarray:
    """Activations at the points ``x`` after the stages before the first
    payload-dependent one, which every labeling shares; (width, points)."""
    cols = x.T
    return _forward(template.net, cols, cols, 0, int(template.stage.min()))


def labeling_outputs(template: ShatterTemplate, labelings, x: np.ndarray | None = None,
                     head: np.ndarray | None = None, filled=None) -> np.ndarray:
    """Network output for every labeling row at the (points, 1) matrix
    ``x``, all of the template's points by default; shape (labelings,
    points).  ``head`` is ``_prefix(template, x)`` and ``filled`` the
    stage map ``template.fill(labelings)`` if already computed."""
    net = template.net
    if x is None:
        x = template.points[:, None]
    if head is None:
        head = _prefix(template, x)
    if filled is None:
        filled = template.fill(labelings)
    out = _forward(net, head, x.T, int(template.stage.min()), net.arch.depth + 1, filled)
    return out[..., 0, :]


def shatter_verify(kind: str, m: int, n: int, t: int = 0,
                   sample_labelings: int | None = None, seed: int = 0) -> ShatterCertificate:
    """Check that the shattering construction realizes every labeling.

    All ``2^points`` labelings are enumerated when that count stays within
    ``2^20``; otherwise ``sample_labelings`` structured-plus-random
    labelings are checked (required for large geometries), and without it
    ``ResourceLimitError`` names the power, ``2^points``, never its digits.
    The structured labelings (all 0, all 1, the two alternating ones and
    up to 32 one-point ones) are always among the sampled ones; a
    ``sample_labelings`` of at least ``2^points`` enumerates every
    labeling once instead, and the certificate is exhaustive.

    The labeling reaches the network only through a few decoder weights
    (a bias for the one-point geometry), so the network is built (which
    validates it) and checked against the depth and width budgets once,
    with every label 0.  Labelings are then checked in chunks: each chunk
    fills those entries for all of its labelings and runs one tensor pass over
    labelings x width x points through ``networks._forward``, the stage
    loop of every forward pass, starting from the digit-extractor prefix,
    which every labeling shares.  A chunk holds at most
    ``LABELING_CHUNK_ELEMENTS`` float64 values per activation or weight
    tensor (128 KiB), splitting the points as well when one labeling's
    activations need more.  One labeling's filled weights can alone exceed
    the cap (129 x 129 at skip (6, 0)); such a chunk holds that one
    labeling.  The prefix runs once per group of points, sized as
    ``evaluate_batch`` sizes a block over the prefix's widths, and each
    chunk is filled once per group, its fill reused by every pass over the
    group's points.  So memory stays flat however many labelings there are;
    the exhaustive 2^16-labeling certificate of ``("skip", 1, 2)`` runs in
    about a second.  The filled weights are bit-identical to the literal
    ``shattering_net`` build of each labeling.
    """
    if sample_labelings is not None and sample_labelings < 1:
        raise InvalidInputError(f"sample_labelings must be at least 1, got {sample_labelings}")
    points = shatter_points(kind, m, n, t)
    npts = len(points)
    if sample_labelings is None and npts > MAX_POINT_BITS:
        raise ResourceLimitError(
            f"2^{npts} labelings of {npts} points exceed the 2^{MAX_POINT_BITS} cap; "
            "pass sample_labelings to spot-check")

    exhaustive = sample_labelings is None or sample_labelings >= 2**npts
    if exhaustive:
        tried = 2**npts
        shifts = np.arange(npts - 1, -1, -1)

        def labeling_rows(lo, hi):
            return (np.arange(lo, hi)[:, None] >> shifts) & 1
    else:
        rng = np.random.default_rng(seed)
        singles = min(npts, 32)
        fixed = np.zeros((4 + singles, npts), dtype=int)
        fixed[1] = 1
        fixed[2] = np.arange(npts) % 2
        fixed[3] = (np.arange(npts) + 1) % 2
        fixed[4 + np.arange(singles), np.arange(singles)] = 1  # one-point labelings
        rand = [rng.integers(0, 2, npts) for _ in range(max(0, sample_labelings - len(fixed)))]
        sampled = np.concatenate([fixed, np.array(rand, dtype=int).reshape(-1, npts)])
        tried = len(sampled)

        def labeling_rows(lo, hi):
            return sampled[lo:hi]

    template = shatter_template(kind, m, n, t)
    net = template.net
    budgets_ok = _within_budgets(net.arch, kind, m, n, t)
    ws = net.arch.augmented_widths()
    weights = max(math.prod(net.layers[s].W.shape) for s in np.unique(template.stage))
    block = min(npts, max(1, LABELING_CHUNK_ELEMENTS // max(ws)))  # points per pass
    chunk = max(1, LABELING_CHUNK_ELEMENTS // max(block * max(ws), weights))
    group = _block_columns(ws[:int(template.stage.min()) + 1])  # points per prefix
    failed = np.zeros(tried, dtype=bool)
    for g0 in range(0, npts, group):
        x = points[g0:g0 + group, None]
        heads = _prefix(template, x)
        for lo in range(0, tried, chunk):
            hi = min(lo + chunk, tried)
            lam = labeling_rows(lo, hi)
            filled = template.fill(lam)
            for p0 in range(0, len(x), block):
                p1 = min(p0 + block, len(x))
                realized = labeling_outputs(template, lam, x[p0:p1], heads[:, p0:p1],
                                            filled) >= 0.0
                failed[lo:hi] |= np.any(realized != lam[:, g0 + p0:g0 + p1], axis=1)
    failures = ["".join(str(int(b)) for b in labeling_rows(i, i + 1)[0])
                for i in np.flatnonzero(failed)]
    return ShatterCertificate(kind, {"m": m, "n": n, "t": t}, points, tried,
                              failures, exhaustive, budgets_ok)
