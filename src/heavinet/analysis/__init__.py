"""Measurement side: exact piece structure, grid cross-checks, sup-norm
errors, shattering certificates, and the closed-form bound calculators.

Everything here is pure; grid evaluation and labeling enumeration are
safe to parallelize externally, and reported arg-max ties resolve to the
lowest grid index so results stay deterministic.
"""

from .bounds import BoundReport, approx_lower_bound, bound_report, piece_bound, vc_upper_bound
from .certify import ShatterCertificate, shatter_verify
from .pieces import SegmentPartition, exact_pieces, sampled_pieces
from .sup import SupErrorResult, axis_grid, sup_error

__all__ = [
    "SegmentPartition", "exact_pieces", "sampled_pieces",
    "SupErrorResult", "sup_error", "axis_grid",
    "BoundReport", "bound_report", "piece_bound", "approx_lower_bound", "vc_upper_bound",
    "ShatterCertificate", "shatter_verify",
]
