"""Closed-form calculators against hand-computed values."""

import math

import pytest

from heavinet import Architecture, InvalidInputError, NetworkKind
from heavinet.analysis import approx_lower_bound, bound_report, piece_bound, vc_upper_bound
from heavinet.analysis.bounds import _layer_ceilings


def test_piece_bounds():
    assert piece_bound(Architecture(NetworkKind.PLAIN, (1, 3, 7, 7, 1))) == 4
    assert piece_bound(Architecture(NetworkKind.SKIP, (1, 2, 4, 4, 1), (1, 2))) == 18
    assert piece_bound(Architecture(NetworkKind.LIN, (1, 2, 3, 1), (), 2)) == 12
    assert piece_bound(Architecture(NetworkKind.SKIP, (1, 1, 1, 1), (0,))) == 2


def test_approx_lower_bound():
    plain = Architecture(NetworkKind.PLAIN, (1, 3, 1))
    assert approx_lower_bound((0.0, 1.0), plain) == 0.125
    skip = Architecture(NetworkKind.SKIP, (1, 1, 1, 1), (1,))
    assert approx_lower_bound((0.0, 1.0), skip) == 1 / (2 * 2 * 2)
    assert approx_lower_bound((2.0, 2.0), plain) == 0.0
    with pytest.raises(InvalidInputError):
        approx_lower_bound((1.0, 0.0), plain)


def test_layer_ceilings_are_the_prefix_products():
    archs = [Architecture(NetworkKind.PLAIN, (1, 3, 7, 7, 1)),
             Architecture(NetworkKind.SKIP, (2, 5, 4, 6, 3, 1), (1, 0, 3)),
             Architecture(NetworkKind.LIN, (1, 2, 3, 9, 1), (), 2),
             Architecture(NetworkKind.SKIP, (1, *[40] * 300, 1), (7,) * 299)]
    for arch in archs:
        hidden, L = arch.hidden_widths, arch.depth
        if arch.kind is NetworkKind.LIN:
            factors = [p + 1 for p in hidden]
        else:
            taps = arch.skip_counts or (0,) * (L - 1)
            factors = [hidden[0] + 1, *(s + 1 for s in taps)]
        assert _layer_ceilings(arch) == [math.prod(factors[:k]) for k in range(1, L + 1)]


def test_approx_lower_bound_past_the_float_range_is_zero():
    huge = Architecture(NetworkKind.SKIP, (1, *[1000] * 2000, 1), (1,) * 1999)
    assert piece_bound(huge) == 1001 * 2 ** 1999
    assert approx_lower_bound((0.0, 1.0), huge) == 0.0
    assert approx_lower_bound((0.0, 3.0), Architecture(NetworkKind.PLAIN, (1, 2, 1))) == 0.5


def test_vc_upper_hand_values():
    skip = Architecture(NetworkKind.SKIP, (1, 8, 8, 8, 8, 1), (1, 1, 1))
    assert vc_upper_bound(skip) == 30 * 4 * 64 * 5  # log2(32) = 5
    lin = Architecture(NetworkKind.LIN, (1, 8, 8, 8, 8, 1), (), 2)
    assert vc_upper_bound(lin) == 30 * max(16 * 8 * 2, 4 * 64) * 5
    plain = Architecture(NetworkKind.PLAIN, (1, 8, 8, 8, 8, 1))
    assert vc_upper_bound(plain) == 30 * 4 * 64 * 5  # skip formula with s = 0


def test_vc_precondition_flag():
    narrow = Architecture(NetworkKind.SKIP, (1, 1, 1, 1), (1,))
    assert vc_upper_bound(narrow) is None
    ragged = Architecture(NetworkKind.PLAIN, (1, 3, 5, 1))
    assert vc_upper_bound(ragged) is None
    rep = bound_report(narrow)
    assert rep.vc_upper_bound is None and "precondition" in rep.note


def test_bound_report_fields():
    rep = bound_report(Architecture(NetworkKind.SKIP, (1, 8, 8, 8, 8, 1), (1, 1, 1)),
                       (0.0, 1.0))
    assert rep.piece_bound == 9 * 2 * 2 * 2
    assert rep.vc_upper_bound == 38400
    assert rep.approx_lower_bound == 1 / (2 * 72)


@pytest.mark.parametrize("arch", [
    Architecture(NetworkKind.SKIP, (1, 2, 2, 2, 1), (-1, -1)),
    Architecture(NetworkKind.SKIP, (1, 2, 2, 2, 1), (5, 5)),
    Architecture(NetworkKind.LIN, (1, 2, 2, 2, 1), (), -1),
    Architecture(NetworkKind.PLAIN, (1, 0, 0, 0, 1)),
    Architecture(NetworkKind.PLAIN, (0, 2, 2, 2, 1)),
    Architecture(NetworkKind.PLAIN, (1, 1)),
])
def test_calculators_reject_what_validate_rejects(arch):
    for calc in (piece_bound, vc_upper_bound, bound_report,
                 lambda a: approx_lower_bound((0.0, 1.0), a)):
        with pytest.raises(InvalidInputError, match="invalid architecture"):
            calc(arch)
