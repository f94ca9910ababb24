"""Closed-form calculators against hand-computed values."""

import math

import numpy as np
import pytest

from heavinet import Architecture, InvalidInputError, NetworkKind, evaluate_batch
from heavinet.analysis import approx_lower_bound, bound_report, piece_bound, vc_upper_bound
from heavinet.analysis.bounds import _layer_ceilings
from heavinet.networks import step_rows
from netgen import APPROXIMATORS, approximator, extractors, random_network


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
    uneven = Architecture(NetworkKind.SKIP, (1, 8, 8, 8, 1), (1, 2))
    assert vc_upper_bound(uneven) is None
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


def _pattern_runs(net, t, floats=2**21):
    """Runs of equal step-row patterns of each hidden layer along the
    ordered points ``t``, traced in chunks of at most ``floats`` hidden
    activations, each chunk compared with the last column before it."""
    arch = net.arch
    step = max(1, floats // sum(arch.augmented_widths()[1:-1]))
    runs = np.zeros(arch.depth, dtype=int)
    last = [None] * arch.depth
    for part in np.split(t, range(step, len(t), step)):
        _, trace = evaluate_batch(net, part[:, None], with_trace=True)
        for ell, h in enumerate(trace):
            h = h[:step_rows(arch, ell)]
            if last[ell] is not None:
                h = np.concatenate([last[ell], h], axis=1)
            else:
                runs[ell] += 1
            runs[ell] += np.count_nonzero((h[:, 1:] != h[:, :-1]).any(axis=0))
            last[ell] = h[:, -1:]
    return runs.tolist()


LAYERWISE = [name for name in APPROXIMATORS if "x1x2" not in name] + list(extractors())


@pytest.mark.parametrize("name", LAYERWISE)
def test_pattern_runs_along_an_ordered_grid_stay_under_the_layer_ceilings(name):
    # the paper's layer-wise count: along a segment, hidden layer l has at
    # most _layer_ceilings[l] regions, so at most that many runs of equal
    # step patterns on any ordered grid of it
    net, pieces = (approximator(name)[0], 1) if name in APPROXIMATORS else extractors()[name]
    runs = _pattern_runs(net, np.linspace(0.0, 1.0, 20_000))
    ceilings = _layer_ceilings(net.arch)
    assert all(1 <= r <= c for r, c in zip(runs, ceilings)), (runs, ceilings)
    assert runs[-1] >= pieces  # the output is a function of the last pattern


def test_pattern_runs_of_random_networks_stay_under_the_layer_ceilings():
    rng = np.random.default_rng(30)
    for kind in NetworkKind:
        for _ in range(40):
            net = random_network(kind, rng, max_d=1)
            runs = _pattern_runs(net, np.linspace(-3.0, 3.0, 5_001), floats=4_000)
            assert all(r <= c for r, c in zip(runs, _layer_ceilings(net.arch)))
