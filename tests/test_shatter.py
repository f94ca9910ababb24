"""Shattering constructions and certificates."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from heavinet import InvalidInputError, ResourceLimitError, evaluate_batch, networks, validate
from heavinet.analysis import shatter_verify, vc_upper_bound
from heavinet.analysis.certify import labeling_outputs
from heavinet.builders import CellGeometry, shatter_budgets, shatter_points, shattering_net
from heavinet.builders.shatter import ShatterTemplate, labels_to_table, shatter_template

# the certify benchmark geometries, plus the one-point geometry of each kind
CERTIFY_GEOMETRIES = [
    ("skip", 1, 1, 0), ("lin", 1, 0, 1),
    ("skip", 1, 2, 0), ("skip", 2, 0, 0), ("skip", 2, 1, 0), ("skip", 1, 3, 0),
    ("skip", 2, 2, 0), ("skip", 3, 0, 0), ("lin", 1, 1, 1), ("lin", 2, 0, 1),
    ("lin", 0, 2, 1), ("lin", 1, 2, 1), ("lin", 2, 1, 1), ("lin", 2, 2, 1),
    ("lin", 1, 1, 2), ("skip", 0, 0, 0), ("lin", 0, 0, 0),
]


def test_point_sets():
    pts = shatter_points("skip", 1, 1)
    assert np.array_equal(pts, np.arange(1, 9) / 8 - 1 / 16)
    assert np.array_equal(shatter_points("lin", 1, 0, 1), pts)
    assert np.array_equal(shatter_points("skip", 0, 0), [0.5])


SHATTER_GEOMETRIES = [("skip", m, n, 0) for m in range(7) for n in range(13)
                      if 1 <= 2 * m + n <= 12]
SHATTER_GEOMETRIES += [("lin", m, n, t) for m in range(13) for n in range(13) for t in range(7)
                       if 1 <= m + n + 2 * t <= 12]


def test_points_are_the_cell_centers():
    for geometry in SHATTER_GEOMETRIES:
        pts = shatter_points(*geometry)
        centers = CellGeometry(geometry[0], 1, *geometry[1:]).cell_centers()[:, 0]
        assert pts.tobytes() == centers.tobytes(), geometry
    for kind in ("skip", "lin"):
        assert shatter_points(kind, 0, 0, 0).tobytes() == np.array([0.5]).tobytes()


@pytest.mark.parametrize("value", [0.7, 1.9, 1.2])
def test_non_binary_labels_refused(value):
    with pytest.raises(InvalidInputError) as err:
        shattering_net("skip", 1, 0, 0, [0.5 if value == 1.2 else 0, value, 0, 1])
    assert str(err.value) == "labeling must be 4 bits"
    with pytest.raises(InvalidInputError) as err:
        labels_to_table(CellGeometry("skip", 1, 1, 0), [0, value, 0, 1])
    assert str(err.value) == "payload entries must be 0 or 1"
    with pytest.raises(InvalidInputError) as err:
        labels_to_table(CellGeometry("skip", 1, 1, 0), [0, value, 0])
    assert str(err.value) == "labeling needs 4 entries"


@pytest.mark.parametrize("labeling", [[0, 1.0, 0, 1], [False, True, False, True],
                                      np.array([0, 1, 0, 1])], ids=["float", "bool", "int"])
def test_binary_labels_accepted(labeling):
    built, pts = shattering_net("skip", 1, 0, 0, labeling)
    assert built.construction.parameters["labeling"] == "0101"
    got = (evaluate_batch(built.net, pts[:, None])[:, 0] >= 0).astype(int)
    assert got.tolist() == [0, 1, 0, 1]
    table = labels_to_table(CellGeometry("skip", 1, 1, 0), labeling)
    assert table.payload.dtype == int and table.payload.ravel().tolist() == [0, 1, 0, 1]


def test_all_zero_and_indicator_labelings():
    net, pts = shattering_net("skip", 1, 1, 0, np.zeros(8, dtype=int))
    assert np.all(evaluate_batch(net.net, pts[:, None])[:, 0] < 0)
    lam = np.zeros(8, dtype=int)
    lam[2] = 1
    net, pts = shattering_net("skip", 1, 1, 0, lam)
    got = (evaluate_batch(net.net, pts[:, None])[:, 0] >= 0).astype(int)
    assert np.array_equal(got, lam)


def test_lin_alternating_labeling():
    lam = np.arange(8) % 2
    net, pts = shattering_net("lin", 1, 0, 1, lam)
    assert validate(net.net) == []
    got = (evaluate_batch(net.net, pts[:, None])[:, 0] >= 0).astype(int)
    assert np.array_equal(got, lam)


def test_budgets_respected():
    rng = np.random.default_rng(40)
    for kind, m, n, t in [("skip", 1, 1, 0), ("skip", 2, 1, 0), ("lin", 1, 0, 1),
                          ("lin", 1, 1, 1)]:
        budget = shatter_budgets(kind, m, n, t)
        lam = rng.integers(0, 2, 2 ** (2 * m + n if kind == "skip" else m + n + 2 * t))
        net, _ = shattering_net(kind, m, n, t, lam)
        assert net.net.arch.depth <= budget["depth"]
        assert max(net.net.arch.hidden_widths) <= budget["width"]
        if kind == "lin":
            assert net.net.arch.lin_count <= budget["identity_neurons"]


def test_certificates():
    cert = shatter_verify("skip", 1, 1)
    assert cert.labelings_tried == 256 and not cert.failures
    assert cert.implied_vc_lower_bound == 8
    assert cert.exhaustive and cert.budgets_respected
    cert = shatter_verify("lin", 1, 0, 1)
    assert cert.labelings_tried == 256 and not cert.failures
    # degenerate single point
    cert = shatter_verify("skip", 0, 0)
    assert cert.labelings_tried == 2 and cert.implied_vc_lower_bound == 1


def test_certificate_document_round_trip_fields():
    import json
    cert = shatter_verify("skip", 1, 1)
    doc = json.loads(cert.to_document())
    assert doc["implied_vc_lower_bound"] == 8
    assert doc["labelings_tried"] == 256
    assert doc["points"] == [float(z) for z in cert.points]


def test_sampled_certificate_for_larger_geometry():
    # 32 points: exhaustive enumeration is out of reach, spot-check instead
    with pytest.raises(ResourceLimitError):
        shatter_verify("skip", 2, 1)
    cert = shatter_verify("skip", 2, 1, sample_labelings=60, seed=1)
    assert not cert.failures and not cert.exhaustive
    assert len(cert.points) == 32


@pytest.mark.parametrize("kind, m, n, t", [
    ("skip", 1, -2, 0), ("skip", -1, 2, 0), ("lin", -2, 0, 1), ("lin", 0, 0, -1),
    ("skip", 0, 0, 1), ("skip", 1, 0, 1), ("tree", 1, 0, 0),
])
def test_invalid_geometry_refused(kind, m, n, t):
    # the geometry rules are CellGeometry's, the one-point geometry included
    with pytest.raises(InvalidInputError):
        CellGeometry(kind, 1, m, n, t)
    for make in (shatter_points, shatter_verify, shatter_template,
                 lambda *geometry: shattering_net(*geometry, labeling=[1])):
        with pytest.raises(InvalidInputError):
            make(kind, m, n, t)


@pytest.mark.parametrize("sample", [0, -3])
def test_sampled_certificate_needs_a_labeling(sample):
    with pytest.raises(InvalidInputError, match="sample_labelings"):
        shatter_verify("skip", 1, 0, sample_labelings=sample)


def test_lower_bound_consistent_with_upper():
    from heavinet import Architecture, NetworkKind
    cert = shatter_verify("skip", 1, 1)
    net, _ = shattering_net("skip", 1, 1, 0, np.zeros(8, dtype=int))
    L = net.net.arch.depth
    p = max(net.net.arch.hidden_widths)
    upper = vc_upper_bound(Architecture(NetworkKind.SKIP, (1, *(p,) * L, 1), (1,) * (L - 1)))
    assert cert.implied_vc_lower_bound <= upper


def _per_point_table(geom, labeling):
    """Reference mapping: one ``index_of_bits`` call per point."""
    levels = geom.levels
    payload = np.zeros(geom.sizes, dtype=int)
    for i, lab in enumerate(labeling):
        bits = [(i >> (levels - 1 - pos)) & 1 for pos in range(levels)]
        j, k, r = geom.index_of_bits(np.array(bits).reshape(1, levels))
        payload[j - 1, k - 1, r - 1] = int(lab)
    return payload


def test_labels_to_table_matches_per_point_mapping():
    rng = np.random.default_rng(11)
    geoms = [CellGeometry("skip", 1, m, n) for m in range(5) for n in range(9)
             if 1 <= 2 * m + n <= 8]
    geoms += [CellGeometry("lin", 1, m, n, t) for m in range(9) for n in range(9)
              for t in range(5) if 1 <= m + n + 2 * t <= 8]
    for geom in geoms:
        lam = rng.integers(0, 2, 2 ** geom.levels)
        assert np.array_equal(labels_to_table(geom, lam).payload, _per_point_table(geom, lam)), geom


@pytest.mark.parametrize("geometry", CERTIFY_GEOMETRIES)
def test_filled_template_is_the_literal_build(geometry):
    template = shatter_template(*geometry)
    npts = len(template.points)
    rng = np.random.default_rng(CERTIFY_GEOMETRIES.index(geometry))
    lams = np.concatenate([np.zeros((1, npts), dtype=int), np.ones((1, npts), dtype=int),
                           rng.integers(0, 2, (4, npts))])
    filled = template.fill(lams)
    outputs = labeling_outputs(template, lams)
    for n, lam in enumerate(lams):
        literal, points = shattering_net(*geometry, lam)
        net = literal.net
        assert net.arch == template.net.arch
        for stage, (mine, theirs) in enumerate(zip(template.net.layers, net.layers)):
            W, b = (filled[stage][0][n], filled[stage][1][n]) if stage in filled else (mine.W, mine.b)
            assert np.asarray(W).tobytes() == np.asarray(theirs.W).tobytes(), stage
            assert np.asarray(b).tobytes() == np.asarray(theirs.b).tobytes(), stage
            assert (mine.V is None) == (theirs.V is None)
            if mine.V is not None:
                assert np.asarray(mine.V).tobytes() == np.asarray(theirs.V).tobytes()
        assert np.array_equal(outputs[n], evaluate_batch(net, points[:, None])[:, 0])


def test_template_with_csr_stages_matches_the_literal_builds():
    # skip (6, 0) stores its payload stage and the stage after it as CSR,
    # so the filled pass multiplies a sparse matrix into per-labeling activations
    template = shatter_template("skip", 6, 0)
    assert [s for s, layer in enumerate(template.net.layers) if sp.issparse(layer.W)] == [13, 14]
    lams = np.random.default_rng(8).integers(0, 2, (8, len(template.points)))
    outputs = labeling_outputs(template, lams)
    for lam, out in zip(lams, outputs):
        literal, points = shattering_net("skip", 6, 0, 0, lam)
        assert out.tobytes() == evaluate_batch(literal.net, points[:, None])[:, 0].tobytes()


def test_complemented_labels_fail_every_labeling(monkeypatch):
    fill = ShatterTemplate.fill
    monkeypatch.setattr(ShatterTemplate, "fill", lambda self, lams: fill(self, 1 - lams))
    cert = shatter_verify("skip", 1, 1)
    assert len(cert.failures) == cert.labelings_tried == 256
    assert cert.failures[:2] == ["00000000", "00000001"]
    assert cert.implied_vc_lower_bound == 0
    cert = shatter_verify("lin", 1, 1, 1, sample_labelings=40, seed=3)
    assert len(cert.failures) == cert.labelings_tried == 40


def test_exhaustive_sixteen_point_certificate():
    start = time.perf_counter()
    cert = shatter_verify("skip", 1, 2)
    assert time.perf_counter() - start < 30.0
    assert cert.labelings_tried == 2 ** 16 and not cert.failures
    assert cert.exhaustive and cert.budgets_respected
    assert cert.implied_vc_lower_bound == 16


def test_chunking_over_labelings_and_points_keeps_the_certificate(monkeypatch):
    import heavinet.analysis.certify as certify
    whole = [shatter_verify("skip", 1, 1).to_document(),
             shatter_verify("lin", 1, 1, 1, sample_labelings=40, seed=2).to_document()]
    monkeypatch.setattr(certify, "LABELING_CHUNK_ELEMENTS", 50)  # 2 points, 1 labeling
    assert [shatter_verify("skip", 1, 1).to_document(),
            shatter_verify("lin", 1, 1, 1, sample_labelings=40, seed=2).to_document()] == whole
    # prefixes held for 3 points at a time: a group ends inside a pass
    monkeypatch.setattr(networks, "BLOCK_FLOATS", 0)
    monkeypatch.setattr(networks, "BLOCK_MIN_COLUMNS", 3)
    assert [shatter_verify("skip", 1, 1).to_document(),
            shatter_verify("lin", 1, 1, 1, sample_labelings=40, seed=2).to_document()] == whole
    fill = ShatterTemplate.fill
    monkeypatch.setattr(ShatterTemplate, "fill", lambda self, lams: fill(self, 1 - lams))
    assert len(shatter_verify("skip", 1, 1).failures) == 256
