"""Document round trips and schema errors."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from heavinet import (
    Architecture,
    InvalidNetworkError,
    LayerParams,
    Network,
    NetworkKind,
    ParseError,
    evaluate_batch,
)
from heavinet.builders import (
    BitTable,
    BuiltNetwork,
    CellGeometry,
    binary_bit_extractor_lin,
    decoder,
    holder_approximator,
    parity_network,
    shattering_net,
    square_approximator,
)
from heavinet.serialize import from_document, to_document
from heavinet.targets import TARGETS
from netgen import random_network


def _params_equal(a, b):
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        Wa = np.asarray(la.W if not hasattr(la.W, "toarray") else la.W.toarray())
        Wb = np.asarray(lb.W if not hasattr(lb.W, "toarray") else lb.W.toarray())
        if not np.array_equal(Wa, Wb) or not np.array_equal(la.b, lb.b):
            return False
        if (la.V is None) != (lb.V is None):
            return False
        if la.V is not None and not np.array_equal(np.asarray(la.V), np.asarray(lb.V)):
            return False
    return True


def test_round_trip_parity():
    built = parity_network(3)
    loaded = from_document(to_document(built))
    assert isinstance(loaded, BuiltNetwork)
    assert loaded.net.arch == built.net.arch
    assert _params_equal(loaded.net, built.net)
    assert loaded.probes == built.probes
    assert loaded.construction.name == "parity_network"


def test_round_trip_random_networks_bit_exact():
    rng = np.random.default_rng(5)
    for kind in NetworkKind:
        for _ in range(10):
            net = random_network(kind, rng)
            loaded = from_document(to_document(net))
            assert loaded.arch == net.arch
            assert _params_equal(loaded, net)
            X = rng.uniform(0, 1, (20, net.arch.input_dim))
            assert np.array_equal(evaluate_batch(net, X), evaluate_batch(loaded, X))


def test_guarantee_and_meta_round_trip():
    built = square_approximator(3, 1, (1, 0))
    loaded = from_document(to_document(built))
    assert loaded.guarantee.sup_error_bound == built.guarantee.sup_error_bound
    assert loaded.construction.parameters["L"] == 3


def test_truncated_document_fails():
    doc = to_document(parity_network(2))
    with pytest.raises(ParseError):
        from_document(doc[: len(doc) // 2])


def test_unknown_kind_tag_named():
    doc = json.loads(to_document(parity_network(2)))
    doc["kind"] = "relu"
    with pytest.raises(ParseError) as err:
        from_document(json.dumps(doc))
    assert "relu" in str(err.value)
    assert err.value.path == "$.kind"


def test_schema_violation_reports_path():
    doc = json.loads(to_document(parity_network(2)))
    doc["layers"][1]["W"][0] = doc["layers"][1]["W"][0][:-1]
    with pytest.raises(ParseError) as err:
        from_document(json.dumps(doc))
    assert "$.layers[1].W" in str(err.value)


def _storage(net):
    """Per layer: whether W, and V where present, are stored sparse."""
    return [(sp.issparse(layer.W), None if layer.V is None else sp.issparse(layer.V))
            for layer in net.layers]


def _points(d, rng):
    if d == 1:
        return np.linspace(0.0, 1.0, 4097)[:, None]
    return np.vstack([rng.uniform(0, 1, (500, d)), rng.integers(0, 2, (500, d))])


def _skip_decoder():
    # J + K + 1 = 513 cells: stages big and empty enough to be stored as CSR
    geom = CellGeometry("skip", 1, 8, 0)
    return decoder("skip", BitTable(geom, np.random.default_rng(3).integers(0, 2, geom.sizes)))


ROUND_TRIPS = {
    "skip holder": (lambda: holder_approximator("skip", TARGETS["x2"].holder_config(2, 0, None)),
                    True),
    "skip decoder": (_skip_decoder, True),
    # a small shattering net has no stage big and empty enough for CSR
    "skip shatter net": (lambda: shattering_net("skip", 1, 1, 0, [1, 0, 1, 1, 0, 0, 1, 0])[0],
                         False),
    "dense square": (lambda: square_approximator(4, 2, (2, 2, 0)), False),
    "lin bits": (lambda: binary_bit_extractor_lin(8, "wide"), False),
    # 174 narrow, nearly empty stages: most of them written as dense-tagged
    # coordinates
    "lin holder": (lambda: holder_approximator("lin", TARGETS["x3mx"].holder_config(1, 0, 1)),
                   True),
}


@pytest.mark.parametrize("case", ROUND_TRIPS)
def test_round_trip_keeps_storage_values_and_bytes(case):
    make, sparse = ROUND_TRIPS[case]
    built = make()
    text = to_document(built)
    loaded = from_document(text)
    assert _storage(loaded.net) == _storage(built.net)
    assert any(W for W, _ in _storage(built.net)) == sparse
    assert all(isinstance(M, (sp.csr_matrix, np.ndarray)) for layer in loaded.net.layers
               for M in (layer.W, layer.V) if M is not None)
    X = _points(built.net.arch.input_dim, np.random.default_rng(0))
    assert np.array_equal(evaluate_batch(loaded.net, X), evaluate_batch(built.net, X))
    assert to_document(loaded) == text
    assert text == json.dumps(json.loads(text))  # no indentation


def test_lin_holder_writes_dense_stages_as_coordinates():
    built = ROUND_TRIPS["lin holder"][0]()
    doc = json.loads(to_document(built))
    tagged = [(layer.W, entry["W"]) for layer, entry in zip(built.net.layers, doc["layers"])
              if isinstance(entry["W"], dict) and entry["W"].get("dense") is True]
    assert tagged
    for W, entry in tagged:
        assert not sp.issparse(W)
        assert W.size - 3 * len(entry["values"]) >= 256


def _dense_net(W0):
    """A two-layer plain network with the dense first stage ``W0``."""
    rows, cols = W0.shape
    return Network(Architecture(NetworkKind.PLAIN, (cols, rows, 1)),
                   (LayerParams(W0, np.zeros(rows)),
                    LayerParams(np.ones((1, rows)), np.array([0.5]))))


def test_negative_zero_in_dense_coordinates_round_trips_bit_for_bit():
    W0 = np.zeros((20, 20))
    W0[0, 0], W0[3, 7], W0[19, 19] = 1.5, -0.0, -2.0
    net = _dense_net(W0)
    text = to_document(net)
    entry = json.loads(text)["layers"][0]["W"]
    assert entry == {"shape": [20, 20], "dense": True, "rows": [0, 3, 19],
                     "cols": [0, 7, 19], "values": [1.5, -0.0, -2.0]}
    loaded = from_document(text)
    assert isinstance(loaded.layers[0].W, np.ndarray)
    assert loaded.layers[0].W.tobytes() == W0.tobytes()
    assert to_document(loaded) == text


def test_dense_matrix_is_written_as_coordinates_only_past_the_saving():
    # 16 x 16 = 256 numbers: only an empty one saves 256 as coordinates
    empty, one = np.zeros((16, 16)), np.zeros((16, 16))
    one[2, 3] = 1.0
    assert json.loads(to_document(_dense_net(empty)))["layers"][0]["W"]["rows"] == []
    assert json.loads(to_document(_dense_net(one)))["layers"][0]["W"] == one.tolist()


def test_hand_written_rows_of_a_coordinate_matrix_still_read():
    W0 = np.zeros((20, 20))
    W0[4, 5] = 0.25
    net = _dense_net(W0)
    doc = json.loads(to_document(net))
    doc["layers"][0]["W"] = W0.tolist()
    loaded = from_document(json.dumps(doc))
    assert loaded.layers[0].W.tobytes() == W0.tobytes()
    assert to_document(loaded) == to_document(net)


def _densify(entry):
    if isinstance(entry, dict):
        M = np.zeros(entry["shape"])
        M[entry["rows"], entry["cols"]] = entry["values"]
        return M.tolist()
    return entry


def test_dense_document_of_a_sparse_network_reads_dense_and_evaluates_identically():
    built = ROUND_TRIPS["skip holder"][0]()
    doc = json.loads(to_document(built))
    for layer in doc["layers"]:
        for key in ("W", "V"):
            if key in layer:
                layer[key] = _densify(layer[key])
    loaded = from_document(json.dumps(doc, indent=1))  # every matrix as rows
    assert all(not W and not V for W, V in _storage(loaded.net))
    X = _points(1, None)
    assert np.array_equal(evaluate_batch(loaded.net, X), evaluate_batch(built.net, X))


def _sparse_doc():
    """A two-layer plain network whose first W is sparse: W is (3, 2)."""
    W0 = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -2.0], [0.5, 0.25]]))
    net = Network(Architecture(NetworkKind.PLAIN, (2, 3, 1)),
                  (LayerParams(W0, np.array([0.5, -1.0, 0.0])),
                   LayerParams(np.array([[1.0, 1.0, -1.0]]), np.array([0.0]))))
    doc = json.loads(to_document(net))
    assert doc["layers"][0]["W"] == {"shape": [3, 2], "rows": [0, 1, 2, 2],
                                     "cols": [0, 1, 0, 1], "values": [1.0, -2.0, 0.5, 0.25]}
    assert doc["layers"][1]["W"] == [[1.0, 1.0, -1.0]]
    return doc


def _set(key, i, value):
    return lambda W: W[key].__setitem__(i, value)


def _swap_first_two(W):
    for key in ("rows", "cols", "values"):
        W[key][0], W[key][1] = W[key][1], W[key][0]


def _repeat_first(W):
    for key in ("rows", "cols", "values"):
        W[key].insert(1, W[key][0])


W0 = "$.layers[0].W"
MALFORMED_SPARSE = {
    "lengths differ": (lambda W: W["values"].pop(), W0),
    "bool index": (_set("rows", 0, True), W0 + ".rows"),
    "float index": (_set("cols", 1, 1.0), W0 + ".cols"),
    "column outside shape": (_set("cols", 3, 2), W0 + ".cols"),
    "negative row": (_set("rows", 0, -1), W0 + ".rows"),
    "huge row": (_set("rows", 3, 10 ** 30), W0 + ".rows"),
    "repeated coordinate": (_repeat_first, W0),
    "unsorted coordinates": (_swap_first_two, W0),
    "shape of one number": (lambda W: W.update(shape=[3]), W0 + ".shape"),
    "negative shape": (_set("shape", 1, -2), W0 + ".shape"),
    "float shape": (_set("shape", 1, 2.0), W0 + ".shape"),
    "shape over the cap": (lambda W: W.update(shape=[1 << 12, 1 << 11]), W0 + ".shape"),
    "missing cols": (lambda W: W.pop("cols"), W0 + ".cols"),
    "string value": (_set("values", 0, "1"), W0 + ".values"),
    "value past float64": (_set("values", 2, 10 ** 400), W0 + ".values"),
    "dense tag 1": (lambda W: W.update(dense=1), W0 + ".dense"),
    "dense tag false": (lambda W: W.update(dense=False), W0 + ".dense"),
    "dense repeated coordinate": (lambda W: (W.update(dense=True), _repeat_first(W)), W0),
    "dense unsorted coordinates": (lambda W: (W.update(dense=True), _swap_first_two(W)), W0),
    "dense row outside shape": (lambda W: (W.update(dense=True), _set("rows", 3, 3)(W)),
                                W0 + ".rows"),
}


@pytest.mark.parametrize("case", MALFORMED_SPARSE)
def test_malformed_sparse_entry_is_a_parse_error_at_its_path(case):
    doc = _sparse_doc()
    breaks, path = MALFORMED_SPARSE[case]
    breaks(doc["layers"][0]["W"])
    with pytest.raises(ParseError) as err:
        from_document(json.dumps(doc))
    assert err.value.path == path


def test_sparse_shape_disagreeing_with_the_widths_is_a_network_violation():
    doc = _sparse_doc()
    doc["layers"][0]["W"]["shape"] = [3, 3]
    with pytest.raises(InvalidNetworkError) as err:
        from_document(json.dumps(doc))
    assert err.value.violations == ["layer 0: W shape (3, 3), expected (3, 2)"]


@pytest.mark.parametrize("where, path", [
    (lambda doc: doc["layers"][1]["W"][0].__setitem__(2, 10 ** 400), "$.layers[1].W"),
    (lambda doc: doc["layers"][0]["b"].__setitem__(1, -10 ** 400), "$.layers[0].b"),
    (lambda doc: doc.update(meta={"construction": {"name": "hand"},
                                  "guarantee": {"sup_error_bound": 10 ** 400}}),
     "$.meta.guarantee.sup_error_bound"),
], ids=["dense row", "bias", "guarantee"])
def test_integer_past_float64_is_a_parse_error(where, path):
    doc = _sparse_doc()
    where(doc)
    with pytest.raises(ParseError) as err:
        from_document(json.dumps(doc))
    assert err.value.path == path


@pytest.mark.parametrize("breaks", [
    lambda row: row.__setitem__(1, True),
    lambda row: row.__setitem__(0, "1"),
], ids=["bool", "string"])
def test_bad_dense_row_is_named(breaks):
    doc = _sparse_doc()
    breaks(doc["layers"][1]["W"][0])
    with pytest.raises(ParseError) as err:
        from_document(json.dumps(doc))
    assert err.value.path == "$.layers[1].W[0]"
