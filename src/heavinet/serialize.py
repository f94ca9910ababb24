"""Network document format.

A network serializes to a single JSON object with fields ``kind``,
``depth``, ``widths``, ``skip_counts`` or ``lin_count``, and ``layers`` — an
ordered list of ``{"W": matrix, "b": vector, "V": optional matrix}``.  A
built network adds a ``meta`` block with the guarantee, the probe map, and
the construction record.

A matrix is written as coordinates or as a list of rows.  A
``scipy.sparse`` matrix is written as ``{"shape": [r, c], "rows": [...],
"cols": [...], "values": [...]}``, its stored entries in strictly
increasing row-major order.  A dense one is written the same way with the
tag ``"dense": true`` when that saves at least ``COORDINATE_MIN_SAVING``
(256) numbers over its rows, that is when ``r * c - 3 * entries >= 256``,
its entries being those whose bit pattern is not ``+0.0`` (so ``-0.0``
stays), and as a list of rows otherwise.  The builders' long chains of
nearly empty stages, too small to be stored sparse, so shrink on disk
without a change of storage.  Reading gives a CSR matrix for untagged
coordinates, an ndarray for tagged ones (without importing
``scipy.sparse``) and for rows, so a parsed network keeps the storage of
the one written, bit for bit, and evaluates on the same code path;
documents whose matrices are all rows stay readable.  Numbers are written
in full round-trip decimal precision, so a round trip is bit-exact on
every parameter and re-serializing a parsed document gives the same
bytes.  The JSON carries no indentation.

A document may hold at most ``MAX_DOCUMENT_PARAMS`` parameters of the
dense-equivalent architecture, sparse layers included; bigger networks are
refused before anything is written.

Reading checks only the format: the kind tag, integer lists, rows of
equal length holding numbers, coordinates inside their declared shape and
in order, a ``dense`` tag that is ``true`` where present, numbers a
float64 can hold, and the types of the meta block.  A ``ParseError`` means
the text is not a network document.  The rules of the network classes,
shapes, budgets, finite parameters and probe positions included, are
judged by constructing the ``Network`` and ``BuiltNetwork``, so a
well-formed document of an invalid network raises ``InvalidNetworkError``
with every violation.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .builders.built import BuiltNetwork, Construction, Guarantee
from .errors import ParseError, ResourceLimitError
from .networks import Architecture, LayerParams, Network, NetworkKind, issparse

__all__ = ["to_document", "from_document", "check_document_size"]

_KIND_TAGS = {k.value: k for k in NetworkKind}

# dense-equivalent parameters per document, and entries per declared sparse
# shape: a dense document this big is about 40 MB of JSON
MAX_DOCUMENT_PARAMS = 1 << 22

# numbers a dense matrix's coordinates must save over its rows (each entry
# costs three) for it to be written as coordinates
COORDINATE_MIN_SAVING = 256


def _matrix_entry(M) -> list | dict:
    """A sparse matrix as its sorted coordinates; a dense one as tagged
    coordinates when they save ``COORDINATE_MIN_SAVING`` numbers, else as
    rows."""
    if not issparse(M):
        A = np.asarray(M, dtype=float)
        if A.size >= COORDINATE_MIN_SAVING:
            # +0.0 is the one all-zero bit pattern: -0.0 is an entry
            bits = np.ascontiguousarray(A).view(np.uint64)
            if A.size - 3 * np.count_nonzero(bits) >= COORDINATE_MIN_SAVING:
                rows, cols = np.nonzero(bits)
                return {"shape": list(A.shape), "dense": True, "rows": rows.tolist(),
                        "cols": cols.tolist(), "values": A[rows, cols].tolist()}
        return A.tolist()
    csr = M.tocsr(copy=True)
    csr.sum_duplicates()  # sorts the copy in place; the layer stays as it is
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return {"shape": [int(n) for n in csr.shape], "rows": rows.tolist(),
            "cols": csr.indices.tolist(), "values": csr.data.astype(float).tolist()}


def _network_payload(net: Network) -> dict:
    arch = net.arch
    doc: dict = {
        "kind": arch.kind.value,
        "depth": arch.depth,
        "widths": list(arch.widths),
    }
    if arch.kind is NetworkKind.SKIP:
        doc["skip_counts"] = list(arch.skip_counts)
    if arch.kind is NetworkKind.LIN:
        doc["lin_count"] = arch.lin_count
    layers = []
    for layer in net.layers:
        entry = {"W": _matrix_entry(layer.W), "b": np.asarray(layer.b, dtype=float).tolist()}
        if layer.V is not None:
            entry["V"] = _matrix_entry(layer.V)
        layers.append(entry)
    doc["layers"] = layers
    return doc


def check_document_size(arch: Architecture) -> None:
    """Refuse, with ``ResourceLimitError``, an architecture with more than
    ``MAX_DOCUMENT_PARAMS`` dense-equivalent parameters.  It reads the
    architecture alone, so a maker that knows it can refuse before
    anything is built."""
    params = arch.param_count()
    if params > MAX_DOCUMENT_PARAMS:
        raise ResourceLimitError(
            f"network has {params} dense-equivalent parameters, over the "
            f"{MAX_DOCUMENT_PARAMS} cap")


def to_document(net: Network | BuiltNetwork) -> str:
    """Serialize a network (or built network) to its JSON document.

    Raises ``ResourceLimitError`` when ``check_document_size`` refuses the
    network's architecture.
    """
    check_document_size((net.net if isinstance(net, BuiltNetwork) else net).arch)
    if isinstance(net, BuiltNetwork):
        doc = _network_payload(net.net)
        meta: dict = {"construction": {"name": net.construction.name,
                                       "parameters": net.construction.parameters}}
        if net.guarantee is not None:
            meta["guarantee"] = {"sup_error_bound": float(net.guarantee.sup_error_bound),
                                 "domain_dim": int(net.guarantee.domain_dim)}
        meta["probes"] = {label: [int(layer), int(idx)]
                          for label, (layer, idx) in sorted(net.probes.items())}
        doc["meta"] = meta
    else:
        doc = _network_payload(net)
    return json.dumps(doc)


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise ParseError(path, msg)


_NUMBER_TYPES = {int, float}  # JSON numbers; bool is a type of its own


def _ints(obj) -> bool:
    return isinstance(obj, list) and set(map(type, obj)) <= {int}


def _numbers(obj) -> bool:
    return isinstance(obj, list) and set(map(type, obj)) <= _NUMBER_TYPES


def _floats(obj, path: str) -> np.ndarray:
    """JSON numbers as a float array; an integer past float64 is malformed."""
    try:
        return np.array(obj, dtype=float)
    except OverflowError:
        raise ParseError(path, "integer too large for a float64") from None


def _indices(obj, bound: int, path: str) -> np.ndarray:
    """Integers in ``[0, bound)`` as an index array."""
    _expect(_ints(obj), path, "expected a list of integers")
    try:
        idx = np.array(obj, dtype=np.int64)
    except OverflowError:
        idx = None
    _expect(idx is not None and bool(((idx >= 0) & (idx < bound)).all()), path,
            f"expected indices in [0, {bound})")
    return idx


def _coordinates(obj: dict, path: str):
    """A ``{shape, rows, cols, values}`` entry as a CSR matrix, or as a 2-D
    float array when tagged ``"dense": true``."""
    dense = "dense" in obj
    _expect(not dense or obj["dense"] is True, f"{path}.dense", "expected true or no tag")
    shape = obj.get("shape")
    _expect(_ints(shape) and len(shape) == 2 and min(shape) >= 0
            and shape[0] * shape[1] <= MAX_DOCUMENT_PARAMS, f"{path}.shape",
            f"expected [rows, cols], integers >= 0 with at most {MAX_DOCUMENT_PARAMS} entries")
    n_rows, n_cols = shape
    rows = _indices(obj.get("rows"), n_rows, f"{path}.rows")
    cols = _indices(obj.get("cols"), n_cols, f"{path}.cols")
    values = obj.get("values")
    _expect(_numbers(values), f"{path}.values", "expected a list of numbers")
    _expect(len(rows) == len(cols) == len(values), path,
            "rows, cols and values differ in length")
    key = rows * n_cols + cols
    _expect(bool((key[1:] > key[:-1]).all()), path,
            "coordinates repeated or out of row-major order")
    data = _floats(values, f"{path}.values")
    if dense:
        M = np.zeros((n_rows, n_cols))
        M[rows, cols] = data
        return M
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    import scipy.sparse as sp
    return sp.csr_matrix((data, cols, indptr), shape=(n_rows, n_cols))


def _matrix(obj, path: str):
    """A coordinate entry as CSR or a 2-D float array, or a list of equally
    long rows of numbers as a 2-D float array."""
    if isinstance(obj, dict):
        return _coordinates(obj, path)
    _expect(isinstance(obj, list) and set(map(type, obj)) <= {list}, path,
            "expected a list of rows or a {shape, rows, cols, values} object")
    cols = len(obj[0]) if obj else 0
    # one check of the row lengths and one of the entry types per matrix;
    # only a failing matrix is searched for its first bad row
    lengths = set(map(len, obj))
    types = set(map(type, chain.from_iterable(obj)))
    if not (lengths <= {cols} and types <= _NUMBER_TYPES):
        for r, row in enumerate(obj):
            _expect(len(row) == cols and _numbers(row), f"{path}[{r}]",
                    f"expected {cols} numbers")
    return _floats(obj, path).reshape(len(obj), cols)


def from_document(text: str) -> Network | BuiltNetwork:
    """Parse a network document; returns a BuiltNetwork when meta is present.

    Raises ``ParseError`` on text that is not a network document, and
    ``InvalidNetworkError`` on a document of an invalid network.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"not valid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "$", "expected an object")
    kind_tag = doc.get("kind")
    _expect(kind_tag in _KIND_TAGS, "$.kind", f"unknown kind tag {kind_tag!r}")
    kind = _KIND_TAGS[kind_tag]

    widths = doc.get("widths")
    _expect(_ints(widths), "$.widths", "expected a list of integers")
    depth = doc.get("depth")
    _expect(depth == len(widths) - 2, "$.depth", f"depth {depth!r} inconsistent with widths")
    skip_counts: list[int] = []
    lin_count = 0
    if kind is NetworkKind.SKIP:
        skip_counts = doc.get("skip_counts")
        _expect(_ints(skip_counts), "$.skip_counts", "expected a list of integers")
    if kind is NetworkKind.LIN:
        lin_count = doc.get("lin_count")
        _expect(type(lin_count) is int, "$.lin_count", "expected an integer")
    arch = Architecture(kind, tuple(widths), tuple(skip_counts), lin_count)

    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list), "$.layers", "expected a list of layers")
    layers = []
    for i, entry in enumerate(raw_layers):
        path = f"$.layers[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        W = _matrix(entry.get("W"), f"{path}.W")
        _expect(_numbers(entry.get("b")), f"{path}.b", "expected a list of numbers")
        b = _floats(entry["b"], f"{path}.b")
        V = _matrix(entry["V"], f"{path}.V") if "V" in entry else None
        layers.append(LayerParams(W, b, V))

    if "meta" not in doc:
        return Network(arch, tuple(layers))
    meta = doc["meta"]
    _expect(isinstance(meta, dict), "$.meta", "expected an object")
    cons = meta.get("construction", {})
    _expect(isinstance(cons, dict) and isinstance(cons.get("name"), str)
            and isinstance(cons.get("parameters", {}), dict),
            "$.meta.construction", "expected {name, parameters}")
    guarantee = None
    if meta.get("guarantee") is not None:
        g = meta["guarantee"]
        _expect(isinstance(g, dict) and type(g.get("sup_error_bound")) in _NUMBER_TYPES
                and type(g.get("domain_dim", 1)) is int,
                "$.meta.guarantee", "expected {sup_error_bound, domain_dim}")
        bound = _floats(g["sup_error_bound"], "$.meta.guarantee.sup_error_bound")
        guarantee = Guarantee(float(bound), g.get("domain_dim", 1))
    probes = meta.get("probes", {})
    _expect(isinstance(probes, dict), "$.meta.probes", "expected an object")
    for label, pos in probes.items():
        _expect(_ints(pos) and len(pos) == 2, f"$.meta.probes[{label!r}]",
                "expected [layer, index]")
    return BuiltNetwork(Network(arch, tuple(layers)), guarantee,
                        {label: tuple(pos) for label, pos in probes.items()},
                        Construction(cons["name"], dict(cons.get("parameters", {}))))
