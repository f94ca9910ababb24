"""Network document format.

A network serializes to a single JSON object with fields ``kind``,
``depth``, ``widths``, ``skip_counts`` or ``lin_count``, and ``layers`` — an
ordered list of ``{"W": row-major matrix, "b": vector, "V": optional
matrix}``.  Numbers are written in full round-trip decimal precision, so a
round trip is bit-exact on every parameter.  A built network adds a ``meta``
block with the guarantee, the probe map, and the construction record.

Matrices are written dense, so a document holds every parameter of the
dense-equivalent architecture; networks with more than
``MAX_DOCUMENT_PARAMS`` of them are refused before anything is densified.
"""

from __future__ import annotations

import json

import numpy as np

from .builders.built import BuiltNetwork, Construction, Guarantee
from .errors import ParseError, ResourceLimitError
from .networks import (
    Architecture,
    LayerParams,
    Network,
    NetworkKind,
    mat_to_rows,
    validate,
)

__all__ = ["to_document", "from_document"]

_KIND_TAGS = {k.value: k for k in NetworkKind}

# dense-equivalent parameters per document: about 40 MB of JSON, and a few
# hundred MB while the rows are being written
MAX_DOCUMENT_PARAMS = 1 << 22


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
        entry = {"W": mat_to_rows(layer.W), "b": [float(v) for v in np.asarray(layer.b)]}
        if layer.V is not None:
            entry["V"] = mat_to_rows(layer.V)
        layers.append(entry)
    doc["layers"] = layers
    return doc


def to_document(net: Network | BuiltNetwork) -> str:
    """Serialize a network (or built network) to its JSON document.

    Raises ``ResourceLimitError`` when the network has more than
    ``MAX_DOCUMENT_PARAMS`` dense-equivalent parameters.
    """
    params = (net.net if isinstance(net, BuiltNetwork) else net).arch.param_count()
    if params > MAX_DOCUMENT_PARAMS:
        raise ResourceLimitError(
            f"network has {params} dense-equivalent parameters; documents are capped "
            f"at {MAX_DOCUMENT_PARAMS}")
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
    violations = validate(net.net if isinstance(net, BuiltNetwork) else net)
    if violations:
        raise ParseError("$", f"refusing to serialize an invalid network: {violations[0]}")
    return json.dumps(doc, indent=1)


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise ParseError(path, msg)


def _matrix(obj, path: str, shape: tuple[int, int]) -> np.ndarray:
    _expect(isinstance(obj, list) and len(obj) == shape[0], path,
            f"expected {shape[0]} rows")
    rows = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == shape[1], f"{path}[{r}]",
                f"expected {shape[1]} columns")
        _expect(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and np.isfinite(v) for v in row),
                f"{path}[{r}]", "expected finite decimal numbers")
        rows.append([float(v) for v in row])
    return np.array(rows, dtype=float).reshape(shape)


def from_document(text: str) -> Network | BuiltNetwork:
    """Parse a network document; returns a BuiltNetwork when meta is present."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"not valid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "$", "expected an object")
    kind_tag = doc.get("kind")
    _expect(kind_tag in _KIND_TAGS, "$.kind", f"unknown kind tag {kind_tag!r}")
    kind = _KIND_TAGS[kind_tag]

    widths = doc.get("widths")
    _expect(isinstance(widths, list) and len(widths) >= 3
            and all(isinstance(w, int) and w >= 1 for w in widths),
            "$.widths", "expected a list of at least 3 positive integers")
    widths = tuple(widths)
    depth = doc.get("depth")
    _expect(depth == len(widths) - 2, "$.depth", f"depth {depth!r} inconsistent with widths")

    skip_counts: tuple[int, ...] = ()
    lin_count = 0
    if kind is NetworkKind.SKIP:
        raw = doc.get("skip_counts")
        _expect(isinstance(raw, list) and len(raw) == depth - 1
                and all(isinstance(s, int) and s >= 0 for s in raw),
                "$.skip_counts", f"expected {depth - 1} non-negative integers")
        skip_counts = tuple(raw)
    if kind is NetworkKind.LIN:
        raw = doc.get("lin_count")
        _expect(isinstance(raw, int) and raw >= 0, "$.lin_count",
                "expected a non-negative integer")
        lin_count = raw

    arch = Architecture(kind, widths, skip_counts, lin_count)
    ws = arch.augmented_widths()
    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list) and len(raw_layers) == depth + 1,
            "$.layers", f"expected {depth + 1} layers")
    layers = []
    for i, entry in enumerate(raw_layers):
        path = f"$.layers[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        W = _matrix(entry.get("W"), f"{path}.W", (ws[i + 1], ws[i]))
        braw = entry.get("b")
        _expect(isinstance(braw, list) and len(braw) == ws[i + 1]
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in braw),
                f"{path}.b", f"expected {ws[i + 1]} numbers")
        b = np.array([float(v) for v in braw])
        V = None
        if "V" in entry:
            _expect(kind is NetworkKind.SKIP, f"{path}.V", "V only allowed on skip networks")
            V = _matrix(entry["V"], f"{path}.V", (ws[i + 1], arch.input_dim))
        layers.append(LayerParams(W, b, V))
    # schema checks end here; semantic invariants (skip budgets etc.) are
    # the job of validate(), which callers run on the loaded network
    net = Network(arch, tuple(layers))

    if "meta" not in doc:
        return net
    meta = doc["meta"]
    _expect(isinstance(meta, dict), "$.meta", "expected an object")
    cons = meta.get("construction", {})
    _expect(isinstance(cons, dict) and isinstance(cons.get("name"), str),
            "$.meta.construction", "expected {name, parameters}")
    guarantee = None
    if meta.get("guarantee") is not None:
        g = meta["guarantee"]
        _expect(isinstance(g, dict) and isinstance(g.get("sup_error_bound"), (int, float)),
                "$.meta.guarantee", "expected {sup_error_bound, domain_dim}")
        guarantee = Guarantee(float(g["sup_error_bound"]), int(g.get("domain_dim", 1)))
    probes = {}
    for label, pos in meta.get("probes", {}).items():
        _expect(isinstance(pos, list) and len(pos) == 2, f"$.meta.probes[{label!r}]",
                "expected [layer, index]")
        layer, idx = int(pos[0]), int(pos[1])
        _expect(1 <= layer <= depth, f"$.meta.probes[{label!r}]",
                f"layer {layer} outside 1..{depth}")
        _expect(0 <= idx < ws[layer], f"$.meta.probes[{label!r}]",
                f"neuron {idx} outside layer {layer} of width {ws[layer]}")
        probes[label] = (layer, idx)
    return BuiltNetwork(net=net, guarantee=guarantee, probes=probes,
                        construction=Construction(cons["name"], dict(cons.get("parameters", {}))))
