"""Span tracing for the benchmark's traced run.

The program's source is not touched.  ``Tracer.patched`` rebinds each traced
public function in every ``heavinet`` module whose namespace holds it (found
by scanning the module dicts for the original function object), and wraps
the ``NetBuilder.build`` method on its class, so nested calls inside the
package are caught too: ``exact_pieces`` calling ``validate`` and
``evaluate_batch``, ``NetBuilder.build`` calling ``validate``,
``shatter_verify`` calling ``shattering_net`` and so on.

Each call records a span: layer name, parent span, item index, start and
end.  A layer's self time is its span's duration minus the time of its
child spans.  Counters (points evaluated, nonzeros built, pieces found...)
are computed after a span ends; that bookkeeping is charged to the
benchmark's own ``bench`` layer, so the self times of all layers add up to
the traced time of each item exactly.  Times are scaled to the reference
machine speed like every timing of the run (see run.Clock).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

import numpy as np

# public constructors of heavinet.builders that return a BuiltNetwork
CONSTRUCTORS = (
    "hyperrectangle_indicator", "parity_network", "xor_network",
    "piecewise_constant_1d", "lipschitz_grid_approx",
    "mixed_radix_bit_extractor", "binary_bit_extractor_lin", "decoder",
    "square_approximator", "shattering_net", "holder_approximator",
    "stack_on_hidden",
)

# the per-layer metrics of BENCHMARK.json, in output order
PER_LAYER_METRICS = (
    ("networks.validate.calls", "count"),
    ("networks.validate.self_ms", "ms"),
    ("networks.evaluate_batch.calls", "count"),
    ("networks.evaluate_batch.points", "count"),
    ("networks.evaluate_batch.self_ms", "ms"),
    ("builders.build.calls", "count"),
    ("builders.build.self_ms", "ms"),
    ("builders.construct.self_ms", "ms"),
    ("builders.nonzeros", "count"),
    ("builders.dense_params", "count"),
    ("pieces.exact.self_ms", "ms"),
    ("pieces.sampled.self_ms", "ms"),
    ("pieces.sampled.eval_calls", "count"),
    ("pieces.regions", "count"),
    ("pieces.regions_to_bound", "ratio"),
    ("sup.self_ms", "ms"),
    ("sup.grid_points", "count"),
    ("certify.self_ms", "ms"),
    ("certify.labelings", "count"),
    ("certify.builds_per_labeling", "ratio"),
    ("serialize.to_document.self_ms", "ms"),
    ("serialize.from_document.self_ms", "ms"),
    ("serialize.doc_bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.item_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

LAYERS = ("networks.validate", "networks.evaluate_batch", "builders.build",
          "builders.construct", "pieces.exact", "pieces.sampled", "sup", "certify",
          "serialize.to_document", "serialize.from_document", "cli")


def _matrix_sizes(M) -> tuple[int, int]:
    """(nonzeros, dense-equivalent entries) of a dense or scipy.sparse matrix."""
    rows, cols = M.shape
    nnz = int(M.count_nonzero()) if hasattr(M, "count_nonzero") else int(np.count_nonzero(M))
    return nnz, rows * cols


def _network_sizes(net) -> dict:
    nnz = dense = 0
    for layer in net.layers:
        for M in (layer.W, layer.V):
            if M is not None:
                n, d = _matrix_sizes(M)
                nnz, dense = nnz + n, dense + d
        b = np.asarray(layer.b)
        nnz, dense = nnz + int(np.count_nonzero(b)), dense + b.size
    return {"nonzeros": nnz, "dense_params": dense}


def _points(hv, args, kwargs, result) -> dict:
    X = np.asarray(args[1] if len(args) > 1 else kwargs["X"])
    return {"points": int(X.shape[0]) if X.ndim else 1}


def _built(hv, args, kwargs, result) -> dict:
    return _network_sizes(result[0])


def _partition(hv, args, kwargs, result) -> dict:
    net = args[0] if args else kwargs["net"]
    return {"regions": result.piece_count, "bound": hv.analysis.piece_bound(net.arch)}


def _grid(hv, args, kwargs, result) -> dict:
    return {"grid_points": result.n_points}


def _certificate(hv, args, kwargs, result) -> dict:
    return {"labelings": result.labelings_tried}


def _doc_out(hv, args, kwargs, result) -> dict:
    return {"doc_bytes": len(result)}


def _doc_in(hv, args, kwargs, result) -> dict:
    return {"doc_bytes": len(args[0] if args else kwargs["text"])}


def traced_functions(hv) -> list[tuple[str, object, object]]:
    """(layer, owner, original) for every traced public function; the owner
    is the defining module, or the class for a method."""
    out = [
        ("networks.validate", hv.networks, hv.networks.validate),
        ("networks.evaluate_batch", hv.networks, hv.networks.evaluate_batch),
        ("builders.build", hv.dsl.NetBuilder, hv.dsl.NetBuilder.build),
        ("pieces.exact", hv.pieces, hv.pieces.exact_pieces),
        ("pieces.sampled", hv.pieces, hv.pieces.sampled_pieces),
        ("sup", hv.sup, hv.sup.sup_error),
        ("certify", hv.certify, hv.certify.shatter_verify),
        ("serialize.to_document", hv.serialize, hv.serialize.to_document),
        ("serialize.from_document", hv.serialize, hv.serialize.from_document),
        ("cli", hv.cli, hv.cli.run),
    ]
    for name in CONSTRUCTORS:
        fn = getattr(hv.builders, name)
        out.append(("builders.construct", sys.modules[fn.__module__], fn))
    return out


COUNTERS = {
    "networks.evaluate_batch": _points,
    "builders.build": _built,
    "pieces.exact": _partition,
    "sup": _grid,
    "certify": _certificate,
    "serialize.to_document": _doc_out,
    "serialize.from_document": _doc_in,
}


def bindings(original) -> list[tuple[object, str]]:
    """Every (heavinet module, attribute) whose value is ``original``."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "heavinet" or modname.startswith("heavinet.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


class Tracer:
    """In-memory span recorder.  A span is the list
    ``[layer, parent, item, start_ns, end_ns, after_ns, counts]``: the
    wrapped call runs from start to end, its counters from end to after."""

    def __init__(self, hv):
        self.hv = hv
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        count = COUNTERS.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, self.item, clock(), 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = span[5] = clock()
                stack.pop()
            if count is not None:
                span[6] = count(self.hv, args, kwargs, result)
                span[5] = clock()
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every traced function in every module that binds it, and
        restore the originals on exit."""
        undo = []
        try:
            for layer, owner, original in traced_functions(self.hv):
                wrapper = self.wrap(layer, original)
                if isinstance(owner, type):
                    targets = [(owner, original.__name__)]
                else:
                    targets = bindings(original)
                for target, attr in targets:
                    undo.append((target, attr, original))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)


def layer_metrics(spans: list[list], item_ns: list[int], scale: list[float],
                  overhead_ms: float) -> dict:
    """Per-item layer metrics from the spans of whole traced rounds.

    ``item_ns`` holds the traced wall time of every item run and ``scale``
    its factor to the reference machine speed (see run.Clock); the spans
    carry the index of the item run they belong to."""
    n_items = len(item_ns)
    self_ns = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts: dict[str, float] = {}
    inside = [0] * len(spans)          # footprint of children, per span
    outside = list(item_ns)            # item time outside top-level spans
    sampled_evals = builds_in_certify = 0
    ratios = []
    for i in range(len(spans) - 1, -1, -1):
        layer, parent, item, start, end, after, c = spans[i]
        self_ns[layer] += ((end - start) - inside[i]) * scale[item]
        calls[layer] += 1
        # counters ran between end and after: benchmark time, not the layer's
        outside[item] += after - end
        if parent >= 0:
            inside[parent] += after - start
            parent_layer = spans[parent][0]
            if layer == "networks.evaluate_batch" and parent_layer == "pieces.sampled":
                sampled_evals += 1
            if layer == "builders.construct" and parent_layer == "certify":
                builds_in_certify += 1
        else:
            outside[item] -= after - start
        if c:
            for key, v in c.items():
                counts[key] = counts.get(key, 0) + v
            if layer == "pieces.exact":
                ratios.append(c["regions"] / c["bound"])
    bench_ns = float(np.dot(outside, scale))

    def per_item_ms(ns):
        return ns / 1e6 / n_items

    labelings = counts.get("labelings", 0)
    values = {
        "networks.validate.calls": calls["networks.validate"] / n_items,
        "networks.validate.self_ms": per_item_ms(self_ns["networks.validate"]),
        "networks.evaluate_batch.calls": calls["networks.evaluate_batch"] / n_items,
        "networks.evaluate_batch.points": counts.get("points", 0) / n_items,
        "networks.evaluate_batch.self_ms": per_item_ms(self_ns["networks.evaluate_batch"]),
        "builders.build.calls": calls["builders.build"] / n_items,
        "builders.build.self_ms": per_item_ms(self_ns["builders.build"]),
        "builders.construct.self_ms": per_item_ms(self_ns["builders.construct"]),
        "builders.nonzeros": counts.get("nonzeros", 0) / n_items,
        "builders.dense_params": counts.get("dense_params", 0) / n_items,
        "pieces.exact.self_ms": per_item_ms(self_ns["pieces.exact"]),
        "pieces.sampled.self_ms": per_item_ms(self_ns["pieces.sampled"]),
        "pieces.sampled.eval_calls": sampled_evals / n_items,
        "pieces.regions": counts.get("regions", 0) / n_items,
        "pieces.regions_to_bound": statistics.fmean(ratios) if ratios else 0.0,
        "sup.self_ms": per_item_ms(self_ns["sup"]),
        "sup.grid_points": counts.get("grid_points", 0) / n_items,
        "certify.self_ms": per_item_ms(self_ns["certify"]),
        "certify.labelings": labelings / n_items,
        "certify.builds_per_labeling": builds_in_certify / labelings if labelings else 0.0,
        "serialize.to_document.self_ms": per_item_ms(self_ns["serialize.to_document"]),
        "serialize.from_document.self_ms": per_item_ms(self_ns["serialize.from_document"]),
        "serialize.doc_bytes": counts.get("doc_bytes", 0) / n_items,
        "cli.self_ms": per_item_ms(self_ns["cli"]),
        "bench.self_ms": per_item_ms(bench_ns),
        "trace.item_ms": per_item_ms(float(np.dot(item_ns, scale))),
        "trace.overhead_ms": overhead_ms,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}


def dump(spans: list[list], n_items: int) -> list[dict]:
    """Spans of the first ``n_items`` item runs as JSON-ready records, with
    times in microseconds from the first span."""
    chosen = [s for s in spans if s[2] < n_items]
    t0 = chosen[0][3] if chosen else 0
    return [{"id": k, "layer": s[0], "parent": s[1], "item": s[2],
             "start_us": (s[3] - t0) / 1e3, "end_us": (s[4] - t0) / 1e3,
             "counts": s[6]} for k, s in enumerate(chosen)]
