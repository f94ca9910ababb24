"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every workload's checks pass, that only the radix-3 and
radix-5 extractor items fail and for the named reason, and that the traced
run wraps every traced function in every heavinet module that binds it and
accounts for each item's time.
"""

import gc
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = ("segments", "extractors", "certify", "approx", "documents")


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    result = run.run_workload(name, seed=7, seconds=0.01, trace=False, tiny=True)
    assert result["correct"]
    hv = workloads.import_heavinet()
    workload = workloads.make_workload(name, tmp_path)
    assert result["attempted"] == len(workload.screen(hv, workload.make_items(hv, 7, True)))
    faulty = len(workloads.FAULTY_RADICES) if name == "extractors" else 0
    assert result["failed"] == faulty
    assert set(result["metrics"]) == {"items_per_s", "item_p50_ms", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_segment_screen_drops_only_segments_with_narrow_pieces(monkeypatch):
    hv = workloads.import_heavinet()
    wl = workloads.Segments()
    items = wl.make_items(hv, 7, tiny=False)[:200]
    assert wl.screen(hv, items) == items
    widths = {}
    for item in items:
        part = hv.analysis.exact_pieces(item.data["net"], item.data["x1"], item.data["x2"])
        widths[item.name] = min(np.diff(part.breakpoints), default=1.0)
    cut = float(np.quantile([w for w in widths.values() if w < 1.0], 0.5))
    monkeypatch.setattr(workloads, "MIN_PIECE", cut)
    kept = {item.name for item in wl.screen(hv, items)}
    assert kept == {name for name, w in widths.items() if w >= cut}
    assert 0 < len(kept) < len(items)


def test_calibration_leaves_the_collector_as_it_found_it():
    clock = run.Clock()
    assert gc.isenabled()
    gc.disable()
    try:
        clock.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()
    clock.calibrate()
    assert gc.isenabled() and len(clock.cal_ns) == 3


def test_scaling_check_runs():
    proc = subprocess.run([sys.executable, str(Path(run.__file__).with_name("scaling_check.py")),
                           "--workload", "segments", "--tiny", "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "calibration after: nothing 1.000" in proc.stdout
    assert proc.stdout.count("slowdown / its time alone") == 2


def test_faulty_extractors_fail_for_the_named_reason():
    hv = workloads.import_heavinet()
    wl = workloads.Extractors()
    items = wl.make_items(hv, 3, tiny=True)
    outputs = [item.run() for item in items]
    verdict = wl.check(hv, items, outputs)
    assert verdict.errors == []
    faulty = {i for i, item in enumerate(items) if item.data["faulty"]}
    assert {items[i].data["radix"] for i in faulty} == set(workloads.FAULTY_RADICES)
    assert set(verdict.failed) == faulty
    for i in faulty:
        exact, sampled = outputs[i]
        grid = workloads.literal_grid_count(hv, items[i].data["net"])
        assert exact == grid == math.prod(items[i].data["radix"])
        assert sampled < exact
        assert verdict.failed[i].startswith(workloads.FAULT)


def test_trace_rebinds_every_binding_and_restores_it():
    hv = workloads.import_heavinet()
    tracer = spans.Tracer(hv)
    traced = spans.traced_functions(hv)
    found = {id(fn): spans.bindings(fn) for _, owner, fn in traced if not isinstance(owner, type)}
    assert all(found.values())
    names = {(mod.__name__, attr) for b in found.values() for mod, attr in b}
    # nested call sites that must be caught
    for site in [("heavinet.analysis.pieces", "validate"),
                 ("heavinet.analysis.pieces", "evaluate_batch"),
                 ("heavinet.builders.dsl", "validate"),
                 ("heavinet.analysis.sup", "evaluate_batch"),
                 ("heavinet.analysis.certify", "shattering_net"),
                 ("heavinet.serialize", "validate"),
                 ("heavinet.cli", "to_document"),
                 ("heavinet.cli", "exact_pieces"),
                 ("heavinet.builders", "holder_approximator")]:
        assert site in names, site
    build = hv.dsl.NetBuilder.build
    with tracer.patched():
        for _, owner, fn in traced:
            sites = [(owner, fn.__name__)] if isinstance(owner, type) else found[id(fn)]
            for target, attr in sites:
                wrapper = getattr(target, attr)
                assert wrapper is not fn and wrapper.__wrapped__ is fn, (target, attr)
        # no heavinet module still holds an unwrapped original
        assert not any(spans.bindings(fn) for _, _, fn in traced)
    assert hv.dsl.NetBuilder.build is build
    assert all(spans.bindings(fn) == found[id(fn)]
               for _, owner, fn in traced if not isinstance(owner, type))


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_catches_nested_calls_and_accounts_for_item_time(name):
    result = run.run_workload(name, seed=7, seconds=0.01, trace=True, tiny=True)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {metric for metric, _ in spans.PER_LAYER_METRICS}
    self_ms = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert self_ms == pytest.approx(m["trace.item_ms"], rel=1e-9)
    if name == "segments":
        assert m["networks.validate.calls"] == 2      # one per exact and sampled call
        assert m["pieces.sampled.eval_calls"] >= 1
    if name in ("certify", "approx", "documents"):
        assert m["builders.build.calls"] >= 1 and m["builders.nonzeros"] > 0
        assert m["networks.validate.calls"] >= m["builders.build.calls"]
    if name == "certify":
        assert m["certify.builds_per_labeling"] == 1.0
    if name == "approx":
        assert m["sup.grid_points"] > 0 and m["networks.evaluate_batch.points"] > 0
    if name == "documents":
        assert m["serialize.doc_bytes"] > 0 and m["cli.self_ms"] > 0
        assert m["serialize.to_document.self_ms"] > 0
        assert m["serialize.from_document.self_ms"] > 0
    if name == "extractors":
        assert m["pieces.regions_to_bound"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SRC", tmp_path / "src")
    assert run.main(["--workload", "segments", "--seed", "1", "--seconds", "1"]) != 0
