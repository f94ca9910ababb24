"""CLI behavior: subcommands, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from heavinet import builders
from heavinet.cli import run
from heavinet.targets import TARGETS


def _run(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_build_square_with_guarantee(tmp_path, capsys):
    out = tmp_path / "net.json"
    code, _ = _run(capsys, "build", "square", "--L", "3", "--p1", "1",
                   "--skips", "1,0", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["guarantee"]["sup_error_bound"] == 0.25
    assert doc["widths"] == [1, 1, 2, 3, 1]


def test_validate_and_eval(tmp_path, capsys):
    net = tmp_path / "net.json"
    _run(capsys, "build", "parity", "--d", "2", "-o", str(net))
    code, out = _run(capsys, "validate", str(net))
    assert code == 0 and out.strip() == "ok"

    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,-0.3\n-1.0,-1.0\n")
    code, out = _run(capsys, "eval", str(net), "--points", str(pts))
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "x1,x2,y1"
    assert rows[1].endswith(",-1.0") and rows[2].endswith(",1.0")


@pytest.mark.parametrize("text, message", [
    ("0.5,0.5\n0.1\n", "line 2: expected 2 numbers, got 1"),
    ("0.5,0.5\n\n0.1,0.2,0.3\n", "line 3: expected 2 numbers, got 3"),
    ("0.5,x\n", "line 1: could not convert string to float: 'x'"),
])
def test_eval_points_refusal_names_the_file_and_line(tmp_path, capsys, text, message):
    net = tmp_path / "net.json"
    _run(capsys, "build", "parity", "--d", "2", "-o", str(net))
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    code = run(["eval", str(net), "--points", str(pts)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {pts} {message}\n"


def test_eval_refuses_a_grid_or_file_without_points(tmp_path, capsys):
    net = tmp_path / "net.json"
    _run(capsys, "build", "parity", "--d", "2", "-o", str(net))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for source, message in ((["--grid", "0"], "--grid needs at least one interval"),
                            (["--points", str(empty)], f"no points in {empty}")):
        code = run(["eval", str(net), *source])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_pieces_subcommand(tmp_path, capsys):
    net = tmp_path / "net.json"
    _run(capsys, "build", "square", "--L", "2", "--p1", "1", "--skips", "0",
         "-o", str(net))
    code, out = _run(capsys, "pieces", str(net), "--from", "0", "--to", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["piece_count"] == 2 and doc["breakpoints"] == [0.5]
    code, out = _run(capsys, "pieces", str(net), "--from", "0", "--to", "1",
                     "--sampled", "1000")
    assert code == 0 and out.strip() == "pieces,2"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_pieces_refine_tol_must_be_positive(tmp_path, capsys, tol):
    net = tmp_path / "net.json"
    _run(capsys, "build", "square", "--L", "2", "--p1", "1", "--skips", "0",
         "-o", str(net))
    code = run(["pieces", str(net), "--from", "0", "--to", "1",
                "--sampled", "100", f"--refine-tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "refine_tol > 0" in captured.err


@pytest.mark.parametrize("frm, to", [("nan", "1"), ("1e308", "-1e308")])
def test_pieces_refuses_a_segment_that_is_not_finite(tmp_path, capsys, frm, to):
    # a NaN endpoint used to reach propagation, and an overflowing
    # direction x2 - x1 = -inf gave a wrong two-piece document with exit 0
    net = tmp_path / "b.json"
    _run(capsys, "build", "bits", "--radix", "4,2,2", "-o", str(net))
    for sampled in ([], ["--sampled", "100"]):
        code = run(["pieces", str(net), f"--from={frm}", f"--to={to}", *sampled])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: segment ") and "must be finite" in captured.err


def test_pieces_refuses_a_segment_of_the_wrong_dimension(tmp_path, capsys):
    net = tmp_path / "b.json"
    _run(capsys, "build", "bits", "--radix", "2,2", "-o", str(net))
    code = run(["pieces", str(net), "--from", "0,0", "--to", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: segment endpoints must match the input dimension\n"


def test_holder_target_choices_are_the_target_table(capsys):
    for argv in (["build", "holder", "--kind", "skip"], ["sweep", "holder"]):
        assert run(argv + ["--m", "1", "--n", "0", "--target", "nope"]) == 2
        err = capsys.readouterr().err
        assert "(choose from " + ", ".join(map(repr, TARGETS)) + ")" in err


def test_bounds_hand_value(capsys):
    code, out = _run(capsys, "bounds", "--kind", "skip", "--L", "4", "--p", "8", "--s", "1")
    assert code == 0
    assert ",38400.0," in out.splitlines()[1]


def test_bounds_notes_an_unmet_vc_precondition(capsys):
    code, out = _run(capsys, "bounds", "--kind", "skip", "--L", "2", "--p", "1", "--s", "1")
    assert code == 0
    rows = out.splitlines()
    assert rows[1] == "skip,2,1,1,1,4,precondition-unmet,0.125"
    assert rows[2] == ("note,vc formula precondition unmet "
                       "(needs rectangular width >= max(d, s, 2))")


def test_bounds_past_the_float_range(capsys):
    code, out = _run(capsys, "bounds", "--kind", "skip", "--L", "2000", "--p", "1000", "--s", "1")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[:5] == ["skip", "2000", "1000", "1", "1"]
    assert int(row[5]) == 1001 * 2 ** 1999
    assert float(row[6]) > 0 and row[7] == "0.0"


@pytest.mark.parametrize("argv, message", [
    (["--kind", "lin", "--L", "100000000", "--p", "100000000", "--s", "1"],
     "depth 100000000 exceeds heavinet's cap of 10000"),
    (["--kind", "skip", "--L", "20000", "--p", "10", "--s", "1"],
     "depth 20000 exceeds heavinet's cap of 10000"),
    (["--kind", "plain", "--L", "3", "--p", "1000001"],
     "width 1000001 exceeds heavinet's cap of 1000000"),
    (["--kind", "plain", "--L", "3", "--p", "2", "--d", "1000001"],
     "width 1000001 exceeds heavinet's cap of 1000000"),
    (["--kind", "plain", "--L", "-5", "--p", "2"], "depth -5 < 1"),
])
def test_bounds_refuses_oversized_architectures_before_making_them(capsys, argv, message):
    code = run(["bounds", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bounds: {message}\n"


def test_bounds_prints_every_digit_at_the_caps(capsys):
    # 1000001^10000 has 60 001 digits, past Python's int-to-str limit
    code, out = _run(capsys, "bounds", "--kind", "lin", "--L", "10000", "--p", "1000000",
                     "--s", "1000000", "--d", "1000000")
    assert code == 0
    digits = out.splitlines()[1].split(",")[5]
    assert len(digits) == math.floor(10000 * math.log10(1000001)) + 1
    assert digits[-12:] == f"{pow(1000001, 10000, 10 ** 12):012d}"


def test_bounds_value_range_is_finite_and_exact(capsys):
    argv = ["bounds", "--kind", "skip", "--L", "3", "--p", "2", "--s", "1"]
    assert run([*argv, "--hi", "inf"]) == 2
    assert capsys.readouterr().err == "error: value range must be finite and satisfy sup >= inf\n"
    # the span overflows a float; the exact difference does not
    code, out = _run(capsys, *argv, "--lo=-1e308", "--hi", "1e308")
    assert code == 0 and out.splitlines()[1].endswith(f",{1e308 / 12!r}")


@pytest.mark.parametrize("argv", [
    ["--kind", "skip", "--L", "3", "--p", "2", "--s", "-1"],
    ["--kind", "lin", "--L", "3", "--p", "2", "--s", "-1"],
    ["--kind", "plain", "--L", "3", "--p", "0"],
    ["--kind", "plain", "--L", "3", "--p", "2", "--d", "0"],
    ["--kind", "skip", "--L", "3", "--p", "2", "--s", "5"],
])
def test_bounds_rejects_malformed_architectures(capsys, argv):
    code = run(["bounds", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid architecture: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, power", [
    (["--kind", "lin", "--m", "1", "--n", "1", "--t", "6"], "2^16384 labelings"),
    (["--kind", "skip", "--m", "8000", "--n", "0"], "2^16000 points"),
])
def test_shatter_caps_name_the_power(capsys, argv, power):
    code = run(["shatter", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert power in captured.err and "digits" not in captured.err


@pytest.mark.parametrize("geometry, message", [
    (["--kind", "skip", "--m", "1", "--n", "-2"], "geometry requires d >= 1 and m, n, t >= 0"),
    (["--kind", "skip", "--m", "-1", "--n", "2"], "geometry requires d >= 1 and m, n, t >= 0"),
    (["--kind", "lin", "--m", "-2", "--n", "0", "--t", "1"],
     "geometry requires d >= 1 and m, n, t >= 0"),
    (["--kind", "lin", "--m", "0", "--n", "0", "--t", "-1"],
     "geometry requires d >= 1 and m, n, t >= 0"),
    (["--kind", "skip", "--m", "0", "--n", "0", "--t", "1"], "skip geometry has no t parameter"),
    (["--kind", "skip", "--m", "1", "--n", "0", "--t", "1"], "skip geometry has no t parameter"),
])
def test_shatter_refuses_an_invalid_geometry(capsys, geometry, message):
    # a geometry whose levels add up to 0 used to pass as the one-point set
    for argv in (["shatter", *geometry], ["build", "shatter-net", *geometry, "--labels", "1"]):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"error: {message}\n", argv


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_shatter_refuses_fewer_than_one_sampled_labeling(capsys, sample):
    code = run(["shatter", "--kind", "skip", "--m", "1", "--n", "0", "--sample", sample])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: sample_labelings must be at least 1, got {sample}\n"


@pytest.mark.parametrize("sample", ["16", "100"])
def test_shatter_sample_of_every_labeling_enumerates_them(capsys, sample):
    # 4 points have 16 labelings: a sample that large tries each once
    code, out = _run(capsys, "shatter", "--kind", "skip", "--m", "1", "--n", "0",
                     "--sample", sample)
    doc = json.loads(out)
    assert code == 0 and doc["failures"] == []
    assert doc["exhaustive"] is True and doc["labelings_tried"] == 16


def test_shatter_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _ = _run(capsys, "shatter", "--kind", "skip", "--m", "1", "--n", "1",
                   "-o", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    assert doc["labelings_tried"] == 256 and doc["failures"] == []


def test_sweep_square_table(capsys):
    code, out = _run(capsys, "sweep", "square", "--L", "2..3", "--s", "1..1",
                     "--grid", "2000")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "L,s,bound,measured_sup_error,ratio"
    assert len(rows) == 3
    for row in rows[1:]:
        ratio = float(row.split(",")[-1])
        assert 0.5 <= ratio <= 1.0


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = _run(capsys, "build", "decoder", "--kind", "lin", "--m", "1",
                       "--n", "0", "--t", "1", "--payload", "random",
                       "--seed", "7", "-o", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors(tmp_path, capsys):
    assert run(["no-such-command"]) == 2
    assert run(["build", "square", "--L", "3", "--p1", "1", "--skips", "1,1"]) == 2
    assert run(["eval", str(tmp_path / "missing.json"), "--grid", "3"]) == 2


def test_verification_failure_exit(tmp_path, capsys):
    # a parseable document with a broken skip budget trips validate: exit 1
    net = tmp_path / "net.json"
    _run(capsys, "build", "bits", "--radix", "2,2", "-o", str(net))
    doc = json.loads(net.read_text())
    doc["skip_counts"] = [0]  # the construction actually taps the input
    net.write_text(json.dumps(doc))
    code = run(["validate", str(net)])
    out = capsys.readouterr().out
    assert code == 1 and "skip budget exceeded" in out


def _nan(rows, i, j=None):
    if j is None:
        rows[i] = float("nan")
    else:
        rows[i][j] = float("nan")


# a build square --L 3 --p1 1 --skips 1,0 document (widths 1, 1, 2, 3, 1)
# broken twelve ways: each describes an invalid network
INVALID_NETWORKS = {
    "skip budget": (lambda doc: doc.update(skip_counts=[3, 0]),
                    "architecture: skip budget s_2=3 outside [0, p_2=2]"),
    "nan bias": (lambda doc: _nan(doc["layers"][1]["b"], 0), "layer 1: non-finite parameter"),
    "nan weight": (lambda doc: _nan(doc["layers"][2]["W"], 0, 0),
                   "layer 2: non-finite parameter"),
    "wide W": (lambda doc: [row.append(0.0) for row in doc["layers"][2]["W"]],
               "layer 2: W shape (3, 3), expected (3, 2)"),
    "probe": (lambda doc: doc["meta"]["probes"].update({"d1>=1": [2, 2]}), "probe 'd1>=1'"),
    "stage count": (lambda doc: doc["layers"].pop(),
                    "layers: 3 affine stages, expected L+1 = 4"),
    "b shape": (lambda doc: doc["layers"][1]["b"].append(0.0),
                "layer 1: b shape (3,), expected (2,)"),
    "V on stage 0": (lambda doc: doc["layers"][0].update(V=[[1.0]]),
                     "layer 0: V present outside hidden layers 2..L"),
    "V on stage L": (lambda doc: doc["layers"][3].update(V=[[1.0]]),
                     "layer 3: V present outside hidden layers 2..L"),
    "V shape": (lambda doc: doc["layers"][1].update(V=[[0.0, 0.0], [1.0, 0.0]]),
                "layer 1: V shape (2, 2), expected (2, 1)"),
    "skip_counts length": (lambda doc: doc.update(skip_counts=[1]),
                           "architecture: skip_counts has length 1, expected L-1 = 2"),
    # a sparse V is the only way into mat_nonzero_rows' CSR branch
    "sparse V over budget": (
        lambda doc: doc["layers"][1].update(
            V={"shape": [2, 1], "rows": [0, 1], "cols": [0, 0], "values": [1.0, 1.0]}),
        "layer 1: skip budget exceeded at layer 2 (2 nonzero rows of V > s_2=1)"),
}


def _square_doc(tmp_path, capsys):
    net = tmp_path / "net.json"
    _run(capsys, "build", "square", "--L", "3", "--p1", "1", "--skips", "1,0", "-o", str(net))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.25\n0.75\n")
    commands = (["validate", str(net)], ["eval", str(net), "--points", str(pts)],
                ["pieces", str(net), "--from", "0", "--to", "1"])
    return net, json.loads(net.read_text()), commands


@pytest.mark.parametrize("case", INVALID_NETWORKS)
def test_document_of_an_invalid_network_exits_1_with_its_violations(tmp_path, capsys, case):
    net, doc, commands = _square_doc(tmp_path, capsys)
    breaks, violation = INVALID_NETWORKS[case]
    breaks(doc)
    net.write_text(json.dumps(doc))
    said = []
    for argv in commands:
        code = run(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (1, ""), argv
        said.append(out)
    # the violations alone, the same for every command: no table, no partition
    assert said[0] == said[1] == said[2]
    assert any(line.startswith(violation) for line in said[0].splitlines())


@pytest.mark.parametrize("case", ["ragged row", "boolean entry", "truncated"])
def test_malformed_document_exits_2(tmp_path, capsys, case):
    net, doc, commands = _square_doc(tmp_path, capsys)
    if case == "ragged row":
        doc["layers"][2]["W"][1].append(0.0)
    elif case == "boolean entry":
        doc["layers"][2]["W"][0][0] = True
    text = json.dumps(doc)
    net.write_text(text[: len(text) // 2] if case == "truncated" else text)
    for argv in commands:
        code = run(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: $"), err


def test_round_trip_reload_evaluates_identically(tmp_path, capsys):
    from heavinet.networks import evaluate_batch
    from heavinet.serialize import from_document

    net = tmp_path / "net.json"
    _run(capsys, "build", "bits", "--radix", "2,3,2", "-o", str(net))
    loaded = from_document(net.read_text())
    X = np.random.default_rng(0).uniform(0, 1, (50, 1))
    first = evaluate_batch(loaded.net, X)
    again = from_document(net.read_text())
    assert np.array_equal(first, evaluate_batch(again.net, X))


@pytest.mark.parametrize("argv, points", [
    (["holder", "--kind", "skip", "--target", "x1x2", "--m", "3", "--n", "3"], 2001 ** 2),
    (["square", "--L", "2..3", "--s", "1", "--grid", "4000000"], 4000001),
    # 3 999 999 intervals miss the cell edge 1/2
    (["square", "--L", "2", "--s", "1", "--grid", "3999999"], 4000001),
])
def test_sweep_refuses_the_grid_before_building(monkeypatch, capsys, argv, points):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the grid was checked")
    monkeypatch.setattr(builders, "holder_approximator", no_build)
    monkeypatch.setattr(builders, "square_approximator", no_build)
    code = run(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: grid of {points} points exceeds the 4000000 cap\n"


@pytest.mark.parametrize("argv", [
    ["square", "--L", "2", "--s", "1", "--grid", "0"],
    ["square", "--L", "2", "--s", "1", "--grid", "-1"],
    ["holder", "--target", "x2", "--m", "1", "--n", "0", "--grid", "0"],
    ["holder", "--target", "x2", "--m", "1", "--n", "0", "--grid", "-2"],
])
def test_sweep_refuses_a_grid_without_intervals_before_building(monkeypatch, capsys, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the grid was checked")
    monkeypatch.setattr(builders, "holder_approximator", no_build)
    monkeypatch.setattr(builders, "square_approximator", no_build)
    code = run(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --grid needs at least one interval\n"


@pytest.mark.parametrize("argv, text", [
    (["square", "--L", "3..2", "--s", "1"], "3..2"),
    (["square", "--L", "2", "--s", "2..1"], "2..1"),
    (["square", "--L", "2", "--s", ","], ","),
    (["holder", "--target", "x2", "--m", "1..0", "--n", "0"], "1..0"),
    (["holder", "--target", "x2", "--m", "1", "--n", "5..4"], "5..4"),
])
def test_sweep_refuses_an_empty_range(monkeypatch, capsys, argv, text):
    def no_build(*args, **kwargs):
        raise AssertionError("built from an empty range")
    monkeypatch.setattr(builders, "holder_approximator", no_build)
    monkeypatch.setattr(builders, "square_approximator", no_build)
    code = run(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: empty range {text!r}\n"


def test_sweep_holder_table(capsys):
    code, out = _run(capsys, "sweep", "holder", "--target", "x2", "--m", "1..1",
                     "--n", "1..1", "--grid", "500")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "m,n,q,bound,measured_sup_error,ratio"
    assert float(rows[1].split(",")[3]) == 0.15625


def test_build_bits_and_shatter_net(tmp_path, capsys):
    net = tmp_path / "bits.json"
    code, _ = _run(capsys, "build", "bits", "--kind", "lin", "--L", "3",
                   "--variant", "wide", "-o", str(net))
    assert code == 0
    assert run(["build", "bits", "--kind", "lin"]) == 2  # missing --L
    assert run(["build", "bits"]) == 2                   # missing --radix
    snet = tmp_path / "snet.json"
    code, _ = _run(capsys, "build", "shatter-net", "--kind", "skip", "--m", "1",
                   "--n", "1", "--labels", "10110010", "-o", str(snet))
    assert code == 0
    code, _ = _run(capsys, "build", "decoder", "--kind", "skip", "--m", "1",
                   "--n", "1", "--payload", "10101010", "--r-select", "1",
                   "-o", str(tmp_path / "slice.json"))
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["rect", "--a", "nan", "--b", "1"], "hyperrectangle: a must be finite"),
    (["rect", "--a", "inf", "--b", "inf"], "hyperrectangle: a must be finite"),
    (["rect", "--a", "0", "--b=-inf"], "hyperrectangle: b must be finite"),
    (["pc1d", "--breakpoints", "nan", "--sides", "1", "--values", "0,1"],
     "piece spec: breakpoints must be finite"),
    (["pc1d", "--breakpoints", "0.5", "--sides", "1", "--values", "0,inf"],
     "piece spec: values must be finite"),
])
def test_non_finite_builder_arguments_exit_2_and_name_the_argument(tmp_path, capsys,
                                                                   argv, message):
    # refused by the builder, before a network with a non-finite weight is made
    out = tmp_path / "net.json"
    assert run(["build", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "non-finite parameter" not in err
    assert not out.exists()


@pytest.mark.parametrize("labels", ["0101x", "0121", " 1,0", "011", "01101"])
def test_bad_shatter_net_labels_exit_2_like_a_bad_payload(tmp_path, capsys, labels):
    assert run(["build", "shatter-net", "--kind", "skip", "--m", "1", "--n", "0",
                "--labels", labels, "-o", str(tmp_path / "net.json")]) == 2
    assert capsys.readouterr().err == "error: labels must be 4 characters of 0/1\n"
    assert run(["build", "decoder", "--kind", "skip", "--m", "1", "--n", "0",
                "--payload", labels, "-o", str(tmp_path / "dec.json")]) == 2
    assert capsys.readouterr().err == \
        "error: payload must be 4 characters of 0/1 (or 'random')\n"


def test_shatter_net_labels_ignore_surrounding_blanks(tmp_path, capsys):
    plain, padded = tmp_path / "plain.json", tmp_path / "padded.json"
    for labels, out in (("0110", plain), (" 0110 ", padded)):
        assert run(["build", "shatter-net", "--kind", "skip", "--m", "1", "--n", "0",
                    "--labels", labels, "-o", str(out)]) == 0
    assert plain.read_bytes() == padded.read_bytes()


def test_eval_grid_cap(tmp_path, capsys):
    net = tmp_path / "net.json"
    _run(capsys, "build", "rect", "--a", "0,0,0", "--b", "1,1,1", "-o", str(net))
    assert run(["eval", str(net), "--grid", "4000"]) == 2  # 4001^3 over the cap


@pytest.mark.parametrize("chunk", [7, 250_000])
def test_eval_grid_writes_the_whole_table_in_blocks(tmp_path, capsys, monkeypatch, chunk):
    # the table a grid evaluation writes block by block, to a file and to
    # stdout, has the bytes of the whole grid built at once and written whole
    from heavinet.analysis import sup
    from heavinet.networks import evaluate_batch
    from heavinet.serialize import from_document

    monkeypatch.setattr(sup, "GRID_CHUNK", chunk)
    net = tmp_path / "net.json"
    _run(capsys, "build", "rect", "--a", "0.2,0.3", "--b", "0.7,0.9", "-o", str(net))
    n = 9
    axes = [np.arange(n + 1) / n] * 2
    X = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    Y = evaluate_batch(from_document(net.read_text()).net, X)
    want = "\n".join(["x1,x2,y1"] + [",".join(repr(float(v)) for v in (*xr, *yr))
                                      for xr, yr in zip(X, Y)]) + "\n"
    out = tmp_path / "grid.csv"
    code, _ = _run(capsys, "eval", str(net), "--grid", str(n), "-o", str(out))
    assert code == 0 and out.read_bytes() == want.encode()
    code, printed = _run(capsys, "eval", str(net), "--grid", str(n))
    assert code == 0 and printed == want


def test_build_xor(tmp_path, capsys):
    from heavinet.networks import evaluate_batch
    from heavinet.serialize import from_document

    net = tmp_path / "xor.json"
    assert _run(capsys, "build", "xor", "-o", str(net)) == (0, "")
    X = np.array([[0.5, -0.5], [-0.5, 0.5], [0.5, 0.5], [-0.5, -0.5]])
    Y = evaluate_batch(from_document(net.read_text()).net, X)
    assert Y[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("message, line", [
    ((), "error: out of memory\n"),
    (("Unable to allocate 8.00 GiB for an array",),
     "error: Unable to allocate 8.00 GiB for an array\n"),
])
def test_memory_error_is_a_usage_error_on_one_line(monkeypatch, capsys, message, line):
    # exit 1 means "verification failed"; running out of memory is not that
    def exhausted(*args, **kwargs):
        raise MemoryError(*message)
    monkeypatch.setattr(builders, "square_approximator", exhausted)
    code = run(["build", "square", "--L", "2", "--p1", "1", "--skips", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == line


def test_lin_decoder_packing_is_refused_before_the_payload_is_drawn(capsys):
    # R = 2^12 bits per packed column; the 2^24-entry payload is never made
    import tracemalloc

    run(["bounds", "--kind", "plain", "--L", "1", "--p", "1"])  # the parser, made once
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run(["build", "decoder", "--kind", "lin", "--m", "0", "--n", "0", "--t", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: lin decoder packing needs 2^12 binary digits, "
                            "more than a float64 significand holds (52)\n")
    assert peak < 10 * 2**20


def test_lin_decoder_packing_compares_the_exponent(capsys):
    # 2^15000 has more decimal digits than Python prints from an int
    code = run(["build", "decoder", "--kind", "lin", "--m", "0", "--n", "0", "--t", "15000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: lin decoder packing needs 2^15000 binary digits, "
                            "more than a float64 significand holds (52)\n")
    assert "Exceeds the limit" not in captured.err


def test_oversized_square_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # B(B+1)/2 = 50 005 000 AND neurons in the product layer
    import time

    def never(*args, **kwargs):
        raise AssertionError("square_approximator called")

    monkeypatch.setattr(builders, "square_approximator", never)
    out = tmp_path / "sq.json"
    t0 = time.perf_counter()
    code = run(["build", "square", "--L", "2", "--p1", "10000", "--skips", "0", "-o", str(out)])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: network has 500150030001 dense-equivalent parameters; "
                            "documents are capped at 4194304\n")
    assert not out.exists()


def test_sweep_refuses_an_oversized_square_before_any_build(capsys, monkeypatch):
    # s = 1 is small, but s = 10 000 is checked before it is built
    def never(*args, **kwargs):
        raise AssertionError("square_approximator called")

    monkeypatch.setattr(builders, "square_approximator", never)
    code = run(["sweep", "square", "--L", "2", "--s", "1,10000", "--grid", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: network has 500150030001 dense-equivalent parameters; "
                            "documents are capped at 4194304\n")


def test_a_radix_past_int_to_str_limits_names_the_digit_budget(capsys):
    code = run(["build", "bits", "--radix", ",".join(["2"] * 20_000)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: radix prefix product {2**53} needs 53 binary digits, "
                            "more than a float64 significand holds (52)\n")


@pytest.mark.parametrize("geometry, budget", [
    (("skip", "1", "1", "0"), "depth"),
    (("skip", "1", "1", "0"), "width"),
    (("lin", "1", "0", "1"), "identity_neurons"),
])
def test_shatter_certificate_over_a_budget_exits_1(monkeypatch, capsys, geometry, budget):
    import heavinet.analysis.certify as certify

    real = certify.shatter_budgets

    def tight(*args):
        return {**real(*args), budget: 0}
    monkeypatch.setattr(certify, "shatter_budgets", tight)
    kind, m, n, t = geometry
    code, out = _run(capsys, "shatter", "--kind", kind, "--m", m, "--n", n, "--t", t)
    doc = json.loads(out)
    assert code == 1 and doc["failures"] == []
    assert '"budgets_respected": false' in out


def test_build_over_document_cap_is_a_usage_error(tmp_path, capsys):
    # 181 074 nonzeros, 140 696 295 dense-equivalent parameters
    out = tmp_path / "f.json"
    code = run(["build", "holder", "--kind", "skip", "--target", "x1x2", "--m", "2",
                "--n", "2", "-o", str(out)])
    assert code == 2
    assert "140696295 dense-equivalent parameters" in capsys.readouterr().err
    assert not out.exists()


def _holder_doc(tmp_path, capsys):
    """A build holder document with sparse layers, the commands that read
    it, and the index of its first layer whose W is written sparse with more
    than one entry."""
    net = tmp_path / "holder.json"
    _run(capsys, "build", "holder", "--kind", "skip", "--target", "x2", "--m", "2", "--n", "0",
         "-o", str(net))
    doc = json.loads(net.read_text())
    first = next(i for i, layer in enumerate(doc["layers"])
                 if isinstance(layer["W"], dict) and len(layer["W"]["values"]) > 1)
    pts = tmp_path / "pts.csv"
    pts.write_text("0.25\n0.75\n")
    commands = (["validate", str(net)], ["eval", str(net), "--points", str(pts)],
                ["pieces", str(net), "--from", "0", "--to", "1"])
    return net, doc, first, commands


@pytest.mark.parametrize("case", ["dense row", "bias", "sparse values"])
def test_integer_past_float64_exits_2(tmp_path, capsys, case):
    if case == "sparse values":
        net, doc, i, commands = _holder_doc(tmp_path, capsys)
        doc["layers"][i]["W"]["values"][0] = 10 ** 400
        path = f"$.layers[{i}].W.values"
    else:
        net, doc, commands = _square_doc(tmp_path, capsys)
        if case == "dense row":
            doc["layers"][2]["W"][1][0] = 10 ** 400
            path = "$.layers[2].W"
        else:
            doc["layers"][1]["b"][0] = -10 ** 400
            path = "$.layers[1].b"
    net.write_text(json.dumps(doc))
    for argv in commands:
        code = run(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {path}: "), err


def _unsort(W):
    for key in ("rows", "cols", "values"):
        W[key][0], W[key][1] = W[key][1], W[key][0]


MALFORMED_SPARSE = {
    "lengths differ": (lambda W: W["rows"].pop(), ""),
    "unsorted": (_unsort, ""),
    "bad shape": (lambda W: W.update(shape=[W["shape"][0], -1]), ".shape"),
}


@pytest.mark.parametrize("case", MALFORMED_SPARSE)
def test_malformed_sparse_entry_exits_2(tmp_path, capsys, case):
    net, doc, i, commands = _holder_doc(tmp_path, capsys)
    breaks, suffix = MALFORMED_SPARSE[case]
    breaks(doc["layers"][i]["W"])
    net.write_text(json.dumps(doc))
    for argv in commands:
        code = run(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: $.layers[{i}].W{suffix}: "), err


def test_sparse_shape_disagreeing_with_the_widths_exits_1(tmp_path, capsys):
    net, doc, i, commands = _holder_doc(tmp_path, capsys)
    rows, cols = doc["layers"][i]["W"]["shape"]
    doc["layers"][i]["W"]["shape"] = [rows, cols + 1]
    net.write_text(json.dumps(doc))
    for argv in commands:
        code = run(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (1, ""), argv
        assert f"layer {i}: W shape ({rows}, {cols + 1}), expected ({rows}, {cols})" in out


def test_runs_in_one_process_share_no_state(tmp_path, capsys):
    a = tmp_path / "a.json"
    build = ["build", "square", "--L", "3", "--p1", "1", "--skips", "1,0"]
    assert _run(capsys, *build, "-o", str(a)) == (0, "")
    assert _run(capsys, *build) == (0, a.read_text() + "\n")  # to stdout, not to A
    segment = ["pieces", str(a), "--from", "0", "--to", "1"]
    code, sampled = _run(capsys, *segment, "--sampled", "1000")
    assert code == 0
    code, exact = _run(capsys, *segment)  # the partition, not a sampled count
    assert code == 0
    assert sampled == f"pieces,{json.loads(exact)['piece_count']}\n"


def test_parser_is_made_on_first_run_not_at_import():
    probe = ("import heavinet.cli as cli; n = cli.build_parser.cache_info().currsize; "
             "cli.run(['bounds', '--kind', 'plain', '--L', '2', '--p', '2']); "
             "cli.run(['bounds', '--kind', 'plain', '--L', '3', '--p', '2']); "
             "print(n, cli.build_parser.cache_info().misses)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 1"


def test_documents_share_one_compact_json_style(tmp_path, capsys):
    net, cert = tmp_path / "net.json", tmp_path / "cert.json"
    _run(capsys, "build", "square", "--L", "2", "--p1", "1", "--skips", "0", "-o", str(net))
    code, pieces = _run(capsys, "pieces", str(net), "--from", "0", "--to", "1")
    assert code == 0
    assert _run(capsys, "shatter", "--kind", "skip", "--m", "1", "--n", "1",
                "-o", str(cert)) == (0, "")
    for text in (net.read_text(), pieces.rstrip("\n"), cert.read_text()):
        assert text == json.dumps(json.loads(text))
