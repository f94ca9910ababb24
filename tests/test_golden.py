"""The golden identity manifest: every construction document, shatter
template, certificate and the CLI's flag set hash as committed."""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_output_matches_the_committed_manifest():
    want = (GOLDEN / "manifest.sha256").read_text().splitlines()
    got = _regen().manifest_lines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    changed = [g.split()[0] for g, w in zip(got, want) if g != w]
    assert changed == [], "outputs differ from tests/golden/manifest.sha256"
