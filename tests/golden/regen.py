"""The golden identity manifest: one ``name sha256`` line per output.

It covers the construction documents of every ``build`` sub-command, run
through ``heavinet.cli.run`` over the ``tests/netgen.py`` specs and the
``documents`` benchmark specs with fixed payload seeds; the network each
of those documents parses to (``network.*``: per matrix its storage, shape
and bytes, and every bias), so a change of encoding that keeps the parsed
networks bit for bit shows as changed ``build.*`` lines only; the
``shatter_template`` arrays; the ``shatter`` certificates of four
geometries; and ``cli.flags``, a canonical dump of every leaf sub-parser's
options.  Builders do no BLAS arithmetic, so these hashes hold on any
machine.  Sweep and ``eval`` tables stay out: their numbers pass through
BLAS products.

``tests/test_golden.py`` rebuilds every output and compares it with
``manifest.sha256``.  A change that alters an output on purpose rewrites
the manifest with::

    PYTHONPATH=src python tests/golden/regen.py

and names the changed lines, with the reason, in its change notes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.sha256"
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from netgen import HOLDERS, LIN_EXTRACTORS, RADICES, SQUARES  # noqa: E402


def _bits(seed: int, count: int) -> str:
    return "".join(map(str, np.random.default_rng(seed).integers(0, 2, count)))


def build_specs() -> dict[str, list[str]]:
    """``build`` argument vectors by output name."""
    specs = {
        "rect-2": ["rect", "--a", "0.125,0.3", "--b", "0.5,0.71"],
        "rect-3": ["rect", "--a", "0.1,0.2,0.3", "--b", "0.6,0.7,0.8"],
        "parity-2": ["parity", "--d", "2"],
        "parity-3": ["parity", "--d", "3"],
        "xor": ["xor"],
        "pc1d": ["pc1d", "--breakpoints", "0.25,0.5,0.8", "--sides", "1,-1,1",
                 "--values", "0,1,-0.5,2"],
    }
    for L, s in SQUARES + ((2, 1), (3, 1)):
        specs[f"square-{L}-{s}"] = ["square", "--L", str(L), "--p1", str(s),
                                    "--skips", ",".join([str(s)] * (L - 2) + ["0"])]
    for radix in RADICES + ((4, 2, 2, 2, 2, 2), (2, 3, 2)):
        specs[f"bits-{'x'.join(map(str, radix))}"] = ["bits", "--radix",
                                                      ",".join(map(str, radix))]
    for L, variant in LIN_EXTRACTORS + ((8, "wide"), (8, "narrow")):
        specs[f"bits-lin-{L}-{variant}"] = ["bits", "--kind", "lin", "--L", str(L),
                                            "--variant", variant]
    for target, kind, m, n, t in HOLDERS + (("x2", "skip", 1, 0, None),
                                            ("x3mx", "lin", 1, 0, 2)):
        args = ["holder", "--kind", kind, "--target", target, "--m", str(m), "--n", str(n)]
        specs[f"holder-{target}-{kind}-{m}{n}{t or ''}"] = args + (["--t", str(t)] if t else [])
    for seed, (kind, m, n, t) in enumerate((("skip", 1, 1, 0), ("skip", 2, 2, 0),
                                            ("skip", 1, 0, 0), ("lin", 1, 0, 1),
                                            ("lin", 1, 1, 1), ("lin", 0, 1, 2))):
        specs[f"decoder-{kind}-{m}{n}{t}"] = ["decoder", "--kind", kind, "--m", str(m),
                                              "--n", str(n), "--t", str(t),
                                              "--seed", str(seed)]
    specs["decoder-skip-110-payload"] = ["decoder", "--kind", "skip", "--m", "1", "--n", "1",
                                         "--payload", "10110010"]
    specs["decoder-skip-111-r2"] = ["decoder", "--kind", "skip", "--m", "1", "--n", "1",
                                    "--r-select", "2", "--seed", "3"]
    for seed, (kind, m, n, t) in enumerate((("skip", 1, 1, 0), ("skip", 0, 0, 0),
                                            ("lin", 1, 1, 1), ("lin", 0, 0, 0))):
        levels = 2 * m + n if kind == "skip" else m + n + 2 * t
        specs[f"shatter-net-{kind}-{m}{n}{t}"] = ["shatter-net", "--kind", kind, "--m", str(m),
                                                  "--n", str(n), "--t", str(t), "--labels",
                                                  _bits(100 + seed, 2 ** levels)]
    return specs


TEMPLATES = (("skip", 1, 1, 0), ("skip", 2, 0, 0), ("skip", 0, 0, 0),
             ("lin", 1, 0, 1), ("lin", 1, 1, 1), ("lin", 0, 0, 0))
CERTIFICATES = (("skip", 1, 1, 0), ("lin", 1, 0, 1), ("skip", 0, 0, 0), ("lin", 0, 0, 0))


def _cli(argv: list[str]) -> bytes:
    """stdout of one in-process run, which must exit 0."""
    from heavinet.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"heavinet {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _template_bytes(kind: str, m: int, n: int, t: int) -> bytes:
    from heavinet.builders.shatter import shatter_template
    from heavinet.serialize import to_document

    tpl = shatter_template(kind, m, n, t)
    parts = [to_document(tpl.net).encode()]
    for name, dtype in (("points", "<f8"), ("stage", "<i8"), ("row", "<i8"), ("col", "<i8"),
                        ("starts", "<i8"), ("site_cell", "<i8"), ("site_coef", "<f8")):
        a = np.ascontiguousarray(getattr(tpl, name), dtype=dtype)
        parts.append(f"{name}{a.shape}".encode() + a.tobytes())
    return b"\0".join(parts)


def _matrix_bytes(M) -> bytes:
    """A matrix's storage, shape, value type and stored bytes: CSR as its
    ``indptr``, ``indices`` and ``data``, a dense array as its row-major
    values.  Index arrays are widened to int64, whichever width scipy
    chose."""
    if hasattr(M, "indptr"):
        head = f"csr{M.shape}{M.data.dtype.str}"
        parts = [np.ascontiguousarray(M.indptr, dtype="<i8"),
                 np.ascontiguousarray(M.indices, dtype="<i8"),
                 np.ascontiguousarray(M.data, dtype="<f8")]
    else:
        head = f"dense{M.shape}{M.dtype.str}"
        parts = [np.ascontiguousarray(M, dtype="<f8")]
    return head.encode() + b"\0".join(a.tobytes() for a in parts)


def _network_bytes(doc: bytes) -> bytes:
    """The canonical form of the network a document parses to: per layer
    ``W``, ``b`` and ``V`` (or ``-``)."""
    from heavinet.serialize import from_document

    parts = []
    for layer in from_document(doc.decode()).net.layers:
        parts += [_matrix_bytes(layer.W),
                  np.ascontiguousarray(layer.b, dtype="<f8").tobytes(),
                  b"-" if layer.V is None else _matrix_bytes(layer.V)]
    return b"\0".join(parts)


def _describe(parser: argparse.ArgumentParser) -> dict:
    options = [{"options": a.option_strings, "dest": a.dest, "default": a.default,
                "choices": None if a.choices is None else list(a.choices),
                "required": a.required, "nargs": a.nargs, "help": a.help,
                "type": None if a.type is None else a.type.__name__}
               for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    groups = [{"required": g.required, "options": [a.dest for a in g._group_actions]}
              for g in parser._mutually_exclusive_groups]
    return {"actions": options, "exclusive": groups}


def flags_dump() -> bytes:
    """Every leaf sub-parser's options, as canonical JSON keyed by command
    path."""
    from heavinet.cli import build_parser

    leaves = {}

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            leaves[" ".join(path)] = _describe(parser)
        for action in subs:
            for name, child in action.choices.items():
                walk(child, path + [name])

    walk(build_parser(), [])
    return json.dumps(leaves, sort_keys=True).encode()


def outputs():
    """Yield ``(name, bytes)`` for every manifest line, in manifest order."""
    docs = {name: _cli(["build", *argv]) for name, argv in build_specs().items()}
    for name, doc in docs.items():
        yield f"build.{name}", doc
    for name, doc in docs.items():
        yield f"network.{name}", _network_bytes(doc)
    for kind, m, n, t in TEMPLATES:
        yield f"template.{kind}-{m}{n}{t}", _template_bytes(kind, m, n, t)
    for kind, m, n, t in CERTIFICATES:
        yield f"shatter.{kind}-{m}{n}{t}", _cli(["shatter", "--kind", kind, "--m", str(m),
                                                 "--n", str(n), "--t", str(t)])
    yield "cli.flags", flags_dump()


def manifest_lines() -> list[str]:
    return [f"{name} {hashlib.sha256(data).hexdigest()}" for name, data in outputs()]


def main() -> None:
    lines = manifest_lines()
    MANIFEST.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {MANIFEST}")


if __name__ == "__main__":
    main()
