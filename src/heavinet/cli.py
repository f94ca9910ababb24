"""Command-line front end.

Subcommands::

    build {rect|parity|xor|pc1d|square|bits|decoder|holder|shatter-net} ... -o PATH
    eval NET (--points CSV | --grid N) [-o PATH]
    pieces NET --from CSV --to CSV [--sampled N] [--refine-tol T]
    sweep {square|holder} ... [-o PATH]
    shatter --kind K --m M --n N [--t T] [--sample S] [--seed SEED] [-o PATH]
    bounds --kind K --L L --p P [--s S] [--d D] [--lo LO] [--hi HI]
    validate NET

Networks and certificates travel as the JSON document format; sweeps and
eval output are comma-separated with a header row, numbers in full
round-trip precision.  Exit codes: 0 success, 1 verification failure (a
violated bound, a failed certificate, a document of an invalid network,
whose violations go to stdout one per line), 2 usage or IO errors,
malformed documents included.  Repeated runs with identical inputs and
flags produce byte-identical outputs; the only randomized input (decoder
payloads) takes an explicit seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

import numpy as np

from . import builders
from .analysis import (
    bound_report,
    exact_pieces,
    sampled_pieces,
    shatter_verify,
    sup_error,
)
from .analysis.sup import GRID_CHUNK, TOTAL_POINT_CAP, grid_rows
from .builders import BitTable, CellGeometry
from .errors import (
    InvalidInputError,
    InvalidNetworkError,
    ParseError,
    PrecisionError,
    ResourceLimitError,
)
from .networks import NetworkKind, evaluate_batch
from .serialize import from_document, to_document
from .targets import TARGETS

USAGE_ERROR, VERIFY_ERROR = 2, 1


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _range(text: str) -> list[int]:
    """Parse '2..6' or a comma list into a list of ints."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return _csv_ints(text)


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path``, or stdout for ``None`` and ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write(path: str | None, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)
        if fh is sys.stdout and not text.endswith("\n"):
            fh.write("\n")


def _load_net(path: str):
    with open(path) as fh:
        doc = fh.read()
    loaded = from_document(doc)
    return loaded.net if isinstance(loaded, builders.BuiltNetwork) else loaded


def _load_points(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(_csv_floats(line))
    if not rows:
        raise InvalidInputError(f"no points in {path}")
    return np.array(rows, dtype=float)


def _payload_from_arg(geom: CellGeometry, arg: str, seed: int) -> np.ndarray:
    J, K, R = geom.sizes
    if arg == "random":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, (J, K, R))
    bits = arg.strip()
    if len(bits) != J * K * R or set(bits) - {"0", "1"}:
        raise InvalidInputError(
            f"payload must be {J * K * R} characters of 0/1 (or 'random')")
    return np.array([int(c) for c in bits]).reshape(J, K, R)


# -- subcommands --------------------------------------------------------------

def _cmd_build(args) -> int:
    what = args.what
    if what == "rect":
        built = builders.hyperrectangle_indicator(_csv_floats(args.a), _csv_floats(args.b))
    elif what == "parity":
        built = builders.parity_network(args.d)
    elif what == "xor":
        built = builders.xor_network()
    elif what == "pc1d":
        built = builders.piecewise_constant_1d(builders.PieceSpec(
            tuple(_csv_floats(args.breakpoints)), tuple(_csv_ints(args.sides)),
            tuple(_csv_floats(args.values))))
    elif what == "square":
        built = builders.square_approximator(args.L, args.p1, _csv_ints(args.skips))
    elif what == "bits":
        if args.kind == "lin":
            if args.L is None:
                raise InvalidInputError("build bits --kind lin needs --L")
            built = builders.binary_bit_extractor_lin(args.L, args.variant)
        else:
            if not args.radix:
                raise InvalidInputError("build bits --kind skip needs --radix")
            built = builders.mixed_radix_bit_extractor(_csv_ints(args.radix))
    elif what == "decoder":
        geom = CellGeometry(args.kind, args.d, args.m, args.n, args.t if args.kind == "lin" else 0)
        table = BitTable(geom, _payload_from_arg(geom, args.payload, args.seed))
        built = builders.decoder(args.kind, table, args.r_select)
    elif what == "holder":
        cfg = TARGETS[args.target].holder_config(
            args.m, args.n, args.t if args.kind == "lin" else None)
        built = builders.holder_approximator(args.kind, cfg)
    elif what == "shatter-net":
        lam = np.array([int(c) for c in args.labels])
        built, _ = builders.shattering_net(args.kind, args.m, args.n, args.t, lam)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown construction {what!r}")
    _write(args.output, to_document(built))
    return 0


def _cmd_eval(args) -> int:
    net = _load_net(args.net)
    d = net.arch.input_dim
    if args.points:
        X = _load_points(args.points)
        blocks = [(X, evaluate_batch(net, X))]
    else:
        n = args.grid
        if n < 1:
            raise InvalidInputError("--grid needs at least one interval")
        total = (n + 1) ** d
        if total > TOTAL_POINT_CAP:
            raise InvalidInputError("grid too large; cap is 4e6 points")
        axes = [np.arange(n + 1) / n for _ in range(d)]
        grid = (grid_rows(axes, lo, min(lo + GRID_CHUNK, total))
                for lo in range(0, total, GRID_CHUNK))
        blocks = ((X, evaluate_batch(net, X)) for X in grid)
    header = ",".join([f"x{i + 1}" for i in range(d)]
                      + [f"y{i + 1}" for i in range(net.arch.output_dim)])
    # the table goes out one block at a time, never whole in memory
    with _output(args.output) as fh:
        fh.write(header + "\n")
        for X, Y in blocks:
            fh.write("".join(",".join(map(repr, xr + yr)) + "\n"
                             for xr, yr in zip(X.tolist(), Y.tolist())))
    return 0


def _cmd_pieces(args) -> int:
    net = _load_net(args.net)
    x1 = _csv_floats(getattr(args, "from"))
    x2 = _csv_floats(args.to)
    if args.sampled is not None:
        count = sampled_pieces(net, x1, x2, args.sampled, args.refine_tol)
        _write(args.output, f"pieces,{count}\n")
        return 0
    part = exact_pieces(net, x1, x2)
    _write(args.output, part.to_document())
    return 0


def _cmd_sweep(args) -> int:
    rows = []
    worst_ratio = 0.0
    if args.what == "square":
        rows.append("L,s,bound,measured_sup_error,ratio")
        for L in _range(args.L):
            for s in _range(args.s):
                built = builders.square_approximator(L, s, (s,) * (L - 2) + (0,))
                bound = built.guarantee.sup_error_bound
                S = round(1.0 / bound)
                extra = [k / S for k in range(S + 1)] if S <= 100_000 else []
                res = sup_error(built.net, lambda X: X[:, 0] ** 2,
                                per_axis=args.grid, extra=extra)
                ratio = res.value / bound
                worst_ratio = max(worst_ratio, ratio)
                rows.append(f"{L},{s},{bound!r},{res.value!r},{ratio!r}")
    else:
        rows.append("m,n,q,bound,measured_sup_error,ratio")
        target = TARGETS[args.target]
        for m in _range(args.m):
            for n in _range(args.n):
                cfg = target.holder_config(m, n, args.t if args.kind == "lin" else None)
                built = builders.holder_approximator(args.kind, cfg)
                bound = built.guarantee.sup_error_bound
                res = sup_error(built.net, target.value, per_axis=args.grid)
                ratio = res.value / bound
                worst_ratio = max(worst_ratio, ratio)
                q = built.construction.parameters["q"]
                rows.append(f"{m},{n},{q},{bound!r},{res.value!r},{ratio!r}")
    _write(args.output, "\n".join(rows) + "\n")
    return 0 if worst_ratio <= 1.0 else VERIFY_ERROR


def _cmd_shatter(args) -> int:
    cert = shatter_verify(args.kind, args.m, args.n, args.t,
                          sample_labelings=args.sample, seed=args.seed)
    _write(args.output, cert.to_document())
    return 0 if not cert.failures and cert.budgets_respected else VERIFY_ERROR


def _cmd_bounds(args) -> int:
    from .networks import Architecture
    widths = (args.d, *([args.p] * args.L), 1)
    if args.kind == "plain":
        arch = Architecture(NetworkKind.PLAIN, widths)
    elif args.kind == "skip":
        arch = Architecture(NetworkKind.SKIP, widths, (args.s,) * (args.L - 1))
    else:
        arch = Architecture(NetworkKind.LIN, widths, (), args.s)
    rep = bound_report(arch, (args.lo, args.hi))
    lines = ["kind,L,p,s,d,piece_bound,vc_upper_bound,approx_lower_bound",
             ",".join([rep.kind, str(rep.depth), str(args.p), str(args.s), str(args.d),
                       str(rep.piece_bound),
                       repr(rep.vc_upper_bound) if rep.vc_upper_bound is not None
                       else "precondition-unmet",
                       repr(rep.approx_lower_bound)])]
    if rep.note:
        lines.append(f"note,{rep.note}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_validate(args) -> int:
    _load_net(args.net)  # an invalid network raises InvalidNetworkError
    print("ok")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, made on first use and shared by every later
    ``run`` in the process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="heavinet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit a construction as a network document")
    bs = b.add_subparsers(dest="what", required=True)
    p = bs.add_parser("rect")
    p.add_argument("--a", required=True, help="lower corner, comma separated")
    p.add_argument("--b", required=True, help="upper corner, comma separated")
    p = bs.add_parser("parity")
    p.add_argument("--d", type=int, required=True)
    bs.add_parser("xor")
    p = bs.add_parser("pc1d")
    p.add_argument("--breakpoints", required=True)
    p.add_argument("--sides", required=True, help="+1/-1 per breakpoint")
    p.add_argument("--values", required=True)
    p = bs.add_parser("square")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--skips", required=True, help="s_2..s_L, last must be 0")
    p = bs.add_parser("bits")
    p.add_argument("--kind", choices=["skip", "lin"], default="skip")
    p.add_argument("--radix", help="skip kind: radix vector, e.g. 2,2,2")
    p.add_argument("--L", type=int, help="lin kind: number of binary digits")
    p.add_argument("--variant", choices=["wide", "narrow"], default="narrow")
    p = bs.add_parser("decoder")
    p.add_argument("--kind", choices=["skip", "lin"], required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--payload", default="random", help="JKR bits or 'random'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-select", type=int, default=None)
    p = bs.add_parser("holder")
    p.add_argument("--kind", choices=["skip", "lin"], required=True)
    p.add_argument("--target", choices=list(TARGETS), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p = bs.add_parser("shatter-net")
    p.add_argument("--kind", choices=["skip", "lin"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--labels", required=True, help="0/1 string, one per point")
    for sp in bs.choices.values():
        sp.add_argument("-o", "--output", default=None)
    b.set_defaults(func=_cmd_build)

    p = sub.add_parser("eval", help="evaluate a network document at points")
    p.add_argument("net")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", help="CSV file, one comma-separated point per row")
    g.add_argument("--grid", type=int, help="uniform grid with N intervals per axis")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pieces", help="piece structure along a segment")
    p.add_argument("net")
    p.add_argument("--from", required=True, help="segment start, comma separated")
    p.add_argument("--to", required=True, help="segment end, comma separated")
    p.add_argument("--sampled", type=int, default=None, metavar="N",
                   help="count pieces on an N-interval grid instead of the exact partition")
    p.add_argument("--refine-tol", type=float, default=1e-12,
                   help="bisection stops at gaps this wide; must be > 0 (default 1e-12)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_pieces)

    p = sub.add_parser("sweep", help="bound-vs-measured tables")
    ss = p.add_subparsers(dest="what", required=True)
    q = ss.add_parser("square")
    q.add_argument("--L", required=True, help="range like 2..6")
    q.add_argument("--s", required=True, help="range like 1..3")
    q.add_argument("--grid", type=int, default=100_000)
    q.add_argument("-o", "--output", default=None)
    q = ss.add_parser("holder")
    q.add_argument("--kind", choices=["skip", "lin"], default="skip")
    q.add_argument("--target", choices=list(TARGETS), default="x2")
    q.add_argument("--m", required=True, help="range like 1..2")
    q.add_argument("--n", required=True, help="range like 1..2")
    q.add_argument("--t", type=int, default=1)
    q.add_argument("--grid", type=int, default=2000)
    q.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("shatter", help="labeling-enumeration certificate")
    p.add_argument("--kind", choices=["skip", "lin"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--sample", type=int, default=None,
                   help="spot-check this many labelings instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_shatter)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    p.add_argument("--kind", choices=["plain", "skip", "lin"], required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("validate", help="check a network document")
    p.add_argument("net")
    p.set_defaults(func=_cmd_validate)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvalidNetworkError as exc:
        print("\n".join(exc.violations))
        return VERIFY_ERROR
    except (InvalidInputError, PrecisionError, ResourceLimitError, ParseError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
