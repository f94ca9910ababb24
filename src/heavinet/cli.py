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
from decimal import Decimal

import numpy as np

from . import builders
from .analysis import (
    bound_report,
    exact_pieces,
    sampled_pieces,
    shatter_verify,
    sup_error,
)
from .analysis.bounds import MAX_DEPTH, MAX_WIDTH
from .analysis.sup import TOTAL_POINT_CAP, axis_grid, check_grid_size, grid_blocks
from .builders import BitTable, CellGeometry
from .builders.decoders import check_lin_packing
from .builders.square import square_architecture
from .errors import InvalidInputError, InvalidNetworkError, ResourceLimitError
from .networks import Architecture, NetworkKind, evaluate_batch
from .serialize import check_document_size, from_document, to_document
from .targets import TARGETS

USAGE_ERROR, VERIFY_ERROR = 2, 1


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _range(text: str) -> list[int]:
    """Parse '2..6' or a comma list into a non-empty list of ints."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = _csv_ints(text)
    if not values:
        raise InvalidInputError(f"empty range {text!r}")
    return values


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
    """One point per non-blank line, all of the first point's length; a
    refusal names the file and the 1-based line."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = _csv_floats(line)
            except ValueError as exc:
                raise InvalidInputError(f"{path} line {number}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise InvalidInputError(
                    f"{path} line {number}: expected {len(rows[0])} numbers, got {len(row)}")
            rows.append(row)
    if not rows:
        raise InvalidInputError(f"no points in {path}")
    return np.array(rows, dtype=float)


def _bits_from_arg(arg: str, count: int, what: str, hint: str = "") -> np.ndarray:
    """``count`` 0/1 characters, surrounding blanks ignored; the refusal
    names the argument ``what``, then ``hint``."""
    bits = arg.strip()
    if len(bits) != count or set(bits) - {"0", "1"}:
        raise InvalidInputError(f"{what} must be {count} characters of 0/1{hint}")
    return np.array([int(c) for c in bits])


def _payload_from_arg(geom: CellGeometry, arg: str, seed: int) -> np.ndarray:
    J, K, R = geom.sizes
    if arg == "random":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, (J, K, R))
    return _bits_from_arg(arg, J * K * R, "payload", " (or 'random')").reshape(J, K, R)


# -- build makers: each returns the construction its sub-parser describes ----

def _make_bits(args):
    if args.kind == "lin":
        if args.L is None:
            raise InvalidInputError("build bits --kind lin needs --L")
        return builders.binary_bit_extractor_lin(args.L, args.variant)
    if not args.radix:
        raise InvalidInputError("build bits --kind skip needs --radix")
    return builders.mixed_radix_bit_extractor(_csv_ints(args.radix))


def _make_square(args):
    skips = _csv_ints(args.skips)
    # the stated architecture, refused before the first neuron
    check_document_size(square_architecture(args.L, args.p1, skips))
    return builders.square_approximator(args.L, args.p1, skips)


def _make_decoder(args):
    geom = CellGeometry(args.kind, args.d, args.m, args.n, args.t if args.kind == "lin" else 0)
    check_lin_packing(geom)  # before the payload is drawn
    table = BitTable(geom, _payload_from_arg(geom, args.payload, args.seed))
    return builders.decoder(args.kind, table, args.r_select)


def _make_shatter_net(args):
    count = builders.shatter_points(args.kind, args.m, args.n, args.t).size
    lam = _bits_from_arg(args.labels, count, "labels")
    return builders.shattering_net(args.kind, args.m, args.n, args.t, lam)[0]


# -- subcommands --------------------------------------------------------------

def _cmd_build(args) -> int:
    _write(args.output, to_document(args.make(args)))
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
        blocks = ((X, evaluate_batch(net, X)) for X in grid_blocks(axis_grid(d, n)))
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


def _square_cases(args):
    """``sweep square``: per (L, s), the labels, the approximator, its
    target x^2 and its cell edges.  Every approximator's stated
    architecture meets the document cap before the first is built."""
    cases = [(L, s, (s,) * (L - 2) + (0,)) for L in _range(args.L) for s in _range(args.s)]
    for L, s, skips in cases:
        check_document_size(square_architecture(L, s, skips))
    for L, s, skips in cases:
        # the approximator's cells have edges k/S, S = (s+1)^(L-1); they
        # join the grid when S <= 100 000 (17 factors of at least 2 exceed
        # that), and the grid is checked before the build
        S = (s + 1) ** min(L - 1, 17)
        extra = axis_grid(1, S)[0] if S <= 100_000 else ()
        # merging the edges into the axis can only shrink it
        if args.grid + 1 + len(extra) > TOTAL_POINT_CAP:
            axis_grid(1, args.grid, extra)
        yield (L, s), builders.square_approximator(L, s, skips), TARGETS["x2"].value, extra


def _holder_cases(args):
    """``sweep holder``: per (m, n), the labels, the approximator, its
    target and no extra grid points."""
    target = TARGETS[args.target]
    for m in _range(args.m):
        for n in _range(args.n):
            cfg = target.holder_config(m, n, args.t if args.kind == "lin" else None)
            built = builders.holder_approximator(args.kind, cfg)
            yield (m, n, built.construction.parameters["q"]), built, target.value, ()


def _cmd_sweep(args) -> int:
    # the grid size follows from the arguments: refuse it before any build
    if args.grid < 1:
        raise InvalidInputError("--grid needs at least one interval")
    d = 1 if args.what == "square" else TARGETS[args.target].d
    check_grid_size((args.grid + 1) ** d)
    rows = [f"{args.columns},bound,measured_sup_error,ratio"]
    worst_ratio = 0.0
    for labels, built, f0, extra in args.cases(args):
        bound = built.guarantee.sup_error_bound
        res = sup_error(built.net, f0, per_axis=args.grid, extra=extra)
        ratio = res.value / bound
        worst_ratio = max(worst_ratio, ratio)
        rows.append(",".join([*map(str, labels), repr(bound), repr(res.value), repr(ratio)]))
    _write(args.output, "\n".join(rows) + "\n")
    return 0 if worst_ratio <= 1.0 else VERIFY_ERROR


def _cmd_shatter(args) -> int:
    cert = shatter_verify(args.kind, args.m, args.n, args.t,
                          sample_labelings=args.sample, seed=args.seed)
    _write(args.output, cert.to_document())
    return 0 if not cert.failures and cert.budgets_respected else VERIFY_ERROR


def _cmd_bounds(args) -> int:
    if args.L < 1:
        raise InvalidInputError(f"bounds: depth {args.L} < 1")
    if args.L > MAX_DEPTH:
        raise ResourceLimitError(f"bounds: depth {args.L} exceeds heavinet's cap of {MAX_DEPTH}")
    if max(args.p, args.s, args.d) > MAX_WIDTH:
        raise ResourceLimitError(
            f"bounds: width {max(args.p, args.s, args.d)} exceeds heavinet's cap of {MAX_WIDTH}")
    kind = NetworkKind(args.kind)
    arch = Architecture(kind, (args.d, *([args.p] * args.L), 1),
                        (args.s,) * (args.L - 1) if kind is NetworkKind.SKIP else (),
                        args.s if kind is NetworkKind.LIN else 0)
    rep = bound_report(arch, (args.lo, args.hi))
    lines = ["kind,L,p,s,d,piece_bound,vc_upper_bound,approx_lower_bound",
             ",".join([rep.kind, str(rep.depth), str(args.p), str(args.s), str(args.d),
                       str(Decimal(rep.piece_bound)),  # every digit, past str's limit
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


def _geometry(p: argparse.ArgumentParser, t: int, **between) -> argparse.ArgumentParser:
    """Declare the cell geometry ``--kind --m --n --t`` on ``p``, with
    ``--t`` defaulting to ``t``; ``between`` names further options (flag
    name to ``add_argument`` keywords) declared right after ``--kind``,
    which fixes their place in the usage and help text."""
    p.add_argument("--kind", choices=["skip", "lin"], required=True)
    for flag, spec in between.items():
        p.add_argument(f"--{flag}", **spec)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=t)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, made on first use and shared by every later
    ``run`` in the process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="heavinet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    # each construction registers its maker next to its flags
    b = sub.add_parser("build", help="emit a construction as a network document")
    bs = b.add_subparsers(dest="what", required=True)
    p = bs.add_parser("rect")
    p.add_argument("--a", required=True, help="lower corner, comma separated")
    p.add_argument("--b", required=True, help="upper corner, comma separated")
    p.set_defaults(make=lambda a: builders.hyperrectangle_indicator(_csv_floats(a.a),
                                                                    _csv_floats(a.b)))
    p = bs.add_parser("parity")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(make=lambda a: builders.parity_network(a.d))
    bs.add_parser("xor").set_defaults(make=lambda a: builders.xor_network())
    p = bs.add_parser("pc1d")
    p.add_argument("--breakpoints", required=True)
    p.add_argument("--sides", required=True, help="+1/-1 per breakpoint")
    p.add_argument("--values", required=True)
    p.set_defaults(make=lambda a: builders.piecewise_constant_1d(builders.PieceSpec(
        tuple(_csv_floats(a.breakpoints)), tuple(_csv_ints(a.sides)),
        tuple(_csv_floats(a.values)))))
    p = bs.add_parser("square")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--skips", required=True, help="s_2..s_L, last must be 0")
    p.set_defaults(make=_make_square)
    p = bs.add_parser("bits")
    p.add_argument("--kind", choices=["skip", "lin"], default="skip")
    p.add_argument("--radix", help="skip kind: radix vector, e.g. 2,2,2")
    p.add_argument("--L", type=int, help="lin kind: number of binary digits")
    p.add_argument("--variant", choices=["wide", "narrow"], default="narrow")
    p.set_defaults(make=_make_bits)
    p = _geometry(bs.add_parser("decoder"), 0, d={"type": int, "default": 1})
    p.add_argument("--payload", default="random", help="JKR bits or 'random'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-select", type=int, default=None)
    p.set_defaults(make=_make_decoder)
    p = _geometry(bs.add_parser("holder"), 1,
                  target={"choices": list(TARGETS), "required": True})
    p.set_defaults(make=lambda a: builders.holder_approximator(
        a.kind, TARGETS[a.target].holder_config(a.m, a.n, a.t if a.kind == "lin" else None)))
    p = _geometry(bs.add_parser("shatter-net"), 0)
    p.add_argument("--labels", required=True, help="0/1 string, one per point")
    p.set_defaults(make=_make_shatter_net)
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
    q.set_defaults(cases=_square_cases, columns="L,s")
    q = ss.add_parser("holder")
    q.add_argument("--kind", choices=["skip", "lin"], default="skip")
    q.add_argument("--target", choices=list(TARGETS), default="x2")
    q.add_argument("--m", required=True, help="range like 1..2")
    q.add_argument("--n", required=True, help="range like 1..2")
    q.add_argument("--t", type=int, default=1)
    q.add_argument("--grid", type=int, default=2000)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(cases=_holder_cases, columns="m,n,q")
    p.set_defaults(func=_cmd_sweep)

    p = _geometry(sub.add_parser("shatter", help="labeling-enumeration certificate"), 0)
    p.add_argument("--sample", type=int, default=None,
                   help="spot-check this many labelings instead of all; the structured ones "
                   "(all 0, all 1, alternating, one-point) are always included, and "
                   "2^points or more tries each once")
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
    except (ValueError, ResourceLimitError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
