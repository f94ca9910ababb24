"""The five workloads: item lists made from the workload seed, and the
checks run on their outputs outside the timed region.

A workload has ``make_items(hv, seed, tiny)``, which returns the fixed item
list of one run, and ``check(hv, items, outputs)``, which returns a
``Verdict`` for the outputs of one round.  ``hv`` holds the heavinet
modules; items look functions up through it when they run, so the traced
run's rebinding reaches them.  ``tiny`` shrinks every list for the
benchmark's self-test.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVINET_MODULES = ("networks", "builders", "builders.dsl", "analysis", "analysis.pieces",
                    "analysis.sup", "analysis.certify", "serialize", "cli")

GRID_N = 1_000_000          # sampled_pieces grid intervals
REFINE_TOL = 1e-9           # sampled_pieces bisection tolerance


def import_heavinet() -> SimpleNamespace:
    """Import heavinet afresh from ``src/``; its dependencies stay loaded."""
    for name in [m for m in sys.modules if m == "heavinet" or m.startswith("heavinet.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    hv = SimpleNamespace(package=importlib.import_module("heavinet"))
    for name in HEAVINET_MODULES:
        setattr(hv, name.split(".")[-1], importlib.import_module(f"heavinet.{name}"))
    if not Path(hv.package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"heavinet imported from {hv.package.__file__}, not from {SRC}")
    return hv


def make_workload(name: str, workdir: Path):
    """The named workload; ``documents`` writes its files under ``workdir``."""
    return {
        "segments": Segments,
        "extractors": Extractors,
        "certify": Certify,
        "approx": Approx,
        "documents": lambda: Documents(workdir),
    }[name]()


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    data: dict = field(default_factory=dict)


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    failed: dict[int, str] = field(default_factory=dict)   # item index -> fault


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# -- segments -----------------------------------------------------------------

SHAPE_SEED = 20250501
SEGMENTS_PER_NET = 4
MIN_PIECE = 10 / GRID_N     # narrowest interior piece a kept segment may have


def _shapes(hv, per_kind: int) -> list:
    """A fixed schedule of architectures (d <= 3, depth <= 5, width <= 8).

    It is the same for every workload seed: a seed changes the weights and
    the segments, not the sizes, so the work per round stays level."""
    NK = hv.networks.NetworkKind
    rng = np.random.default_rng(SHAPE_SEED)
    shapes = []
    for kind in (NK.PLAIN, NK.SKIP, NK.LIN):
        for _ in range(per_kind):
            d = int(rng.integers(1, 4))
            hidden = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 6)))]
            skips = tuple(int(rng.integers(0, min(p, 3) + 1)) for p in hidden[1:]) \
                if kind is NK.SKIP else ()
            lin = int(rng.integers(0, 4)) if kind is NK.LIN else 0
            shapes.append(hv.networks.Architecture(kind, (d, *hidden, 1), skips, lin))
    return shapes


def _random_network(hv, arch, rng):
    """Uniform weights in [-2, 2]; skip layers tap the input on exactly
    ``s_l`` random rows."""
    nw = hv.networks
    ws, L, d = arch.augmented_widths(), arch.depth, arch.input_dim
    layers = []
    for i in range(L + 1):
        W = rng.uniform(-2.0, 2.0, (ws[i + 1], ws[i]))
        b = rng.uniform(-2.0, 2.0, ws[i + 1])
        V = None
        if arch.kind is nw.NetworkKind.SKIP and 1 <= i <= L - 1 and arch.skip_counts[i - 1]:
            s = arch.skip_counts[i - 1]
            V = np.zeros((ws[i + 1], d))
            V[rng.choice(ws[i + 1], size=s, replace=False)] = rng.uniform(-2.0, 2.0, (s, d))
        layers.append(nw.LayerParams(W, b, V))
    return nw.Network(arch, tuple(layers))


def _segment_case(hv, net, x1, x2):
    part = hv.analysis.exact_pieces(net, x1, x2)
    sampled = hv.analysis.sampled_pieces(net, x1, x2, GRID_N, refine_tol=REFINE_TOL)
    return part.piece_count, sampled


class Workload:
    """Base of the five workloads."""

    def screen(self, hv, items: list[Item]) -> list[Item]:
        """The items the run keeps; called once per run, outside set-up."""
        return items


class Segments(Workload):
    """exact_pieces plus sampled_pieces on one random segment of a small
    random network; per-call overhead dominates."""

    def make_items(self, hv, seed: int, tiny: bool) -> list[Item]:
        rng = np.random.default_rng(seed)
        items = []
        for s, arch in enumerate(_shapes(hv, 2 if tiny else 100)):
            net = _random_network(hv, arch, rng)
            for j in range(SEGMENTS_PER_NET):
                x1 = rng.uniform(0.0, 1.0, arch.input_dim)
                x2 = rng.uniform(0.0, 1.0, arch.input_dim)
                items.append(Item(f"{arch.kind.value}{s}.{j}",
                                  partial(_segment_case, hv, net, x1, x2),
                                  {"net": net, "x1": x1, "x2": x2}))
        return items

    def screen(self, hv, items: list[Item]) -> list[Item]:
        """Drop the rare segment with a piece narrower than ten grid steps,
        or a single-point piece.  The grid cannot see a piece narrower than
        one step, so ``sampled == exact`` would fail on it by design of
        sampled_pieces.  Most seeds drop none; a network with two nearly
        parallel hyperplanes can lose several of its segments."""
        kept = []
        for item in items:
            part = hv.analysis.exact_pieces(item.data["net"], item.data["x1"], item.data["x2"])
            widths = np.diff(part.breakpoints)
            if not part.point_values and not (widths < MIN_PIECE).any():
                kept.append(item)
        return kept

    def check(self, hv, items, outputs) -> Verdict:
        v = Verdict()
        for item, (exact, sampled) in zip(items, outputs):
            bound = hv.analysis.piece_bound(item.data["net"].arch)
            if not sampled <= exact <= bound:
                v.errors.append(f"{item.name}: sampled {sampled}, exact {exact}, bound {bound}")
            elif sampled != exact:
                v.errors.append(f"{item.name}: sampled {sampled} != exact {exact}")
        return v


# -- extractors ---------------------------------------------------------------

# sampled_pieces undercounts these (radix not a power of two); they do not
# depend on the seed and count as failed operations until it is mended
FAULTY_RADICES = ((3, 2, 2, 2, 2, 2, 2, 2, 2), (2, 3, 2, 2, 2, 2, 2, 2, 2), (5, 5, 5, 5))
# power-of-two radix vectors
POW2_RADICES = ((4, 2, 2, 2, 2, 2, 2, 2, 2), (8, 4, 2, 2, 2, 2, 2, 2), (4, 4, 4, 4, 4),
                (16, 8, 4, 4), (8, 8, 8, 4), (2,) * 11)
LIN_EXTRACTORS = ((10, "wide"), (12, "narrow"))
FAULT = "sampled_pieces undercounts a non-power-of-two radix extractor"


def _unit_pieces(hv, built):
    net = built.net
    exact = hv.analysis.exact_pieces(net, [0.0], [1.0]).piece_count
    sampled = hv.analysis.sampled_pieces(net, [0.0], [1.0], GRID_N, refine_tol=REFINE_TOL)
    return exact, sampled


def literal_grid_count(hv, net, N: int = GRID_N) -> int:
    """Value changes of a plain evaluate_batch over t = k/N, k = 0..N, plus one."""
    t = np.arange(N + 1) / N
    y = hv.networks.evaluate_batch(net, t[:, None])[:, 0]
    return int(np.count_nonzero(y[1:] != y[:-1])) + 1


class Extractors(Workload):
    """exact_pieces plus sampled_pieces over [0, 1] of digit extractors that
    attain the piece ceiling; propagation of thousands of regions and
    bisection refinement dominate.  The extractors are fixed, since their
    piece counts are what is checked; the seed orders them."""

    def make_items(self, hv, seed: int, tiny: bool) -> list[Item]:
        rng = np.random.default_rng(seed)
        B = hv.builders
        pow2 = ((4, 2, 2),) if tiny else POW2_RADICES
        lin = ((3, "wide"), (3, "narrow")) if tiny else LIN_EXTRACTORS
        specs = [("radix", r, True) for r in FAULTY_RADICES]
        specs += [("radix", r, False) for r in pow2]
        specs += [("lin", spec, False) for spec in lin]
        items = []
        for i in rng.permutation(len(specs)):
            family, spec, faulty = specs[i]
            if family == "radix":
                built, pieces = B.mixed_radix_bit_extractor(spec), math.prod(spec)
            else:
                built, pieces = B.binary_bit_extractor_lin(*spec), 2 ** spec[0]
            items.append(Item(f"{family}{spec}", partial(_unit_pieces, hv, built),
                              {"net": built.net, "pieces": pieces, "faulty": faulty,
                               "radix": spec if family == "radix" else None}))
        return items

    def check(self, hv, items, outputs) -> Verdict:
        v = Verdict()
        for i, (item, (exact, sampled)) in enumerate(zip(items, outputs)):
            want = item.data["pieces"]
            bound = hv.analysis.piece_bound(item.data["net"].arch)
            grid = literal_grid_count(hv, item.data["net"])
            if not exact == grid == want <= bound:
                v.errors.append(f"{item.name}: exact {exact}, grid {grid}, "
                                f"digit product {want}, bound {bound}")
            elif sampled == grid:
                continue
            elif item.data["faulty"] and sampled < grid:
                v.failed[i] = f"{FAULT}: {sampled} of {grid}"
            else:
                v.errors.append(f"{item.name}: sampled {sampled} != grid count {grid}")
        return v


# -- certify --------------------------------------------------------------------

EXHAUSTIVE = (("skip", 1, 1, 0), ("lin", 1, 0, 1))
SAMPLED = (("skip", 1, 2, 0), ("skip", 2, 0, 0), ("skip", 2, 1, 0), ("skip", 1, 3, 0),
           ("skip", 2, 2, 0), ("skip", 3, 0, 0), ("lin", 1, 1, 1), ("lin", 2, 0, 1),
           ("lin", 0, 2, 1), ("lin", 1, 2, 1), ("lin", 2, 1, 1), ("lin", 2, 2, 1),
           ("lin", 1, 1, 2))
SAMPLE_LABELINGS = 48


def _levels(kind: str, m: int, n: int, t: int) -> int:
    """Digit levels of the cell geometry: 2m+n (skip) or m+n+2t (lin)."""
    return 2 * m + n if kind == "skip" else m + n + 2 * t


def _certificate(hv, geometry, sample, seed):
    cert = hv.analysis.shatter_verify(*geometry, sample_labelings=sample, seed=seed)
    return (len(cert.points), cert.labelings_tried, len(cert.failures),
            cert.budgets_respected, cert.exhaustive, cert.implied_vc_lower_bound)


class Certify(Workload):
    """One shatter_verify certificate per item: two exhaustive, the rest on
    sampled labelings whose seeds derive from the workload seed."""

    def make_items(self, hv, seed: int, tiny: bool) -> list[Item]:
        rng = np.random.default_rng(seed)
        exhaustive = EXHAUSTIVE[1:] if tiny else EXHAUSTIVE
        sampled = SAMPLED[:1] if tiny else SAMPLED
        items = [Item(f"exhaustive{g}", partial(_certificate, hv, g, None, 0),
                      {"geometry": g, "labelings": 2 ** 2 ** _levels(*g)})
                 for g in exhaustive]
        for g in sampled:
            s = int(rng.integers(0, 2**31))
            items.append(Item(f"sampled{g}", partial(_certificate, hv, g, SAMPLE_LABELINGS, s),
                              {"geometry": g, "labelings": SAMPLE_LABELINGS}))
        return items

    def check(self, hv, items, outputs) -> Verdict:
        v = Verdict()
        for item, out in zip(items, outputs):
            npoints, tried, failures, budgets_ok, exhaustive, vc = out
            want = 2 ** _levels(*item.data["geometry"])
            if (npoints, tried, failures, budgets_ok, vc) != \
                    (want, item.data["labelings"], 0, True, want):
                v.errors.append(f"{item.name}: points {npoints}, labelings {tried}, "
                                f"failures {failures}, budgets {budgets_ok}, vc {vc}")
        return v


# -- approx ---------------------------------------------------------------------

def _targets():
    """Smooth targets: value, derivative oracle, beta, d, derivative bounds,
    smoothness-norm bound (the names match the CLI's --target choices)."""
    def d_sq(alpha, X):
        a = alpha[0]
        return X[:, 0] ** 2 if a == 0 else (2.0 * X[:, 0] if a == 1 else np.zeros(len(X)))

    def d_prod(alpha, X):
        if alpha == (0, 0):
            return X[:, 0] * X[:, 1]
        if alpha == (1, 0):
            return X[:, 1]
        if alpha == (0, 1):
            return X[:, 0]
        return np.zeros(len(X))

    def d_cubic(alpha, X):
        a, x = alpha[0], X[:, 0]
        if a == 0:
            return x ** 3 - x
        if a == 1:
            return 3 * x ** 2 - 1
        return 6 * x if a == 2 else np.zeros(len(X))

    return {
        "x2": (lambda X: X[:, 0] ** 2, d_sq, 2.0, 1, {(0,): 1.0, (1,): 2.0}, 5.0),
        "x1x2": (lambda X: X[:, 0] * X[:, 1], d_prod, 2.0, 2,
                 {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, 5.0),
        "x3mx": (lambda X: X[:, 0] ** 3 - X[:, 0], d_cubic, 3.0, 1,
                 {(0,): 1.0, (1,): 2.0, (2,): 6.0}, 15.0),
    }


TARGETS = _targets()
SQUARES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3))
HOLDERS = (("x2", "skip", 1, 1, None), ("x2", "skip", 2, 0, None), ("x2", "lin", 1, 0, 1),
           ("x2", "lin", 1, 1, 1), ("x3mx", "skip", 1, 1, None), ("x3mx", "skip", 2, 0, None),
           ("x3mx", "lin", 1, 0, 1), ("x3mx", "lin", 1, 1, 1), ("x1x2", "skip", 1, 0, None),
           ("x1x2", "skip", 2, 0, None))
EXTRA_POINTS = 16           # seeded grid points added per axis


def holder_config(hv, target: str, kind: str, m: int, n: int, t):
    _, deriv, beta, d, bounds, norm = TARGETS[target]
    return hv.builders.HolderConfig(beta=beta, d=d, m=m, n=n, bounds=bounds, deriv=deriv,
                                    holder_norm_bound=norm, t=t if kind == "lin" else None)


def _square_case(hv, L, s, extra):
    built = hv.builders.square_approximator(L, s, (s,) * (L - 2) + (0,))
    res = hv.analysis.sup_error(built.net, lambda X: X[:, 0] ** 2,
                                per_axis=100_000, extra=extra)
    return built.guarantee.sup_error_bound, res.value, res.n_points


def _holder_case(hv, spec, per_axis, extra):
    target, kind = spec[:2]
    built = hv.builders.holder_approximator(kind, holder_config(hv, *spec))
    res = hv.analysis.sup_error(built.net, TARGETS[target][0], per_axis=per_axis, extra=extra)
    return built.guarantee.sup_error_bound, res.value, res.n_points


class Approx(Workload):
    """Build one square or Hoelder approximator and measure its sup error
    against its guarantee: a few large sparse builds and large forward
    passes."""

    def make_items(self, hv, seed: int, tiny: bool) -> list[Item]:
        rng = np.random.default_rng(seed)
        items = []
        for L, s in (SQUARES[:1] if tiny else SQUARES):
            S = (s + 1) ** (L - 1)
            extra = np.concatenate([np.arange(S + 1) / S, rng.uniform(0, 1, EXTRA_POINTS)])
            items.append(Item(f"square(L={L},s={s})", partial(_square_case, hv, L, s, extra),
                              {"bound": (s + 1) ** -(L - 1), "square": True}))
        for spec in (HOLDERS[:1] + HOLDERS[-2:-1] if tiny else HOLDERS):
            target, kind, m, n, t = spec
            levels = _levels(kind, m, n, t or 0)
            seeded = rng.uniform(0, 1, EXTRA_POINTS)
            if TARGETS[target][3] == 1:
                per_axis = 2000
                extra = np.concatenate([np.arange(2**levels + 1) / 2**levels, seeded])
            else:
                per_axis, extra = (200 if levels <= 3 else 100), seeded[:4]
            beta, norm = TARGETS[target][2], TARGETS[target][5]
            items.append(Item(f"holder{spec}", partial(_holder_case, hv, spec, per_axis, extra),
                              {"bound": 2.0 * norm * 2.0 ** (-beta * levels), "square": False}))
        return items

    def check(self, hv, items, outputs) -> Verdict:
        v = Verdict()
        for item, (bound, value, _) in zip(items, outputs):
            want = item.data["bound"]
            low = want / 2 if item.data["square"] else 0.0
            if bound != want or not low <= value <= want:
                v.errors.append(f"{item.name}: error {value!r} outside [{low!r}, {want!r}] "
                                f"(guarantee {bound!r})")
        return v


# -- documents ------------------------------------------------------------------

def _doc_round_trip(hv, build_args, doc, frm, to, pieces_out):
    """build -o DOC, then validate DOC and pieces DOC, all in-process."""
    run = hv.cli.run
    built = run(["build", *build_args, "-o", str(doc)])
    said = io.StringIO()
    with contextlib.redirect_stdout(said):
        valid = run(["validate", str(doc)])
    pieces = run(["pieces", str(doc), "--from", frm, "--to", to, "-o", str(pieces_out)])
    return built, valid, said.getvalue(), pieces


def _doc_specs(hv, rng, tiny: bool) -> list[tuple]:
    """(label, CLI build arguments, input dimension, in-memory builder) per
    document."""
    B = hv.builders

    def decoder(kind, m, n, t):
        geom = B.CellGeometry(kind, 1, m, n, t)
        payload = rng.integers(0, 2, geom.sizes)
        args = ["decoder", "--kind", kind, "--m", str(m), "--n", str(n), "--t", str(t),
                "--payload", "".join(str(int(b)) for b in payload.reshape(-1))]
        return (f"decoder-{kind}-{m}{n}{t}", args, geom.levels,
                lambda: B.decoder(kind, B.BitTable(geom, payload)))

    def shatter(kind, m, n, t):
        labels = rng.integers(0, 2, 2 ** _levels(kind, m, n, t))
        args = ["shatter-net", "--kind", kind, "--m", str(m), "--n", str(n), "--t", str(t),
                "--labels", "".join(str(int(b)) for b in labels)]
        return (f"shatter-{kind}-{m}{n}{t}", args, 1,
                lambda: B.shattering_net(kind, m, n, t, labels)[0])

    def holder(target, kind, m, n, t):
        args = ["holder", "--kind", kind, "--target", target, "--m", str(m), "--n", str(n)]
        if kind == "lin":
            args += ["--t", str(t)]
        return (f"holder-{target}-{kind}-{m}{n}{t or ''}", args, TARGETS[target][3],
                lambda: B.holder_approximator(kind, holder_config(hv, target, kind, m, n, t)))

    def rect(d):
        a = rng.uniform(0.0, 0.5, d)
        b = a + rng.uniform(0.1, 0.5, d)
        return (f"rect-{d}", ["rect", "--a", _csv(a), "--b", _csv(b)], d,
                lambda: B.hyperrectangle_indicator(a, b))

    def radix(r):
        r = tuple(int(d) for d in rng.permutation(r))
        return (f"bits-{r}", ["bits", "--radix", ",".join(map(str, r))], 1,
                lambda: B.mixed_radix_bit_extractor(r))

    if tiny:
        return [decoder("skip", 1, 1, 0), rect(2), holder("x2", "skip", 1, 0, None)]
    return [
        ("square-4", ["square", "--L", "4", "--p1", "2", "--skips", "2,2,0"], 1,
         lambda: B.square_approximator(4, 2, (2, 2, 0))),
        ("square-5", ["square", "--L", "5", "--p1", "3", "--skips", "3,3,3,0"], 1,
         lambda: B.square_approximator(5, 3, (3, 3, 3, 0))),
        radix((4, 2, 2, 2, 2, 2)),
        ("bits-lin-wide", ["bits", "--kind", "lin", "--L", "8", "--variant", "wide"], 1,
         lambda: B.binary_bit_extractor_lin(8, "wide")),
        ("bits-lin-narrow", ["bits", "--kind", "lin", "--L", "8", "--variant", "narrow"], 1,
         lambda: B.binary_bit_extractor_lin(8, "narrow")),
        decoder("skip", 1, 1, 0), decoder("skip", 2, 2, 0),
        decoder("lin", 1, 0, 1), decoder("lin", 1, 1, 1),
        shatter("skip", 1, 1, 0), shatter("lin", 1, 1, 1),
        holder("x2", "skip", 1, 1, None), holder("x2", "skip", 2, 0, None),
        holder("x3mx", "lin", 1, 0, 1), holder("x1x2", "skip", 1, 0, None),
        rect(2), rect(3),
    ]


def _grid_points(d: int, total: int = 4096) -> np.ndarray:
    per_axis = max(2, int(round(total ** (1.0 / d))))
    axes = np.meshgrid(*[np.linspace(0.0, 1.0, per_axis)] * d, indexing="ij")
    return np.stack([a.reshape(-1) for a in axes], axis=1)


class Documents(Workload):
    """One CLI document round trip per item: build -o FILE, validate FILE,
    pieces FILE --from --to, through in-process heavinet.cli.run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def make_items(self, hv, seed: int, tiny: bool) -> list[Item]:
        rng = np.random.default_rng(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for k, (label, args, d, build) in enumerate(_doc_specs(hv, rng, tiny)):
            doc = self.workdir / f"{k:02d}-{label}.json"
            pieces = self.workdir / f"{k:02d}-{label}.pieces.json"
            # near-opposite corners: every segment crosses most of the pieces,
            # so the work and memory of `pieces` do not swing with the seed
            frm, to = _csv(rng.uniform(0.0, 0.1, d)), _csv(rng.uniform(0.9, 1.0, d))
            items.append(Item(label, partial(_doc_round_trip, hv, args, doc, frm, to, pieces),
                              {"build": build, "doc": doc, "pieces": pieces,
                               "frm": frm, "to": to}))
        return items

    def check(self, hv, items, outputs) -> Verdict:
        v = Verdict()
        for item, (built_rc, valid_rc, said, pieces_rc) in zip(items, outputs):
            if (built_rc, valid_rc, said, pieces_rc) != (0, 0, "ok\n", 0):
                v.errors.append(f"{item.name}: exit codes build {built_rc}, validate "
                                f"{valid_rc} ({said.strip()!r}), pieces {pieces_rc}")
                continue
            text = item.data["doc"].read_text()
            parsed = hv.serialize.from_document(text)
            net = item.data["build"]().net
            X = _grid_points(net.arch.input_dim)
            if not np.array_equal(hv.networks.evaluate_batch(parsed.net, X),
                                  hv.networks.evaluate_batch(net, X)):
                v.errors.append(f"{item.name}: parsed network evaluates differently")
            if hv.serialize.to_document(parsed) != text:
                v.errors.append(f"{item.name}: re-serialized document differs")
            count = json.loads(item.data["pieces"].read_text())["piece_count"]
            frm = [float(s) for s in item.data["frm"].split(",")]
            to = [float(s) for s in item.data["to"].split(",")]
            exact = hv.analysis.exact_pieces(net, frm, to).piece_count
            if count != exact:
                v.errors.append(f"{item.name}: pieces document says {count}, exact {exact}")
        return v
