"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` so the per-criterion
lines are visible.  Stated runtime limits are asserted.
"""

import itertools
import time

import numpy as np

from heavinet import Architecture, NetworkKind, embed, evaluate_batch, mixed_radix_digits
from heavinet.analysis import (
    approx_lower_bound,
    exact_pieces,
    piece_bound,
    sampled_pieces,
    shatter_verify,
    sup_error,
    vc_upper_bound,
)
from heavinet.builders import (
    BitTable,
    CellGeometry,
    PieceSpec,
    binary_bit_extractor_lin,
    decoder,
    holder_approximator,
    hyperrectangle_indicator,
    mixed_radix_bit_extractor,
    parity_network,
    piecewise_constant_1d,
    shatter_budgets,
    square_approximator,
    xor_network,
)
from heavinet.targets import TARGETS
from netgen import random_network, random_segment
from taylor import taylor_reference_batch


def _report(n, text):
    print(f"\ncriterion {n} PASS: {text}")


# -- 1: square sandwich -------------------------------------------------------

def test_criterion_1_square_sandwich():
    t0 = time.perf_counter()
    checked = []
    for L in (2, 3, 4, 5):
        for s in (1, 2, 3):
            built = square_approximator(L, s, (s,) * (L - 2) + (0,))
            bound = built.guarantee.sup_error_bound
            assert bound == (s + 1) ** (-(L - 1))
            S = (s + 1) ** (L - 1)
            res = sup_error(built.net, lambda X: X[:, 0] ** 2, per_axis=100_000,
                            extra=np.arange(S + 1) / S)
            assert bound / 2 <= res.value <= bound, (L, s, res.value, bound)
            checked.append((L, s))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(1, f"{len(checked)} (L,s) configs in [bound/2, bound], {elapsed:.1f}s")


# -- 2: piece-count soundness -------------------------------------------------

def test_criterion_2_piece_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    cases = violations = mismatches = 0
    for kind in (NetworkKind.PLAIN, NetworkKind.SKIP, NetworkKind.LIN):
        for _ in range(1000):
            net = random_network(kind, rng)
            bound = piece_bound(net.arch)
            for _ in range(5):
                x1, x2 = random_segment(rng, net.arch.input_dim)
                part = exact_pieces(net, x1, x2)
                if part.piece_count > bound:
                    violations += 1
                if sampled_pieces(net, x1, x2, 1_000_000, refine_tol=1e-9) \
                        != part.piece_count:
                    mismatches += 1
                cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 15_000
    assert violations == 0
    assert mismatches == 0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(2, f"15000 cases, 0 bound violations, exact == sampled @1e6, {elapsed:.1f}s")


# -- 3: piece-count achievability ---------------------------------------------

def test_criterion_3_piece_achievability():
    for p1 in (1, 2):
        for L in (2, 3, 4):
            built = mixed_radix_bit_extractor((p1 + 1,) + (2,) * (L - 1))
            part = exact_pieces(built.net, [0.0], [1.0])
            bound = piece_bound(built.net.arch)
            assert bound == (p1 + 1) * 2 ** (L - 1)
            assert part.piece_count == bound, (p1, L, part.piece_count, bound)
    _report(3, "digit-extraction nets attain the piece ceiling exactly "
               "(p1 in {1,2}, unit budgets, L in {2,3,4})")


# -- 4: bit extraction exactness ----------------------------------------------

def _dyadic_radix_digits(xs, radix):
    """Vectorized digits for power-of-two radices (exact float scaling)."""
    prods = np.cumprod(radix)
    digits = np.empty((len(xs), len(radix)), dtype=np.int64)
    prev = np.zeros(len(xs), dtype=np.int64)
    for ell, (d, S) in enumerate(zip(radix, prods)):
        cur = np.minimum(np.floor(xs * float(S)).astype(np.int64), S - 1)
        digits[:, ell] = cur - d * prev
        prev = cur
    return digits


def _check_probe_batch(built, radix, xs, digits):
    widest = max(built.net.arch.augmented_widths())
    step = max(1, 200_000 // max(widest, 1))
    for lo in range(0, len(xs), step):
        block = xs[lo:lo + step]
        _, trace = evaluate_batch(built.net, block[:, None], with_trace=True)
        for label, (layer, idx) in built.probes.items():
            if label.startswith("d"):
                ell, t = label.split(">=")
                ell, t = int(ell[1:]), int(t)
            else:
                ell, t = int(label[1:]), 1
            want = (digits[lo:lo + step, ell - 1] >= t).astype(float)
            got = trace[layer - 1][idx]
            assert np.array_equal(got, want), f"{radix} probe {label}"


def test_criterion_4_bit_extraction_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    # power-of-two radix vectors: random points plus every cell boundary
    for radix in [(2,) * 20, (2,) * 10, (2, 4, 8, 2), (16, 16, 4)]:
        S = int(np.prod(radix))
        assert S <= 2**20
        xs = np.unique(np.concatenate([rng.uniform(0, 1, 10_000),
                                       np.arange(S + 1) / S, [0.0, 1.0]]))
        digits = _dyadic_radix_digits(xs, radix)
        built = mixed_radix_bit_extractor(radix)
        _check_probe_batch(built, radix, xs, digits)
    # lin extractors, both variants, boundaries included
    for L in (8, 16):
        xs = np.unique(np.concatenate([rng.uniform(0, 1, 10_000),
                                       np.arange(2**L + 1) / 2**L]))
        digits = _dyadic_radix_digits(xs, (2,) * L)
        for variant in ("wide", "narrow"):
            _check_probe_batch(binary_bit_extractor_lin(L, variant), (2,) * L, xs, digits)
    # general radices: random interior points and the endpoints; boundary
    # parameters are not floats, so boundary-side agreement is not defined
    for radix in [(3, 5, 7), (10, 10), (3,), (2, 3, 4, 5)]:
        xs = np.concatenate([rng.uniform(0, 1, 10_000), [0.0, 1.0]])
        digits = np.array([mixed_radix_digits(float(x), radix).digits for x in xs])
        _check_probe_batch(mixed_radix_bit_extractor(radix), radix, xs, digits)
    elapsed = time.perf_counter() - t0
    _report(4, f"probe readouts equal the floor recursion on every tested point, "
               f"{elapsed:.1f}s")


# -- 5: decoder exactness -----------------------------------------------------

def _payloads(geom, rng, cap=200):
    J, K, R = geom.sizes
    total = J * K * R
    if total <= 8:
        for bits in itertools.product((0, 1), repeat=total):
            yield np.array(bits).reshape(J, K, R)
    else:
        for _ in range(cap):
            yield rng.integers(0, 2, (J, K, R))


def test_criterion_5_decoder_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    counts = []
    for kind, m, n, t in [("skip", 1, 1, 0), ("skip", 2, 1, 0), ("skip", 1, 2, 0),
                          ("lin", 1, 0, 1), ("lin", 1, 1, 1)]:
        geom = CellGeometry(kind, 1, m, n, t)
        cells = [(j + 1, k + 1, r + 1) for j, k, r in np.ndindex(geom.sizes)]
        bit_rows = geom.cell_digits().reshape(len(cells), -1).astype(float)
        n_payloads = 0
        for payload in _payloads(geom, rng):
            table = BitTable(geom, payload)
            built = decoder(kind, table)
            out = evaluate_batch(built.net, bit_rows)[:, 0]
            got = (out >= 0).astype(int) if kind == "skip" else out.astype(int)
            want = np.array([payload[j - 1, k - 1, r - 1] for j, k, r in cells])
            if kind == "lin":
                assert np.array_equal(out, want.astype(float))
            assert np.array_equal(got, want), (kind, m, n, t)
            n_payloads += 1
        counts.append(n_payloads)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(5, f"payload counts {counts} decoded exactly at every cell center, "
               f"{elapsed:.1f}s")


# -- 6: VC lower-bound certificates ---------------------------------------------

def test_criterion_6_shatter_certificates():
    t0 = time.perf_counter()
    for kind, m, n, t in [("skip", 1, 1, 0), ("lin", 1, 0, 1)]:
        cert = shatter_verify(kind, m, n, t)
        assert cert.labelings_tried == 256
        assert cert.failures == []
        assert cert.implied_vc_lower_bound == 8
        assert cert.budgets_respected, shatter_budgets(kind, m, n, t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(6, f"skip(m=1,n=1) and lin(m=1,n=0,t=1): 256/256 labelings realized "
               f"within the stated budgets, {elapsed:.1f}s")


# -- 7: Hoelder construction error ----------------------------------------------

def _holder_case(kind, name, m, n, t, rng):
    target = TARGETS[name]
    f0, deriv, beta, d, bounds = (target.value, target.deriv, target.beta, target.d,
                                  target.bounds)
    built = holder_approximator(kind, target.holder_config(m, n, t))
    geom = CellGeometry(kind, d, m, n, t or 0)
    levels = geom.levels
    q = int(np.ceil(beta)) * levels
    # sup error against the guarantee
    if d == 1:
        res = sup_error(built.net, f0, per_axis=2000,
                        extra=np.arange(2**levels + 1) / 2**levels)
    else:
        res = sup_error(built.net, f0, per_axis=200 if levels <= 3 else 100)
    assert res.value <= built.guarantee.sup_error_bound, (kind, name, m, n, t)
    # quantization chain against the truncated local expansion
    X = rng.uniform(0, 1, (1000, d))
    centers = np.empty_like(X)
    for i in range(d):
        bits = np.floor(X[:, i] * 2.0**levels)
        bits = np.minimum(bits, 2.0**levels - 1)
        centers[:, i] = bits / 2.0**levels + 2.0 ** -(levels + 1)
    ref = taylor_reference_batch(deriv, beta, centers, X)
    out = evaluate_batch(built.net, X)[:, 0]
    gap = float(np.max(np.abs(out - ref)))
    assert gap <= 2.0 ** -q * sum(bounds.values()), (kind, name, m, n, t, gap)


def test_criterion_7_holder_errors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    cases = 0
    for name in TARGETS:
        for m, n in [(1, 1), (2, 2)]:
            _holder_case("skip", name, m, n, None, rng)
            cases += 1
        for m, n, t in [(1, 0, 1), (1, 1, 1)]:
            _holder_case("lin", name, m, n, t, rng)
            cases += 1
    elapsed = time.perf_counter() - t0
    _report(7, f"{cases} target/geometry cases within the stated error bounds "
               f"and the quantization chain, {elapsed:.1f}s")


# -- 8: representation exactness ------------------------------------------------

def test_criterion_8_representation_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    # hyperrectangles with boundary faces pinned exactly
    for _ in range(500):
        d = int(rng.integers(1, 4))
        a = rng.uniform(0, 0.6, d)
        b = a + rng.uniform(0, 0.4, d)
        built = hyperrectangle_indicator(a, b)
        pts = rng.uniform(-0.1, 1.1, (1000, d))
        for i in range(d):
            pts[4 * i, i] = a[i]
            pts[4 * i + 1, i] = b[i]
            pts[4 * i + 2] = a
            pts[4 * i + 3] = b
        want = np.all((pts >= a) & (pts <= b), axis=1).astype(float)
        assert np.array_equal(evaluate_batch(built.net, pts)[:, 0], want)
    # parity on every sign orthant up to d = 6
    for d in range(1, 7):
        built = parity_network(d)
        signs = np.array(list(itertools.product((0.7, -0.3), repeat=d)))
        want = np.prod(np.where(signs >= 0, 1.0, -1.0), axis=1)
        assert np.array_equal(evaluate_batch(built.net, signs)[:, 0], want)
    # xor truth table including the zero boundary rows
    built = xor_network()
    grid = np.array(list(itertools.product((-0.5, 0.0, 0.5), repeat=2)))
    want = ((grid[:, 0] >= 0) & (grid[:, 1] < 0)).astype(float) \
        + ((grid[:, 0] < 0) & (grid[:, 1] >= 0)).astype(float)
    assert np.array_equal(evaluate_batch(built.net, grid)[:, 0], want)
    # one-dimensional synthesis round trips at breakpoints on both sides
    for _ in range(200):
        p = int(rng.integers(1, 8))
        bps = np.sort(rng.choice(np.arange(1, 2**20), size=p, replace=False)) / 2.0**20
        spec = PieceSpec(tuple(bps), tuple(int(s) for s in rng.choice([-1, 1], p)),
                         tuple(rng.integers(-2**20, 2**20, p + 1) / 2.0**10))
        built = piecewise_constant_1d(spec)
        xs = np.unique(np.concatenate([bps, bps - 2.0**-25, bps + 2.0**-25, [0.0, 1.0]]))
        out = evaluate_batch(built.net, xs[:, None])[:, 0]
        for x, y in zip(xs, out):
            assert y == spec.value_at(float(x)), (spec, x)
    elapsed = time.perf_counter() - t0
    _report(8, f"rectangles, parity, xor, and 1-d synthesis all exact, {elapsed:.1f}s")


# -- 9: embedding equivalence ----------------------------------------------------

def test_criterion_9_embedding_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(500):
        net = random_network(NetworkKind.PLAIN, rng)
        X = rng.uniform(-0.5, 1.5, (100, net.arch.input_dim))
        base = evaluate_batch(net, X)
        as_skip = evaluate_batch(embed(net, NetworkKind.SKIP), X)
        as_lin = evaluate_batch(embed(net, NetworkKind.LIN), X)
        assert np.array_equal(base, as_skip)
        assert np.array_equal(base, as_lin)
    elapsed = time.perf_counter() - t0
    _report(9, f"500 nets x 100 inputs bit-identical across embeddings, {elapsed:.1f}s")


# -- 10: bound calculators -------------------------------------------------------

def test_criterion_10_bound_calculators():
    skip = Architecture(NetworkKind.SKIP, (1, 8, 8, 8, 8, 1), (1, 1, 1))
    assert vc_upper_bound(skip) == 38400.0
    plain = Architecture(NetworkKind.PLAIN, (1, 3, 7, 7, 1))
    assert piece_bound(plain) == 4
    assert approx_lower_bound((0.0, 1.0), Architecture(NetworkKind.PLAIN, (1, 3, 1))) == 0.125
    _report(10, "hand-checked closed forms reproduced exactly "
                "(38400, 4, 0.125)")
