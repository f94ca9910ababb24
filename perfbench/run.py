"""Run one heavinet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: heavinet is imported from ``src/``
next to this directory, never from an installed copy.  The timed rounds run
in this one process, with BLAS and OpenMP pinned to one thread.  It sets up
its inputs, then runs whole rounds over the fixed item list until
``--seconds`` of rounds have passed; an untraced run also times several
cold set-ups in fresh interpreters between the rounds (see
setup_child.py).  It checks every output outside the timed region, and
prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count the operations of the item list: every
round repeats them and must give the same outputs.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` half the time runs
untraced and half traced, and the metrics are the per-layer ones (see
spans.py).  Results and span dumps are also written to ``perfbench/out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (thread pinning must precede numpy)
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 7


def cold_setup_ns(name: str, seed: int, tiny: bool, workdir: Path) -> int:
    """Wall time of one set-up in a fresh interpreter (see setup_child.py).

    It is not scaled like the item times.  A set-up is import work, and on
    the host this was written on its speed followed neither run.Clock's
    loop nor an interpreter loop timed in the child: either scaling made
    the spread of ``setup_s`` larger than raw wall time did."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), name, str(seed), str(int(tiny)),
         str(workdir)], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr[-2000:]}")
    return int(proc.stdout.split()[-1])


class Clock:
    """Wall time scaled to a reference machine speed.

    The host this benchmark was written on changes the speed of all code by
    up to 1.8x, in phases of a second to several minutes, as its
    neighbours' load comes and goes.  So the run times a fixed calibration
    loop (interpreter work and small numpy calls, no heavinet code) between
    items, after every ``CAL_EVERY_NS`` of item time.  Each stretch of work
    between two loops is a block; its wall time is multiplied by
    ``REF_CAL_NS`` over the median of the ``2 * WINDOW`` loops around it.
    Scaled times read as if the loop took exactly 1.5 ms.
    """

    REF_CAL_NS = 1_500_000
    CAL_EVERY_NS = 20_000_000
    WINDOW = 3
    _A = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    _X = np.ones((8, 16))
    _B = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    _Y = np.linspace(-1.0, 1.0, 16 * 4096).reshape(16, 4096)

    def __init__(self):
        self.cal_ns: list[int] = []
        self.calibrate()

    def calibrate(self) -> None:
        """One loop: small calls, then a pass over arrays of half a megabyte.

        The state an item leaves behind must not change the loop's time, or
        a change to the program would move its own scale factor.  So the
        loop runs twice and only the second run is timed, with its code and
        data back in the cache, and the garbage collector is off while it
        runs, so the size of the program's heap does not enter."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._loop()
            t0 = time.perf_counter_ns()
            self._loop()
            self.cal_ns.append(time.perf_counter_ns() - t0)
        finally:
            if collecting:
                gc.enable()

    def _loop(self) -> int:
        s = 0
        for i in range(100):
            s += int(np.where(self._A @ self._X >= 0.0, 1.0, 0.0)[i % 8, 0])
            s += len({j: j * i for j in range(20)})
        for _ in range(2):
            s += int(np.where(self._B @ self._Y >= 0.0, 1.0, 0.0).sum())
        return s

    @property
    def block(self) -> int:
        """The current block: the work that the next loop will end."""
        return len(self.cal_ns)

    def factors(self, blocks) -> np.ndarray:
        """Scale factor of each block in ``blocks``; all of them must have ended."""
        cal = np.asarray(self.cal_ns, dtype=float)
        w = self.WINDOW
        f = {b: self.REF_CAL_NS / np.median(cal[max(0, b - w):b + w]) for b in set(blocks)}
        return np.array([f[b] for b in blocks])


def run_rounds(items, seconds: float, clock: Clock, tracer=None, between_rounds=None):
    """Whole rounds over ``items`` until ``seconds`` of rounds have passed
    (at least one).  ``between_rounds`` runs after every round but the last;
    its time does not count against ``seconds``.  Returns per-round outputs,
    and per item run its wall time and its block (see Clock)."""
    outputs, item_ns, blocks = [], [], []
    now = time.perf_counter_ns
    deadline = now() + int(seconds * 1e9)
    while True:
        outs = []
        busy = 0
        for item in items:
            if tracer is not None:
                tracer.item = len(item_ns)
            t0 = now()
            try:
                out = item.run()
            except Exception as exc:  # a raising item is a failed operation
                out = ("raised", repr(exc))
            item_ns.append(now() - t0)
            blocks.append(clock.block)
            outs.append(out)
            busy += item_ns[-1]
            if busy >= clock.CAL_EVERY_NS:
                clock.calibrate()
                busy = 0
        if busy:
            clock.calibrate()
        outputs.append(outs)
        if now() >= deadline:
            return outputs, item_ns, blocks
        if between_rounds is not None:
            t0 = now()
            between_rounds()
            deadline += now() - t0


def judge(workload, hv, items, outputs) -> tuple[bool, int, list[str]]:
    """Check the first round's outputs; every later round must repeat them."""
    raised = {i for i, out in enumerate(outputs[0]) if out[:1] == ("raised",)}
    verdict = workload.check(hv, [it for i, it in enumerate(items) if i not in raised],
                             [o for i, o in enumerate(outputs[0]) if i not in raised])
    kept = [i for i in range(len(items)) if i not in raised]
    failed = {kept[i] for i in verdict.failed}
    errors = [f"{items[i].name}: {outputs[0][i][1]}" for i in sorted(raised)] + verdict.errors
    for r, outs in enumerate(outputs[1:], 1):
        for i, (a, b) in enumerate(zip(outputs[0], outs)):
            if a != b:
                errors.append(f"{items[i].name}: round {r} gave {b!r}, round 0 gave {a!r}")
    return not errors, len(failed | raised), errors


def item_medians(item_ns, n_items: int) -> np.ndarray:
    """Each item's median time over the rounds, in ns."""
    return np.median(np.asarray(item_ns, dtype=float).reshape(-1, n_items), axis=0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    tag = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = OUT / f"docs-{tag}"
    workload = workloads.make_workload(name, workdir)
    clock = Clock()
    try:
        hv = workloads.import_heavinet()
        items = workload.screen(hv, workload.make_items(hv, seed, tiny))
        result, record, dump = measure(workload, hv, items, seconds, trace, clock,
                                       partial(cold_setup_ns, name, seed, tiny, workdir / "setup"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not tiny:
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        record.update(workload=name, seed=seed, seconds=seconds)
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if trace:
            (OUT / f"{name}-seed{seed}-spans.json").write_text(json.dumps(dump))
    for line in record["errors"][:20]:
        print(f"check: {line}", file=sys.stderr)
    return result


def measure(workload, hv, items, seconds, trace, clock, cold_setup):
    """Timed rounds and checks: the result, the record for ``out/`` and the
    span dump of a traced run.

    An untraced run times its cold set-ups between the rounds, one after
    each round until there are ``SETUP_REPEATS``, and any left after the
    last round.  The host's speed for import work changes in phases of a
    few seconds, so set-ups spread over the run give a steadier median than
    set-ups in one burst."""
    n = len(items)
    dump = None
    if trace:
        import spans
        outputs, item_ns, blocks = run_rounds(items, seconds / 2, clock)
        tracer = spans.Tracer(hv)
        with tracer.patched():
            t_outputs, t_item_ns, t_blocks = run_rounds(items, seconds / 2, clock, tracer)
        for _ in range(Clock.WINDOW):
            clock.calibrate()
        t_scale = clock.factors(t_blocks)
        traced = item_medians(np.multiply(t_item_ns, t_scale), n).sum()
        untraced = item_medians(np.multiply(item_ns, clock.factors(blocks)), n).sum()
        metrics = spans.layer_metrics(tracer.spans, t_item_ns, t_scale,
                                      (traced - untraced) / n / 1e6)
        dump = spans.dump(tracer.spans, n)
        outputs += t_outputs
        wall = None
    else:
        setups = []

        def one_setup():
            if len(setups) < SETUP_REPEATS:
                setups.append(cold_setup())

        outputs, item_ns, blocks = run_rounds(items, seconds, clock, between_rounds=one_setup)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while len(setups) < SETUP_REPEATS:
            one_setup()
        for _ in range(Clock.WINDOW):
            clock.calibrate()
        typical = item_medians(np.multiply(item_ns, clock.factors(blocks)), n)
        metrics = {
            "items_per_s": {"value": n / typical.sum() * 1e9, "unit": "1/s"},
            "item_p50_ms": {"value": float(np.median(typical)) / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups) / 1e9, "unit": "s"},
        }
        wall = {"items_per_s": n / item_medians(item_ns, n).sum() * 1e9,
                "item_p50_ms": float(np.median(item_medians(item_ns, n))) / 1e6}
    correct, failed_items, errors = judge(workload, hv, items, outputs)
    result = {"correct": correct, "attempted": n, "failed": failed_items, "metrics": metrics}
    record = dict(result, rounds=len(outputs), items=n,
                  calibration_ms=statistics.median(clock.cal_ns) / 1e6, errors=errors[:50])
    if wall is not None:
        record["unscaled_wall"] = wall
    return result, record, dump


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["segments", "extractors", "certify", "approx", "documents"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (workloads.SRC / "heavinet" / "__init__.py").is_file():
        print(f"perfbench: no heavinet source tree at {workloads.SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
