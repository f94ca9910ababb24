"""Check that the scaled time of run.Clock keeps a known slowdown at its size.

    python3 perfbench/scaling_check.py --workload NAME [--seed N] [--rounds R]

Two checks, in one process with BLAS pinned to one thread like run.py:

1. The calibration loop must not feel the state a step leaves behind.  The
   loop is timed right after each of: nothing, a write over 16 MB (cold
   caches) and one item of the workload, in turn; and, in every other
   phase, after nothing while a ballast of a million live objects is held
   (a large heap).  Each median is printed as a share of the median after
   nothing; all should read 1.
2. A fixed amount of added work per item must come out at its true size.
   Each item runs plain and then with added work inside its timed region:
   interpreter work (small dicts), or memory traffic (passes over 2 MB
   arrays), each about as long as the mean item.  The item runs
   once untimed before, so that every timed run finds it in the cache, and
   the added work alone is timed after.  For each kind the check prints
   the slowdown per item over the time of the work alone, on scaled and on
   raw wall time.  Both should read about 1.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

_SRC2 = np.ones(1 << 18)            # 2 MB
_DST2 = np.empty(1 << 18)
_BIG = np.empty(1 << 21)            # 16 MB
CAL_STEPS = {"nothing": lambda: None, "cold caches": lambda: _BIG.fill(1.0)}


def interpreter_work(units: int) -> None:
    for _ in range(units):
        sum(len({j: j for j in range(20)}) for _ in range(20))


def memory_work(units: int) -> None:
    for _ in range(units):
        np.add(_SRC2, 1.0, out=_DST2)


def timed(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


def calibration_after(items, phases: int) -> dict:
    """Median calibration time after each kind of step, as a share of the
    median after no step.  The steps take turns within a phase; every other
    phase holds the ballast and steps only nothing."""
    clock = run.Clock()
    times: dict[str, list[int]] = {}
    for phase in range(phases):
        ballast = [[i] for i in range(1_000_000)] if phase % 2 else None
        for k in range(5):
            steps = {"large heap": CAL_STEPS["nothing"]} if ballast else \
                dict(CAL_STEPS, item=items[(5 * phase + k) % len(items)].run)
            for kind, step in steps.items():
                step()
                clock.calibrate()
                times.setdefault(kind, []).append(clock.cal_ns[-1])
        del ballast
    base = float(np.median(times["nothing"]))
    return {kind: float(np.median(ns)) / base for kind, ns in times.items()}


def added_work_ratios(items, rounds: int) -> dict:
    """Per kind of added work: (scaled, raw) slowdown per item over the
    time of the work alone.  Each item runs once untimed, so that every
    timed run finds it in the cache, then plain and with each kind of added
    work; then each work runs alone.  They run back to back, so that all of
    them meet the same machine speed."""
    clock = run.Clock()
    n = len(items)
    mean_ns = np.mean([timed(it.run) for it in items])
    works = {}
    for name, work in (("interpreter", interpreter_work), ("memory", memory_work)):
        unit = np.median([timed(lambda: work(1)) for _ in range(20)])
        works[name] = partial(work, max(1, round(mean_ns / unit)))
    runs: dict[str, tuple[list, list]] = {}
    busy = 0
    for _ in range(rounds):
        for it in items:
            it.run()
            steps = {"plain": it.run}
            for name, work in works.items():
                steps[name] = lambda w=work: (it.run(), w())
                steps[f"{name} alone"] = work
            for kind, step in steps.items():
                ns = timed(step)
                runs.setdefault(kind, ([], []))[0].append(ns)
                runs[kind][1].append(clock.block)
                busy += ns
                if busy >= run.Clock.CAL_EVERY_NS:
                    clock.calibrate()
                    busy = 0
    for _ in range(run.Clock.WINDOW + 1):
        clock.calibrate()

    def per_item(kind, scaled):
        ns, blocks = runs[kind]
        f = clock.factors(blocks) if scaled else np.ones(len(ns))
        return run.item_medians(np.multiply(ns, f), n)

    return {name: tuple((per_item(name, scaled) - per_item("plain", scaled)).sum()
                        / per_item(f"{name} alone", scaled).sum()
                        for scaled in (True, False))
            for name in works}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["segments", "extractors", "certify", "approx", "documents"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--tiny", action="store_true", help="tiny item lists (self-test)")
    args = ap.parse_args()
    workdir = run.OUT / f"docs-scaling-{os.getpid()}"
    workload = workloads.make_workload(args.workload, workdir)
    try:
        hv = workloads.import_heavinet()
        items = workload.screen(hv, workload.make_items(hv, args.seed, args.tiny))
        shares = calibration_after(items, 2 if args.tiny else 24)
        print(args.workload, "calibration after: " + ", ".join(
            f"{kind} {share:.3f}" for kind, share in shares.items()))
        for name, (scaled, raw) in added_work_ratios(items, args.rounds).items():
            print(args.workload, f"{name} work added, slowdown / its time alone: "
                  f"scaled {scaled:.3f}, raw {raw:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
