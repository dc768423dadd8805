"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload train-syn1 --seed 1 --seconds 20 --trace 0

A run sets the workload up three times (``setup_s`` is their median)
and runs one untimed warm-up operation, whose outputs it checks against
references made apart from the program. It then runs whole operations,
one after another, until ``--seconds`` have passed, and checks that
every one repeats the warm-up's outputs exactly. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics of the traced ones, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Fixed before numpy loads: one BLAS thread (nproc is 2 on the reference
# host), so runs do not contend with themselves for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer) -> dict:
    setup_s = []
    for _ in range(SETUPS):
        if tracer:
            tracer.begin("setup")
            tracer.install()
        try:
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()

    # The first operation warms allocator and caches up and runs the checks;
    # its time is not counted.
    warmup, untraced, traced, problems = [], [], [], []
    attempted = failed = 0
    start = None
    while start is None or time.perf_counter() - start < seconds or (tracer and attempted % 2 == 0):
        tracing = tracer is not None and attempted % 2 == 0 and attempted > 0
        if tracing:
            tracer.begin("op")
            tracer.install()
        try:
            result = workload.run(check=attempted == 0)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            (warmup if start is None else traced if tracing else untraced).append(result)
            problems += result.problems
        finally:
            if tracing:
                tracer.uninstall()
        attempted += 1
        if start is None:
            start = time.perf_counter()

    done = warmup + untraced + traced
    if done and any(r.fingerprint != done[0].fingerprint for r in done):
        problems.append("operations of one run gave different outputs")
    return dict(setup_s=setup_s, untraced=untraced, traced=traced, problems=problems,
                attempted=attempted, failed=failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crossscalenet" / "__init__.py").is_file():
        print(f"error: no crossscalenet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / "bench" / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    untraced = run["untraced"]
    if not untraced:
        print("error: no operation completed", file=sys.stderr)
        return 1
    op_s = statistics.median(r.timings["op_s"] for r in untraced)
    figures = workload.figures(untraced)
    end_to_end = {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "op_s": (op_s, "s"),
        "windows_per_s": figures.pop("windows_per_s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in {**end_to_end, **figures}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    each = ",".join(f"{r.timings['op_s']:.4f}" for r in untraced)
    print(f"{args.workload} untraced op_s of each operation: {each}")
    print(f"{args.workload} operations attempted {run['attempted']} failed {run['failed']}")

    if tracer:
        traced_s = statistics.median(r.timings["op_s"] for r in run["traced"]) if run["traced"] else 0.0
        metrics = tracer.metrics()
        metrics["trace.op_s"] = (traced_s, "s")
        metrics["trace.untraced_op_s"] = (op_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / op_s - 1.0), "%")
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
