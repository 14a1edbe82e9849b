"""Run one benchmark workload of petl-lab and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload micro_finetune --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` and its test oracles from ``tests/`` of
the same checkout. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it holds the details (environment, error rate, sample
counts, tail percentile, span table), also written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/petl_lab/__init__.py", "tests/conftest.py", "tests/reference_impl.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be read."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "machine": platform.machine(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": blas_threads()},
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tracing_overhead(model, clip) -> dict:
    """Median no_grad forward of one clip, untraced and traced.

    The two alternate, one forward each, so that a change of load on a
    shared host touches both sides alike.
    """
    from petl_lab import tensor as T
    import stats
    import tracing

    def forward_seconds():
        start = time.perf_counter()
        with T.no_grad():
            model.forward(clip)
        return time.perf_counter() - start

    # about a second of forwards per side, and never fewer than five
    reps = int(min(50, max(5, 1.0 / forward_seconds())))
    untraced_s, traced_s = [], []
    for _ in range(reps):
        untraced_s.append(forward_seconds())
        with tracing.Tracer():
            traced_s.append(forward_seconds())
    untraced, traced = stats.median(untraced_s), stats.median(traced_s)
    return {"reps": reps, "untraced_ms": untraced * 1e3, "traced_ms": traced * 1e3,
            "overhead_ms": (traced - untraced) * 1e3,
            "overhead_pct": 100.0 * (traced - untraced) / untraced}


def run(args, work_dir: Path) -> tuple[dict, dict]:
    import tracing
    import workloads

    workload = workloads.make(args.workload, work_dir)
    detail = {"environment": environment(args)}
    with tracing.Probe() as probe:
        if args.trace:
            detail["tracing_overhead"] = tracing_overhead(
                *workload.probe_input(workload.setup(args.seed)))
            gc.collect()
        tracer = tracing.Tracer() if args.trace else None
        with tracer or nullcontext():
            setup_s = []
            state = None
            for _ in range(workload.setup_reps):
                state = None  # free the previous model before building the next
                gc.collect()
                start = time.perf_counter()
                state = workload.setup(args.seed)
                setup_s.append(time.perf_counter() - start)
            session = workloads.Session(None if args.trace else args.seconds)
            workload.measure(session, state, args.seed)
    workloads.check_backward(session.tally)

    tally = session.tally
    detail.update({"attempted": tally.attempted, "failed": tally.failed,
                   "error_rate": tally.error_rate, "failures": tally.notes,
                   "peak_rss_mb": peak_rss_mb(), "setup_s": setup_s})
    if args.trace:
        table = tracing.SpanTable(tracer)
        jobs = session.windows.get(workload.job, [])
        metrics = tracing.layer_metrics(table, probe, jobs, workload.run_span)
        overhead = detail["tracing_overhead"]
        metrics["trace.overhead_ms_per_clip"] = (overhead["overhead_ms"], "ms")
        metrics["trace.overhead_pct"] = (overhead["overhead_pct"], "%")
        detail["spans"] = table.summary()
    else:
        metrics, extra = workloads.end_to_end(workload, session, probe, setup_s)
        metrics["peak_rss_mb"] = (detail["peak_rss_mb"], "MB")
        detail.update(extra)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        result, detail = run(args, Path(work))
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"result": result, **detail}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
