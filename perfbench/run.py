"""Run one deepseries benchmark workload and print its metrics.

    python3 perfbench/run.py --workload forecast_fit --seed 1 --seconds 30 --trace 0

Run from the repository root; the engine is imported from ``src/``.  The
output is human-readable ``env``/``metric``/``report``/``gate`` lines and,
last, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of a timed run.  ``--trace 1``
runs the workload's fixed minimum of work three times (untraced, traced,
untraced), reports the per-layer metrics of the traced pass, and writes its spans to
``perfbench/out/``.  The exit code is 0 when every correctness gate passed,
1 when one failed, and 2 when the engine could not be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _import_engine():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import deepseries
    except ImportError as exc:
        print(f"error: cannot import deepseries from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(deepseries.__file__).startswith(src + os.sep):
        print(f"error: deepseries resolved outside {src}: {deepseries.__file__}",
              file=sys.stderr)
        sys.exit(2)


def _blas_threads():
    """Thread count OpenBLAS will use, asked from the loaded library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
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


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _cpu_steal():
    """``(steal, total)`` CPU ticks of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def _number(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def _timed(fn, seed, seconds, workdir):
    import workloads

    run = workloads.Run(workloads.Plan(seconds))
    before = _cpu_steal()
    fn(seed, run, workdir)
    after = _cpu_steal()
    if before and after and after[1] > before[1]:
        # Time the hypervisor gave to other guests; throughput from runs with
        # different steal shares is not comparable.
        run.note("host_cpu_steal_share", (after[0] - before[0]) / (after[1] - before[1]),
                 "ratio")
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run, [(n, u) for n, u, _ in workloads.END_TO_END]


def _traced(name, fn, seed, workdir, env):
    import workloads
    from tracer import KINDS, Tracer, layer_shares, per_layer_catalog, per_layer_metrics

    def untraced():
        plain = workloads.Run(workloads.Plan(None))
        start = perf_counter()
        fn(seed, plain, workdir)
        return plain, perf_counter() - start

    # Untraced passes before and after the traced one; the faster of the two
    # is the reference for the tracing overhead.
    before, before_s = untraced()
    tracer = Tracer()
    run = workloads.Run(workloads.Plan(None), tracer)
    tracer.install()
    try:
        start = perf_counter()
        fn(seed, run, workdir)
        traced_s = perf_counter() - start
    finally:
        restored = tracer.uninstall()
    after, after_s = untraced()
    run.gate("trace_wrappers_removed", restored)
    for plain in (before, after):
        run.gates += [(f"untraced.{n}", ok, d) for n, ok, d in plain.gates]
        run.attempted += plain.attempted
        run.failed += plain.failed
    run.metrics = per_layer_metrics(tracer.spans, traced_s,
                                    traced_s / min(before_s, after_s))
    shares = layer_shares(run.metrics)
    for kind in sorted(KINDS, key=shares.get, reverse=True):
        if shares[kind] > 0:
            run.note(f"layer_share.{kind}", shares[kind], "ratio")
    run.note("layer_share.lstm+pool1d+conv1d",
             shares["lstm"] + shares["pool1d"] + shares["conv1d"], "ratio")
    run.note("spans", len(tracer.spans), "count")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    tracer.dump(path, {"workload": name, "env": env, "traced_s": traced_s,
                       "untraced_s": [before_s, after_s]})
    run.note("trace_file", os.path.relpath(path, ROOT), "path")
    return run, [(n, u) for n, u, _ in per_layer_catalog()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be > 0 and --seed >= 0")

    _import_engine()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    fn = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            run, catalog = _traced(args.workload, fn, args.seed, workdir, env)
        else:
            run, catalog = _timed(fn, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in catalog:
        value = _number(run.metrics.get(name))
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value!r} {unit}")
    for name, value, unit in run.report:
        print(f"report {name} {value!r} {unit}")
    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"report failed_ops_ratio {ratio!r} ratio (base: {run.attempted} attempted)")
    for name, ok, detail in run.gates:
        print(f"gate {name} {'PASS' if ok else 'FAIL'} {detail}")
    correct = (all(ok for _, ok, _ in run.gates) and run.failed == 0 and run.attempted > 0
               and all(m["value"] is not None for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
