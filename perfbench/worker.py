"""One pass of a workload's case set in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload search --seed 1 \
        [--spans perfbench/out/spans.npz]

Imports the package, then runs every case of the workload once in a
closed loop (each case starts when the previous one has finished and been
checked), and prints one JSON line: the pass wall time, this process's
peak resident memory, one outcome per case and, with --spans, the
per-layer numbers of the tracer (the spans themselves go to that file).
The package's lru caches (fields, classical generators, certified
orders) are cleared before each case, so that every case pays what a CLI
invocation pays.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import cases  # noqa: E402


def package_caches():
    """Every functools cache a module of the package defines."""
    return [obj for modname, mod in sorted(sys.modules.items())
            if modname.startswith("ibiskit.")
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear")
            and getattr(obj, "__module__", None) == modname]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", default=None,
                    help="trace the pass and write its spans to this file")
    args = ap.parse_args()

    import ibiskit.cli  # the set-up a CLI call pays, kept out of the timing
    import numpy
    pkg = os.path.dirname(os.path.abspath(ibiskit.cli.__file__))
    if os.path.dirname(pkg) != SRC:
        raise SystemExit(f"ibiskit loaded from {pkg}, not from {SRC}")
    # found before the tracer wraps them
    caches = package_caches()

    tracer = None
    if args.spans:
        import trace_layers
        tracer = trace_layers.Tracer()
        tracer.install()

    plan = cases.workload(args.workload)
    outcomes = []
    t0 = time.perf_counter()
    for cid, (name, run) in enumerate(plan):
        if tracer:
            tracer.case = cid
        c0 = time.perf_counter()
        for cache in caches:
            cache.cache_clear()
        try:
            bad = run(args.seed)
            error = "; ".join(bad) if bad else None
        except Exception as exc:  # a raising case is a failed case
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        outcomes.append({"name": name, "ok": error is None, "error": error,
                         "seconds": time.perf_counter() - c0})
    t1 = time.perf_counter()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"wall_s": t1 - t0, "peak_rss_mb": peak_kb / 1024.0,
           "cases": outcomes,
           "env": {"nproc": os.cpu_count(),
                   "affinity": len(os.sched_getaffinity(0)),
                   "python": sys.version.split()[0],
                   "numpy": numpy.__version__}}
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary(t0, t1)
        tracer.write_spans(args.spans, [name for name, _ in plan])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
