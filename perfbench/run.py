"""The ibiskit benchmark.

    python3 perfbench/run.py --workload {reproduce,search,domains} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is loaded from its
src/ directory.  Every pass of the workload's case set runs in a fresh
single-threaded interpreter (perfbench/worker.py), and each case starts
with empty caches, as a CLI invocation does.

--trace 0 runs passes, one after the other, until S seconds have gone by,
and measures set-up (a fresh interpreter until `import ibiskit.cli` has
returned) four times before every pass and after the last; it reports
the end-to-end metrics.  --trace 1 runs one untraced
pass and two traced passes with the same seed, fails unless the exact
counters of the two traced passes agree, and reports the per-layer
metrics.  The last line of standard output is one JSON object; details
(environment, every pass, every case) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import cases  # noqa: E402
from trace_layers import EXACT_COUNTERS  # noqa: E402

SETUP_REPEATS = 4          # set-up samples at each point of a run
DEADLINE_S = 170          # every run ends well inside the 180 s limit
SINGLE_THREAD = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.t_begin = time.monotonic()
        self.env = child_env()

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.t_begin)

    def setup_once(self):
        """Seconds from spawning a fresh interpreter until its
        `import ibiskit.cli` has returned; the child's shutdown is not
        counted.  CLOCK_MONOTONIC is system-wide, so the child's reading
        and the parent's compare."""
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import ibiskit.cli, time; print(repr(time.monotonic()))"],
            env=self.env, cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE)
        return float(proc.stdout.split()[-1]) - t0

    def one_pass(self, spans=None):
        """Run the case set once in a fresh worker, traced when given a
        spans file; None if it crashed."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed)]
        if spans:
            cmd += ["--spans", spans]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print("worker ran past the deadline", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])


def tally(passes, n_cases):
    """(attempted, failed); a crashed pass fails all of its cases."""
    attempted = failed = 0
    for p in passes:
        attempted += n_cases
        failed += n_cases if p is None else sum(not c["ok"] for c in p["cases"])
    return attempted, failed


def timed(runner, seconds):
    # set-up is sampled before every pass and after the last, so that the
    # samples spread over the whole run and a change in the machine's
    # speed during it moves only part of them
    setup = []
    passes = []
    t0 = time.monotonic()
    while True:
        setup += [runner.setup_once() for _ in range(SETUP_REPEATS)]
        passes.append(runner.one_pass())
        if passes[-1] is None or time.monotonic() - t0 >= seconds:
            break
        # stop early rather than run past the deadline
        if runner.remaining() < 1.5 * (time.monotonic() - t0) / len(passes):
            break
    setup += [runner.setup_once() for _ in range(SETUP_REPEATS)]
    good = [p for p in passes if p is not None]
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in good),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }
    detail = {"setup_s": setup, "samples": len(good), "passes": passes}
    return passes, metrics, detail


def traced(runner):
    runs = [runner.one_pass()]
    for k in (1, 2):
        if runs[-1] is None:
            break
        spans = os.path.join(OUT, f"spans-{runner.workload}-{k}.npz")
        runs.append(runner.one_pass(spans=spans))
    if None in runs:
        return runs, {}, {"passes": runs}, ["a pass crashed"]
    plain, a, b = runs[0], runs[1]["trace"], runs[2]["trace"]
    mismatch = [f"exact-count gate: {c} {a[c]} != {b[c]}"
                for c in EXACT_COUNTERS if a[c] != b[c]]
    metrics = {k: (a[k] + b[k]) / 2 if isinstance(a[k], float) else a[k]
               for k in a}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_s"]
    return runs, metrics, {"passes": runs, "untraced_wall_s": plain["wall_s"],
                           "count_mismatch": mismatch}, mismatch


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ibiskit", "__init__.py")):
        print(f"error: no ibiskit sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    runner = Runner(args.workload, args.seed)
    n_cases = len(cases.workload(args.workload))
    problems = []
    if args.trace:
        passes, metrics, detail, problems = traced(runner)
    else:
        passes, metrics, detail = timed(runner, args.seconds)
    if metrics:
        problems += [f"metric {m['name']} not measured" for m in declared
                     if m["name"] not in metrics]
    attempted, failed = tally(passes, n_cases)
    env = next((p["env"] for p in passes if p), {})
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, problems=problems)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)

    correct = failed == 0 and not problems and bool(metrics)
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    for p in passes:
        for c in (p or {}).get("cases", []):
            if not c["ok"]:
                print(f"wrong: {c['name']}: {c['error']}", file=sys.stderr)
    samples = detail.get("samples", len(passes))
    print(f"# {args.workload} seed={args.seed} samples={samples} "
          f"fail_share={failed / max(attempted, 1):.4f} "
          f"nproc={env.get('nproc')} python={env.get('python')} "
          f"numpy={env.get('numpy')}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
