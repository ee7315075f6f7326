"""Benchmark of frame-kahler: time to verdict and peak memory per workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``, and nothing is built or installed. Each run starts fresh worker
processes (``worker.py``), single-threaded, with ``FRAME_KAHLER_THREADS``
unset and BLAS threads pinned to 1:

* ``--trace 0``: ``SETUP_PROBES`` processes that only set up, then one that
  sets up and makes verification calls for ``--seconds``. Prints the
  end-to-end metrics of ``BENCHMARK.json``:
  setup_s        process start to the first verification call (median
                 over all the processes of the run);
  verify_p50_s   median seconds per call;
  verify_tail_s  the highest percentile with 10 calls beyond it, or the
                 median when the run makes fewer than 20 calls;
  points_per_s   grid points (curve samples for ``ke``) of one pass over
                 the inputs, over the sum of their median call times;
  peak_rss_mb    ``ru_maxrss`` of the process that made the calls.
  Times are at reference speed (``speed.py``): rescaled by a fixed loop
  timed in the same process around and during each call, which cancels
  the host's changing speed. The info line gives the raw wall-clock values.
* ``--trace 1``: one process that makes untraced, then traced passes over
  the workload's inputs (``spans.py``). Prints the per-layer metrics:
  medians over the traced passes for times, per-pass values for counts,
  which must repeat exactly in every traced pass.

Every call's report must pass, list the reference check ids in order and
repeat byte for byte on the same input; a failed call is counted in
``failed`` and makes the command exit 1. The last line of standard output
is the result object; the line before it records the run environment and
sample counts. Timings come from this benchmark's own processes only (wall
clock and ``ru_maxrss``); nothing machine-wide is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6
TAIL_MIN_CALLS = 20
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FRAME_KAHLER_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(mode, args, timeout):
    """Run worker.py in a fresh process; returns (spawn time, result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker %s exited with code %d" % (mode, proc.returncode))
    return spawned, json.loads(lines[-1])


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the median when a run has fewer than TAIL_MIN_CALLS."""
    n = len(times)
    if n < TAIL_MIN_CALLS:
        return statistics.median(times), 50.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(args, info):
    setup, setup_wall = [], []
    for _ in range(SETUP_PROBES + 1):
        mode = "setup" if len(setup) < SETUP_PROBES else "run"
        spawned, res = start_worker(mode, args, timeout=args.seconds * 3 + 60)
        setup_wall.append(res["setup_end"] - spawned)
        setup.append(speed.at_reference_speed(setup_wall[-1], res["setup_speed"]))

    calls = res["calls"]  # [input key, wall s, reference s, points, ok]
    failed = sum(1 for c in calls if not c[4])
    summary = {}
    for column, name in ((1, "wall"), (2, "reference")):
        times = [c[column] for c in calls]
        # throughput of one pass over the inputs, each at its median call time
        by_input = {}
        for c in calls:
            by_input.setdefault(c[0], (c[3], []))[1].append(c[column])
        pass_points = sum(points for points, _ in by_input.values())
        pass_seconds = sum(statistics.median(ts) for _, ts in by_input.values())
        tail_s, pct = tail(times)
        summary[name] = {"verify_p50_s": statistics.median(times), "verify_tail_s": tail_s,
                         "points_per_s": pass_points / pass_seconds}
    info.update({
        "calls": len(calls),
        "setup_samples": len(setup),
        "verify_tail_percentile": pct,
        "verify_tail_note": "median only: fewer than %d calls" % TAIL_MIN_CALLS if pct == 50.0 else "",
        "failed_ratio": failed / len(calls),
        "failures": res["failures"],
        "wall_clock": dict(summary["wall"], setup_s=statistics.median(setup_wall)),
    })
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, value in summary["reference"].items():
        metrics[name] = (value, "1/s" if name == "points_per_s" else "s")
    metrics["peak_rss_mb"] = (res["maxrss_kb"] / 1024.0, "MB")
    return len(calls), failed, metrics


def per_layer(args, info):
    _, res = start_worker("trace", args, timeout=args.seconds * 4 + 60)
    traced = res["traced"]
    failed = res["failed"]
    per_pass = [t["metrics"] for t in traced]
    expected = set(workloads.WORKLOADS[args.workload]["layers"])
    missing = sorted(expected - set(traced[0]["layers"]))
    if missing:
        res["failures"].append("no span recorded for layer(s) %s" % ", ".join(missing))
        failed += 1
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            if len(set(values)) != 1:
                res["failures"].append("count %s differs between traced passes: %s" % (name, values))
                failed += 1
            metrics[name] = (values[0], "count")
    untraced = statistics.median(res["untraced_wall_s"])
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced) - untraced, "s")
    info.update({
        "untraced_passes": len(res["untraced_wall_s"]),
        "traced_passes": len(traced),
        "untraced_pass_median_s": untraced,
        "failures": res["failures"],
        "spans": traced[-1]["spans"],
    })
    return res["attempted"], failed, metrics


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {"FRAME_KAHLER_THREADS": "unset", **{v: "1" for v in THREAD_VARS}},
        "timing": "wall clock and ru_maxrss of the benchmark's own processes; "
                  "nothing machine-wide is traced",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "frame_kahler", "__init__.py")
    if not os.path.isfile(package):
        print("error: no frame_kahler sources at %s" % package, file=sys.stderr)
        return 2

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment()}
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(args, info)
    for reason in info["failures"]:
        print("FAILED: %s" % reason, file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
