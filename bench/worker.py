"""One fresh benchmark process: set up a workload, time its verification
calls, and check every call's output.

Started by ``run.py``; prints one JSON object as its last line. Modes:

setup  import the package, load the inputs and build the grids, then stop;
       prints the monotonic time at which the first call would start and
       the speed of the reference loop (``speed.py``) just after.
run    set up, then call (untraced, under the speed probe) until the next
       call would end after ``--seconds``.
trace  untraced passes for a third of the time, then traced passes (at
       least two); a pass makes one call per input, loading its entry
       inside the pass. Prints the per-layer values of every traced pass.

A call goes through the public API only: ``cli.run_suite`` plus report
serialization for a catalog entry, ``cli.main(["ke", ...])`` for a family.
Every call after the first gets a freshly loaded entry, outside the timed
region, so that no call reuses field values memoized by an earlier one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    sys.path.insert(0, SRC)
    import frame_kahler
    from frame_kahler import catalog, cli, frames

    where = os.path.dirname(os.path.abspath(frame_kahler.__file__))
    if where != os.path.join(SRC, "frame_kahler"):
        raise SystemExit("frame_kahler imported from %s, not from %s" % (where, SRC))
    return catalog, cli, frames


def _failed_ids(doc):
    return [c["id"] for c in doc["checks"] if not c["passed"]]


class VerifyInput:
    """A catalog entry verified on its seeded evaluation box."""

    def __init__(self, spec, seed, catalog, cli, frames):
        self.key = spec["key"]
        self._catalog, self._cli = catalog, cli
        self._entry_id = spec["entry"]
        self._params = spec.get("params", {})
        self._spare = catalog.load(self._entry_id, **self._params)
        self.box = workloads.seeded_box(spec.get("box") or self._spare.grid_box, seed, self.key)
        self._spare.grid_box = self.box
        self.grid = frames.grid_points(self._spare.data.kset, self.box)
        self.kset_names = self._spare.data.kset.names
        self.points = len(self.grid)

    def entry(self, fresh):
        """The entry loaded at setup for the first call, a new one after."""
        entry, self._spare = self._spare, None
        if entry is None or fresh:
            entry = self._catalog.load(self._entry_id, **self._params)
            entry.grid_box = self.box
        return entry

    def call(self, entry):
        report, _ = self._cli.run_suite(entry, "all", self.grid)
        return report.to_json().encode()

    def output(self, result):
        return result

    def check(self, output, reference):
        doc = json.loads(output)
        if not doc["passed"]:
            return "failed checks: %s" % _failed_ids(doc)
        if [c["id"] for c in doc["checks"]] != reference["checks"][self.key]:
            return "check ids or order differ from the reference"
        return None


class KeInput:
    """One ``ke`` command line, writing its JSON report and CSV curve."""

    grid = None
    kset_names = None

    def __init__(self, spec, seed, cli, workdir):
        self.key = spec["key"]
        self._cli = cli
        self._out = os.path.join(workdir, self.key)
        self.argv = workloads.ke_argv(spec["ke"], seed, self.key, self._out)
        self.points = spec["ke"]["n"]

    def entry(self, fresh):
        for suffix in (".json", ".csv"):
            if os.path.exists(self._out + suffix):
                os.remove(self._out + suffix)
        return None

    def call(self, _):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self._cli.main(list(self.argv))
        if code != 0:
            raise RuntimeError("ke exited with code %d" % code)

    def output(self, _):
        """The report and the curve the call wrote, read back untimed."""
        with open(self._out + ".json", "rb") as fh:
            report = fh.read()
        with open(self._out + ".csv", "rb") as fh:
            return report + b"\0" + fh.read()

    def check(self, output, reference):
        doc = json.loads(output.split(b"\0", 1)[0])
        if not doc["passed"]:
            return "failed checks: %s" % _failed_ids(doc)
        if [c["id"] for c in doc["checks"]] != reference["checks"][self.key]:
            return "check ids or order differ from the reference"
        notes = {c["id"]: c["note"] for c in doc["checks"]}
        for check_id, answer in reference["ke_answers"][self.key].items():
            if not notes[check_id].startswith(answer):
                return "%s note %r lacks the known answer %r" % (check_id, notes[check_id], answer)
        return None


class Runner:
    def __init__(self, workload, seed):
        self.reference = workloads.load_reference()
        catalog, cli, frames = import_program()
        self.workdir = os.path.join(ROOT, ".bench_out", str(os.getpid()))
        os.makedirs(self.workdir, exist_ok=True)
        self.inputs = [
            KeInput(spec, seed, cli, self.workdir) if "ke" in spec
            else VerifyInput(spec, seed, catalog, cli, frames)
            for spec in workloads.WORKLOADS[workload]["inputs"]
        ]
        self.first_output = {}
        self.failures = []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(self.workdir))

    def call(self, inp, fresh=False, tracer=None, probe=False):
        """One verification call; returns (load seconds, call seconds, call
        seconds at reference speed or None without ``probe``, ok)."""
        gc.collect()
        if tracer is not None:
            tracer.grid, tracer.grid_names = inp.grid, inp.kset_names
        start = time.perf_counter()
        entry = inp.entry(fresh)
        loaded = time.perf_counter()
        timer = speed.SpeedProbe() if probe else contextlib.nullcontext()
        reason = None
        with timer:
            try:
                result = inp.call(entry)
            except Exception as exc:  # a call that raises counts as failed
                reason = "%s: %s" % (type(exc).__name__, exc)
        call_s, ref_s = (timer.wall, timer.reference_s()) if probe else (time.perf_counter() - loaded, None)
        del entry
        if reason is None:
            try:
                output = inp.output(result)
                reason = inp.check(output, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                reason = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if reason is None and output != self.first_output.setdefault(inp.key, output):
            reason = "report bytes differ from the first call on the same input"
        if reason is not None and len(self.failures) < 20:
            self.failures.append("%s: %s" % (inp.key, reason))
        return loaded - start, call_s, ref_s, reason is None


def mode_run(runner, seconds):
    """Call until the next call, at the median call time, would end after
    ``seconds``; a run makes at least one call."""
    start = time.monotonic()
    calls = []
    while not calls or (time.monotonic() - start
                        + statistics.median(c[1] for c in calls) <= seconds):
        inp = runner.inputs[len(calls) % len(runner.inputs)]
        _, wall, ref, ok = runner.call(inp, probe=True)
        calls.append([inp.key, wall, ref, inp.points, ok])
    return {
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _pass(runner, tracer=None):
    wall, ok = 0.0, 0
    for inp in runner.inputs:
        load_s, call_s, _, good = runner.call(inp, fresh=True, tracer=tracer)
        wall += load_s + call_s
        ok += good
    return wall, len(runner.inputs) - ok


def mode_trace(runner, seconds):
    import spans

    start = time.monotonic()
    untraced, traced, failed = [], [], 0
    while not untraced or time.monotonic() - start < seconds / 3.0:
        wall, bad = _pass(runner)
        untraced.append(wall)
        failed += bad
    tracer = spans.Tracer()
    gc.collect()
    tracer.install()
    try:
        while len(traced) < 2 or time.monotonic() - start < seconds:
            gc.collect()
            tracer.reset()
            wall, bad = _pass(runner, tracer)
            gc.collect()
            if tracer.counts["trace.dead_nodes"] != tracer.counts["fields.nodes"]:
                runner.failures.append("%d field nodes outlived their traced pass" % (
                    tracer.counts["fields.nodes"] - tracer.counts["trace.dead_nodes"]))
                bad += 1
            failed += bad
            traced.append({
                "wall_s": wall,
                "metrics": tracer.metrics(wall),
                "layers": sorted(tracer.layers_seen()),
                "spans": tracer.span_table(),
            })
    finally:
        tracer.uninstall()
    return {
        "untraced_wall_s": untraced,
        "traced": traced,
        "attempted": len(runner.inputs) * (len(untraced) + len(traced)),
        "failed": failed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    try:
        setup_end = time.monotonic()
        result = {"setup_end": setup_end,
                  "setup_speed": [1.0 / speed.time_reference() for _ in range(5)]}
        if args.mode == "run":
            result.update(mode_run(runner, args.seconds))
        elif args.mode == "trace":
            result.update(mode_trace(runner, args.seconds))
        result["failures"] = runner.failures
    finally:
        runner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
