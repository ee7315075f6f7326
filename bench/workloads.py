"""Workloads of the frame-kahler benchmark and their correctness gate.

A workload is a list of inputs. Each input is one verification call: a
catalog entry verified by ``cli.run_suite`` on an evaluation box, or one
``ke`` command line run through ``cli.main``. Calls cycle through the inputs
until the run's time is up.

The seed moves every grid bound inward by at most ``MARGIN`` of its axis
width. The moved box stays inside the catalog's own box, where every check
passes, and point counts never change.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 0
MARGIN = 0.1

LAYERS = ("catalog", "fields", "frames", "kahler", "central", "warped", "cli", "reporting")

CATALOG_IDS = (
    "s3xr",
    "planewave",
    "ppwave",
    "warped_alpha0",
    "warped_alphaneg",
    "warped_alpha_minus2",
    "warped_complete",
)

# Each workload: its inputs, and the layers that its traced run must record
# spans for (a layer the workload never calls is left out, so that a missing
# span means broken tracing, not a quiet layer). Why each workload is in the
# benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "catalog_default": {
        "inputs": [{"key": eid, "entry": eid} for eid in CATALOG_IDS],
        "layers": LAYERS,
    },
    "central_sech_768": {
        "inputs": [{
            "key": "ppwave_sech",
            "entry": "ppwave",
            "params": {"iota": "-2*sech(x)^2"},
            "box": {"tau": [-0.5, 0.5, 3], "x": [-0.6, 0.6, 16], "y": [-0.6, 0.6, 16]},
        }],
        "layers": ("catalog", "fields", "frames", "kahler", "central", "cli", "reporting"),
    },
    "warped_alpha0_500": {
        "inputs": [{"key": "warped_alpha0_500", "entry": "warped_alpha0",
                    "box": {"tau": [-1.0, 1.0, 500]}}],
        "layers": ("catalog", "fields", "frames", "kahler", "warped", "cli", "reporting"),
    },
    "ke_implicit_20k": {
        "inputs": [{"key": "ke_alpha_minus2", "ke": {
            "family": "alpha_minus2", "interval": [0.05, 1.0], "n": 20000}}],
        "layers": ("fields", "frames", "kahler", "warped", "cli", "reporting"),
    },
}


def load_reference() -> dict:
    """Check ids, in order, of every input's report, plus the ``ke`` known
    answers. Residual values are not stored: they may move at the ulp level."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def seeded_box(box: dict, seed: int, key: str) -> dict:
    """Move each axis's bounds inward by up to MARGIN of its width."""
    rng = random.Random("%d:%s" % (seed, key))
    out = {}
    for name in sorted(box):
        lo, hi, n = box[name]
        lo, hi, n = float(lo), float(hi), int(n)
        if n > 1 and hi > lo:
            width = hi - lo
            lo += rng.uniform(0.0, MARGIN) * width
            hi -= rng.uniform(0.0, MARGIN) * width
        out[name] = (lo, hi, n)
    return out


def ke_argv(spec: dict, seed: int, key: str, out_path: str) -> list:
    """The ``ke`` command line of an input, with its seeded interval."""
    lo, hi = spec["interval"]
    (lo, hi, _), = seeded_box({"tau": (lo, hi, 2)}, seed, key).values()
    return [
        "ke", "--family", spec["family"], "--interval=%r:%r" % (lo, hi),
        "--complete", "--n", str(spec["n"]), "--format", "both", "--out", out_path,
    ]
