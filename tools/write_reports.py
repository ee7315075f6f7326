"""Write a fixed set of frame-kahler reports into one directory.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 tools/write_reports.py OUT_DIR
    PYTHONPATH=src python3 tools/write_reports.py --digests FILE [OUT_DIR]

The reports come from the public command line (``cli.main``) and catalog
API only, so the script also runs against an older ``src/``: point
``PYTHONPATH`` at it. Run it on two versions and ``diff -r`` the two
directories to see every report byte that a change moved. The package is
imported from ``PYTHONPATH`` (or an installed copy) first, and from the
``src/`` next to this script otherwise; the directory used is printed to
standard error.

OUT_DIR receives:

* ``<id>.json``/``<id>.csv`` for the seven catalog entries at their default
  grids;
* ``ppwave_sech_8x8`` and ``ppwave_sech_16x16`` (twist ``-2*sech(x)^2``
  on 3x8x8 and on 3x16x16 points, the grid of the benchmark's
  central_sech_768 workload);
* ``warped_alpha0_500`` (warped_alpha0 at ``tau=-1:1:500``, the grid of the
  benchmark's warped_alpha0_500 workload);
* ``config_ppwave_sech``/``config_warped_alpha0``, ``verify --config`` on
  those two documents (``docs/`` holds the documents);
* ``ke_alpha0``/``ke_alphaneg``/``ke_alpha_minus2``, ``ke`` JSON+CSV, and
  ``ke_alpha_minus2_20k`` (alpha_minus2 at 20,000 tau samples, the command
  line of the benchmark's ke_implicit_20k workload without its seed);
* four runs that fail (exit 1), so that the bytes of failing records are
  compared too: ``config_warped_alpha0_lambda_m1`` (the warped_alpha0
  document with lambda -1), ``config_s3xr_gxx_2`` (s3xr with g(x,x) = 2,
  stopped by the structural gates), ``config_s3xr_nan_f`` (s3xr with a
  potential that is NaN off tau = 0) and ``planewave_tol_1e-30``
  (``verify --example planewave --tol 1e-30``);
* two runs that stop with an error (exit 2) and write no report:
  ``config_s3xr_f_tau2`` (s3xr with f = tau*tau, a singular pointwise
  solve) and ``config_s3xr_log_f`` (s3xr with f = log(tau), outside the
  domain of log);
* ``<name>.err``, the ``error:`` line of each run that exits 2;
* ``exit_codes.txt``, the exit code of every run above.

``--digests FILE`` also writes FILE, a JSON object with the sha256 of every
file written (``docs/`` included), keyed by its path under OUT_DIR, and the
numpy version, ``platform.machine()`` and numpy's enabled SIMD dispatch
targets of the run; without OUT_DIR the
reports go to a temporary directory. ``tests/report_digests.json`` holds
the digests that the test suite compares against.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))

from frame_kahler import catalog, cli  # noqa: E402

SECH = "-2*sech(x)^2"

KE_RUNS = {
    "ke_alpha0": ["--family", "alpha0", "--lam", "-1", "--interval=-inf:inf", "--complete"],
    "ke_alphaneg": ["--family", "alphaneg", "--interval=0.2:1.4"],
    "ke_alpha_minus2": ["--family", "alpha_minus2", "--interval=0.05:1.0", "--complete"],
    "ke_alpha_minus2_20k": ["--family", "alpha_minus2", "--interval=0.05:1.0", "--complete", "--n", "20000"],
}


def _changed(entry_id: str, edit) -> dict:
    """The document of a catalog entry after ``edit`` changed a copy of it."""
    doc = copy.deepcopy(catalog.load(entry_id).document)
    edit(doc)
    return doc


# documents that fail verification (exit 1) or stop with an error (exit 2)
EDITED_CONFIGS = {
    "warped_alpha0_lambda_m1": lambda: _changed("warped_alpha0", lambda d: d["family"].update({"lambda": -1})),
    "s3xr_gxx_2": lambda: _changed("s3xr", lambda d: d["g"].update({"x,x": "2"})),
    "s3xr_nan_f": lambda: _changed("s3xr", lambda d: d.update(
        {"f": "exp(tau) + (1e200*tau)*(1e200*tau)*(tau-tau)"})),
    "s3xr_f_tau2": lambda: _changed("s3xr", lambda d: d.update({"f": "tau*tau"})),
    "s3xr_log_f": lambda: _changed("s3xr", lambda d: d.update({"f": "log(tau)"})),
}


def runs(out_dir: str):
    """(name, argv) of every command line, writing documents it needs."""
    for eid in catalog.catalog_ids():
        yield eid, ["verify", "--example", eid]
    docs = os.path.join(out_dir, "docs")
    os.makedirs(docs, exist_ok=True)
    configs = {
        "ppwave_sech": catalog.load("ppwave", iota=SECH).document,
        "warped_alpha0": catalog.load("warped_alpha0").document,
    }
    configs.update((name, build()) for name, build in EDITED_CONFIGS.items())
    for name, doc in configs.items():
        path = os.path.join(docs, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        yield "config_" + name, ["verify", "--config", path]
    for n in (8, 16):
        yield "ppwave_sech_%dx%d" % (n, n), [
            "verify", "--config", os.path.join(docs, "ppwave_sech.json"),
            "--grid", "x=-0.6:0.6:%d" % n, "--grid", "y=-0.6:0.6:%d" % n]
    yield "warped_alpha0_500", ["verify", "--example", "warped_alpha0", "--grid", "tau=-1:1:500"]
    for name, argv in KE_RUNS.items():
        yield name, ["ke"] + argv
    yield "planewave_tol_1e-30", ["verify", "--example", "planewave", "--tol", "1e-30"]


def simd_targets() -> list:
    """numpy's SIMD dispatch targets that this CPU enables: an ufunc may pick
    a different kernel, with different last bits, under another list."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def digests(out_dir: str) -> dict:
    """The sha256 of every file under ``out_dir``, keyed by its relative path
    with ``/`` separators, and the environment that wrote the files."""
    files = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd_targets(),
            "sha256": dict(sorted(files.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="write_reports.py")
    parser.add_argument("out_dir", nargs="?", metavar="OUT_DIR")
    parser.add_argument("--digests", metavar="FILE")
    args = parser.parse_args(argv)
    if args.out_dir is None and args.digests is None:
        parser.error("give OUT_DIR, --digests FILE, or both")
    with contextlib.ExitStack() as stack:
        out_dir = args.out_dir or stack.enter_context(tempfile.TemporaryDirectory())
        write_reports(out_dir)
        if args.digests:
            with open(args.digests, "w", encoding="utf-8") as fh:
                json.dump(digests(out_dir), fh, indent=1)
                fh.write("\n")
    return 0


def write_reports(out_dir: str) -> None:
    """Run every command line of ``runs`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    print("frame_kahler from %s" % os.path.dirname(cli.__file__), file=sys.stderr)
    codes = []
    for name, args in runs(out_dir):
        args = args + ["--format", "both", "--out", os.path.join(out_dir, name)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        codes.append("%s %d\n" % (name, code))
        if code == 2:
            with open(os.path.join(out_dir, name + ".err"), "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in stderr.getvalue().splitlines() if line.startswith("error:"))
    with open(os.path.join(out_dir, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(codes)


if __name__ == "__main__":
    sys.exit(main())
