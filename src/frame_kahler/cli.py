"""Command-line driver: verification suites, Einstein families, catalog.

Commands
--------
verify   Run the central or warped verification suite on a catalog entry or
         a user structure document; write a JSON report (optionally a CSV of
         curve data).  Exit 0 when every check passes, 1 on a verification
         failure, 2 on usage or document errors.
ke       Evaluate an Einstein family (ODE residual, region inequalities,
         completeness) and emit the (tau, w, f, c, residual, s) curve. The
         family is its warped document (``catalog.family_document``),
         parsed as ``verify --config`` parses a document.
catalog  List the built-in structures or show one entry.

The checks live with the part of the construction they verify:
``kahler.shared_checks``, ``central.central_suite`` and
``warped.warped_suite``; this module runs them and writes what they find.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import catalog as catalog_mod
from .catalog import (CatalogEntry, SchemaError, capped_grid_box, coordinate_crosscheck, entry_from_document,
                      family_document, grid_axis, interval_bounds, load)
from .central import central_suite
from .fields import FieldError, _Grid
from .frames import curvature, koszul_connection, values_on_grid, worst_abs
from .kahler import CASE_CENTRAL, CASE_WARPED, build_kahler
from .reporting import TOL_TIGHT, VerificationReport
from .warped import (
    WarpedFamily,
    adaptive_simpson,
    completeness,
    ke_ode_residual,
    region_checks,
    warped_suite,
)


def run_suite(entry: CatalogEntry, suite: str, grid=None) -> tuple:
    """Run the ``suite`` ("central", "ke" or "all") of an entry on ``grid``
    (default: the entry's box); returns (report, curves), curves None when
    the structural gates failed. A suite that does not fit the entry's case
    is a SchemaError."""
    if {"central": CASE_CENTRAL, "ke": CASE_WARPED, "all": entry.data.case}.get(suite) != entry.data.case:
        raise SchemaError("--suite", "entry %r is a %s-case structure" % (entry.entry_id, entry.data.case))
    grid = _Grid.of(grid if grid is not None else entry.grid())
    central = entry.data.case == CASE_CENTRAL
    report, found = (central_suite if central else warped_suite)(entry, grid)
    if found is None:
        return report, None
    if entry.chart is not None:
        report.extend(coordinate_crosscheck(entry), prefix="chart.")
    if central:
        return report, _central_curves(entry, grid, *found)
    tau_grid, ode = found
    fam = entry.family
    return report, _ke_curves(fam, tau_grid.cols[0], *values_on_grid([fam.w, fam.f, fam.c_field, ode], tau_grid))


def _central_curves(entry, grid, verdict, curv_k):
    header = list(entry.data.kset.names) + ["s_tilde", "s_K", "central_curvature"]
    columns = values_on_grid([verdict.s_tilde, curv_k.scalar, verdict.central_curvature], grid)
    return header, np.column_stack([grid.cols.T, columns.T])


# samples per ke request and intervals per adaptive Simpson call: each request
# is a one-off grid, so the arrays it builds last one block, not the whole curve
_BLOCK = 4096


def _ke_curves(fam: WarpedFamily, tau, w, f, c, ode):
    """The curve columns over the samples ``tau``: the values of w, f,
    c = (fw)'/w and the family's ``ke_ode_residual`` there, which the
    caller has evaluated (``run_suite`` on its converted tau grid,
    ``cmd_ke`` block by block), and the arclength s (``_arclength``)."""
    header = ["tau", "w", "f", "c", "ke_residual", "s"]
    return header, np.column_stack([tau, w, f, c, ode, _arclength(fam.c_field, tau, c)])


def _arclength(c_field, tau, c):
    """s = integral of sqrt(max(c, 0)/2) from the first sample to each
    sample, where ``c`` holds the values of ``c_field`` at the samples.
    ``adaptive_simpson`` runs over consecutive blocks of ``_BLOCK``
    intervals, evaluating ``c_field`` on raw points; its result does not
    depend on how intervals share a call, so s does not depend on the
    blocks."""

    def speed(c):
        # sqrt(max(c, 0) / 2), keeping NaN and -0.0 as Python's max does
        return np.sqrt(np.where(0.0 > c, 0.0, c) * 0.5)

    def integrand(t):
        return speed(values_on_grid(c_field, t[:, None]))

    at_grid = speed(c)
    a, b, fa, fb = tau[:-1], tau[1:], at_grid[:-1], at_grid[1:]
    blocks = (slice(i, i + _BLOCK) for i in range(0, a.size, _BLOCK))
    increments = [adaptive_simpson(integrand, a[k], b[k], fa[k], fb[k]) for k in blocks]
    return np.cumsum(np.concatenate([[0.0], *increments]))


# ---------------------------------------------------------------------------
# command-line plumbing


def _parse_grid_overrides(specs, entry: CatalogEntry):
    """The entry's box with each var=lo:hi:n override, under the rule of
    document grids (``catalog.grid_axis``)."""
    box = dict(entry.grid_box)
    for spec in specs or ():
        name, _, axis = spec.partition("=")
        if name not in entry.data.kset.names:
            raise SchemaError("--grid", "unknown variable %r in %r (expected var=lo:hi:n)" % (name, spec))
        box[name] = grid_axis(axis.split(":"), "--grid %s" % spec)
    return capped_grid_box(box, "--grid")


def _entry_from_args(args) -> CatalogEntry:
    if args.example:
        try:
            return load(args.example)
        except KeyError as exc:
            raise SchemaError("--example", exc.args[0]) from None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(args.config, "invalid JSON: %s" % exc) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(args.config, "cannot read the document: %s" % exc) from None
        if not isinstance(doc, dict):
            raise SchemaError(args.config, "document must be a JSON object")
        return entry_from_document(os.path.splitext(os.path.basename(args.config))[0],
                                   "user structure from %s" % args.config, doc, {})
    raise SchemaError("verify", "need --example or --config")


def _write_report(report: VerificationReport, curves, args):
    fmt, out = args.format, args.out
    if out:
        if fmt in ("json", "both"):
            path = out if fmt == "json" else out + ".json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        if fmt in ("csv", "both"):
            path = out if fmt == "csv" else out + ".csv"
            with open(path, "w", encoding="utf-8") as fh:
                if curves is not None:
                    header, rows = curves
                    fh.write(",".join(header) + "\n")
                    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
                    # blocks of 1,024 rows: a whole-file string or whole-array .tolist() raises peak memory
                    fh.writelines((line * len(block)) % tuple(block.ravel().tolist())
                                  for block in (rows[i:i + 1024] for i in range(0, len(rows), 1024)))
                else:
                    fh.write(report.to_csv())


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise SchemaError("--tol", "need a finite factor > 0, got %r" % args.tol)
    entry = _entry_from_args(args)
    entry.grid_box = _parse_grid_overrides(args.grid, entry)
    start = time.perf_counter()
    report, curves = run_suite(entry, args.suite)
    elapsed = time.perf_counter() - start
    for c in report.checks:
        if c.tol > 0.0:
            c.tol *= args.tol
    report.print_lines()
    print("(%.2fs)" % elapsed, file=sys.stderr)
    _write_report(report, curves, args)
    return 0 if report.passed else 1


def cmd_ke(args) -> int:
    """Check an Einstein family on ``--n`` samples of its finite window
    and write its curve. The samples go through one-off requests of
    ``_BLOCK`` raw points each (the ODE residual, f, (fw)', w and c), so
    every array a request builds is dropped when it returns and the call
    keeps only the five value columns; ``ke_ode_residual`` is ``worst_abs``
    of the first and ``warped.region_checks`` reads f and (fw)'. An error
    names a sample of the first block that fails."""
    if args.n < 1:
        raise SchemaError("--n", "need at least 1 curve sample, got %d" % args.n)
    cap = catalog_mod.MAX_GRID_POINTS  # the tau grid is a grid: refused before it is built
    if args.n > cap:
        raise SchemaError("--n", "%d curve samples exceed the grid cap of %d" % (args.n, cap))
    for name in ("lam", "C", "a1", "a2", "alpha"):  # a document cannot hold nan or inf
        value = getattr(args, name)
        if not math.isfinite(value):
            raise SchemaError("--" + name, "need a finite number, got %r" % value)
    interval = interval_bounds(args.interval.split(":"), "--interval")
    if args.family == "alphaneg":
        if args.alpha >= 0.0:
            raise SchemaError("--alpha", "family alphaneg needs alpha < 0, got %r" % args.alpha)
        if interval[0] <= 0.0:
            raise SchemaError("--interval", "family alphaneg lives on tau > 0, got lo = %r" % interval[0])
    doc = family_document(args.family, interval, args.alpha, args.lam, args.C, args.a1, args.a2)
    entry = entry_from_document(args.family, "ke family %s" % args.family, doc, {})
    fam = entry.family

    report = VerificationReport(suite="ke-family:%s" % args.family,
                                grid_spec="tau=%g:%g:%d" % (interval + (args.n,)))
    # the document's grid is the finite window of the interval: completeness
    # integrates over the interval itself
    lo, hi, _ = entry.grid_box["tau"]
    tau = np.linspace(lo, hi, args.n)
    ode = ke_ode_residual(fam, entry.data.constants.alpha)
    columns = np.empty((5, args.n))
    for i in range(0, args.n, _BLOCK):
        columns[:, i:i + _BLOCK] = values_on_grid([ode, fam.f, fam.fw_prime, fam.w, fam.c_field],
                                                  tau[i:i + _BLOCK, None])
    ode_values, f, fw_prime, w, c = columns
    report.add("ke_ode_residual", worst_abs(ode_values), TOL_TIGHT)
    region_checks(report, f, fw_prime)
    if args.complete:
        cv = completeness(fam)
        report.add("completeness", 0.0, 0.0,
                   note="verdict %s; s extends to (%.4g, %.4g)" % ((cv.verdict,) + cv.s_range))

    # flatness flag of the induced metric over the reference fiber
    sub = [(t,) for t in np.linspace(lo, hi, 9)]
    km = build_kahler(entry.data)
    curv = curvature(km.structure, koszul_connection(km.structure))
    max_R = curv.max_component(sub)
    report.add("flatness_flag", 0.0, 0.0,
               note="flat=%s (max |R| = %.3e)" % ("true" if max_R <= 1e-7 else "false", max_R))

    report.print_lines()

    _write_report(report, _ke_curves(fam, tau, w, f, c, ode_values), args)
    return 0 if report.passed else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for eid in catalog_mod.catalog_ids():
            entry = load(eid)
            print("%-22s %s" % (eid, entry.description))
        return 0
    entry = load(args.id)
    print("id:          %s" % entry.entry_id)
    print("description: %s" % entry.description)
    print("case:        %s" % entry.data.case)
    cs = entry.data.constants
    print("constants:   a=%g b=%g alpha=%g beta=%g ell=%g" % (cs.a, cs.b, cs.alpha, cs.beta, cs.ell_gradient))
    if entry.family is not None:
        print("family:      lambda=%g C=%g interval=%s" % (entry.family.lam, entry.family.C, list(entry.family.interval)))
        print("  f: %s" % entry.document["family"]["f"])
        print("  w: %s" % entry.document["family"]["w"])
    print("expected:")
    for key, exp_val in sorted(entry.expected.items()):
        note = " (%s)" % exp_val.note if exp_val.note else ""
        print("  %-22s %-10r source=%s%s" % (key, exp_val.value, exp_val.source, note))
    print("document:")
    print(json.dumps(entry.document, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frame-kahler",
        description="Frame-level curvature engine and Kahler-metric verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--example", help="catalog entry id")
    p_verify.add_argument("--config", help="path to a structure document (JSON)")
    p_verify.add_argument("--suite", choices=["central", "ke", "all"], default="all")
    p_verify.add_argument("--grid", action="append", metavar="var=lo:hi:n",
                          help="override an evaluation axis (repeatable)")
    p_verify.add_argument("--out", help="report output path")
    p_verify.add_argument("--format", choices=["json", "csv", "both"], default="json")
    p_verify.add_argument("--tol", type=float, default=1.0,
                          help="finite factor > 0 applied to every nonzero check tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_ke = sub.add_parser("ke", help="evaluate an Einstein family")
    p_ke.add_argument("--family", required=True, choices=["alpha0", "alphaneg", "alpha_minus2"])
    p_ke.add_argument("--alpha", type=float, default=-1.0, help="bracket constant (alphaneg family)")
    p_ke.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0, help="Einstein constant")
    p_ke.add_argument("--C", type=float, default=0.0, help="integration constant")
    p_ke.add_argument("--a1", type=float, default=1.0)
    p_ke.add_argument("--a2", type=float, default=0.0)
    p_ke.add_argument("--interval", default="-1:1", metavar="lo:hi")
    p_ke.add_argument("--n", type=int, default=33, help="curve sample count")
    p_ke.add_argument("--complete", action="store_true", help="run the completeness analysis")
    p_ke.add_argument("--out", help="report output path")
    p_ke.add_argument("--format", choices=["json", "csv", "both"], default="csv")
    p_ke.set_defaults(func=cmd_ke)

    p_cat = sub.add_parser("catalog", help="list or show built-in structures")
    p_cat.add_argument("action", choices=["list", "show"])
    p_cat.add_argument("id", nargs="?")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.id:
        parser.error("catalog show needs an entry id")
    try:
        return args.func(args)
    except (SchemaError, FieldError, ArithmeticError, FileNotFoundError, KeyError) as exc:
        print("error: %s" % (exc.args[0] if isinstance(exc, KeyError) else exc), file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression too deep for Python's recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
