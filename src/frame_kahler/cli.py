"""Command-line driver: verification suites, Einstein families, catalog.

Commands
--------
verify   Run the central or warped verification suite on a catalog entry or
         a user structure document; write a JSON report (optionally a CSV of
         curve data).  Exit 0 when every check passes, 1 on a verification
         failure, 2 on usage or document errors.
ke       Evaluate an Einstein family (ODE residual, region inequalities,
         completeness) and emit the (tau, w, f, c, residual, s) curve.
catalog  List the built-in structures or show one entry.
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
from .catalog import CatalogEntry, SchemaError, coordinate_crosscheck, entry_from_document, load
from .central import (
    conformal_scalar_closed_form,
    csc_verdict,
    laplacian_self_test,
    left_invariance_check,
    ricci_endomorphism_eigenvalues,
)
from .fields import CScalarField, DomainError, FieldError, exp, log_abs, variable
from .frames import (
    consistency_suite,
    curvature,
    grid_points,
    grid_spec_string,
    koszul_connection,
    max_abs_on_grid,
    min_on_grid,
    plane_laplacian_log_abs,
    sectional_curvature,
    values_on_grid,
    worst_abs,
)
from .kahler import (
    CASE_CENTRAL,
    CASE_WARPED,
    K,
    T,
    X,
    Y,
    build_chain,
    build_kahler,
    check_admissible,
    cross_route_ricci_residual,
    exterior_d_two_form,
    j_image,
    kahler_form_closed,
    ricci_form_imag_residual,
)
from .reporting import TOL_CROSS, TOL_FRAME, TOL_TIGHT, VerificationReport
from .warped import (
    WarpedFamily,
    adaptive_simpson,
    completeness,
    einstein_verdict,
    family_alpha_negative,
    family_alpha_zero,
    family_implicit_tan,
    fiber_consistency,
    ke_ode_residual,
    lift_fiber,
    make_fiber,
    quotient_gauss_check,
    solve_implicit_w,
)

# ---------------------------------------------------------------------------
# suite runners


def _gamma_closed_form_residual_central(A, gf, grid):
    """Engine gamma forms against the constant-coefficient displays of the
    commuting (central) case."""
    S = A.structure
    a, b = A.constants.a, A.constants.b
    alpha, beta = A.constants.alpha, A.constants.beta
    fp = A.f_prime()
    fpp = fp.partial(A.tau_index)
    h1 = fpp / (2.0 * fp)  # f''/2f'
    h2 = fp / (2.0 * A.f)  # f'/2f
    zero = S.zero()
    czero = CScalarField(zero, zero)
    i_a = A.iota / (2.0 * a * a)
    dxi = S.dd(X, A.iota)
    dyi = S.dd(Y, A.iota)
    inv2i = 1.0 / (2.0 * A.iota)
    expected = {
        (0, 0): [h1 * complex(a, -b), h1 * complex(b, a), czero, czero],
        (0, 1): [czero, czero, h2 * complex(a, -b), h2 * complex(b, a)],
        (1, 0): [czero, czero, i_a * complex(a, b), i_a * complex(b, -a)],
        (1, 1): [
            h2 * complex(a, -b) + complex(0.0, alpha),
            h2 * complex(b, a) + complex(0.0, beta),
            CScalarField(inv2i * dxi, -(inv2i * dyi)),
            CScalarField(inv2i * dyi, inv2i * dxi),
        ],
    }
    return max_abs_on_grid(
        (gf.forms[i][j](u) - coeffs[u] for (i, j), coeffs in expected.items() for u in range(4)), grid
    )


def _gamma_closed_form_residual_warped(A, kahler, gf, grid):
    """Engine gamma forms against the tau-dependent displays of the warped
    case."""
    S = A.structure
    ti = A.tau_index
    f, w = A.f, A.w
    fp, wp = f.partial(ti), w.partial(ti)
    c = kahler.g[K][K]
    cp = c.partial(ti)
    halfc = cp / (2.0 * c)
    wow = wp / w
    h = fp / (2.0 * f) + wp / (2.0 * w)
    zero = S.zero()
    czero = CScalarField(zero, zero)
    logi = log_abs(A.iota_bar)
    dx_log = S.dd(X, logi)
    dy_log = S.dd(Y, logi)
    mix = (fp * A.iota + f * wp * A.iota_bar / (w * w)) / (2.0 * c)
    expected = {
        (0, 0): [
            CScalarField(halfc, halfc + wow),
            CScalarField(-halfc, halfc + wow),
            czero,
            czero,
        ],
        (0, 1): [czero, czero, CScalarField(h, h), CScalarField(-h, h)],
        (1, 0): [czero, czero, CScalarField(mix, -mix), CScalarField(-mix, -mix)],
        (1, 1): [
            CScalarField(h - wow, h + A.constants.alpha / w),
            CScalarField(-h + wow, h),
            CScalarField(0.5 * dx_log, -0.5 * dy_log),
            CScalarField(0.5 * dy_log, 0.5 * dx_log),
        ],
    }
    return max_abs_on_grid(
        (gf.forms[i][j](u) - coeffs[u] for (i, j), coeffs in expected.items() for u in range(4)), grid
    )


def _shared_kahler_checks(entry: CatalogEntry, grid, report: VerificationReport):
    """Checks common to both cases; returns the Kahler chain for reuse, or
    None when the structural gates already failed (curvature analysis of
    inconsistent frame data would be meaningless)."""
    A = entry.data
    conn_base = koszul_connection(A.structure)
    report.extend(consistency_suite(conn_base, grid))
    report.extend(check_admissible(A, conn_base, grid))
    if not report.passed:
        report.add("structural_gates", 1.0, 0.0, passed=False,
                   note="frame data inconsistent; curvature analysis skipped")
        return None

    chain = build_chain(A)
    kahler, conn_k, rho, curv_k = chain.kahler, chain.conn, chain.rho, chain.curv
    mask = kahler.region_mask(grid)
    report.add(
        "region_nonempty",
        0.0 if all(mask) else 1.0,
        0.0,
        passed=all(mask),
        note="%d of %d grid points inside the region" % (sum(mask), len(grid)),
    )
    metric = np.moveaxis(values_on_grid(kahler.g, grid), -1, 0)
    finite = np.isfinite(metric).all()
    worst = max(0.0, -min(np.linalg.eigvalsh(metric)[:, 0].tolist())) if finite else math.inf
    report.add("kahler_positive_definite", worst, 0.0, passed=worst == 0.0)

    report.add("kahler_torsion_free", conn_k.torsion_residual(grid), TOL_FRAME)
    report.add("kahler_metric_compatible", conn_k.compatibility_residual(grid), TOL_FRAME)
    report.add("gamma_reconstruction", chain.gforms.reconstruction_residual(grid), TOL_TIGHT)
    report.add("ricci_form_real", ricci_form_imag_residual(chain.rho_complex, grid), TOL_TIGHT)
    report.add("ricci_forms_vs_tensor", cross_route_ricci_residual(rho, curv_k, grid), TOL_CROSS)
    report.add("curvature_pair_symmetry", curv_k.pair_symmetry_residual(grid), TOL_CROSS)
    report.add("curvature_first_bianchi", curv_k.first_bianchi_residual(grid), TOL_CROSS)
    report.add("ricci_symmetric", curv_k.ricci_symmetry_residual(grid), TOL_CROSS)

    report.extend(kahler_form_closed(A, kahler, grid))
    d_rho = exterior_d_two_form(A.structure, rho)
    report.add("d_rho", max_abs_on_grid(d_rho.values(), grid), TOL_CROSS)

    def j_defect(u, v):
        ju, su = j_image(u)
        jv, sv = j_image(v)
        return rho(ju, jv) * (su * sv) - rho(u, v)

    worst = max_abs_on_grid((j_defect(u, v) for u in range(4) for v in range(4)), grid)
    report.add("rho_J_invariant", worst, TOL_FRAME)

    return chain


def run_central_suite(entry: CatalogEntry, grid=None) -> tuple:
    """Full verification of a central-case entry; returns (report, curves)."""
    A = entry.data
    if A.case != CASE_CENTRAL:
        raise ValueError("entry %r is not a central-case structure" % entry.entry_id)
    grid = grid if grid is not None else entry.grid()
    report = VerificationReport(
        suite="central:%s" % entry.entry_id,
        grid_spec=grid_spec_string(A.kset, entry.grid_box),
    )
    chain = _shared_kahler_checks(entry, grid, report)
    if chain is None:
        return report, None
    kahler, rho, curv_k = chain.kahler, chain.rho, chain.curv
    S = A.structure
    a, b = A.constants.a, A.constants.b

    report.add("gamma_closed_forms", _gamma_closed_form_residual_central(A, chain.gforms, grid), TOL_TIGHT,
               source="reported")

    # gK(k,k) = gK(T,T) = a^2 f'
    fp = A.f_prime()
    worst = max_abs_on_grid([kahler.g[K][K] - (a * a) * fp, kahler.g[T][T] - (a * a) * fp], grid)
    report.add("kahler_vertical_value", worst, TOL_FRAME, source="reported")

    # twist-like values of the induced metric: gK(k,[x,y]) = -iota b f',
    # gK(T,[x,y]) = iota a f'
    SK = kahler.structure
    worst = max_abs_on_grid(SK.g_of_bracket(K, X, Y) - (-b) * A.iota * fp, grid)
    report.add("induced_twist_k", worst, TOL_FRAME, source="derived")
    worst = max_abs_on_grid(SK.g_of_bracket(T, X, Y) - a * A.iota * fp, grid)
    report.add("induced_twist_T", worst, TOL_FRAME, source="derived")

    # rho vanishes on the vertical field pairs and on mixed pairs
    worst_v = max_abs_on_grid(rho(K, T), grid)
    report.add("rho_vanishes_on_vertical", worst_v, TOL_TIGHT, source="reported")
    worst_m = max_abs_on_grid([rho(K, X), rho(K, Y), rho(T, X), rho(T, Y)], grid)
    report.add("rho_vanishes_mixed", worst_m, TOL_TIGHT, source="reported")

    # rho(x,y) closed form
    lap_h = plane_laplacian_log_abs(S, A.iota, X, Y)
    factor = (a * a + b * b - b * A.constants.alpha + a * A.constants.beta) / (a * a)
    rho_xy_expected = A.iota * factor - 0.5 * lap_h
    report.add("rho_xy_closed_form", max_abs_on_grid(rho(X, Y) - rho_xy_expected, grid), TOL_CROSS,
               source="reported")

    # the CSC verdict carries the central curvature and the conformal scalar
    # curvature for the checks below
    verdict = csc_verdict(chain, grid)

    # Ricci endomorphism: vertical kernel and central curvature
    worst = max_abs_on_grid([curv_k.ricci[u][v] for u in (K, T) for v in range(4)], grid)
    report.add("ricci_vertical_kernel", worst, TOL_FRAME, source="reported")
    report.add("central_curvature_zero", verdict.central_curvature_max, TOL_FRAME, source="reported")

    report.add(
        "csc_verdicts_agree",
        0.0 if verdict.verdicts_agree else 1.0,
        0.0,
        passed=verdict.verdicts_agree,
        note="s~ spread %.3e; twist-equation residual %.3e" % (verdict.s_tilde_spread, verdict.pde_residual),
    )
    report.add(
        "central_summary",
        0.0,
        0.0,
        passed=True,
        note=json.dumps(verdict.to_dict(), sort_keys=True),
    )

    q = verdict.q
    if q is not None:
        qe = q * exp(-variable(A.kset, A.kset.names[A.tau_index]))
        worst = max_abs_on_grid([curv_k.ricci[u][u] - qe * kahler.g[u][u] for u in (X, Y)], grid)
        report.add("ricci_horizontal_eigenvalue", worst, TOL_CROSS, source="derived",
                   note="q = %.6g" % q)
        report.add("scalar_curvature_2q", max_abs_on_grid(curv_k.scalar - 2.0 * qe, grid),
                   TOL_FRAME, source="reported")

        expected_vals = np.sort([[0.0, 0.0, qv, qv] for qv in (q * math.exp(-p[A.tau_index]) for p in grid)])
        eig = ricci_endomorphism_eigenvalues(kahler, curv_k, grid)
        report.add("ricci_eigenvalues", worst_abs(eig - expected_vals), TOL_CROSS, source="derived")

        closed = conformal_scalar_closed_form(A.constants)
        report.add("conformal_scalar_routes", max_abs_on_grid(verdict.s_tilde - closed, grid),
                   TOL_CROSS, source="derived", note="closed form %.6g" % closed)
        report.add("conformal_scalar_two_laplacians",
                   max_abs_on_grid(verdict.s_tilde - verdict.s_tilde_alt, grid), TOL_CROSS)

        li_report, _ = left_invariance_check(A, kahler, grid)
        report.extend(li_report, prefix="left_invariance.")

    report.extend(laplacian_self_test(chain, grid))

    # expectations recorded on the entry
    exp_tw = entry.expected.get("twist")
    if exp_tw is not None:
        report.add("expected_twist", max_abs_on_grid(A.iota - exp_tw.value, grid), TOL_FRAME,
                   source=exp_tw.source)
    exp_ric = entry.expected.get("ric_xx")
    if exp_ric is not None:
        report.add("expected_ric_xx", max_abs_on_grid(curv_k.ricci[X][X] - exp_ric.value, grid),
                   TOL_CROSS, source=exp_ric.source)
    exp_q = entry.expected.get("q")
    if exp_q is not None and verdict.q is not None:
        report.add("expected_q", abs(verdict.q - exp_q.value), TOL_FRAME, source=exp_q.source)
    exp_st = entry.expected.get("s_tilde")
    if exp_st is not None:
        report.add("expected_s_tilde", abs(verdict.s_tilde_mean - exp_st.value), TOL_CROSS,
                   source=exp_st.source, note="spread %.3e" % verdict.s_tilde_spread)
    exp_csc = entry.expected.get("csc")
    if exp_csc is not None:
        report.add("expected_csc", 0.0 if verdict.is_csc == exp_csc.value else 1.0, 0.0,
                   passed=verdict.is_csc == exp_csc.value, source=exp_csc.source)
    if entry.expected.get("ricci_flat") is not None:
        report.add("expected_ricci_flat", curv_k.max_ricci(grid), TOL_FRAME,
                   source=entry.expected["ricci_flat"].source)
    if entry.expected.get("flat") is not None:
        report.add("expected_flat", curv_k.max_component(grid), TOL_FRAME,
                   source=entry.expected["flat"].source)

    if entry.chart is not None:
        report.extend(coordinate_crosscheck(entry), prefix="chart.")

    curves = _central_curves(entry, grid, verdict, curv_k)
    return report, curves


def _central_curves(entry, grid, verdict, curv_k):
    header = list(entry.data.kset.names) + ["s_tilde", "s_K", "central_curvature"]
    columns = values_on_grid([verdict.s_tilde, curv_k.scalar, verdict.central_curvature], grid)
    return header, np.column_stack([np.array(grid), columns.T])


def run_ke_suite(entry: CatalogEntry, grid=None) -> tuple:
    """Full verification of a warped-case entry; returns (report, curves)."""
    A = entry.data
    if A.case != CASE_WARPED:
        raise ValueError("entry %r is not a warped-case structure" % entry.entry_id)
    grid = grid if grid is not None else entry.grid()
    report = VerificationReport(
        suite="ke:%s" % entry.entry_id,
        grid_spec=grid_spec_string(A.kset, entry.grid_box),
    )
    fam, fiber = entry.family, entry.fiber
    fiber_grid = grid_points(fiber.structure.kset, entry.grid_box)
    report.extend(fiber_consistency(fiber, fiber_grid), prefix="fiber.")

    chain = _shared_kahler_checks(entry, grid, report)
    if chain is None:
        return report, None
    kahler, curv_k = chain.kahler, chain.curv

    report.add("gamma_closed_forms", _gamma_closed_form_residual_warped(A, kahler, chain.gforms, grid),
               TOL_TIGHT, source="reported")

    lam = fam.lam
    ev = einstein_verdict(chain, lam, grid, fam=fam, fiber=fiber, fiber_grid=fiber_grid, C=fam.C)
    report.extend(ev, prefix="einstein.")

    tau_grid = sorted({(p[0],) for p in grid})
    _add_region_checks(report, fam, tau_grid)

    report.extend(quotient_gauss_check(fiber, lam, fam.C, fiber_grid), prefix="fiber.")

    exp_c = entry.expected.get("c_constant")
    if exp_c is not None:
        c_field = fam.c_field()
        report.add("expected_c_constant", max_abs_on_grid(c_field - exp_c.value, tau_grid),
                   TOL_TIGHT, source=exp_c.source)
    exp_kt = entry.expected.get("sectional_kT")
    exp_xk = entry.expected.get("sectional_xk")
    if exp_kt is not None or exp_xk is not None:
        if exp_kt is not None:
            K_kT = sectional_curvature(kahler.structure, curv_k, K, T)
            report.add("expected_sectional_kT", max_abs_on_grid(K_kT - exp_kt.value, grid),
                       TOL_FRAME, source=exp_kt.source)
        if exp_xk is not None:
            K_xk = sectional_curvature(kahler.structure, curv_k, X, K)
            report.add("expected_sectional_xk", max_abs_on_grid(K_xk - exp_xk.value, grid),
                       TOL_FRAME, source=exp_xk.source)
        if exp_kt is not None and exp_xk is not None:
            gap = abs(exp_kt.value - exp_xk.value)
            report.add("sectional_values_differ", 0.0 if gap > 1e-6 else 1.0, 0.0, passed=gap > 1e-6,
                       note="|K(k,T) - K(x,k)| = %.6g" % gap)
    if entry.expected.get("ricci_flat") is not None:
        report.add("expected_ricci_flat", curv_k.max_ricci(grid), TOL_CROSS,
                   source=entry.expected["ricci_flat"].source)
    if entry.expected.get("flat") is not None:
        report.add("expected_flat", curv_k.max_component(grid), TOL_CROSS,
                   source=entry.expected["flat"].source)

    exp_x0 = entry.expected.get("x_at_tau0")
    if exp_x0 is not None:
        tau0 = entry.expected["tau0"].value
        x0 = solve_implicit_w(tau0, exp_x0.value)
        report.add("implicit_root_at_tau0", abs(x0 - exp_x0.value), 1e-12, source=exp_x0.source)
    exp_sec = entry.expected.get("sectional_xy_nonzero")
    if exp_sec is not None:
        tau0 = entry.expected["tau0"].value
        K_xy = sectional_curvature(kahler.structure, curv_k, X, Y)
        point = (tau0,) + (0.0,) * (A.kset.size - 1)
        value, w0, wp0 = values_on_grid([K_xy, A.w, A.w.partial(0)], [point])[:, 0].tolist()
        magnitude = abs((2.0 / w0) * (wp0 - 1.0))
        report.add("sectional_xy_magnitude", abs(abs(value) - magnitude), TOL_CROSS,
                   source=exp_sec.source, note="K(x,y) = %.6g at tau0" % value)
        report.add("sectional_xy_nonzero", 0.0 if abs(value) > 0.1 else 1.0, 0.0,
                   passed=abs(value) > 0.1, note="|K(x,y)| = %.6g > 0.1" % abs(value))

    exp_complete = entry.expected.get("complete")
    if exp_complete is not None:
        cv = completeness(fam)
        report.add(
            "completeness_verdict",
            0.0 if (cv.verdict == "complete") == exp_complete.value else 1.0,
            0.0,
            passed=(cv.verdict == "complete") == exp_complete.value,
            source=exp_complete.source,
            note="s extends to (%.3g, %.3g)" % cv.s_range,
        )

    curves = _ke_curves(tau_grid, fam, A.constants.alpha)
    return report, curves


def _add_region_checks(report: VerificationReport, fam: WarpedFamily, tau_grid):
    """Region inequalities of the warped reduction: f > 0 and (fw)' > 0."""
    min_f = min_on_grid(fam.f, tau_grid)
    min_fwp = min_on_grid((fam.f * fam.w).partial(0), tau_grid)
    report.add("region_f_positive", 0.0 if min_f > 0.0 else max(1.0, -min_f), 0.0,
               passed=min_f > 0.0, note="min f = %.6g" % min_f)
    report.add("region_fw_increasing", 0.0 if min_fwp > 0.0 else max(1.0, -min_fwp), 0.0,
               passed=min_fwp > 0.0, note="min (fw)' = %.6g" % min_fwp)


def _ke_curves(tau_grid, fam: WarpedFamily, alpha: float):
    header = ["tau", "w", "f", "c", "ke_residual", "s"]
    ode = ke_ode_residual(fam, alpha)
    c_field = fam.c_field()

    def speed(c):
        # sqrt(max(c, 0) / 2), keeping NaN and -0.0 as Python's max does
        return np.sqrt(np.where(0.0 > c, 0.0, c) * 0.5)

    columns = values_on_grid([fam.w, fam.f, c_field, ode], tau_grid)
    tau = np.array([p[0] for p in tau_grid])
    at_grid = speed(columns[2])
    increments = adaptive_simpson(
        lambda t: speed(values_on_grid(c_field, [(v,) for v in t.tolist()])),
        tau[:-1], tau[1:], 1e-9, fa=at_grid[:-1], fb=at_grid[1:])
    s = np.cumsum(np.concatenate([[0.0], increments]))
    return header, np.column_stack([tau, columns.T, s])


def run_suite(entry: CatalogEntry, suite: str, grid=None) -> tuple:
    if suite == "all":
        suite = "central" if entry.case == CASE_CENTRAL else "ke"
    if suite == "central":
        return run_central_suite(entry, grid)
    if suite == "ke":
        return run_ke_suite(entry, grid)
    raise ValueError("unknown suite %r" % suite)


# ---------------------------------------------------------------------------
# command-line plumbing


def _parse_grid_overrides(specs, entry: CatalogEntry):
    box = dict(entry.grid_box)
    for spec in specs or ():
        try:
            name, rng = spec.split("=", 1)
            lo, hi, n = rng.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise SchemaError("--grid", "expected var=lo:hi:n, got %r" % spec) from None
        if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise SchemaError("--grid", "need finite lo, hi and n >= 1, got %r" % spec)
        box[name] = (lo, hi, n)
        if name not in entry.data.kset.names:
            raise SchemaError("--grid", "unknown variable %r" % name)
    return box


def _entry_from_args(args) -> CatalogEntry:
    if getattr(args, "example", None):
        try:
            return load(args.example)
        except KeyError as exc:
            raise SchemaError("--example", str(exc)) from None
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(args.config, "invalid JSON: %s" % exc) from None
        return entry_from_document(os.path.splitext(os.path.basename(args.config))[0],
                                   "user structure from %s" % args.config, doc, {})
    raise SchemaError("verify", "need --example or --config")


def _write_report(report: VerificationReport, curves, args):
    fmt = getattr(args, "format", "json") or "json"
    out = getattr(args, "out", None)
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
                    for row in rows:
                        fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")
                else:
                    fh.write(report.to_csv())


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise SchemaError("--tol", "need a finite factor > 0, got %r" % args.tol)
    entry = _entry_from_args(args)
    if args.suite != "all":
        wanted = CASE_CENTRAL if args.suite == "central" else CASE_WARPED
        if entry.case != wanted:
            raise SchemaError("--suite", "entry %r is a %s-case structure" % (entry.entry_id, entry.case))
    box = _parse_grid_overrides(args.grid, entry)
    entry.grid_box = box
    grid = grid_points(entry.data.kset, box)
    start = time.time()
    report, curves = run_suite(entry, args.suite, grid)
    report.duration_s = time.time() - start
    for c in report.checks:
        if c.tol > 0.0:
            c.tol *= args.tol
            c.passed = c.residual <= c.tol
    report.print_lines()
    print("(%.2fs)" % report.duration_s, file=sys.stderr)
    _write_report(report, curves, args)
    return 0 if report.passed else 1


_FAMILY_BUILDERS = {
    "alpha0": lambda args: family_alpha_zero(args.lam, args.a1, args.a2, args.interval),
    "alphaneg": lambda args: family_alpha_negative(args.alpha, args.interval),
    "alpha_minus2": lambda args: family_implicit_tan(args.interval),
}


def cmd_ke(args) -> int:
    if args.family not in _FAMILY_BUILDERS:
        raise SchemaError("--family", "unknown family %r" % args.family)
    if args.n < 1:
        raise SchemaError("--n", "need at least 1 curve sample, got %d" % args.n)
    try:
        lo, hi = args.interval.split(":")
        args.interval = (float(lo), float(hi))
    except ValueError:
        raise SchemaError("--interval", "expected lo:hi, got %r" % args.interval) from None
    try:
        fam = _FAMILY_BUILDERS[args.family](args)
    except ValueError as exc:
        raise SchemaError("--family", str(exc)) from None
    fam.lam = args.lam
    fam.C = args.C
    alpha = {"alpha0": 0.0, "alphaneg": args.alpha, "alpha_minus2": -2.0}[args.family]

    start = time.time()
    report = VerificationReport(suite="ke-family:%s" % args.family,
                                grid_spec="tau=%g:%g:%d" % (args.interval + (args.n,)))
    # curve sampling stays on a finite window even when the admissible
    # interval is unbounded (completeness integrates over the true interval)
    lo = args.interval[0] if math.isfinite(args.interval[0]) else -8.0
    hi = args.interval[1] if math.isfinite(args.interval[1]) else 8.0
    tau_grid = [(float(t),) for t in np.linspace(lo, hi, args.n)]
    ode = ke_ode_residual(fam, alpha)
    report.add("ke_ode_residual", max_abs_on_grid(ode, tau_grid), TOL_TIGHT)
    _add_region_checks(report, fam, tau_grid)
    if args.complete:
        cv = completeness(fam)
        report.add("completeness", 0.0, 0.0, passed=True,
                   note="verdict %s; s extends to (%.4g, %.4g)" % ((cv.verdict,) + cv.s_range))

    # flatness flag of the induced metric over a reference fiber
    lifted = lift_fiber(make_fiber(alpha, "-2"), fam.w, fam.f)
    sub = [(t,) for t in np.linspace(lo, hi, 9)]
    km = build_kahler(lifted)
    curv = curvature(km.structure, koszul_connection(km.structure))
    max_R = curv.max_component(sub)
    report.add("flatness_flag", 0.0, 0.0, passed=True,
               note="flat=%s (max |R| = %.3e)" % ("true" if max_R <= 1e-7 else "false", max_R))

    report.duration_s = time.time() - start
    report.print_lines()

    curves = _ke_curves(tau_grid, fam, alpha)
    _write_report(report, curves, args)
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
    print("case:        %s" % entry.case)
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
    except SchemaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (FieldError, DomainError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
