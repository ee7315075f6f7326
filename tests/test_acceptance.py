"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each criterion prints a single [PASS]/[FAIL] line (visible with `pytest -s`
or in the captured output of a failing run).
"""

import math

import numpy as np
import pytest

from frame_kahler import catalog
from frame_kahler.central import (
    central_curvature,
    conformal_scalar,
    conformal_scalar_closed_form,
    expected_q,
    ricci_endomorphism_eigenvalues,
)
from frame_kahler.frames import (
    consistency_suite,
    grid_points,
    koszul_connection,
    max_abs_on_grid,
    sectional_curvature,
)
from frame_kahler.kahler import exterior_d_two_form, kahler_form
from frame_kahler.warped import (
    TAU_KSET,
    WarpedFamily,
    completeness,
    ke_ode_residual,
    make_fiber,
    solve_implicit_w,
)

from conftest import BuiltEntry, ke_family, ricci_route_gap

TAU0 = 1.0 - math.pi / 4.0


class criterion:
    """Prints one [PASS]/[FAIL] line per criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("[%s] criterion %2d: %s" % (status, self.number, self.description))
        return False


def test_criterion_01_planewave_ricci_equals_twist(built):
    with criterion(1, "plane wave: Ric_K(x,x) = iota = -2 within 1e-7 on u in [-1,1]x5"):
        be = built("planewave")
        assert len(be.grid) == 5
        assert max_abs_on_grid(be.curv_k.ricci[2][2] - (-2.0), be.grid) <= 1e-7
        assert max_abs_on_grid(be.data.iota - (-2.0), be.grid) <= 1e-7
        # Ricci-form route agrees: rho(x,y) = Ric(x,x)
        assert max_abs_on_grid(be.rho(2, 3) - (-2.0), be.grid) <= 1e-7


def test_criterion_02_planewave_central_curvature_and_spectrum(built):
    with criterion(2, "plane wave: det Ric-endomorphism = 0 (1e-8); eigenvalues {0,0,qe^-u,qe^-u}, q=-1 (1e-7)"):
        be = built("planewave")
        det = central_curvature(be.data, be.kahler, be.curv_k)
        assert max_abs_on_grid(det, be.grid) <= 1e-8
        q = expected_q(be.data.constants)
        assert q == pytest.approx(-1.0, abs=1e-12)
        for p in be.grid:
            vals = ricci_endomorphism_eigenvalues(be.kahler, be.curv_k, [p])[0]
            qe = q * math.exp(-p[0])
            expect = np.sort(np.array([0.0, 0.0, qe, qe]))
            assert float(np.max(np.abs(vals - expect))) <= 1e-7


def test_criterion_03_s3xr_ricci_flat_and_flat(built):
    with criterion(3, "sphere-product: q = 0, Ricci <= 1e-8, full curvature <= 1e-8"):
        be = built("s3xr")
        assert expected_q(be.data.constants) == pytest.approx(0.0, abs=1e-12)
        assert be.curv_k.max_ricci(be.grid) <= 1e-8
        assert be.curv_k.max_component(be.grid) <= 1e-8


def test_criterion_04_ppwave_conformal_scalar_minus_one(built):
    with criterion(4, "pp-wave (constant twist): s~ = -1 by both routes, agreement <= 1e-7"):
        be = built("ppwave")
        parts = conformal_scalar(be.chain)
        closed = conformal_scalar_closed_form(be.data.constants)
        assert closed == pytest.approx(-1.0, abs=1e-12)
        assert max_abs_on_grid(parts["s_tilde"] - (-1.0), be.grid) <= 1e-7
        assert max_abs_on_grid(parts["s_tilde"] - closed, be.grid) <= 1e-7


def test_criterion_05_liouville_suite():
    with criterion(5, "twist equation: harmonic exponent c=0 (1e-8); sech^2 profile c=-2(p^2+q^2) (1e-7)"):
        # a fiber over the (x, y) plane: xbar, ybar act as the plane partials
        harmonic = make_fiber(0.0, "exp(x^2 - y^2)", ("x", "y"))
        grid = grid_points(harmonic.structure.kset, {"x": (-0.6, 0.6, 5), "y": (-0.6, 0.6, 5)})
        assert max_abs_on_grid(harmonic.lap_log_iota_bar, grid) <= 1e-8
        pc, qc = 1.0, 2.0
        sech2 = make_fiber(0.0, "sech(%g*x + %g*y + 0.1)^2" % (pc, qc), ("x", "y"))
        c = -2.0 * (pc**2 + qc**2)
        assert max_abs_on_grid(sech2.lap_log_iota_bar - c * sech2.iota_bar, grid) <= 1e-7


CSC_TABLE = [
    ("-2", True),
    ("-exp(x^2 - y^2)", True),
    ("-sech(x + 2*y)^2", True),
    ("-(2 + x^2)", False),
    ("-exp(x^2 + y^2)", False),
]


def test_criterion_06_csc_equivalence():
    with criterion(6, "CSC equivalence: s~-constancy and twist-equation verdicts agree on 3 CSC + 2 non-CSC"):
        for iota_expr, expect in CSC_TABLE:
            be = BuiltEntry(catalog.load("ppwave", iota=iota_expr))
            verdict = be.csc()
            assert verdict.verdicts_agree, iota_expr
            assert verdict.is_csc == expect, iota_expr


def test_criterion_07_ke_ode_families():
    with criterion(7, "tau-ODE residual <= 1e-9 for all three families; implicit root to 1e-12"):
        # alpha = 0, both branches of p
        fam = ke_family("alpha0", lam=-3.0, a1=1.0, a2=0.0, interval=(-1.0, 1.0))
        grid = grid_points(TAU_KSET, {"tau": (-1.0, 1.0, 5)})
        assert max_abs_on_grid(ke_ode_residual(fam, 0.0), grid) <= 1e-9
        fam = ke_family("alpha0", lam=0.0, a1=1.0, a2=1.0, interval=(0.0, 2.0))
        grid = grid_points(TAU_KSET, {"tau": (0.0, 2.0, 5)})
        assert max_abs_on_grid(ke_ode_residual(fam, 0.0), grid) <= 1e-9
        # alpha < 0, lambda = 0
        grid = grid_points(TAU_KSET, {"tau": (0.2, 1.4, 5)})
        for alpha in (-0.5, -1.0, -3.0):
            fam = ke_family("alphaneg", alpha=alpha, interval=(0.2, 1.4))
            assert max_abs_on_grid(ke_ode_residual(fam, alpha), grid) <= 1e-9
        # alpha = -2 implicit family near tau0
        fam = ke_family("alpha_minus2", interval=(0.05, 1.0))
        grid = grid_points(TAU_KSET, {"tau": (0.05, 1.0, 7)})
        assert max_abs_on_grid(ke_ode_residual(fam, -2.0), grid) <= 1e-9
        x0 = solve_implicit_w(TAU0, -math.pi / 4.0)[0]
        assert abs(x0 - (-math.pi / 4.0)) <= 1e-12


def test_criterion_08_einstein_verdicts(built):
    with criterion(8, "Einstein: alpha0 lam=-3 <= 1e-7; alphaneg flat <= 1e-7; implicit Ricci-flat with |K(x,y)| > 0.1"):
        be = built("warped_alpha0")
        rep = be.einstein(-3.0)
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["einstein_residual"].residual <= 1e-7

        be = built("warped_alphaneg")
        rep = be.einstein(0.0)
        assert {c.check_id: c for c in rep.checks}["einstein_residual"].residual <= 1e-7
        assert be.curv_k.max_component(be.grid) <= 1e-7

        be = built("warped_alpha_minus2")
        assert be.curv_k.max_ricci(be.grid) <= 1e-7
        K_xy = sectional_curvature(be.kahler.structure, be.curv_k, 2, 3)
        value = K_xy.at((TAU0,))
        w0 = be.data.w.at((TAU0,))
        wp0 = be.data.w.partial(0).at((TAU0,))
        assert abs(abs(value) - abs(2.0 / w0 * (wp0 - 1.0))) <= 1e-7
        assert abs(value) > 0.1


def test_criterion_09_completeness(built):
    with criterion(9, "completeness: c = 1 (1e-9), verdict complete, K(k,T) = -2 and K(x,k) = -1/2 (1e-8)"):
        be = built("warped_complete")
        fam = be.entry.family
        tau_grid = sorted({(p[0],) for p in be.grid})
        assert max_abs_on_grid(fam.c_field - 1.0, tau_grid) <= 1e-9
        cv = completeness(WarpedFamily(fam.f, fam.w, fam.lam, fam.C, (-math.inf, math.inf)))
        assert cv.verdict == "complete"
        K_kT = sectional_curvature(be.kahler.structure, be.curv_k, 0, 1)
        K_xk = sectional_curvature(be.kahler.structure, be.curv_k, 2, 0)
        assert max_abs_on_grid(K_kT - (-2.0), be.grid) <= 1e-8
        assert max_abs_on_grid(K_xk - (-0.5), be.grid) <= 1e-8
        assert abs(-2.0 - (-0.5)) > 1e-6  # the two plane curvatures differ


def test_criterion_10_cross_route_property_suite(entries, built):
    with criterion(10, "every entry: torsion/compat/Jacobi <= 1e-8, d(omega) <= 1e-8, d(rho) <= 1e-7, routes <= 1e-7; chart <= 1e-6"):
        for eid, entry in entries.items():
            be = built(eid)
            rep = consistency_suite(koszul_connection(entry.data.structure), be.grid)
            by_id = {c.check_id: c for c in rep.checks}
            assert by_id["torsion_free"].residual <= 1e-8, eid
            assert by_id["metric_compatible"].residual <= 1e-8, eid
            assert by_id["jacobi_identity"].residual <= 1e-8, eid

            d_omega = exterior_d_two_form(entry.data.structure, kahler_form(be.kahler))
            assert max_abs_on_grid(d_omega.values(), be.grid) <= 1e-8, eid
            d_rho = exterior_d_two_form(entry.data.structure, be.rho)
            assert max(max_abs_on_grid(f, be.grid) for f in d_rho.values()) <= 1e-7, eid
            assert ricci_route_gap(be.chain, be.grid) <= 1e-7, eid

        chart_rep = catalog.coordinate_crosscheck(entries["planewave"])
        assert chart_rep.passed
        assert max(c.residual for c in chart_rep.checks) <= 1e-6
