"""Central analysis: curvature determinant, conformal scalar, twist PDE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frame_kahler import catalog
from frame_kahler.central import (
    central_curvature,
    conformal_scalar,
    conformal_scalar_closed_form,
    expected_q,
    laplacian_self_test,
    left_invariance_check,
    ricci_endomorphism_eigenvalues,
)
from frame_kahler.fields import KSet, variable
from frame_kahler.frames import fit_constant, grid_points, max_abs_on_grid, plane_laplacian_log_abs, values_on_grid
from frame_kahler.kahler import X, Y
from frame_kahler.warped import make_fiber

from conftest import BuiltEntry, fd_plane_laplacian, ricci_route_gap

KS2 = KSet(("x", "y"))
PLANE_GRID = grid_points(KS2, {"x": (-0.6, 0.6, 5), "y": (-0.6, 0.6, 5)})


def ppwave_built(iota_expr):
    return BuiltEntry(catalog.load("ppwave", iota=iota_expr))


def plane_twist(expr):
    """A twist over the (x, y) plane and (d_x^2 + d_y^2) log|twist|, as the
    fiber with xbar, ybar acting as the plane partials builds them."""
    F = make_fiber(0.0, expr, ("x", "y"))
    return F.iota_bar, F.lap_log_iota_bar


class TestCentralCurvature:
    def test_planewave_determinant_and_eigenvalues(self, built):
        be = built("planewave")
        det = central_curvature(be.data, be.kahler, be.curv_k)
        assert max_abs_on_grid(det, be.grid) <= 1e-8
        q = expected_q(be.data.constants)
        assert q == pytest.approx(-1.0)
        for p in be.grid:
            vals = ricci_endomorphism_eigenvalues(be.kahler, be.curv_k, [p])[0]
            qe = q * math.exp(-p[0])
            expect = np.sort(np.array([0.0, 0.0, qe, qe]))
            assert np.max(np.abs(vals - expect)) <= 1e-7

    def test_s3xr_all_eigenvalues_zero(self, built):
        be = built("s3xr")
        det = central_curvature(be.data, be.kahler, be.curv_k)
        assert max_abs_on_grid(det, be.grid) <= 1e-8
        for p in be.grid:
            vals = ricci_endomorphism_eigenvalues(be.kahler, be.curv_k, [p])[0]
            assert np.max(np.abs(vals)) <= 1e-8

    def test_nonconstant_twist_keeps_vertical_kernel(self):
        be = ppwave_built("-sech(x + 2*y)^2")
        det = central_curvature(be.data, be.kahler, be.curv_k)
        assert max_abs_on_grid(det, be.grid) <= 1e-8
        # vertical Ricci block stays zero even with nonconstant twist
        for u in (0, 1):
            for v in range(4):
                assert max_abs_on_grid(be.curv_k.ricci[u][v], be.grid) <= 1e-8


class TestConformalScalar:
    @pytest.mark.parametrize(
        "eid,expected",
        [("planewave", -0.5), ("s3xr", 3.0)],
    )
    def test_catalog_values(self, built, eid, expected):
        be = built(eid)
        parts = conformal_scalar(be.chain)
        assert max_abs_on_grid(parts["s_tilde"] - expected, be.grid) <= 1e-7
        closed = conformal_scalar_closed_form(be.data.constants)
        assert closed == pytest.approx(expected, abs=1e-12)

    def test_ppwave_constant_twist_value(self):
        be = ppwave_built("-2")
        parts = conformal_scalar(be.chain)
        assert max_abs_on_grid(parts["s_tilde"] + 1.0, be.grid) <= 1e-7
        assert conformal_scalar_closed_form(be.data.constants) == pytest.approx(-1.0)
        assert max_abs_on_grid(parts["s_tilde"] - parts["s_tilde_alt"], be.grid) <= 1e-7

    def test_laplacian_self_test(self, built):
        for eid in ("planewave", "s3xr"):
            be = built(eid)
            rep = laplacian_self_test(be.chain, be.grid)
            assert rep.passed

    def test_scalar_curvature_2q(self, built):
        be = built("planewave")
        q = expected_q(be.data.constants)
        for p in be.grid:
            assert be.curv_k.scalar.at(p) == pytest.approx(2.0 * q * math.exp(-p[0]), abs=1e-8)


class TestLiouvilleResidual:
    def test_constant_twist_zero(self):
        _, lap = plane_twist("-2")
        assert max_abs_on_grid(lap, PLANE_GRID) == 0.0

    def test_harmonic_exponent(self):
        _, lap = plane_twist("exp(x^2 - y^2)")
        assert max_abs_on_grid(lap, PLANE_GRID) <= 1e-8

    def test_sech_squared_profile(self):
        p_c, q_c, r_c = 1.0, 2.0, 0.1
        iota, lap_log = plane_twist("sech(%g*x + %g*y + %g)^2" % (p_c, q_c, r_c))
        c = -2.0 * (p_c**2 + q_c**2)
        assert max_abs_on_grid(lap_log - c * iota, PLANE_GRID) <= 1e-7
        # oracle: finite-difference plane Laplacian of log|iota|
        pt = (0.2, -0.3)
        lap = fd_plane_laplacian(lambda s: math.log(abs(iota.at(s))), pt, 0, 1)
        assert lap == pytest.approx(c * iota.at(pt), abs=1e-5)

    def test_vanishing_twist_rejected(self):
        _, lap = plane_twist("x")
        from frame_kahler.fields import DomainError

        with pytest.raises(DomainError):
            lap.at((0.0, 0.5))


CSC_CASES = [
    ("-2", True),
    ("-exp(x^2 - y^2)", True),
    ("-sech(x + 2*y)^2", True),
    ("-(2 + x^2)", False),
    ("-exp(x^2 + y^2)", False),
]


class TestCscVerdict:
    @pytest.mark.parametrize("iota_expr,expect_csc", CSC_CASES)
    def test_verdicts_agree(self, iota_expr, expect_csc):
        be = ppwave_built(iota_expr)
        rep = be.csc()
        assert rep.verdicts_agree
        assert rep.is_csc == expect_csc

    def test_sech_profile_constant(self):
        be = ppwave_built("-sech(x + 2*y)^2")
        rep = be.csc()
        # negative sech^2 twist satisfies the equation with c = +2 (1 + 4)
        assert rep.pde_constant_c == pytest.approx(10.0, abs=1e-7)

    def test_harmonic_exponent_c_zero(self):
        be = ppwave_built("-exp(x^2 - y^2)")
        rep = be.csc()
        assert rep.pde_constant_c == pytest.approx(0.0, abs=1e-8)
        assert rep.s_tilde_mean == pytest.approx(-1.0, abs=1e-7)

    def test_non_finite_twist_does_not_agree(self):
        # the twist is NaN at every grid point (no grid x is 0)
        be = ppwave_built("-2 + (1e200*x)*(1e200*x)*(x-x)")
        rep = be.csc()
        assert rep.s_tilde_spread == math.inf
        assert rep.pde_residual == math.inf
        assert not rep.verdicts_agree

    def test_fit_matches_direct_computation(self):
        be = ppwave_built("-sech(x + 2*y)^2")
        lap_h = plane_laplacian_log_abs(be.data.structure, be.data.iota, X, Y)
        c, residual = fit_constant(lap_h, be.data.iota, be.grid)
        assert residual <= 1e-7
        assert c == pytest.approx(10.0, abs=1e-7)


def synthetic_central(a, b, alpha, beta, iota_const):
    """Admissible central structure for arbitrary constants: brackets
    [k,x] = alpha y, [k,y] = -alpha x, [T,x] = beta y, [T,y] = -beta x,
    [x,y] = (iota/a^2)(-b k + a T), metric g(k,T) = a, g(T,T) = b,
    orthonormal H, f = e^tau."""
    from frame_kahler.fields import Const, variable
    from frame_kahler.frames import FrameStructure
    from frame_kahler.kahler import AdmissibleConstants, AdmissibleData, CASE_CENTRAL

    ks = KSet(("tau",))
    zero = Const(ks, 0.0)

    def c(v):
        return Const(ks, float(v))

    g = [[zero] * 4 for _ in range(4)]
    g[0][1] = g[1][0] = c(a)
    g[1][1] = c(b)
    g[2][2] = g[3][3] = c(1.0)
    C = [[[zero] * 4 for _ in range(4)] for _ in range(4)]

    def setbr(i, j, coeffs):
        for idx, val in coeffs.items():
            C[i][j][idx] = c(val)
            C[j][i][idx] = c(-val)

    setbr(0, 2, {3: alpha})
    setbr(0, 3, {2: -alpha})
    setbr(1, 2, {3: beta})
    setbr(1, 3, {2: -beta})
    setbr(2, 3, {0: -b * iota_const / a**2, 1: iota_const / a})
    D = [[c(a)], [c(b)], [zero], [zero]]
    S = FrameStructure(ks, ("k", "T", "x", "y"), g, C, D)
    from frame_kahler.fields import exp as f_exp

    f = f_exp(variable(ks, "tau"))
    iota = S.g_of_bracket(0, 2, 3)
    consts = AdmissibleConstants(a=a, b=b, alpha=alpha, beta=beta)
    return AdmissibleData(S, consts, f, iota, CASE_CENTRAL)


class TestSyntheticFamilyProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([-2.0, -1.2, -0.5, 0.5, 1.0, 1.7]),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-3.0, -0.5),
    )
    def test_central_claims_hold_across_constants(self, a, b, alpha, beta, iota_const):
        from frame_kahler.frames import grid_points, koszul_connection, max_abs_on_grid
        from frame_kahler.kahler import build_chain, check_admissible

        A = synthetic_central(a, b, alpha, beta, iota_const)
        grid = grid_points(A.kset, {"tau": (-0.5, 0.5, 3)})
        assert check_admissible(A, koszul_connection(A.structure), grid).passed
        chain = build_chain(A)
        km, curv_k = chain.kahler, chain.curv

        # Ricci endomorphism kills V, and its determinant vanishes
        for u in (0, 1):
            for v in range(4):
                assert max_abs_on_grid(curv_k.ricci[u][v], grid) <= 1e-8
        det = central_curvature(A, km, curv_k)
        assert max_abs_on_grid(det, grid) <= 1e-8

        # both Ricci routes agree, and the horizontal eigenvalue is q e^-tau
        assert ricci_route_gap(chain, grid) <= 1e-7
        q = expected_q(A.constants)
        from frame_kahler.fields import exp as f_exp

        qe = q * f_exp(-variable(A.kset, "tau"))
        for u in (2, 3):
            assert max_abs_on_grid(curv_k.ricci[u][u] - qe * km.g[u][u], grid) <= 1e-7

        # conformal scalar curvature matches its closed form
        parts = conformal_scalar(chain)
        closed = conformal_scalar_closed_form(A.constants)
        assert max_abs_on_grid(parts["s_tilde"] - closed, grid) <= 1e-6


class TestLeftInvariance:
    def test_planewave_passes_with_table(self, built):
        be = built("planewave")
        assert left_invariance_check(be.data, be.kahler, be.grid).passed
        # the structure constants at the middle grid point, the ones the Jacobi check reads
        table = values_on_grid(be.data.structure.C, [be.grid[len(be.grid) // 2]])[..., 0]
        assert table[2][3] == pytest.approx([0.0, 2.0, 0.0, 0.0])
        assert table[0][2][3] == pytest.approx(-1.0)

    def test_s3xr_passes(self, built):
        be = built("s3xr")
        rep = left_invariance_check(be.data, be.kahler, be.grid)
        assert rep.passed
        assert "structure_constants_jacobi" in [c.check_id for c in rep.checks]

    def test_nonconstant_twist_not_applicable(self):
        be = ppwave_built("-sech(x + 2*y)^2")
        rep = left_invariance_check(be.data, be.kahler, be.grid)
        assert [c.check_id for c in rep.checks] == ["applicable"]
        assert "not applicable" in rep.checks[0].note
