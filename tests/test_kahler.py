"""Induced metric, gamma forms, Ricci form, closure checks."""

import math

import pytest

from frame_kahler import catalog
from frame_kahler.fields import Const, KSet, make_closed_form
from frame_kahler.frames import (
    FrameStructure,
    koszul_connection,
    max_abs_on_grid,
)
from frame_kahler.kahler import (
    CASE_CENTRAL,
    AdmissibleConstants,
    AdmissibleData,
    build_kahler,
    check_admissible,
    exterior_d,
    exterior_d_two_form,
    gamma_forms,
    J_IMAGE,
    kahler_form,
    ricci_form,
    ricci_form_imag_residual,
    ricci_from_form,
)
from frame_kahler.reporting import TOL_FRAME

from conftest import ricci_route_gap


class TestBuildKahler:
    def test_planewave_horizontal_value(self, built):
        # gK|_H = -f iota g|_H = 2 e^u on the plane wave
        be = built("planewave")
        for p in be.grid:
            assert be.kahler.g[2][2].at(p) == pytest.approx(2.0 * math.exp(p[0]), rel=1e-12)
            assert be.kahler.g[3][3].at(p) == pytest.approx(2.0 * math.exp(p[0]), rel=1e-12)

    def test_central_vertical_value(self, built):
        # gK(k,k) = a^2 f' = e^tau on the sphere-product entry (a = 1)
        be = built("s3xr")
        for p in be.grid:
            assert be.kahler.g[0][0].at(p) == pytest.approx(math.exp(p[0]), rel=1e-12)
            assert be.kahler.g[1][1].at(p) == pytest.approx(math.exp(p[0]), rel=1e-12)
            assert be.kahler.g[0][1].at(p) == 0.0

    def test_warped_vertical_value_is_one(self, built):
        # f = 1, w = e^tau: gK(k,k) = (fw)'/w = 1
        be = built("warped_complete")
        for p in be.grid:
            assert be.kahler.g[0][0].at(p) == pytest.approx(1.0, abs=1e-12)

    def test_region_all_inside(self, built):
        for eid in ("planewave", "warped_complete"):
            be = built(eid)
            assert all(be.kahler.region_mask(be.grid))

    def test_empty_region_detected(self):
        # flipping the sign of f makes f iota > 0 everywhere
        entry = catalog.load("planewave")
        data = entry.data
        bad = AdmissibleData(
            structure=data.structure,
            constants=data.constants,
            f=-1.0 * data.f,
            iota=data.iota,
            case=CASE_CENTRAL,
        )
        km = build_kahler(bad)
        assert not any(km.region_mask(entry.grid()))


class TestCheckAdmissible:
    def test_catalog_entries_pass(self, entries):
        for eid, entry in entries.items():
            rep = check_admissible(entry.data, koszul_connection(entry.data.structure), entry.grid())
            assert rep.passed, "%s: %s" % (eid, [c.check_id for c in rep.checks if not c.passed])

    def test_planewave_k_geodesic_and_killing(self, entries):
        entry = entries["planewave"]
        rep = check_admissible(entry.data, koszul_connection(entry.data.structure), entry.grid())
        by_id = {c.check_id: c for c in rep.checks}
        note = by_id["k_geodesic_or_killing"].note
        assert by_id["k_geodesic_or_killing"].passed
        # the rotating-frame presentation has k both geodesic and Killing
        assert "geodesic residual 0.00e+00" in note
        assert "Killing residual 0.00e+00" in note

    def test_sheared_bracket_fails(self, entries):
        # [k, x] = alpha y + 0.1 x violates the shear-free pattern
        entry = catalog.load("planewave")
        S = entry.data.structure
        C = [[[S.C[a][b][c] for c in range(4)] for b in range(4)] for a in range(4)]
        C[0][2][2] = C[0][2][2] + 0.1
        C[2][0][2] = -C[0][2][2]
        S2 = FrameStructure(S.kset, S.frame_names, S.g, C, S.D)
        bad = AdmissibleData(
            structure=S2,
            constants=entry.data.constants,
            f=entry.data.f,
            iota=entry.data.iota,
            case=CASE_CENTRAL,
        )
        rep = check_admissible(bad, koszul_connection(S2), entry.grid())
        assert not rep.passed
        failed = {c.check_id for c in rep.checks if not c.passed}
        assert failed & {"shear_free", "bracket_pattern"}


class TestGammaForms:
    def test_reconstruction_residual(self, built):
        for eid in ("planewave", "s3xr", "warped_complete"):
            be = built(eid)
            assert be.gforms.reconstruction_residual(be.grid) <= 1e-9

    def test_central_closed_forms(self, built):
        # Gamma_1^1 = (f''/2f')(a - ib) khat + (f''/2f')(b + ia) That
        be = built("s3xr")
        a, b = be.data.constants.a, be.data.constants.b
        for p in be.grid:
            half = 0.5  # f''/2f' for f = e^tau
            assert be.gforms.forms[0][0][0].at(p) == pytest.approx(complex(half * a, -half * b), abs=1e-12)
            assert be.gforms.forms[0][0][1].at(p) == pytest.approx(complex(half * b, half * a), abs=1e-12)
            assert abs(be.gforms.forms[0][0][2].at(p)) == 0.0

    def test_warped_gamma21_display(self, built):
        # Gamma_2^1 = ((f' iota + f w^-2 w' iota_bar)/2c)((1-i)xhat - (1+i)yhat)
        be = built("warped_alphaneg")
        A = be.data
        for p in be.grid:
            f, w = A.f.at(p), A.w.at(p)
            fp, wp = A.f.partial(0).at(p), A.w.partial(0).at(p)
            iota, iota_bar = A.iota.at(p), A.iota_bar.at(p)
            c = be.kahler.g[0][0].at(p)
            mix = (fp * iota + f * wp * iota_bar / w**2) / (2.0 * c)
            assert be.gforms.forms[1][0][2].at(p) == pytest.approx(mix * (1 - 1j), abs=1e-10)
            assert be.gforms.forms[1][0][3].at(p) == pytest.approx(-mix * (1 + 1j), abs=1e-10)

    def test_flat_abelian_forms_vanish(self):
        # abelian brackets, constant twist coefficient via an artificial
        # central structure with f' = const and iota = -1: connection of gK
        # is not zero, but for a genuinely flat abelian frame all forms are
        ks = KSet(())
        zero, one = Const(ks, 0.0), Const(ks, 1.0)
        g = [[one if i == j else zero for j in range(4)] for i in range(4)]
        C = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
        S = FrameStructure(ks, ("k", "T", "x", "y"), g, C, [[]] * 4)
        conn = koszul_connection(S)
        consts = AdmissibleConstants(a=1.0, b=0.0, alpha=0.0, beta=0.0)
        data = AdmissibleData(S, consts, one, -1.0 * one, CASE_CENTRAL)
        # treat S itself as the induced structure for this degenerate check
        from frame_kahler.kahler import KahlerMetric

        km = KahlerMetric(data, g, S, -1.0 * one, -1.0 * one)
        gf = gamma_forms(data, km, conn)
        for i in range(2):
            for j in range(2):
                for u in range(4):
                    assert abs(gf.forms[i][j][u].at(())) == 0.0

    def test_requires_kahler_connection(self, built):
        be = built("planewave")
        base_conn = koszul_connection(be.data.structure)
        from frame_kahler.frames import FrameError

        with pytest.raises(FrameError):
            gamma_forms(be.data, be.kahler, base_conn)


class TestExteriorDerivative:
    def test_warped_dkhat_kT(self, built):
        # d khat(k, T) = -khat([k, T]) = w'/w
        be = built("warped_alphaneg")
        S = be.data.structure
        khat = [Const(S.kset, 1.0 if c == 0 else 0.0) for c in range(4)]
        d = exterior_d(S, khat)
        for p in be.grid:
            w, wp = be.data.w.at(p), be.data.w.partial(0).at(p)
            assert d(0, 1).at(p) == pytest.approx(wp / w, abs=1e-12)

    def test_central_dkhat_xy(self, built):
        # d khat(x, y) = b iota / a^2
        be = built("s3xr")
        S = be.data.structure
        a, b = be.data.constants.a, be.data.constants.b
        khat = [Const(S.kset, 1.0 if c == 0 else 0.0) for c in range(4)]
        d = exterior_d(S, khat)
        for p in be.grid:
            assert d(2, 3).at(p) == pytest.approx(b * be.data.iota.at(p) / a**2, abs=1e-12)

    def test_constant_form_on_abelian_frame(self):
        ks = KSet(())
        zero, one = Const(ks, 0.0), Const(ks, 1.0)
        g = [[one if i == j else zero for j in range(4)] for i in range(4)]
        C = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
        S = FrameStructure(ks, ("k", "T", "x", "y"), g, C, [[]] * 4)
        xi = [one, one, one, one]
        d = exterior_d(S, xi)
        for a in range(4):
            for b in range(a + 1, 4):
                assert d(a, b).at(()) == 0.0

    def test_two_form_derivative_antisymmetry(self, built):
        be = built("planewave")
        omega = kahler_form(be.kahler)
        assert omega(0, 1).at((0.0,)) == -omega(1, 0).at((0.0,))


class TestRicciForm:
    def test_planewave_rho_xy(self, built):
        be = built("planewave")
        for p in be.grid:
            assert be.rho(2, 3).at(p) == pytest.approx(-2.0, abs=1e-12)

    def test_s3xr_ricci_form_vanishes(self, built):
        be = built("s3xr")
        for a in range(4):
            for b in range(a + 1, 4):
                assert max_abs_on_grid(be.rho(a, b), be.grid) <= 1e-9

    def test_warped_rho_kT_closed_form(self, built):
        # rho(k,T) = -(1/w) [L w]' with L the four-term logarithmic sum
        be = built("warped_alpha0")
        A = be.data
        fw = A.f * A.w
        fwp = fw.partial(0)
        L = fwp.partial(0) / fwp + 2.0 * A.w.partial(0) / A.w + A.f.partial(0) / A.f \
            + A.constants.alpha / A.w
        expected = -1.0 * (L * A.w).partial(0) / A.w
        assert max_abs_on_grid(be.rho(0, 1) - expected, be.grid) <= 1e-9

    def test_rho_real_and_antisymmetric(self, built):
        for eid in ("planewave", "warped_complete"):
            be = built(eid)
            rho_c = ricci_form(be.data, be.gforms)
            assert ricci_form_imag_residual(rho_c, be.grid) <= 1e-9

    def test_rho_J_invariance(self, built):
        be = built("ppwave")
        worst = 0.0
        for u in range(4):
            for v in range(4):
                ju, su = J_IMAGE[u]
                jv, sv = J_IMAGE[v]
                diff = be.rho(ju, jv) * (su * sv) - be.rho(u, v)
                worst = max(worst, max_abs_on_grid(diff, be.grid))
        assert worst <= 1e-8

    def test_central_rho_vanishes_on_vertical(self, built):
        be = built("ppwave")
        assert max_abs_on_grid(be.rho(0, 1), be.grid) <= 1e-9
        for h in (2, 3):
            assert max_abs_on_grid(be.rho(0, h), be.grid) <= 1e-9
            assert max_abs_on_grid(be.rho(1, h), be.grid) <= 1e-9

    def test_cross_route_all_entries(self, built):
        for eid in ("s3xr", "planewave", "ppwave", "warped_alpha0", "warped_complete"):
            be = built(eid)
            assert ricci_route_gap(be.chain, be.grid) <= 1e-7

    def test_ricci_from_form_orientation(self, built):
        # rho(k,T) = Ric(T,T) and rho(x,y) = Ric(y,y)
        be = built("planewave")
        ric = ricci_from_form(be.rho)
        for p in be.grid[:2]:
            assert ric[1][1].at(p) == pytest.approx(be.rho(0, 1).at(p), abs=1e-12)
            assert ric[3][3].at(p) == pytest.approx(be.rho(2, 3).at(p), abs=1e-12)


def d_omega_residual(A, km, grid):
    """The residual of d omega = 0, the closure of the Kahler form, over the grid."""
    return max_abs_on_grid(exterior_d_two_form(A.structure, kahler_form(km)).values(), grid)


class TestKahlerFormClosed:
    def test_catalog_entries_closed(self, entries, built):
        for eid in entries:
            be = built(eid)
            assert d_omega_residual(be.data, be.kahler, be.grid) <= TOL_FRAME, eid

    def test_mutated_parameter_function_fails(self):
        # a parameter function leaking x-dependence breaks d(omega) = 0
        entry = catalog.load("ppwave")
        data = entry.data
        bad_f = make_closed_form("exp(tau + x)", data.kset)
        bad = AdmissibleData(
            structure=data.structure,
            constants=data.constants,
            f=bad_f,
            iota=data.iota,
            case=CASE_CENTRAL,
        )
        km = build_kahler(bad)
        assert not d_omega_residual(bad, km, entry.grid()) <= TOL_FRAME

    def test_pure_x_parameter_function_degenerates(self):
        # f with no tau dependence kills the vertical block; the region
        # predicate (not the closure check) is what flags it
        entry = catalog.load("ppwave")
        data = entry.data
        bad = AdmissibleData(
            structure=data.structure,
            constants=data.constants,
            f=make_closed_form("exp(x)", data.kset),
            iota=data.iota,
            case=CASE_CENTRAL,
        )
        km = build_kahler(bad)
        assert not any(km.region_mask(entry.grid()))

    def test_d_rho_closed(self, built):
        for eid in ("planewave", "ppwave", "warped_alpha0"):
            be = built(eid)
            d_rho = exterior_d_two_form(be.data.structure, be.rho)
            assert max(max_abs_on_grid(f, be.grid) for f in d_rho.values()) <= 1e-7


class TestInducedTwists:
    def test_identities(self, built):
        # gK(k, [x,y]) = -iota b f' and gK(T, [x,y]) = iota a f'
        for eid in ("s3xr", "planewave", "ppwave"):
            be = built(eid)
            a, b = be.data.constants.a, be.data.constants.b
            fp = be.data.f_prime()
            SK = be.kahler.structure
            assert max_abs_on_grid(SK.g_of_bracket(0, 2, 3) - (-b) * be.data.iota * fp, be.grid) <= 1e-8
            assert max_abs_on_grid(SK.g_of_bracket(1, 2, 3) - a * be.data.iota * fp, be.grid) <= 1e-8
