"""Warped products: fiber data, lifts, the Einstein system, completeness."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from frame_kahler import warped
from frame_kahler.catalog import load
from frame_kahler.fields import DomainError, constant, make_closed_form
from frame_kahler.frames import (
    FrameError,
    grid_points,
    max_abs_on_grid,
    sectional_curvature,
)
from frame_kahler.warped import (
    TAU_KSET,
    WarpedFamily,
    adaptive_simpson,
    completeness,
    fiber_consistency,
    implicit_tan_field,
    ke_ode_residual,
    ke_pde_residual,
    lift_fiber,
    make_fiber,
    quotient_gauss_check,
    solve_implicit_w,
)

from conftest import central_diff, fd_plane_laplacian, ke_family

TAU0 = 1.0 - math.pi / 4.0

TAU_GRID_POS = grid_points(TAU_KSET, {"tau": (0.2, 1.4, 5)})
TAU_GRID_SYM = grid_points(TAU_KSET, {"tau": (-1.0, 1.0, 5)})
TAU_GRID_T0 = grid_points(TAU_KSET, {"tau": (0.05, 1.0, 7)})


def plane_fiber(expr):
    return make_fiber(0.0, expr, ("p", "q"))


class TestFiber:
    def test_constant_twist_fiber_passes(self):
        F = make_fiber(-2.0, "-2")
        rep = fiber_consistency(F, [()])
        assert rep.passed

    def test_plane_fiber_passes(self):
        F = plane_fiber("-sech(p + 2*q)^2")
        grid = grid_points(F.structure.kset, {"p": (-0.5, 0.5, 4), "q": (-0.5, 0.5, 4)})
        rep = fiber_consistency(F, grid)
        assert rep.passed

    def test_positive_twist_flagged(self):
        F = make_fiber(0.0, "2")
        rep = fiber_consistency(F, [()])
        assert not rep.passed
        assert "twist_negative" in [c.check_id for c in rep.checks if not c.passed]

    def test_non_finite_twist_fails_negativity(self):
        # (1e200 p)^2 overflows to inf for p > 0, and inf * 0 is NaN: the
        # twist is -2 at p = 0 and NaN at the other 4 of 6 grid points
        F = plane_fiber("-2 + (1e200*p)*(1e200*p)*(p-p)")
        grid = grid_points(F.structure.kset, {"p": (0.0, 1.0, 3), "q": (0.0, 1.0, 2)})
        assert sum(math.isnan(F.iota_bar.at(p)) for p in grid) == 4
        check = {c.check_id: c for c in fiber_consistency(F, grid).checks}["twist_negative"]
        assert not check.passed
        assert check.residual == math.inf

    def test_plane_variables_require_alpha_zero(self):
        with pytest.raises(FrameError):
            make_fiber(-1.0, "-sech(p)^2", ("p", "q"))


class TestLiftFiber:
    def test_product_case_keeps_fiber_twist(self):
        F = make_fiber(0.0, "-2")
        one = constant(TAU_KSET, 1.0)
        A = lift_fiber(F, one, one)
        # w = 1: [x,y] = iota_bar (k + T) and iota = iota_bar
        assert A.structure.C[2][3][0].at((0.0,)) == pytest.approx(-2.0)
        assert A.structure.C[2][3][1].at((0.0,)) == pytest.approx(-2.0)
        assert A.iota.at((0.0,)) == pytest.approx(-2.0)
        assert A.structure.C[0][1][0].at((0.0,)) == 0.0  # [k,T] = 0 for w' = 0

    def test_sphere_fiber_bracket_scaling(self):
        F = make_fiber(-2.0, "-2")
        w = make_closed_form("exp(tau)", TAU_KSET)
        f = constant(TAU_KSET, 1.0)
        A = lift_fiber(F, w, f)
        pt = (0.5,)
        scale = -2.0 / math.exp(0.5)
        assert A.structure.C[2][3][0].at(pt) == pytest.approx(scale)
        assert A.structure.C[2][3][1].at(pt) == pytest.approx(scale)
        # [k, x] = (alpha/w) y - (w'/w) x
        assert A.structure.C[0][2][3].at(pt) == pytest.approx(-2.0 / math.exp(0.5))
        assert A.structure.C[0][2][2].at(pt) == pytest.approx(-1.0)

    def test_derivative_table(self):
        F = plane_fiber("-sech(p)^2")
        w = make_closed_form("exp(tau)", TAU_KSET)
        A = lift_fiber(F, w, constant(TAU_KSET, 1.0))
        pt = (0.3, 0.1, -0.2)
        assert A.structure.D[0][0].at(pt) == 1.0  # d_k tau
        assert A.structure.D[1][0].at(pt) == -1.0  # d_T tau
        assert A.structure.D[2][0].at(pt) == 0.0
        assert A.structure.D[2][1].at(pt) == pytest.approx(math.exp(-0.3))  # d_x p = 1/w
        assert A.structure.D[3][2].at(pt) == pytest.approx(math.exp(-0.3))

    def test_metric_values(self):
        F = make_fiber(0.0, "-2")
        A = lift_fiber(F, make_closed_form("exp(tau)", TAU_KSET), constant(TAU_KSET, 1.0))
        assert A.structure.g[0][1].at((0.0,)) == 1.0
        assert A.structure.g[1][1].at((0.0,)) == -1.0
        assert A.structure.g[0][0].at((0.0,)) == 0.0

    def test_nonpositive_warping_rejected_at_evaluation(self):
        F = make_fiber(0.0, "-2")
        w = make_closed_form("tau", TAU_KSET)
        A = lift_fiber(F, w, constant(TAU_KSET, 1.0))
        with pytest.raises(DomainError):
            A.iota.at((0.0,))


class TestKeOdeResidual:
    @pytest.mark.parametrize("lam", [-3.0, 0.0])
    def test_alpha_zero_both_branches(self, lam):
        interval = (-1.0, 1.0) if lam != 0.0 else (0.0, 2.0)
        a2 = 0.0 if lam != 0.0 else 1.0
        fam = ke_family("alpha0", lam=lam, a1=1.0, a2=a2, interval=interval)
        grid = grid_points(TAU_KSET, {"tau": interval + (5,)})
        assert max_abs_on_grid(ke_ode_residual(fam, 0.0), grid) <= 1e-9

    def test_alpha_zero_general_constants(self):
        fam = ke_family("alpha0", lam=-3.0, a1=1.0, a2=1.5, interval=(-1.0, 1.0))
        assert max_abs_on_grid(ke_ode_residual(fam, 0.0), TAU_GRID_SYM) <= 1e-9

    @pytest.mark.parametrize("alpha", [-0.5, -1.0, -3.0])
    def test_alpha_negative_family(self, alpha):
        fam = ke_family("alphaneg", alpha=alpha, interval=(0.2, 1.4))
        assert max_abs_on_grid(ke_ode_residual(fam, alpha), TAU_GRID_POS) <= 1e-9

    def test_implicit_family(self):
        fam = ke_family("alpha_minus2", interval=(0.05, 1.0))
        assert max_abs_on_grid(ke_ode_residual(fam, -2.0), TAU_GRID_T0) <= 1e-9

    def test_wrong_alpha_leaves_residual(self):
        fam = ke_family("alphaneg", alpha=-1.0, interval=(0.2, 1.4))
        assert max_abs_on_grid(ke_ode_residual(fam, -2.0), TAU_GRID_POS) > 0.1


class TestKePdeResidual:
    def test_constant_twist_needs_c_zero(self):
        F = make_fiber(-2.0, "-2")
        assert max_abs_on_grid(ke_pde_residual(F, -3.0, 0.0), [()]) == 0.0
        assert max_abs_on_grid(ke_pde_residual(F, -3.0, 0.5), [()]) > 1.0

    def test_harmonic_exponent(self):
        F = plane_fiber("-exp(p^2 - q^2)")
        grid = grid_points(F.structure.kset, {"p": (-0.5, 0.5, 4), "q": (-0.5, 0.5, 4)})
        assert max_abs_on_grid(ke_pde_residual(F, 0.0, 1.0), grid) <= 1e-8

    def test_sech_profile(self):
        # iota_bar = -sech^2(p + 2q): the equation holds with lam C = -(1+4)
        F = plane_fiber("-sech(p + 2*q)^2")
        grid = grid_points(F.structure.kset, {"p": (-0.5, 0.5, 4), "q": (-0.5, 0.5, 4)})
        lam, C = 1.0, -5.0
        assert max_abs_on_grid(ke_pde_residual(F, lam, C), grid) <= 1e-7
        # oracle: the finite-difference plane Laplacian of log|iota_bar|
        pt = (0.2, -0.1)
        lap = fd_plane_laplacian(lambda s: math.log(abs(F.iota_bar.at(s))), pt, 0, 1)
        assert lap == pytest.approx(-2.0 * lam * C * F.iota_bar.at(pt), abs=1e-5)


class TestFiberEquationProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-0.5, 0.5),
    )
    def test_sech_profile_solves_for_matching_constant(self, p, q, r):
        # iota_bar = -sech^2(p x + q y + r) solves the fiber equation with
        # lam C = -(p^2 + q^2), for every coefficient choice
        F = plane_fiber("-sech(%r*p + %r*q + %r)^2" % (p, q, r))
        grid = grid_points(F.structure.kset, {"p": (-0.4, 0.4, 3), "q": (-0.4, 0.4, 3)})
        lamC = -(p * p + q * q)
        res = ke_pde_residual(F, 1.0, lamC)
        assert max_abs_on_grid(res, grid) <= 1e-7

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5))
    def test_harmonic_exponent_solves_with_zero(self, c1, c2, c3):
        # |iota_bar| = e^h with h harmonic gives a solution with lam C = 0
        expr = "-exp(%r*(p^2 - q^2) + %r*p*q + %r*p)" % (c1, c2, c3)
        F = plane_fiber(expr)
        grid = grid_points(F.structure.kset, {"p": (-0.4, 0.4, 3), "q": (-0.4, 0.4, 3)})
        res = ke_pde_residual(F, 1.0, 0.0)
        assert max_abs_on_grid(res, grid) <= 1e-8


def _two_tan_newton(tau, seed, halfwidth=0.5, max_iter=100):
    """Reference copy of an earlier scalar ``solve_implicit_w``: ``math.tan``
    through a closure, twice per step, and both bracket residuals kept."""

    def h(x):
        return tau + math.tan(x) - x

    lo, hi = seed - halfwidth, seed + halfwidth
    hlo, hhi = h(lo), h(hi)
    if hlo == 0.0:
        return lo
    if hhi == 0.0:
        return hi
    have_bracket = (hlo < 0.0) != (hhi < 0.0)
    x = seed
    for _ in range(max_iter):
        hx = h(x)
        if abs(hx) <= 1e-12:
            return x
        if have_bracket:
            if (hx < 0.0) == (hlo < 0.0):
                lo, hlo = x, hx
            else:
                hi, hhi = x, hx
        slope = math.tan(x) ** 2
        step = x - hx / slope if slope > 1e-300 else math.inf
        if not (lo < step < hi) or not math.isfinite(step):
            if not have_bracket:
                raise ArithmeticError(
                    "Newton left the branch bracket (%g, %g) at tau=%g" % (lo, hi, tau)
                )
            step = 0.5 * (lo + hi)
        x = step
    raise ArithmeticError("implicit solve did not converge in %d iterations (tau=%g)" % (max_iter, tau))


def _solve_one(tau, seed):
    """``solve_implicit_w`` for one tau, as a float."""
    return float(solve_implicit_w(tau, seed)[0])


class TestImplicitSolve:
    def test_root_at_tau0(self):
        x0 = _solve_one(TAU0, -math.pi / 4.0)
        assert abs(x0 + math.pi / 4.0) <= 1e-12
        assert abs(TAU0 + math.tan(x0) - x0) <= 1e-12

    def test_derivative_closed_form_and_fd(self):
        # x'(tau) = -cot^2(x(tau)); at tau0 this is -1
        x = implicit_tan_field(-math.pi / 4.0)
        assert x.partial(0).at((TAU0,)) == pytest.approx(-1.0, abs=1e-10)
        oracle = central_diff(lambda p: _solve_one(p[0], -math.pi / 4.0), (TAU0,), 0)
        assert x.partial(0).at((TAU0,)) == pytest.approx(oracle, abs=1e-6)

    def test_warping_values_at_tau0(self):
        fam = ke_family("alpha_minus2", interval=(0.05, 1.0))
        assert fam.w.at((TAU0,)) == pytest.approx(1.0, abs=1e-12)
        assert fam.w.partial(0).at((TAU0,)) == pytest.approx(2.0, abs=1e-10)

    def test_nonconvergence_errors(self):
        # no root of x = tau + tan(x) inside (seed - 0.01, seed + 0.01)
        with pytest.raises(ArithmeticError) as exc:
            solve_implicit_w(100.0, -math.pi / 4.0, halfwidth=0.01, max_iter=8)
        assert str(exc.value) == "Newton left the branch bracket (-0.795398, -0.775398) at tau=100"
        # a bracketed root that one step does not reach
        with pytest.raises(ArithmeticError) as exc:
            solve_implicit_w(0.5, -math.pi / 4.0, max_iter=1)
        assert str(exc.value) == "implicit solve did not converge in 1 iterations (tau=0.5)"

    @staticmethod
    def _outcome(solve, tau):
        try:
            return solve(tau, -math.pi / 4.0)
        except ArithmeticError as exc:
            return str(exc)

    TAU_LISTS = [
        np.linspace(0.05, 1.0, 2000).tolist() + [TAU0],
        # 289 of these leave the branch bracket; others bisect before converging
        np.linspace(-2.0, 3.0, 500).tolist(),
    ]

    @pytest.mark.parametrize("taus", TAU_LISTS)
    def test_within_32_ulps_of_two_tan_newton(self, taus):
        # the same errors, and roots within 32 ulps of a solver that calls
        # math.tan twice per step (tan as sin/cos moves the last bits)
        for t in taus:
            got, want = self._outcome(_solve_one, t), self._outcome(_two_tan_newton, t)
            if isinstance(want, str):
                assert got == want
            else:
                assert isinstance(got, float)
                assert abs(int(np.float64(got).view(np.int64)) - int(np.float64(want).view(np.int64))) <= 32, t

    @pytest.mark.parametrize("taus", TAU_LISTS)
    def test_array_call_equals_per_tau_calls(self, taus):
        # a root does not depend on the other taus of its call
        ok = [t for t in taus if isinstance(self._outcome(_solve_one, t), float)]
        roots = solve_implicit_w(np.array(ok), -math.pi / 4.0)
        assert roots.tobytes() == np.array([_solve_one(t, -math.pi / 4.0) for t in ok]).tobytes()

    @pytest.mark.parametrize("order", [1, -1])
    def test_array_call_raises_first_failing_tau(self, order):
        taus = self.TAU_LISTS[1][::order]
        first = next(err for err in (self._outcome(_solve_one, t) for t in taus) if isinstance(err, str))
        with pytest.raises(ArithmeticError) as exc:
            solve_implicit_w(np.array(taus), -math.pi / 4.0)
        assert str(exc.value) == first

    def test_roots_do_not_depend_on_simd_dispatch(self):
        # np.tan's last bits change with AVX-512 dispatch; sin and cos do not
        from numpy._core._multiarray_umath import __cpu_dispatch__

        code = ("import math, sys, numpy as np\n"
                "from frame_kahler.warped import solve_implicit_w\n"
                "taus = np.linspace(0.05, 1.0, 2000).tolist() + [%r]\n"
                "sys.stdout.write(solve_implicit_w(np.array(taus), -math.pi / 4).tobytes().hex())\n" % TAU0)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        disabled = [t for t in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR") if t in __cpu_dispatch__]
        outputs = []
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}):
            env = dict(os.environ, PYTHONPATH=src, **extra)
            env.pop("NPY_ENABLE_CPU_FEATURES", None)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            outputs.append(bytes.fromhex(proc.stdout))
        assert len(outputs[0]) == 8 * 2001
        assert outputs[0] == outputs[1]


def _one_batch_roots(tau, seed, halfwidth=0.5, max_iter=100):
    """Reference copy of the single-batch ``solve_implicit_w``, which solved
    every tau of a call in one Newton iteration over the whole array."""
    taus = np.asarray(tau, dtype=float).reshape(-1)
    lo, hi = ends = seed - halfwidth, seed + halfwidth
    tlo, thi = np.sin(ends) / np.cos(ends)
    hlo, hhi = taus + tlo - lo, taus + thi - hi
    roots = np.where(hlo == 0.0, lo, hi)
    failed = np.zeros(taus.size, dtype=np.int8)  # 1: left the bracket, 2: did not converge
    idx = np.flatnonzero((hlo != 0.0) & (hhi != 0.0))
    # +1 where the residual is negative at lo, -1 where at hi, 0 without a bracket
    orient = (hlo[idx] < 0.0) * 1.0 - (hhi[idx] < 0.0)
    tau_a, lo, hi, x = taus[idx], np.full(idx.size, lo), np.full(idx.size, hi), np.full(idx.size, float(seed))
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not idx.size:
                break
            t = np.sin(x) / np.cos(x)
            hx = tau_a + t - x
            done = np.abs(hx) <= 1e-12
            if np.count_nonzero(done):
                roots[idx[done]] = x[done]
                keep = ~done
                idx, tau_a, lo, hi, orient, x, t, hx = (a[keep] for a in (idx, tau_a, lo, hi, orient, x, t, hx))
            side = hx * orient  # x is the new lo where < 0, the new hi where > 0
            np.copyto(lo, x, where=side < 0.0)
            np.copyto(hi, x, where=side > 0.0)
            slope = t * t
            step = x - hx / slope
            inside = (slope > 1e-300) & (lo < step) & (step < hi)  # False for an infinite or NaN step
            if np.count_nonzero(inside) < idx.size:
                step = np.where(inside, step, 0.5 * (lo + hi))
                lost = ~inside & (orient == 0.0)
                if np.count_nonzero(lost):
                    failed[idx[lost]] = 1
                    keep = ~lost
                    idx, tau_a, lo, hi, orient, step = (a[keep] for a in (idx, tau_a, lo, hi, orient, step))
            x = step
    failed[idx] = 2
    if np.count_nonzero(failed):
        first = np.flatnonzero(failed)[0]
        if failed[first] == 1:
            raise ArithmeticError("Newton left the branch bracket (%g, %g) at tau=%g" % (ends + (taus[first],)))
        raise ArithmeticError("implicit solve did not converge in %d iterations (tau=%g)" % (max_iter, taus[first]))
    return roots


class TestBlockedRoots:
    """``solve_implicit_w`` solves in consecutive blocks of 4,096 taus, with
    the bits and the errors of one batch over the whole array."""

    @staticmethod
    def hexes(roots):
        return list(map(float.hex, roots.tolist()))

    def test_roots_across_three_blocks(self):
        # the second list's roots that bisect before they converge, spread through the blocks
        outcome = TestImplicitSolve._outcome
        bisected = [t for t in TestImplicitSolve.TAU_LISTS[1] if isinstance(outcome(_solve_one, t), float)]
        taus = np.insert(np.linspace(0.05, 1.0, 10000), np.arange(len(bisected)) * 40, bisected)
        assert taus.size >= 10000 and -(-taus.size // warped._ROOT_BLOCK) >= 3
        got = solve_implicit_w(taus, -math.pi / 4.0)
        assert self.hexes(got) == self.hexes(_one_batch_roots(taus, -math.pi / 4.0))

    def test_simpson_quarter_points_of_alpha_minus2(self):
        # the first level of the arclength integral of ``frame_kahler ke --family
        # alpha_minus2 --n 20000``: the quarter points of the 19,999 intervals
        tau = np.linspace(0.05, 1.0, 20000)
        a, b = tau[:-1], tau[1:]
        m = 0.5 * (a + b)
        quarters = np.concatenate([0.5 * (a + m), 0.5 * (m + b)])
        assert quarters.size == 39998
        got = solve_implicit_w(quarters, -math.pi / 4.0)
        assert self.hexes(got) == self.hexes(_one_batch_roots(quarters, -math.pi / 4.0))

    def test_no_taus(self):
        assert solve_implicit_w(np.array([]), -math.pi / 4.0).shape == (0,)

    @pytest.mark.parametrize("order", [1, -1])
    def test_first_failing_tau_across_blocks(self, order):
        # 100 and 50 leave the branch bracket; they sit in blocks 1 and 2 (0 and 1 reversed)
        taus = np.linspace(0.05, 1.0, 10000)
        taus[5000], taus[9000] = 100.0, 50.0
        taus = taus[::order]
        with pytest.raises(ArithmeticError) as want:
            _one_batch_roots(taus, -math.pi / 4.0)
        with pytest.raises(ArithmeticError) as got:
            solve_implicit_w(taus, -math.pi / 4.0)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("at tau=%g" % (100.0 if order == 1 else 50.0))


class TestEinsteinVerdict:
    def test_alpha0_einstein(self, built):
        be = built("warped_alpha0")
        rep = be.einstein(-3.0)
        assert rep.passed
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["einstein_residual"].residual <= 1e-7
        assert by_id["rho_horizontal_vertical"].residual <= 1e-9

    def test_alphaneg_flat(self, built):
        be = built("warped_alphaneg")
        rep = be.einstein(0.0)
        assert rep.passed
        assert be.curv_k.max_component(be.grid) <= 1e-7
        assert be.curv_k.max_ricci(be.grid) <= 1e-7

    def test_implicit_family_ricci_flat_not_flat(self, built):
        be = built("warped_alpha_minus2")
        rep = be.einstein(0.0)
        assert rep.passed
        assert be.curv_k.max_ricci(be.grid) <= 1e-7
        K_xy = sectional_curvature(be.kahler.structure, be.curv_k, 2, 3)
        assert abs(K_xy.at((TAU0,))) > 0.1

    def test_wrong_lambda_fails(self, built):
        be = built("warped_alpha0")
        rep = be.einstein(-1.0)
        assert not {c.check_id: c for c in rep.checks}["einstein_residual"].passed
        assert not rep.passed

    def test_log_derivative_identity(self, built):
        # c'/c = (fw)''/(fw)' - w'/w as fields
        for eid in ("warped_alpha0", "warped_alphaneg", "warped_alpha_minus2"):
            be = built(eid)
            rep = be.einstein(be.entry.family.lam)
            by_id = {c.check_id: c for c in rep.checks}
            assert by_id["log_derivative_identity"].residual <= 1e-10
            assert by_id["twist_substitution"].residual <= 1e-10


class TestCompleteness:
    def test_complete_example(self):
        w = make_closed_form("exp(tau)", TAU_KSET)
        fam = WarpedFamily(constant(TAU_KSET, 1.0), w, -3.0, 0.0, (-math.inf, math.inf))
        cv = completeness(fam)
        assert cv.verdict == "complete"
        assert cv.lower_diverged and cv.upper_diverged
        assert cv.s_range[0] < -1e6 and cv.s_range[1] > 1e6

    def test_bounded_interval_inconclusive(self):
        w = make_closed_form("exp(tau)", TAU_KSET)
        fam = WarpedFamily(constant(TAU_KSET, 1.0), w, -3.0, 0.0, (0.0, 1.0))
        cv = completeness(fam)
        assert cv.verdict == "inconclusive"
        assert cv.s_range[1] - cv.s_range[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_lambda_zero_family_inconclusive(self):
        fam = ke_family("alphaneg", alpha=-1.0, interval=(0.0, 1.4))
        cv = completeness(fam)
        assert cv.verdict == "inconclusive"

    def test_nonpositive_c_detected(self):
        # f = 1, w = exp(-tau^2): (fw)'/w = -2 tau < 0 for tau > 0
        w = make_closed_form("exp(-tau^2)", TAU_KSET)
        fam = WarpedFamily(constant(TAU_KSET, 1.0), w, 0.0, 0.0, (0.5, 2.0))
        with pytest.raises(DomainError):
            completeness(fam)

    def test_overflow_is_a_domain_error(self):
        # f = tau, w = exp(tau): c = (fw)'/w evaluates exp(tau), which overflows
        # past tau ~ 709.8; the error names the argument and the point
        tau = make_closed_form("tau", TAU_KSET)
        fam = WarpedFamily(tau, make_closed_form("exp(tau)", TAU_KSET), 0.0, 0.0, (0.0, math.inf))
        with pytest.raises(DomainError) as exc:
            completeness(fam)
        got = re.fullmatch(r"exp\((\S+)\) failed at \((\S+),\): math range error", str(exc.value))
        assert got and got[1] == got[2] and float(got[1]) > 709.8

    @staticmethod
    def _segment_order(fn, anchor, f_anchor, end):
        """Reference for ``_integrate_toward``: each segment's outer end, then
        its Simpson integral, one segment at a time, stopping at divergence."""
        total, increments, up, f_inner = 0.0, [], end > anchor, f_anchor
        for lo, hi in warped._segments_toward(anchor, end, 60):
            f_outer = fn(np.array([hi if up else lo]))
            fa, fb = (f_inner, f_outer) if up else (f_outer, f_inner)
            inc = adaptive_simpson(fn, np.array([lo]), np.array([hi]), fa, fb)[0]
            f_inner = f_outer
            total += inc
            increments.append(inc)
            if total > 1e6 and len(increments) >= 3 and increments[-1] >= increments[-2] >= increments[-3] > 0.0:
                return total, True
        return total, False

    FAMILIES = {
        "alpha_minus2": lambda: ke_family("alpha_minus2", interval=(0.05, 1.0)),
        "alpha0_unbounded": lambda: ke_family("alpha0", lam=-1.0, a1=1.0, a2=0.0, interval=(-math.inf, math.inf)),
        "alphaneg": lambda: ke_family("alphaneg", alpha=-1.0, interval=(0.0, 1.4)),
        "exp_unbounded": lambda: WarpedFamily(constant(TAU_KSET, 1.0), make_closed_form("exp(tau)", TAU_KSET),
                                              -3.0, 0.0, (-math.inf, math.inf)),
        "exp_bounded": lambda: WarpedFamily(constant(TAU_KSET, 1.0), make_closed_form("exp(tau)", TAU_KSET),
                                            -3.0, 0.0, (0.0, 1.0)),
        "warped_complete": lambda: load("warped_complete").family,
        # c = 1 - 2e-15 tau turns negative at tau = 5e14, far past the divergence stop
        "far_end_domain": lambda: WarpedFamily(make_closed_form("tau - 1e-15*tau^2", TAU_KSET),
                                               constant(TAU_KSET, 1.0), 0.0, 0.0, (-math.inf, math.inf)),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_batched_equals_segment_order(self, monkeypatch, name):
        batched = completeness(self.FAMILIES[name]())
        monkeypatch.setattr(warped, "_integrate_toward", self._segment_order)
        reference = completeness(self.FAMILIES[name]())
        assert batched.verdict == reference.verdict
        assert (batched.lower_diverged, batched.upper_diverged) == (reference.lower_diverged,
                                                                    reference.upper_diverged)
        assert float(batched.s_lower) == float(reference.s_lower)
        assert float(batched.s_upper) == float(reference.s_upper)

    def test_far_end_domain_error_is_not_reached(self):
        # the batch meets c <= 0 at tau ~ 5.6e14; segment order stops long before
        cv = completeness(self.FAMILIES["far_end_domain"]())
        assert cv.verdict == "complete"
        assert cv.s_range[0] < -1e6 and cv.s_range[1] > 1e6

    def test_one_root_batch_per_simpson_level(self, monkeypatch):
        # one segment at a time made 336 solve_implicit_w calls here
        calls = []

        def counted(tau, seed):
            calls.append(np.size(tau))
            return solve_implicit_w(tau, seed)

        monkeypatch.setattr(warped, "solve_implicit_w", counted)
        completeness(ke_family("alpha_minus2", interval=(0.05, 1.0)))
        assert 0 < len(calls) <= 20

    @staticmethod
    def _simpson(fn, lo, hi):
        """``adaptive_simpson`` over the one interval (lo, hi)."""
        a, b = np.array([lo]), np.array([hi])
        return adaptive_simpson(fn, a, b, fn(a), fn(b))[0]

    def test_adaptive_simpson_accuracy(self):
        assert self._simpson(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-11)
        assert self._simpson(lambda t: t ** (-0.75), 1e-12, 1.0) == pytest.approx(4.0, rel=1e-3)


    def test_batched_simpson_equals_single_intervals(self):
        # one level-by-level call over k intervals gives each interval's
        # single-interval value, and both equal the depth-first recursion
        def fn(t):
            return np.sqrt(np.abs(np.sin(3.0 * t))) + t * t

        def recursive(a, b, rel_tol):
            f = lambda t: float(fn(np.array([t]))[0])  # noqa: E731

            def recurse(a, fa, b, fb, m, fm, whole, depth, eps):
                lm, rm = 0.5 * (a + m), 0.5 * (m + b)
                flm, frm = f(lm), f(rm)
                left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
                right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
                delta = left + right - whole
                if depth >= 40 or abs(delta) <= 15.0 * eps:
                    return left + right + delta / 15.0
                return (recurse(a, fa, m, fm, lm, flm, left, depth + 1, eps / 2.0)
                        + recurse(m, fm, b, fb, rm, frm, right, depth + 1, eps / 2.0))

            m = 0.5 * (a + b)
            whole = (b - a) / 6.0 * (f(a) + 4.0 * f(m) + f(b))
            return recurse(a, f(a), b, f(b), m, f(m), whole, 0, rel_tol * (1.0 + abs(whole)))

        a = np.array([0.0, 0.3, 1.0, -2.0, 5.0])
        b = np.array([0.3, 1.0, 2.5, -1.0, 5.0])
        batched = adaptive_simpson(fn, a, b, fn(a), fn(b))
        single = [self._simpson(fn, lo, hi) for lo, hi in zip(a, b)]
        assert batched.tolist() == single
        assert single == [recursive(lo, hi, 1e-9) for lo, hi in zip(a, b)]
        empty = np.array([])
        assert adaptive_simpson(fn, empty, empty, empty, empty).size == 0


class TestQuotientGauss:
    def test_constant_twist(self):
        F = make_fiber(-2.0, "-2")
        rep = quotient_gauss_check(F, -3.0, 0.0, [()])
        assert rep.passed

    def test_sech_profile_matches_fit(self):
        F = plane_fiber("-sech(p + 2*q)^2")
        grid = grid_points(F.structure.kset, {"p": (-0.5, 0.5, 4), "q": (-0.5, 0.5, 4)})
        rep = quotient_gauss_check(F, 1.0, -5.0, grid)
        assert rep.passed
        by_id = {c.check_id: c for c in rep.checks}
        assert "fitted_constant" in by_id and by_id["fitted_constant"].passed

    def test_nonharmonic_exponent_fails_every_constant(self):
        F = plane_fiber("-exp(p^2)")
        grid = grid_points(F.structure.kset, {"p": (-0.5, 0.5, 5), "q": (-0.5, 0.5, 3)})
        rep = quotient_gauss_check(F, 1.0, 1.0, grid)
        # Gauss curvature nonconstant and no constant fits: verdicts co-vanish
        assert rep.passed
        assert "fitted_constant" not in {c.check_id for c in rep.checks}
        res = ke_pde_residual(F, 1.0, 1.0)
        assert max_abs_on_grid(res, grid) > 0.1


    def test_non_finite_twist_fails_equivalence(self):
        # NaN at 4 of 6 points: both routes see NaN, and that is no agreement
        F = plane_fiber("-2 + (1e200*p)*(1e200*p)*(p-p)")
        grid = grid_points(F.structure.kset, {"p": (0.0, 1.0, 3), "q": (0.0, 1.0, 2)})
        rep = quotient_gauss_check(F, 1.0, 1.0, grid)
        check = {c.check_id: c for c in rep.checks}["gauss_constant_iff_twist_equation"]
        assert not check.passed
        assert "fit residual inf" in check.note


class TestSectionalValues:
    def test_complete_example_sectionals(self, built):
        be = built("warped_complete")
        lam = be.entry.family.lam
        K_kT = sectional_curvature(be.kahler.structure, be.curv_k, 0, 1)
        K_xk = sectional_curvature(be.kahler.structure, be.curv_k, 2, 0)
        assert max_abs_on_grid(K_kT - 2.0 * lam / 3.0, be.grid) <= 1e-8
        assert max_abs_on_grid(K_xk - lam / 6.0, be.grid) <= 1e-8

    def test_c_profile_constant(self, built):
        be = built("warped_complete")
        c_field = be.entry.family.c_field
        tau_grid = sorted({(p[0],) for p in be.grid})
        assert max_abs_on_grid(c_field - 1.0, tau_grid) <= 1e-9
