"""Warped-product Kahler-Einstein machinery.

The Lorentzian metrics here are warped products g = -dtau^2 + w(tau)^2 gbar
over a 3-manifold fiber carrying a unit geodesic shear-free field kbar with
negative twist.  Lifting the fiber frame produces an admissible 4-frame
structure; the induced metric gK is Einstein with constant lambda exactly
when the fiber twist satisfies a Liouville-type equation with a constant C
and the (f, w) pair satisfies a companion ODE in tau.  This module builds
the lifts, evaluates both residuals, verifies the Einstein property through
the Ricci form, and analyzes completeness through the arclength integral of
sqrt(c/2) with c = (fw)'/w.  The closed-form solution families are warped
documents (``catalog.family_document``), parsed like any other.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .fields import (
    Const,
    CScalarField,
    DomainError,
    FieldError,
    KSet,
    ScalarField,
    cos,
    log_abs,
    make_closed_form,
    remap,
    sin,
    _div,
    _Grid,
)
from .frames import (
    FrameError,
    FrameStructure,
    constancy_on_grid,
    fit_constant,
    grid_points,
    grid_spec_string,
    koszul_connection,
    least_value,
    max_abs_on_grid,
    min_on_grid,
    plane_laplacian_log_abs,
    sectional_curvature,
    shear_fields,
    values_on_grid,
)
from .kahler import (
    CASE_WARPED,
    AdmissibleConstants,
    AdmissibleData,
    K,
    KahlerChain,
    T,
    X,
    Y,
    ricci_form_imag_residual,
    shared_checks,
)
from .reporting import TOL_CROSS, TOL_FRAME, TOL_TIGHT, VerificationReport

__all__ = [
    "FiberData",
    "WarpedFamily",
    "CompletenessVerdict",
    "TAU_KSET",
    "make_fiber",
    "fiber_consistency",
    "lift_fiber",
    "ke_operator",
    "ke_ode_residual",
    "ke_pde_residual",
    "einstein_verdict",
    "solve_implicit_w",
    "implicit_tan_field",
    "adaptive_simpson",
    "completeness",
    "quotient_gauss_check",
    "region_checks",
    "warped_suite",
]

TAU_KSET = KSet(("tau",))

KBAR, XBAR, YBAR = 0, 1, 2


@dataclass
class FiberData:
    """Frame data of the 3-manifold fiber.

    The frame (kbar, xbar, ybar) is gbar-orthonormal with brackets
    [kbar, xbar] = alpha ybar, [kbar, ybar] = -alpha xbar and
    [xbar, ybar] = iota_bar kbar for a negative twist iota_bar killed by
    kbar.  A nonconstant twist needs fiber plane variables, which forces
    alpha = 0 (otherwise the bracket pattern is inconsistent with the
    derivative table).
    """

    structure: FrameStructure
    alpha: float
    iota_bar: ScalarField

    @cached_property
    def lap_log_iota_bar(self) -> ScalarField:
        """(d_xbar^2 + d_ybar^2) log|iota_bar|, the left side of the fiber
        equation."""
        return plane_laplacian_log_abs(self.structure, self.iota_bar, XBAR, YBAR)


def _set_bracket(C, a, b, coeffs):
    """[e_a, e_b] = sum of coeffs[c] e_c, with [e_b, e_a] filled in antisymmetrically."""
    for c, val in coeffs.items():
        C[a][b][c] = val
        C[b][a][c] = -val


def make_fiber(alpha: float, iota_bar_expr: str, plane_vars: Tuple[str, ...] = ()) -> FiberData:
    """Fiber structure from the bracket constant and a twist expression.

    ``plane_vars`` names the fiber k-set (empty for a constant twist); xbar
    and ybar act on it as the plane partials."""
    kset = KSet(tuple(plane_vars))
    iota_bar = make_closed_form(iota_bar_expr, kset)
    if plane_vars and alpha != 0.0:
        raise FrameError("a fiber with plane variables requires alpha = 0")
    zero = kset.zero
    one = Const(kset, 1.0)
    g = [[one if i == j else zero for j in range(3)] for i in range(3)]
    C = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    _set_bracket(C, KBAR, XBAR, {YBAR: Const(kset, alpha)})
    _set_bracket(C, KBAR, YBAR, {XBAR: Const(kset, -alpha)})
    _set_bracket(C, XBAR, YBAR, {KBAR: iota_bar})
    D = [[zero] * kset.size for _ in range(3)]
    for i, _ in enumerate(kset.names):
        D[XBAR][i] = one if i == 0 else zero
        D[YBAR][i] = one if i == 1 else zero
    S = FrameStructure(kset, ("kbar", "xbar", "ybar"), g, C, D)
    return FiberData(S, float(alpha), iota_bar)


def fiber_consistency(F: FiberData, grid) -> VerificationReport:
    """Unit/geodesic/shear-free checks on kbar plus the bracket pattern,
    negativity and kbar-invariance of the twist."""
    report = VerificationReport(suite="fiber-consistency")
    S = F.structure

    worst = max_abs_on_grid(
        (S.g[i][j] - (1.0 if i == j else 0.0) for i in range(3) for j in range(3)), grid
    )
    report.add("orthonormal_frame", worst, TOL_FRAME)

    conn = koszul_connection(S)
    report.add("kbar_geodesic", max_abs_on_grid(conn.gamma[KBAR][KBAR], grid), TOL_FRAME)
    report.add("kbar_shear_free", max_abs_on_grid(shear_fields(S, KBAR, XBAR, YBAR), grid), TOL_FRAME)

    worst = max_abs_on_grid(
        [
            S.C[KBAR][XBAR][YBAR] - F.alpha, S.C[KBAR][YBAR][XBAR] + F.alpha,
            S.C[KBAR][XBAR][XBAR], S.C[KBAR][YBAR][YBAR],
            S.C[KBAR][XBAR][KBAR], S.C[KBAR][YBAR][KBAR],
            S.C[XBAR][YBAR][XBAR], S.C[XBAR][YBAR][YBAR],
            S.C[XBAR][YBAR][KBAR] - F.iota_bar,
        ],
        grid,
    )
    report.add("bracket_pattern", worst, TOL_FRAME)

    report.add("kbar_kills_twist", max_abs_on_grid(S.dd(KBAR, F.iota_bar), grid), TOL_FRAME)

    max_iota = -min_on_grid(F.iota_bar, grid, key=operator.neg)
    report.add(
        "twist_negative",
        0.0 if max_iota < 0.0 else max(1.0, max_iota),
        0.0,
        note="max iota_bar = %.3e" % max_iota,
    )
    return report


def lift_fiber(F: FiberData, w: ScalarField, f: ScalarField) -> AdmissibleData:
    """Lift the fiber to the warped 4-frame structure.

    ``w`` (positive) and ``f`` are fields of tau alone.  The lifted frame is
    k = kbar/w + d_tau, T = -d_tau, x = xbar/w, y = ybar/w, with metric
    values g(k,T) = 1, g(T,T) = -1, g(k,k) = 0 and lifted brackets carrying
    the extra -w'/w terms.  The twist of k is iota_bar / w.
    """
    fiber_names = F.structure.kset.names
    kset = KSet(("tau",) + fiber_names)
    tau_w = remap(w, kset)
    tau_f = remap(f, kset)
    iota_bar = remap(F.iota_bar, kset)
    zero = kset.zero
    one = Const(kset, 1.0)

    wp = tau_w.partial(0)
    rho = _div(wp, tau_w, label="warping function")
    inv_w = _div(one, tau_w, label="warping function")
    alpha_over_w = inv_w * F.alpha

    g = [[zero] * 4 for _ in range(4)]
    g[K][T] = g[T][K] = one
    g[T][T] = kset.minus_one
    g[X][X] = g[Y][Y] = one

    C = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    _set_bracket(C, K, T, {K: -rho, T: -rho})
    _set_bracket(C, K, X, {Y: alpha_over_w, X: -rho})
    _set_bracket(C, K, Y, {X: -alpha_over_w, Y: -rho})
    _set_bracket(C, T, X, {X: rho})
    _set_bracket(C, T, Y, {Y: rho})
    _set_bracket(C, X, Y, {K: iota_bar * inv_w, T: iota_bar * inv_w})

    D = [[zero] * kset.size for _ in range(4)]
    D[K][0] = one
    D[T][0] = kset.minus_one
    fD = F.structure.D
    for i in range(len(fiber_names)):
        D[K][1 + i] = remap(fD[KBAR][i], kset) * inv_w
        D[X][1 + i] = remap(fD[XBAR][i], kset) * inv_w
        D[Y][1 + i] = remap(fD[YBAR][i], kset) * inv_w

    S = FrameStructure(kset, ("k", "T", "x", "y"), g, C, D)
    constants = AdmissibleConstants(a=1.0, b=-1.0, alpha=F.alpha, beta=0.0, ell_gradient=1.0)
    return AdmissibleData(
        structure=S,
        constants=constants,
        f=tau_f,
        iota=iota_bar * inv_w,
        case=CASE_WARPED,
        w=tau_w,
        iota_bar=iota_bar,
    )


@dataclass
class WarpedFamily:
    """A candidate (f, w) pair with its Einstein data on an interval."""

    f: ScalarField  # field of tau (1-variable k-set)
    w: ScalarField
    lam: float
    C: float
    interval: Tuple[float, float]

    @cached_property
    def fw_prime(self) -> ScalarField:
        """(fw)'."""
        return (self.f * self.w).partial(0)

    @cached_property
    def c_field(self) -> ScalarField:
        """gK(k,k) profile c = (fw)'/w."""
        return _div(self.fw_prime, self.w, label="warping function")


def ke_operator(f: ScalarField, w: ScalarField, fwp: ScalarField, alpha: float) -> ScalarField:
    """L = (fw)''/(fw)' + 2 w'/w + f'/f + alpha/w, derivatives in tau;
    ``fwp`` is (fw)'."""
    return (
        _div(fwp.partial(0), fwp, label="(fw)'")
        + 2.0 * _div(w.partial(0), w, label="w")
        + _div(f.partial(0), f, label="f")
        + _div(Const(f.kset, alpha), w, label="w")
    )


def ke_ode_residual(fam: WarpedFamily, alpha: float) -> ScalarField:
    """Residual of the tau-ODE:  L + lambda (C/w + f)  with L from ``ke_operator``."""
    f, w = fam.f, fam.w
    rhs = -fam.lam * (_div(Const(f.kset, fam.C), w, label="w") + f)
    return ke_operator(f, w, fam.fw_prime, alpha) - rhs


def ke_pde_residual(F: FiberData, lam: float, C: float) -> ScalarField:
    """Residual of the fiber equation:
    (d_xbar^2 + d_ybar^2) log|iota_bar| + 2 lambda C iota_bar."""
    return F.lap_log_iota_bar + (2.0 * lam * C) * F.iota_bar


# implicit-tan solution branch -------------------------------------------------


# taus per Newton batch: the temporaries of a 39,998-tau call shrink from ~3 MB to ~0.3 MB
_ROOT_BLOCK = 4096


def solve_implicit_w(tau, seed: float, halfwidth: float = 0.5, max_iter: int = 100):
    """Solve x = tau + tan(x) near the seed by safeguarded Newton for an
    array of taus at once; returns the array of roots.

    The bracket (seed - halfwidth, seed + halfwidth) confines the iteration
    to one branch of tan; outside it the step falls back to bisection when
    a sign change is available, and errors out otherwise, naming the first
    failing tau in order. A root does not depend on the other taus of the
    call, so the taus are solved in consecutive blocks of 4,096, in order:
    a block raises for its first failing tau, which is the call's first.
    tan is ``np.sin(x) / np.cos(x)`` (``np.tan``'s bits depend on the
    host's SIMD dispatch), and the slope is ``t * t``."""
    taus = np.asarray(tau, dtype=float).reshape(-1)
    return np.concatenate([_newton_block(taus[i:i + _ROOT_BLOCK], seed, halfwidth, max_iter)
                           for i in range(0, taus.size or 1, _ROOT_BLOCK)])


def _newton_block(taus, seed, halfwidth, max_iter):
    """``solve_implicit_w`` on one block of taus."""
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


class _ImplicitTanField(ScalarField):
    """x(tau) on the branch of x = tau + tan(x) through the seed.

    The tau-derivative is the closed form -cot^2(x), so derivative fields of
    every order are exact. ``_compute`` solves all roots of a grid in one
    ``solve_implicit_w`` call; the node cache keeps them per grid."""

    __slots__ = ("seed",)

    def __init__(self, seed):
        ScalarField.__init__(self, TAU_KSET)
        self.seed = seed

    def _compute(self, grid):
        return solve_implicit_w(grid.cols[0], self.seed)

    def _derive(self, i):
        cot = _div(cos(self), sin(self), label="cot of implicit branch")
        return -(cot * cot)


def implicit_tan_field(seed: float) -> ScalarField:
    """x(tau) over ``TAU_KSET`` on the branch of x = tau + tan(x) through the seed."""
    return _ImplicitTanField(seed)


# Einstein verification --------------------------------------------------------


def _tau_samples(grid):
    """The distinct tau values of a grid, ascending, as a converted
    one-variable grid."""
    return _Grid.of(sorted({(p[0],) for p in grid}))


def einstein_verdict(chain: KahlerChain, lam: float, grid, ode: ScalarField, fiber: FiberData, fiber_grid,
                     C: float) -> VerificationReport:
    """Einstein residual of the induced metric through the Ricci-form route,
    with the companion ODE/PDE residuals and the closed-form Ricci displays
    as cross-checks. ``ode`` is the family's ``ke_ode_residual``, checked on
    the tau samples of the grid; the fiber equation of ``fiber`` with
    (lam, C) is checked on ``fiber_grid``."""
    A = chain.data
    if A.case != CASE_WARPED:
        raise ValueError("einstein_verdict applies to warped-case data")
    report = VerificationReport(suite="einstein-verdict")
    S = A.structure
    kahler, rho, ric = chain.kahler, chain.rho, chain.ric
    report.add("gamma_reconstruction", chain.gforms.reconstruction_residual(grid), TOL_TIGHT)
    report.add("ricci_form_real", ricci_form_imag_residual(chain.rho_complex, grid), TOL_TIGHT)

    worst = max_abs_on_grid((ric[u][v] - lam * kahler.g[u][v] for u in range(4) for v in range(4)), grid)
    report.add("einstein_residual", worst, TOL_CROSS)

    worst = max_abs_on_grid([rho(K, X), rho(K, Y), rho(T, X), rho(T, Y)], grid)
    report.add("rho_horizontal_vertical", worst, TOL_TIGHT)

    # closed-form displays: rho(k,T) = -(1/w)[(L w)]' and
    # rho(x,y) = L iota_bar / w - (1/(2 w^2)) plane-Laplacian of log|iota_bar|
    w, f = A.w, A.f
    fwp = (f * w).partial(0)
    L = ke_operator(f, w, fwp, A.constants.alpha)
    rho_kT_closed = -_div((L * w).partial(0), w, label="w")
    report.add("rho_kT_closed_form", max_abs_on_grid(rho(K, T) - rho_kT_closed, grid), TOL_CROSS,
               source="reported")
    lap_bar = remap(fiber.lap_log_iota_bar, S.kset)
    rho_xy_closed = L * A.iota_bar * _div(Const(S.kset, 1.0), w, label="w") - 0.5 * _div(
        lap_bar, w * w, label="w^2"
    )
    report.add("rho_xy_closed_form", max_abs_on_grid(rho(X, Y) - rho_xy_closed, grid), TOL_CROSS,
               source="reported")

    # substitution and logarithmic-derivative identities
    report.add(
        "twist_substitution",
        max_abs_on_grid(A.iota - _div(A.iota_bar, w, label="w"), grid),
        1e-10,
    )
    c_gk = kahler.g[K][K]
    ident = _div(c_gk.partial(0), c_gk, label="c") - (
        _div(fwp.partial(0), fwp, label="(fw)'") - _div(w.partial(0), w, label="w")
    )
    report.add("log_derivative_identity", max_abs_on_grid(ident, grid), 1e-10)

    report.add("ke_ode_residual", max_abs_on_grid(ode, _tau_samples(grid)), TOL_TIGHT)
    report.add("ke_pde_residual", max_abs_on_grid(ke_pde_residual(fiber, lam, C), fiber_grid), TOL_TIGHT)
    return report


# completeness -----------------------------------------------------------------


def adaptive_simpson(fn, a, b, fa, fb):
    """Adaptive Simpson quadrature to a relative tolerance of 1e-9, refining
    each interval at most 40 levels deep.

    ``a`` and ``b`` are equal-length arrays of the ends of the intervals,
    and ``fa`` and ``fb`` the integrand's values there. ``fn`` maps an array
    of abscissae to the array of the integrand's values, and is called once
    per level for every interval still refining. Returns the array of the
    integrals over the intervals. The arithmetic and the summation order
    are those of the depth-first recursion (each interval's value is the
    sum of its halves' values), so the result does not depend on how many
    intervals share a call. An interval whose error estimate is not finite
    stops refining: it cannot converge."""
    if not a.size:
        return np.empty(0)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = 1e-9 * (1.0 + np.abs(whole))

    levels = []  # per level: which intervals stop there, and their values
    depth = 0
    while a.size:
        n = a.size
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        f = fn(np.concatenate([lm, rm]))
        flm, frm = f[:n], f[n:]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * eps) | ~np.isfinite(delta) | (depth >= 40)
        levels.append((done, left + right + delta / 15.0))
        split = ~done
        a, fa, b, fb = (_halves(split, a, m), _halves(split, fa, fm),
                        _halves(split, m, b), _halves(split, fm, fb))
        m, fm, whole = _halves(split, lm, rm), _halves(split, flm, frm), _halves(split, left, right)
        eps = np.repeat(eps[split] / 2.0, 2)
        depth += 1

    total = np.empty(0)
    for done, value in reversed(levels):
        value[~done] = total[0::2] + total[1::2]
        total = value
    return total


def _halves(split, lower, upper):
    """Values for the two halves of each interval that refines, interleaved
    (the lower half first)."""
    return np.stack([lower[split], upper[split]], axis=1).ravel()


@dataclass
class CompletenessVerdict:
    """Divergence analysis of s(tau) = integral of sqrt(c/2)."""

    s_lower: float  # signed extent reached toward the lower end
    s_upper: float
    lower_diverged: bool
    upper_diverged: bool
    verdict: str  # "complete" | "inconclusive"

    @property
    def s_range(self) -> Tuple[float, float]:
        return (-self.s_lower, self.s_upper)


def _segments_toward(anchor: float, end: float, count: int):
    """Up to ``count`` consecutive (lo, hi) segments from the anchor toward
    the end: doubling steps toward an infinite end; toward a finite end,
    halving gaps starting from half the distance, never reaching the end
    itself."""
    cursor = anchor
    step = 1.0
    gap = 0.5 * abs(end - anchor)
    for _ in range(count):
        if math.isinf(end):
            nxt = cursor + step if end > 0 else cursor - step
            step *= 2.0
        else:
            gap *= 0.5
            nxt = end - gap if end > anchor else end + gap
        lo, hi = (cursor, nxt) if nxt > cursor else (nxt, cursor)
        if hi - lo <= 0.0:
            return
        yield lo, hi
        cursor = nxt


def _segment_integrals(fn, segments, up: bool, f_inner):
    """Integrals of fn over consecutive segments leading away from a point
    where fn is ``f_inner`` (in the direction ``up``), with fn at the last
    segment's outer end. All outer ends share one fn call and all segments
    one ``adaptive_simpson`` call."""
    lo, hi = np.array(segments).T
    f_outer = fn(hi if up else lo)
    f_in = np.concatenate([f_inner, f_outer[:-1]])
    fa, fb = (f_in, f_outer) if up else (f_outer, f_in)
    return adaptive_simpson(fn, lo, hi, fa, fb), f_outer[-1:]


def _increments_toward(fn, segments, up: bool, f_anchor):
    """The segments' integrals in segment order. All segments are evaluated
    together; the batch reaches points the divergence stop may never get to,
    so when it raises, the segments are replayed one at a time, which
    raises the error that segment order meets first, or none before the
    caller stops."""
    try:
        increments, _ = _segment_integrals(fn, segments, up, f_anchor)
    except (FieldError, ArithmeticError, ValueError):
        pass
    else:
        yield from increments
        return
    f_inner = f_anchor
    for segment in segments:
        increment, f_inner = _segment_integrals(fn, [segment], up, f_inner)
        yield increment[0]


def _integrate_toward(fn, anchor: float, f_anchor, end: float) -> Tuple[float, bool]:
    """Accumulate integral of fn from the anchor, where fn is ``f_anchor``,
    toward an (possibly infinite) end over at most 60 segments; diverged
    when the total passes 1e6 with the last three segment increments
    nondecreasing. The segments of the direction are evaluated in one batch
    per Simpson level, replayed one segment at a time if the batch raises
    (``_increments_toward``)."""
    total = 0.0
    increments = []
    segments = list(_segments_toward(anchor, end, 60))
    if not segments:
        return total, False
    for inc in _increments_toward(fn, segments, end > anchor, f_anchor):
        total += inc
        increments.append(inc)
        if total > 1e6 and len(increments) >= 3 and (
            increments[-1] >= increments[-2] >= increments[-3] > 0.0
        ):
            return total, True
    return total, False


def completeness(fam: WarpedFamily) -> CompletenessVerdict:
    """Completeness analysis of gK = ds^2 + g_s via s = integral sqrt(c/2).

    The verdict is ``complete`` only when the arclength diverges toward both
    ends of the admissible interval (certified by the bound plus a monotone
    trend of the last expansions); anything else is ``inconclusive``."""
    c_field = fam.c_field

    def integrand(t):
        c = values_on_grid(c_field, t[:, None])
        bad = np.flatnonzero(c <= 0.0)
        if bad.size:
            raise DomainError("c = (fw)'/w is nonpositive (%.3e) at tau=%g" % (c[bad[0]], t[bad[0]]))
        return np.sqrt(0.5 * c)

    lo, hi = fam.interval
    if math.isinf(lo) and math.isinf(hi):
        anchor = 0.0
    elif math.isinf(lo):
        anchor = hi - 1.0
    elif math.isinf(hi):
        anchor = lo + 1.0
    else:
        anchor = 0.5 * (lo + hi)

    # precondition scan on a sample of the finite window around the anchor
    scan_lo = anchor - 1.0 if math.isinf(lo) else lo + (anchor - lo) * 1e-6
    scan_hi = anchor + 1.0 if math.isinf(hi) else hi - (hi - anchor) * 1e-6
    integrand(np.linspace(scan_lo, scan_hi, 33))

    f_anchor = integrand(np.array([anchor]))
    s_upper, up_div = _integrate_toward(integrand, anchor, f_anchor, hi)
    s_lower, lo_div = _integrate_toward(integrand, anchor, f_anchor, lo)
    if not math.isinf(lo):
        s_lower = abs(s_lower)
    verdict = "complete" if (up_div and lo_div) else "inconclusive"
    return CompletenessVerdict(
        s_lower=s_lower,
        s_upper=s_upper,
        lower_diverged=lo_div,
        upper_diverged=up_div,
        verdict=verdict,
    )


def quotient_gauss_check(F: FiberData, lam: float, C: float, grid) -> VerificationReport:
    """Equivalence of the fiber equation with constancy of the Gauss
    curvature of the quotient 2-metric scaling like iota_bar gbar|_H.

    The curvature profile K_G = -(1/(2 iota_bar)) Lap log|iota_bar| must be
    constant exactly when a constant fits Lap log|iota_bar| = c iota_bar;
    when the fiber equation holds with (lam, C), the fitted constant matches
    -2 lam C.  A non-finite fit residual or spread fails the equivalence."""
    report = VerificationReport(suite="quotient-gauss")
    lap = F.lap_log_iota_bar
    kg = -0.5 * _div(lap, F.iota_bar, label="iota_bar")

    c_fit, fit_res = fit_constant(lap, F.iota_bar, grid)
    pde_holds = fit_res <= TOL_CROSS
    kg_constant, spread, _ = constancy_on_grid(kg, grid, TOL_CROSS)
    agree = kg_constant == pde_holds and math.isfinite(spread) and math.isfinite(fit_res)

    report.add(
        "gauss_constant_iff_twist_equation",
        0.0 if agree else 1.0,
        0.0,
        note="K_G spread %.3e, fit residual %.3e (c = %.6g)" % (spread, fit_res, c_fit),
    )
    if pde_holds:
        report.add("fitted_constant", abs(c_fit - (-2.0 * lam * C)), TOL_CROSS,
                   note="fit %.6g vs -2 lam C = %.6g" % (c_fit, -2.0 * lam * C),
                   source="derived")
        report.add("gauss_value", abs((-0.5 * c_fit) - lam * C), TOL_CROSS,
                   note="K_G = %.6g vs lam C = %.6g" % (-0.5 * c_fit, lam * C),
                   source="derived")
    return report


# the warped verification suite ------------------------------------------------


def region_checks(report: VerificationReport, f, fw_prime):
    """Region inequalities of the warped reduction, f > 0 and (fw)' > 0,
    from the arrays of the values of f and (fw)' over the tau samples:
    ``warped_suite`` evaluates them on its grid's samples, ``cli.cmd_ke``
    block by block on its curve's."""
    min_f, min_fwp = least_value(f), least_value(fw_prime)
    report.add("region_f_positive", 0.0 if min_f > 0.0 else max(1.0, -min_f), 0.0,
               note="min f = %.6g" % min_f)
    report.add("region_fw_increasing", 0.0 if min_fwp > 0.0 else max(1.0, -min_fwp), 0.0,
               note="min (fw)' = %.6g" % min_fwp)


def _gamma_displays(A: AdmissibleData, c: ScalarField) -> dict:
    """The tau-dependent displays of the complex connection forms in the
    warped case, with c = gK(k,k), as ``GammaForms.closed_form_residual``
    reads them."""
    S = A.structure
    f, w = A.f, A.w
    fp, wp = f.partial(0), w.partial(0)
    cp = c.partial(0)
    halfc = cp / (2.0 * c)
    wow = wp / w
    h = fp / (2.0 * f) + wp / (2.0 * w)
    zero = S.kset.zero
    czero = CScalarField(zero, zero)
    logi = log_abs(A.iota_bar)
    dx_log = S.dd(X, logi)
    dy_log = S.dd(Y, logi)
    mix = (fp * A.iota + f * wp * A.iota_bar / (w * w)) / (2.0 * c)
    return {
        (0, 0): [CScalarField(halfc, halfc + wow), CScalarField(-halfc, halfc + wow), czero, czero],
        (0, 1): [czero, czero, CScalarField(h, h), CScalarField(-h, h)],
        (1, 0): [czero, czero, CScalarField(mix, -mix), CScalarField(-mix, -mix)],
        (1, 1): [
            CScalarField(h - wow, h + A.constants.alpha / w),
            CScalarField(-h + wow, h),
            CScalarField(0.5 * dx_log, -0.5 * dy_log),
            CScalarField(0.5 * dy_log, 0.5 * dx_log),
        ],
    }


def warped_suite(entry, grid):
    """Every check of a warped-case entry (any object with ``entry_id``,
    ``data``, ``grid_box``, ``expected``, ``fiber`` and ``family``) on the
    grid. Returns the report and, unless the structural gates failed (then
    None), the tau samples of the grid and the family's ``ke_ode_residual``,
    built once for the Einstein verdict and the curve table."""
    A = entry.data
    report = VerificationReport(suite="ke:%s" % entry.entry_id,
                                grid_spec=grid_spec_string(A.kset, entry.grid_box))
    fam, fiber = entry.family, entry.fiber
    fiber_grid = _Grid.of(grid_points(fiber.structure.kset, entry.grid_box))
    report.extend(fiber_consistency(fiber, fiber_grid), prefix="fiber.")

    chain = shared_checks(A, grid, report)
    if chain is None:
        return report, None
    kahler, curv_k = chain.kahler, chain.curv

    displays = _gamma_displays(A, kahler.g[K][K])
    report.add("gamma_closed_forms", chain.gforms.closed_form_residual(displays, grid), TOL_TIGHT,
               source="reported")
    ode = ke_ode_residual(fam, A.constants.alpha)
    report.extend(einstein_verdict(chain, fam.lam, grid, ode, fiber, fiber_grid, fam.C), prefix="einstein.")
    tau_grid = _tau_samples(grid)
    region_checks(report, *values_on_grid([fam.f, fam.fw_prime], tau_grid))
    report.extend(quotient_gauss_check(fiber, fam.lam, fam.C, fiber_grid), prefix="fiber.")

    # expectations recorded on the entry
    expected = entry.expected
    if "c_constant" in expected:
        e = expected["c_constant"]
        report.add("expected_c_constant", max_abs_on_grid(fam.c_field - e.value, tau_grid), TOL_TIGHT,
                   source=e.source)
    for key, u, v in (("sectional_kT", K, T), ("sectional_xk", X, K)):
        if key in expected:
            e = expected[key]
            K_uv = sectional_curvature(kahler.structure, curv_k, u, v)
            report.add("expected_" + key, max_abs_on_grid(K_uv - e.value, grid), TOL_FRAME, source=e.source)
    if "sectional_kT" in expected and "sectional_xk" in expected:
        gap = abs(expected["sectional_kT"].value - expected["sectional_xk"].value)
        report.add("sectional_values_differ", 0.0 if gap > 1e-6 else 1.0, 0.0,
                   note="|K(k,T) - K(x,k)| = %.6g" % gap)
    if "ricci_flat" in expected:
        e = expected["ricci_flat"]
        report.add("expected_ricci_flat", curv_k.max_ricci(grid), TOL_CROSS, source=e.source)
    if "flat" in expected:
        report.add("expected_flat", curv_k.max_component(grid), TOL_CROSS, source=expected["flat"].source)
    if "x_at_tau0" in expected:
        e = expected["x_at_tau0"]
        x0 = solve_implicit_w(expected["tau0"].value, e.value)[0]
        report.add("implicit_root_at_tau0", abs(x0 - e.value), 1e-12, source=e.source)
    if "sectional_xy_nonzero" in expected:
        e = expected["sectional_xy_nonzero"]
        K_xy = sectional_curvature(kahler.structure, curv_k, X, Y)
        point = (expected["tau0"].value,) + (0.0,) * (A.kset.size - 1)
        value, w0, wp0 = values_on_grid([K_xy, A.w, A.w.partial(0)], [point])[:, 0].tolist()
        magnitude = abs((2.0 / w0) * (wp0 - 1.0))
        report.add("sectional_xy_magnitude", abs(abs(value) - magnitude), TOL_CROSS, source=e.source,
                   note="K(x,y) = %.6g at tau0" % value)
        report.add("sectional_xy_nonzero", 0.0 if abs(value) > 0.1 else 1.0, 0.0,
                   note="|K(x,y)| = %.6g > 0.1" % abs(value))
    if "complete" in expected:
        e = expected["complete"]
        cv = completeness(fam)
        report.add("completeness_verdict", 0.0 if (cv.verdict == "complete") == e.value else 1.0, 0.0,
                   source=e.source, note="s extends to (%.3g, %.3g)" % cv.s_range)
    return report, (tau_grid, ode)
