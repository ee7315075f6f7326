"""Central-metric analysis of induced Kahler metrics.

For admissible structures with commuting k, T, constant a = g(k,T) and
b = g(T,T), parameter function f = e^tau and a twist with horizontal
gradient, the induced metric has Ricci endomorphism vanishing on the
vertical distribution, hence zero central curvature (the determinant of the
Ricci endomorphism).  The conformally rescaled metric e^{-tau} gK has
constant scalar curvature exactly when the twist satisfies the
Liouville-type equation  (d_x d_x + d_y d_y) log|iota| = c iota  for some
constant c; both sides of that equivalence are checked numerically here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import CScalarField, ScalarField, contract, determinant, exp, variable, _div
from .frames import (
    CurvatureTensor,
    constancy_on_grid,
    fit_constant,
    gradient,
    grid_spec_string,
    laplacian,
    laplacian_orthonormal,
    max_abs_on_grid,
    plane_laplacian_log_abs,
    spread_on_grid,
    values_on_grid,
    worst_abs,
)
from .kahler import (
    CASE_CENTRAL,
    AdmissibleData,
    K,
    KahlerChain,
    KahlerMetric,
    T,
    X,
    Y,
    shared_checks,
)
from .reporting import TOL_CROSS, TOL_FRAME, TOL_TIGHT, VerificationReport

__all__ = [
    "CentralReport",
    "central_curvature",
    "ricci_endomorphism_eigenvalues",
    "expected_q",
    "conformal_scalar",
    "conformal_scalar_closed_form",
    "laplacian_self_test",
    "csc_verdict",
    "left_invariance_check",
    "central_suite",
]


def expected_q(constants) -> float:
    """Horizontal Ricci eigenvalue scale for constant twist:
    q = -(a^2 + b^2 - b alpha + a beta) / a^2."""
    a, b = constants.a, constants.b
    return -(a * a + b * b - b * constants.alpha + a * constants.beta) / (a * a)


def central_curvature(A: AdmissibleData, kahler: KahlerMetric, curv_k: CurvatureTensor) -> ScalarField:
    """Determinant of the Ricci endomorphism of gK, as a field."""
    det_ric = determinant(curv_k.ricci)
    det_gk = determinant(kahler.g)
    return _div(det_ric, det_gk, eps=1e-300, label="det gK")


def ricci_endomorphism_eigenvalues(kahler: KahlerMetric, curv_k: CurvatureTensor, grid):
    """Eigenvalues of gK^{-1} Ric at each grid point, one row per point,
    sorted ascending; a row is NaN where gK or Ric has a non-finite value.

    The endomorphism is gK-self-adjoint, so the spectrum is real; tiny
    imaginary parts from the general eigensolver are dropped after a
    sanity bound."""
    values = np.moveaxis(values_on_grid([kahler.g, curv_k.ricci], grid), -1, 0)
    finite = np.isfinite(values).all(axis=(1, 2, 3))
    out = np.full((len(grid), 4), math.nan)
    vals = np.linalg.eigvals(np.linalg.solve(values[finite, 0], values[finite, 1]))
    for i, row in zip(np.flatnonzero(finite), vals):
        if np.max(np.abs(row.imag)) > 1e-8 * (1.0 + np.max(np.abs(row.real))):
            raise ArithmeticError("Ricci endomorphism spectrum unexpectedly complex at %r" % (grid[i],))
        out[i] = np.sort(row.real)
    return out


def conformal_scalar_closed_form(constants) -> float:
    """Scalar curvature of e^{-tau} gK for constant twist:
    -(a^2 + b^2)/(2 a^2) + 2 (b alpha - a beta)/a^2."""
    a, b = constants.a, constants.b
    return -(a * a + b * b) / (2 * a * a) + 2.0 * (b * constants.alpha - a * constants.beta) / (a * a)


def conformal_scalar(chain: KahlerChain) -> dict:
    """Scalar curvature of the conformal metric e^{-tau} gK.

    Computed from the conformal-change formula
        s~ = s_K u^2 + 6 u Lap u - 12 gK(grad u, grad u),   u = e^{tau/2},
    with the Laplacian taken two ways (inverse-metric contraction and the
    normalized-frame sum) as an internal cross-check; the two results are
    returned as ``s_tilde`` and ``s_tilde_alt``.
    """
    A, S, conn_k, curv_k = chain.data, chain.kahler.structure, chain.conn, chain.curv
    tau = variable(A.kset, A.kset.names[0])
    u = exp(tau * 0.5)
    du = [S.dd(a, u) for a in range(4)]
    lap_u = laplacian(S, conn_k, du, curv_k.invg)
    lap_u_frame = laplacian_orthonormal(S, conn_k, du)
    grad_u = gradient(S, du, curv_k.invg)
    grad_sq = contract(S.kset.zero, ((1, grad_u[a], du[a]) for a in range(4)))
    return {
        "s_tilde": curv_k.scalar * u * u + 6.0 * u * lap_u - 12.0 * grad_sq,
        "s_tilde_alt": curv_k.scalar * u * u + 6.0 * u * lap_u_frame - 12.0 * grad_sq,
    }


def laplacian_self_test(chain: KahlerChain, grid) -> VerificationReport:
    """Internal Laplacian checks on the central structure.

    The two Laplacian routes must agree, and Lap_K tau must equal the
    closed-form value e^{-tau} (1 + b^2/a^2)."""
    report = VerificationReport(suite="laplacian-self-test")
    A, S = chain.data, chain.kahler.structure
    tau = variable(A.kset, A.kset.names[0])
    dtau = [S.dd(a, tau) for a in range(4)]
    lap_tau = laplacian(S, chain.conn, dtau, chain.curv.invg)
    lap_tau_frame = laplacian_orthonormal(S, chain.conn, dtau)
    report.add(
        "laplacian_routes_agree",
        max_abs_on_grid(lap_tau - lap_tau_frame, grid),
        TOL_FRAME,
    )
    a, b = A.constants.a, A.constants.b
    closed = exp(-tau) * (1.0 + (b * b) / (a * a))
    report.add(
        "laplacian_tau_closed_form",
        max_abs_on_grid(lap_tau - closed, grid),
        TOL_FRAME,
        source="derived",
    )
    return report


@dataclass
class CentralReport:
    """Outcome of the central analysis on one structure."""

    central_curvature: ScalarField
    central_curvature_max: float
    q: Optional[float]
    s_tilde: ScalarField
    s_tilde_alt: ScalarField
    s_tilde_mean: float
    s_tilde_spread: float
    is_csc: bool
    pde_constant_c: Optional[float]
    pde_residual: float
    verdicts_agree: bool

    def to_dict(self) -> dict:
        return {
            "central_curvature_max": self.central_curvature_max,
            "q": self.q,
            "s_tilde_mean": self.s_tilde_mean,
            "s_tilde_spread": self.s_tilde_spread,
            "is_csc": self.is_csc,
            "pde_constant_c": self.pde_constant_c,
            "pde_residual": self.pde_residual,
            "verdicts_agree": self.verdicts_agree,
        }


def csc_verdict(chain: KahlerChain, grid, lap_h: ScalarField) -> CentralReport:
    """Constant-scalar-curvature verdict for the conformal metric.

    Decides CSC two independent ways: constancy of the computed conformal
    scalar curvature on the grid, and existence of a constant c fitting the
    twist equation  Lap_H log|iota| = c iota  (``lap_h`` is the left side,
    ``plane_laplacian_log_abs`` of the twist; a constant twist fits c = 0);
    the verdicts must agree, and they do not when either route saw a
    non-finite value.
    """
    A = chain.data
    if A.case != CASE_CENTRAL:
        raise ValueError("csc_verdict applies to central-case data")

    det_field = central_curvature(A, chain.kahler, chain.curv)
    cc_max = max_abs_on_grid(det_field, grid)

    parts = conformal_scalar(chain)
    s_constant, spread, mean = constancy_on_grid(parts["s_tilde"], grid, TOL_CROSS)

    c_fit, pde_res = fit_constant(lap_h, A.iota, grid)
    pde_holds = pde_res <= TOL_CROSS

    iota_constant = constancy_on_grid(A.iota, grid, 1e-10)[0]
    q = expected_q(A.constants) if iota_constant else None

    return CentralReport(
        central_curvature=det_field,
        central_curvature_max=cc_max,
        q=q,
        s_tilde=parts["s_tilde"],
        s_tilde_alt=parts["s_tilde_alt"],
        s_tilde_mean=mean,
        s_tilde_spread=spread,
        is_csc=s_constant,
        pde_constant_c=c_fit if pde_holds else None,
        pde_residual=pde_res,
        verdicts_agree=s_constant == pde_holds and math.isfinite(spread) and math.isfinite(pde_res),
    )


def left_invariance_check(A: AdmissibleData, kahler: KahlerMetric, grid):
    """For constant twist: the conformal metric is locally a left-invariant
    metric; checked through constancy of the bracket coefficients, constancy
    of the e^{-tau}-rescaled metric values on the frame, and the Jacobi
    identity of the resulting structure constants."""
    report = VerificationReport(suite="left-invariance")
    S = A.structure
    if not constancy_on_grid(A.iota, grid, 1e-10)[0]:
        report.add("applicable", 0.0, 0.0, note="not applicable: twist is not constant on the grid")
        return report

    worst = max(spread_on_grid(f, grid)[0] for row in S.C for col in row for f in col)
    report.add("brackets_constant", worst, TOL_FRAME)

    tau = variable(A.kset, A.kset.names[0])
    scale = exp(-tau)
    worst = max(spread_on_grid(scale * f, grid)[0] for row in kahler.g for f in row)
    report.add("conformal_metric_constant", worst, TOL_FRAME)

    worst = max_abs_on_grid(S.jacobi_residuals, [grid[len(grid) // 2]])
    report.add("structure_constants_jacobi", worst, TOL_FRAME)
    return report


def _gamma_displays(A: AdmissibleData) -> dict:
    """The constant-coefficient displays of the complex connection forms in
    the commuting (central) case, as ``GammaForms.closed_form_residual``
    reads them."""
    S = A.structure
    a, b = A.constants.a, A.constants.b
    alpha, beta = A.constants.alpha, A.constants.beta
    fp = A.f_prime()
    fpp = fp.partial(0)
    h1 = fpp / (2.0 * fp)  # f''/2f'
    h2 = fp / (2.0 * A.f)  # f'/2f
    zero = S.kset.zero
    czero = CScalarField(zero, zero)
    i_a = A.iota / (2.0 * a * a)
    dxi = S.dd(X, A.iota)
    dyi = S.dd(Y, A.iota)
    inv2i = 1.0 / (2.0 * A.iota)
    return {
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


def central_suite(entry, grid):
    """Every check of a central-case entry (any object with ``entry_id``,
    ``data``, ``grid_box`` and ``expected``) on the grid. Returns the report
    and, unless the structural gates failed (then None), the CSC verdict and
    the curvature tensor that the curve table reads."""
    A = entry.data
    report = VerificationReport(suite="central:%s" % entry.entry_id,
                                grid_spec=grid_spec_string(A.kset, entry.grid_box))
    chain = shared_checks(A, grid, report)
    if chain is None:
        return report, None
    kahler, rho, curv_k = chain.kahler, chain.rho, chain.curv
    a, b = A.constants.a, A.constants.b

    report.add("gamma_closed_forms", chain.gforms.closed_form_residual(_gamma_displays(A), grid), TOL_TIGHT,
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
    report.add("rho_vanishes_on_vertical", max_abs_on_grid(rho(K, T), grid), TOL_TIGHT, source="reported")
    worst = max_abs_on_grid([rho(K, X), rho(K, Y), rho(T, X), rho(T, Y)], grid)
    report.add("rho_vanishes_mixed", worst, TOL_TIGHT, source="reported")

    # rho(x,y) closed form, with -q for a constant twist
    lap_h = plane_laplacian_log_abs(A.structure, A.iota, X, Y)
    rho_xy_expected = A.iota * -expected_q(A.constants) - 0.5 * lap_h
    report.add("rho_xy_closed_form", max_abs_on_grid(rho(X, Y) - rho_xy_expected, grid), TOL_CROSS,
               source="reported")

    # the CSC verdict carries the central curvature and the conformal scalar
    # curvature for the checks below
    verdict = csc_verdict(chain, grid, lap_h)

    # Ricci endomorphism: vertical kernel and central curvature
    worst = max_abs_on_grid([curv_k.ricci[u][v] for u in (K, T) for v in range(4)], grid)
    report.add("ricci_vertical_kernel", worst, TOL_FRAME, source="reported")
    report.add("central_curvature_zero", verdict.central_curvature_max, TOL_FRAME, source="reported")

    note = "s~ spread %.3e; twist-equation residual %.3e" % (verdict.s_tilde_spread, verdict.pde_residual)
    report.add("csc_verdicts_agree", 0.0 if verdict.verdicts_agree else 1.0, 0.0, note=note)
    report.add("central_summary", 0.0, 0.0, note=json.dumps(verdict.to_dict(), sort_keys=True))

    q = verdict.q
    if q is not None:
        qe = q * exp(-variable(A.kset, A.kset.names[0]))
        worst = max_abs_on_grid([curv_k.ricci[u][u] - qe * kahler.g[u][u] for u in (X, Y)], grid)
        report.add("ricci_horizontal_eigenvalue", worst, TOL_CROSS, source="derived", note="q = %.6g" % q)
        report.add("scalar_curvature_2q", max_abs_on_grid(curv_k.scalar - 2.0 * qe, grid), TOL_FRAME,
                   source="reported")

        expected_vals = np.sort([[0.0, 0.0, qv, qv] for qv in (q * math.exp(-p[0]) for p in grid)])
        eig = ricci_endomorphism_eigenvalues(kahler, curv_k, grid)
        report.add("ricci_eigenvalues", worst_abs(eig - expected_vals), TOL_CROSS, source="derived")

        closed = conformal_scalar_closed_form(A.constants)
        report.add("conformal_scalar_routes", max_abs_on_grid(verdict.s_tilde - closed, grid), TOL_CROSS,
                   source="derived", note="closed form %.6g" % closed)
        report.add("conformal_scalar_two_laplacians",
                   max_abs_on_grid(verdict.s_tilde - verdict.s_tilde_alt, grid), TOL_CROSS)

        report.extend(left_invariance_check(A, kahler, grid), prefix="left_invariance.")

    report.extend(laplacian_self_test(chain, grid))

    # expectations recorded on the entry
    expected = entry.expected
    if "twist" in expected:
        e = expected["twist"]
        report.add("expected_twist", max_abs_on_grid(A.iota - e.value, grid), TOL_FRAME, source=e.source)
    if "ric_xx" in expected:
        e = expected["ric_xx"]
        report.add("expected_ric_xx", max_abs_on_grid(curv_k.ricci[X][X] - e.value, grid), TOL_CROSS,
                   source=e.source)
    if "q" in expected and q is not None:
        e = expected["q"]
        report.add("expected_q", abs(q - e.value), TOL_FRAME, source=e.source)
    if "s_tilde" in expected:
        e = expected["s_tilde"]
        report.add("expected_s_tilde", abs(verdict.s_tilde_mean - e.value), TOL_CROSS, source=e.source,
                   note="spread %.3e" % verdict.s_tilde_spread)
    if "csc" in expected:
        e = expected["csc"]
        report.add("expected_csc", 0.0 if verdict.is_csc == e.value else 1.0, 0.0, source=e.source)
    if "ricci_flat" in expected:
        e = expected["ricci_flat"]
        report.add("expected_ricci_flat", curv_k.max_ricci(grid), TOL_FRAME, source=e.source)
    if "flat" in expected:
        report.add("expected_flat", curv_k.max_component(grid), TOL_FRAME, source=expected["flat"].source)
    return report, (verdict, curv_k)
