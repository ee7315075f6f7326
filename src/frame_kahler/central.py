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

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField, determinant, exp, log_abs, variable, _div
from .frames import (
    CurvatureTensor,
    constancy_on_grid,
    fit_constant,
    gradient,
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
    KahlerChain,
    KahlerMetric,
    X,
    Y,
)
from .reporting import TOL_CROSS, TOL_FRAME, VerificationReport

__all__ = [
    "CentralReport",
    "central_curvature",
    "ricci_endomorphism_eigenvalues",
    "expected_q",
    "conformal_scalar",
    "conformal_scalar_closed_form",
    "laplacian_self_test",
    "liouville_residual",
    "liouville_fit",
    "csc_verdict",
    "left_invariance_check",
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
    tau = variable(A.kset, A.kset.names[A.tau_index])
    u = exp(tau * 0.5)
    lap_u = laplacian(S, conn_k, u, curv_k.invg)
    lap_u_frame = laplacian_orthonormal(S, conn_k, u)
    grad_u = gradient(S, u, curv_k.invg)
    grad_sq = S.zero()
    for a in range(4):
        grad_sq = grad_sq + grad_u[a] * S.dd(a, u)
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
    tau = variable(A.kset, A.kset.names[A.tau_index])
    lap_tau = laplacian(S, chain.conn, tau, chain.curv.invg)
    lap_tau_frame = laplacian_orthonormal(S, chain.conn, tau)
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


def liouville_residual(iota: ScalarField, c: float) -> ScalarField:
    """(d_x d_x + d_y d_y) log|iota| - c iota, with the two directions acting
    as plane partials of the first two variables."""
    L = log_abs(iota)
    lap = L.partial(0).partial(0) + L.partial(1).partial(1)
    return lap - iota * float(c)


def liouville_fit(A: AdmissibleData, grid):
    """Least-squares constant c for  Lap_H log|iota| = c iota  on the grid.

    Returns (c, max residual).  A constant twist fits c = 0 exactly."""
    return fit_constant(plane_laplacian_log_abs(A.structure, A.iota, X, Y), A.iota, grid)


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


def csc_verdict(chain: KahlerChain, grid) -> CentralReport:
    """Constant-scalar-curvature verdict for the conformal metric.

    Decides CSC two independent ways: constancy of the computed conformal
    scalar curvature on the grid, and existence of a constant c fitting the
    twist equation; the verdicts must agree, and they do not when either
    route saw a non-finite value.
    """
    A = chain.data
    if A.case != CASE_CENTRAL:
        raise ValueError("csc_verdict applies to central-case data")

    det_field = central_curvature(A, chain.kahler, chain.curv)
    cc_max = max_abs_on_grid(det_field, grid)

    parts = conformal_scalar(chain)
    s_constant, spread, mean = constancy_on_grid(parts["s_tilde"], grid, TOL_CROSS)

    c_fit, pde_res = liouville_fit(A, grid)
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
    identity of the resulting structure constants.

    Returns (report, structure_constant_table); the table is None when the
    twist is not constant (the check does not apply)."""
    report = VerificationReport(suite="left-invariance")
    S = A.structure
    if not constancy_on_grid(A.iota, grid, 1e-10)[0]:
        report.add("applicable", 0.0, 0.0, note="not applicable: twist is not constant on the grid")
        return report, None

    worst = max(spread_on_grid(f, grid)[0] for row in S.C for col in row for f in col)
    report.add("brackets_constant", worst, TOL_FRAME)

    tau = variable(A.kset, A.kset.names[A.tau_index])
    scale = exp(-tau)
    worst = max(spread_on_grid(scale * f, grid)[0] for row in kahler.g for f in row)
    report.add("conformal_metric_constant", worst, TOL_FRAME)

    cvals = values_on_grid(S.C, [grid[len(grid) // 2]])[..., 0].tolist()
    table = {(S.frame_names[a], S.frame_names[b]): cvals[a][b] for a in range(4) for b in range(a + 1, 4)}

    def jacobi(a, b, c, e):
        total = 0.0
        for d in range(4):
            total += (
                cvals[a][b][d] * cvals[d][c][e]
                + cvals[b][c][d] * cvals[d][a][e]
                + cvals[c][a][d] * cvals[d][b][e]
            )
        return total

    worst = worst_abs([jacobi(a, b, c, e) for a, b, c, e in itertools.product(range(4), repeat=4)])
    report.add("structure_constants_jacobi", worst, TOL_FRAME)
    return report, table
