"""Induced Kahler metrics, complex connection 1-forms and the Ricci form.

Starting data is an admissible frame structure: frames ordered (k, T, x, y)
where k is null, T is a rescaled gradient of the distinguished variable tau,
and (x, y) is an oriented orthonormal frame of the horizontal distribution.
The induced metric

    gK(k,k) = gK(T,T) = -(f' det(g|_V)/ell - f dk^flat(k,T)),
    gK(k,T) = 0,  gK(H,V) = 0,  gK|_H = -f iota g|_H,

is Kahler for the complex structure J with Jk = T, JT = -k, Jx = y,
Jy = -x.  Its Ricci form is computed the Kahler way, from the trace of the
complex connection 1-forms: rho = i (d Gamma_1^1 + d Gamma_2^2), entirely
avoiding the curvature tensor; the tensor route lives in ``frames`` and is
used as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import CScalarField, Const, KSet, ScalarField, contract
from .frames import (
    ConnectionTable,
    CurvatureTensor,
    FrameError,
    FrameStructure,
    consistency_suite,
    curvature,
    directional_derivative,
    koszul_connection,
    max_abs_on_grid,
    min_on_grid,
    shear_fields,
    values_on_grid,
)
from .reporting import TOL_CROSS, TOL_FRAME, TOL_TIGHT, VerificationReport

__all__ = [
    "CASE_CENTRAL",
    "CASE_WARPED",
    "AdmissibleConstants",
    "AdmissibleData",
    "KahlerMetric",
    "KahlerChain",
    "GammaForms",
    "FrameTwoForm",
    "J_IMAGE",
    "check_admissible",
    "build_kahler",
    "build_chain",
    "gamma_forms",
    "exterior_d",
    "exterior_d_two_form",
    "ricci_form",
    "ricci_from_form",
    "kahler_form",
    "shared_checks",
]

CASE_CENTRAL = "central"
CASE_WARPED = "warped"

K, T, X, Y = 0, 1, 2, 3

# J e_a = sign * e_b encoded as (b, sign): Jk = T, JT = -k, Jx = y, Jy = -x.
J_IMAGE = ((T, 1.0), (K, -1.0), (Y, 1.0), (X, -1.0))


@dataclass(frozen=True)
class AdmissibleConstants:
    """Constants of an admissible structure.

    a = g(k,T) and b = g(T,T); alpha, beta are the bracket constants of
    [k,x] = alpha y and [T,x] = beta y (central case; the warped case keeps
    alpha as the fiber bracket constant and beta = 0).  ``ell_gradient`` is
    the factor in T = ell * grad(tau).
    """

    a: float
    b: float
    alpha: float
    beta: float
    ell_gradient: float = 1.0


@dataclass
class AdmissibleData:
    """Frame structure with designated roles plus the metric-building data.

    The frame order is fixed as (k, T, x, y), and tau is k-set variable 0.
    ``f`` is the parameter function (a field of tau only), ``iota`` the
    twist of k. Warped structures also carry the warping function ``w`` and
    the fiber twist.
    """

    structure: FrameStructure
    constants: AdmissibleConstants
    f: ScalarField
    iota: ScalarField
    case: str
    w: Optional[ScalarField] = None
    iota_bar: Optional[ScalarField] = None

    def __post_init__(self):
        if self.case not in (CASE_CENTRAL, CASE_WARPED):
            raise ValueError("case must be %r or %r" % (CASE_CENTRAL, CASE_WARPED))
        if self.structure.n != 4:
            raise FrameError("admissible data needs a 4-frame structure")

    @property
    def kset(self) -> KSet:
        return self.structure.kset

    def f_prime(self) -> ScalarField:
        return self.f.partial(0)

    def vertical_det(self) -> ScalarField:
        """det(g|_V) = g(k,k) g(T,T) - g(k,T)^2."""
        g = self.structure.g
        return g[K][K] * g[T][T] - g[K][T] * g[K][T]

    def dk_flat_kT(self) -> ScalarField:
        """d(k^flat)(k, T) for the 1-form k^flat = g(k, .)."""
        S = self.structure
        return contract(S.dg[K][K][T] - S.dg[T][K][K], ((-1, S.C[K][T][c], S.g[K][c]) for c in range(4)))


@dataclass
class KahlerMetric:
    """The induced metric with its region predicate and frame structure."""

    base: AdmissibleData
    g: list  # 4x4 ScalarField
    structure: FrameStructure
    region_twist_factor: ScalarField  # f * iota, required < 0
    region_vertical_factor: ScalarField  # f' det(g|_V)/ell - f dk^flat(k,T), required < 0

    def region_mask(self, grid):
        """Per grid point, whether both region factors are negative there."""
        factors = values_on_grid([self.region_twist_factor, self.region_vertical_factor], grid)
        return (factors < 0.0).all(axis=0).tolist()


def check_admissible(A: AdmissibleData, conn: ConnectionTable, grid) -> VerificationReport:
    """Admissibility residuals of a role-assigned frame structure whose
    Koszul connection is ``conn``.

    Checks the spacelike/orthonormal horizontal pair, closure of the
    vertical brackets into H, shear-freeness of k and T, the gradient
    condition on T, constancy of g(k,T) and g(k,k) along H, the case
    bracket patterns, the horizontal twist gradient, and nonvanishing of
    the twist.
    """
    S = A.structure
    if conn.structure is not S:
        raise FrameError("check_admissible needs the connection of the admissible structure")
    cs = A.constants
    report = VerificationReport(suite="admissibility")

    # horizontal frame orthonormal (hence g|_H positive definite)
    worst = max_abs_on_grid([S.g[X][X] - 1.0, S.g[Y][Y] - 1.0, S.g[X][Y]], grid)
    report.add("horizontal_orthonormal", worst, TOL_FRAME)

    worst = max_abs_on_grid([S.g[K][X], S.g[K][Y], S.g[T][X], S.g[T][Y]], grid)
    report.add("vertical_horizontal_orthogonal", worst, TOL_FRAME)

    # [k, H] and [T, H] stay horizontal
    worst = max_abs_on_grid((S.C[v][h][c] for v in (K, T) for h in (X, Y) for c in (K, T)), grid)
    report.add("vertical_brackets_preserve_H", worst, TOL_FRAME)

    # shear-freeness of k and T against the orthonormal pair
    worst = max_abs_on_grid((f for v in (K, T) for f in shear_fields(S, v, X, Y)), grid)
    report.add("shear_free", worst, TOL_FRAME)

    # T = ell grad(tau): g(T, e_a) = ell d_a tau
    worst = max_abs_on_grid((S.g[T][a] - cs.ell_gradient * S.D[a][0] for a in range(4)), grid)
    report.add("gradient_condition", worst, TOL_FRAME)

    # constants of the metric on V, constant along H
    fields = [S.g[K][T] - cs.a]
    if A.case == CASE_CENTRAL:
        fields.append(S.g[T][T] - cs.b)
    report.add("vertical_metric_constants", max_abs_on_grid(fields, grid), TOL_FRAME)
    worst = max_abs_on_grid((S.dg[h][K][c] for h in (X, Y) for c in (T, K)), grid)
    report.add("vertical_metric_constant_along_H", worst, TOL_FRAME)

    report.add("k_null", max_abs_on_grid(S.g[K][K], grid), TOL_FRAME)

    if A.case == CASE_CENTRAL:
        # k must have geodesic flow or be Killing (warped k is merely
        # pre-geodesic once the warping is nonconstant, so only here)
        geo = max_abs_on_grid([conn.gamma[K][K][c] for c in range(4)], grid)
        kill = max_abs_on_grid(
            (S.dg[K][u][v] - S.g_of_bracket(v, K, u) - S.g_of_bracket(u, K, v)
             for u in range(4) for v in range(u, 4)),
            grid,
        )
        report.add(
            "k_geodesic_or_killing",
            min(geo, kill),
            TOL_FRAME,
            note="geodesic residual %.2e, Killing residual %.2e" % (geo, kill),
        )
        report.add("k_T_commute", max_abs_on_grid(S.C[K][T], grid), TOL_FRAME)
        worst = max_abs_on_grid(
            [
                S.C[K][X][Y] - cs.alpha, S.C[K][Y][X] + cs.alpha,
                S.C[T][X][Y] - cs.beta, S.C[T][Y][X] + cs.beta,
                S.C[K][X][X], S.C[K][Y][Y], S.C[T][X][X], S.C[T][Y][Y],
                S.C[X][Y][X], S.C[X][Y][Y],
            ],
            grid,
        )
        report.add("bracket_pattern", worst, TOL_FRAME)
    else:
        # lifted warped brackets: [k,T] = -(w'/w)(k+T), [k,x] = (alpha/w) y - (w'/w) x, ...
        if A.w is None:
            raise FrameError("warped admissible data must carry the warping function")
        w = A.w
        wp = w.partial(0)
        rho = wp / w
        aw = Const(S.kset, cs.alpha) / w
        checks = [
            (S.C[K][T][K] + rho), (S.C[K][T][T] + rho),
            (S.C[K][X][Y] - aw), (S.C[K][X][X] + rho),
            (S.C[K][Y][X] + aw), (S.C[K][Y][Y] + rho),
            (S.C[T][X][X] - rho), (S.C[T][Y][Y] - rho),
            (S.C[T][X][Y]), (S.C[T][Y][X]),
        ]
        report.add("bracket_pattern", max_abs_on_grid(checks, grid), TOL_FRAME)
        report.add("warped_metric_values", max_abs_on_grid([S.g[K][T] - 1.0, S.g[T][T] + 1.0], grid), TOL_FRAME)

    # twist matches the structure; the central twist (warped: the fiber
    # twist) has no vertical derivative
    worst = max_abs_on_grid(A.iota - S.g_of_bracket(K, X, Y), grid)
    report.add("twist_matches_brackets", worst, TOL_FRAME)
    invariant_twist = A.iota if A.case == CASE_CENTRAL else A.iota_bar
    worst = max_abs_on_grid([S.dd(K, invariant_twist), S.dd(T, invariant_twist)], grid)
    report.add("twist_vertical_derivative", worst, TOL_FRAME)

    min_twist = min_on_grid(A.iota, grid, key=abs)
    report.add(
        "twist_nonvanishing",
        0.0 if min_twist > TOL_FRAME else TOL_FRAME - min_twist,
        0.0,
        note="min |iota| = %.3e" % min_twist,
    )
    return report


def build_kahler(A: AdmissibleData) -> KahlerMetric:
    """Assemble the induced Kahler metric from its closed-form components."""
    S = A.structure
    zero = S.kset.zero
    fp = A.f_prime()
    vertical = fp * A.vertical_det() * (1.0 / A.constants.ell_gradient) - A.f * A.dk_flat_kT()
    g_vv = -vertical
    g_hh = -(A.f * A.iota)
    gk = [[zero for _ in range(4)] for _ in range(4)]
    gk[K][K] = g_vv
    gk[T][T] = g_vv
    gk[X][X] = g_hh * S.g[X][X]
    gk[Y][Y] = g_hh * S.g[Y][Y]
    gk[X][Y] = gk[Y][X] = g_hh * S.g[X][Y]
    return KahlerMetric(
        base=A,
        g=gk,
        structure=S.with_metric(gk),
        region_twist_factor=A.f * A.iota,
        region_vertical_factor=vertical,
    )


# frame-indexed exterior algebra ----------------------------------------------


class FrameTwoForm:
    """An antisymmetric 2-form through its values on frame pairs a < b; each negation is built once."""

    def __init__(self, n, vals, zero):
        self.n = n
        self.vals = dict(vals)  # (a, b) with a < b -> field
        self.zero = zero
        self._negated = {}

    def __call__(self, a, b):
        if a == b:
            return self.zero
        if a < b:
            return self.vals[(a, b)]
        got = self._negated.get((b, a))
        if got is None:
            got = self._negated[(b, a)] = -self.vals[(b, a)]
        return got


def exterior_d(S: FrameStructure, xi: list) -> FrameTwoForm:
    """d xi on frame pairs, for the 1-form xi given by its frame values
    xi[a]: d xi(u,v) = d_u xi(v) - d_v xi(u) - xi([u,v])."""
    n = S.n
    vals = {}
    for a in range(n):
        for b in range(a + 1, n):
            vals[(a, b)] = contract(directional_derivative(S, a, xi[b]) - directional_derivative(S, b, xi[a]),
                                    ((-1, xi[c], S.C[a][b][c]) for c in range(n)))
    zero = _zero_like(xi[0], S.kset)
    return FrameTwoForm(n, vals, zero)


def exterior_d_two_form(S: FrameStructure, eta: FrameTwoForm) -> dict:
    """d eta on frame triples a < b < c."""
    out = {}
    n = S.n
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                f = (
                    directional_derivative(S, a, eta(b, c))
                    - directional_derivative(S, b, eta(a, c))
                    + directional_derivative(S, c, eta(a, b))
                )
                out[(a, b, c)] = contract(f, (t for e in range(n) for t in (
                    (-1, S.C[a][b][e], eta(e, c)), (1, S.C[a][c][e], eta(e, b)), (-1, S.C[b][c][e], eta(e, a)))))
    return out


def _zero_like(sample, kset):
    zero = kset.zero
    if isinstance(sample, CScalarField):
        return CScalarField(zero, zero)
    return zero


# complex connection forms and the Ricci form ---------------------------------


@dataclass
class GammaForms:
    """Connection 1-forms of the complexified Kahler connection.

    ``form[i][j]`` is Gamma_i^j with nabla w_i = Gamma_i^j (x) w_j for
    w_1 = k - iT, w_2 = x - iy.  ``antiholomorphic`` holds the would-be
    (0,1) components; they vanish when the connection commutes with J, and
    their grid residual is the reconstruction check.
    """

    forms: list  # 2x2 of 1-forms, each the list of its CScalarField frame values
    antiholomorphic: list  # flat list of CScalarField

    def reconstruction_residual(self, grid) -> float:
        return max_abs_on_grid(self.antiholomorphic, grid)

    def closed_form_residual(self, expected, grid) -> float:
        """Largest deviation of Gamma_i^j(e_u) from ``expected[(i, j)][u]``,
        a case's closed-form display of the forms."""
        return max_abs_on_grid(
            (self.forms[i][j][u] - coeffs[u] for (i, j), coeffs in expected.items() for u in range(4)), grid
        )


def gamma_forms(A: AdmissibleData, kahler: KahlerMetric, conn_k: ConnectionTable) -> GammaForms:
    """Read the complex connection 1-forms off a connection of gK."""
    if conn_k.structure is not kahler.structure:
        raise FrameError("gamma_forms needs the connection of the induced Kahler metric")
    gamma = conn_k.gamma
    pair_indices = ((K, T), (X, Y))
    forms = []
    residuals = []
    for p, q in pair_indices:
        coeffs_1 = []
        coeffs_2 = []
        for u in range(4):
            # nabla_u w_{i+1} = (gamma[u][p][c] - i gamma[u][q][c]) e_c
            comp = [CScalarField(gamma[u][p][c], -gamma[u][q][c]) for c in range(4)]
            holo_1 = (comp[K] + comp[T] * 1j) * 0.5
            holo_2 = (comp[X] + comp[Y] * 1j) * 0.5
            anti_1 = (comp[K] - comp[T] * 1j) * 0.5
            anti_2 = (comp[X] - comp[Y] * 1j) * 0.5
            coeffs_1.append(holo_1)
            coeffs_2.append(holo_2)
            residuals.extend([anti_1, anti_2])
        forms.append([coeffs_1, coeffs_2])
    return GammaForms(forms=forms, antiholomorphic=residuals)


def ricci_form(A: AdmissibleData, gforms: GammaForms) -> FrameTwoForm:
    """rho = i (d Gamma_1^1 + d Gamma_2^2), complex-valued on frame pairs.

    The imaginary parts must vanish; callers check them as a residual and
    work with the real parts.
    """
    S = A.structure
    d11 = exterior_d(S, gforms.forms[0][0])
    d22 = exterior_d(S, gforms.forms[1][1])
    return FrameTwoForm(4, {ab: (f + d22.vals[ab]) * 1j for ab, f in d11.vals.items()}, d11.zero)


def ricci_form_real(rho: FrameTwoForm) -> FrameTwoForm:
    return FrameTwoForm(rho.n, {ab: f.re for ab, f in rho.vals.items()}, rho.zero.re)


def ricci_form_imag_residual(rho: FrameTwoForm, grid) -> float:
    return max_abs_on_grid((f.im for f in rho.vals.values()), grid)


def ricci_from_form(rho_real: FrameTwoForm):
    """Ricci values on frame pairs from the form: Ric(u,v) = rho(-Ju, v)."""
    out = [[None] * 4 for _ in range(4)]
    for u in range(4):
        ju, sign = J_IMAGE[u]
        for v in range(4):
            out[u][v] = rho_real(ju, v) * (-sign)
    return out


def kahler_form(kahler: KahlerMetric) -> FrameTwoForm:
    """omega(u, v) = gK(Ju, v) on frame pairs."""
    gk = kahler.g
    vals = {}
    for a in range(4):
        for b in range(a + 1, 4):
            ja, sign = J_IMAGE[a]
            vals[(a, b)] = gk[ja][b] * sign
    return FrameTwoForm(4, vals, kahler.structure.kset.zero)


@dataclass
class KahlerChain:
    """The induced metric of admissible data and every object derived from
    it: Koszul connection, curvature tensor (which keeps the inverse
    metric), complex connection forms, the Ricci form as a complex form and
    as its real part, and the forms-route Ricci values ``ric[u][v]``."""

    data: AdmissibleData
    kahler: KahlerMetric
    conn: ConnectionTable
    curv: CurvatureTensor
    gforms: GammaForms
    rho_complex: FrameTwoForm
    rho: FrameTwoForm
    ric: list


def build_chain(A: AdmissibleData) -> KahlerChain:
    """Build the induced metric and its derived objects, each once."""
    kahler = build_kahler(A)
    conn = koszul_connection(kahler.structure)
    gforms = gamma_forms(A, kahler, conn)
    rho_complex = ricci_form(A, gforms)
    rho = ricci_form_real(rho_complex)
    return KahlerChain(
        data=A,
        kahler=kahler,
        conn=conn,
        curv=curvature(kahler.structure, conn),
        gforms=gforms,
        rho_complex=rho_complex,
        rho=rho,
        ric=ricci_from_form(rho),
    )


def shared_checks(A: AdmissibleData, grid, report: VerificationReport) -> Optional[KahlerChain]:
    """Append the structural gates and the induced-metric checks that both
    cases share; return the Kahler chain for the case checks, or None when
    the gates (or a check already in ``report``) failed: curvature analysis
    of inconsistent frame data would be meaningless."""
    conn_base = koszul_connection(A.structure)
    report.extend(consistency_suite(conn_base, grid))
    report.extend(check_admissible(A, conn_base, grid))
    if not report.passed:
        report.add("structural_gates", 1.0, 0.0, note="frame data inconsistent; curvature analysis skipped")
        return None

    chain = build_chain(A)
    kahler, conn_k, rho, curv_k = chain.kahler, chain.conn, chain.rho, chain.curv
    mask = kahler.region_mask(grid)
    report.add("region_nonempty", 0.0 if all(mask) else 1.0, 0.0,
               note="%d of %d grid points inside the region" % (sum(mask), len(grid)))
    metric = np.moveaxis(values_on_grid(kahler.g, grid), -1, 0)
    finite = np.isfinite(metric).all()
    worst = max(0.0, -min(np.linalg.eigvalsh(metric)[:, 0].tolist())) if finite else math.inf
    report.add("kahler_positive_definite", worst, 0.0)

    report.add("kahler_torsion_free", conn_k.torsion_residual(grid), TOL_FRAME)
    report.add("kahler_metric_compatible", conn_k.compatibility_residual(grid), TOL_FRAME)
    report.add("gamma_reconstruction", chain.gforms.reconstruction_residual(grid), TOL_TIGHT)
    report.add("ricci_form_real", ricci_form_imag_residual(chain.rho_complex, grid), TOL_TIGHT)
    worst = max_abs_on_grid((chain.ric[u][v] - curv_k.ricci[u][v] for u in range(4) for v in range(4)), grid)
    report.add("ricci_forms_vs_tensor", worst, TOL_CROSS)
    report.add("curvature_pair_symmetry", curv_k.pair_symmetry_residual(grid), TOL_CROSS)
    report.add("curvature_first_bianchi", curv_k.first_bianchi_residual(grid), TOL_CROSS)
    report.add("ricci_symmetric", curv_k.ricci_symmetry_residual(grid), TOL_CROSS)

    # d omega = 0 on all frame triples: the testable shadow of Kahlerness
    report.add("d_omega", max_abs_on_grid(exterior_d_two_form(A.structure, kahler_form(kahler)).values(), grid),
               TOL_FRAME)
    report.add("d_rho", max_abs_on_grid(exterior_d_two_form(A.structure, rho).values(), grid), TOL_CROSS)

    def j_defect(u, v):
        ju, su = J_IMAGE[u]
        jv, sv = J_IMAGE[v]
        return rho(ju, jv) * (su * sv) - rho(u, v)

    worst = max_abs_on_grid((j_defect(u, v) for u in range(4) for v in range(4)), grid)
    report.add("rho_J_invariant", worst, TOL_FRAME)
    return chain
