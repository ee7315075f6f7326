"""Frame structures and the Koszul connection engine.

A geometry here is presented without coordinates: n frame fields (n = 4 for
the spacetimes, n = 3 for warped-product fibers) with metric values
g(e_a, e_b), bracket expansions [e_a, e_b] = C_ab^c e_c, and a table of
frame derivatives of the independent variables.  Directional derivatives,
the Levi-Civita connection (via the Koszul formula, solved pointwise as an
n-by-n linear system against g), the curvature tensor, Ricci, scalar and
sectional curvatures all follow from this data alone. Every sum of
products over a frame index goes through ``fields.contract``, which keeps
the summation order and never builds a term with a constant-zero factor:
the tables are mostly structural zeros.

Every check reads field values over a grid through ``values_on_grid``
(defined in ``fields`` and re-exported here; ``ScalarField.at`` evaluates
a one-point grid): the grid becomes columns once per run (the suites'
entry points convert it and pass the converted grid on), and each field node
computes one array over the whole grid. Checks reduce the values with
``worst_abs`` (``max_abs_on_grid`` is ``worst_abs`` of ``values_on_grid``),
``min_on_grid`` or ``spread_on_grid``; a NaN or infinite value at any grid
point fails the check. ``max_abs_on_grid`` and ``min_on_grid`` reduce the
values on the request's projected grid (see ``fields``), which holds the
same set of values as the whole grid, with the same first minimum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    MIN_ABS_DET,
    CScalarField,
    Const,
    FieldError,
    KSet,
    LinearFieldSystem,
    ScalarField,
    _PointwiseMatrix,
    _div,
    _projected_values,
    contract,
    determinant,
    log_abs,
    sqrt,
    values_on_grid,
)
from .reporting import TOL_FRAME, VerificationReport

__all__ = [
    "FrameStructure",
    "ConnectionTable",
    "CurvatureTensor",
    "FrameError",
    "grid_points",
    "grid_spec_string",
    "values_on_grid",
    "worst_abs",
    "max_abs_on_grid",
    "min_on_grid",
    "spread_on_grid",
    "constancy_on_grid",
    "fit_constant",
    "directional_derivative",
    "koszul_connection",
    "curvature",
    "sectional_curvature",
    "inverse_metric",
    "laplacian",
    "gradient",
    "plane_laplacian_log_abs",
    "shear_fields",
    "consistency_suite",
]


class FrameError(FieldError):
    """A frame structure violates a structural precondition."""


def grid_points(kset: KSet, box: dict) -> list:
    """Cartesian evaluation grid from {name: (lo, hi, n)} specifications.

    Variables absent from ``box`` get the single sample 0.0.  An empty
    k-set yields the one empty point, so constant structures still get
    evaluated exactly once.
    """
    axes = []
    for name in kset.names:
        if name in box:
            lo, hi, n = box[name]
            axes.append([float(v) for v in np.linspace(lo, hi, int(n))])
        else:
            axes.append([0.0])
    return [tuple(p) for p in itertools.product(*axes)] if axes else [()]


def grid_spec_string(kset: KSet, box: dict) -> str:
    parts = []
    for name in kset.names:
        if name in box:
            lo, hi, n = box[name]
            parts.append("%s=%g:%g:%d" % (name, lo, hi, n))
        else:
            parts.append("%s=0" % name)
    return ",".join(parts) if parts else "(point)"


def worst_abs(values) -> float:
    """Largest |value| (0.0 for no values), or inf when any value is
    non-finite, so that a check against a finite tolerance fails on it."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        return math.inf
    # hypot, not np.abs: numpy's complex absolute value can differ from
    # Python's abs() in the last bit
    mags = np.hypot(values.real, values.imag) if np.iscomplexobj(values) else np.abs(values)
    return float(mags.max(initial=0.0))


def max_abs_on_grid(fields, grid) -> float:
    """``worst_abs`` of ``values_on_grid``, taken on the projected grid."""
    return worst_abs(_projected_values(fields, grid)[0])


def min_on_grid(field, grid, key=None) -> float:
    """Smallest value of a real field over the grid, after the elementwise
    array function ``key`` (such as ``abs``) when one is given; -inf when a
    value is non-finite, so a check that the minimum is large enough fails."""
    values = _projected_values(field, grid)[0]
    if key is not None:
        values = key(values)
    if not np.isfinite(values).all():
        return -math.inf
    return min(values.tolist())


def spread_on_grid(field, grid):
    """(max - min, mean) of a real field over the grid; (inf, nan) when a
    value is non-finite, so no constancy test can pass on it."""
    values = values_on_grid(field, grid)
    if not np.isfinite(values).all():
        return math.inf, math.nan
    vals = values.tolist()
    return max(vals) - min(vals), sum(vals) / len(vals)


def constancy_on_grid(field, grid, tol: float):
    """(constant, spread, mean) of a real field over the grid; the field
    counts as constant when spread <= tol (1 + |mean|)."""
    spread, mean = spread_on_grid(field, grid)
    return spread <= tol * (1.0 + abs(mean)), spread, mean


def fit_constant(lhs, rhs, grid):
    """Least-squares constant c in lhs = c rhs over the grid.

    Returns (c, max |lhs - c rhs|); c = 0 when rhs vanishes on the grid.
    A non-finite value of either side gives (nan, inf)."""
    values = values_on_grid([lhs, rhs], grid)
    if not np.isfinite(values).all():
        return math.nan, math.inf
    lhs_vals, rhs_vals = values
    denom = float(np.dot(rhs_vals, rhs_vals))
    c = float(np.dot(lhs_vals, rhs_vals) / denom) if denom > 0 else 0.0
    return c, worst_abs(lhs_vals - c * rhs_vals)


class FrameStructure:
    """Metric, bracket and derivative data of an n-frame over a k-set.

    ``g[a][b]`` are the metric values g(e_a, e_b), ``C[a][b][c]`` the
    coefficients in [e_a, e_b] = C_ab^c e_c, and ``D[a][i]`` the directional
    derivatives d_{e_a} u_i of the k-set variables.
    """

    def __init__(self, kset: KSet, frame_names, g, C, D):
        self.kset = kset
        self.frame_names = tuple(frame_names)
        n = len(self.frame_names)
        if len(set(self.frame_names)) != n:
            raise FrameError("duplicate frame names: %r" % (self.frame_names,))
        if n not in (3, 4):
            raise FrameError("frame structures support 3 or 4 frame fields, got %d" % n)
        self.g = [list(row) for row in g]
        self.C = [[list(col) for col in row] for row in C]
        self.D = [list(row) for row in D]
        if len(self.g) != n or any(len(row) != n for row in self.g):
            raise FrameError("metric table must be %d x %d" % (n, n))
        if len(self.C) != n or any(len(row) != n for row in self.C) or any(
            len(col) != n for row in self.C for col in row
        ):
            raise FrameError("bracket table must be %d x %d x %d" % (n, n, n))
        if len(self.D) != n or any(len(row) != kset.size for row in self.D):
            raise FrameError("derivative table must be %d x %d" % (n, kset.size))

    @property
    def n(self) -> int:
        return len(self.frame_names)

    @cached_property
    def _g_matrix(self) -> _PointwiseMatrix:
        """g as the one matrix that every pointwise solve against it reads."""
        return _PointwiseMatrix(self.g)

    @cached_property
    def jacobi_residuals(self) -> list:
        """Jacobi identity for the bracket table, including the derivative
        terms: sum over cyclic (a,b,c) of  C_ab^d C_dc^e - d_c C_ab^e  must
        vanish. Built once, for every check that reads it."""
        C = self.C

        def term(u, v, w, e):
            return contract(-self.dd(w, C[u][v][e]), ((1, C[u][v][d], C[d][w][e]) for d in range(self.n)))

        return [sum((term(u, v, w, e) for u, v, w in ((a, b, c), (b, c, a), (c, a, b))), self.kset.zero)
                for a, b, c in itertools.combinations(range(self.n), 3) for e in range(self.n)]

    def dd(self, a: int, field: ScalarField) -> ScalarField:
        """Directional derivative d_{e_a} of a field, via the D table. A
        partial is derived only where the table's entry is not a constant
        zero."""
        zero = self.kset.zero
        if field.is_constant:
            return zero
        return contract(zero, ((1, field.partial(i), d) for i, d in enumerate(self.D[a])
                               if not (d.is_constant and d.c == 0.0)))

    def g_of_bracket(self, u: int, v: int, w: int) -> ScalarField:
        """g(e_u, [e_v, e_w])."""
        return contract(self.kset.zero, ((1, self.C[v][w][e], self.g[u][e]) for e in range(self.n)))

    def with_metric(self, new_g) -> "FrameStructure":
        """Same frame, brackets and derivatives under a different metric."""
        return FrameStructure(self.kset, self.frame_names, new_g, self.C, self.D)


def directional_derivative(S: FrameStructure, a: int, field):
    """d_{e_a} of a real or complex field over S's k-set."""
    if isinstance(field, CScalarField):
        return CScalarField(S.dd(a, field.re), S.dd(a, field.im))
    return S.dd(a, field)


@dataclass
class ConnectionTable:
    """Frame coefficients of a connection: nabla_{e_a} e_b = Gamma_ab^c e_c."""

    structure: FrameStructure
    gamma: list  # gamma[a][b][c] ScalarField

    def torsion_residual(self, grid) -> float:
        """max |Gamma_ab^c - Gamma_ba^c - C_ab^c| over the grid."""
        S = self.structure
        return max_abs_on_grid(
            (self.gamma[a][b][c] - self.gamma[b][a][c] - S.C[a][b][c]
             for a in range(S.n) for b in range(a + 1, S.n) for c in range(S.n)),
            grid,
        )

    def compatibility_residual(self, grid) -> float:
        """max |d_a g_bc - Gamma_ab^d g_dc - Gamma_ac^d g_bd| over the grid."""
        S = self.structure

        def residual(a, b, c):
            return contract(S.dd(a, S.g[b][c]), (t for d in range(S.n) for t in (
                (-1, self.gamma[a][b][d], S.g[d][c]), (-1, self.gamma[a][c][d], S.g[b][d]))))

        return max_abs_on_grid(
            (residual(a, b, c) for a in range(S.n) for b in range(S.n) for c in range(b, S.n)), grid
        )


def koszul_connection(S: FrameStructure) -> ConnectionTable:
    """Levi-Civita connection coefficients from the Koszul formula.

    For each frame pair (a, b) the coefficients solve the pointwise linear
    system  g_dc Gamma_ab^d = g(nabla_a e_b, e_c), with the right-hand side
    assembled from metric derivatives and bracket terms.
    """
    n = S.n
    gamma = []
    for a in range(n):
        row = []
        for b in range(n):
            rhs = []
            for c in range(n):
                expr = (
                    S.dd(a, S.g[b][c])
                    + S.dd(b, S.g[a][c])
                    - S.dd(c, S.g[a][b])
                    - S.g_of_bracket(a, b, c)
                    - S.g_of_bracket(b, a, c)
                    + S.g_of_bracket(c, a, b)
                ) * 0.5
                rhs.append(expr)
            row.append(LinearFieldSystem(S._g_matrix, rhs).components())
        gamma.append(row)
    return ConnectionTable(S, gamma)


class CurvatureTensor:
    """R(e_a, e_b) e_c = R_abc^d e_d, with Ricci and scalar contractions.

    Convention: R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
    nabla_[X,Y] Z and Ric(X, Y) = trace of Z -> R(Z, X) Y, so the round
    sphere has positive Ricci.
    """

    def __init__(self, structure: FrameStructure, R, ricci, scalar, invg):
        self.structure = structure
        self.R = R
        self.ricci = ricci
        self.scalar = scalar
        self.invg = invg  # inverse metric g^{ab}, used for the scalar contraction
        self._lowered = {}

    def lowered(self, a, b, c, d) -> ScalarField:
        """R_abcd = g(R(e_a, e_b) e_c, e_d)."""
        key = (a, b, c, d)
        f = self._lowered.get(key)
        if f is None:
            S = self.structure
            f = self._lowered[key] = contract(S.kset.zero, ((1, self.R[a][b][c][e], S.g[e][d]) for e in range(S.n)))
        return f

    def max_component(self, grid) -> float:
        n = self.structure.n
        return max_abs_on_grid(
            (self.R[a][b][c][d] for a in range(n) for b in range(a + 1, n)
             for c in range(n) for d in range(n)),
            grid,
        )

    def _lowered_rows(self, grid):
        """R_abcd for every a < b and (c, d), in that order, on the grid's
        projection: the rows that ``_identity_gathers`` indexes."""
        n = self.structure.n
        return _projected_values([self.lowered(a, b, c, d) for a, b in itertools.combinations(range(n), 2)
                                  for c in range(n) for d in range(n)], grid)[0]

    def pair_symmetry_residual(self, grid) -> float:
        """max |R_abcd - R_cdab| over a < b, c < d and the grid."""
        left, right = _identity_gathers(self.structure.n)[2]
        rows = self._lowered_rows(grid)
        with np.errstate(all="ignore"):  # inf - inf is NaN, which worst_abs reads as inf
            return worst_abs(rows[left] - rows[right])

    def first_bianchi_residual(self, grid) -> float:
        """max |R_abcd + R_bcad + R_cabd| over every (a, b, c, d) and the grid.

        Only triples of distinct a, b, c are summed, from the rows with
        a < b and R_bacd = -R_abcd, an exact sign flip. The other triples
        sum to exactly 0 when the rows are finite, and a non-finite row
        makes one of them non-finite: it gives inf, as such a sum would."""
        (r0, r1, r2), (s0, s1, s2), _ = _identity_gathers(self.structure.n)
        rows = self._lowered_rows(grid)
        if not np.isfinite(rows).all():
            return math.inf
        with np.errstate(all="ignore"):  # finite rows may still sum past the float range
            sums = rows[r0] * s0
            sums += rows[r1] * s1
            sums += rows[r2] * s2
        return worst_abs(sums)

    def ricci_symmetry_residual(self, grid) -> float:
        n = self.structure.n
        return max_abs_on_grid(
            (self.ricci[a][b] - self.ricci[b][a] for a in range(n) for b in range(a + 1, n)), grid
        )

    def max_ricci(self, grid) -> float:
        return max_abs_on_grid((f for row in self.ricci for f in row), grid)


@functools.cache
def _identity_gathers(n):
    """Index arrays over ``CurvatureTensor._lowered_rows`` for n frame
    fields: the rows (3, M) and signs (3, M, 1) of R_abcd, R_bcad and R_cabd
    for each ordered triple of distinct (a, b, c) and each d, and the rows
    (2, M') of R_abcd and R_cdab for a < b and c < d."""
    pairs = {ab: p for p, ab in enumerate(itertools.combinations(range(n), 2))}

    def at(a, b, c, d):  # (row, sign) of R_abcd for a != b
        return ((pairs[a, b] * n + c) * n + d, 1.0) if a < b else ((pairs[b, a] * n + c) * n + d, -1.0)

    bianchi = np.array([[at(a, b, c, d), at(b, c, a, d), at(c, a, b, d)]
                        for a, b, c in itertools.permutations(range(n), 3) for d in range(n)]).T
    symmetry = np.array([[at(a, b, c, d)[0], at(c, d, a, b)[0]] for a, b in pairs for c, d in pairs]).T
    return bianchi[0].astype(np.intp), bianchi[1][..., None], symmetry


def curvature(S: FrameStructure, conn: ConnectionTable) -> CurvatureTensor:
    """Full curvature tensor of a connection table, with contractions."""
    n = S.n
    zero = S.kset.zero
    gamma = conn.gamma
    R = [[[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                for e in range(n):
                    f = contract(S.dd(a, gamma[b][c][e]) - S.dd(b, gamma[a][c][e]), (t for d in range(n) for t in (
                        (1, gamma[b][c][d], gamma[a][d][e]),
                        (-1, gamma[a][c][d], gamma[b][d][e]),
                        (-1, S.C[a][b][d], gamma[d][c][e]))))
                    R[a][b][c][e] = f
                    R[b][a][c][e] = -f
    ricci = [[sum((R[c][a][b][c] for c in range(n)), zero) for b in range(n)] for a in range(n)]
    invg = inverse_metric(S)
    scalar = contract(zero, ((1, invg[a][b], ricci[a][b]) for a in range(n) for b in range(n)))
    return CurvatureTensor(S, R, ricci, scalar, invg)


def inverse_metric(S: FrameStructure):
    """Inverse metric components g^{ab} as fields (pointwise solves)."""
    n = S.n
    cols = []
    for j in range(n):
        e_j = [Const(S.kset, 1.0) if i == j else S.kset.zero for i in range(n)]
        cols.append(LinearFieldSystem(S._g_matrix, e_j).components())
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def sectional_curvature(S: FrameStructure, curv: CurvatureTensor, a: int, b: int) -> ScalarField:
    """K(e_a, e_b) = R_abba / (g_aa g_bb - g_ab^2); degenerate planes raise."""
    num = curv.lowered(a, b, b, a)
    den = S.g[a][a] * S.g[b][b] - S.g[a][b] * S.g[a][b]
    return _div(num, den, eps=1e-12, label="sectional-curvature plane (%d,%d)" % (a, b))


def gradient(S: FrameStructure, F: ScalarField, invg):
    """Frame components of the metric gradient of F: grad F = (g^{ab} d_b F) e_a."""
    n = S.n
    return [contract(S.kset.zero, ((1, invg[a][b], S.dd(b, F)) for b in range(n))) for a in range(n)]


def laplacian(S: FrameStructure, conn: ConnectionTable, F: ScalarField, invg) -> ScalarField:
    """Metric Laplacian: g^{ab} (d_a d_b F - Gamma_ab^c d_c F)."""
    n = S.n
    dF = [S.dd(c, F) for c in range(n)]

    def hess(a, b):
        return contract(S.dd(a, dF[b]), ((-1, conn.gamma[a][b][c], dF[c]) for c in range(n)))

    return contract(S.kset.zero, ((1, invg[a][b], hess(a, b)) for a in range(n) for b in range(n)))


def laplacian_orthonormal(S: FrameStructure, conn: ConnectionTable, F: ScalarField) -> ScalarField:
    """Laplacian as the frame sum over the normalized frame e_a/|e_a|.

    Requires a g-orthogonal frame with positive norms (the induced Kahler
    case).  With s_a = sqrt(g_aa):
      d_e d_e F      = (1/s) d_a((1/s) d_a F)
      dF(nabla_e e)  = (1/s) d_a(1/s) d_a F + (1/s^2) Gamma_aa^c d_c F
    """
    n = S.n
    out = S.kset.zero
    for a in range(n):
        s = sqrt(S.g[a][a])
        inv_s = _div(Const(S.kset, 1.0), s, label="frame norm")
        first = inv_s * S.dd(a, inv_s * S.dd(a, F))
        correction = contract(inv_s * S.dd(a, inv_s) * S.dd(a, F), (
            (1, _div(conn.gamma[a][a][c], S.g[a][a], label="frame norm"), S.dd(c, F)) for c in range(n)))
        out = out + first - correction
    return out


def plane_laplacian_log_abs(S: FrameStructure, iota: ScalarField, x: int, y: int) -> ScalarField:
    """(d_x d_x + d_y d_y) log|iota| through the frame directions e_x, e_y."""
    L = log_abs(iota)
    return S.dd(x, S.dd(x, L)) + S.dd(y, S.dd(y, L))


def shear_fields(S: FrameStructure, v: int, x: int, y: int):
    """The two components of the shear of e_v against the orthonormal pair
    (e_x, e_y); both vanish exactly when e_v is shear-free."""
    off = S.g_of_bracket(y, v, x) + S.g_of_bracket(x, v, y)
    diag = S.g_of_bracket(x, v, x) - S.g_of_bracket(y, v, y)
    return off, diag


def frame_derivative_consistency_fields(S: FrameStructure):
    """d_a d_b u_i - d_b d_a u_i - d_[a,b] u_i for all pairs and variables."""
    n = S.n
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            for i in range(S.kset.size):
                out.append(contract(S.dd(a, S.D[b][i]) - S.dd(b, S.D[a][i]),
                                    ((-1, S.C[a][b][c], S.D[c][i]) for c in range(n))))
    return out


def consistency_suite(conn: ConnectionTable, grid):
    """Structural invariants of a frame structure, as a verification report:
    metric symmetry, bracket antisymmetry, nondegeneracy, Jacobi identity,
    derivative-table consistency, and torsion-freeness plus metric
    compatibility of its Koszul connection ``conn``."""
    report = VerificationReport(suite="frame-consistency")
    S = conn.structure
    n = S.n

    worst = max_abs_on_grid((S.g[a][b] - S.g[b][a] for a in range(n) for b in range(a + 1, n)), grid)
    report.add("metric_symmetric", worst, TOL_FRAME)

    worst = max_abs_on_grid(
        (S.C[a][b][c] + S.C[b][a][c] for a in range(n) for b in range(a, n) for c in range(n)), grid
    )
    report.add("bracket_antisymmetric", worst, TOL_FRAME)

    det_field = determinant(S.g)
    min_det = min_on_grid(det_field, grid, key=abs)
    report.add(
        "metric_nondegenerate",
        0.0 if min_det > MIN_ABS_DET else MIN_ABS_DET - min_det,
        0.0,
        note="min |det g| = %.3e" % min_det,
    )

    report.add("jacobi_identity", max_abs_on_grid(S.jacobi_residuals, grid), TOL_FRAME)
    worst = max_abs_on_grid(frame_derivative_consistency_fields(S), grid)
    report.add("frame_derivative_consistency", worst, TOL_FRAME)
    report.add("torsion_free", conn.torsion_residual(grid), TOL_FRAME)
    report.add("metric_compatible", conn.compatibility_residual(grid), TOL_FRAME)
    return report
