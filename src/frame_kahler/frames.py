"""Frame structures and the Koszul connection engine.

A geometry here is presented without coordinates: n frame fields (n = 4 for
the spacetimes, n = 3 for warped-product fibers) with metric values
g(e_a, e_b), bracket expansions [e_a, e_b] = C_ab^c e_c, and a table of
frame derivatives of the independent variables.  Directional derivatives,
the Levi-Civita connection (via the Koszul formula, solved pointwise as an
n-by-n linear system against g), the curvature tensor, Ricci, scalar and
sectional curvatures all follow from this data alone. Every sum of
products over a frame index that builds fields goes through
``fields.contract``, which keeps the summation order and never builds a
term with a constant-zero factor: the tables are mostly structural zeros.
Nothing differentiates the curvature tensor, so ``CurvatureTensor`` sums
arrays instead, in the same order and with the same skips.
The Koszul formula reads each d_a g_bc and each g(e_u, [e_v, e_w]) three
times, and the compatibility, Killing and twist checks read them again:
``FrameStructure`` builds each as one table per structure on first read,
as it builds ``jacobi_residuals`` (``dg``, and the table that
``g_of_bracket`` indexes), and every reader indexes the tables.

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
    _Grid,
    _PointwiseMatrix,
    _Row,
    _constant_zero,
    _contract_arrays,
    _div,
    _factors,
    _listed,
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

    @cached_property
    def dg(self) -> list:
        """dg[a][b][c] = d_{e_a} g_bc, derived once per direction for each
        distinct node of g (g_cb is often the node g_bc, and an induced
        metric's g_kk is its g_TT)."""
        n, g, derived = self.n, self.g, {}  # keyed by node identity: g keeps every node alive
        for a, b, c in itertools.product(range(n), repeat=3):
            if (a, id(g[b][c])) not in derived:
                derived[a, id(g[b][c])] = self.dd(a, g[b][c])
        return [[[derived[a, id(g[b][c])] for c in range(n)] for b in range(n)] for a in range(n)]

    @cached_property
    def _g_of_brackets(self) -> list:
        zero, C, g, n = self.kset.zero, self.C, self.g, self.n
        return [[[contract(zero, ((1, C[v][w][e], g[u][e]) for e in range(n))) for w in range(n)]
                 for v in range(n)] for u in range(n)]

    def dd(self, a: int, field: ScalarField) -> ScalarField:
        """Directional derivative d_{e_a} of a field, via the D table. A
        partial is derived only where the table's entry is not a constant
        zero."""
        zero = self.kset.zero
        if field.is_constant:
            return zero
        return contract(zero, ((1, field.partial(i), d) for i, d in enumerate(self.D[a]) if not _constant_zero(d)))

    def g_of_bracket(self, u: int, v: int, w: int) -> ScalarField:
        """g(e_u, [e_v, e_w]), an entry of a table built once."""
        return self._g_of_brackets[u][v][w]

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
            return contract(S.dg[a][b][c], (t for d in range(S.n) for t in (
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
    def rhs(a, b, c):
        return (S.dg[a][b][c] + S.dg[b][a][c] - S.dg[c][a][b]
                - S.g_of_bracket(a, b, c) - S.g_of_bracket(b, a, c) + S.g_of_bracket(c, a, b)) * 0.5

    n, group = S.n, []
    return ConnectionTable(S, [[LinearFieldSystem(S._g_matrix, [rhs(a, b, c) for c in range(n)], group).components()
                                for b in range(n)] for a in range(n)])


class CurvatureTensor:
    """R(e_a, e_b) e_c = R_abc^d e_d, with Ricci and scalar contractions.

    Convention: R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
    nabla_[X,Y] Z and Ric(X, Y) = trace of Z -> R(Z, X) Y, so the round
    sphere has positive Ricci. The tensor is one array of rows per grid,
    summed from the values of Gamma, its partials, D, C and g; ``ricci``
    and ``lowered`` are its row nodes (``fields._Row``), and R_abc^e is read
    only as arrays. ``scalar`` is the row of a holder of its own, which
    reads Ric and ``invg``, so that a grid where nothing reads s solves no
    inverse-metric column. A row's partial along a variable it reads raises.
    """

    def __init__(self, structure: FrameStructure, gamma, invg):
        S = self.structure = structure
        n = S.n
        self.kset, self.invg, self._gamma, self._cache = S.kset, invg, gamma, {}
        # d_{e_a} Gamma_b reads Gamma_b's partials along each variable i with D[a][i] not a constant zero
        self._partials = {(b, i): [[f.partial(i) for f in row] for row in gamma[b]]
                          for a, b in itertools.permutations(range(n), 2)
                          for i, d in enumerate(S.D[a]) if not _constant_zero(d)}
        read = [*S.D, *(S.C[a][b] for a, b in itertools.combinations(range(n), 2)), *S.g]
        self.mask = _listed([gamma, list(self._partials.values()), read])[1]
        for f in itertools.chain.from_iterable(read):
            f._readers += 1
        self.ricci = [[_Row(self, 2 * n ** 4 + a * n + b) for b in range(n)] for a in range(n)]
        self.scalar = _Row(_ScalarCurvature(self), 0)

    def value_at(self, grid):
        """The rows over a ``_Grid``, computed once per grid: R_abc^e at row
        ((a n + b) n + c) n + e, R_abcd at n^4 plus that row (zero for
        a = b) and Ric_ab at 2 n^4 + a n + b. Each sum is the
        ``fields.contract`` it stands for, over arrays."""
        got = self._cache.get(grid.key)
        if got is not None:
            return got
        S, n = self.structure, self.structure.n
        out = np.zeros((2 * n ** 4 + n * n, grid.n))
        R, L, ric = _blocks(out, n)
        G = np.array(_factors(self._gamma, grid))  # G[a, b, c] = Gamma_ab^c

        def table(rows):  # a partial that is the shared zero (None) reads as a row of +0.0
            rows = _factors(rows, grid)
            if any(v is None for row in rows for v in row):
                zeros = np.zeros(grid.n)
                rows = [[zeros if v is None else v for v in row] for row in rows]
            return np.array(rows)

        dG = {key: table(rows) for key, rows in self._partials.items()}
        D, g = _factors(S.D, grid), _factors(S.g, grid)

        def dd(a, b):  # d_{e_a} Gamma_bc^e over (c, e), as FrameStructure.dd sums it
            return _contract_arrays(None, ((1, dG.get((b, i)), D[a][i]) for i in range(S.kset.size)))

        for a, b in itertools.combinations(range(n), 2):
            C = _factors(S.C[a][b], grid)
            # d_a Gamma_bc^e - d_b Gamma_ac^e + Gamma_bc^d Gamma_ad^e - Gamma_ac^d Gamma_bd^e - C_ab^d Gamma_dc^e
            R[a, b] = _contract_arrays(dd(a, b), itertools.chain([(-1, dd(b, a), 1.0)], (t for d in range(n) for t in (
                (1, G[b, :, d, None], G[a, d]), (-1, G[a, :, d, None], G[b, d]), (-1, C[d], G[d])))))
            R[b, a] = -1.0 * R[a, b]
        for (a, b), d in itertools.product(itertools.permutations(range(n), 2), range(n)):
            L[a, b, :, d] = _contract_arrays(None, ((1, R[a, b, :, e], g[e][d]) for e in range(n)))
        for a in range(n):
            ric[a] = _contract_arrays(None, ((1, R[c, a, :, c], 1.0) for c in range(n) if c != a))
        self._cache[grid.key] = out
        return out

    def _row_partial(self, j, i):
        raise FieldError("curvature rows have no partial derivatives")

    def _arrays(self, grid):  # R, L and Ric on the grid's projection onto the variables the tensor reads
        with np.errstate(all="ignore"):
            return _blocks(self.value_at(_Grid.of(grid).projection(self.mask)[0]), self.structure.n)

    def lowered(self, a, b, c, d) -> ScalarField:
        """R_abcd = g(R(e_a, e_b) e_c, e_d)."""
        n = self.structure.n
        return self.kset.zero if a == b else _Row(self, n ** 4 + ((a * n + b) * n + c) * n + d)

    def max_component(self, grid) -> float:
        R = self._arrays(grid)[0]
        return worst_abs(R[np.triu_indices(len(R), 1)])

    def pair_symmetry_residual(self, grid) -> float:
        """max |R_abcd - R_cdab| over a < b, c < d and the grid."""
        L = self._arrays(grid)[1]
        a, b = np.triu_indices(len(L), 1)
        pairs = L[a, b][:, a, b]  # pairs[p, q] = R_{a_p b_p a_q b_q}
        with np.errstate(all="ignore"):  # inf - inf is NaN, which worst_abs reads as inf
            return worst_abs(pairs - pairs.swapaxes(0, 1))

    def first_bianchi_residual(self, grid) -> float:
        """max |R_abcd + R_bcad + R_cabd| over every (a, b, c, d) and the grid,
        summed over distinct a, b, c: the other sums are exactly 0 when every
        R_abcd is finite, and inf, as this gives, when one is not."""
        L = self._arrays(grid)[1]
        if not np.isfinite(L).all():
            return math.inf
        a, b, c = np.array(list(itertools.permutations(range(len(L)), 3))).T
        with np.errstate(all="ignore"):  # finite values may still sum past the float range
            return worst_abs(L[a, b, c] + L[b, c, a] + L[c, a, b])

    def ricci_symmetry_residual(self, grid) -> float:
        ric = self._arrays(grid)[2]
        a, b = np.triu_indices(len(ric), 1)
        with np.errstate(all="ignore"):
            return worst_abs(ric[a, b] - ric[b, a])

    def max_ricci(self, grid) -> float:
        return worst_abs(self._arrays(grid)[2])


def _blocks(rows, n):
    """The views R and L, each (n, n, n, n, P), and Ric, (n, n, P), of a curvature tensor's rows."""
    R, L = rows[:2 * n ** 4].reshape(2, n, n, n, n, rows.shape[-1])
    return R, L, rows[2 * n ** 4:].reshape(n, n, rows.shape[-1])


class _ScalarCurvature:
    """The one-row holder of s = g^ab Ric_ab over a curvature tensor."""

    def __init__(self, tensor):
        self.kset, self._tensor, self._row_partial = tensor.kset, tensor, tensor._row_partial
        self.mask = tensor.mask | _listed(tensor.invg)[1]
        for f in itertools.chain.from_iterable(tensor.invg):
            f._readers += 1

    def value_at(self, grid):  # read once per grid: its row node keeps the row
        n = self._tensor.structure.n
        ric = _blocks(self._tensor.value_at(grid), n)[2]
        invg = np.array(_factors(self._tensor.invg, grid))
        pairs = itertools.product(range(n), repeat=2)
        return _contract_arrays(None, ((1, invg[a, b], ric[a, b]) for a, b in pairs))[None]


def curvature(S: FrameStructure, conn: ConnectionTable) -> CurvatureTensor:
    """Full curvature tensor of a connection table, with contractions."""
    return CurvatureTensor(S, conn.gamma, inverse_metric(S))


def inverse_metric(S: FrameStructure):
    """Inverse metric components g^{ab} as fields (pointwise solves)."""
    n, zero, group = S.n, S.kset.zero, []
    cols = [LinearFieldSystem(S._g_matrix, [Const(S.kset, 1.0) if i == j else zero for i in range(n)], group)
            .components() for j in range(n)]
    return [list(row) for row in zip(*cols)]


def sectional_curvature(S: FrameStructure, curv: CurvatureTensor, a: int, b: int) -> ScalarField:
    """K(e_a, e_b) = R_abba / (g_aa g_bb - g_ab^2); degenerate planes raise."""
    num = curv.lowered(a, b, b, a)
    den = S.g[a][a] * S.g[b][b] - S.g[a][b] * S.g[a][b]
    return _div(num, den, eps=1e-12, label="sectional-curvature plane (%d,%d)" % (a, b))


def gradient(S: FrameStructure, dF, invg):
    """Frame components of the metric gradient of a field F, from its frame
    derivatives ``dF[b]`` = d_b F: grad F = (g^{ab} d_b F) e_a."""
    n = S.n
    return [contract(S.kset.zero, ((1, invg[a][b], dF[b]) for b in range(n))) for a in range(n)]


def laplacian(S: FrameStructure, conn: ConnectionTable, dF, invg) -> ScalarField:
    """Metric Laplacian of a field F from its frame derivatives ``dF[c]`` =
    d_c F: g^{ab} (d_a d_b F - Gamma_ab^c d_c F)."""
    n = S.n

    def hess(a, b):
        return contract(S.dd(a, dF[b]), ((-1, conn.gamma[a][b][c], dF[c]) for c in range(n)))

    return contract(S.kset.zero, ((1, invg[a][b], hess(a, b)) for a in range(n) for b in range(n)))


def laplacian_orthonormal(S: FrameStructure, conn: ConnectionTable, dF) -> ScalarField:
    """Laplacian of a field F as the frame sum over the normalized frame
    e_a/|e_a|, from its frame derivatives ``dF[c]`` = d_c F.

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
        first = inv_s * S.dd(a, inv_s * dF[a])
        correction = contract(inv_s * S.dd(a, inv_s) * dF[a], (
            (1, _div(conn.gamma[a][a][c], S.g[a][a], label="frame norm"), dF[c]) for c in range(n)))
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
