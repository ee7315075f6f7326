"""Frame engine: Koszul connection, curvature, twist, consistency checks."""

import itertools
import math
import types
import warnings

import numpy as np
import pytest

from frame_kahler.fields import (
    Const,
    FieldError,
    KSet,
    LinearFieldSystem,
    _folded,
    _Grid,
    constant,
    contract,
    make_closed_form,
    variable,
)
from frame_kahler.frames import (
    CurvatureTensor,
    FrameStructure,
    consistency_suite,
    constancy_on_grid,
    curvature,
    directional_derivative,
    fit_constant,
    grid_points,
    koszul_connection,
    max_abs_on_grid,
    min_on_grid,
    sectional_curvature,
    spread_on_grid,
    values_on_grid,
    worst_abs,
)
from frame_kahler.kahler import build_chain
from frame_kahler.reporting import VerificationReport

from frame_kahler import catalog
from frame_kahler import frames as frames_mod


def flat_frame(n=4):
    """Constant metric, abelian brackets, empty derivative table."""
    ks = KSet(())
    zero = Const(ks, 0.0)
    one = Const(ks, 1.0)
    g = [[one if i == j else zero for j in range(n)] for i in range(n)]
    C = [[[zero] * n for _ in range(n)] for _ in range(n)]
    D = [[] for _ in range(n)]
    names = ("k", "T", "x", "y")[:n]
    return FrameStructure(ks, names, g, C, D)


class TestGrid:
    def test_grid_points(self):
        ks = KSet(("a", "b"))
        pts = grid_points(ks, {"a": (0.0, 1.0, 3), "b": (0.0, 1.0, 2)})
        assert len(pts) == 6
        assert pts[0] == (0.0, 0.0)

    def test_empty_kset_single_point(self):
        assert grid_points(KSet(()), {}) == [()]

    def test_missing_variable_defaults_to_zero(self):
        pts = grid_points(KSet(("a", "b")), {"a": (1.0, 2.0, 2)})
        assert pts == [(1.0, 0.0), (2.0, 0.0)]

    def test_non_finite_value_fails_every_reduction(self):
        # x * nan is NaN at every point; no residual may read as small
        ks = KSet(("x",))
        grid = grid_points(ks, {"x": (0.0, 1.0, 3)})
        bad = variable(ks, "x") * math.nan
        assert max_abs_on_grid(bad, grid) == math.inf
        assert max(0.0, max_abs_on_grid([Const(ks, 0.0), bad], grid)) == math.inf
        assert spread_on_grid(bad, grid)[0] == math.inf
        assert not constancy_on_grid(bad, grid, 1e-8)[0]
        assert min_on_grid(bad, grid) == -math.inf
        assert min_on_grid(bad, grid, key=abs) == -math.inf
        c, residual = fit_constant(bad, Const(ks, 1.0), grid)
        assert math.isnan(c) and residual == math.inf
        assert fit_constant(Const(ks, 1.0), bad, grid)[1] == math.inf
        assert worst_abs([1.0, math.nan, 2.0]) == math.inf
        assert worst_abs([1.0, complex(0.0, math.inf)]) == math.inf
        assert worst_abs([-3.0, 2.0]) == 3.0
        assert worst_abs([]) == 0.0
        report = VerificationReport(suite="nan")
        report.add("residual", max_abs_on_grid(bad, grid), 1e-8)
        assert not report.passed


class TestProjectedReductions:
    """``max_abs_on_grid`` and ``min_on_grid`` reduce a request's values on
    the grid projected onto the variables it reads; the whole grid repeats
    those values, so the reductions give the bits of reducing the expanded
    ``values_on_grid`` output."""

    KS = KSet(("x", "y"))
    VALUES = [
        [0.0, -0.0, 2.0, 0.0],
        [-0.0, 0.0, 2.0, -3.5],
        [-0.0, 0.5, 0.0],
        [1.0, math.inf, -2.0],
        [-0.0, -math.inf, 1.0],
        [0.25, math.nan, -0.0, math.inf],
    ]

    @staticmethod
    def expanded_min(field, grid, key=None):
        """``min_on_grid`` on the expanded values."""
        values = values_on_grid(field, grid)
        if key is not None:
            values = key(values)
        return -math.inf if not np.isfinite(values).all() else min(values.tolist())

    @pytest.mark.parametrize("xs", VALUES)
    def test_reductions_equal_the_expanded_reductions(self, xs):
        grid = [(x, y) for y in (0.5, -0.5, 0.75) for x in xs]
        x, y = variable(self.KS, "x"), variable(self.KS, "y")
        requests = [x, x * -1.0, [x, 3.0 * x], [x, Const(self.KS, -0.0)]]
        projected, inverse = _Grid.of(grid).projection(x._mask)  # each request reads x alone
        assert inverse is not None and len(projected) == len({v.hex() for v in xs}) < len(grid)
        for request in requests:
            expanded = values_on_grid(request, grid)
            assert expanded.shape[-1] == len(grid)
            assert max_abs_on_grid(request, grid).hex() == worst_abs(expanded).hex()
        for field in requests[:2]:
            for key in (None, abs, np.negative):
                assert min_on_grid(field, grid, key=key).hex() == self.expanded_min(field, grid, key).hex()
        # a field that reads every variable is reduced on the whole grid
        assert max_abs_on_grid(x * y, grid).hex() == worst_abs(values_on_grid(x * y, grid)).hex()

    def test_min_keeps_the_first_zero(self):
        # min() returns the first of equal values: 0.0 before -0.0 and the reverse
        x = variable(self.KS, "x")
        for xs, want in (([0.0, -0.0, 1.0], "0x0.0p+0"), ([-0.0, 0.0, 1.0], "-0x0.0p+0")):
            grid = [(v, y) for y in (1.0, 2.0) for v in xs]
            assert min_on_grid(x, grid).hex() == want


class TestWholeGridEvaluation:
    @pytest.mark.parametrize("eid", catalog.catalog_ids())
    def test_grid_values_equal_point_values(self, built, eid):
        # whole-grid values do not depend on which points share the grid:
        # each equals a one-point evaluation, bit for bit
        be = built(eid)
        fields = ([f for row in be.kahler.g for f in row]
                  + [f for row in be.conn_k.gamma for col in row for f in col]
                  + [be.curv_k.scalar]
                  + [be.rho(u, v) for u in range(4) for v in range(u + 1, 4)])
        on_grid = values_on_grid(fields, be.grid)
        at_points = np.array([[f.at(p) for p in be.grid] for f in fields])
        assert on_grid.shape == (len(fields), len(be.grid))
        assert on_grid.tobytes() == at_points.tobytes()


class TestDirectionalDerivative:
    def test_warped_d_k_tau_is_one(self, entries):
        data = entries["warped_complete"].data
        S = data.structure
        tau = variable(S.kset, "tau")
        f = directional_derivative(S, 0, tau)
        assert f.at((0.3,)) == pytest.approx(1.0)
        assert directional_derivative(S, 1, tau).at((0.3,)) == pytest.approx(-1.0)

    def test_constant_gives_zero(self):
        S = flat_frame()
        f = directional_derivative(S, 0, Const(S.kset, 5.0))
        assert f.is_constant and f.at(()) == 0.0

    def test_central_twist_killed_by_k(self, entries):
        data = catalog.load("ppwave", iota="-sech(x + 2*y)^2").data
        S = data.structure
        dk_iota = directional_derivative(S, 0, data.iota)
        grid = grid_points(S.kset, {"x": (-0.5, 0.5, 3), "y": (-0.5, 0.5, 3)})
        assert max_abs_on_grid(dk_iota, grid) == 0.0


class TestKoszul:
    def test_flat_frame_connection_vanishes(self):
        S = flat_frame()
        conn = koszul_connection(S)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    assert conn.gamma[a][b][c].at(()) == 0.0

    def test_central_vertical_derivatives(self, built):
        # nabla_k k = (f''/2f')(a k - b T) with f = e^tau reduces to
        # (1/2)(a k - b T); checked on the round-sphere-product metric
        be = built("s3xr")
        conn = be.conn_k
        a, b = be.data.constants.a, be.data.constants.b
        pt = (0.2,)
        assert conn.gamma[0][0][0].at(pt) == pytest.approx(0.5 * a, abs=1e-12)
        assert conn.gamma[0][0][1].at(pt) == pytest.approx(-0.5 * b, abs=1e-12)
        # nabla_T T = -nabla_k k
        assert conn.gamma[1][1][0].at(pt) == pytest.approx(-0.5 * a, abs=1e-12)
        assert conn.gamma[1][1][1].at(pt) == pytest.approx(0.5 * b, abs=1e-12)

    def test_warped_horizontal_derivative(self, built):
        # nabla_x k = (f'/2f + w'/2w)(x + y) on the induced metric
        be = built("warped_alphaneg")
        A = be.data
        pt = (0.8,)
        f, w = A.f, A.w
        expected = 0.5 * (f.partial(0).at(pt) / f.at(pt) + w.partial(0).at(pt) / w.at(pt))
        assert be.conn_k.gamma[2][0][2].at(pt) == pytest.approx(expected, abs=1e-10)
        assert be.conn_k.gamma[2][0][3].at(pt) == pytest.approx(expected, abs=1e-10)
        assert be.conn_k.gamma[2][0][0].at(pt) == pytest.approx(0.0, abs=1e-10)

    def test_relabeling_invariance(self, entries):
        # permuting the frame order with consistently permuted g, C, D
        # permutes the connection coefficients and changes nothing else
        data = entries["warped_alphaneg"].data
        S = data.structure
        perm = (2, 3, 0, 1)  # (x, y, k, T)
        inv = [perm.index(i) for i in range(4)]
        g2 = [[S.g[perm[a]][perm[b]] for b in range(4)] for a in range(4)]
        C2 = [
            [[S.C[perm[a]][perm[b]][perm[c]] for c in range(4)] for b in range(4)]
            for a in range(4)
        ]
        D2 = [S.D[perm[a]] for a in range(4)]
        names2 = tuple(S.frame_names[perm[a]] for a in range(4))
        S2 = FrameStructure(S.kset, names2, g2, C2, D2)
        conn = koszul_connection(S)
        conn2 = koszul_connection(S2)
        grid = grid_points(S.kset, {"tau": (0.2, 1.4, 5)})
        worst = 0.0
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    diff = conn2.gamma[a][b][c] - conn.gamma[perm[a]][perm[b]][perm[c]]
                    worst = max(worst, max_abs_on_grid(diff, grid))
        assert worst <= 1e-12


def _reachable(fields):
    """The ids of every node that ``fields`` read through their operands."""
    seen, todo = set(), list(fields)
    while todo:
        f = todo.pop()
        if id(f) not in seen:
            seen.add(id(f))
            todo.extend(getattr(f, name) for name in ("f", "g") if hasattr(f, name))
    return seen


class TestBuiltOnce:
    """Each d_a g_bc and each g(e_u, [e_v, e_w]) is an entry of a table built
    once per structure, each negative pair of a 2-form is built once, and a
    -1.0 fold is the k-set's shared -1.0."""

    KS = KSet(("x",))

    def test_koszul_and_compatibility_read_one_dg(self, monkeypatch):
        # a 3-frame whose metric entries g_01 and g_10 are one node
        x, zero, one = variable(self.KS, "x"), self.KS.zero, Const(self.KS, 1.0)
        g = [[one + x * x, x, zero], [x, Const(self.KS, 2.0), zero], [zero, zero, one]]
        C = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
        C[0][1][2], C[1][0][2] = x, -x
        S = FrameStructure(self.KS, ("a", "b", "c"), g, C, [[one], [zero], [x]])
        dg, triples = S.dg, list(itertools.product(range(3), repeat=3))
        assert all(dg[a][b][c] is dg[a][c][b] for a, b, c in triples if g[b][c] is g[c][b])
        assert dg[2][0][1] is dg[2][1][0] and not dg[2][0][1].is_constant
        assert S.g_of_bracket(2, 0, 1) is S.g_of_bracket(2, 0, 1)

        # once the table is built, no reader derives a metric entry again
        monkeypatch.setattr(FrameStructure, "dd", lambda *args: pytest.fail("a reader derived d_a g_bc again"))
        systems, accs = [], []
        monkeypatch.setattr(frames_mod, "LinearFieldSystem",
                            lambda matrix, rhs, group: systems.append(rhs) or LinearFieldSystem(matrix, rhs, group))
        conn = koszul_connection(S)
        monkeypatch.setattr(frames_mod, "contract", lambda acc, terms: accs.append(acc) or contract(acc, terms))
        assert conn.compatibility_residual(grid_points(self.KS, {"x": (-1.0, 1.0, 5)})) <= 1e-12
        read = _reachable(f for rhs in systems for f in rhs)
        assert all(id(dg[a][b][c]) in read for a, b, c in triples if not dg[a][b][c].is_constant)
        want = [dg[a][b][c] for a, b, c in triples if c >= b]
        assert len(accs) == len(want) and all(got is f for got, f in zip(accs, want))

    def test_negative_pairs(self, built):
        be = built("ppwave")
        for rho in (be.chain.rho, be.chain.rho_complex):
            assert rho(1, 0) is rho(1, 0) and rho(3, 2) is rho(3, 2) and rho(1, 0) is not rho(0, 1)
        rho = be.chain.rho
        assert values_on_grid(rho(1, 0), be.grid).tobytes() == values_on_grid(-1.0 * rho(0, 1), be.grid).tobytes()

    def test_minus_one_fold(self):
        K, x = self.KS, variable(self.KS, "x")
        assert _folded(K, -1.0) is K.minus_one and constant(K, -1.0) is K.minus_one
        assert make_closed_form("-1", K) is K.minus_one
        assert (-(2.0 * x) * 0.5).f is K.minus_one  # a merged constant factor


class TestCurvature:
    def test_flat_frame_curvature_vanishes(self):
        S = flat_frame()
        curv = curvature(S, koszul_connection(S))
        assert curv.max_component([()]) == 0.0
        assert curv.max_ricci([()]) == 0.0

    def test_s3xr_induced_metric_flat(self, built):
        be = built("s3xr")
        assert be.curv_k.max_component(be.grid) <= 1e-8

    def test_complete_example_sectional_kT(self, built):
        be = built("warped_complete")
        K = sectional_curvature(be.kahler.structure, be.curv_k, 0, 1)
        assert max_abs_on_grid(K - (-2.0), be.grid) <= 1e-8

    def test_tensor_invariants_on_catalog(self, built):
        for eid in ("planewave", "warped_alpha0"):
            be = built(eid)
            assert be.curv_k.pair_symmetry_residual(be.grid) <= 1e-7
            assert be.curv_k.first_bianchi_residual(be.grid) <= 1e-7
            assert be.curv_k.ricci_symmetry_residual(be.grid) <= 1e-7


def reference_curvature(S, conn, invg):
    """The curvature tensor as a field DAG built through ``contract``, the
    route that ``frames.curvature`` took before it computed arrays: R (with
    R[a][a] the k-set's zero), Ric, s and the lowered R_abcd, as fields."""
    n, zero, gamma = S.n, S.kset.zero, conn.gamma
    R = [[[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        for c in range(n):
            for e in range(n):
                f = contract(S.dd(a, gamma[b][c][e]) - S.dd(b, gamma[a][c][e]), (t for d in range(n) for t in (
                    (1, gamma[b][c][d], gamma[a][d][e]),
                    (-1, gamma[a][c][d], gamma[b][d][e]),
                    (-1, S.C[a][b][d], gamma[d][c][e]))))
                R[a][b][c][e] = f
                R[b][a][c][e] = -f
    ricci = [[sum((R[c][a][b][c] for c in range(n)), zero) for b in range(n)] for a in range(n)]
    scalar = contract(zero, ((1, invg[a][b], ricci[a][b]) for a in range(n) for b in range(n)))
    lowered = [[[[contract(zero, ((1, R[a][b][c][e], S.g[e][d]) for e in range(n))) for d in range(n)]
                 for c in range(n)] for b in range(n)] for a in range(n)]
    return R, ricci, scalar, lowered


def reference_residuals(L):
    """The first Bianchi and pair-symmetry residuals of lowered values
    L[a, b, c, d] (each an array over the grid), summed over all 256 index
    combinations and all pairs a < b, c < d."""
    n = len(L)
    pairs = list(itertools.combinations(range(n), 2))
    with np.errstate(all="ignore"):
        bianchi = [L[a, b, c, d] + L[b, c, a, d] + L[c, a, b, d] for a, b, c, d in itertools.product(range(n), repeat=4)]
        symmetry = [L[a, b, c, d] - L[c, d, a, b] for a, b in pairs for c, d in pairs]
    return worst_abs(np.array(bianchi)).hex(), worst_abs(np.array(symmetry)).hex()


def checked_residuals(curv, grid):
    """The first Bianchi and pair-symmetry residuals as ``CurvatureTensor``
    computes them; a RuntimeWarning (inf - inf, an overflowing sum) is an
    error. ``curv`` is a tensor, or a stand-in whose ``_arrays`` gives
    hand-made arrays."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return (CurvatureTensor.first_bianchi_residual(curv, grid).hex(),
                CurvatureTensor.pair_symmetry_residual(curv, grid).hex())


def assert_reference_bits(curv, conn, grid):
    """Every R_abc^e value of ``curv``'s arrays and every R_abcd, Ric and s
    row has the bits of the reference DAG, and the identity residuals equal
    the reference sums; returns the residuals."""
    S = curv.structure
    n = S.n
    R, ricci, scalar, lowered = reference_curvature(S, conn, curv.invg)
    pairs = list(itertools.permutations(range(n), 2))
    # the arrays R[a, b, c, e] that the checks reduce, on the grid they reduce them on
    G = _Grid.of(grid)
    arrays, projected = curv._arrays(G)[0], G.projection(curv.mask)[0]
    assert np.array([arrays[a, b] for a, b in pairs]).tobytes() == values_on_grid([R[a][b] for a, b in pairs], projected).tobytes()
    assert all(arrays[a, a].tobytes() == bytes(arrays[a, a].nbytes) for a in range(n))  # every bit +0.0
    for new, old in (
        ([[curv.lowered(a, b, c, d) for c in range(n) for d in range(n)] for a, b in pairs],
         [[lowered[a][b][c][d] for c in range(n) for d in range(n)] for a, b in pairs]),
        (curv.ricci, ricci),
        (curv.scalar, scalar),
    ):
        assert values_on_grid(new, grid).tobytes() == values_on_grid(old, grid).tobytes()
    assert all(curv.lowered(a, a, c, d) is S.kset.zero for a in range(n) for c in range(n) for d in range(n))
    got = checked_residuals(curv, grid)
    assert got == reference_residuals(values_on_grid(lowered, grid))
    return got


class TestCurvatureIdentityGathers:
    """The curvature tensor is computed as arrays, and every value has the
    bits of the field DAG that computed it before (``reference_curvature``).
    The identity residuals sum only the triples of distinct indices and the
    pairs a < b, c < d, and give the bits of the sums over all 256 index
    combinations. The three facts that make this exact:
    - R_bacd and -R_abcd differ at most in the sign of a zero;
    - a triple with a repeated index sums to exactly 0 when its values are finite;
    - any non-finite value makes some combination non-finite, so both give inf.
    """

    @pytest.mark.parametrize("eid", catalog.catalog_ids())
    def test_catalog_kahler_chains(self, built, eid):
        be = built(eid)
        assert_reference_bits(be.curv_k, be.conn_k, be.grid)

    def test_ppwave_sech_3x8x8(self):
        entry = catalog.load("ppwave", iota="-2*sech(x)^2")
        grid = grid_points(entry.data.kset, dict(entry.grid_box, x=(-0.6, 0.6, 8), y=(-0.6, 0.6, 8)))
        assert len(grid) == 192
        chain = build_chain(entry.data)
        bianchi, _ = assert_reference_bits(chain.curv, chain.conn, grid)
        assert float.fromhex(bianchi) > 0.0

    KS = KSet(("x",))
    ZERO = Const(KS, 0.0)

    def test_non_finite_coefficient(self):
        # a bracket coefficient inf * x: -inf, NaN and inf along the grid
        zero, one = self.ZERO, Const(self.KS, 1.0)
        bad = variable(self.KS, "x") * 1e308 * 1e308
        C = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
        C[0][1][2], C[1][0][2] = bad, -bad
        S = FrameStructure(self.KS, ("k", "T", "x", "y"), [[one if i == j else zero for j in range(4)] for i in range(4)],
                           C, [[one], [zero], [zero], [zero]])
        conn = koszul_connection(S)
        grid = grid_points(self.KS, {"x": (-1.0, 1.0, 3)})
        assert assert_reference_bits(curvature(S, conn), conn, grid) == (math.inf.hex(),) * 2

    def test_non_diagonal_metric_and_constant_factors(self):
        # the catalog metrics read each lowered sum's terms one at a time, and their
        # brackets have few constant factors: a 3-frame with a non-diagonal metric,
        # brackets 1.0, -1.0, 2.0 and x, and a derivative table with a zero row
        x, zero, one = variable(self.KS, "x"), self.ZERO, Const(self.KS, 1.0)
        g = [[one + x * x, x, zero], [x, Const(self.KS, 2.0), Const(self.KS, 0.5)], [zero, Const(self.KS, 0.5), one]]
        C = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
        C[0][1][2], C[1][0][2] = x, -x
        C[0][2][1], C[2][0][1] = one, Const(self.KS, -1.0)
        C[1][2][0], C[2][1][0] = Const(self.KS, 2.0), Const(self.KS, -2.0)
        S = FrameStructure(self.KS, ("a", "b", "c"), g, C, [[zero], [Const(self.KS, 2.0)], [x]])
        conn = koszul_connection(S)
        assert_reference_bits(curvature(S, conn), conn, grid_points(self.KS, {"x": (-1.0, 1.0, 5)}))

    @staticmethod
    def hand_made(row):
        """Lowered values R_abcd = row(a, b, c, d) * x for a < b, with
        R_bacd = -1.0 * R_abcd and R_aacd = 0, at x = 0.5, 0.75, 1, and a
        stand-in tensor that gives them to the residuals."""
        x = np.linspace(0.5, 1.0, 3)
        L = np.zeros((4, 4, 4, 4, 3))
        for a, b in itertools.combinations(range(4), 2):
            for c in range(4):
                for d in range(4):
                    L[a, b, c, d] = x * row(a, b, c, d)
                    L[b, a, c, d] = -1.0 * L[a, b, c, d]
        return L, types.SimpleNamespace(_arrays=lambda grid: (None, L, None))

    def test_finite_rows_whose_sums_overflow(self):
        # every value is finite, near 1e308; R_abcd + R_bcad overflows, and so
        # does R_abcd - R_cdab where the two values have opposite signs
        L, curv = self.hand_made(lambda a, b, c, d: 1e308 if (a, b) <= (c, d) else -0.9e308)
        assert np.isfinite(L).all()
        got = checked_residuals(curv, None)
        assert got == reference_residuals(L) == (math.inf.hex(),) * 2

    def test_non_finite_row_that_only_a_repeated_index_reads(self):
        # R_0100 is inf and every other value finite: no triple of distinct
        # indices reads R_0100, but R_0100 + R_1000 + R_0010 is inf - inf
        L, curv = self.hand_made(lambda a, b, c, d: math.inf if (a, b, c, d) == (0, 1, 0, 0) else a - c + 0.5 * d)
        got = checked_residuals(curv, None)
        assert got == reference_residuals(L) == (math.inf.hex(), (4.0).hex())

    def test_rows_have_no_partials(self, built):
        curv = built("ppwave").curv_k
        for f in (curv.lowered(0, 1, 2, 3), curv.lowered(1, 0, 2, 3), curv.ricci[2][2], curv.scalar):
            with pytest.raises(FieldError, match="curvature rows have no partial derivatives"):
                f.partial(0)


class TestSectional:
    def test_flat_plane_zero(self):
        S = flat_frame()
        curv = curvature(S, koszul_connection(S))
        K = sectional_curvature(S, curv, 0, 1)
        assert K.at(()) == 0.0

    def test_degenerate_plane_raises(self, entries):
        # the base warped metric has a degenerate (k, k+T)-like plane: use
        # the null pair (k, T) of the Lorentzian metric g itself where
        # g_kk g_TT - g_kT^2 = -1 < 0 is fine, but (k, x): 0*1 - 0 = 0
        data = entries["warped_complete"].data
        S = data.structure
        curv = curvature(S, koszul_connection(S))
        from frame_kahler.fields import DomainError

        # span(k, x) is g-degenerate: the identically-zero denominator is
        # rejected at construction, a pointwise-degenerate one at evaluation
        with pytest.raises(DomainError):
            sectional_curvature(S, curv, 0, 2).at((0.0,))

    def test_implicit_family_sectional_magnitude(self, built):
        be = built("warped_alpha_minus2")
        tau0 = 1.0 - math.pi / 4.0
        K = sectional_curvature(be.kahler.structure, be.curv_k, 2, 3)
        w0 = be.data.w.at((tau0,))
        wp0 = be.data.w.partial(0).at((tau0,))
        assert abs(K.at((tau0,))) == pytest.approx(abs(2.0 / w0 * (wp0 - 1.0)), abs=1e-9)
        assert abs(K.at((tau0,))) > 0.1


class TestTwist:
    """The twist of e_0 against the orthonormal pair (e_2, e_3) is
    g(e_0, [e_2, e_3])."""

    def test_catalog_twists(self, entries):
        assert entries["s3xr"].data.structure.g_of_bracket(0, 2, 3).at((0.0,)) == pytest.approx(-2.0)
        assert entries["planewave"].data.structure.g_of_bracket(0, 2, 3).at((0.0,)) == pytest.approx(-2.0)

    def test_ppwave_shift_twist(self):
        entry = catalog.load("ppwave", iota="-2 + x")
        S = entry.data.structure
        grid = grid_points(S.kset, {"x": (-0.5, 0.5, 3), "y": (-0.5, 0.5, 3)})
        t = S.g_of_bracket(0, 2, 3)
        for p in grid:
            assert t.at(p) == pytest.approx(-2.0 + p[1], abs=1e-12)


class TestConsistencySuite:
    def test_catalog_structures_pass(self, entries):
        for eid, entry in entries.items():
            rep = consistency_suite(koszul_connection(entry.data.structure), entry.grid())
            assert rep.passed, "%s: %s" % (eid, [c.check_id for c in rep.checks if not c.passed])
            worst = max(c.residual for c in rep.checks)
            assert worst <= 1e-8

    def test_perturbed_bracket_flagged(self, entries):
        # C_xy^k shifted by +0.1 breaks the derivative-table compatibility
        entry = catalog.load("s3xr")
        S = entry.data.structure
        C = [[[S.C[a][b][c] for c in range(4)] for b in range(4)] for a in range(4)]
        C[2][3][0] = C[2][3][0] + 0.1
        C[3][2][0] = -C[2][3][0]
        S2 = FrameStructure(S.kset, S.frame_names, S.g, C, S.D)
        rep = consistency_suite(koszul_connection(S2), entry.grid())
        assert not rep.passed
        failed = {c.check_id for c in rep.checks if not c.passed}
        assert failed & {"jacobi_identity", "frame_derivative_consistency"}

    def test_flat_frame_passes(self):
        rep = consistency_suite(koszul_connection(flat_frame()), [()])
        assert rep.passed
