"""Scalar-field algebra: parser, exact partials, solves, complex fields."""

import gc
import itertools
import math
import operator
import types
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frame_kahler import fields as fields_mod
from frame_kahler import frames as frames_mod
from frame_kahler.fields import (
    CScalarField,
    DomainError,
    ExpressionError,
    FieldError,
    KSet,
    LinearFieldSystem,
    ScalarField,
    SingularMatrixError,
    _PointwiseMatrix,
    constant,
    contract,
    determinant,
    exp,
    log,
    log_abs,
    make_closed_form,
    remap,
    sin,
    sqrt,
    variable,
)

from frame_kahler.catalog import catalog_ids, load
from frame_kahler.cli import main, run_suite
from frame_kahler.frames import (FrameStructure, curvature, grid_points, koszul_connection, max_abs_on_grid,
                                 min_on_grid, values_on_grid)
from frame_kahler.kahler import build_chain
from frame_kahler.warped import TAU_KSET

from conftest import central_diff, fd_plane_laplacian, second_diff

KS1 = KSet(("tau",))
KS2 = KSet(("x", "y"))


class TestKSet:
    def test_size_and_index(self):
        ks = KSet(("tau", "x", "y"))
        assert ks.size == 3
        assert ks.index("x") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            KSet(("x", "x"))

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            KSet(("a", "b", "c", "d"))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            KS2.index("z")

    def test_empty_kset_allowed(self):
        assert KSet(()).size == 0


class TestParser:
    def test_identity(self):
        f = make_closed_form("tau", KS1)
        assert f.at((2.0,)) == 2.0
        assert f.partial(0).at((2.0,)) == 1.0

    def test_exp_at_zero(self):
        f = make_closed_form("exp(tau)", KS1)
        assert f.at((0.0,)) == 1.0
        assert f.partial(0).at((0.0,)) == 1.0

    def test_sech_squared_log_laplacian(self):
        # log of sech(x + 2y)^2 has plane Laplacian -2 (1^2 + 2^2) sech^2
        f = make_closed_form("sech(x + 2*y)^2", KS2)
        pt = (0.3, -0.1)
        expected = -2.0 * (1.0 + 4.0) / math.cosh(0.1) ** 2
        L = log_abs(f)
        exact = L.partial(0).partial(0).at(pt) + L.partial(1).partial(1).at(pt)
        assert exact == pytest.approx(expected, abs=1e-12)
        oracle = fd_plane_laplacian(lambda p: math.log(abs(f.at(p))), pt, 0, 1, h=1e-4)
        assert exact == pytest.approx(oracle, abs=1e-6)

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError):
            make_closed_form("z + 1", KS2)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            make_closed_form("frob(x)", KS2)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            make_closed_form("x + ", KS2)

    def test_power_precedence(self):
        f = make_closed_form("-x^2", KS2)
        assert f.at((3.0, 0.0)) == -9.0
        g = make_closed_form("2^-2", KS2)
        assert g.at((0.0, 0.0)) == 0.25

    def test_named_constants(self):
        f = make_closed_form("pi + e", KS1)
        assert f.at((0.0,)) == pytest.approx(math.pi + math.e)

    # (expression, value at (x, y) = (3, 2), or None where it is refused)
    CORPUS = [
        ("x\t+\ny", 5.0),
        (" \t x *\n\n y \n", 6.0),
        ("x\n^\n2", 9.0),
        ("-x^2", -9.0),
        ("2^-2", 0.25),
        ("2^3^2", 512.0),
        ("--x", 3.0),
        ("x--y", 5.0),
        ("-x*y", -6.0),
        ("exp (y)", math.exp(2.0)),
        ("pi*e", math.pi * math.e),
        ("1e400", math.inf),
        (".5", 0.5),
        ("5.", 5.0),
        ("1E+05", 1e5),
        ("09.5", 9.5),
        ("00", 0.0),
        ("sech(x)", 1.0 / math.cosh(3.0)),
        ("x^2/(1 + y)", 3.0),
        ("+x", None),
        ("x**2", None),
        ("x* *2", None),
        ("1_0", None),
        ("0x10", None),
        ("0o7", None),
        ("0b1", None),
        ("1j", None),
        ("exp(x,)", None),
        ("exp(x, y)", None),
        ("exp()", None),
        ("exp(*x)", None),
        ("(exp)(x)", None),
        ("x.y", None),
        ("x[0]", None),
        ("not x", None),
        ("x < y", None),
        ("x if y else x", None),
        ("x #c", None),
        ("x // y", None),
        ("x and y", None),
        ("True", None),
        ("2x", None),
        ("x y", None),
        ("", None),
        ("x + ", None),
        ("(x", None),
        ("x (y)", None),
        ("٣", None),  # a non-ASCII digit
        # the two narrowings: integers with leading zeros ...
        ("007", None),
        ("-05", None),
    ]

    @pytest.mark.parametrize("expr,value", CORPUS)
    def test_corpus(self, expr, value):
        if value is None:
            with pytest.raises(ExpressionError):
                make_closed_form(expr, KS2)
        else:
            assert make_closed_form(expr, KS2).at((3.0, 2.0)) == value

    @pytest.mark.parametrize("name", ["lambda", "in", "if", "None"])
    def test_keyword_variable_names_refused(self, name):
        # ... and variables named with a Python keyword
        with pytest.raises(ExpressionError):
            make_closed_form(name, KSet((name,)))

    @pytest.mark.parametrize("expr,message,position", [
        ("x + q", "unknown variable name 'q'", 4),
        ("x\t+\t\tfrob(y)", "unknown function 'frob'", 4),
        ("x^2 + y**2", "unexpected '**'", 8),  # normalized: x**2 + y**2
        ("x^2 + #", "unexpected '#'", 7),
        ("exp(*x)", "not in the expression grammar: '*x'", 4),
        ("x y", "invalid syntax", 2),
        ("1if x else 2", "invalid decimal literal", 0),  # a SyntaxWarning, not printed
        # an error at the end of the input is placed at its end
        ("x +", "invalid syntax", 3),
        ("-", "invalid syntax", 1),
        ("exp(x) /", "invalid syntax", 8),
        ("  x  +  ", "invalid syntax", 3),
    ])
    def test_error_positions_index_normalized_text(self, expr, message, position, recwarn):
        with pytest.raises(ExpressionError) as err:
            make_closed_form(expr, KS2)
        assert str(err.value).startswith(message)
        assert err.value.position == position
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "expr",
        [
            "x^2 + 3*x*y - y/2",
            "exp(x) * sin(y)",
            "log(2 + x^2)",
            "tanh(x - y) + cosh(x*y)",
            "sqrt(4 + x^2)",
            "1 / (2 + sin(x))",
            "(2 + x)^1.5 + 2",
            "tan(x/2) - cos(x*y)",
            "sinh(x + y^2) + logabs(x - 2)",
        ],
    )
    def test_partials_match_finite_differences(self, expr):
        f = make_closed_form(expr, KS2)
        for pt in [(0.3, -0.2), (1.1, 0.7), (0.0, 0.4)]:
            for i in range(2):
                exact = f.partial(i).at(pt)
                oracle = central_diff(f.at, pt, i, h=1e-5)
                assert abs(exact - oracle) <= 1e-6 * (1.0 + abs(exact))

    def test_second_partials_symmetric(self):
        f = make_closed_form("exp(x*y) + sin(x)*y^3", KS2)
        for pt in [(0.2, 0.5), (-0.4, 1.2)]:
            mixed_xy = f.partial(0).partial(1).at(pt)
            mixed_yx = f.partial(1).partial(0).at(pt)
            assert abs(mixed_xy - mixed_yx) <= 1e-8


class TestLiftPartial:
    def test_polynomial(self):
        f = make_closed_form("tau^2", KS1)
        assert f.partial(0).at((3.0,)) == 6.0

    def test_lift_twice_log_sech(self):
        # d^2/dx^2 of log(sech^2 x) = -2 sech^2 x; at 0 this is -2
        iota = make_closed_form("sech(x)^2", KS2)
        L = log_abs(iota)
        x = KS2.index("x")
        twice = L.partial(x).partial(x)
        assert twice.at((0.0, 0.0)) == pytest.approx(-2.0, abs=1e-12)
        oracle = second_diff(lambda p: math.log(abs(iota.at(p))), (0.0, 0.0), 0, 0, h=1e-4)
        assert twice.at((0.0, 0.0)) == pytest.approx(oracle, abs=1e-6)

    def test_constant_lifts_to_zero(self):
        f = constant(KS1, 7.0)
        assert f.partial(0).is_constant
        assert f.partial(0).at((1.0,)) == 0.0

    def test_out_of_range(self):
        # partial reads its memo first: an index out of range raises also after a
        # partial in range was memoized, and a constant checks its index too
        f = make_closed_form("tau", KS1)
        for i in (3, -1):
            with pytest.raises(IndexError):
                f.partial(i)
        assert f.partial(0).at((2.0,)) == 1.0
        for field in (f, constant(KS1, 7.0)):
            for i in (1, -1):
                with pytest.raises(IndexError):
                    field.partial(i)

    def test_a_name_is_no_index_after_a_function_is_memoized(self):
        # partial reads the memo that also holds sin(tau), keyed by its table row
        tau = variable(KS1, "tau")
        sin(tau)
        with pytest.raises(TypeError):
            tau.partial("sin")
        assert tau.partial(0).at((2.0,)) == 1.0


KS3 = KSet(("tau", "x", "y"))


def _curvature_3(g00):
    """The curvature tensor of the coordinate frame of (tau, x, y) with metric
    diag(g00, 1, 1): e_x and e_y derive along x and y, which g00 need not read."""
    zero, one = KS3.zero, constant(KS3, 1.0)
    S = FrameStructure(KS3, ("e", "ex", "ey"), [[g00, zero, zero], [zero, one, zero], [zero, zero, one]],
                       [[[zero] * 3] * 3] * 3, [[one if a == i else zero for i in range(3)] for a in range(3)])
    return curvature(S, koszul_connection(S))


def _dag(f):
    """Every node of a parsed field's DAG, once each."""
    seen, todo = {}, [f]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(c for c in (getattr(node, "f", None), getattr(node, "g", None)) if c is not None)
    return list(seen.values())


def _derived_by_rules(f, i):
    """f's partial along variable i as ``partial`` built it before a partial
    along an unread variable became the shared zero: each node derives by its
    own rule, a constant and any other variable by the zero."""
    memo = {}  # (id, index) -> (node, partial); holding the node keeps its id unique

    def partial(self, j):
        got = memo.get((id(self), j))
        if got is None:
            other = self.is_constant or (isinstance(self, fields_mod.Var) and self.i != j)
            got = memo[id(self), j] = (self, self.kset.zero if other else self._derive(j))
        return got[1]

    with unittest.mock.patch.object(ScalarField, "partial", partial):
        return partial(f, i)


@st.composite
def _unread_expressions(draw):
    """A parsed expression in a drawn subset of (tau, x, y)."""
    names = sorted(draw(st.sets(st.sampled_from(KS3.names), min_size=1, max_size=2)))
    unary = st.sampled_from(sorted(fields_mod._ELEMENTARY) + ["sech"])
    return draw(st.recursive(st.sampled_from(names + ["0.5", "2", "3"]), lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map("(%s %s %s)".__mod__),
        st.tuples(unary, e).map("%s(%s)".__mod__),
        st.tuples(e, st.sampled_from(["2", "0.5", "(-1)"])).map("(%s)^%s".__mod__)), max_leaves=6))


class TestUnreadPartials:
    """A partial along a variable that a node does not read is the shared
    zero, built by no derive rule."""

    CASES = [
        lambda: variable(KS3, "x"),
        lambda: constant(KS3, 2.5),
        lambda: variable(KS3, "x") + variable(KS3, "tau"),
        lambda: variable(KS3, "x") - variable(KS3, "tau"),
        lambda: variable(KS3, "x") * variable(KS3, "tau"),
        lambda: variable(KS3, "x") / (variable(KS3, "tau") + 2.0),
        *(lambda name=name: fields_mod._apply(name, variable(KS3, "x")) for name in sorted(fields_mod._ELEMENTARY)),
        lambda: variable(KS3, "x") ** 1.5,
        lambda: remap(make_closed_form("log(tau)", KS1), KS3),
        lambda: LinearFieldSystem([[variable(KS3, "x") + 2.0]], [variable(KS3, "tau")]).components()[0],
        lambda: _curvature_3(2.0 + variable(KS3, "tau") ** 2).lowered(0, 1, 0, 1),
        lambda: _curvature_3(2.0 + variable(KS3, "tau") ** 2).scalar,
    ]

    @pytest.mark.parametrize("make", CASES)
    def test_partial_along_an_unread_variable_is_the_zero(self, make):
        f = make()
        assert f._mask >> 2 & 1 == 0
        assert f.partial(2) is KS3.zero and f._cache[2] is KS3.zero
        assert values_on_grid(f.partial(2), [(0.5, 0.25, 1.0)]).tolist() == [0.0]

    def test_curvature_row_raises_along_a_variable_it_reads(self):
        curv = _curvature_3(2.0 + variable(KS3, "tau") ** 2)
        for f in (curv.ricci[0][0], curv.scalar, curv.lowered(0, 1, 1, 0)):
            assert f._mask == 1 and f.partial(1) is KS3.zero
            with pytest.raises(FieldError, match="curvature rows have no partial derivatives"):
                f.partial(0)
        # e_x derives along x, which no Gamma reads: its partials read as rows of +0.0
        assert curv.max_component([(0.5, 0.0, 0.0), (1.5, 0.0, 0.0)]) == 0.0

    def test_quotient_partial_needs_no_denominator(self):
        # the rule builds no _Div(0, g*g): g*g underflows to 0.0 at x = 1e-170, where the
        # partial raised "quotient has degenerate denominator 0.0" although 1/x is 1e170
        f = make_closed_form("1/x", KS3)
        point = (0.0, 1e-170, 0.0)
        assert f.at(point) == 1e170
        assert f.partial(0) is KS3.zero and f.partial(0).at(point) == 0.0

    def test_solve_still_raises_where_its_unread_partial_is_zero(self):
        # no derivative system is built along y; the solve names the same point as before
        sol = LinearFieldSystem([[variable(KS2, "x")]], [constant(KS2, 1.0)]).components()[0]
        grid = [(1.0, 0.0), (0.0, 0.0)]
        with pytest.raises(SingularMatrixError) as exc:
            values_on_grid([sol, sol.partial(1)], grid)
        assert str(exc.value) == "near-singular matrix (|det| = 0.000e+00) in pointwise solve at (0.0, 0.0)"
        assert sol.partial(1) is KS2.zero  # its derivative system raised at (0.0, 0.0)
        assert values_on_grid(sol.partial(1), grid).tolist() == [0.0, 0.0]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_unread_expressions())
    def test_derive_rules_give_only_zeros_where_the_rule_applies(self, expr):
        # each node's own derive rule, applied all the way down, evaluates only to
        # +-0.0 or NaN along a variable the node does not read, or fails at a point
        # (a quotient whose squared denominator underflows, a power's lowered exponent)
        try:
            f = make_closed_form(expr, KS3)
        except DomainError:
            return  # a constant folded outside its domain
        points = [(0.3, 0.7, 1.9), (-0.4, 1.3, 0.2), (2.5, -1.1, 0.0)]
        for node in _dag(f):
            for i in range(3):
                if node._mask >> i & 1:
                    continue
                assert node.partial(i) is KS3.zero
                d = _derived_by_rules(node, i)
                for p in points:
                    try:
                        v = d.at(p)
                    except DomainError:
                        continue
                    assert v == 0.0 or math.isnan(v), (expr, node, i, p, v)


class TestDomains:
    def test_log_nonpositive(self):
        f = log(variable(KS1, "tau"))
        with pytest.raises(DomainError):
            f.at((-1.0,))

    def test_log_abs_zero(self):
        f = log_abs(variable(KS1, "tau"))
        with pytest.raises(DomainError):
            f.at((0.0,))
        assert f.at((-2.0,)) == math.log(2.0)

    def test_fractional_power_negative_base(self):
        f = variable(KS1, "tau") ** (-1.5)
        assert f.at((4.0,)) == pytest.approx(0.125)
        with pytest.raises(DomainError):
            f.at((-4.0,))

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            sqrt(variable(KS1, "tau")).at((-1.0,))

    def test_division_by_zero_field(self):
        f = constant(KS1, 1.0) / variable(KS1, "tau")
        with pytest.raises(DomainError):
            f.at((0.0,))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    def test_associativity_distributivity(self, a, b, c, x, y):
        fa = constant(KS2, a) + variable(KS2, "x")
        fb = constant(KS2, b) * variable(KS2, "y") + 1.0
        fc = constant(KS2, c) - variable(KS2, "x") * variable(KS2, "y")
        pt = (x, y)
        lhs = ((fa + fb) + fc).at(pt)
        rhs = (fa + (fb + fc)).at(pt)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
        lhs = ((fa * fb) * fc).at(pt)
        rhs = (fa * (fb * fc)).at(pt)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
        lhs = (fa * (fb + fc)).at(pt)
        rhs = (fa * fb + fa * fc).at(pt)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    OPS = (operator.add, operator.sub, operator.mul, operator.truediv)

    def test_mixed_kset_rejected(self):
        for op in self.OPS:
            for f, g in ((variable(KS1, "tau"), variable(KS2, "x")), (variable(KS2, "x"), variable(KS1, "tau"))):
                with pytest.raises(FieldError, match="different k-sets"):
                    op(f, g)

    def test_equal_ksets_combine(self):
        # the operators compare k-sets by identity first, then by names
        other = KSet(("x", "y"))
        assert other == KS2 and other is not KS2
        for op in self.OPS:
            for f, g in ((variable(KS2, "x"), variable(other, "y")), (variable(other, "x"), variable(KS2, "y"))):
                assert op(f, g).at((3.0, 2.0)) == op(3.0, 2.0)


class TestConstantFactor:
    """A product with a constant factor multiplies by the constant as a float,
    which gives the bits of the product with the constant's full array."""

    VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308,
              -2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0, 0.1, -3.0]

    def test_product_has_the_full_array_bits(self):
        tau = variable(KS1, "tau")
        x = np.array(self.VALUES)
        for c in self.VALUES:
            if c == 0.0 or c == 1.0:
                continue  # the product folds to a constant or to tau, with no node
            node = c * tau
            assert isinstance(node, fields_mod._Mul) and node.f.is_constant
            got = values_on_grid(node, x[:, None])
            with np.errstate(all="ignore"):
                want = np.full(len(x), c) * x
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist())), c

    def test_a_parsed_product_merges_its_constant_factors(self):
        # c1 * (c2 * g) is evaluated as (c1 * c2) * g, so a parsed product is
        # not always evaluated left to right (README, "Expression grammar")
        assert make_closed_form("tau*1e308*10", KS1).at((0.1,)) == math.inf  # 0.1*1e308*10 is 1e308
        got = make_closed_form("tau*0.1*3", KS1).at((0.7,))
        assert got.hex() == (0.21000000000000002).hex() != (0.7 * 0.1 * 3).hex()


class TestComplexFields:
    @settings(max_examples=40, deadline=None)
    @given(st.complex_numbers(max_magnitude=3), st.complex_numbers(max_magnitude=3))
    def test_matches_python_complex(self, z1, z2):
        f1 = CScalarField(constant(KS1, z1.real), constant(KS1, z1.imag))
        f2 = CScalarField(constant(KS1, z2.real), constant(KS1, z2.imag))
        pt = (0.0,)
        assert (f1 + f2).at(pt) == pytest.approx(z1 + z2)
        assert (f1 * f2).at(pt) == pytest.approx(z1 * z2)

    def test_negation(self):
        z = -CScalarField(variable(KS2, "x"), variable(KS2, "y"))
        assert z.at((1.5, -2.0)) == complex(-1.5, 2.0)

    def test_real_times_complex_scalar(self):
        tau = variable(KS1, "tau")
        z = tau * (2.0 + 3.0j)
        assert z.at((1.5,)) == pytest.approx(3.0 + 4.5j)
        assert z.re.partial(0).at((1.5,)) == 2.0
        assert z.im.partial(0).at((1.5,)) == 3.0


class TestLinearSolve:
    def test_matches_numpy_and_fd(self):
        A = [
            [constant(KS2, 2.0), variable(KS2, "x")],
            [variable(KS2, "x"), constant(KS2, 3.0)],
        ]
        b = [variable(KS2, "y"), constant(KS2, 1.0)]
        sol = LinearFieldSystem(A, b).components()
        pt = (0.4, -0.7)

        def direct(p):
            M = np.array([[2.0, p[0]], [p[0], 3.0]])
            return np.linalg.solve(M, np.array([p[1], 1.0]))

        for j in range(2):
            assert sol[j].at(pt) == pytest.approx(direct(pt)[j], rel=1e-12)
            for i in range(2):
                oracle = central_diff(lambda p: direct(p)[j], pt, i, h=1e-5)
                assert sol[j].partial(i).at(pt) == pytest.approx(oracle, abs=1e-6)
        # second derivative through the solve
        oracle2 = second_diff(lambda p: direct(p)[0], pt, 0, 0, h=1e-4)
        assert sol[0].partial(0).partial(0).at(pt) == pytest.approx(oracle2, abs=1e-5)

    def test_singular_matrix_raises(self):
        A = [
            [variable(KS1, "tau"), constant(KS1, 0.0)],
            [constant(KS1, 0.0), constant(KS1, 1.0)],
        ]
        b = [constant(KS1, 1.0), constant(KS1, 1.0)]
        sys = LinearFieldSystem(A, b)
        from frame_kahler.fields import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            sys.components()[0].at((0.0,))

    def test_determinant_field(self):
        m = [
            [constant(KS2, 1.0), variable(KS2, "x")],
            [variable(KS2, "y"), constant(KS2, 2.0)],
        ]
        d = determinant(m)
        assert d.at((3.0, 0.5)) == pytest.approx(2.0 - 1.5)


def curvature_row(g00):
    """The scalar curvature, a row of a curvature tensor, of a 3-frame with
    metric diag(g00, 1, 1) and zero brackets and derivatives: it reads the
    Koszul solves against that metric."""
    ks, zero, one = g00.kset, g00.kset.zero, constant(g00.kset, 1.0)
    S = FrameStructure(ks, ("e", "x", "y"), [[g00, zero, zero], [zero, one, zero], [zero, zero, one]],
                       [[[zero] * 3] * 3] * 3, [[zero]] * 3)
    return curvature(S, koszul_connection(S)).scalar


class TestGridErrors:
    """Each node names the first grid point where it fails, in the text that
    per-point evaluation gave; here exactly one point, a later one, fails."""

    KS3 = KSet(("tau", "p", "q"))

    CASES = [
        (lambda: make_closed_form("log(tau)", KS1), [(2.0,), (1.0,), (-0.5,)],
         DomainError, "log of nonpositive value -0.5 at (-0.5,)"),
        (lambda: make_closed_form("log(x) + y", KS2), [(1.0, 0.5), (2.0, 0.5), (-1.0, 0.25)],
         DomainError, "log of nonpositive value -1.0 at (-1.0, 0.25)"),
        (lambda: make_closed_form("logabs(tau)", KS1), [(1.0,), (-2.0,), (0.0,)],
         DomainError, "log|.| of zero at (0.0,)"),
        (lambda: make_closed_form("sqrt(tau)", KS1), [(4.0,), (0.0,), (-1.0,)],
         DomainError, "sqrt of negative value -1.0 at (-1.0,)"),
        (lambda: make_closed_form("1/(tau - 1)", KS1), [(0.0,), (2.0,), (1.0,)],
         DomainError, "quotient has degenerate denominator 0.0 at (1.0,)"),
        (lambda: make_closed_form("tau^(-2)", KS1), [(1.0,), (2.0,), (0.0,)],
         DomainError, "zero base raised to negative power -2.0 at (0.0,)"),
        (lambda: make_closed_form("tau^0.5", KS1), [(1.0,), (0.0,), (-1.0,)],
         DomainError, "negative base -1.0 raised to fractional power 0.5 at (-1.0,)"),
        (lambda: curvature_row(variable(KS1, "tau") - 1.0), [(0.0,), (2.0,), (1.0,)], SingularMatrixError,
         "near-singular matrix (|det| = 0.000e+00) in pointwise solve at (1.0,)"),
        (lambda: remap(make_closed_form("log(tau)", KS1), TestGridErrors.KS3),
         [(1.0, 0.0, 0.0), (2.0, 1.0, 0.0), (-1.0, 0.5, 0.5)],
         DomainError, "log of nonpositive value -1.0 at (-1.0,)"),
        (lambda: LinearFieldSystem([[variable(KS1, "tau") - 1.0]], [constant(KS1, 1.0)]).components()[0],
         [(0.0,), (2.0,), (1.0,)], SingularMatrixError,
         "near-singular matrix (|det| = 0.000e+00) in pointwise solve at (1.0,)"),
        # math.exp and math.pow overflow through the same path as the domain tests
        (lambda: make_closed_form("exp(tau)", KS1), [(1.0,), (700.0,), (800.0,)],
         DomainError, "exp(800.0) failed at (800.0,): math range error"),
        (lambda: make_closed_form("tau^400", KS1), [(2.0,), (1e-3,), (10.0,)],
         DomainError, "power 10.0**400.0 failed at (10.0,): math range error"),
        # the argument folds to inf*tau: NaN at the zeros, where sin is NaN too, and inf
        # at 1.0, where np.sin gives NaN and the math loop is replayed to name the point
        (lambda: make_closed_form("sin(tau*1e308*10)", KS1), [(0.0,), (-0.0,), (1.0,)],
         DomainError, "sin(inf) failed at (1.0,): math domain error"),
    ]

    @pytest.mark.parametrize("make,grid,error,text", CASES)
    def test_first_failing_point_named(self, make, grid, error, text):
        with pytest.raises(error) as exc:
            values_on_grid(make(), grid)
        assert str(exc.value) == text
        with pytest.raises(error) as exc:
            make().at(grid[-1])
        assert str(exc.value) == text

    @pytest.mark.parametrize("make,grid,error,text", CASES)
    def test_converted_grid_names_the_same_point(self, make, grid, error, text):
        # a grid converted beforehand passes through every evaluation unchanged
        converted = fields_mod._Grid.of(grid)
        assert fields_mod._Grid.of(converted) is converted
        with pytest.raises(error) as exc:
            values_on_grid(make(), converted)
        assert str(exc.value) == text
        with pytest.raises(error) as exc:
            make().at(converted[-1])
        assert str(exc.value) == text

    @pytest.mark.parametrize("convert", [list, fields_mod._Grid.of])
    def test_ricci_spectrum_names_the_point(self, convert):
        # gK = 1, Ric = [[1, -s], [s, 1]] (+ 1 on the diagonal) with s = tau (tau - 1):
        # the spectrum 1 +- 2i is complex at the last point only
        from frame_kahler.central import ricci_endomorphism_eigenvalues

        tau = variable(KS1, "tau")
        s = tau * (tau - 1.0)
        one, zero = constant(KS1, 1.0), constant(KS1, 0.0)
        g = [[one if u == v else zero for v in range(4)] for u in range(4)]
        ricci = [row[:] for row in g]
        ricci[0][1], ricci[1][0] = -s, s
        with pytest.raises(ArithmeticError) as exc:
            ricci_endomorphism_eigenvalues(types.SimpleNamespace(g=g), types.SimpleNamespace(ricci=ricci),
                                           convert([(0.0,), (1.0,), (2.0,)]))
        assert str(exc.value) == "Ricci endomorphism spectrum unexpectedly complex at (2.0,)"

    @pytest.mark.parametrize("make,grid,error,text", CASES)
    def test_array_grid_names_the_same_point(self, make, grid, error, text):
        # an (N, k) array grid names its points as tuples of Python floats
        with pytest.raises(error) as exc:
            values_on_grid(make(), np.array(grid))
        assert str(exc.value) == text
        assert "np.float64(" not in str(exc.value)

    @pytest.mark.parametrize("make,grid,error,text", CASES)
    def test_numpy_scalar_grid_names_python_floats(self, make, grid, error, text):
        # a list of tuples of np.float64 (as built from np.linspace) reads the same
        grid = [tuple(np.float64(v) for v in point) for point in grid]
        with pytest.raises(error) as exc:
            values_on_grid(make(), grid)
        assert str(exc.value) == text

    @pytest.mark.parametrize("grid,text", [
        ([(1.0,), (0.0,), (-1.0,)], "zero base raised to negative power -0.5 at (0.0,)"),
        ([(1.0,), (-1.0,), (0.0,)], "negative base -1.0 raised to fractional power -0.5 at (-1.0,)"),
    ])
    def test_power_names_the_first_of_two_domain_tests(self, grid, text):
        # a negative fractional power fails at a zero and at a negative base
        with pytest.raises(DomainError) as exc:
            values_on_grid(make_closed_form("tau^(-0.5)", KS1), grid)
        assert str(exc.value) == text

    @pytest.mark.parametrize("expr,text", [
        ("exp(1000)", "exp(1000.0) failed at (): math range error"),
        ("10^400", "power 10.0**400.0 failed at (): math range error"),
        ("0^(-1)", "zero base raised to negative power -1.0 at ()"),
    ])
    def test_constant_fold_names_the_empty_point(self, expr, text):
        # a constant argument folds at construction, through the same path
        with pytest.raises(DomainError) as exc:
            make_closed_form(expr, KS1)
        assert str(exc.value) == text

    def test_non_finite_rows_solve_to_nan(self):
        # a NaN matrix entry at one point: NaN there, the other points solved
        tau = variable(KS1, "tau")
        x = LinearFieldSystem([[tau * tau - 1.0 + (1e200 * tau) * (1e200 * tau) * (tau - tau)]],
                              [constant(KS1, 2.0)]).components()[0]
        values = values_on_grid(x, [(0.0,), (0.5,)])
        assert values[0] == -2.0 and math.isnan(values[1])


class TestWholeArrayRows:
    """sin, cos and sqrt apply numpy's ufunc to the whole array; it must give
    ``math``'s bits, also with numpy's SIMD dispatch switched off (a CI step
    runs this class again with every dispatch target off)."""

    ROWS = ["sin", "cos", "sqrt"]

    @staticmethod
    def sample():
        # ~10^6 finite inputs, derandomized: half on [-10, 10], half of log-uniform
        # magnitude from below the subnormal floor to 2e308, and the edge values
        rng = np.random.default_rng(20261019)
        n = 500_000
        magnitude = 10.0 ** rng.uniform(-330.0, 308.25, n)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308, 1e300, -1e300]
        return np.concatenate([rng.uniform(-10.0, 10.0, n), np.where(rng.random(n) < 0.5, -magnitude, magnitude),
                               edges])

    def test_rows_with_a_ufunc(self):
        assert [name for name, fn in fields_mod._ELEMENTARY.items() if fn.ufunc is not None] == self.ROWS

    @pytest.mark.parametrize("name", ROWS)
    def test_values_equal_math(self, name):
        x = self.sample()
        if name == "sqrt":
            x = np.append(np.abs(x), -0.0)  # sqrt(-0.0) is -0.0
        assert np.isfinite(x).all() and (x == 0.0).any() and (np.abs(x) < 2.2250738585072014e-308).sum() > 1000
        got = values_on_grid(fields_mod._apply(name, variable(KS1, "tau")), x[:, None])
        want = np.fromiter(map(getattr(math, name), x.tolist()), float, len(x))
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert [(float.hex(x[i]), float.hex(got[i]), float.hex(want[i])) for i in bad[:5].tolist()] == []

    @pytest.mark.parametrize("name", ROWS)
    def test_nan_gives_nan(self, name):
        values = values_on_grid(fields_mod._apply(name, variable(KS1, "tau")), [(1.0,), (math.nan,), (4.0,)])
        assert math.isnan(values[1]) and values[[0, 2]].tolist() == [getattr(math, name)(v) for v in (1.0, 4.0)]

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_infinite_constant_folds_to_the_domain_error(self, name):
        # the fold runs the ufunc too, and no RuntimeWarning escapes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                getattr(fields_mod, name)(constant(KS1, math.inf))
        assert str(exc.value) == "%s(inf) failed at (): math domain error" % name


class TestArrayGrid:
    """An (N, k) array grid gives what the same points as a list of tuples
    give, bit for bit."""

    def test_grid_iterates_and_indexes_as_its_points(self):
        points = [(np.float64(0.25), 1.0), (-0.0, 2.5), (3.0, -1.0)]
        grid = fields_mod._Grid.of(np.array(points))
        expected = [(0.25, 1.0), (-0.0, 2.5), (3.0, -1.0)]
        assert len(grid) == 3 and list(grid) == expected and [grid[i] for i in range(3)] == expected
        assert grid[-1] == expected[-1] and math.copysign(1.0, grid[1][0]) == -1.0
        assert all(type(v) is float for p in grid for v in p)
        assert list(fields_mod._Grid.of([()])) == [()] and list(fields_mod._Grid.of([])) == []

    EXPRESSIONS = ["exp(tau) * sin(3*tau)", "tan(tau) / (1 + tau^2)", "sqrt(tau) + log(tau)",
                   "cosh(tau)^0.5 - tanh(tau)", "(1e200*tau)*(1e200*tau)*(tau - tau)"]

    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_values_equal_list_of_tuples(self, expr):
        taus = np.linspace(0.05, 2.0, 257)
        from_array = values_on_grid(make_closed_form(expr, KS1), taus[:, None])
        from_tuples = values_on_grid(make_closed_form(expr, KS1), [(v,) for v in taus.tolist()])
        assert from_array.tobytes() == from_tuples.tobytes()

    def test_partials_equal_list_of_tuples(self):
        def fields():
            tau = variable(KS1, "tau")
            return [exp(tau * tau).partial(0).partial(0), log_abs(tau - 2.0).partial(0)]

        taus = np.linspace(-1.0, 1.0, 65)
        from_array = values_on_grid(fields(), taus[:, None])
        assert from_array.tobytes() == values_on_grid(fields(), [(v,) for v in taus.tolist()]).tobytes()


class TestProjection:
    """A request is evaluated on the grid projected onto the variables its
    fields read, and its values are expanded back to every point: they equal
    per-point evaluation bit for bit, and an error names the point that a
    scan in grid order meets first."""

    KS3 = KSet(("tau", "x", "y"))

    @classmethod
    def fields(cls):
        tau, x, y = (variable(cls.KS3, nm) for nm in cls.KS3.names)
        solved = LinearFieldSystem([[2.0 + x * x, tau], [tau, 3.0 + 0.0 * x]],
                                   [exp(tau) * x, constant(cls.KS3, 1.0)]).components()
        return [
            exp(tau) * fields_mod.sin(x),  # skips y
            log(1.0 + x * x),  # reads x only
            tau * y + fields_mod.cos(y),  # skips x
            constant(cls.KS3, 0.5),  # reads nothing
            solved[0], solved[1].partial(1),  # a pointwise solve over (tau, x)
            remap(make_closed_form("sinh(tau)", KS1), cls.KS3),
            CScalarField(tau * x, y),
        ]

    GRID = [(t, x, y) for t in (0.0, 0.5, -0.25) for x in (-1.0, 0.25, 0.0, 1.5) for y in (0.75, -0.5, 0.0)]

    def test_values_equal_per_point_evaluation(self):
        def hexes(values):
            return [complex(v).real.hex() + complex(v).imag.hex() for v in np.ravel(values).tolist()]

        # every field alone (its own mask), and all of them in one request (their union)
        for field in self.fields():
            assert hexes(values_on_grid(field, self.GRID)) == hexes([field.at(p) for p in self.GRID])
        fields = self.fields()
        assert hexes(values_on_grid(fields, self.GRID)) == hexes([[f.at(p) for p in self.GRID] for f in fields])

    def test_masks(self):
        # bit i: variable i of (tau, x, y)
        assert [f._mask for f in self.fields()[:-1]] == [0b011, 0b010, 0b101, 0, 0b011, 0b011, 0b001]

    def test_projection_keeps_first_occurrences(self):
        grid = fields_mod._Grid.of(self.GRID)
        projected, inverse = grid.projection(0b011)
        assert list(projected) == [p for p in self.GRID if p[2] == 0.75]
        assert projected.cols[:2, inverse].tobytes() == grid.cols[:2].tobytes()
        assert grid.projection(0b011)[0] is projected  # memoized
        assert grid.projection(0b111) == (grid, None)
        assert len(grid.projection(0)[0]) == 1

    def test_signed_zeros_stay_apart(self):
        # 0.0 and -0.0 compare equal as floats, but not bit for bit
        grid = [(x, y) for y in (1.0, 2.0, 3.0) for x in (0.0, -0.0, 0.5)]
        values = values_on_grid(fields_mod.sin(variable(KS2, "x")), grid)
        assert [v.hex() for v in values.tolist()] == [math.sin(x).hex() for x, _ in grid]
        assert [math.copysign(1.0, v) for v in values.tolist()[:2]] == [1.0, -1.0]

    @pytest.mark.parametrize("make,error,text", [
        (lambda ks: log(variable(ks, "x")) + variable(ks, "tau"), DomainError,
         "log of nonpositive value -1.0 at (1.0, -1.0, 0.5)"),
        (lambda ks: LinearFieldSystem([[variable(ks, "x") + 1.0]], [variable(ks, "tau")]).components()[0],
         SingularMatrixError, "near-singular matrix (|det| = 0.000e+00) in pointwise solve at (1.0, -1.0, 0.5)"),
    ])
    def test_error_names_the_first_point_in_grid_order(self, make, error, text):
        # both read (tau, x); (0.0, -1.0) sorts before (1.0, -1.0), which comes first in
        # grid order, and the point named is the whole point, y included
        grid = [(1.0, 1.0, 0.5), (1.0, -1.0, 0.5), (0.0, -1.0, 0.5), (1.0, -1.0, 0.25), (0.0, -1.0, 0.25)]
        with pytest.raises(error) as exc:
            values_on_grid(make(self.KS3), grid)
        assert str(exc.value) == text
        for p in grid:  # the scan in grid order
            try:
                make(self.KS3).at(p)
            except error as first:
                assert str(first) == text
                break
        else:
            pytest.fail("no point of the grid fails")


@pytest.fixture
def det_calls(monkeypatch):
    """The number of matrices of each ``np.linalg.det`` call."""
    calls = []
    det = np.linalg.det

    def counted(a):
        calls.append(len(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    return calls


class _Table(ScalarField):
    """A field over KS1 that reads fixed values (one per grid point) on every
    grid, so a test controls the exact bytes of a right-hand side."""

    __slots__ = ("values",)

    def __init__(self, values):
        super().__init__(KS1)
        self.values = np.array(values, dtype=float)

    def _compute(self, grid):
        return self.values


class TestSharedMatrix:
    """Every solve against one matrix reads one assembled and det-checked
    stack per grid, by LAPACK or, for a diagonal matrix (every 1-by-1 one),
    by ``fields._diagonal_solve``. Systems built apart are separate groups,
    each solved in its own call; the signed-zero and NaN tests run on both
    paths. (A memo once solved bit-equal right-hand sides against one
    matrix once.)"""

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        """(path, points) of each LAPACK call and (path, columns) of each
        diagonal solve: a group of one system puts its points in both."""
        calls = []
        solve, diagonal_solve = np.linalg.solve, fields_mod._diagonal_solve

        def counted(a, b):
            calls.append(("lapack", a.shape[-3]))
            return solve(a, b)

        def counted_diagonal(d, b):
            calls.append(("diagonal", d.shape[1]))
            return diagonal_solve(d, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(fields_mod, "_diagonal_solve", counted_diagonal)
        return calls

    @staticmethod
    def on_both_paths(solve_calls):
        """(path, holder) of a fresh 1-by-1 matrix tau + 2, solved as built
        (diagonal) and then forced onto LAPACK, with the calls cleared."""
        for path in ("diagonal", "lapack"):
            holder = _PointwiseMatrix([[variable(KS1, "tau") + 2.0]])
            assert holder.diagonal
            holder.diagonal = path == "diagonal"
            solve_calls.clear()
            yield path, holder

    @staticmethod
    def hexes(values):
        return [[float.hex(v) for v in row] for row in np.asarray(values).tolist()]

    def test_signed_zeros_solve_apart(self, solve_calls):
        for path, holder in self.on_both_paths(solve_calls):
            plus = LinearFieldSystem(holder, [_Table([0.0, 1.0])]).components()[0]
            minus = LinearFieldSystem(holder, [_Table([-0.0, 1.0])]).components()[0]
            values = values_on_grid([plus, minus], [(0.0,), (2.0,)])
            assert solve_calls == [(path, 2), (path, 2)]
            assert self.hexes(values) == [["0x0.0p+0", "0x1.0000000000000p-2"],
                                          ["-0x0.0p+0", "0x1.0000000000000p-2"]]

    @pytest.mark.parametrize("first,second", [
        (0.5, math.nan),
        (math.nan, -math.nan),
        (np.uint64(0x7FF8000000000000).view(float), np.uint64(0x7FF8000000000001).view(float)),
    ])
    def test_nan_differences_solve_apart(self, solve_calls, first, second):
        b1, b2 = np.array([1.0, first]), np.array([1.0, second])
        assert b1.tobytes() != b2.tobytes()
        for path, holder in self.on_both_paths(solve_calls):
            x1 = LinearFieldSystem(holder, [_Table(b1)]).components()[0]
            x2 = LinearFieldSystem(holder, [_Table(b2)]).components()[0]
            values = values_on_grid([x1, x2], [(0.0,), (2.0,)])
            assert solve_calls == [(path, 2 - math.isnan(first)), (path, 1)]
            assert values[0, 0] == values[1, 0] == 0.5
            assert math.isnan(values[1, 1])
            if math.isnan(first):
                assert math.isnan(values[0, 1])
            else:
                assert values[0, 1] == 0.125

    def test_singular_point_raises_for_every_system_sharing_a_right_hand_side(self, solve_calls):
        tau = variable(KS1, "tau")
        holder = _PointwiseMatrix([[tau * (tau - 1.0)]])
        grid = [(2.0,), (0.0,), (1.0,)]
        for _ in range(2):
            x = LinearFieldSystem(holder, [constant(KS1, 2.0)]).components()[0]
            with pytest.raises(SingularMatrixError) as exc:
                values_on_grid(x, grid)
            assert str(exc.value) == "near-singular matrix (|det| = 0.000e+00) in pointwise solve at (0.0,)"
        assert solve_calls == []

    @staticmethod
    def nan_off_zero(tau):
        # 0 at tau = 0, NaN elsewhere: inf * 0 from an overflowing square
        return (1e200 * tau) * (1e200 * tau) * (tau - tau)

    def test_singular_only_where_b_is_nan_gives_nan(self, det_calls):
        tau = variable(KS1, "tau")
        x = LinearFieldSystem([[tau - 1.0]], [constant(KS1, 2.0) + self.nan_off_zero(tau)]).components()[0]
        values = values_on_grid(x, [(0.0,), (1.0,)])
        assert values[0] == -2.0 and math.isnan(values[1])
        assert det_calls == [2]

    def test_first_point_finite_for_a_and_b_is_named(self):
        tau = variable(KS1, "tau")
        x = LinearFieldSystem([[tau * (tau - 1.0)]], [constant(KS1, 2.0) + self.nan_off_zero(tau)]).components()[0]
        with pytest.raises(SingularMatrixError) as exc:
            values_on_grid(x, [(1.0,), (0.5,), (0.0,)])
        assert str(exc.value) == "near-singular matrix (|det| = 0.000e+00) in pointwise solve at (0.0,)"

    def test_derivative_systems_share_the_matrix(self, det_calls):
        A = [
            [constant(KS2, 2.0), variable(KS2, "x")],
            [variable(KS2, "x"), constant(KS2, 3.0) + variable(KS2, "y")],
        ]
        b = [variable(KS2, "y"), constant(KS2, 1.0)]
        sol = LinearFieldSystem(A, b).components()
        # a converted grid, which keeps its arrays past a request (a list of points would not)
        grid = fields_mod._Grid.of([(0.4, -0.7), (0.1, 0.2), (-0.3, 0.5)])
        before = values_on_grid(sol, grid)
        assert det_calls == [3]
        derived = values_on_grid([sol[0].partial(0), sol[1].partial(1), sol[0].partial(1).partial(0)], grid)
        assert det_calls == [3]
        assert np.isfinite(before).all() and np.isfinite(derived).all()
        # a right-hand side solved alone against the same matrix at each point
        for k, (px, py) in enumerate(grid):
            direct = np.linalg.solve(np.array([[2.0, px], [px, 3.0 + py]]), np.array([py, 1.0]))
            assert before[:, k].tolist() == direct.tolist()
        assert det_calls == [3]

    def test_each_grid_assembles_its_own_stack(self, det_calls):
        x = LinearFieldSystem([[variable(KS1, "tau") + 2.0]], [constant(KS1, 1.0)]).components()[0]
        assert values_on_grid([x, x.partial(0)], [(0.0,), (2.0,)]).tolist() == [[0.5, 0.25], [-0.25, -0.0625]]
        assert values_on_grid([x, x.partial(0)], [(-1.0,)]).tolist() == [[1.0], [-1.0]]
        assert det_calls == [2, 1]


class TestDiagonalSolve:
    """``fields._diagonal_solve`` gives ``np.linalg.solve``'s bits for a
    diagonal matrix whose off-diagonal entries are +0.0, NaN payloads aside
    (no report prints one). A CI step runs this class again with every SIMD
    dispatch target off."""

    TINY = 2.2250738585072014e-308  # OpenBLAS's dgetrf scales by 1/pivot at or above it, and not below
    PIVOTS = [TINY, -TINY, 1e-308, -1e-308, 5e-324, -5e-324, 1e-300, -1e300, 1.7e308]
    RHS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7e308, math.inf, -math.inf]
    ENTRY = st.tuples(st.one_of(st.sampled_from(PIVOTS), st.floats(allow_nan=False, allow_infinity=False).filter(bool)),
                      st.one_of(st.sampled_from(RHS), st.floats(allow_nan=False)))

    @staticmethod
    def lapack(d, b, off=0.0):
        """``np.linalg.solve`` of each column: diagonal d, off-diagonals ``off``."""
        n, points = d.shape
        M = np.full((points, n, n), off)
        M[:, range(n), range(n)] = d.T
        return np.linalg.solve(M, b.T[:, :, None])[..., 0].T

    @staticmethod
    def mismatches(x, y):
        """The number of columns where x and y differ in a bit or in being NaN."""
        nan = np.isnan(x)
        differ = (nan != np.isnan(y)) | (~nan & (x.view(np.int64) != y.view(np.int64)))
        return int(differ.any(axis=0).sum())

    @staticmethod
    def every_combination(n, rhs, pivots):
        """(d, b): every diagonal of n pivots against every column of n right-hand sides."""
        B = np.array(list(itertools.product(rhs, repeat=n)), dtype=float).T
        D = np.array(list(itertools.product(pivots, repeat=n)), dtype=float).T
        return np.repeat(D, B.shape[1], axis=1), np.tile(B, (1, D.shape[1]))

    @pytest.mark.parametrize("n,combinations", [(1, 21), (3, 9261), (4, 194481)])
    def test_sign_grid_equals_lapack(self, n, combinations):
        # +-0 right-hand sides, an infinite one, quotients that overflow (1e308 / 1e-308)
        # and underflow (5e-324 / 2), and a pivot below the safe minimum
        d, b = self.every_combination(n, [0.0, -0.0, 1.5, -1.5, math.inf, 1e308, 5e-324], [2.0, -2.0, 1e-308])
        assert d.shape[1] == combinations
        with np.errstate(all="ignore"):
            assert self.mismatches(fields_mod._diagonal_solve(d, b), self.lapack(d, b)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pivots_below_the_safe_minimum_of_either_sign(self, n):
        # below 2.2e-308 OpenBLAS's dgetrf (unlike reference LAPACK's) leaves the +0.0
        # under the pivot as it is, so a negative subnormal pivot gives +0.0 there
        # where a normal one gives -0.0
        d, b = self.every_combination(n, [0.0, -0.0, 1.5, 1e308, -5e-324], [2.0, -2.0] + self.PIVOTS[:6])
        with np.errstate(all="ignore"):
            assert self.mismatches(fields_mod._diagonal_solve(d, b), self.lapack(d, b)) == 0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([1, 3, 4]).flatmap(
        lambda n, entry=ENTRY: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_equals_lapack(self, columns):
        # columns[k][i] is (pivot, right-hand side) of row i in column k
        d, b = np.array(columns, dtype=float).transpose(2, 1, 0)
        with np.errstate(all="ignore"):
            got, want = fields_mod._diagonal_solve(d, b), self.lapack(d, b)
        assert self.mismatches(got, want) == 0, (d.tolist(), b.tolist())

    def test_minus_zero_off_diagonals_stay_on_lapack(self):
        tau = variable(KS1, "tau")

        def matrix(off):
            return [[tau + (i + 1.0) if i == j else off for j in range(4)] for i in range(4)]

        assert _PointwiseMatrix(matrix(KS1.zero)).diagonal
        assert not _PointwiseMatrix(matrix(KS1.minus_zero)).diagonal
        d, b = self.every_combination(4, [0.0, -0.0, 1.5, -1.5], [2.0, -2.0])
        assert d.shape[1] == 4096
        want = self.lapack(d, b)
        assert self.mismatches(fields_mod._diagonal_solve(d, b), want) == 0
        # -0.0 off-diagonals change the signs of LAPACK's zeros
        assert self.mismatches(fields_mod._diagonal_solve(d, b), self.lapack(d, b, -0.0)) == 860
        # plain division, measured and rejected: it loses the signed zeros LAPACK adds in
        assert self.mismatches(b / d, want) == 2517

    def test_a_system_gives_lapack_bits_on_both_paths(self):
        tau = variable(KS1, "tau")
        zero = KS1.zero
        rows = [[tau - 0.5, zero, zero], [zero, constant(KS1, -2.0), zero], [zero, zero, tau + 1e-3]]
        # 1e308 / 1e-3 overflows in the last row, and its inf times a zero below the
        # diagonal spreads NaN up the column
        b = [_Table([-0.0, -0.0, 3.0]), _Table([0.0, 0.0, 1.5]), _Table([1e308, 7.0, -0.0])]
        grid = [(0.0,), (1.0,), (2.0,)]
        values = {}
        for diagonal in (True, False):
            holder = _PointwiseMatrix(rows)
            assert holder.diagonal
            holder.diagonal = diagonal
            values[diagonal] = values_on_grid(LinearFieldSystem(holder, b).components(), grid)
        assert TestSharedMatrix.hexes(values[True]) == TestSharedMatrix.hexes(values[False])
        assert np.isnan(values[True][:, 0]).any() and (np.signbit(values[True]) & (values[True] == 0.0)).any()


class TestBatchedSolve:
    """The systems of one group are solved in one call per grid, with the
    bits of separate solves: against a broadcast matrix, k single-column
    LAPACK systems equal k ``np.linalg.solve`` calls (one solve with k
    right-hand sides does not), and a diagonal group's columns side by side
    equal k ``_diagonal_solve`` calls. A CI step runs this class again with
    every SIMD dispatch target off."""

    POINTS, SYSTEMS = 200, 16

    @staticmethod
    def group(holder, rhs):
        """The systems of one group against ``holder``, one per (n, points) right-hand side."""
        group = []
        return [LinearFieldSystem(holder, [_Table(row) for row in b], group) for b in rhs]

    @staticmethod
    def calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or original(*args))
        return calls

    @pytest.mark.parametrize("constant_matrix", [False, True], ids=["random", "constant"])
    def test_lapack_group_equals_separate_solves(self, monkeypatch, constant_matrix):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((self.POINTS, 4, 4))
        if constant_matrix:  # the catalog's frame metrics are constant nodes
            M[:] = M[0]
        rhs = rng.standard_normal((self.SYSTEMS, 4, self.POINTS)) * rng.choice([1e-3, 1.0, 1e3], (self.SYSTEMS, 1, 1))
        rows = [[constant(KS1, M[0, i, j]) if constant_matrix else _Table(M[:, i, j]) for j in range(4)]
                for i in range(4)]
        holder = _PointwiseMatrix(rows)
        assert not holder.diagonal
        calls = self.calls(monkeypatch, np.linalg, "solve")
        systems = self.group(holder, rhs)
        grid = [(float(p),) for p in range(self.POINTS)]
        got = values_on_grid([x.components() for x in systems], grid)
        assert len(calls) == 1
        monkeypatch.undo()
        for x, b in zip(got, rhs):
            want = np.linalg.solve(M, b.T[:, :, None])[..., 0].T
            assert x.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_diagonal_group_equals_separate_diagonal_solves(self, monkeypatch):
        rng = np.random.default_rng(11)
        d = rng.choice([-1.0, 1.0], (4, self.POINTS)) * rng.uniform(0.5, 2.0, (4, self.POINTS))
        d[2, ::7] = 1e-3
        rhs = rng.standard_normal((self.SYSTEMS, 4, self.POINTS))
        rhs[3, :, ::5] = -0.0  # signed zeros take the replay
        rhs[4, 1, ::3] = -0.0
        rhs[9, 2, ::7] = 1e308  # 1e308 / 1e-3 overflows
        rhs[12, :, ::11] = 0.0
        zero = KS1.zero
        holder = _PointwiseMatrix([[_Table(d[i]) if i == j else zero for j in range(4)] for i in range(4)])
        assert holder.diagonal
        calls = self.calls(monkeypatch, fields_mod, "_diagonal_solve")
        systems = self.group(holder, rhs)
        grid = [(float(p),) for p in range(self.POINTS)]
        with np.errstate(all="ignore"):
            got = values_on_grid([x.components() for x in systems], grid)
        assert len(calls) == 1
        monkeypatch.undo()
        with np.errstate(all="ignore"):
            alone = [fields_mod._diagonal_solve(d, b) for b in rhs]
            assert TestDiagonalSolve.mismatches(alone[9], TestDiagonalSolve.lapack(d, rhs[9])) == 0
        assert not np.isfinite(alone[9]).all() and (np.signbit(alone[3]) & (alone[3] == 0.0)).any()
        for x, want in zip(got, alone):
            assert TestDiagonalSolve.mismatches(x, want) == 0

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "lapack"])
    def test_requested_system_first_and_siblings_when_requested(self, monkeypatch, diagonal):
        # the requested system is evaluated and checked first; a sibling joins its solve
        # only if its right-hand side evaluates and is finite at exactly the same points
        tau = variable(KS1, "tau")
        holder = _PointwiseMatrix([[tau * (tau - 1.0) + 2.0]])
        holder.diagonal = diagonal
        owner, name = (fields_mod, "_diagonal_solve") if diagonal else (np.linalg, "solve")
        calls = self.calls(monkeypatch, owner, name)
        group = []
        fine, raising, nan_at_1, also_nan_at_1 = (
            LinearFieldSystem(holder, [b], group).components()[0]
            for b in (tau, log(tau - 1.5), _Table([4.0, math.nan, 8.0]), _Table([2.0, math.nan, -0.0])))
        grid = [(0.0,), (1.0,), (2.0,)]
        assert values_on_grid(fine, grid).tolist() == [0.0, 0.5, 0.5]
        assert len(calls) == 1
        values = values_on_grid([nan_at_1, also_nan_at_1], grid)
        assert len(calls) == 2  # one call for both: NaN at the same point
        assert values[:, [0, 2]].tolist() == [[2.0, 2.0], [1.0, -0.0]] and np.isnan(values[:, 1]).all()
        for _ in range(2):  # left out of every batch, it raises when requested itself
            with pytest.raises(DomainError, match=r"log of nonpositive value -1.5 at \(0.0,\)"):
                values_on_grid(raising, grid)
        assert len(calls) == 2

    def test_singular_point_of_a_sibling_raises_when_it_is_requested(self):
        tau = variable(KS1, "tau")
        group = []
        nan_at_0 = LinearFieldSystem([[tau]], [_Table([math.nan, 2.0])], group)
        finite = LinearFieldSystem(nan_at_0._matrix, [_Table([1.0, 2.0])], group)
        grid = [(0.0,), (4.0,)]
        values = values_on_grid(nan_at_0.components(), grid)
        assert math.isnan(values[0, 0]) and values[0, 1] == 0.5
        with pytest.raises(SingularMatrixError, match=r"\|det\| = 0.000e\+00\) in pointwise solve at \(0.0,\)"):
            values_on_grid(finite.components(), grid)


class TestUnitLUSolve:
    """A constant matrix of +0.0, 1.0 and -1.0 entries whose LU factors off
    the diagonal are all +-0.0 or +-1.0 (every catalog frame metric) is
    solved by ``fields._substitute`` on ``fields._unit_lu``'s factors with
    ``np.linalg.solve``'s bits, NaN payloads aside: every product of the
    substitution is exact, so numpy's two roundings give OpenBLAS's fused
    one. A -0.0 entry or any other factor keeps a matrix on LAPACK. A CI
    step runs this class again with every SIMD dispatch target off."""

    VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -3.75]
    EXTREME = [1e308, -1e308, 1.7e308, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf]
    # a row swap and a pivot of 3, whose reciprocal is inexact
    PIVOT_3 = [[-1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, 1.0], [0.0, -1.0, 1.0, 1.0]]

    @staticmethod
    def holder(m):
        return _PointwiseMatrix([[constant(KS1, c) for c in row] for row in m])

    @classmethod
    def columns(cls, n):
        """Every column of n entries from VALUES (6^n), then every column from EXTREME (8^n)."""
        return np.concatenate([np.array(list(itertools.product(values, repeat=n))).T
                               for values in (cls.VALUES, cls.EXTREME)], axis=1)

    @staticmethod
    def lapack(m, b):
        return np.linalg.solve(np.broadcast_to(np.array(m), (b.shape[1], *np.shape(m))), b.T[:, :, None])[..., 0].T

    @staticmethod
    def substitute(lu, b):
        order, *factors = lu
        return fields_mod._substitute(b[order], *factors)

    @staticmethod
    def catalog_metrics():
        """The values of each distinct constant pointwise matrix that is not
        diagonal, over every catalog run at its default grid."""
        found, init = {}, _PointwiseMatrix.__init__

        def collect(self, rows):
            init(self, rows)
            if not self.diagonal and all(f.is_constant for row in self.rows for f in row):
                values = [[f.c for f in row] for row in self.rows]
                found[str(values)] = values

        with unittest.mock.patch.object(_PointwiseMatrix, "__init__", collect):
            for entry_id in catalog_ids():
                entry = load(entry_id)
                run_suite(entry, "all", grid_points(entry.data.kset, entry.grid_box))
        return list(found.values())

    def test_every_catalog_frame_metric_equals_lapack(self):
        metrics = self.catalog_metrics()
        assert sorted(metrics) == [  # planewave's, then every other entry's
            [[0.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
            [[0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]]
        b = self.columns(4)
        assert b.shape[1] == 6 ** 4 + 8 ** 4
        for m in metrics + [self.PIVOT_3]:
            lu = self.holder(m).lu
            assert lu is not None, m
            with np.errstate(all="ignore"):
                got, want = self.substitute(lu, b), self.lapack(m, b)
            assert TestDiagonalSolve.mismatches(got, want) == 0, m
        assert max(self.holder(self.PIVOT_3).lu[3]) == 3.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, -1.0]), min_size=16, max_size=16),
           st.lists(st.lists(st.one_of(st.sampled_from(EXTREME + VALUES), st.floats()), min_size=4, max_size=4),
                    min_size=1, max_size=8))
    def test_unit_entries_equal_lapack(self, entries, columns):
        m = [entries[i:i + 4] for i in range(0, 16, 4)]
        lu = fields_mod._unit_lu([[constant(KS1, c) for c in row] for row in m])
        if lu is None:  # singular, or a factor that is not a unit
            return
        b = np.array(columns, dtype=float).T
        with np.errstate(all="ignore"):
            got, want = self.substitute(lu, b), self.lapack(m, b)
        assert TestDiagonalSolve.mismatches(got, want) == 0, (m, b.tolist())

    def test_minus_zero_entry_stays_on_lapack(self):
        m = [[0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        lu = self.holder(m).lu
        m[0][0] = -0.0
        assert self.holder(m).lu is None
        # the +0.0 matrix's factors give other zeros and NaNs than LAPACK on the -0.0 one
        b = self.columns(4)
        with np.errstate(all="ignore"):
            assert TestDiagonalSolve.mismatches(self.substitute(lu, b), self.lapack(m, b)) == 96

    def test_non_unit_factor_stays_on_lapack(self):
        m = [[2.0, 0.3], [0.3, 1.0]]
        assert self.holder(m).lu is None
        # unit entries, but the second column's factor is -0.5
        assert self.holder([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 1.0]]).lu is None
        # OpenBLAS rounds y - x * 0.3 once: substituting the factors with two roundings misses
        b = np.random.default_rng(5).standard_normal((2, 20000))
        factor = 0.3 * (1.0 / 2.0)
        lu = [0, 1], [np.array([[factor]]), 0.0], [0.0, np.array([[0.3]])], [2.0, 1.0 - factor * 0.3]
        assert TestDiagonalSolve.mismatches(self.substitute(lu, b), self.lapack(m, b)) == 5885

    def test_a_system_gives_lapack_bits_on_both_paths(self):
        # a Koszul-like group against the planewave block: -0.0, inf and overflow at some points
        m = [[0.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        b = self.columns(4)
        w = b.shape[1] // 3
        values = {}
        for path in ("substitute", "lapack"):
            holder = self.holder(m)
            assert holder.lu is not None and not holder.diagonal
            if path == "lapack":
                holder.lu = None
            group = []
            systems = [LinearFieldSystem(holder, [_Table(row) for row in b[:, s * w:s * w + w]], group)
                       for s in range(3)]
            with np.errstate(all="ignore"):
                values[path] = values_on_grid([s.components() for s in systems], [(float(p),) for p in range(w)])
        assert TestSharedMatrix.hexes(values["substitute"].reshape(12, w)) == \
            TestSharedMatrix.hexes(values["lapack"].reshape(12, w))


class TestRemapAndFolds:
    def test_remap_variables(self):
        small = make_closed_form("sech(p + 2*q)^2", KSet(("p", "q")))
        big = remap(small, KSet(("tau", "p", "q")))
        assert big.at((9.9, 0.3, -0.1)) == pytest.approx(small.at((0.3, -0.1)))
        assert big.partial(0).at((9.9, 0.3, -0.1)) == 0.0
        assert big.partial(1).at((9.9, 0.3, -0.1)) == pytest.approx(small.partial(0).at((0.3, -0.1)))

    def test_shared_node_quotient_folds(self):
        # w'/w for w = e^tau collapses to the constant 1, so the ratio stays
        # evaluable far beyond the overflow range of w itself
        w = make_closed_form("exp(tau)", KS1)
        ratio = w.partial(0) / w
        assert ratio.is_constant
        assert ratio.at((1.0e6,)) == 1.0

    def test_self_quotient_folds_even_at_zero(self):
        # f/f of one shared node folds to 1, so it reads 1 where f = 0; the
        # fold is kept because w'/w above needs it. The parser builds a new
        # node for each occurrence of a name, so a written x/x does not fold.
        x = variable(KS2, "x")
        ratio = x / x
        assert ratio.is_constant
        assert ratio.at((0.0, 0.3)) == 1.0
        with pytest.raises(DomainError):
            make_closed_form("x/x", KS2).at((0.0, 0.3))

    def test_exp_product_quotient_folds(self):
        w = 2.0 * exp(variable(KS1, "tau") * 3.0)
        ratio = w.partial(0) / w
        assert ratio.is_constant
        assert ratio.at((0.0,)) == pytest.approx(3.0)


def _loop(acc, terms):
    """The accumulate loop that ``contract`` replaced: builds every term."""
    for sign, x, y in terms:
        acc = acc + x * y if sign > 0 else acc - x * y
    return acc


_X, _Y = variable(KS2, "x"), variable(KS2, "y")
# factors: constant zeros of both signs, nonzero constants, nonconstant fields
_REAL = [constant(KS2, 0.0), constant(KS2, -0.0), constant(KS2, 1.5), constant(KS2, -0.25),
         _X, _Y, _X * _Y + 0.5, 2.0 * _Y, constant(KS2, 1e-200)]
_COMPLEX = _REAL + [CScalarField(constant(KS2, 0.0), constant(KS2, -0.0)),
                    CScalarField(constant(KS2, -0.0), constant(KS2, 0.0)),
                    CScalarField(constant(KS2, 0.0), _Y), CScalarField(_X, constant(KS2, -2.0)),
                    CScalarField(_X, _Y)]
# starting accumulators: a constant zero accumulator is +0.0 (see ``contract``)
_ACC = [constant(KS2, 0.0), constant(KS2, 3.0), _X + _Y, CScalarField(constant(KS2, 0.0), constant(KS2, 0.0)),
        CScalarField(_Y, constant(KS2, 1.0))]
_GRID = [(0.3, -0.7), (0.0, 0.0), (-1.25, 2.0)]


def _hexes(field):
    values = np.asarray(values_on_grid(field, _GRID), dtype=complex).tolist()
    return [(float.hex(v.real), float.hex(v.imag)) for v in values]


@st.composite
def _tables(draw, pool):
    """An accumulator and (sign, x, y) terms; a drawn zero mask replaces
    factors by constant zeros."""
    zeros = st.sampled_from([0.0, -0.0]).map(lambda c: constant(KS2, c))
    zero_rows = draw(st.booleans())  # every x factor a constant zero
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if zero_rows or draw(st.booleans()):
            x = draw(zeros)
        if draw(st.booleans()):
            y = draw(zeros)
        terms.append((draw(st.sampled_from([1, -1])), x, y))
    return draw(st.sampled_from(_ACC if pool is _COMPLEX else _ACC[:3])), terms


class TestContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tables(_REAL))
    def test_real_values_equal_the_loop(self, table):
        acc, terms = table
        assert _hexes(contract(acc, terms)) == _hexes(_loop(acc, terms))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tables(_COMPLEX))
    def test_complex_values_equal_the_loop(self, table):
        acc, terms = table
        assert _hexes(contract(acc, terms)) == _hexes(_loop(acc, terms))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tables(_REAL), st.booleans())
    def test_array_twin_gives_the_bits_of_the_fields(self, table, from_zero):
        # the curvature tensor's sums: each factor a constant's value or a field's values
        _, terms = table
        acc = constant(KS2, 0.0) if from_zero else _X + _Y
        grid = fields_mod._Grid.of(_GRID)
        with np.errstate(all="ignore"):
            got = fields_mod._contract_arrays(None if from_zero else acc._values(grid),
                                              ((sign, *fields_mod._factors([x, y], grid)) for sign, x, y in terms))
        want = contract(acc, terms)
        if got is None:
            assert want is acc
        else:
            assert got.tobytes() == values_on_grid(want, grid).tobytes()

    def test_leading_subtracted_term_and_zero_rows(self):
        zero = constant(KS2, 0.0)
        negated = contract(zero, [(-1, _X, _Y), (1, zero, _X), (-1, constant(KS2, -0.0), _Y)])
        assert _hexes(negated) == _hexes(_loop(zero, [(-1, _X, _Y)])) == _hexes(-(_X * _Y))
        assert contract(zero, [(1, zero, _X), (-1, _Y, constant(KS2, -0.0))]) is zero

    def test_skipped_term_builds_nothing(self, monkeypatch):
        zero = constant(KS2, 0.0)
        terms = [(1, _Y, zero), (-1, _X * _Y, CScalarField(zero, constant(KS2, -0.0))), (1, zero, _Y)]
        monkeypatch.setattr(fields_mod, "_mul", lambda f, g: pytest.fail("a skipped term built its product"))
        assert contract(_X, terms) is _X

    def test_dd_derives_no_partial_where_the_derivative_table_is_zero(self):
        zero, one = constant(KS2, 0.0), constant(KS2, 1.0)
        g = [[one if a == b else zero for b in range(3)] for a in range(3)]
        C = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
        D = [[zero, zero], [one, zero], [zero, one]]
        S = FrameStructure(KS2, ("e0", "e1", "e2"), g, C, D)
        f = _X * _Y + _Y
        assert S.dd(0, f).is_constant and f._cache == {}
        S.dd(1, f)
        assert list(f._cache) == [0]


class TestSugar:
    """Operator branches that no catalog run takes."""

    def test_reflected_subtraction(self):
        f = 2.0 - variable(KS2, "x")
        assert f.at((0.5, 0.0)) == 1.5
        assert f.partial(0).at((0.5, 0.0)) == -1.0

    def test_field_exponent(self):
        # x^y is exp(y * log(x)), one rounding off 8 at (2, 3)
        parsed = make_closed_form("x^y", KS2)
        assert parsed.at((2.0, 3.0)) == 7.999999999999998
        assert (variable(KS2, "x") ** variable(KS2, "y")).at((2.0, 3.0)) == 7.999999999999998

    def test_zeroth_power_is_one(self):
        for f in (variable(KS2, "x") ** 0, make_closed_form("x^0", KS2)):
            assert f.is_constant and f.c == 1.0

    def test_repr(self):
        assert repr(constant(KS1, 2.5)) == "Const(2.5)"
        assert repr(variable(KS2, "y")) == "Var('y')"


def _arrays(f):
    return [v for v in f._cache.values() if isinstance(v, np.ndarray)]


class TestReaders:
    """A node keeps its array for a converted grid only while a later read may
    need it: unless exactly one node, matrix or system was built to read it.
    The reader tests pass a converted grid: a one-off grid (points that the
    request converts itself) keeps no array past its request."""

    def test_one_reader_keeps_no_array(self):
        u = variable(KS2, "x") * variable(KS2, "y")
        v = u + 1.0
        values_on_grid(v, fields_mod._Grid.of(_GRID))
        assert u._readers == 1 and _arrays(u) == []
        assert len(_arrays(v)) == 1

    def test_two_readers_keep_the_array(self):
        u = variable(KS2, "x") * variable(KS2, "y")
        values_on_grid(u * u, fields_mod._Grid.of(_GRID))
        assert u._readers == 2 and len(_arrays(u)) == 1

    def test_contract_result_keeps_the_array(self):
        c = contract(constant(KS2, 0.0), [(1, variable(KS2, "x"), variable(KS2, "y"))])
        values_on_grid(c + 1.0, fields_mod._Grid.of(_GRID))
        assert c._readers == 2 and len(_arrays(c)) == 1

    def test_later_reader_recomputes_the_same_bits(self):
        x, y = variable(KS2, "x"), variable(KS2, "y")
        u = exp(x) / (1.0 + y * y) + sin(x * y)
        grid = fields_mod._Grid.of(_GRID)
        values_on_grid(u + 1.0, grid)
        before = [float.hex(v) for v in values_on_grid(u, grid)]
        assert _arrays(u) == []
        w = u * u  # two more readers, built after the array was dropped
        after = [float.hex(v) for v in values_on_grid(u, grid)]
        assert len(_arrays(u)) == 1 and after == before
        assert [float.hex(v) for v in values_on_grid(w, grid)] == [
            float.hex(v * v) for v in map(float.fromhex, before)]

    def test_domain_error_in_a_one_reader_node_names_the_first_point(self):
        u = log(variable(KS2, "x"))
        v = u * variable(KS2, "y")
        grid = [(1.0, 1.0), (-0.5, 2.0), (-2.0, 3.0)]
        for _ in range(2):  # nothing was kept, so the second evaluation fails the same way
            with pytest.raises(DomainError, match=r"log of nonpositive value -0.5 at \(-0.5, 2.0\)"):
                values_on_grid(v, grid)
        assert u._readers == 1 and _arrays(u) == [] and _arrays(v) == []

    def test_arrays_left_after_a_run(self):
        # with gc disabled, the nodes of a warped_alpha0 run on its 5 catalog
        # samples stay alive in their reference cycles: 1,147 arrays when every
        # node kept every array, 264 when a product whose merged constant
        # factor was 1.0 built a node, 259 when each read of d_a g_bc and
        # g(e_u, [e_v, e_w]) built its own field, 234 when dg derived an induced
        # metric's g_kk, the node g_TT, again, 231 when the grids of requests on
        # points (not on a converted grid) kept their arrays. A row of a pointwise solve or of the
        # curvature tensor is a view of its holder's array, which owns the
        # data, so views are not counted
        def arrays():
            return sum(v.base is None for o in gc.get_objects() if isinstance(o, ScalarField)
                       for v in _arrays(o))

        gc.collect()
        before = arrays()
        gc.disable()
        try:
            entry = load("warped_alpha0")
            run_suite(entry, "all", grid_points(entry.data.kset, entry.grid_box))
            del entry
            assert arrays() - before == 196
        finally:
            gc.enable()
            gc.collect()


class TestOneOffGrids:
    """A request on points that it converts itself (a list or an array: a
    one-off grid) keeps no array past its return, under its grid's key or a
    key of the grid's projections and remaps, also when it raises. A grid
    that the caller converted keeps its arrays for the requests after it."""

    @pytest.fixture
    def request_grids(self, monkeypatch):
        """Every grid built while the fixture is active."""
        grids = []
        init = fields_mod._Grid.__init__

        def recorded(self, *args):
            init(self, *args)
            grids.append(self)

        monkeypatch.setattr(fields_mod._Grid, "__init__", recorded)
        return grids

    @staticmethod
    def chain_request():
        """(fields, points): the ppwave-sech Kahler chain's Ricci rows (a
        curvature tensor), scalar curvature and Koszul coefficients (pointwise
        solves), and a remapped field of tau; the twist reads x alone, so
        the request runs on a projection of its 48 points."""
        entry = load("ppwave", iota="-2*sech(x)^2")
        chain = build_chain(entry.data)
        u = exp(variable(KS1, "tau"))
        moved = remap(u * u, entry.data.kset)  # the inner product reads u twice: u keeps its array
        rows = (chain.curv.ricci, chain.conn.gamma[0], chain.conn.gamma[2], chain.ric)
        fields = [f for table in rows for row in table for f in row] + [chain.curv.scalar, moved]
        return fields, grid_points(entry.data.kset, entry.grid_box)

    @staticmethod
    def kept(keys):
        """The type of every node, matrix, system or curvature tensor that
        holds an entry under one of the grid keys."""
        kinds = (ScalarField, _PointwiseMatrix, LinearFieldSystem, frames_mod.CurvatureTensor)
        return [type(o).__name__ for o in gc.get_objects() if isinstance(o, kinds)
                for key in o._cache if key in keys]

    @pytest.mark.parametrize("request_fn", [values_on_grid, max_abs_on_grid])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_request_on_points_keeps_no_array(self, request_grids, request_fn, as_array):
        fields, points = self.chain_request()
        request_grids.clear()
        request_fn(fields, np.array(points) if as_array else points)
        one_off = request_grids[0]
        assert one_off.filled and all(g.filled is one_off.filled for g in request_grids)
        # the projection (x and tau, not y) and the remap (tau alone) are grids of the request
        assert sorted(len(g.cols) for g in request_grids) == [1, 3, 3]
        assert self.kept({g.key for g in request_grids}) == []

    @pytest.mark.parametrize("as_array", [False, True])
    def test_curvature_reduction_on_points_keeps_no_array(self, request_grids, as_array):
        # ke's flatness probe reads max |R| on 9 listed points; the tensor and the
        # Koszul systems kept their arrays when the tensor converted points itself
        entry = load("ppwave", iota="-2*sech(x)^2")
        curv = build_chain(entry.data).curv
        points = grid_points(entry.data.kset, entry.grid_box)
        request_grids.clear()
        assert curv.max_component(np.array(points) if as_array else points) > 0.0
        filled = request_grids[0].filled
        assert any(cache is curv._cache for cache, _ in filled)  # the tensor's rows were noted
        assert all(g.filled is filled for g in request_grids)
        assert self.kept({g.key for g in request_grids}) == []

    def test_domain_error_keeps_no_array(self, request_grids):
        fields, points = self.chain_request()
        bad = log(variable(fields[-1].kset, "tau") - 0.25)  # log of a nonpositive value at tau = -0.5
        request_grids.clear()
        with pytest.raises(DomainError, match=r"log of nonpositive value -0.75 at \(-0.5, -0.6, -0.6\)"):
            values_on_grid([*fields, bad], points)
        assert request_grids[0].filled  # arrays were cached before the error
        assert self.kept({g.key for g in request_grids}) == []
        with pytest.raises(DomainError):
            min_on_grid(bad, points)
        assert self.kept({g.key for g in request_grids}) == []

    def test_converted_grid_reuses_its_arrays(self, request_grids, det_calls):
        fields, points = self.chain_request()
        values_on_grid(fields, points)
        per_request = len(det_calls)
        assert per_request > 0
        values_on_grid(fields, points)
        assert len(det_calls) == 2 * per_request  # points: every stack assembled again
        request_grids.clear()
        grid = fields_mod._Grid.of(points)
        assert grid.filled is None
        first = values_on_grid(fields, grid)
        assert len(det_calls) == 3 * per_request
        again = values_on_grid(fields, grid)
        assert len(det_calls) == 3 * per_request and again.tobytes() == first.tobytes()
        assert {"_Elementary", "_Row", "_PointwiseMatrix", "LinearFieldSystem", "CurvatureTensor"} <= set(
            self.kept({g.key for g in request_grids}))

    def test_at_keeps_its_one_point_arrays(self):
        # bench/spans.py reads every builder output with ``at`` at every point, and
        # relies on sharing between those calls: a field at a point is computed once
        fields, points = self.chain_request()
        row = fields[0]
        assert _arrays(row) == []
        first = row.at(points[5])
        assert len(_arrays(row)) == 1 and row.at(points[5]) == first


class TestSharedConstants:
    """Each k-set holds one +0.0, one -0.0 and one -1.0 node; a constant
    fold that gives a zero returns the shared node of its sign instead of a
    new node."""

    def test_positive_zero_fold_is_the_shared_zero(self):
        two, x = constant(KS2, 2.0), variable(KS2, "x")
        assert (two - two) is KS2.zero
        assert (two * constant(KS2, 0.0)) is KS2.zero
        assert (0.0 * x) is KS2.zero and (x * -0.0) is KS2.zero
        assert x.partial(1) is KS2.zero and constant(KS2, 3.0).partial(0) is KS2.zero

    @pytest.mark.parametrize("fold", [
        lambda: constant(KS2, -1.0) * constant(KS2, 0.0),
        lambda: constant(KS2, -0.0) + constant(KS2, -0.0),
        lambda: constant(KS2, -0.0) - constant(KS2, 0.0),
        lambda: make_closed_form("-0", KS2),
    ])
    def test_negative_zero_fold_keeps_its_own_node(self, fold):
        # its own node apart from the +0.0 zero: the k-set's shared -0.0 (a new node each
        # fold before, 158 of them in a ppwave-sech 3x8x8 run)
        f = fold()
        assert f.is_constant and f is KS2.minus_zero and f is not KS2.zero
        assert f.c == 0.0 and math.copysign(1.0, f.c) == -1.0
        assert math.copysign(1.0, f.at((0.0, 0.0))) == -1.0

    def test_negation_reads_the_shared_minus_one(self):
        x = variable(KS2, "x")
        assert (-x).f is KS2.minus_one and (0.0 - x).f is KS2.minus_one

    def test_tau_kset_constants_keep_nothing_across_runs(self, tmp_path):
        # warped families live over the module-level TAU_KSET, whose shared constants
        # outlive every run: they must not memoize a run's node or array
        entry = load("warped_alpha0")
        assert run_suite(entry, "all", grid_points(entry.data.kset, entry.grid_box))[0].passed
        assert main(["ke", "--family", "alpha_minus2", "--interval=0.05:1.0", "--n", "50",
                     "--out", str(tmp_path / "fam.csv")]) == 0
        # the literal 0 is the shared zero, and sqrt, which has a domain test, keeps its node
        assert values_on_grid(make_closed_form("1 + sqrt(0) * tau", TAU_KSET), [(0.5,)]).tolist() == [1.0]
        for shared in (TAU_KSET.zero, TAU_KSET.minus_zero, TAU_KSET.minus_one):
            kept = list(shared._cache.values())
            assert not any(type(v).__name__ == "_Elementary" or isinstance(v, np.ndarray) for v in kept)
            assert all(v is TAU_KSET.zero for v in kept)  # only its partials
