"""Scalar-field algebra: parser, exact partials, solves, complex fields."""

import functools
import math
import operator
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frame_kahler import fields as fields_mod
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
    guarded,
    log,
    log_abs,
    make_closed_form,
    remap,
    sqrt,
    variable,
)

from frame_kahler.frames import FrameStructure, values_on_grid

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

    def test_guard(self):
        f = guarded(variable(KS1, "tau"), lambda cols: cols[0] > 0.0, "tau > 0")
        assert f.at((2.0,)) == 2.0
        with pytest.raises(DomainError):
            f.at((-2.0,))
        # the guard survives differentiation
        with pytest.raises(DomainError):
            f.partial(0).at((-2.0,))
        # a predicate returning a Python bool is read as one for every point
        with pytest.raises(DomainError):
            guarded(variable(KS1, "tau"), lambda cols: False, "never").at((1.0,))

    def test_guard_walks_each_grid_once(self):
        # each guarded node calls the predicate once per grid, on the grid's
        # columns (5 point calls when a shared guard walked the points, 15
        # when each node walked them)
        calls = []

        def positive(cols):
            calls.append(cols[0].tolist())
            return cols[0] > 0.0

        f = guarded(variable(KS1, "tau") ** 3, positive, "tau > 0")
        grid = [(0.5,), (1.0,), (1.5,), (2.0,), (2.5,)]
        for field in (f, f.partial(0), f.partial(0).partial(0)):
            values_on_grid(field, grid)
            values_on_grid(field, grid)
        assert calls == [[0.5, 1.0, 1.5, 2.0, 2.5]] * 3

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


class TestComplexFields:
    @settings(max_examples=40, deadline=None)
    @given(st.complex_numbers(max_magnitude=3), st.complex_numbers(max_magnitude=3))
    def test_matches_python_complex(self, z1, z2):
        f1 = CScalarField(constant(KS1, z1.real), constant(KS1, z1.imag))
        f2 = CScalarField(constant(KS1, z2.real), constant(KS1, z2.imag))
        pt = (0.0,)
        assert (f1 + f2).at(pt) == pytest.approx(z1 + z2)
        assert (f1 * f2).at(pt) == pytest.approx(z1 * z2)

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
        (lambda: guarded(variable(KS1, "tau"), lambda cols: cols[0] > 0.0, "tau > 0"),
         [(1.0,), (0.5,), (0.0,)], DomainError, "point (0.0,) violates domain guard: tau > 0"),
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
        assert guarded(variable(self.KS3, "x"), lambda cols: cols[1] > 0.0, "x > 0")._mask == 0b111

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
    stack per grid, and each distinct right-hand side is solved once."""

    @pytest.fixture
    def det_calls(self, monkeypatch):
        calls = []
        det = np.linalg.det

        def counted(a):
            calls.append(len(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        return calls

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    @staticmethod
    def hexes(values):
        return [[float.hex(v) for v in row] for row in np.asarray(values).tolist()]

    def test_bit_equal_right_hand_sides_share_one_solve(self, solve_calls):
        def A():
            x, y = variable(KS2, "x"), variable(KS2, "y")
            return [[constant(KS2, 2.0), x], [x, constant(KS2, 3.0) + y]]

        x, y = variable(KS2, "x"), variable(KS2, "y")
        # distinct nodes, equal values: x*y = y*x and y+1 = 1+y exactly
        b1 = [x * y, y + 1.0]
        b2 = [y * x, constant(KS2, 1.0) + y]
        assert b1[0] is not b2[0] and b1[1] is not b2[1]
        grid = [(0.4, -0.7), (0.1, 0.2), (-0.3, 0.5), (0.0, 0.0)]
        holder = _PointwiseMatrix(A())
        shared = values_on_grid([LinearFieldSystem(holder, b1).components(),
                                 LinearFieldSystem(holder, b2).components()], grid)
        assert solve_calls == [4]
        alone = values_on_grid([LinearFieldSystem(A(), b1).components(),
                                LinearFieldSystem(A(), b2).components()], grid)
        assert solve_calls == [4, 4, 4]
        assert self.hexes(shared[0]) == self.hexes(alone[0]) == self.hexes(alone[1])
        assert self.hexes(shared[1]) == self.hexes(alone[1])

    def test_signed_zeros_solve_apart(self, solve_calls):
        holder = _PointwiseMatrix([[variable(KS1, "tau") + 2.0]])
        plus = LinearFieldSystem(holder, [_Table([0.0, 1.0])]).components()[0]
        minus = LinearFieldSystem(holder, [_Table([-0.0, 1.0])]).components()[0]
        values = values_on_grid([plus, minus], [(0.0,), (2.0,)])
        assert solve_calls == [2, 2]
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
        holder = _PointwiseMatrix([[variable(KS1, "tau") + 2.0]])
        x1 = LinearFieldSystem(holder, [_Table(b1)]).components()[0]
        x2 = LinearFieldSystem(holder, [_Table(b2)]).components()[0]
        values = values_on_grid([x1, x2], [(0.0,), (2.0,)])
        assert solve_calls == [2 - math.isnan(first), 1]
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
        grid = [(0.4, -0.7), (0.1, 0.2), (-0.3, 0.5)]
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

    def test_digest_collision_is_solved_apart(self, monkeypatch, solve_calls):
        # every right-hand side gets the same digest; only the bitwise
        # comparison keeps distinct ones apart
        monkeypatch.setattr(fields_mod, "zlib", types.SimpleNamespace(crc32=lambda data: 0))
        holder = _PointwiseMatrix([[variable(KS1, "tau") + 2.0]])
        xs = [LinearFieldSystem(holder, [_Table(b)]).components()[0] for b in ([1.0, 2.0], [1.0, 4.0], [1.0, 2.0])]
        values = values_on_grid(xs, [(0.0,), (2.0,)])
        assert solve_calls == [2, 2]
        assert values.tolist() == [[0.5, 0.5], [0.5, 1.0], [0.5, 0.5]]

    def test_each_grid_assembles_its_own_stack(self, det_calls):
        x = LinearFieldSystem([[variable(KS1, "tau") + 2.0]], [constant(KS1, 1.0)]).components()[0]
        assert values_on_grid([x, x.partial(0)], [(0.0,), (2.0,)]).tolist() == [[0.5, 0.25], [-0.25, -0.0625]]
        assert values_on_grid([x, x.partial(0)], [(-1.0,)]).tolist() == [[1.0], [-1.0]]
        assert det_calls == [2, 1]


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
        x = x() if callable(x) else x
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
    factors by constant zeros, and some x factors come as builders."""
    zeros = st.sampled_from([0.0, -0.0]).map(lambda c: constant(KS2, c))
    zero_rows = draw(st.booleans())  # every x factor a constant zero
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if zero_rows or draw(st.booleans()):
            x = draw(zeros)
        if draw(st.booleans()):
            y = draw(zeros)
        if draw(st.booleans()):
            x = functools.partial(lambda f: f, x)
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

    def test_leading_subtracted_term_and_zero_rows(self):
        zero = constant(KS2, 0.0)
        negated = contract(zero, [(-1, _X, _Y), (1, zero, _X), (-1, constant(KS2, -0.0), _Y)])
        assert _hexes(negated) == _hexes(_loop(zero, [(-1, _X, _Y)])) == _hexes(-(_X * _Y))
        assert contract(zero, [(1, zero, _X), (-1, _Y, constant(KS2, -0.0))]) is zero

    def test_skipped_term_builds_nothing(self):
        def unbuilt():
            raise AssertionError("a skipped factor was built")

        zero = constant(KS2, 0.0)
        assert contract(_X, [(1, unbuilt, zero), (-1, unbuilt, CScalarField(zero, constant(KS2, -0.0)))]) is _X

    def test_dd_derives_no_partial_where_the_derivative_table_is_zero(self):
        zero, one = constant(KS2, 0.0), constant(KS2, 1.0)
        g = [[one if a == b else zero for b in range(3)] for a in range(3)]
        C = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
        D = [[zero, zero], [one, zero], [zero, one]]
        S = FrameStructure(KS2, ("e0", "e1", "e2"), g, C, D)
        f = _X * _Y + _Y
        assert S.dd(0, f).is_constant and f._derived == {}
        S.dd(1, f)
        assert list(f._derived) == [0]
