"""Scalar-field algebra over a small independent-variable set.

Every coefficient entering the frame computations (metric values, bracket
coefficients, warping and parameter functions, twists) is a ``ScalarField``:
a real-valued function of at most three named variables that can produce
the field of any first partial derivative *exactly*.  Derivative fields are
built structurally (sum/product/chain/quotient rules), so repeated frame
differentiation -- connection coefficients, curvature tensors, Ricci forms
and their exterior derivatives -- stays free of finite-difference noise.
No field is finite-differenced. Finite differences appear only as
independent oracles: in the test suite, and in
``catalog.coordinate_crosscheck``, which differences a coordinate chart.

Elementary functions and numeric powers go through one node class,
``_Elementary``, and one row type, ``_Fn``: each row holds the value, the
domain tests and the derivative rule of one function, and for sin, cos and
sqrt its whole-array ufunc. ``_ELEMENTARY`` holds the elementary functions
(exp, log, sin, ...) by name, and ``_apply`` builds one node per function
and argument node; ``_power(p)`` builds the row of ``f ** p`` for a numeric
exponent. ``_evaluate`` applies a row, and is the one failure path: a
domain test that fails, or a ``math`` function that raises (``math.exp``
overflowing, ``math.sin`` of inf), raises ``DomainError`` naming the first
grid point where it does. A constant argument folds through the same path,
except that a named function with a domain test keeps its node.

Evaluation is whole-grid: a grid of points becomes one column per variable
(``_Grid``), and each node computes one array of values over the grid,
memoized in its ``_cache`` under the grid's key, so shared subexpressions
(the pointwise connection solves in particular) are computed once per grid.
``values_on_grid`` is the one evaluation function: it converts the points
unless it is given a converted grid, which it takes as it is. A run
converts each of its grids once and passes the converted grid on, so all
its nodes share one key object; ``at(point)`` computes one field on a
one-point grid, a convenience for tests and prompts. Each node's ``_mask``
has a bit for each variable it reads: none for a constant, its own for a
variable, the union of the operands' for an operation, the matrix's and
right-hand side's for a solve, and every variable for any other node (a
guarded field, say). ``values_on_grid`` evaluates a request on the grid's
``projection`` onto the union of its fields' masks: the points that are
distinct in those variables, bit for bit, kept whole and in the order of
their first occurrence, so that an error names the point a scan in grid
order meets first. It then expands the values back to every point. With a
twist in x alone, ppwave on 3x16x16 points evaluates 48 (tau, x) pairs.
``+ - * /`` run as numpy operations with floating-point errors ignored, as
Python floats overflow silently to inf or NaN; sin, cos and sqrt apply
numpy's ufunc to the whole array, which gives ``math``'s bits with and
without SIMD dispatch; the other elementary functions and powers apply
``math`` per element, as their ufuncs differ from it in the last bit on a
share of inputs (with SIMD dispatch; ``np.power`` also without); a
pointwise solve is one stacked ``np.linalg.solve``. Each
distinct pointwise matrix is assembled and det-checked once per grid, in
one holder shared by every solve against it (derivative systems included);
each distinct right-hand side is solved once (the holder finds it by its
CRC-32 and reuses it only on a bit-for-bit match), but on its own,
because one solve with many right-hand sides differs from separate solves
in the last bits. A
domain violation raises ``DomainError`` naming the first grid point where
that node fails; a domain guard (``guarded``) is a predicate over the
grid's columns, tested once per grid by each guarded node. Fields are
immutable after construction. Every sum of products over a frame index
goes through ``contract``, which never builds a term that is zero by
construction.

Each node calls ``ScalarField.__init__`` by name, once (on CPython 3.11 a
zero-argument ``super()`` nearly doubles a small node's cost); ``_add``,
``_sub`` and ``_mul`` fill in ``_Add``, ``_Sub`` and ``_Mul``, which have no
constructor. ``bench/spans.py`` counts nodes by wrapping that constructor,
so every node must run it until ROADMAP item 1 replaces ``spans.py``.
"""

from __future__ import annotations

import ast
import itertools
import math
import re as _re
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "KSet",
    "ScalarField",
    "CScalarField",
    "FieldError",
    "DomainError",
    "ExpressionError",
    "SingularMatrixError",
    "LinearFieldSystem",
    "constant",
    "variable",
    "make_closed_form",
    "exp",
    "log",
    "log_abs",
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
    "tanh",
    "sech",
    "sqrt",
    "remap",
    "guarded",
    "determinant",
    "values_on_grid",
]

# A pointwise solve whose matrix has |det| at or below this floor raises.
MIN_ABS_DET = 1e-10


class FieldError(Exception):
    """Base error for scalar-field construction and evaluation."""


class DomainError(FieldError):
    """Evaluation was requested outside a field's domain (log of a
    nonpositive value, fractional power of a negative base, a guarded
    region, a degenerate denominator)."""


class SingularMatrixError(FieldError):
    """A pointwise linear solve met a (near-)singular matrix."""


class ExpressionError(FieldError):
    """A closed-form expression failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class KSet:
    """Ordered set of independent-variable names; at most three variables."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) > 3:
            raise ValueError("a k-set holds at most 3 variables, got %d" % len(names))
        if len(set(names)) != len(names):
            raise ValueError("k-set variable names must be distinct: %r" % (names,))
        for nm in names:
            if not isinstance(nm, str) or not nm:
                raise ValueError("k-set variable names must be nonempty strings")
        # every variable's bit: what a field reads unless it sets a smaller mask
        object.__setattr__(self, "mask", (1 << len(names)) - 1)

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError("unknown variable name %r (k-set has %r)" % (name, self.names)) from None


class _Grid:
    """Evaluation points as columns: ``cols[i]`` holds variable i at every
    point. ``key`` identifies the grid by value, so that every node keeps
    one array per grid whichever call built the grid. A run converts its
    points once and passes the grid, which ``of`` returns unchanged, so its
    nodes share one key object. ``len(grid)``, iteration and ``grid[i]``
    give its points, each a tuple of Python floats (as errors name a
    point)."""

    __slots__ = ("cols", "n", "key", "_projections")

    def __init__(self, cols):
        self.cols = cols
        self.n = cols.shape[1]
        self.key = (self.n, cols.tobytes())
        self._projections = {}

    @classmethod
    def of(cls, points):
        """The grid of k-tuples or of an (N, k) array, or the grid itself.
        An empty grid gets an empty column for each of the (at most 3)
        variables any field reads."""
        if isinstance(points, _Grid):
            return points
        k = len(points[0]) if len(points) else 3
        return cls(np.ascontiguousarray(np.array(points, dtype=float).reshape(len(points), k).T))

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return tuple(self.cols[:, i].tolist())

    def __iter__(self):
        return map(tuple, self.cols.T.tolist())

    def remapped(self, mapping):
        """The grid of a field whose i-th variable is this grid's mapping[i]."""
        return _Grid(self.cols[list(mapping)])

    def projection(self, mask):
        """(grid, inverse): the points whose values in the variables of
        ``mask`` are distinct, compared bit for bit (so 0.0 and -0.0 differ),
        as whole points in the order of their first occurrence, and the index
        of each of this grid's points in it; (self, None) when the mask reads
        every variable or no point repeats. Memoized per mask, so every
        request reading the same variables shares one grid key; the memo
        holds () for the grid itself, as a reference to the grid would make a
        cycle that keeps its columns until a garbage collection."""
        got = self._projections.get(mask)
        if got is None:
            read = [i for i in range(len(self.cols)) if mask >> i & 1]
            got = ()
            if len(read) < len(self.cols):
                if not read:  # every point has the values of the first (a zero-stride index)
                    first, inverse = [0], np.broadcast_to(0, self.n)
                else:
                    # a dict keeps first occurrences in order; np.unique(axis=0) would sort,
                    # and its first call alone raised peak RSS by ~0.3 MB
                    ids, first, inverse = {}, [], []
                    for i, key in enumerate(map(tuple, self.cols[read].T.view(np.int64).tolist())):
                        if key not in ids:
                            ids[key] = len(first)
                            first.append(i)
                        inverse.append(ids[key])
                if len(first) < self.n:
                    got = (_Grid(self.cols[:, first]), np.asarray(inverse))
            self._projections[mask] = got
        return got or (self, None)


def _listed(fields):
    """``fields`` with every nested iterable read into a new list (a
    generator can be read once), and the mask of the variables its fields
    read."""
    if isinstance(fields, ScalarField):
        return fields, fields._mask
    if isinstance(fields, CScalarField):
        return fields, fields.re._mask | fields.im._mask
    items, mask = [], 0
    for f in fields:
        f, m = _listed(f)
        items.append(f)
        mask |= m
    return items, mask


def _values_of(fields, grid):
    """The values of a field, or the lists that ``_listed`` made with each
    field replaced by its values: a field that only this request holds (one
    a generator built, say) is freed once it is evaluated."""
    if isinstance(fields, (ScalarField, CScalarField)):
        return fields._values(grid)
    for i, f in enumerate(fields):
        fields[i] = _values_of(f, grid)
    return fields


def values_on_grid(fields, grid) -> np.ndarray:
    """Values over the grid (a list of k-tuples, an (N, k) float array, or a
    grid converted once by ``_Grid.of``, which passes through) of one real
    or complex field, or of every field in a nested iterable of them: an
    array with the nesting's shape plus a last axis over the grid.
    Arithmetic overflow and invalid operations give inf and NaN silently, as
    with Python floats. The fields are evaluated on the grid's projection
    onto the variables they read, and the values are expanded back to every
    point."""
    fields, mask = _listed(fields)
    grid, inverse = _Grid.of(grid).projection(mask)
    with np.errstate(all="ignore"):
        out = np.array(_values_of(fields, grid))
    # np.take, not out[..., inverse]: a strided result changes the bits of a later np.dot
    return out if inverse is None else np.take(out, inverse, axis=-1)


class ScalarField:
    """Function of the k-set variables with exact partials of every order.

    Subclasses implement ``_compute`` (the array of values over a ``_Grid``)
    and ``_derive`` (construct the field of the i-th first partial).
    ``_derived`` memoizes the fields derived from this one: ``partial`` keys
    its derivatives by index, ``_apply`` its elementary functions by name.
    ``_values`` memoizes the arrays. ``_mask`` has bit i set when the values
    may depend on variable i: every variable, unless the node's constructor
    (or ``_add``, ``_sub``, ``_mul``) sets a smaller mask after this one.
    """

    __slots__ = ("kset", "_derived", "_cache", "_mask")

    is_constant = False

    def __init__(self, kset: KSet):
        self.kset = kset
        self._derived = {}
        self._cache = {}
        self._mask = kset.mask

    # evaluation ----------------------------------------------------------

    def at(self, point) -> float:
        """The value at one point, on a one-point grid."""
        with np.errstate(all="ignore"):
            return self._values(_Grid.of([point])).item()

    def _values(self, grid):
        got = self._cache.get(grid.key)
        if got is None:
            got = self._compute(grid)
            self._cache[grid.key] = got
        return got

    def _compute(self, grid):  # pragma: no cover - abstract
        raise NotImplementedError

    # derivatives ---------------------------------------------------------

    def partial(self, i: int) -> "ScalarField":
        got = self._derived.get(i)
        if got is None:
            if not 0 <= i < max(len(self.kset.names), 1):
                raise IndexError("partial index %d out of range for k-set %r" % (i, self.kset.names))
            got = self._derive(i)
            self._derived[i] = got
        return got

    def _derive(self, i):  # pragma: no cover - abstract
        raise NotImplementedError

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other, self.kset)
        return NotImplemented if o is None else _add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other, self.kset)
        return NotImplemented if o is None else _sub(self, o)

    def __rsub__(self, other):
        o = _coerce(other, self.kset)
        return NotImplemented if o is None else _sub(o, self)

    def __mul__(self, other):
        if isinstance(other, ScalarField) and other.kset is self.kset:
            return _mul(self, other)
        if isinstance(other, complex) and not isinstance(other, (int, float)):
            return CScalarField(_mul(self, constant(self.kset, other.real)),
                                _mul(self, constant(self.kset, other.imag)))
        o = _coerce(other, self.kset)
        return NotImplemented if o is None else _mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other, self.kset)
        return NotImplemented if o is None else _div(self, o)

    def __rtruediv__(self, other):
        o = _coerce(other, self.kset)
        return NotImplemented if o is None else _div(o, self)

    def __neg__(self):
        return _mul(constant(self.kset, -1.0), self)

    def __pow__(self, p):
        if isinstance(p, (int, float)):
            return _pow(self, float(p))
        o = _coerce(p, self.kset)
        if o is None:
            return NotImplemented
        if o.is_constant:
            return _pow(self, o.c)
        return exp(o * log(self))


def _coerce(x, kset: KSet):
    if isinstance(x, ScalarField):
        if x.kset is not kset and x.kset.names != kset.names:
            raise FieldError("fields over different k-sets: %r vs %r" % (x.kset.names, kset.names))
        return x
    if isinstance(x, (int, float)):
        return Const(kset, float(x))
    return None


# concrete nodes ------------------------------------------------------------


class Const(ScalarField):
    __slots__ = ("c",)

    is_constant = True

    def __init__(self, kset, c):
        ScalarField.__init__(self, kset)
        self._mask, self.c = 0, float(c)

    def _values(self, grid):
        return np.full(grid.n, self.c)

    def _derive(self, i):
        return Const(self.kset, 0.0)

    def __repr__(self):
        return "Const(%r)" % self.c


class Var(ScalarField):
    __slots__ = ("i",)

    def __init__(self, kset, i):
        ScalarField.__init__(self, kset)
        self._mask, self.i = 1 << i, i

    def _values(self, grid):
        return grid.cols[self.i]

    def _derive(self, j):
        return Const(self.kset, 1.0 if j == self.i else 0.0)

    def __repr__(self):
        return "Var(%r)" % (self.kset.names[self.i],)


class _Add(ScalarField):
    __slots__ = ("f", "g")

    def _compute(self, grid):
        return self.f._values(grid) + self.g._values(grid)

    def _derive(self, i):
        return _add(self.f.partial(i), self.g.partial(i))


class _Sub(ScalarField):
    __slots__ = ("f", "g")

    def _compute(self, grid):
        return self.f._values(grid) - self.g._values(grid)

    def _derive(self, i):
        return _sub(self.f.partial(i), self.g.partial(i))


class _Mul(ScalarField):
    __slots__ = ("f", "g")

    def _compute(self, grid):  # a constant factor gives np.full's bits without the array
        f = self.f
        return f.c * self.g._values(grid) if f.is_constant else f._values(grid) * self.g._values(grid)

    def _derive(self, i):
        return _add(_mul(self.f.partial(i), self.g), _mul(self.f, self.g.partial(i)))


class _Div(ScalarField):
    __slots__ = ("f", "g", "eps", "label")

    def __init__(self, f, g, eps=0.0, label=""):
        ScalarField.__init__(self, f.kset)
        self._mask = f._mask | g._mask
        self.f, self.g, self.eps, self.label = f, g, eps, label

    def _compute(self, grid):
        den = self.g._values(grid)
        bad = (den == 0.0) | (np.abs(den) <= self.eps)
        if bad.any():
            i = int(bad.argmax())
            what = self.label or "quotient"
            raise DomainError("%s has degenerate denominator %r at %r" % (what, den[i].item(), grid[i]))
        return self.f._values(grid) / den

    def _derive(self, i):
        num = _sub(_mul(self.f.partial(i), self.g), _mul(self.f, self.g.partial(i)))
        return _Div(num, _mul(self.g, self.g), self.eps, self.label)


class _Fn(NamedTuple):
    """One row of the elementary-function table."""

    call: str  # the call's text in a DomainError; %(x)r is the argument
    value: Callable  # the function at one argument value (a ``math`` function)
    derive: Callable  # (node, argument, argument's partial) -> partial of node
    # (test, DomainError text) pairs: a test maps the argument's values to a
    # boolean array, True outside the domain; %(x)r is the argument, %(at)r the point
    domain: tuple = ()
    # the function on a whole array, or None to apply ``value`` per element. Set
    # only for sin, cos and sqrt, whose numpy ufuncs give ``value``'s bits with and
    # without SIMD dispatch; numpy's tan, exp, log and hyperbolic functions differ from
    # ``math`` in the last bit on a share of inputs with it, and ``np.power`` without
    ufunc: Callable = None


def _evaluate(fn, x, grid):
    """The row ``fn`` at the argument's values ``x`` over the grid. The one
    failure path of elementary functions: a DomainError names the first
    point outside the row's domain, or else the first point where its
    ``math`` function raises. A row with a ufunc applies it to the whole
    array; where it gives NaN from an argument that is not NaN (sin of inf),
    the ``math`` function is applied per element instead, and raises."""
    if fn.domain:
        bad = [test(x) for test, _ in fn.domain]
        hit = np.logical_or.reduce(bad)
        if hit.any():
            i = int(hit.argmax())
            text = next(text for b, (_, text) in zip(bad, fn.domain) if b[i])
            raise DomainError(text % {"x": x[i].item(), "at": grid[i]})
    if fn.ufunc is not None:
        with np.errstate(invalid="ignore"):
            y = fn.ufunc(x)
        nan = np.isnan(y)
        if not nan.any() or np.array_equal(nan, np.isnan(x)):
            return y
    xs = x.tolist()
    try:
        return np.fromiter(map(fn.value, xs), float, len(xs))
    except (ValueError, OverflowError):
        for i, v in enumerate(xs):
            try:
                fn.value(v)
            except (ValueError, OverflowError) as exc:
                raise DomainError("%s failed at %r: %s" % (fn.call % {"x": v}, grid[i], exc)) from None
        raise


def _fold(fn, c):
    """The row ``fn`` at a constant argument, through ``_evaluate`` on the
    one-point grid of no variables, so an error names the point ()."""
    return _evaluate(fn, np.array([c]), _Grid.of([()])).item()


class _Elementary(ScalarField):
    """An elementary function or a numeric power of a field; ``fn`` is its
    ``_Fn`` row."""

    __slots__ = ("fn", "f")

    def __init__(self, fn, f):
        ScalarField.__init__(self, f.kset)
        self._mask = f._mask
        self.fn, self.f = fn, f

    def _compute(self, grid):
        return _evaluate(self.fn, self.f._values(grid), grid)

    def _derive(self, i):
        return self.fn.derive(self, self.f, self.f.partial(i))


def _power(p):
    """The row of f ** p for a numeric exponent p: outside the domain at a
    zero base when p < 0 and at a negative base when p is not integral."""
    e = repr(p)
    domain = ()
    if p < 0.0:
        domain += ((lambda x: x == 0.0, "zero base raised to negative power " + e + " at %(at)r"),)
    if not p.is_integer():
        domain += ((lambda x: x < 0.0, "negative base %(x)r raised to fractional power " + e + " at %(at)r"),)
    return _Fn("power %(x)r**" + e, lambda x: math.pow(x, p),
               lambda n, f, df: _mul(Const(n.kset, p), _mul(_pow(f, p - 1.0), df)), domain)


def _over_square(df, g):
    return _div(df, _mul(g, g))


# Elementary functions by grammar name. A function without a domain test
# folds a constant argument at construction; the others keep their node, so
# that a constant outside the domain fails at evaluation, naming the point.
_ELEMENTARY = {
    "exp": _Fn("exp(%(x)r)", math.exp, lambda n, f, df: _mul(n, df)),
    "log": _Fn("log(%(x)r)", math.log, lambda n, f, df: _div(df, f),
               ((lambda x: x <= 0.0, "log of nonpositive value %(x)r at %(at)r"),)),
    "logabs": _Fn("logabs(%(x)r)", lambda x: math.log(abs(x)), lambda n, f, df: _div(df, f),
                  ((lambda x: x == 0.0, "log|.| of zero at %(at)r"),)),
    "sin": _Fn("sin(%(x)r)", math.sin, lambda n, f, df: _mul(_apply("cos", f), df), ufunc=np.sin),
    "cos": _Fn("cos(%(x)r)", math.cos, lambda n, f, df: _mul(Const(n.kset, -1.0), _mul(_apply("sin", f), df)),
               ufunc=np.cos),
    "tan": _Fn("tan(%(x)r)", math.tan, lambda n, f, df: _over_square(df, _apply("cos", f))),
    "sinh": _Fn("sinh(%(x)r)", math.sinh, lambda n, f, df: _mul(_apply("cosh", f), df)),
    "cosh": _Fn("cosh(%(x)r)", math.cosh, lambda n, f, df: _mul(_apply("sinh", f), df)),
    "tanh": _Fn("tanh(%(x)r)", math.tanh, lambda n, f, df: _over_square(df, _apply("cosh", f))),
    "sqrt": _Fn("sqrt(%(x)r)", math.sqrt, lambda n, f, df: _div(df, _mul(Const(n.kset, 2.0), n)),
                ((lambda x: x < 0.0, "sqrt of negative value %(x)r at %(at)r"),), ufunc=np.sqrt),
}


class _Remap(ScalarField):
    """A field of a smaller k-set viewed over a larger one.

    ``mapping[i]`` is the index in the new k-set of the inner field's i-th
    variable.  The mapping must be injective.
    """

    __slots__ = ("f", "mapping")

    def __init__(self, f, kset, mapping):
        ScalarField.__init__(self, kset)
        self._mask = sum(1 << m for i, m in enumerate(mapping) if f._mask >> i & 1)
        self.f = f
        self.mapping = tuple(mapping)

    def _compute(self, grid):
        return self.f._values(grid.remapped(self.mapping))

    def _derive(self, j):
        for i, m in enumerate(self.mapping):
            if m == j:
                inner = self.f.partial(i)
                if inner is self.f:
                    return self
                return _Remap(inner, self.kset, self.mapping)
        return Const(self.kset, 0.0)


class _Guarded(ScalarField):
    """Field with an explicit domain predicate: ``pred`` maps the grid's
    columns to a boolean array that is False at the points outside the
    domain. A guarded field's partials carry the same predicate."""

    __slots__ = ("f", "pred", "description")

    def __init__(self, f, pred, description):
        ScalarField.__init__(self, f.kset)
        self.f, self.pred, self.description = f, pred, description

    def _compute(self, grid):
        bad = ~np.asarray(self.pred(grid.cols), dtype=bool)
        if bad.any():
            raise DomainError("point %r violates domain guard: %s" % (grid[int(bad.argmax())], self.description))
        return self.f._values(grid)

    def _derive(self, i):
        return _Guarded(self.f.partial(i), self.pred, self.description)


# smart constructors ---------------------------------------------------------


def _add(f, g):
    if f.is_constant and g.is_constant:
        return Const(f.kset, f.c + g.c)
    if f.is_constant and f.c == 0.0:
        return g
    if g.is_constant and g.c == 0.0:
        return f
    node = _Add(f.kset)
    node._mask, node.f, node.g = f._mask | g._mask, f, g
    return node


def _sub(f, g):
    if f.is_constant and g.is_constant:
        return Const(f.kset, f.c - g.c)
    if g.is_constant and g.c == 0.0:
        return f
    if f.is_constant and f.c == 0.0:
        return _mul(Const(f.kset, -1.0), g)
    node = _Sub(f.kset)
    node._mask, node.f, node.g = f._mask | g._mask, f, g
    return node


def _mul(f, g):
    if f.is_constant and g.is_constant:
        return Const(f.kset, f.c * g.c)
    if g.is_constant:
        f, g = g, f  # keep constants on the left
    if f.is_constant:
        if f.c == 0.0:
            return Const(f.kset, 0.0)
        if f.c == 1.0:
            return g
        if isinstance(g, _Mul) and g.f.is_constant:
            f, g = Const(f.kset, f.c * g.f.c), g.g
    node = _Mul(f.kset)
    node._mask, node.f, node.g = f._mask | g._mask, f, g
    return node


def _split_const_factor(f):
    if isinstance(f, _Mul) and f.f.is_constant:
        return f.f.c, f.g
    return 1.0, f


def _div(f, g, eps=0.0, label=""):
    """f / g. A quotient of one shared node by itself, up to constant
    factors, folds to a constant, so f/f is 1 even where f = 0. The fold is
    kept on purpose: it makes w'/w = 1 for w = e^tau, which the completeness
    integral over an unbounded tau interval needs far beyond the overflow
    range of w. Only one node object folds: the parser builds a new node for
    each occurrence of a name, so a parsed ``x/x`` stays a quotient."""
    if g.is_constant:
        if g.c == 0.0:
            raise DomainError("division by the zero field")
        return _mul(Const(f.kset, 1.0 / g.c), f)
    if f.is_constant and f.c == 0.0:
        return f
    fc, f_inner = _split_const_factor(f)
    gc, g_inner = _split_const_factor(g)
    if f_inner is g_inner:
        return Const(f.kset, fc / gc)
    return _Div(f, g, eps, label)


def _pow(f, p):
    p = float(p)
    if p == 0.0:
        return Const(f.kset, 1.0)
    if p == 1.0:
        return f
    fn = _power(p)
    if f.is_constant:
        return Const(f.kset, _fold(fn, f.c))
    return _Elementary(fn, f)


def _constant_zero(f):
    """Whether f is a constant 0.0 or -0.0 (complex: both parts are)."""
    if f.__class__ is CScalarField:
        return _constant_zero(f.re) and _constant_zero(f.im)
    return f.is_constant and f.c == 0.0


def contract(acc, terms):
    """``acc + x * y`` (sign +1) or ``acc - x * y`` (sign -1) for each
    (sign, x, y) of ``terms`` in order, skipping a term with a constant-zero
    factor before its product is built; ``x`` may be a callable that builds
    the factor, called only when ``y`` is not a constant zero. The values
    are the loop's that builds every term, except that a constant -0.0
    accumulator stays -0.0 and zero times a non-finite constant is zero."""
    for sign, x, y in terms:
        if _constant_zero(y):
            continue
        if callable(x):
            x = x()
        if _constant_zero(x):
            continue
        acc = acc + x * y if sign > 0 else acc - x * y
    return acc


def constant(kset: KSet, c: float) -> ScalarField:
    return Const(kset, c)


def variable(kset: KSet, name: str) -> ScalarField:
    return Var(kset, kset.index(name))


def _apply(name, f):
    """The elementary function ``name`` of f; ``sech`` is the quotient
    1/cosh. Memoized on f, so that the derivative rules (sin's cos, cos's
    sin, tan's cos) share one node per function of f."""
    if name == "sech":
        return _div(Const(f.kset, 1.0), _apply("cosh", f))
    got = f._derived.get(name)
    if got is None:
        fn = _ELEMENTARY[name]
        if not fn.domain and f.is_constant:
            got = Const(f.kset, _fold(fn, f.c))
        else:
            got = _Elementary(fn, f)
        f._derived[name] = got
    return got


def _constructor(name, grammar_name):
    def construct(f: ScalarField) -> ScalarField:
        return _apply(grammar_name, f)

    construct.__name__ = construct.__qualname__ = name
    construct.__doc__ = "The field %s(f)." % grammar_name
    return construct


exp, log, log_abs, sin, cos, tan, sinh, cosh, tanh, sech, sqrt = (
    _constructor(name, name.replace("_", "")) for name in
    ("exp", "log", "log_abs", "sin", "cos", "tan", "sinh", "cosh", "tanh", "sech", "sqrt"))


def guarded(f: ScalarField, pred: Callable, description: str) -> ScalarField:
    """f restricted to the points where ``pred`` holds; ``pred`` takes the
    grid's columns (``cols[i]`` is variable i at every point) and returns a
    boolean array over the points, as ``lambda cols: cols[0] > 0.0`` does."""
    return _Guarded(f, pred, description)


def remap(f: ScalarField, kset: KSet) -> ScalarField:
    """View a field of a smaller k-set as a field over ``kset``, matching
    variables by name."""
    if f.kset.names == kset.names:
        return f
    if f.is_constant:
        return Const(kset, f.c)
    mapping = tuple(kset.index(nm) for nm in f.kset.names)
    if len(set(mapping)) != len(mapping):
        raise FieldError("remap must be injective: %r" % (mapping,))
    return _Remap(f, kset, mapping)


# pointwise linear solves ----------------------------------------------------


class _PointwiseMatrix:
    """An n-by-n matrix of fields shared by every pointwise solve against
    it. For each grid it keeps the stacked values ``M`` (points first), the
    mask of points where ``M`` is finite and ``|det M|`` (NaN at the other
    points), so the matrix is assembled and det-checked once per grid.
    ``solutions`` maps (grid key, CRC-32 of a stacked right-hand side) to
    the right-hand side arrays of the first system that solved it (its
    nodes' cached arrays, not a copy) and the solution, so each distinct
    right-hand side is solved once per grid. A hit is reused only when the
    right-hand side equals the stored one bit for bit, so -0.0 and NaN
    payloads stay distinct and a collision costs one more solve, never a
    wrong one. (zlib is loaded with numpy; hashlib would map OpenSSL,
    3.5 MB of RSS.)"""

    __slots__ = ("rows", "mask", "_cache", "solutions")

    def __init__(self, rows):
        self.rows = [list(row) for row in rows]
        self.mask = _listed(self.rows)[1]
        self._cache = {}
        self.solutions = {}

    def on(self, grid):
        got = self._cache.get(grid.key)
        if got is None:
            M = np.moveaxis(np.array([[f._values(grid) for f in row] for row in self.rows]), -1, 0)
            finite = np.isfinite(M).all(axis=(1, 2))
            abs_det = np.full(grid.n, math.nan)
            abs_det[finite] = np.abs(np.linalg.det(M[finite]))
            got = self._cache[grid.key] = (M, finite, abs_det)
        return got


class LinearFieldSystem:
    """Shared n-by-n pointwise solve A(point) x = b(point).

    Solution components are fields; their partials are obtained from the
    identity dx = A^{-1} (db - dA x), so derivatives of any order propagate
    exactly through the solve. ``A`` is the rows of fields, or the private
    holder of another system's A; the derivative systems share their
    parent's holder, so every system against one matrix reads one assembled
    and det-checked stack per grid, and each distinct right-hand side is
    solved once.
    """

    __slots__ = ("_matrix", "A", "b", "mask", "kset", "n", "_cache", "_dsys", "_components")

    def __init__(self, A, b):
        self._matrix = A if isinstance(A, _PointwiseMatrix) else _PointwiseMatrix(A)
        self.A = self._matrix.rows
        self.b = list(b)
        self.mask = self._matrix.mask | _listed(self.b)[1]
        self.n = len(self.b)
        self.kset = self.b[0].kset
        self._cache = {}
        self._dsys = {}
        self._components = None

    def value_at(self, grid):
        """The solutions over a ``_Grid``: row j holds component j at every
        point. One stacked solve runs over the points where A and b are
        finite; the solution is NaN at the other points. The singular check
        runs for every system; a right-hand side already solved against this
        matrix on this grid reads the stored solution."""
        got = self._cache.get(grid.key)
        if got is None:
            M, finite, abs_det = self._matrix.on(grid)
            stack = np.array([f._values(grid) for f in self.b])
            rows = np.flatnonzero(finite & np.isfinite(stack).all(axis=0))
            singular = rows[abs_det[rows] <= MIN_ABS_DET]
            if singular.size:
                i = singular[0]
                raise SingularMatrixError(
                    "near-singular matrix (|det| = %.3e) in pointwise solve at %r" % (abs_det[i], grid[i])
                )
            key = (grid.key, zlib.crc32(stack))
            first = self._matrix.solutions.get(key)
            if first is not None and all(np.array_equal(b.view(np.int64), row.view(np.int64))
                                         for b, row in zip(first[0], stack)):
                got = first[1]
            else:
                x = np.full((grid.n, self.n), math.nan)
                x[rows] = np.linalg.solve(M[rows], stack.T[rows, :, None])[..., 0]
                got = np.ascontiguousarray(x.T)
                self._matrix.solutions.setdefault(key, ([f._values(grid) for f in self.b], got))
            self._cache[grid.key] = got
        return got

    def components(self):
        if self._components is None:
            self._components = [_SolveComponent(self, j) for j in range(self.n)]
        return self._components

    def derivative_system(self, i):
        sys_i = self._dsys.get(i)
        if sys_i is None:
            x = self.components()
            rhs = [contract(self.b[c].partial(i), ((-1, self.A[c][d].partial(i), x[d]) for d in range(self.n)))
                   for c in range(self.n)]
            sys_i = LinearFieldSystem(self._matrix, rhs)
            self._dsys[i] = sys_i
        return sys_i


class _SolveComponent(ScalarField):
    __slots__ = ("sys", "j")

    def __init__(self, sys, j):
        ScalarField.__init__(self, sys.kset)
        self._mask, self.sys, self.j = sys.mask, sys, j

    def _compute(self, grid):
        return self.sys.value_at(grid)[self.j]

    def _derive(self, i):
        return self.sys.derivative_system(i).components()[self.j]


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def determinant(m) -> ScalarField:
    """Determinant of a small matrix of fields, by the Leibniz expansion."""
    n = len(m)
    kset = m[0][0].kset
    total = Const(kset, 0.0)
    for perm in itertools.permutations(range(n)):
        term = Const(kset, float(_perm_sign(perm)))
        for i in range(n):
            term = _mul(term, m[i][perm[i]])
        total = _add(total, term)
    return total


# complex-valued fields ------------------------------------------------------


class CScalarField:
    """Complex-valued field as an (re, im) pair of scalar fields."""

    __slots__ = ("re", "im")

    def __init__(self, re_part: ScalarField, im_part: ScalarField | None = None):
        if im_part is None:
            im_part = Const(re_part.kset, 0.0)
        if re_part.kset.names != im_part.kset.names:
            raise FieldError("real and imaginary parts live over different k-sets")
        self.re = re_part
        self.im = im_part

    @property
    def kset(self):
        return self.re.kset

    def at(self, point) -> complex:
        """The value at one point, on a one-point grid."""
        with np.errstate(all="ignore"):
            return self._values(_Grid.of([point])).item()

    def _values(self, grid):
        out = np.empty(grid.n, dtype=complex)
        out.real = self.re._values(grid)
        out.imag = self.im._values(grid)
        return out

    def _coerce(self, other):
        if isinstance(other, CScalarField):
            return other
        if isinstance(other, ScalarField):
            return CScalarField(other)
        if isinstance(other, (int, float)):
            return CScalarField(Const(self.kset, float(other)))
        if isinstance(other, complex):
            return CScalarField(Const(self.kset, other.real), Const(self.kset, other.imag))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalarField(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalarField(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalarField(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return CScalarField(-self.re, -self.im)


# closed-form expression parser ---------------------------------------------

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

_NUM_RE = _re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")

_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div, ast.Pow: ScalarField.__pow__}


def make_closed_form(expr: str, kset: KSet) -> ScalarField:
    """Parse an elementary closed-form expression into a field.

    The grammar is Python's expression grammar cut down to numeric literals,
    names, ``+ - * / ^`` (``^`` is the power), unary minus, parentheses and
    one-argument calls of the elementary functions. Error positions index
    the normalized text: whitespace runs collapsed to one space, the ends
    stripped, ``^`` written ``**``.
    """
    text = " ".join(expr.split())
    bad = _re.search(r"[^A-Za-z0-9_.+\-*/^() ]|\*\*", text)
    if bad:
        raise ExpressionError("unexpected %r" % bad.group(), bad.start() + text.count("^", 0, bad.start()))
    text = text.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning such as 1if becomes a SyntaxError
            tree = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        # Python reports an error at the end of the input at offset 0
        raise ExpressionError(exc.msg, exc.offset - 1 if exc.offset else len(text)) from None

    def build(node):
        at = node.col_offset
        source = text[at:node.end_col_offset]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](build(node.left), build(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -build(node.operand)
        if isinstance(node, ast.Constant) and _NUM_RE.fullmatch(source):
            return Const(kset, float(source))
        if isinstance(node, ast.Name):
            if node.id in _NAMED_CONSTANTS:
                return Const(kset, _NAMED_CONSTANTS[node.id])
            if node.id not in kset.names:
                raise ExpressionError("unknown variable name %r (k-set has %r)" % (node.id, kset.names), at)
            return Var(kset, kset.index(node.id))
        # a call names its function directly: (exp)(x) is refused
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.col_offset == at:
            if node.func.id not in _ELEMENTARY and node.func.id != "sech":
                raise ExpressionError("unknown function %r" % node.func.id, at)
            if len(node.args) == 1:
                return _apply(node.func.id, build(node.args[0]))
        raise ExpressionError("not in the expression grammar: %r" % source, at)

    return build(tree)
