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
(``_Grid``), and each node computes one array of values over the grid.
``_readers`` counts the nodes, matrices and systems built to read a node (a
product reads a constant factor by value and does not count it). A node
keeps its array in ``_cache`` under the grid's key unless it has exactly one
reader, which reads it once per grid; so shared subexpressions (the
pointwise solves in particular) are computed once per grid, and
``contract`` adds a reader to its result, which callers keep in tables. A
node that gains a reader after it dropped an array is computed again, by
the same operations on the same inputs, with the same bits.
``values_on_grid`` is the one evaluation function: it converts the points
unless it is given a converted grid, which it takes as it is. A run
converts each of its grids once and passes the converted grid on, so all
its nodes share one key object; ``at(point)`` computes one field on a
one-point grid, a convenience for tests and prompts. Points that a request
converts itself (``values_on_grid``, ``frames.max_abs_on_grid`` or
``min_on_grid`` given a list or an array) make a one-off grid, which no
later request is given: every array cached under its key or its
projections' and remaps' (node and row arrays, matrix stacks, solutions,
curvature rows) is dropped when the request returns or raises. ``at``
keeps the reader rule, as ``bench/spans.py`` calls ``at`` at every point
and relies on the arrays those calls share. Each node's ``_mask``
has a bit for each variable it reads: none for a constant, its own for a
variable, the union of the operands' for an operation, its holder's for a
row (``_Row``: a solve's component, a curvature entry), and every variable
for ``warped._ImplicitTanField``. ``values_on_grid`` evaluates a request on
the grid's ``projection`` onto the union of its fields' masks: the points that are
distinct in those variables, bit for bit, kept whole and in the order of
their first occurrence, so that an error names the point a scan in grid
order meets first. It then expands the values back to every point; a
maximum or minimum over the grid (``frames.max_abs_on_grid``,
``min_on_grid``) reduces the projected values (``_projected_values``)
instead, which hold the same set of values. With a twist in x alone,
ppwave on 3x16x16 points evaluates 48 (tau, x) pairs.
``+ - * /`` run as numpy operations with floating-point errors ignored, as
Python floats overflow silently to inf or NaN; sin, cos and sqrt apply
numpy's ufunc to the whole array, which gives ``math``'s bits with and
without SIMD dispatch; the other elementary functions and powers apply
``math`` per element, as their ufuncs differ from it in the last bit on a
share of inputs (with SIMD dispatch; ``np.power`` also without).

A pointwise solve gives ``np.linalg.solve``'s bits. ``_substitute`` replays
OpenBLAS's substitutions; numpy rounds each product apart from its
difference, where OpenBLAS fuses them, and the two agree when every product
is exact: for a matrix whose off-diagonal entries are all the shared +0.0
node (``_diagonal_solve``: the catalog's induced Kahler and fiber frame
metrics), and for a constant one whose LU factors off the diagonal are all
+-0.0 or +-1.0 (``_unit_lu``: every catalog frame metric). Any other
matrix, one with a -0.0 entry included, stays on LAPACK. Each distinct
pointwise matrix is assembled and det-checked once per grid, in one holder
shared by every solve against it. The systems that one builder call makes
against a holder (a connection's n^2 Koszul systems, the n inverse-metric
columns, the derivative systems of one group along one variable) form a
group, solved in one call per grid with the bits of separate solves. A
domain violation raises ``DomainError`` naming the first grid point where
that node fails. Fields are immutable after construction. Every sum of
products over a frame index goes through ``contract``, which never builds a
term that is zero by construction, or its array twin ``_contract_arrays``
(the curvature tensor, which nothing differentiates).

Each k-set holds one +0.0, one -0.0 and one -1.0 node (``zero``,
``minus_zero``, ``minus_one``), which derivatives, negation and folds
read; every constant fold goes through ``_folded``, which returns the shared
node for +0.0, -0.0 and -1.0. As ``warped.TAU_KSET`` is module-level, nothing
memoizes a node or array on a constant. ``partial`` along a variable that a
node's ``_mask`` does not read is the shared zero, derived by no rule: a
quantity that does not depend on a variable has the zero derivative along
it (activity analysis, Griewank & Walther, *Evaluating Derivatives*, 2008),
so no solve builds a derivative system along a variable it does not read.
``tests/test_cli.py::TestSolveCounts`` pins the nodes a run builds and the
solve calls it makes.

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
    "determinant",
    "values_on_grid",
]

# A pointwise solve whose matrix has |det| at or below this floor raises.
MIN_ABS_DET = 1e-10


class FieldError(Exception):
    """Base error for scalar-field construction and evaluation."""


class DomainError(FieldError):
    """Evaluation was requested outside a field's domain (log of a
    nonpositive value, fractional power of a negative base, a degenerate
    denominator)."""


class SingularMatrixError(FieldError):
    """A pointwise linear solve met a (near-)singular matrix."""


class ExpressionError(FieldError):
    """A closed-form expression failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class KSet:
    """Ordered set of independent-variable names; at most three variables.
    ``zero``, ``minus_zero`` and ``minus_one`` are the k-set's shared +0.0,
    -0.0 and -1.0 nodes, which every fold to those values returns."""

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
        # the constants that folds and derivatives build most: one node each per k-set
        object.__setattr__(self, "zero", Const(self, 0.0))
        object.__setattr__(self, "minus_zero", Const(self, -0.0))
        object.__setattr__(self, "minus_one", Const(self, -1.0))

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
    point). ``filled`` is None, or for a one-off grid the (cache, key)
    entries filled on it, its projections and its remaps, for its request
    to pop."""

    __slots__ = ("cols", "n", "key", "_projections", "filled")

    def __init__(self, cols, filled=None):
        self.cols = cols
        self.n = cols.shape[1]
        self.key = (self.n, cols.tobytes())
        self._projections = {}
        self.filled = filled

    @classmethod
    def of(cls, points, filled=None):
        """The grid of k-tuples or of an (N, k) array, with ``filled``, or
        the grid itself. An empty grid gets an empty column for each of the
        (at most 3) variables any field reads."""
        if isinstance(points, _Grid):
            return points
        k = len(points[0]) if len(points) else 3
        return cls(np.ascontiguousarray(np.array(points, dtype=float).reshape(len(points), k).T), filled)

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return tuple(self.cols[:, i].tolist())

    def __iter__(self):
        return map(tuple, self.cols.T.tolist())

    def remapped(self, mapping):
        """The grid of a field whose i-th variable is this grid's mapping[i]."""
        return _Grid(self.cols[list(mapping)], self.filled)

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
                    got = (_Grid(self.cols[:, first], self.filled), np.asarray(inverse))
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


def _projected_values(fields, grid):
    """(values, inverse): the values of ``values_on_grid`` on the grid's
    projection onto the variables the fields read, and the index of each
    grid point in that projection (None when the projection is the grid).
    A reduction that does not count points (a maximum, a minimum) can take
    the values as they are."""
    fields, mask = _listed(fields)
    filled = None if isinstance(grid, _Grid) else []  # points, not a grid: a one-off grid
    grid, inverse = _Grid.of(grid, filled).projection(mask)
    try:
        with np.errstate(all="ignore"):
            return np.array(_values_of(fields, grid)), inverse
    finally:
        for cache, key in filled or ():
            cache.pop(key, None)


def values_on_grid(fields, grid) -> np.ndarray:
    """Values over the grid (a list of k-tuples, an (N, k) float array, or a
    grid converted once by ``_Grid.of``, which passes through) of one real
    or complex field, or of every field in a nested iterable of them: an
    array with the nesting's shape plus a last axis over the grid.
    Arithmetic overflow and invalid operations give inf and NaN silently, as
    with Python floats. The fields are evaluated on the grid's projection
    onto the variables they read, and the values are expanded back to every
    point. Points make a one-off grid, whose arrays are dropped when the
    request returns or raises; a converted grid keeps them for later
    requests, and so does ``ScalarField.at``, as ``bench/spans.py`` calls
    it at every point and relies on the arrays those calls share."""
    out, inverse = _projected_values(fields, grid)
    # np.take, not out[..., inverse]: a strided result changes the bits of a later np.dot
    return out if inverse is None else np.take(out, inverse, axis=-1)


class ScalarField:
    """Function of the k-set variables with exact partials of every order.

    Subclasses implement ``_compute`` (the array of values over a ``_Grid``)
    and ``_derive`` (construct the field of the i-th first partial, for a
    variable i that the node reads).
    ``_cache`` is the one memo: ``partial`` keys its derivatives by index,
    ``_apply`` its elementary functions by ``_Fn`` row, and ``_values`` its
    arrays by grid key, unless ``_readers`` (see the module docstring) is 1.
    ``_mask`` has bit i set when the values may depend on variable i: every
    variable, unless the node's constructor (or ``_add``, ``_sub``,
    ``_mul``) sets a smaller mask after this one (all but
    ``warped._ImplicitTanField`` do).
    """

    __slots__ = ("kset", "_cache", "_mask", "_readers")

    is_constant = False

    def __init__(self, kset: KSet):
        self.kset = kset
        self._cache = {}
        self._mask = kset.mask
        self._readers = 0

    # evaluation ----------------------------------------------------------

    def at(self, point) -> float:
        """The value at one point, on a one-point grid."""
        with np.errstate(all="ignore"):
            return self._values(_Grid.of([point])).item()

    def _values(self, grid):
        got = self._cache.get(grid.key)
        if got is None:
            got = self._compute(grid)
            if self._readers != 1:
                self._cache[grid.key] = got
                if grid.filled is not None:
                    grid.filled.append((self._cache, grid.key))
        return got

    def _compute(self, grid):  # pragma: no cover - abstract
        raise NotImplementedError

    # derivatives ---------------------------------------------------------

    def partial(self, i: int) -> "ScalarField":
        got = self._cache.get(i)
        if got is None:
            if not 0 <= i < max(len(self.kset.names), 1):
                raise IndexError("partial index %d out of range for k-set %r" % (i, self.kset.names))
            # a node that does not read variable i has the zero partial along it
            got = self._cache[i] = self._derive(i) if self._mask >> i & 1 else self.kset.zero
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
        return _mul(self.kset.minus_one, self)

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
        return _folded(kset, float(x))
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

    def __repr__(self):
        return "Const(%r)" % self.c


class Var(ScalarField):
    __slots__ = ("i",)

    def __init__(self, kset, i):
        ScalarField.__init__(self, kset)
        self._mask, self.i = 1 << i, i

    def _values(self, grid):
        return grid.cols[self.i]

    def _derive(self, i):  # ``partial`` derives a variable only along itself
        return Const(self.kset, 1.0)

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
        f._readers += 1
        g._readers += 1

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
        f._readers += 1

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
    "cos": _Fn("cos(%(x)r)", math.cos, lambda n, f, df: _mul(n.kset.minus_one, _mul(_apply("sin", f), df)),
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
        f._readers += 1

    def _compute(self, grid):
        return self.f._values(grid.remapped(self.mapping))

    def _derive(self, j):  # ``partial`` derives only along a variable the mapping hits
        inner = self.f.partial(self.mapping.index(j))
        return self if inner is self.f else _Remap(inner, self.kset, self.mapping)


# smart constructors ---------------------------------------------------------


def _folded(kset, c):
    """The constant c of a fold: the k-set's shared zero for +0.0, its shared
    -0.0 node for -0.0 (which keeps the sign bit), its shared -1.0 node for
    -1.0, else a new node. Every constant fold goes through here."""
    if c == 0.0:
        return kset.zero if math.copysign(1.0, c) > 0.0 else kset.minus_zero
    return kset.minus_one if c == -1.0 else Const(kset, c)


def _add(f, g):
    if f.is_constant and g.is_constant:
        return _folded(f.kset, f.c + g.c)
    if f.is_constant and f.c == 0.0:
        return g
    if g.is_constant and g.c == 0.0:
        return f
    node = _Add(f.kset)
    node._mask, node.f, node.g = f._mask | g._mask, f, g
    f._readers += 1
    g._readers += 1
    return node


def _sub(f, g):
    if f.is_constant and g.is_constant:
        return _folded(f.kset, f.c - g.c)
    if g.is_constant and g.c == 0.0:
        return f
    if f.is_constant and f.c == 0.0:
        return _mul(f.kset.minus_one, g)
    node = _Sub(f.kset)
    node._mask, node.f, node.g = f._mask | g._mask, f, g
    f._readers += 1
    g._readers += 1
    return node


def _mul(f, g):
    if f.is_constant and g.is_constant:
        return _folded(f.kset, f.c * g.c)
    if g.is_constant:
        f, g = g, f  # keep constants on the left
    if f.is_constant:
        if f.c == 0.0:
            return f.kset.zero
        if f.c == 1.0:
            return g
        if isinstance(g, _Mul) and g.f.is_constant:
            c, g = f.c * g.f.c, g.g
            if c == 1.0:  # 1.0 * x is x, bit for bit
                return g
            f = _folded(f.kset, c)
    else:  # a constant factor is read by value, and keeps no array
        f._readers += 1
    node = _Mul(f.kset)
    node._mask, node.f, node.g = f._mask | g._mask, f, g
    g._readers += 1
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
        return _mul(_folded(f.kset, 1.0 / g.c), f)
    if f.is_constant and f.c == 0.0:
        return f
    fc, f_inner = _split_const_factor(f)
    gc, g_inner = _split_const_factor(g)
    if f_inner is g_inner:
        return _folded(f.kset, fc / gc)
    return _Div(f, g, eps, label)


def _pow(f, p):
    p = float(p)
    if p == 0.0:
        return Const(f.kset, 1.0)
    if p == 1.0:
        return f
    fn = _power(p)
    if f.is_constant:
        return _folded(f.kset, _fold(fn, f.c))
    return _Elementary(fn, f)


def _constant_zero(f):
    """Whether f is a constant 0.0 or -0.0 (complex: both parts are)."""
    if f.__class__ is CScalarField:
        return _constant_zero(f.re) and _constant_zero(f.im)
    return f.is_constant and f.c == 0.0


def contract(acc, terms):
    """``acc + x * y`` (sign +1) or ``acc - x * y`` (sign -1) for each
    (sign, x, y) of ``terms`` in order, skipping a term with a constant-zero
    factor before its product is built. The values are the loop's that
    builds every term, except that a constant -0.0 accumulator stays -0.0
    and zero times a non-finite constant is zero."""
    for sign, x, y in terms:
        if _constant_zero(y) or _constant_zero(x):
            continue
        acc = acc + x * y if sign > 0 else acc - x * y
    for f in (acc.re, acc.im) if acc.__class__ is CScalarField else (acc,):
        f._readers += 1  # callers keep the result in tables: keep its arrays
    return acc


def _factors(fields, grid):
    """A nested list of fields as factors of ``_contract_arrays``: None for a
    constant zero, a constant's value, or else the field's values."""
    if isinstance(fields, list):
        return [_factors(f, grid) for f in fields]
    return None if _constant_zero(fields) else fields.c if fields.is_constant else fields._values(grid)


def _contract_arrays(acc, terms):
    """``contract`` over arrays, with its bits, for sums that nothing
    differentiates (``frames.CurvatureTensor``). A factor is an array or a
    ``_factors`` value: None skips the term, a constant multiplies from the
    left and 1.0 gives the other factor, as in ``_mul``. acc None is the
    shared zero: a sum starts from its first term, and zero minus t is
    -1.0 * t (0.0 - t would lose a -0.0)."""
    for sign, x, y in terms:
        if x is None or y is None:
            continue
        if isinstance(y, float):
            x, y = y, x
        t = y if isinstance(x, float) and x == 1.0 else x * y
        acc = (t if sign > 0 else -1.0 * t) if acc is None else acc + t if sign > 0 else acc - t
    return acc


def constant(kset: KSet, c: float) -> ScalarField:
    return _folded(kset, float(c))


def variable(kset: KSet, name: str) -> ScalarField:
    return Var(kset, kset.index(name))


def _apply(name, f):
    """The elementary function ``name`` of f; ``sech`` is the quotient
    1/cosh. Memoized in f's ``_cache`` under the function's ``_Fn`` row, so
    that the derivative rules (sin's cos, cos's sin, tan's cos) share one
    node per function of f, and ``partial`` of a name finds no node. A
    constant argument folds, or keeps a node when the function has a domain
    test, and is not memoized: a k-set's shared constants outlive every run."""
    if name == "sech":
        return _div(Const(f.kset, 1.0), _apply("cosh", f))
    fn = _ELEMENTARY[name]
    if f.is_constant:
        return _Elementary(fn, f) if fn.domain else _folded(f.kset, _fold(fn, f.c))
    got = f._cache.get(fn)
    if got is None:
        got = f._cache[fn] = _Elementary(fn, f)
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


def remap(f: ScalarField, kset: KSet) -> ScalarField:
    """View a field of a smaller k-set as a field over ``kset``, matching
    variables by name."""
    if f.kset.names == kset.names:
        return f
    if f.is_constant:
        return _folded(kset, f.c)
    mapping = tuple(kset.index(nm) for nm in f.kset.names)
    if len(set(mapping)) != len(mapping):
        raise FieldError("remap must be injective: %r" % (mapping,))
    return _Remap(f, kset, mapping)


# pointwise linear solves ----------------------------------------------------


# The safe minimum of the dgetrf in numpy's bundled OpenBLAS: it scales the
# column under a pivot by 1/pivot only at or above it, and leaves it unscaled
# below. This is OpenBLAS's observed behaviour, not reference LAPACK's (dgetf2
# divides by such a pivot, which keeps a zero's sign); TestDiagonalSolve is
# what guards it when numpy or its BLAS changes.
_TINY = np.finfo(float).tiny


def _substitute(y, lower, upper, pivots):
    """Overwrites ``y`` (n, columns), in pivot order, with the solutions of
    L U x = y in the order of OpenBLAS's dgetrs on one right-hand side,
    dividing by each pivot. ``lower[i]`` and ``upper[i]`` are the factors
    below and above pivot i, broadcast against the rows they update."""
    n = len(y)
    for i in range(n - 1):
        y[i + 1:] -= y[i] * lower[i]
    for i in range(n - 1, -1, -1):
        y[i] /= pivots[i]
        y[:i] -= y[i] * upper[i]
    return y


def _unit_lu(rows):
    """OpenBLAS's dgetf2 factors of a matrix of constant +0.0, 1.0 and -1.0
    entries, as (order, lower, upper, pivots) for ``_substitute(y[order],
    ...)``, if every factor off the diagonal is +-0.0 or +-1.0; else None.
    Then every sum is exact, so its value, and a zero's sign, do not depend
    on the order of its terms."""
    a = [[f.c if f.is_constant else math.nan for f in row] for row in rows]
    if not all(c in (1.0, -1.0) or c == 0.0 and math.copysign(1.0, c) > 0.0 for row in a for c in row):
        return None  # a -0.0 entry would move the signs of the zeros
    n, order = len(a), list(range(len(a)))
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))
        a[j], a[p], order[j], order[p] = a[p], a[j], order[p], order[j]
        if abs(a[j][j]) < _TINY:
            return None  # singular: the det check raises first
        r = 1.0 / a[j][j]
        for i in range(j + 1, n):
            a[i][j] *= r
            for c in range(j + 1, n):
                a[i][c] -= a[i][j] * a[j][c]
    if any(abs(a[i][j]) not in (0.0, 1.0) for i in range(n) for j in range(n) if i != j):
        return None
    lu = np.array(a)
    return order, [lu[i + 1:, i, None] for i in range(n)], [lu[:i, i, None] for i in range(n)], lu.diagonal().tolist()


def _diagonal_solve(d, b):
    """``np.linalg.solve`` of the diagonal matrices with diagonals ``d``
    against the right-hand sides ``b``, both (n, points) and finite, with
    its bits. The matrices' off-diagonal entries are +0.0, and OpenBLAS's
    dgetrf leaves signed zeros below the diagonal (+0.0 times 1/pivot, or
    the +0.0 itself at a pivot below ``_TINY``), which dgetrs adds in: a
    product of zeros can only flip the sign of a zero, and zero times an
    infinite component spreads NaN. So this is ``b / d``, unless ``b`` holds
    a -0.0 or a quotient overflows; then it replays the substitutions with
    each column's factors. The replay alone gives the same bits but takes
    1.4 to 5 times as long on each workload's solves, so division goes first."""
    q = b / d
    if np.isfinite(q).all() and not ((b == 0.0) & np.signbit(b)).any():
        return q
    return _substitute(b.copy(), np.where(np.abs(d) >= _TINY, np.copysign(0.0, d), 0.0), [0.0] * len(d), d)


class _PointwiseMatrix:
    """An n-by-n matrix of fields shared by every pointwise solve against
    it. For each grid it keeps the stacked values ``M`` (points first), the
    mask of points where ``M`` is finite and ``|det M|`` (NaN at the other
    points), so the matrix is assembled and det-checked once per grid.
    ``diagonal`` is whether every off-diagonal entry is the k-set's shared
    +0.0 node (so every 1-by-1 matrix is), and ``lu`` holds ``_unit_lu``'s
    factors of a constant matrix, or None; any other matrix stays on LAPACK
    (see the module docstring)."""

    __slots__ = ("rows", "mask", "diagonal", "lu", "_cache")

    def __init__(self, rows):
        self.rows = [list(row) for row in rows]
        self.mask = _listed(self.rows)[1]
        self.diagonal = all(f is f.kset.zero for i, row in enumerate(self.rows) for j, f in enumerate(row) if i != j)
        self.lu = None if self.diagonal else _unit_lu(self.rows)
        self._cache = {}
        for f in itertools.chain.from_iterable(self.rows):
            f._readers += 1

    def on(self, grid):
        got = self._cache.get(grid.key)
        if got is None:
            M = np.moveaxis(np.array([[f._values(grid) for f in row] for row in self.rows]), -1, 0)
            finite = np.isfinite(M).all(axis=(1, 2))
            abs_det = np.full(grid.n, math.nan)
            abs_det[finite] = np.abs(np.linalg.det(M[finite]))
            got = self._cache[grid.key] = (M, finite, abs_det)
            if grid.filled is not None:
                grid.filled.append((self._cache, grid.key))
        return got

    def solve(self, grid, rows, b):
        """The solutions of k systems against this matrix, with right-hand
        sides ``b`` (k, n, points), at the points ``rows`` of the grid (NaN
        at the others), in one call: by ``_diagonal_solve``, ``_substitute``
        or LAPACK on single-column systems against the broadcast matrix (one
        solve with k right-hand sides would move bits). When ``rows`` is
        every point, no point is gathered or scattered."""
        k, n, points = b.shape
        M, whole = self.on(grid)[0], len(rows) == points
        if not whole:
            M, b = M[rows], b[:, :, rows]
        if self.diagonal:  # column p of system s is column s * len(rows) + p
            y = _diagonal_solve(np.tile(M.diagonal(0, 1, 2).T, k), b.swapaxes(0, 1).reshape(n, -1))
        elif self.lu:
            y = _substitute(b.swapaxes(0, 1)[self.lu[0]].reshape(n, -1), *self.lu[1:])
        else:
            y = np.linalg.solve(np.broadcast_to(M, (k, *M.shape)), b.swapaxes(1, 2)[..., None])[..., 0]
            y = y.transpose(2, 0, 1).reshape(n, -1)
        x = y.reshape(n, k, -1).swapaxes(0, 1)
        if not whole:
            x, got = np.full((k, n, points), math.nan), x
            x[:, :, rows] = got
        return x


class LinearFieldSystem:
    """Shared n-by-n pointwise solve A(point) x = b(point), with LAPACK's
    bits on every path of ``_PointwiseMatrix.solve``.

    Solution components are fields; their partials are obtained from the
    identity dx = A^{-1} (db - dA x), so derivatives of any order propagate
    exactly through the solve. ``A`` is the rows of fields, or the private
    holder of another system's A; the derivative systems share their
    parent's holder, so every system against one matrix reads one assembled
    and det-checked stack per grid. ``group`` is the list of systems that
    one builder call makes against one holder (a connection's Koszul
    systems, say), which this system joins; a new group when it is None.
    The derivative systems of one group along one variable form a group,
    which each joins as it is built. A group is solved together (see
    ``value_at``), so no system of a group may read another's solution.
    """

    __slots__ = ("_matrix", "A", "b", "mask", "kset", "n", "_cache", "_dsys", "_components", "_group")

    def __init__(self, A, b, group=None):
        self._matrix = A if isinstance(A, _PointwiseMatrix) else _PointwiseMatrix(A)
        self.A = self._matrix.rows
        self.b = list(b)
        for f in self.b:
            f._readers += 1
        self.mask = self._matrix.mask | _listed(self.b)[1]
        self.n = len(self.b)
        self.kset = self.b[0].kset
        self._cache = {}
        self._dsys = {}
        self._components = None
        self._group = [] if group is None else group
        self._group.append(self)

    def value_at(self, grid):
        """The solutions over a ``_Grid``: row j holds component j at every
        point, NaN where A or b is not finite. The singular check runs on the
        other points, for this system first. Every system of its group not
        yet solved on this grid joins one solve with it, if its right-hand
        side evaluates and is finite at exactly this system's points; any
        other is solved when it is requested itself, and raises then."""
        got = self._cache.get(grid.key)
        if got is None:
            M, finite, abs_det = self._matrix.on(grid)
            stacks = [np.array([f._values(grid) for f in self.b])]
            ok = finite & np.isfinite(stacks[0]).all(axis=0)
            rows = np.flatnonzero(ok)
            singular = rows[abs_det[rows] <= MIN_ABS_DET]
            if singular.size:
                i = singular[0]
                raise SingularMatrixError(
                    "near-singular matrix (|det| = %.3e) in pointwise solve at %r" % (abs_det[i], grid[i])
                )
            batch = [self]
            for s in self._group:
                if s is not self and grid.key not in s._cache:
                    try:
                        stacks.append([f._values(grid) for f in s.b])
                    except Exception:  # whatever it raises, it raises when it is requested itself
                        continue
                    batch.append(s)
            b = np.array(stacks)
            keep = ((finite & np.isfinite(b).all(axis=1)) == ok).all(axis=1)
            if not keep.all():
                batch, b = list(itertools.compress(batch, keep)), b[keep]
            for s, x in zip(batch, self._matrix.solve(grid, rows, b)):
                s._cache[grid.key] = x
                if grid.filled is not None:
                    grid.filled.append((s._cache, grid.key))
            got = self._cache[grid.key]
        return got

    def components(self):
        if self._components is None:
            self._components = [_Row(self, j) for j in range(self.n)]
        return self._components

    def _row_partial(self, j, i):
        """Component j of the derivative system along variable i, built once per i."""
        sys_i = self._dsys.get(i)
        if sys_i is None:
            x = self.components()
            rhs = [contract(self.b[c].partial(i), ((-1, self.A[c][d].partial(i), x[d]) for d in range(self.n)))
                   for c in range(self.n)]
            group = next((s._dsys[i]._group for s in self._group if i in s._dsys), None)
            sys_i = self._dsys[i] = LinearFieldSystem(self._matrix, rhs, group)
        return sys_i.components()[j]


class _Row(ScalarField):
    """Row j of ``holder.value_at(grid)``, the per-grid array of a pointwise
    solve (``LinearFieldSystem``) or a curvature tensor
    (``frames.CurvatureTensor``); its partials are ``holder._row_partial``."""

    __slots__ = ("holder", "j")

    def __init__(self, holder, j):
        ScalarField.__init__(self, holder.kset)
        self._mask, self.holder, self.j = holder.mask, holder, j

    def _values(self, grid):  # always keeps its row: a view of the holder's array, not a copy
        got = self._cache.get(grid.key)
        if got is None:
            got = self._cache[grid.key] = self.holder.value_at(grid)[self.j]
            if grid.filled is not None:
                grid.filled.append((self._cache, grid.key))
        return got

    def _derive(self, i):
        return self.holder._row_partial(self.j, i)


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
    total = kset.zero
    for perm in itertools.permutations(range(n)):
        term = Const(kset, 1.0) if _perm_sign(perm) > 0 else kset.minus_one
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
            im_part = re_part.kset.zero
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
            return CScalarField(_folded(self.kset, float(other)))
        if isinstance(other, complex):
            return CScalarField(_folded(self.kset, other.real), _folded(self.kset, other.imag))
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
            return _folded(kset, float(source))
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
