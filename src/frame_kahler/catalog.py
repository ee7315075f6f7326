"""Built-in example structures and the JSON structure format.

Each catalog entry stores its defining document (the same JSON-serializable
schema accepted from user files), the constructed admissible data, a default
evaluation box, and a table of expected values.  Every expectation carries
its source: ``reported`` for values quoted from the originating analysis,
``direct`` for immediate consequences of the definitions, and ``derived``
for values computed here by an independent oracle.

The gravitational plane wave additionally carries a coordinate chart; a
finite-difference cross-check of the chart against the abstract frame data
ties the frame presentation back to an honest coordinate realization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import Const, KSet, ScalarField, _Grid, make_closed_form, tan
from .frames import FrameStructure, grid_points, values_on_grid, worst_abs
from .kahler import (
    CASE_CENTRAL,
    CASE_WARPED,
    AdmissibleConstants,
    AdmissibleData,
    K,
    X,
    Y,
)
from .reporting import VerificationReport
from .warped import (
    FiberData,
    WarpedFamily,
    implicit_tan_field,
    lift_fiber,
    make_fiber,
    TAU_KSET,
)

__all__ = [
    "SchemaError",
    "Expectation",
    "CatalogEntry",
    "CoordinateChart",
    "catalog_ids",
    "load",
    "parse_document",
    "entry_from_document",
    "family_document",
    "grid_axis",
    "capped_grid_box",
    "planewave_chart",
    "coordinate_crosscheck",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A structure document violates the schema; carries the failing path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


@dataclass(frozen=True)
class Expectation:
    """An expected value with the provenance of the expectation."""

    value: object
    source: str  # "reported" | "direct" | "derived"
    note: str = ""


@dataclass
class CatalogEntry:
    entry_id: str
    description: str
    document: dict
    data: AdmissibleData
    grid_box: dict
    expected: dict
    fiber: Optional[FiberData] = None
    family: Optional[WarpedFamily] = None
    chart: Optional["CoordinateChart"] = None

    def grid(self):
        return grid_points(self.data.kset, self.grid_box)


# ---------------------------------------------------------------------------
# document parsing


_MISSING = object()
_EXPR = (str, int, float)  # an expression string, or a number
_KIND_NAMES = {dict: "an object", list: "a list", _EXPR: "an expression string or a number"}


def _where(path: str, key: str) -> str:
    return "%s.%s" % (path, key) if path else key


def _require(doc: dict, key: str, path: str, kind, default=_MISSING):
    """``doc[key]``, or ``default`` when the key is absent: as a float when
    ``kind`` is ``float`` (a number or numeric string), otherwise as given
    when it is an instance of ``kind`` (``dict``, ``list``, ``_EXPR``, or
    ``object`` for any value). A missing key without a default, or a value
    of another kind, is a SchemaError at ``path.key``."""
    where = _where(path, key)
    value = doc.get(key, default)
    if value is _MISSING:
        raise SchemaError(where, "missing")
    if kind is float:
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(where, "expected a number, got %r" % (value,)) from None
    if not isinstance(value, kind):
        raise SchemaError(where, "expected %s, got %r" % (_KIND_NAMES[kind], value))
    return value


def _parse_pair_key(key: str, frames: tuple, path: str):
    parts = key.split(",")
    if len(parts) != 2:
        raise SchemaError("%s.%s" % (path, key), "expected a 'frame,frame' key")
    for p in parts:
        if p not in frames:
            raise SchemaError("%s.%s" % (path, key), "unknown frame name %r" % p)
    return frames.index(parts[0]), frames.index(parts[1])


def _parse_expr(doc: dict, key: str, path: str, kset: KSet) -> ScalarField:
    """The field of the expression ``doc[key]`` over ``kset``."""
    text = _require(doc, key, path, _EXPR)
    if not isinstance(text, str):
        return Const(kset, float(text))
    try:
        return make_closed_form(text, kset)
    except Exception as exc:
        raise SchemaError(_where(path, key), "bad expression %r: %s" % (text, exc)) from None


def _central_from_document(doc: dict) -> AdmissibleData:
    names = tuple(_require(doc, "kset", "", list))
    try:
        kset = KSet(names)
    except (TypeError, ValueError) as exc:  # names that are not distinct strings, or more than 3
        raise SchemaError("kset", str(exc)) from None
    frames = tuple(_require(doc, "frames", "", list))
    if len(frames) != 4 or not all(isinstance(n, str) for n in frames) or len(set(frames)) != 4:
        raise SchemaError("frames", "need 4 distinct frame names, got %r" % (frames,))

    zero = kset.zero
    g = [[zero] * 4 for _ in range(4)]
    raw_g = _require(doc, "g", "", dict)
    seen = {}
    for key, expr in raw_g.items():
        a, b = _parse_pair_key(key, frames, "g")
        if (b, a) in seen and seen[(b, a)] != expr:
            raise SchemaError("g.%s" % key, "conflicts with the symmetric entry %r" % seen[(b, a)])
        seen[(a, b)] = expr
        fld = _parse_expr(raw_g, key, "g", kset)
        g[a][b] = fld
        g[b][a] = fld

    C = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    raw_br = _require(doc, "brackets", "", dict)
    seen = set()
    for key in raw_br:
        a, b = _parse_pair_key(key, frames, "brackets")
        if a == b:
            raise SchemaError("brackets.%s" % key, "bracket of a frame with itself")
        if (b, a) in seen:
            raise SchemaError("brackets.%s" % key, "both orders of the pair given")
        seen.add((a, b))
        coeffs = _require(raw_br, key, "brackets", dict)
        for cname in coeffs:
            if cname not in frames:
                raise SchemaError("brackets.%s.%s" % (key, cname), "unknown frame name")
            c = frames.index(cname)
            fld = _parse_expr(coeffs, cname, "brackets.%s" % key, kset)
            C[a][b][c] = fld
            C[b][a][c] = -fld

    raw_D = _require(doc, "D", "", dict)
    D = [[zero] * kset.size for _ in range(4)]
    for name in frames:
        if name not in raw_D:
            raise SchemaError("D.%s" % name, "missing derivative-table row")
    for name in raw_D:
        if name not in frames:
            raise SchemaError("D.%s" % name, "unknown frame name")
        a = frames.index(name)
        row = _require(raw_D, name, "D", dict)
        for vname in row:
            if vname not in kset.names:
                raise SchemaError("D.%s.%s" % (name, vname), "unknown variable name")
            D[a][kset.index(vname)] = _parse_expr(row, vname, "D.%s" % name, kset)

    raw_const = _require(doc, "constants", "", dict)
    constants = AdmissibleConstants(
        a=_require(raw_const, "a", "constants", float),
        b=_require(raw_const, "b", "constants", float),
        alpha=_require(raw_const, "alpha", "constants", float),
        beta=_require(raw_const, "beta", "constants", float),
        ell_gradient=_require(raw_const, "ell", "constants", float, 1.0),
    )

    f = _parse_expr(doc, "f", "", kset)
    structure = FrameStructure(kset, frames, g, C, D)
    if "iota" in doc:
        iota = _parse_expr(doc, "iota", "", kset)
    else:
        iota = structure.g_of_bracket(K, X, Y)
    return AdmissibleData(
        structure=structure,
        constants=constants,
        f=f,
        iota=iota,
        case=CASE_CENTRAL,
    )


def _fiber_from_document(doc: dict) -> FiberData:
    plane_vars = tuple(_require(doc, "kset", "fiber", list, []))
    alpha = _require(doc, "alpha", "fiber", float)
    iota = _require(doc, "iota", "fiber", _EXPR)
    if not isinstance(iota, str):
        iota = repr(float(iota))
    try:
        return make_fiber(alpha, iota, plane_vars)
    except Exception as exc:
        raise SchemaError("fiber", str(exc)) from None


def interval_bounds(spec, path: str) -> tuple:
    """An admissible interval (lo, hi) from two bounds, each a number or
    "inf", "+inf" or "-inf": a document's family.interval or the parts of a
    --interval lo:hi. Neither bound may be NaN and lo < hi; anything else is
    a SchemaError at ``path``."""
    try:
        lo, hi = (float(v) for v in (spec if isinstance(spec, (list, tuple)) else ()))
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if not lo < hi:
        raise SchemaError(path, "need [lo, hi], numbers or infinities with lo < hi, got %r" % (spec,))
    return lo, hi


def _family_from_document(doc: dict) -> WarpedFamily:
    fam = _require(doc, "family", "", dict)
    f = _parse_expr(fam, "f", "family", TAU_KSET)
    if isinstance(fam.get("w"), dict):
        w = -tan(implicit_tan_field(_require(fam["w"], "implicit_tan_seed", "family.w", float)))
    else:
        w = _parse_expr(fam, "w", "family", TAU_KSET)
    return WarpedFamily(
        f=f,
        w=w,
        lam=_require(fam, "lambda", "family", float, 0.0),
        C=_require(fam, "C", "family", float, 0.0),
        interval=interval_bounds(fam.get("interval", [-1.0, 1.0]), "family.interval"),
    )


def parse_document(doc: dict):
    """Parse a structure document.

    Returns (AdmissibleData, fiber, family); fiber and family are None for
    central documents."""
    if not isinstance(doc, dict):
        raise SchemaError("", "document must be a JSON object")
    case = _require(doc, "case", "", object)
    if case == CASE_CENTRAL:
        return _central_from_document(doc), None, None
    if case == CASE_WARPED:
        fiber = _fiber_from_document(_require(doc, "fiber", "", dict))
        family = _family_from_document(doc)
        data = lift_fiber(fiber, family.w, family.f)
        return data, fiber, family
    raise SchemaError("case", "expected 'central' or 'warped', got %r" % case)


def grid_axis(spec, path: str) -> tuple:
    """One evaluation axis (lo, hi, n) from a list of three numbers or numeric
    strings: a document's [lo, hi, n] or the parts of a --grid lo:hi:n. The bounds
    must be finite and n an integral value >= 1; anything else is a
    SchemaError at ``path``."""
    try:
        lo, hi, n = (float(v) for v in (spec if isinstance(spec, (list, tuple)) else ()))
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(path, "expected [lo, hi, n], got %r" % (spec,)) from None
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(n) and n >= 1 and n == int(n)):
        raise SchemaError(path, "need finite lo, hi and an integral n >= 1, got %r" % (spec,))
    return lo, hi, int(n)


# Most points one evaluation grid may hold. The steepest verify runs grow by
# ~14 KB per point: warped_alpha0 (59 MB at 2,000 tau samples, 300 MB at
# 20,000) and ppwave with a twist in x and y (41 MB at 3x16x16 points, 117 MB
# at 3x48x48), so the cap stands for ~2.1 GB.
MAX_GRID_POINTS = 150_000


def capped_grid_box(box: dict, path: str) -> dict:
    """``box`` unchanged when its grid (the product of the axis counts) holds
    at most ``MAX_GRID_POINTS`` points; a SchemaError at ``path`` otherwise.
    Counting needs no grid, so none is built."""
    total = math.prod(n for _, _, n in box.values())
    if total > MAX_GRID_POINTS:
        raise SchemaError(path, "%d grid points exceed the cap of %d" % (total, MAX_GRID_POINTS))
    return box


def default_grid_box(doc: dict, data: AdmissibleData) -> dict:
    grid = _require(doc, "grid", "", dict, {})
    box = {}
    for name, spec in grid.items():
        if name not in data.kset.names:
            raise SchemaError("grid.%s" % name, "unknown variable name")
        box[name] = grid_axis(spec, "grid.%s" % name)
    for name in data.kset.names:
        box.setdefault(name, (-1.0, 1.0, 5))
    return capped_grid_box(box, "grid")


def entry_from_document(entry_id: str, description: str, doc: dict, expected: dict,
                        chart=None) -> CatalogEntry:
    """Parse a structure document into a catalog entry on its default grid."""
    data, fiber, family = parse_document(doc)
    return CatalogEntry(
        entry_id=entry_id,
        description=description,
        document=doc,
        data=data,
        grid_box=default_grid_box(doc, data),
        expected=expected,
        fiber=fiber,
        family=family,
        chart=chart,
    )


# ---------------------------------------------------------------------------
# built-in entries


def _doc_s3xr() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "case": "central",
        "kset": ["tau"],
        "frames": ["k", "T", "x", "y"],
        "g": {"k,T": "1", "T,T": "-1", "x,x": "1", "y,y": "1"},
        "brackets": {
            "k,x": {"y": "-2"},
            "k,y": {"x": "2"},
            "x,y": {"k": "-2", "T": "-2"},
        },
        "D": {"k": {"tau": "1"}, "T": {"tau": "-1"}, "x": {}, "y": {}},
        "constants": {"a": 1, "b": -1, "alpha": -2, "beta": 0, "ell": 1},
        "f": "exp(tau)",
        "grid": {"tau": [-1.0, 1.0, 5]},
    }


def _doc_planewave() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "case": "central",
        "kset": ["u"],
        "frames": ["k", "T", "x", "y"],
        "g": {"k,T": "-1", "x,x": "1", "y,y": "1"},
        "brackets": {
            "k,x": {"y": "-1"},
            "k,y": {"x": "1"},
            "x,y": {"T": "2"},
        },
        "D": {"k": {"u": "-1"}, "T": {}, "x": {}, "y": {}},
        "constants": {"a": -1, "b": 0, "alpha": -1, "beta": 0, "ell": 1},
        "f": "exp(u)",
        "grid": {"u": [-1.0, 1.0, 5]},
    }


def _doc_ppwave(iota_expr: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "case": "central",
        "kset": ["tau", "x", "y"],
        "frames": ["k", "T", "x", "y"],
        "g": {"k,T": "1", "T,T": "-1", "x,x": "1", "y,y": "1"},
        "brackets": {
            "x,y": {"k": iota_expr, "T": iota_expr},
        },
        "D": {
            "k": {"tau": "1"},
            "T": {"tau": "-1"},
            "x": {"x": "1"},
            "y": {"y": "1"},
        },
        "constants": {"a": 1, "b": -1, "alpha": 0, "beta": 0, "ell": 1},
        "f": "exp(tau)",
        "iota": iota_expr,
        "grid": {"tau": [-0.5, 0.5, 3], "x": [-0.6, 0.6, 4], "y": [-0.6, 0.6, 4]},
    }


def _doc_warped(alpha, iota_expr, f_expr, w_spec, lam, C, interval, tau_box, fiber_vars=()):
    return {
        "schema_version": SCHEMA_VERSION,
        "case": "warped",
        "fiber": {"kset": list(fiber_vars), "alpha": alpha, "iota": iota_expr},
        "family": {"f": f_expr, "w": w_spec, "lambda": lam, "C": C, "interval": list(interval)},
        "grid": {"tau": list(tau_box)},
    }


def _finite_literal(value: float, text: str, option: str) -> float:
    if not math.isfinite(value):
        raise SchemaError(option, "the family's literal %s is %r, which a document cannot hold" % (text, value))
    return value


def family_document(family: str, interval, alpha: float = -1.0, lam: float = 0.0, C: float = 0.0,
                    a1: float = 1.0, a2: float = 0.0) -> dict:
    """The warped document of the closed-form family ``family`` of ``ke``
    over the reference fiber (twist -2), each option written into the
    expressions as a ``%r`` literal. Its grid is 5 samples of the interval
    with an infinite end moved to -8 or 8, the finite window of ``ke``'s
    curve.

    - ``alpha0``: fiber alpha 0, f = 1 and w = (3 (a1 p + a2))^(1/3) with
      p = e^(-lam tau) / (-lam) for lam != 0 and p = tau for lam = 0. For
      lam < 0, a2 = 0 and a1 > 0, w is written in the exponential-product
      form, whose c = (fw)'/w is a constant node: completeness then
      integrates over unbounded tau.
    - ``alphaneg``: fiber ``alpha`` < 0, f = tau^(-(1 + alpha/2)) and
      w = tau, on tau > 0.
    - ``alpha_minus2``: fiber alpha -2, f = 1 and w = -tan(x(tau)) with
      x = tau + tan(x), on the branch through x = -pi/4.

    A derived literal that overflows is a ``SchemaError`` naming ``--lam``
    or ``--a1``: a document cannot hold inf.
    """
    if family == "alpha0":
        alpha, f = 0.0, "1"
        if lam < 0.0 and a2 == 0.0 and a1 > 0.0:
            blame = "--lam" if math.isinf(3.0 / (-lam)) else "--a1"
            scale = _finite_literal((3.0 * a1 / (-lam)) ** (1.0 / 3.0), "(3 a1 / -lam)^(1/3)", blame)
            w = "%r * exp(tau * %r)" % (scale, -lam / 3.0)
        elif lam != 0.0:
            inverse = _finite_literal(1.0 / (-lam), "1 / -lam", "--lam")
            w = "(3.0 * (%r * (exp(tau * %r) * %r) + %r))^%r" % (a1, -lam, inverse, a2, 1.0 / 3.0)
        else:
            w = "(3.0 * (%r * tau + %r))^%r" % (a1, a2, 1.0 / 3.0)
    elif family == "alphaneg":
        f, w = "tau^(%r)" % (-(1.0 + alpha / 2.0)), "tau"
    elif family == "alpha_minus2":
        alpha, f, w = -2.0, "1", {"implicit_tan_seed": -math.pi / 4.0}
    else:
        raise ValueError("unknown family %r" % family)
    lo, hi = interval
    window = (lo if math.isfinite(lo) else -8.0, hi if math.isfinite(hi) else 8.0, 5)
    return _doc_warped(alpha, "-2", f, w, lam, C, interval, window)


def _entry_s3xr() -> CatalogEntry:
    doc = _doc_s3xr()
    expected = {
        "twist": Expectation(-2.0, "reported"),
        "q": Expectation(0.0, "reported", "-(a^2+b^2-b*alpha+a*beta)/a^2 with a=1, b=-1, alpha=-2"),
        "s_tilde": Expectation(3.0, "derived", "closed form cross-checked against the conformal route"),
        "ricci_flat": Expectation(True, "reported"),
        "flat": Expectation(True, "reported"),
        "csc": Expectation(True, "reported"),
    }
    return entry_from_document(
        "s3xr",
        "Product of the round 3-sphere with a line; induced metric is flat",
        doc, expected)


def _entry_planewave() -> CatalogEntry:
    doc = _doc_planewave()
    expected = {
        "twist": Expectation(-2.0, "reported"),
        "ric_xx": Expectation(-2.0, "reported", "equals the twist"),
        "q": Expectation(-1.0, "derived", "q formula with a=-1, b=0, alpha=-1, beta=0"),
        "s_tilde": Expectation(-0.5, "derived", "closed form cross-checked against the conformal route"),
        "csc": Expectation(True, "reported"),
    }
    return entry_from_document(
        "planewave",
        "Gravitational plane wave with its rotating null frame; k is Killing",
        doc, expected, chart=planewave_chart())


def _entry_ppwave(iota_expr: str = "-2") -> CatalogEntry:
    doc = _doc_ppwave(iota_expr)
    expected = {
        "q": Expectation(-2.0, "derived", "q formula with a=1, b=-1, alpha=beta=0; constant twist only"),
        "s_tilde": Expectation(-1.0, "reported", "constant twist only"),
        "csc": Expectation(True, "reported", "constant twist only"),
    }
    if iota_expr != "-2":
        expected = {}
    return entry_from_document(
        "ppwave",
        "Line times a truncated pp-wave 3-metric; twist profile is a parameter",
        doc, expected)


def _entry_warped_alpha0() -> CatalogEntry:
    doc = _doc_warped(
        alpha=0.0,
        iota_expr="-2",
        f_expr="1",
        w_spec="(exp(-(-3)*tau) + 1.5)^(1/3)",
        lam=-3.0,
        C=0.0,
        interval=(-1.0, 1.0),
        tau_box=(-1.0, 1.0, 5),
    )
    return entry_from_document(
        "warped_alpha0",
        "Warped product over a flat-type fiber (alpha=0), Einstein with lambda=-3",
        doc, {})


def _entry_warped_alphaneg() -> CatalogEntry:
    doc = family_document("alphaneg", (0.2, 1.4), alpha=-1.0)
    expected = {
        "ricci_flat": Expectation(True, "derived"),
        "flat": Expectation(True, "reported"),
    }
    return entry_from_document(
        "warped_alphaneg",
        "Warped product, alpha=-1, Ricci-flat scaling solution f = tau^(-1/2), w = tau",
        doc, expected)


def _entry_warped_alpha_minus2() -> CatalogEntry:
    tau0 = 1.0 - math.pi / 4.0
    doc = family_document("alpha_minus2", (0.05, 1.0))
    expected = {
        "ricci_flat": Expectation(True, "reported"),
        "x_at_tau0": Expectation(-math.pi / 4.0, "reported", "root of x = tau + tan(x) at tau0 = 1 - pi/4"),
        "tau0": Expectation(tau0, "reported"),
        "sectional_xy_nonzero": Expectation(True, "reported", "magnitude (2/w)|w' - 1| at tau0"),
    }
    return entry_from_document(
        "warped_alpha_minus2",
        "Warped product over the round-sphere-type fiber (alpha=-2); Ricci flat, not flat",
        doc, expected)


def _entry_warped_complete() -> CatalogEntry:
    doc = _doc_warped(
        alpha=0.0,
        iota_expr="-2",
        f_expr="1",
        w_spec="exp(tau)",
        lam=-3.0,
        C=0.0,
        interval=("-inf", "inf"),
        tau_box=(-1.0, 1.0, 5),
    )
    expected = {
        "c_constant": Expectation(1.0, "reported", "c = -lambda/3"),
        "sectional_kT": Expectation(-2.0, "reported", "2 lambda / 3"),
        "sectional_xk": Expectation(-0.5, "reported", "lambda / 6"),
        "complete": Expectation(True, "reported"),
    }
    return entry_from_document(
        "warped_complete",
        "Complete Einstein example: f = 1, w = e^tau, lambda = -3, constant c = 1",
        doc, expected)


_BUILDERS = {
    "s3xr": _entry_s3xr,
    "planewave": _entry_planewave,
    "ppwave": _entry_ppwave,
    "warped_alpha0": _entry_warped_alpha0,
    "warped_alphaneg": _entry_warped_alphaneg,
    "warped_alpha_minus2": _entry_warped_alpha_minus2,
    "warped_complete": _entry_warped_complete,
}


def catalog_ids():
    return list(_BUILDERS)


def load(entry_id: str, **params) -> CatalogEntry:
    """Load a catalog entry; ``ppwave`` accepts iota=<expression>."""
    builder = _BUILDERS.get(entry_id)
    if builder is None:
        raise KeyError("unknown catalog id %r (have %s)" % (entry_id, ", ".join(_BUILDERS)))
    if entry_id == "ppwave" and "iota" in params:
        return _entry_ppwave(params.pop("iota"))
    if params:
        raise TypeError("unexpected parameters %r for entry %r" % (sorted(params), entry_id))
    return builder()


# ---------------------------------------------------------------------------
# coordinate oracle for the plane wave


@dataclass
class CoordinateChart:
    """Coordinate realization as functions of a (4, N) array of coordinate
    points: ``metric_fn`` gives the (N, 4, 4) metric, ``frame_fns[a]`` the
    (N, 4) coefficients of e_a and ``kset_point`` the (N, k) k-set points."""

    coord_names: tuple
    metric_fn: Callable
    frame_fns: list
    kset_point: Callable


def _rows(p, *cols):
    """(N, 4) frame coefficients at the (4, N) points ``p`` from four columns."""
    return np.stack([np.broadcast_to(c, p.shape[1:]) for c in cols], axis=-1)


def planewave_chart() -> CoordinateChart:
    """Chart (u, v, x, y) with metric
    -(x^2+y^2) du^2 + du dv + dv du + dx^2 + dy^2 and the rotating frame."""

    def metric(p):
        u, v, x, y = p
        m = np.zeros(p.shape[1:] + (4, 4))
        m[..., 0, 0] = -(x * x + y * y)
        m[..., 0, 1] = m[..., 1, 0] = 1.0
        m[..., 2, 2] = m[..., 3, 3] = 1.0
        return m

    frames = [
        lambda p: _rows(p, -1.0, 0.0, -p[3], p[2]),  # k = -du - y dx + x dy
        lambda p: _rows(p, 0.0, 1.0, 0.0, 0.0),      # T = dv
        lambda p: _rows(p, 0.0, -p[3], 1.0, 0.0),    # x = -y dv + dx
        lambda p: _rows(p, 0.0, p[2], 0.0, 1.0),     # y = x dv + dy
    ]
    return CoordinateChart(
        coord_names=("u", "v", "x", "y"),
        metric_fn=metric,
        frame_fns=frames,
        kset_point=lambda p: p[:1].T,
    )


_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _chart_values(chart: CoordinateChart, points: np.ndarray, h: float) -> tuple:
    """The chart side at the (4, N) ``points``: the frame metric E G E^T
    (N, 4, 4), the coefficients (N, 6, 4) of the brackets of the pairs a < b
    in the frame, and the twist g(k, [e_x, e_y]) (N,). Each bracket
    [e_a, e_b]^mu = e_a^nu d_nu e_b^mu - e_b^nu d_nu e_a^mu is read from one
    table of central differences dX[a][nu] of the coefficient functions."""
    G = chart.metric_fn(points)
    E = np.stack([f(points) for f in chart.frame_fns], axis=1)
    steps = [(points.copy(), points.copy()) for _ in range(4)]
    for nu, (hp, hm) in enumerate(steps):
        hp[nu] += h
        hm[nu] -= h
    dX = [[(f(hp) - f(hm)) / (2 * h) for hp, hm in steps] for f in chart.frame_fns]
    B = np.zeros((len(E), len(_PAIRS), 4))  # summed from +0.0 in nu order, as at one point
    for i, (a, b) in enumerate(_PAIRS):
        for nu in range(4):
            B[:, i] += E[:, a, nu, None] * dX[b][nu] - E[:, b, nu, None] * dX[a][nu]
    M = E.transpose(0, 2, 1)  # columns are the frame fields
    c = np.linalg.solve(np.broadcast_to(M[:, None], B.shape + (4,)), B[..., None])[..., 0]
    twist = (E[:, K, None, :] @ G @ B[:, _PAIRS.index((X, Y)), :, None])[:, 0, 0]
    return E @ G @ M, c, twist


def coordinate_crosscheck(entry: CatalogEntry) -> VerificationReport:
    """Compare the entry's coordinate chart against its abstract frame data.

    Metric values, bracket coefficients (finite-differenced and re-expanded
    in the frame), the nullity of k and the twist are all matched at a
    sample of coordinate points, evaluated as one (4, N) array."""
    chart = entry.chart
    if chart is None:
        raise ValueError("entry %r has no coordinate chart" % entry.entry_id)
    report = VerificationReport(suite="coordinate-crosscheck")
    S = entry.data.structure
    points = np.array(list(itertools.product((-0.8, 0.0, 0.8), (-0.5, 0.5), (0.3, 1.1), (-0.7, 0.4)))).T
    h, tol = 1e-5, 1e-6

    # chart side on the whole point array; frame side through the grid primitive
    g_chart, c_chart, twist_chart = _chart_values(chart, points, h)
    kset_points = _Grid.of(chart.kset_point(points))
    g_chart = np.moveaxis(g_chart, 0, -1)

    report.add("metric_values", worst_abs(g_chart - values_on_grid(S.g, kset_points)), tol)
    c_frame = values_on_grid([S.C[a][b] for a, b in _PAIRS], kset_points)
    report.add("bracket_coefficients", worst_abs(np.moveaxis(c_chart, 0, -1) - c_frame), tol)
    report.add("k_null", worst_abs(g_chart[K, K]), tol)
    report.add("twist", worst_abs(twist_chart - values_on_grid(entry.data.iota, kset_points)), tol)
    return report
