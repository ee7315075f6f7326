"""Outside-in spans and field-DAG counters for the traced benchmark run.

``Tracer.install`` wraps every public function and method of the layer
modules, and a few named private helpers, replacing each function by
identity in every ``frame_kahler`` module that holds it. A span therefore
also catches calls made from inside the program (``einstein_verdict``'s own
``build_kahler``), and keeps working when code moves between modules.
``Tracer.uninstall`` restores the originals; nothing here changes the
program outside a traced run.

Spans are aggregated in memory: per span name the call count, self time
(duration minus the time covered by child spans) and the names of its
parents; per metric group the time covered by the group's outermost spans.

Evaluation is lazy and memoized, so a builder returns quickly and its cost
lands in whichever check first evaluates its output. Builders listed in
``EAGER`` therefore evaluate their output on the current call's grid before
their span closes, so that each layer carries its own evaluation cost.

What each per-layer metric should move (end-to-end metric: workloads):

  catalog.load_s                     setup_s: all but ke_implicit_20k
  catalog.chart_s                    verify_p50_s: catalog_default
  fields.nodes, const_nodes,         peak_rss_mb, verify_p50_s:
    solve_systems, solves, evals       central_sech_768, warped_alpha0_500
  fields.solve_s                     points_per_s: central_sech_768
  frames.*_s, central.verdict_s      verify_p50_s: central_sech_768
  kahler.assembly_s, forms_s         verify_p50_s: central_sech_768,
                                       warped_alpha0_500
  warped.einstein_s, fiber_s         verify_p50_s: warped_alpha0_500
  warped.completeness_s,             verify_p50_s: ke_implicit_20k
    implicit_root_calls, cli.curves_s, reporting.write_s

``<layer>.self_s`` is the self time of all of a layer's spans; the eight
of them and ``trace.unattributed_s`` add up to the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

from workloads import LAYERS

# Per-point and per-operator primitives. They run millions of times per
# call; wrapping them would dwarf the work, so their cost stays in the span
# that triggered the evaluation.
HOT = {
    "fields.KSet.index",
    "fields.ScalarField.at",
    "fields.ScalarField.partial",
    "fields.Const.at",
    "fields.Var.at",
    "fields.CScalarField.at",
    "fields.CScalarField.partial",
    "fields.CScalarField.conj",
}

# Private helpers that a per-layer metric needs.
PRIVATE = {
    "cli": ("_central_curves", "_ke_curves", "_write_report"),
}

EAGER = {
    "frames.koszul_connection",
    "frames.curvature",
    "kahler.build_kahler",
    "kahler.gamma_forms",
    "kahler.ricci_form",
}

_RESIDUALS = [
    "frames.max_abs_on_grid",
    "frames.spread_on_grid",
    "frames.ConnectionTable.torsion_residual",
    "frames.ConnectionTable.compatibility_residual",
] + ["frames.CurvatureTensor." + m for m in (
    "max_component", "pair_symmetry_residual", "first_bianchi_residual",
    "ricci_symmetry_residual", "max_ricci")]

# Metric -> spans whose outermost occurrences it times (inclusive time).
GROUPS = {
    "catalog.load_s": ["catalog.load"],
    "catalog.chart_s": ["catalog.coordinate_crosscheck"],
    "frames.consistency_s": ["frames.consistency_suite"],
    "frames.connection_s": ["frames.koszul_connection"],
    "frames.curvature_s": ["frames.curvature"],
    "frames.residual_s": _RESIDUALS,
    "kahler.assembly_s": ["kahler.build_kahler"],
    "kahler.forms_s": ["kahler." + f for f in (
        "gamma_forms", "ricci_form", "ricci_form_real", "ricci_from_form",
        "exterior_d", "exterior_d_two_form", "kahler_form")],
    "central.verdict_s": ["central.csc_verdict"],
    "warped.einstein_s": ["warped.einstein_verdict"],
    "warped.fiber_s": ["warped." + f for f in (
        "make_fiber", "lift_fiber", "fiber_consistency", "quotient_gauss_check")],
    "warped.completeness_s": ["warped.completeness"],
    "cli.curves_s": ["cli._central_curves", "cli._ke_curves"],
    "reporting.write_s": ["reporting.VerificationReport." + m for m in (
        "to_json", "to_csv", "print_lines")] + ["cli._write_report"],
}

# Metric -> spans whose self time it sums.
SELF_GROUPS = {"fields.solve_s": ["fields.LinearFieldSystem.value_at"]}

# Metric -> span whose call count it reports.
CALL_COUNTS = {"warped.implicit_root_calls": "warped.solve_implicit_w"}

COUNTERS = ("fields.nodes", "fields.const_nodes", "fields.solve_systems",
            "fields.solves", "fields.evals", "trace.dead_nodes")

_ABSENT = object()


class Tracer:
    """Span recorder and field-DAG counters for one traced run."""

    def __init__(self):
        self.modules = [importlib.import_module("frame_kahler")] + [
            importlib.import_module("frame_kahler." + layer) for layer in LAYERS]
        self.grid = None
        self.grid_names = None
        self._patches = []
        self.stats = {}  # name -> [calls, self seconds, set of parent names]
        self.group_time = dict.fromkeys(GROUPS, 0.0)
        self._group_depth = dict.fromkeys(GROUPS, 0)
        self._stack = []  # [name, start, child seconds]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def reset(self):
        """Start a new pass; the wrappers keep references to these objects."""
        self.stats.clear()
        self.group_time.update(dict.fromkeys(GROUPS, 0.0))
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, function) of every wrapped callable."""
        out = []
        for layer, mod in zip(LAYERS, self.modules[1:]):
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not name.startswith("_") or name in PRIVATE.get(layer, ())):
                    out.append(("%s.%s" % (layer, name), mod, name, obj))
                elif inspect.isclass(obj) and not name.startswith("_"):
                    for attr, fn in vars(obj).items():
                        span = "%s.%s.%s" % (layer, name, attr)
                        if inspect.isfunction(fn) and not attr.startswith("_") and span not in HOT:
                            out.append((span, obj, attr, fn))
        return out

    def install(self):
        targets = self._targets()
        named = set(EAGER) | set(CALL_COUNTS.values()) | {
            n for names in (*GROUPS.values(), *SELF_GROUPS.values()) for n in names}
        stale = sorted(named - {t[0] for t in targets})
        if stale:
            raise RuntimeError("metrics name spans that no longer exist: %s" % ", ".join(stale))
        wrappers = {}
        for span, owner, attr, fn in targets:
            wrapper = self._wrap(span, fn)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = wrapper
        # replace by identity wherever a module holds the function
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        self._install_counters()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def _install_counters(self):
        """Count node and system constructions; add up cache sizes (point
        values computed, pointwise solves performed) as objects die, which
        every object of a pass does by the garbage collection at its end."""
        fields = self.modules[LAYERS.index("fields") + 1]
        counts = self.counts
        field_init = fields.ScalarField.__init__
        system_init = fields.LinearFieldSystem.__init__
        const_type = fields.Const

        def scalar_init(self, kset):
            field_init(self, kset)
            counts["fields.nodes"] += 1
            if type(self) is const_type:
                counts["fields.const_nodes"] += 1

        def scalar_del(self):
            counts["fields.evals"] += len(self._cache)
            counts["trace.dead_nodes"] += 1

        def system_init_counted(self, *args, **kwargs):
            system_init(self, *args, **kwargs)
            counts["fields.solve_systems"] += 1

        def system_del(self):
            counts["fields.solves"] += len(self._cache)

        self._patch(fields.ScalarField, "__init__", scalar_init)
        self._patch(fields.ScalarField, "__del__", scalar_del)
        self._patch(fields.LinearFieldSystem, "__init__", system_init_counted)
        self._patch(fields.LinearFieldSystem, "__del__", system_del)

    # -- spans ------------------------------------------------------------

    def _wrap(self, span, fn):
        groups = tuple(g for g, names in GROUPS.items() if span in names)
        eager = span in EAGER
        tracer, stack, stats = self, self._stack, self.stats
        depth, group_time = self._group_depth, self.group_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for g in groups:
                depth[g] += 1
            frame = [span, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if eager:
                    tracer.evaluate(out)
                return out
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += elapsed
                st = stats.get(span)
                if st is None:
                    st = stats[span] = [0, 0.0, set()]
                st[0] += 1
                st[1] += elapsed - frame[2]
                st[2].add(parent[0] if parent is not None else "")
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        group_time[g] += elapsed

        return wrapper

    def evaluate(self, obj):
        """Evaluate every field of a builder's output on the current grid."""
        if self.grid is None:
            return
        for f in self._fields_of(obj):
            if f.kset.names == self.grid_names:
                for p in self.grid:
                    f.at(p)

    def _fields_of(self, obj):
        fields = self.modules[LAYERS.index("fields") + 1]
        if isinstance(obj, fields.ScalarField):
            yield obj
        elif isinstance(obj, fields.CScalarField):
            yield obj.re
            yield obj.im
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from self._fields_of(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                yield from self._fields_of(item)
        else:
            # ConnectionTable.gamma, CurvatureTensor.R/ricci/scalar,
            # KahlerMetric.g, GammaForms.forms/antiholomorphic,
            # FrameOneForm.coeffs, FrameTwoForm.vals
            for attr in ("gamma", "R", "ricci", "scalar", "g", "forms",
                         "antiholomorphic", "coeffs", "vals"):
                if hasattr(obj, attr) and not inspect.ismethod(getattr(obj, attr)):
                    yield from self._fields_of(getattr(obj, attr))

    # -- results ----------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer values of one traced pass that took ``wall`` seconds."""
        out = dict(self.counts)
        del out["trace.dead_nodes"]
        for metric, span in CALL_COUNTS.items():
            out[metric] = self.stats.get(span, [0])[0]
        out["trace.spans"] = sum(st[0] for st in self.stats.values())
        out.update(self.group_time)
        for metric, names in SELF_GROUPS.items():
            out[metric] = sum((self.stats[n][1] for n in names if n in self.stats), 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum((st[1] for name, st in self.stats.items()
                                          if name.split(".", 1)[0] == layer), 0.0)
        out["trace.unattributed_s"] = wall - sum(st[1] for st in self.stats.values())
        return out

    def layers_seen(self):
        return {name.split(".", 1)[0] for name in self.stats}

    def span_table(self) -> dict:
        return {name: {"calls": st[0], "self_s": st[1], "parents": sorted(st[2])}
                for name, st in sorted(self.stats.items())}
