"""Catalog entries, the document schema, and the coordinate oracle."""

import copy
import itertools
import json
import math

import numpy as np
import pytest

from frame_kahler import catalog
from frame_kahler.catalog import (
    SchemaError,
    coordinate_crosscheck,
    interval_bounds,
    load,
    parse_document,
)
from frame_kahler.frames import consistency_suite, koszul_connection, max_abs_on_grid
from frame_kahler.kahler import K, X, Y, check_admissible


class TestIntervalBounds:
    @pytest.mark.parametrize("spec,bounds", [
        (["-inf", "inf"], (-math.inf, math.inf)),
        (["-inf", "+inf"], (-math.inf, math.inf)),
        ([0.2, 1.4], (0.2, 1.4)),
        ((-1, 1), (-1.0, 1.0)),
        (["0.05", "1.0"], (0.05, 1.0)),
    ])
    def test_accepted(self, spec, bounds):
        assert interval_bounds(spec, "family.interval") == bounds

    # the command-line tests run the other refused intervals end to end
    @pytest.mark.parametrize("spec", [None, (1.0,), [{}, 1.0], [10**400, 1.0]])
    def test_refused_with_path(self, spec):
        with pytest.raises(SchemaError) as err:
            interval_bounds(spec, "family.interval")
        assert err.value.path == "family.interval"


class TestLoad:
    def test_seven_entries(self):
        assert len(catalog.catalog_ids()) == 7

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            load("nope")

    def test_all_entries_consistent_and_admissible(self, entries):
        for eid, entry in entries.items():
            grid = entry.grid()
            conn = koszul_connection(entry.data.structure)
            assert consistency_suite(conn, grid).passed, eid
            assert check_admissible(entry.data, conn, grid).passed, eid

    def test_s3xr_constants(self, entries):
        cs = entries["s3xr"].data.constants
        assert (cs.a, cs.b, cs.alpha, cs.beta) == (1.0, -1.0, -2.0, 0.0)
        assert entries["s3xr"].data.iota.at((0.0,)) == pytest.approx(-2.0)

    def test_planewave_constants(self, entries):
        cs = entries["planewave"].data.constants
        assert (cs.a, cs.b, cs.alpha, cs.beta) == (-1.0, 0.0, -1.0, 0.0)
        assert entries["planewave"].data.iota.at((0.0,)) == pytest.approx(-2.0)

    def test_ppwave_defaults(self, entries):
        cs = entries["ppwave"].data.constants
        assert (cs.a, cs.b, cs.alpha, cs.beta) == (1.0, -1.0, 0.0, 0.0)

    def test_ppwave_iota_parameter(self):
        entry = load("ppwave", iota="-sech(x)^2")
        pt = (0.0, 0.3, 0.0)
        assert entry.data.iota.at(pt) == pytest.approx(-1.0 / math.cosh(0.3) ** 2)

    def test_expectations_carry_sources(self, entries):
        for entry in entries.values():
            for key, exp in entry.expected.items():
                assert exp.source in ("reported", "direct", "derived"), (entry.entry_id, key)


class TestRoundTrip:
    @pytest.mark.parametrize("eid", ["s3xr", "planewave", "ppwave", "warped_alphaneg", "warped_complete"])
    def test_serialize_parse_reproduces_fields(self, entries, eid):
        entry = entries[eid]
        doc = copy.deepcopy(entry.document)
        json.loads(json.dumps(doc))  # JSON-stable
        data2 = parse_document(doc)[0]
        grid = entry.grid()
        S1, S2 = entry.data.structure, data2.structure
        worst = 0.0
        for a in range(4):
            for b in range(4):
                worst = max(worst, max_abs_on_grid(S1.g[a][b] - S2.g[a][b], grid))
                for c in range(4):
                    worst = max(worst, max_abs_on_grid(S1.C[a][b][c] - S2.C[a][b][c], grid))
            for i in range(S1.kset.size):
                worst = max(worst, max_abs_on_grid(S1.D[a][i] - S2.D[a][i], grid))
        worst = max(worst, max_abs_on_grid(entry.data.f - data2.f, grid))
        worst = max(worst, max_abs_on_grid(entry.data.iota - data2.iota, grid))
        assert worst <= 1e-12


class TestSchemaErrors:
    def test_missing_d_row_named(self, entries):
        doc = copy.deepcopy(entries["s3xr"].document)
        del doc["D"]["x"]
        with pytest.raises(SchemaError) as err:
            parse_document(doc)
        assert "D.x" in str(err.value)

    def test_conflicting_symmetric_metric(self, entries):
        doc = copy.deepcopy(entries["s3xr"].document)
        doc["g"]["T,k"] = "5"
        with pytest.raises(SchemaError):
            parse_document(doc)

    def test_duplicate_frame_names(self, entries):
        doc = copy.deepcopy(entries["s3xr"].document)
        doc["frames"] = ["k", "k", "x", "y"]
        with pytest.raises(SchemaError):
            parse_document(doc)

    def test_bad_expression_positional(self, entries):
        doc = copy.deepcopy(entries["s3xr"].document)
        doc["f"] = "exp(nope)"
        with pytest.raises(SchemaError) as err:
            parse_document(doc)
        assert "f" in str(err.value)

    def test_unknown_case(self):
        with pytest.raises(SchemaError):
            parse_document({"case": "weird"})

    def test_missing_fiber_key(self, entries):
        doc = copy.deepcopy(entries["warped_complete"].document)
        del doc["fiber"]["iota"]
        with pytest.raises(SchemaError) as err:
            parse_document(doc)
        assert "fiber" in str(err.value)

    def test_warped_document_parses_to_lift(self, entries):
        doc = copy.deepcopy(entries["warped_complete"].document)
        data, fiber, family = parse_document(doc)
        assert data.case == "warped"
        assert fiber is not None and family is not None
        assert family.lam == -3.0


class TestCoordinateOracle:
    def test_planewave_chart_matches(self, entries):
        rep = coordinate_crosscheck(entries["planewave"])
        assert rep.passed
        assert max(c.residual for c in rep.checks) <= 1e-6

    def test_whole_array_chart_bits(self):
        # the chart side on the (4, N) point array has the bits of the per-point
        # algebra: E G E^T, a central-difference bracket and one solve per frame
        # pair at each point, each callable read at that point alone
        chart, h = catalog.planewave_chart(), 1e-5
        points = np.array(list(itertools.product((-0.8, 0.0, 0.8), (-0.5, 0.5), (0.3, 1.1), (-0.7, 0.4)))).T
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]

        def at(fn, p):
            return fn(p[:, None])[0]

        def bracket(E, p, a, b):
            out = np.zeros(4)
            for nu in range(4):
                hp, hm = p.copy(), p.copy()
                hp[nu] += h
                hm[nu] -= h
                dXb = (at(chart.frame_fns[b], hp) - at(chart.frame_fns[b], hm)) / (2 * h)
                dXa = (at(chart.frame_fns[a], hp) - at(chart.frame_fns[a], hm)) / (2 * h)
                out += E[a][nu] * dXb - E[b][nu] * dXa
            return out

        g_ref, c_ref, twist_ref = [], [], []
        for p in points.T.copy():
            G = at(chart.metric_fn, p)
            E = np.array([at(f, p) for f in chart.frame_fns])
            g_ref.append(E @ G @ E.T)
            c_ref.append([np.linalg.solve(E.T, bracket(E, p, a, b)) for a, b in pairs])
            twist_ref.append(float(E[K] @ G @ bracket(E, p, X, Y)))
        g, c, twist = catalog._chart_values(chart, points, h)
        assert g.tobytes() == np.array(g_ref).tobytes()
        assert c.tobytes() == np.array(c_ref).tobytes()
        assert twist.tobytes() == np.array(twist_ref).tobytes()

    def test_dropped_potential_flagged(self):
        # without its du^2 term the chart's k is null no more; the entry is
        # loaded afresh because its chart's metric is replaced
        entry = load("planewave")
        good_metric = entry.chart.metric_fn

        def metric(p):
            m = good_metric(p)
            m[:, 0, 0] = 0.0
            return m

        entry.chart.metric_fn = metric
        rep = coordinate_crosscheck(entry)
        assert not rep.passed
        assert "k_null" in [c.check_id for c in rep.checks if not c.passed]

    def test_non_finite_chart_fails(self):
        # a chart metric that is NaN at every point after the first must not
        # read as the residual of the first point
        entry = load("planewave")
        good_metric = entry.chart.metric_fn

        def metric(p):
            m = good_metric(p)
            m[1:] = math.nan
            return m

        entry.chart.metric_fn = metric
        rep = coordinate_crosscheck(entry)
        by_id = {c.check_id: c for c in rep.checks}
        for cid in ("metric_values", "k_null", "twist"):
            assert not by_id[cid].passed
            assert by_id[cid].residual == math.inf
        assert by_id["bracket_coefficients"].passed

    def test_degenerate_shift_twist_inadmissible(self):
        entry = load("ppwave", iota="0")
        rep = check_admissible(entry.data, koszul_connection(entry.data.structure), entry.grid())
        assert not rep.passed
        assert "twist_nonvanishing" in [c.check_id for c in rep.checks if not c.passed]

    def test_entry_without_chart_rejects_crosscheck(self, entries):
        with pytest.raises(ValueError):
            coordinate_crosscheck(entries["s3xr"])
