"""Command-line interface: exit codes, report files, determinism."""

import argparse
import collections
import copy
import gc
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from frame_kahler import catalog as catalog_mod
from frame_kahler import cli as cli_mod
from frame_kahler import fields as fields_mod
from frame_kahler import frames as frames_mod
from frame_kahler.catalog import (SchemaError, capped_grid_box, catalog_ids, entry_from_document, family_document,
                                  interval_bounds, load)
from frame_kahler.cli import _write_report, build_parser, main, run_suite
from frame_kahler.fields import ScalarField, _Elementary, _Grid, constant, variable
from frame_kahler.frames import grid_points, max_abs_on_grid, min_on_grid, values_on_grid
from frame_kahler.reporting import VerificationReport
from frame_kahler.warped import TAU_KSET, WarpedFamily, adaptive_simpson, ke_ode_residual, region_checks


SECH = "-2*sech(x)^2"


def run_cli(*argv):
    return main(list(argv))


class TestVerify:
    def test_planewave_central_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--example", "planewave", "--suite", "central",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["passed"] is True
        assert any(c["id"] == "expected_s_tilde" for c in payload["checks"])

    def test_ke_suite_exit_zero(self, tmp_path):
        code = run_cli("verify", "--example", "warped_complete", "--suite", "ke",
                       "--out", str(tmp_path / "r.json"))
        assert code == 0

    def test_wrong_suite_is_usage_error(self):
        assert run_cli("verify", "--example", "s3xr", "--suite", "ke") == 2

    def test_unknown_example_is_usage_error(self):
        assert run_cli("verify", "--example", "nope") == 2

    def test_unknown_example_prints_the_message(self, capsys):
        # the message itself, not the repr of the KeyError that carried it
        assert run_cli("verify", "--example", "nope") == 2
        have = ", ".join(catalog_ids())
        assert capsys.readouterr().err == "error: --example: unknown catalog id 'nope' (have %s)\n" % have

    @pytest.mark.parametrize("doc", [[], [1, 2], "text", 3, None],
                             ids=["empty_array", "array", "string", "number", "null"])
    def test_document_that_is_not_an_object_names_the_file(self, tmp_path, capsys, doc):
        config, out = tmp_path / "doc.json", tmp_path / "r.json"
        config.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: %s: document must be a JSON object\n" % config
        assert not out.exists()

    def test_grid_override(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("verify", "--example", "planewave", "--grid", "u=-0.5:0.5:3",
                       "--out", str(out))
        assert code == 0
        assert "u=-0.5:0.5:3" in json.loads(out.read_text())["grid"]

    def test_bad_grid_spec(self):
        assert run_cli("verify", "--example", "planewave", "--grid", "u=oops") == 2

    @pytest.mark.parametrize("spec", ["x=0:1:0", "x=0:1:-2", "x=nan:1:3", "x=inf:1:3", "x=0:1:2.7"])
    def test_empty_or_non_finite_grid_is_usage_error(self, spec):
        assert run_cli("verify", "--example", "ppwave", "--grid", spec) == 2

    @pytest.mark.parametrize("where", ["--grid", "document"])
    def test_grid_over_the_point_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, where):
        # 3 x 4000 x 4000 points are refused before any grid is built
        def no_grid(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(frames_mod, "grid_points", no_grid)
        monkeypatch.setattr(catalog_mod, "grid_points", no_grid)
        if where == "--grid":
            argv = ["--example", "ppwave", "--grid", "x=0:1:4000", "--grid", "y=0:1:4000"]
        else:
            doc = load("ppwave", iota=SECH).document
            doc["grid"].update(x=[0, 1, 4000], y=[0, 1, 4000])
            config = tmp_path / "doc.json"
            config.write_text(json.dumps(doc))
            argv = ["--config", str(config)]
        assert run_cli("verify", *argv, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err == "error: %s: 48000000 grid points exceed the cap of 150000\n" % where.replace("document", "grid")
        assert not (tmp_path / "r.json").exists()

    def test_point_cap_counts_the_product_of_the_axes(self):
        box = {"tau": (-1.0, 1.0, 2), "x": (0.0, 1.0, 125), "y": (0.0, 1.0, 600)}
        assert capped_grid_box(box, "grid") is box
        with pytest.raises(SchemaError, match="150250 grid points exceed the cap of 150000"):
            capped_grid_box(dict(box, y=(0.0, 1.0, 601)), "grid")

    @pytest.mark.parametrize("grid,path", [
        ({"tau": [-0.5, 0.5, 0]}, "grid.tau"),
        ({"tau": ["nan", 0.5, 3]}, "grid.tau"),
        ({"tau": [-0.5, 0.5]}, "grid.tau"),
        ({"tau": ["low", 0.5, 3]}, "grid.tau"),
        ({"tau": [-0.5, 0.5, 2.7]}, "grid.tau"),
        ([[-0.5, 0.5, 3]], "grid"),
        ({"tau": "125"}, "grid.tau"),
    ])
    def test_bad_document_grid_is_usage_error(self, tmp_path, capsys, grid, path):
        # documents follow the --grid rule: finite bounds, an integral n >= 1
        doc = load("ppwave", iota=SECH).document
        doc["grid"] = grid
        config, out = tmp_path / "doc.json", tmp_path / "r.json"
        config.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: %s: " % path)
        assert not out.exists()

    @pytest.mark.parametrize("interval", [[1.0], 5, [1.0, -1.0], [math.nan, 1.0], [0, 1, 2], "nan",
                                          "12", ["-inf", "nan"], [0.5, "low"]])
    def test_bad_document_interval_is_usage_error(self, tmp_path, capsys, interval):
        doc = load("warped_alpha0").document
        doc["family"]["interval"] = interval
        config, out = tmp_path / "doc.json", tmp_path / "r.json"
        config.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: family.interval: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("entry_id,section,key,value,path", [
        ("s3xr", None, "g", [["k,T", "1"]], "g"),
        ("s3xr", None, "brackets", [], "brackets"),
        ("s3xr", None, "D", [], "D"),
        ("s3xr", None, "constants", [1, -1, -2, 0], "constants"),
        ("s3xr", None, "kset", 5, "kset"),
        ("s3xr", "constants", "a", "one", "constants.a"),
        ("warped_alpha0", "family", "lambda", "x", "family.lambda"),
        ("warped_alpha0", "family", "w", {"implicit_tan_seed": "abc"}, "family.w.implicit_tan_seed"),
        ("warped_alpha0", None, "fiber", [], "fiber"),
    ])
    def test_wrong_typed_document_value_is_usage_error(self, tmp_path, capsys, entry_id, section, key, value,
                                                        path):
        # well-formed JSON whose sections or numbers have the wrong type
        doc = copy.deepcopy(load(entry_id).document)
        (doc[section] if section else doc)[key] = value
        config, out = tmp_path / "doc.json", tmp_path / "r.json"
        config.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % path) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, kind):
        # a directory raised IsADirectoryError, bytes ff fe UnicodeDecodeError, each with exit 1
        config, out = tmp_path / "doc.json", tmp_path / "r.json"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(b"\xff\xfe{}")
        assert run_cli("verify", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % config) and "Traceback" not in err
        assert not out.exists()

    def test_too_deep_expression_is_usage_error(self, tmp_path):
        # evaluating a 600-term sum recurses past Python's recursion limit
        doc = copy.deepcopy(load("s3xr").document)
        doc["f"] = "exp(tau)" + "+1e-300*tau" * 600
        config, out = tmp_path / "deep.json", tmp_path / "r.json"
        config.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "frame_kahler.cli", "verify", "--config", str(config),
                               "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: expression too deep") and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("tol,code", [("0", 2), ("-1", 2), ("nan", 2), ("inf", 2),
                                          ("1e-30", 1), ("2", 0)])
    def test_tol_factor_is_applied_and_written(self, tmp_path, tol, code):
        out = tmp_path / "r.json"
        assert run_cli("verify", "--example", "planewave", "--tol", tol, "--out", str(out)) == code
        if code == 2:
            assert not out.exists()
            return
        checks = json.loads(out.read_text())["checks"]
        assert all(c["passed"] == (c["residual"] <= c["tol"]) for c in checks)

    def test_non_finite_kahler_metric_fails_with_report(self, tmp_path, capsys):
        # f is NaN at every tau but 0; the eigenvalue scans must fail, not raise
        doc = copy.deepcopy(load("s3xr").document)
        doc["f"] = "exp(tau) + (1e200*tau)*(1e200*tau)*(tau-tau)"
        path, out = tmp_path / "nan.json", tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(path), "--out", str(out)) == 1
        assert "Traceback" not in capsys.readouterr().err
        by_id = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
        for cid in ("kahler_positive_definite", "ricci_eigenvalues"):
            assert not by_id[cid]["passed"]
            assert by_id[cid]["residual"] == float("inf")

    def test_nan_matrix_entries_give_no_warning(self, tmp_path):
        # the NaN potential reaches the pointwise solves: their NaN rows are
        # left out of the stacked determinant, so numpy warns about nothing
        doc = copy.deepcopy(load("s3xr").document)
        doc["f"] = "exp(tau) + (1e200*tau)*(1e200*tau)*(tau-tau)"
        path, out = tmp_path / "nan.json", tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("verify", "--config", str(path), "--out", str(out)) == 1
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not json.loads(out.read_text())["passed"]

    def test_math_overflow_is_usage_error(self, tmp_path):
        # math.exp overflows at tau = 1: OverflowError is an ArithmeticError
        doc = copy.deepcopy(load("s3xr").document)
        doc["f"] = "exp(tau) + exp(2000*tau)"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(path)) == 2

    def test_float_overflow_fails_checks(self, tmp_path):
        # float products overflow silently to -inf, and the checks fail on it
        path, out = tmp_path / "doc.json", tmp_path / "r.json"
        path.write_text(json.dumps(load("ppwave", iota="-2 - (1e200*x)*(1e200*x)").document))
        assert run_cli("verify", "--config", str(path), "--out", str(out)) == 1
        by_id = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
        assert by_id["torsion_free"]["residual"] == float("inf")

    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--example", "s3xr", "--out", str(a))
        run_cli("verify", "--example", "s3xr", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_thread_env_does_not_change_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--example", "warped_alpha0", "--out", str(a))
        old = os.environ.get("FRAME_KAHLER_THREADS")
        os.environ["FRAME_KAHLER_THREADS"] = "4"
        try:
            run_cli("verify", "--example", "warped_alpha0", "--out", str(b))
        finally:
            if old is None:
                os.environ.pop("FRAME_KAHLER_THREADS", None)
            else:
                os.environ["FRAME_KAHLER_THREADS"] = old
        assert a.read_bytes() == b.read_bytes()

    def test_config_document(self, tmp_path):
        doc = copy.deepcopy(load("planewave").document)
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(doc))
        code = run_cli("verify", "--config", str(path), "--suite", "central")
        assert code == 0

    def test_warped_config_document(self, tmp_path):
        doc = {
            "schema_version": 1,
            "case": "warped",
            "fiber": {"kset": [], "alpha": 0, "iota": "-2"},
            "family": {"f": "1", "w": "exp(tau)", "lambda": -3, "C": 0,
                       "interval": ["-inf", "inf"]},
            "grid": {"tau": [-1.0, 1.0, 5]},
        }
        path = tmp_path / "warped.json"
        path.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(path), "--suite", "ke") == 0

    def test_mismatched_family_fails_honestly(self, tmp_path):
        # an alpha=-2 fiber with the alpha=0 solution family is not Einstein
        doc = {
            "schema_version": 1,
            "case": "warped",
            "fiber": {"kset": [], "alpha": -2, "iota": "-2"},
            "family": {"f": "1", "w": "exp(tau)", "lambda": -3, "C": 0,
                       "interval": [-1.0, 1.0]},
            "grid": {"tau": [-1.0, 1.0, 5]},
        }
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(path), "--suite", "ke") == 1

    def test_failing_config_exits_one(self, tmp_path):
        doc = copy.deepcopy(load("ppwave").document)
        # perturbed bracket: evaluable everywhere but inconsistent data
        doc["brackets"] = {"x,y": {"k": "-2", "T": "-1.9"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(path), "--suite", "central") == 1

    def test_invalid_document_exits_two(self, tmp_path):
        doc = copy.deepcopy(load("s3xr").document)
        del doc["D"]["x"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run_cli("verify", "--config", str(path)) == 2

    def test_csv_format_writes_curves(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = run_cli("verify", "--example", "planewave", "--format", "csv",
                       "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",")[:1] == ["u"]
        assert "s_tilde" in header


class TestCsvWriter:
    """Curves are written in blocks of rows through one line format, in the
    bytes that formatting each value with "%.17g" on its own gave."""

    VALUES = [-0.0, 5e-324, 1e-300, 0.1, 1.0, math.inf, -math.inf, math.nan]

    @staticmethod
    def per_value_csv(header, rows):
        lines = [",".join(header) + "\n"]
        for row in rows:
            lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")
        return "".join(lines)

    @pytest.mark.parametrize("rows", [
        np.array([VALUES, VALUES[::-1]]),
        np.array(VALUES)[:, None],
        np.column_stack([np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 1e-310, 7), np.full(7, 1e308)]),
        np.column_stack([np.linspace(-3.0, 3.0, 2500), np.sin(np.arange(2500.0))]),  # three blocks
    ])
    def test_bytes_equal_per_value_format(self, tmp_path, rows):
        header = ["c%d" % i for i in range(rows.shape[1])]
        out = tmp_path / "curves.csv"
        _write_report(VerificationReport(suite="s"), (header, rows), argparse.Namespace(format="csv", out=str(out)))
        assert out.read_bytes() == self.per_value_csv(header, rows).encode("utf-8")


class TestKeCommand:
    def test_alpha0_complete(self, tmp_path):
        out = tmp_path / "fam.csv"
        code = run_cli("ke", "--family", "alpha0", "--lam", "-1", "--a1", "1",
                       "--a2", "0", "--interval=-inf:inf", "--complete",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,w,f,c,ke_residual,s"
        assert len(lines) == 34

    def test_alphaneg_reports_flat(self, capsys):
        assert run_cli("ke", "--family", "alphaneg", "--alpha", "-1",
                       "--interval=0.2:1.4") == 0
        assert "flat=true" in capsys.readouterr().out

    def test_alpha0_not_flat(self, capsys):
        assert run_cli("ke", "--family", "alpha0", "--lam", "-3",
                       "--interval=-1:1") == 0
        assert "flat=false" in capsys.readouterr().out

    def test_alpha_minus2(self):
        assert run_cli("ke", "--family", "alpha_minus2", "--interval=0.05:1.0") == 0

    def test_each_elementary_function_computes_once_per_argument_and_grid(self, tmp_path, monkeypatch):
        # the sin, cos and tan derivative rules share one node per function of an
        # argument node (at 20,000 samples, 29 of 89 computes repeated one when
        # each rule built its own)
        computes = collections.Counter()
        arguments = []  # held, so that no argument's id is reused
        compute = _Elementary._compute

        def counted(self, grid):
            arguments.append(self.f)
            computes[(self.fn.call, id(self.f), grid.key)] += 1
            return compute(self, grid)

        monkeypatch.setattr(_Elementary, "_compute", counted)
        assert run_cli("ke", "--family", "alpha_minus2", "--interval=0.05:1.0", "--n", "50", "--complete",
                       "--out", str(tmp_path / "fam.csv")) == 0
        assert computes
        assert [call for (call, _, _), n in computes.items() if n > 1] == []

    def test_invalid_interval(self):
        assert run_cli("ke", "--family", "alpha0", "--interval", "oops") == 2

    @pytest.mark.parametrize("interval", ["nan:1", "1:nan", "1:-1", "0:0", "inf:inf", "0:1:2", "1"])
    def test_nan_or_empty_interval_is_usage_error(self, tmp_path, capsys, interval):
        # one interval rule (catalog.interval_bounds): two bounds, no NaN, lo < hi
        out = tmp_path / "fam.csv"
        assert run_cli("ke", "--family", "alpha0", "--lam", "-3", "--interval=" + interval,
                       "--n", "5", "--complete", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: --interval: ")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_samples_is_usage_error(self, n):
        assert run_cli("ke", "--family", "alpha0", "--n", n) == 2

    def test_samples_over_the_point_cap_are_usage_error(self, tmp_path, capsys, monkeypatch):
        # the tau grid holds --n points, so the grid cap holds, before any array is built
        def unbuilt(*args, **kwargs):
            raise AssertionError("an array was built")

        monkeypatch.setattr(np, "linspace", unbuilt)
        monkeypatch.setattr(_Grid, "__init__", unbuilt)
        out = tmp_path / "fam.csv"
        n = catalog_mod.MAX_GRID_POINTS + 1
        assert run_cli("ke", "--family", "alpha_minus2", "--interval=0.05:1.0", "--n", str(n),
                       "--complete", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --n: 150001 curve samples exceed the grid cap of 150000\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_samples(self, tmp_path, n):
        # the arclength column integrates over n - 1 intervals: none or one
        out = tmp_path / "fam.csv"
        assert run_cli("ke", "--family", "alpha0", "--lam", "-3", "--n", str(n),
                       "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == n and float(rows[0][-1]) == 0.0
        if n == 2:
            # c = (fw)'/w = 1, so s grows by sqrt(1/2) per unit of tau
            assert float(rows[1][-1]) == pytest.approx(2.0 * math.sqrt(0.5), rel=1e-12)

    def test_alpha0_positive_lambda_is_domain_error(self, capsys):
        # lam > 0 took the exponential-product form, whose complex prefactor died with a TypeError
        assert run_cli("ke", "--family", "alpha0", "--lam", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: negative base") and "Traceback" not in err

    def test_alphaneg_requires_negative_alpha(self):
        assert run_cli("ke", "--family", "alphaneg", "--alpha", "1",
                       "--interval=0.2:1.0") == 2

    @pytest.mark.parametrize("option, argv", [
        ("--lam", ["--family", "alpha0", "--lam", "nan"]),
        ("--a1", ["--family", "alpha0", "--a1", "inf", "--lam", "-3"]),
        ("--a2", ["--family", "alpha0", "--a2=-inf", "--lam", "-3"]),
        ("--C", ["--family", "alpha_minus2", "--C", "nan", "--interval=0.05:1.0"]),
        ("--alpha", ["--family", "alphaneg", "--alpha", "nan", "--interval=0.2:1.4"]),
    ])
    def test_non_finite_option_is_usage_error(self, tmp_path, capsys, option, argv):
        # a document cannot hold nan or inf: %r writes a name the parser does not know
        out = tmp_path / "fam.csv"
        assert run_cli("ke", *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: %s: need a finite number, got " % option)
        assert not out.exists()

    @pytest.mark.parametrize("option, argv", [
        ("--lam", ["--lam=-1e-320"]),  # the exponential-product scale (3 a1 / -lam)^(1/3)
        ("--lam", ["--lam=-1e-320", "--a2", "1"]),  # the reciprocal 1 / -lam
        ("--a1", ["--a1", "1e308", "--lam", "-1"]),
    ])
    def test_overflowing_derived_literal_is_usage_error(self, tmp_path, capsys, option, argv):
        # each option is finite, but a literal that the family derives from them is inf
        # (it exited 2 with "family.w: ... unknown variable name 'inf'")
        out = tmp_path / "fam.csv"
        assert run_cli("ke", "--family", "alpha0", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: the family's literal " % option) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["-1:1", "0:1", "-inf:1"])
    def test_alphaneg_interval_must_lie_in_positive_tau(self, tmp_path, capsys, interval):
        # f = tau^(-(1 + alpha/2)) and w = tau live on tau > 0
        out = tmp_path / "fam.csv"
        assert run_cli("ke", "--family", "alphaneg", "--interval=" + interval, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: --interval: family alphaneg lives on tau > 0")
        assert not out.exists()


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
with open(README, "r", encoding="utf-8") as _fh:
    README_KE_LINES = [line for line in _fh.read().splitlines() if line.startswith("frame-kahler ke ")]


@pytest.mark.parametrize("line", README_KE_LINES)
def test_readme_ke_example_passes(tmp_path, monkeypatch, line):
    # run from tmp_path, so that an --out of the example lands there
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_readme_has_the_three_ke_examples():
    assert sorted(shlex.split(line)[3] for line in README_KE_LINES) == ["alpha0", "alpha_minus2", "alphaneg"]


def _ke_runs():
    """``tools/write_reports.py``'s ``KE_RUNS``: the argv after ``ke`` of each harness run."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "write_reports.py")
    spec = importlib.util.spec_from_file_location("write_reports", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.KE_RUNS


KE_OPTION_SETS = dict(_ke_runs(), alphaneg_alpha_m3=["--family", "alphaneg", "--alpha", "-3", "--interval=0.2:1.4"])


def ke_document_entry(argv, **family_edits):
    """The entry of the warped document that ``ke`` writes for ``argv``,
    with ``family_edits`` applied to its family, and a 9-sample grid of the
    document's tau window."""
    args = build_parser().parse_args(["ke"] + argv)
    doc = family_document(args.family, interval_bounds(args.interval.split(":"), "--interval"),
                          args.alpha, args.lam, args.C, args.a1, args.a2)
    doc["family"].update(family_edits)
    entry = entry_from_document(args.family, "ke family %s" % args.family, doc, {})
    lo, hi, _ = entry.grid_box["tau"]
    return entry, grid_points(TAU_KSET, {"tau": (lo, hi, 9)})


class TestKeFamilyDocuments:
    @pytest.mark.parametrize("name", sorted(KE_OPTION_SETS))
    def test_document_passes_the_warped_suite(self, name):
        entry, grid = ke_document_entry(KE_OPTION_SETS[name])
        report, curves = run_suite(entry, "all", grid)
        assert [c.check_id for c in report.checks if not c.passed] == []
        assert len(report.checks) == 55
        assert curves is not None

    def test_detuned_lambda_fails_the_einstein_checks(self):
        # w of lambda = -1, declared with lambda = -1.1
        entry, grid = ke_document_entry(KE_OPTION_SETS["ke_alpha0"], **{"lambda": -1.1})
        report, _ = run_suite(entry, "all", grid)
        assert [c.check_id for c in report.checks if not c.passed] == [
            "einstein.einstein_residual", "einstein.ke_ode_residual"]


class TestCatalogCommand:
    def test_list_has_seven(self, capsys):
        assert run_cli("catalog", "list") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 7

    def test_show_planewave(self, capsys):
        assert run_cli("catalog", "show", "planewave") == 0
        out = capsys.readouterr().out
        assert "a=-1" in out and "alpha=-1" in out and "b=0" in out

    def test_show_warped_alpha0_family(self, capsys):
        assert run_cli("catalog", "show", "warped_alpha0") == 0
        out = capsys.readouterr().out
        assert "lambda=-3" in out and "w:" in out

    def test_show_unknown(self):
        assert run_cli("catalog", "show", "nope") == 2

    def test_show_unknown_prints_the_message(self, capsys):
        assert run_cli("catalog", "show", "nope") == 2
        have = ", ".join(catalog_ids())
        assert capsys.readouterr().err == "error: unknown catalog id 'nope' (have %s)\n" % have


BUILDERS = {
    "frames": ("koszul_connection", "curvature", "inverse_metric"),
    "kahler": ("build_kahler", "gamma_forms", "ricci_form"),
    "central": ("central_curvature", "conformal_scalar"),
}
MODULES = ("frames", "kahler", "central", "warped", "catalog", "cli")


def count_builds(monkeypatch, entry_id):
    """Calls of each builder during one run_suite call, counted through
    every module attribute that holds the builder."""
    modules = [importlib.import_module("frame_kahler." + name) for name in MODULES]
    counts = collections.Counter()
    for home, names in BUILDERS.items():
        for name in names:
            original = getattr(importlib.import_module("frame_kahler." + home), name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
    report, _ = run_suite(load(entry_id), "all")
    assert report.passed
    return dict(counts)


class TestBuildCounts:
    @pytest.mark.parametrize("entry_id", ["s3xr", "ppwave"])
    def test_central_builds_each_object_once(self, monkeypatch, entry_id):
        assert count_builds(monkeypatch, entry_id) == {
            "koszul_connection": 2,  # base structure and induced metric
            "build_kahler": 1,
            "gamma_forms": 1,
            "ricci_form": 1,
            "curvature": 1,
            "inverse_metric": 1,
            "central_curvature": 1,
            "conformal_scalar": 1,
        }

    def test_warped_builds_each_object_once(self, monkeypatch):
        assert count_builds(monkeypatch, "warped_alpha0") == {
            "koszul_connection": 3,  # base structure, fiber and induced metric
            "build_kahler": 1,
            "gamma_forms": 1,
            "ricci_form": 1,
            "curvature": 1,
            "inverse_metric": 1,
        }


class TestBuiltOnce:
    """One run_suite builds each object that several checks read once: the
    plane Laplacian of log|twist| (central) or of log|iota_bar| (the fiber),
    the forms-route Ricci, log|.| of the twist over each k-set, (fw)',
    c = (fw)'/w and the Jacobi residuals of the base structure. At the time
    each was shared, ppwave-sech built the plane Laplacian twice,
    warped_complete built the plane Laplacian, the forms-route Ricci and each
    log|iota_bar| twice and c three times, and a central entry with a
    constant twist built the Jacobi residuals twice."""

    def built(self, monkeypatch, entry):
        # builder -> what one call builds (None: not counted)
        keys = {
            "plane_laplacian_log_abs": lambda *args: "plane_laplacian_log_abs",
            "ricci_from_form": lambda rho: "ricci_from_form",
            "log_abs": lambda f: "log_abs over %r" % (f.kset.names,),
        }
        counts = collections.Counter()

        def counting(original, key):
            def counted(*args, **kwargs):
                what = key(*args, **kwargs)
                if what is not None:
                    counts[what] += 1
                return original(*args, **kwargs)
            return counted

        for name in MODULES:
            mod = importlib.import_module("frame_kahler." + name)
            for builder, key in keys.items():
                if hasattr(mod, builder):
                    monkeypatch.setattr(mod, builder, counting(getattr(mod, builder), key))
        for owner, prop in ((WarpedFamily, "fw_prime"), (WarpedFamily, "c_field"),
                            (frames_mod.FrameStructure, "jacobi_residuals")):
            cached = owner.__dict__[prop]
            monkeypatch.setattr(cached, "func", counting(cached.func, lambda obj, _prop=prop: _prop))
        report, _ = run_suite(entry, "all")
        assert report.passed
        return dict(counts)

    def test_central(self, monkeypatch):
        assert self.built(monkeypatch, load("ppwave", iota=SECH)) == {
            "plane_laplacian_log_abs": 1,
            "log_abs over ('tau', 'x', 'y')": 1,
            "ricci_from_form": 1,
            "jacobi_residuals": 1,
        }

    @pytest.mark.parametrize("entry_id", ["planewave", "ppwave"])
    def test_central_constant_twist(self, monkeypatch, entry_id):
        # left_invariance reads the Jacobi residuals that consistency_suite built
        assert self.built(monkeypatch, load(entry_id))["jacobi_residuals"] == 1

    def test_warped(self, monkeypatch):
        assert self.built(monkeypatch, load("warped_complete")) == {
            "plane_laplacian_log_abs": 1,  # the fiber's
            "log_abs over ()": 1,  # the fiber's
            "log_abs over ('tau',)": 1,  # the lifted twist's
            "ricci_from_form": 1,
            "fw_prime": 1,
            "c_field": 1,
            "jacobi_residuals": 1,
        }


class TestSolveCounts:
    """Each distinct pointwise matrix is assembled and det-checked once per
    grid, and the systems of one group (a connection's Koszul systems, the
    inverse-metric columns, the derivative systems of one group along one
    variable) are solved against it in one call per grid: by
    ``fields._diagonal_solve`` for a diagonal matrix, by
    ``fields._substitute`` for a constant matrix with unit factors (every
    catalog frame metric), and by LAPACK for any other. A grid here is a
    projection of the run's grid onto the variables that a request reads,
    so one matrix may meet two of them."""

    @pytest.mark.parametrize("entry,box,calls", [
        # base structure and induced metric; the induced metric on two projections
        # (det 2, solve 46 when every request was evaluated on the whole grid; solve 47
        # when each solve also built and solved its derivative systems along y, which no
        # field reads, with all-zero right-hand sides; solve 40 when the diagonal induced
        # metric was solved by LAPACK too; solve 8 and _diagonal_solve 32 when each
        # distinct right-hand side was solved in a call of its own; solve 2 when the
        # constant frame metric was solved by LAPACK)
        (lambda: load("ppwave", iota=SECH), {"x": (-0.6, 0.6, 8), "y": (-0.6, 0.6, 8)},
         {"det": 3, "solve": 0, "_diagonal_solve": 7}),
        # and the fiber; s is summed only on a grid where it is read, and no warped check
        # reads it, so the four inverse-metric columns are not solved (solve 57 when the
        # curvature tensor summed s on every grid; solve 53 when the diagonal induced
        # metric and the fiber's orthonormal frame metric were solved by LAPACK too;
        # solve 15 and _diagonal_solve 38 when each distinct right-hand side was solved
        # in a call of its own; solve 1 when the constant frame metric was solved by LAPACK)
        (lambda: load("warped_alpha0"), {}, {"det": 3, "solve": 0, "_diagonal_solve": 4}),
        # one solve for the Ricci endomorphism spectrum and one for the coordinate chart, every
        # frame pair at every chart point (solve 145 when each point and pair was solved alone)
        (lambda: load("planewave"), {}, {"det": 2, "solve": 2, "_diagonal_solve": 3}),
    ])
    def test_one_det_per_matrix(self, monkeypatch, entry, box, calls):
        entry = entry()
        grid = grid_points(entry.data.kset, dict(entry.grid_box, **box))
        counts = collections.Counter()
        for name in calls:
            owner = fields_mod if name == "_diagonal_solve" else np.linalg

            def counted(*args, _name=name, _original=getattr(owner, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        report, _ = run_suite(entry, "all", grid)
        assert report.passed
        assert {name: counts[name] for name in calls} == calls

    @pytest.mark.parametrize("entry_id", catalog_ids())
    def test_no_catalog_matrix_stays_on_lapack(self, monkeypatch, entry_id):
        # every pointwise matrix of a catalog run is diagonal or has unit LU factors
        holders, init = [], fields_mod._PointwiseMatrix.__init__
        monkeypatch.setattr(fields_mod._PointwiseMatrix, "__init__",
                            lambda self, rows: holders.append(self) or init(self, rows))
        entry = load(entry_id)
        report, _ = run_suite(entry, "all", grid_points(entry.data.kset, entry.grid_box))
        assert report.passed and holders
        assert [h for h in holders if not (h.diagonal or h.lu)] == []
        assert any(h.lu for h in holders)

    def test_solves_run_on_projected_grids(self, monkeypatch):
        # no field of ppwave-sech reads y, so each system is solved on at most the 3 x 8
        # distinct (tau, x) of the 3 x 8 x 8 grid (192 rows when it ran on every point);
        # one call solves a group of k <= 16 systems as k (n, points) blocks side by side,
        # by substitution for the constant frame metric (as k broadcast (points, n, n)
        # LAPACK stacks before) and by _diagonal_solve for the diagonal induced metric
        entry = load("ppwave", iota=SECH)
        grid = grid_points(entry.data.kset, dict(entry.grid_box, x=(-0.6, 0.6, 8), y=(-0.6, 0.6, 8)))
        assert len(grid) == 192
        calls, systems = {"lapack": 0, "substitute": 0, "diagonal": 0}, []
        solve, substitute, diagonal_solve = np.linalg.solve, fields_mod._substitute, fields_mod._diagonal_solve

        def counted(a, b):
            calls["lapack"] += 1
            return solve(a, b)

        def counted_substitute(y, *factors):
            calls["substitute"] += 1
            assert y.shape[1] <= 16 * 24
            return substitute(y, *factors)

        def counted_diagonal(d, b):
            calls["diagonal"] += 1
            assert b.shape[1] <= 16 * 24
            return diagonal_solve(d, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(fields_mod, "_substitute", counted_substitute)
        monkeypatch.setattr(fields_mod, "_diagonal_solve", counted_diagonal)
        init = fields_mod.LinearFieldSystem.__init__
        monkeypatch.setattr(fields_mod.LinearFieldSystem, "__init__",
                            lambda self, *args: systems.append(self) or init(self, *args))
        report, _ = run_suite(entry, "all", grid)
        assert report.passed
        assert calls["substitute"] and calls["diagonal"] and calls["lapack"] == 0
        assert max(x.shape[1] for s in systems for x in s._cache.values()) <= 24

    NODES_BUILT = [
        (lambda: load("ppwave", iota=SECH), {"x": (-0.6, 0.6, 8), "y": (-0.6, 0.6, 8)}, 3084),
        (lambda: load("warped_alpha0"), {}, 2480),
        (lambda: load("ppwave"), {}, 2221),
    ]

    @pytest.mark.parametrize("entry,box,nodes", NODES_BUILT, ids=["ppwave_sech", "warped_alpha0", "ppwave"])
    def test_nodes_built(self, monkeypatch, entry, box, nodes):
        # frame contractions build no term with a constant-zero factor
        # (26,003 and 16,973 nodes when every term was built), each
        # shared object is built once (12,888 and 9,337 when some were
        # built two or three times), each elementary function of one
        # argument node is one node (12,870 for ppwave_sech when each call
        # built its own: 20 more cosh, sinh and sqrt nodes), and the
        # curvature identities sum the rows R_abcd with a < b as arrays
        # (12,834 and 9,280 with a node per sum and per row with a > b), and
        # folds and derivatives read their k-set's shared +0.0 and -1.0
        # (12,174 and 8,620 when each built its own), the curvature tensor is
        # computed as arrays and read through 209 row nodes (7,418 and 5,214
        # with a node per contraction term), a product whose merged
        # constant factor is 1.0 is its other factor (5,622 and 3,322 when it
        # built a Const and a _Mul), a partial along a variable that a node
        # does not read is the shared zero (5,393 and 3,105, and 3,776 for the
        # catalog ppwave, when each node derived it by its rule), and a -0.0
        # fold is the k-set's shared -0.0 (3,568, 3,105 and 2,734 when each
        # fold built its own), each d_a g_bc, g(e_u, [e_v, e_w]) and negative
        # 2-form pair is built once per structure and no row node stands for
        # R_abc^e (3,438, 2,995 and 2,601 when each read built its own and
        # each tensor built its R rows), a -1.0 fold is the k-set's shared
        # -1.0 (3,190, 2,536 and 2,351 when each fold built its own), and the
        # Laplacian and gradient helpers read one list of d_a F per field
        # (3,121 and 2,260 for the central entries when each helper derived
        # d_a F again: 69 repeated derivatives per ppwave-sech run), and dg derives
        # each distinct metric node once per direction (3,085, 2,486 and 2,224 when
        # an induced metric's g_kk, the node g_TT, was derived again)
        entry = entry()
        grid = grid_points(entry.data.kset, dict(entry.grid_box, **box))
        built = []
        init = ScalarField.__init__

        def counted(self, kset):
            built.append(1)
            init(self, kset)

        monkeypatch.setattr(ScalarField, "__init__", counted)
        run_suite(entry, "all", grid)
        assert len(built) == nodes

    def test_every_node_runs_the_counted_constructor(self, monkeypatch):
        # bench/spans.py counts nodes by wrapping ScalarField.__init__ and
        # __del__: a node class that skipped the constructor would die unbuilt
        entry, box, nodes = self.NODES_BUILT[0]
        built, died = [], []
        init = ScalarField.__init__

        def counted(self, kset):
            init(self, kset)
            built.append(1)

        gc.collect()  # the nodes of earlier tests die uncounted
        monkeypatch.setattr(ScalarField, "__init__", counted)
        monkeypatch.setattr(ScalarField, "__del__", lambda self: died.append(1), raising=False)
        entry = entry()
        loaded = len(built)
        run_suite(entry, "all", grid_points(entry.data.kset, dict(entry.grid_box, **box)))
        del entry
        gc.collect()
        assert len(built) - loaded == nodes
        assert len(died) == len(built)


class TestNothingOutlivesARun:
    def test_no_structure_system_or_node_outlives_its_runs(self):
        # the CI step "In-process peak memory stays flat" cannot see a per-structure
        # table kept past its run (a dg table leaked to a module-level list read +0.8 MB,
        # under its 1 MB limit); a fresh process counts what is alive instead: after 3
        # warped_alpha0 and 3 ppwave-sech 3x8x8 runs and a collection, no frame structure
        # or pointwise system, and no node but warped.TAU_KSET's three shared constants
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = """
import gc
from frame_kahler.catalog import load
from frame_kahler.cli import run_suite
from frame_kahler.fields import LinearFieldSystem, ScalarField
from frame_kahler.frames import FrameStructure, grid_points
from frame_kahler.warped import TAU_KSET
for _ in range(3):
    entry = load("warped_alpha0")
    assert run_suite(entry, "all", grid_points(entry.data.kset, entry.grid_box))[0].passed
    entry = load("ppwave", iota=%r)
    box = dict(entry.grid_box, x=(-0.6, 0.6, 8), y=(-0.6, 0.6, 8))
    assert run_suite(entry, "all", grid_points(entry.data.kset, box))[0].passed
del entry
gc.collect()
alive = gc.get_objects()
nodes = [o for o in alive if isinstance(o, ScalarField)]
shared = (TAU_KSET.zero, TAU_KSET.minus_zero, TAU_KSET.minus_one)
print(sum(isinstance(o, FrameStructure) for o in alive), sum(isinstance(o, LinearFieldSystem) for o in alive),
      len(nodes), sorted(map(id, nodes)) == sorted(map(id, shared)))
""" % SECH
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "3", "True"]


class TestKePeakMemory:
    """The allocations of one ke call, counted by tracemalloc after a
    warm-up, so the bounds do not depend on the host's heap or page sizes."""

    @staticmethod
    def traced_peak(tmp_path, n):
        """The traced peak of one ``ke --complete --format both`` call at n
        samples, in MiB."""
        argv = ["ke", "--family", "alpha_minus2", "--interval=0.05:1.0", "--complete", "--n", str(n),
                "--format", "both", "--out", str(tmp_path / "fam")]
        assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_traced_peak_of_a_20k_ke_call(self, tmp_path, capsys):
        # 13.4 MiB when the Simpson and completeness grids kept their arrays through the
        # CSV write and the 39,998-tau root batch ran as one Newton iteration; 8.46 MiB
        # once both were gone, with the whole tau grid converted once and its arrays kept
        # to the end of the call; 2.5 MiB with the samples in one-off blocks of 4,096
        peak = self.traced_peak(tmp_path, 20000)
        capsys.readouterr()
        assert peak < 3.0, "traced peak %.2f MiB" % peak

    def test_traced_peak_grows_by_at_most_128_bytes_per_sample(self, tmp_path, capsys):
        # ~98 B per added sample: the five value columns, the tau samples and the
        # six-column curve table; ~424 B when the converted tau grid kept every
        # multi-reader node's array and the arclength ran over all intervals at once
        low, high = (self.traced_peak(tmp_path, n) for n in (20000, 60000))
        capsys.readouterr()
        per_sample = (high - low) * 2 ** 20 / 40000
        assert per_sample <= 128.0, "%.1f B per sample (%.2f -> %.2f MiB)" % (per_sample, low, high)


class TestKeSampleBlocks:
    """``ke`` evaluates its samples in one-off requests of ``cli._BLOCK``
    samples and its arclength over blocks of as many intervals; neither
    moves a bit of the curve or of the report. The oracle evaluates the
    curve on one converted grid and integrates all intervals in one
    ``adaptive_simpson`` call."""

    FAMILY = ["--family", "alpha_minus2", "--interval=0.05:1.0"]

    @staticmethod
    def oracle(n):
        """(curve columns, ke_ode_residual, min f, min (fw)') of the
        alpha_minus2 family on 0.05:1.0 at n samples."""
        doc = family_document("alpha_minus2", (0.05, 1.0))
        entry = entry_from_document("alpha_minus2", "oracle", doc, {})
        fam = entry.family
        lo, hi, _ = entry.grid_box["tau"]
        grid = _Grid.of(np.linspace(lo, hi, n)[:, None])
        ode = ke_ode_residual(fam, entry.data.constants.alpha)
        w, f, c, residual = values_on_grid([fam.w, fam.f, fam.c_field, ode], grid)

        def speed(c):
            return np.sqrt(np.where(0.0 > c, 0.0, c) * 0.5)

        tau = grid.cols[0]
        at = speed(c)
        increments = adaptive_simpson(lambda t: speed(values_on_grid(fam.c_field, t[:, None])),
                                      tau[:-1], tau[1:], at[:-1], at[1:])
        s = np.cumsum(np.concatenate([[0.0], increments]))
        return ([tau, w, f, c, residual, s], max_abs_on_grid(ode, grid), min_on_grid(fam.f, grid),
                min_on_grid(fam.fw_prime, grid))

    @pytest.mark.parametrize("n", [1, 2, cli_mod._BLOCK, cli_mod._BLOCK + 1, 2 * cli_mod._BLOCK + 1, 20000])
    def test_curve_and_report_match_the_unblocked_oracle(self, tmp_path, capsys, n):
        out = tmp_path / "fam"
        assert main(["ke", *self.FAMILY, "--n", str(n), "--format", "both", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "fam.csv").read_text().splitlines()
        assert lines[0] == "tau,w,f,c,ke_residual,s"
        written = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(n, 6)
        columns, ode, min_f, min_fwp = self.oracle(n)
        for name, got, want in zip(lines[0].split(","), written.T, columns):
            assert got.tobytes() == want.tobytes(), name
        checks = {c["id"]: c for c in json.loads((tmp_path / "fam.json").read_text())["checks"]}
        assert checks["ke_ode_residual"]["residual"] == ode
        assert checks["region_f_positive"]["note"] == "min f = %.6g" % min_f
        assert checks["region_fw_increasing"]["note"] == "min (fw)' = %.6g" % min_fwp

    @pytest.mark.parametrize("f", ["2 + logabs(tau - 5000) + logabs(tau - 100)",
                                   "2 + logabs(tau - 100) + logabs(tau - 5000)"])
    def test_error_names_the_first_failing_sample(self, tmp_path, capsys, monkeypatch, f):
        # f fails at tau = 100 (first block) and tau = 5000 (second block) of the
        # samples 1, 2, ..., 8193; evaluated on the whole grid at once, the first order
        # named 5000, where the node evaluated first fails
        def document(*args, **kwargs):
            doc = family_document(*args, **kwargs)
            doc["family"]["f"] = f
            return doc

        monkeypatch.setattr(cli_mod, "family_document", document)
        out = tmp_path / "fam.csv"
        assert main(["ke", "--family", "alpha0", "--interval=1:8193", "--n", "8193", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: quotient has degenerate denominator 0.0 at (100.0,)\n"
        assert not out.exists()


class TestGridConversions:
    """A run converts its grid to columns once and passes the converted grid
    to every evaluation on it (50 and 60 conversions when each evaluation
    converted the points again). The grids that ``_Grid.projection`` builds
    from a converted grid are not conversions of points, and are left out of
    the count."""

    @pytest.mark.parametrize("entry,box,conversions", [
        (lambda: load("ppwave", iota=SECH), {"x": (-0.6, 0.6, 8), "y": (-0.6, 0.6, 8)}, 1),
        # the grid, the fiber grid, the tau samples (once in einstein_verdict, once for the
        # region checks and the curve table) and 5 arclength refinements of the curve table
        (lambda: load("warped_alpha0"), {}, 9),
        # the grid, the middle point of the structure constants and the 24 chart
        # points (5 when the chart points were converted three times)
        (lambda: load("planewave"), {}, 3),
    ])
    def test_grids_built_per_run(self, monkeypatch, entry, box, conversions):
        entry = entry()
        grid = grid_points(entry.data.kset, dict(entry.grid_box, **box))
        built = []
        projected = []
        init = _Grid.__init__
        projection = _Grid.projection

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        def counted_projection(self, mask):
            before = len(built)
            got = projection(self, mask)
            projected.append(len(built) - before)
            return got

        monkeypatch.setattr(_Grid, "__init__", counted)
        monkeypatch.setattr(_Grid, "projection", counted_projection)
        report, _ = run_suite(entry, "all", grid)
        assert report.passed
        assert len(built) - sum(projected) == conversions


class TestCheckConsistency:
    def test_failing_region_check_has_positive_residual(self):
        # min f = 0 fails f > 0; max(0, -min f) would write residual 0.0
        tau = variable(TAU_KSET, "tau")
        fam = WarpedFamily(tau, constant(TAU_KSET, 1.0), 0.0, 0.0, (0.0, 0.5))
        report = VerificationReport(suite="region")
        region_checks(report, *values_on_grid([fam.f, fam.fw_prime], [(0.0,), (0.5,)]))
        by_id = {c.check_id: c for c in report.checks}
        assert not by_id["region_f_positive"].passed
        assert by_id["region_f_positive"].residual > by_id["region_f_positive"].tol
        assert by_id["region_fw_increasing"].passed
        assert by_id["region_fw_increasing"].residual == 0.0

    @pytest.mark.parametrize("residual,tol,passed", [(0.0, 0.0, True), (1.0, 0.0, False),
                                                     (float("nan"), 1.0, False), (float("inf"), 1.0, False),
                                                     (1e-9, 1e-9, True)])
    def test_passed_follows_residual_le_tol(self, residual, tol, passed):
        report = VerificationReport(suite="s")
        check = report.add("c", residual, tol)
        assert check.passed is passed and report.passed is passed
        copy = VerificationReport(suite="t")
        copy.extend(report, prefix="copy.")
        assert copy.checks[0].passed is passed


class RecordingDict(dict):
    """Expectations that remember which keys a suite looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestSuiteRunners:
    def test_wrong_suite_raises_schema_error(self):
        with pytest.raises(SchemaError):
            run_suite(load("s3xr"), "ke")
        with pytest.raises(SchemaError):
            run_suite(load("warped_alpha0"), "central")

    @pytest.mark.parametrize("entry_id", catalog_ids())
    def test_every_expectation_is_read(self, entry_id):
        entry = load(entry_id)
        entry.expected = RecordingDict(entry.expected)
        report, _ = run_suite(entry, "all")
        assert report.passed
        assert entry.expected.read == set(entry.expected)

    def test_run_suite_dispatch(self, entries):
        rep, curves = run_suite(load("s3xr"), "all")
        assert rep.passed
        header, rows = curves
        assert header[-3:] == ["s_tilde", "s_K", "central_curvature"]
        assert len(rows) == 5

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "frame_kahler.cli", "catalog", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "planewave" in proc.stdout


class TestBenchmarkSpans:
    def test_every_named_span_resolves(self):
        # bench/spans.py names program functions, and Tracer.install raises
        # when one of them no longer exists
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys\n"
                "sys.path.insert(0, %r)\n"
                "import spans\n"
                "tracer = spans.Tracer()\n"
                "try:\n"
                "    tracer.install()\n"
                "finally:\n"
                "    tracer.uninstall()\n" % os.path.join(root, "bench"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestReportHarness:
    def test_writes_every_report(self, tmp_path):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "write_reports.py")
        spec = importlib.util.spec_from_file_location("write_reports", path)
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        assert harness.main([str(tmp_path)]) == 0
        codes = dict(line.split() for line in (tmp_path / "exit_codes.txt").read_text().splitlines())
        failing = {"config_warped_alpha0_lambda_m1", "config_s3xr_gxx_2", "config_s3xr_nan_f",
                   "planewave_tol_1e-30"}
        errors = {"config_s3xr_f_tau2", "config_s3xr_log_f"}
        assert len(codes) == 22
        assert codes == {name: "2" if name in errors else "1" if name in failing else "0" for name in codes}
        for name in codes:
            if name in errors:
                assert (tmp_path / (name + ".err")).read_text().startswith("error: ")
                assert not (tmp_path / (name + ".json")).exists()
                assert not (tmp_path / (name + ".csv")).exists()
            else:
                assert (tmp_path / (name + ".json")).stat().st_size > 0
                assert (tmp_path / (name + ".csv")).stat().st_size > 0
                assert not (tmp_path / (name + ".err")).exists()
