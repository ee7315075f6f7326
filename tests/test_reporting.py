"""Report JSON bytes against the standard library's encoder."""

import json
import math

import pytest

from frame_kahler.catalog import catalog_ids, load
from frame_kahler.cli import run_suite
from frame_kahler.reporting import SCHEMA_VERSION, VerificationReport


def reference_json(report):
    """``json.dumps(indent=2)`` of the report's layout, the dict built here."""
    d = {
        "schema_version": SCHEMA_VERSION,
        "suite": report.suite,
        "grid": report.grid_spec,
        "passed": all(c.residual <= c.tol for c in report.checks),
        "checks": [{"id": c.check_id, "residual": c.residual, "tol": c.tol, "passed": c.residual <= c.tol,
                    "note": c.note, "source": c.source} for c in report.checks],
    }
    return json.dumps(d, indent=2) + "\n"


@pytest.mark.parametrize("entry_id", catalog_ids())
def test_catalog_report_bytes(entry_id):
    report, _ = run_suite(load(entry_id), "all")
    assert report.grid_spec
    assert report.to_json() == reference_json(report)


def test_failing_report_bytes():
    report = VerificationReport(suite="failing", grid_spec="tau=-1:1:5")
    report.add("over", 1.5, 1e-9, note="worst at (0.5,)", source="derived")
    report.add("under", 0.0, 1e-9)
    assert not report.passed
    assert report.to_json() == reference_json(report)


def test_empty_report_bytes():
    report = VerificationReport(suite="")
    assert report.to_json() == reference_json(report) == (
        '{\n  "schema_version": 1,\n  "suite": "",\n  "grid": "",\n  "passed": true,\n  "checks": []\n}\n')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
                                   0.1, 1e16, 123456789.0, 2.0 ** 63])
def test_number_bytes(value):
    report = VerificationReport(suite="numbers")
    report.add("residual", value, 1e-9)
    report.add("tol", 0.5, value)
    assert report.to_json() == reference_json(report)


def test_non_finite_numbers_read_back():
    # json writes NaN, Infinity and -Infinity, which json.loads reads back
    report = VerificationReport(suite="numbers")
    for value in (math.nan, math.inf, -math.inf):
        report.add("v", value, value)
    got = [(c["residual"], c["tol"]) for c in json.loads(report.to_json())["checks"]]
    assert math.isnan(got[0][0]) and math.isnan(got[0][1])
    assert got[1:] == [(math.inf, math.inf), (-math.inf, -math.inf)]


TEXTS = ["plain", "grüße τ ≤ 1", "emoji \U0001d4b3", 'quote " inside', "back\\slash",
         "line\nbreak\ttab\r\x00\x1f\x7f", "  ", ""]


@pytest.mark.parametrize("text", TEXTS)
def test_string_bytes(text):
    report = VerificationReport(suite=text, grid_spec=text)
    report.add(text, 0.0, 1.0, note=text, source=text)
    report.add("second " + text, 2.0, 1.0, note=text[::-1], source=text)
    assert report.to_json() == reference_json(report)
