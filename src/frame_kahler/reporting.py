"""Structured pass/fail reports for verification suites.

A check records the worst residual seen over a grid against its tolerance,
and passes exactly when residual <= tol; no caller sets the verdict.
Reports serialize deterministically (no timing data in the payload), so two
runs over identical inputs and grids produce byte-identical files. The JSON
is ``json.dumps(..., indent=2)``'s byte for byte, from one template.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

SCHEMA_VERSION = 1

# Check tolerances: exact identities, frame-level residuals, cross-route comparisons.
TOL_TIGHT = 1e-9
TOL_FRAME = 1e-8
TOL_CROSS = 1e-7

_json_string = json.encoder.encode_basestring_ascii
_JSON_BOOL = {True: "true", False: "false"}
_JSON_CHECK = ('    {\n      "id": %s,\n      "residual": %s,\n      "tol": %s,\n'
               '      "passed": %s,\n      "note": %s,\n      "source": %s\n    }')
_JSON_REPORT = ('{\n  "schema_version": %d,\n  "suite": %s,\n  "grid": %s,\n'
                '  "passed": %s,\n  "checks": %s\n}\n')


def _json_number(x: float) -> str:
    """``x`` as json writes a float: float.__repr__, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


@dataclass
class CheckResult:
    check_id: str
    residual: float
    tol: float
    note: str = ""
    source: str = ""  # where the expected value comes from: reported | direct | derived

    @property
    def passed(self) -> bool:
        """The verdict: residual <= tol, so a NaN residual fails."""
        return self.residual <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = "[%s] %-42s residual %.3e  (tol %.1e)" % (status, self.check_id, self.residual, self.tol)
        if self.note:
            msg += "  " + self.note
        return msg


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    grid_spec: str = ""

    def add(self, check_id: str, residual: float, tol: float, note: str = "", source: str = ""):
        result = CheckResult(check_id, float(residual), float(tol), note, source)
        self.checks.append(result)
        return result

    def extend(self, other: "VerificationReport", prefix: str = ""):
        self.checks.extend(replace(c, check_id=prefix + c.check_id) for c in other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        checks = ",\n".join(_JSON_CHECK % (
            _json_string(c.check_id), _json_number(c.residual), _json_number(c.tol), _JSON_BOOL[c.passed],
            _json_string(c.note), _json_string(c.source)) for c in self.checks)
        return _JSON_REPORT % (SCHEMA_VERSION, _json_string(self.suite), _json_string(self.grid_spec),
                               _JSON_BOOL[self.passed], "[\n%s\n  ]" % checks if checks else "[]")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "residual", "tol", "passed", "note", "source"])
        for c in self.checks:
            writer.writerow([c.check_id, "%.*e" % (17, c.residual), "%.*e" % (17, c.tol),
                             int(c.passed), c.note, c.source])
        return buf.getvalue()

    def print_lines(self):
        print("suite: %s%s" % (self.suite, "  [%s]" % self.grid_spec if self.grid_spec else ""))
        for c in self.checks:
            print("  " + c.line())
        print("  => %s" % ("PASS" if self.passed else "FAIL"))
