"""Structured pass/fail reports for verification suites.

A check records the worst residual seen over a grid against its tolerance,
and passes exactly when residual <= tol; no caller sets the verdict.
Reports serialize deterministically (no timing data in the payload), so two
runs over identical inputs and grids produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

SCHEMA_VERSION = 1

# Check tolerances: exact identities, frame-level residuals, cross-route comparisons.
TOL_TIGHT = 1e-9
TOL_FRAME = 1e-8
TOL_CROSS = 1e-7


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

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "grid": self.grid_spec,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "residual": c.residual,
                    "tol": c.tol,
                    "passed": c.passed,
                    "note": c.note,
                    "source": c.source,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

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
