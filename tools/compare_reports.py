"""Compare two directories written by ``tools/write_reports.py`` up to K ulps.

Usage (from the root of a source checkout):

    python3 tools/compare_reports.py A B [--ulps K]

``diff -r`` demands identical bytes; this tool lets a change move numbers
by a bounded amount and holds everything else fixed. It requires:

* the same set of files under A and B;
* identical ``exit_codes.txt``, ``.err`` lines and input documents
  (``docs/``);
* in every report JSON, the same top-level fields, check ids in the same
  order, and the same verdicts (``passed``), tols and sources;
* every residual, every number inside a note and every CSV cell within K
  ulps, or both values at or below ``1e-3 *`` the smallest positive tol of
  the report JSON (for a CSV, the JSON of the same name). Text around the
  numbers of a note and every non-numeric CSV cell must be identical.

The ulp distance of two doubles is the number of representable doubles
between them (0 for equal values, and for two NaNs). The tool prints, per
file, ``identical`` or the largest ulp distance over the values outside
the floor and how many moved values the floor accepted; then every
violation, naming the file and the field. Exit status: 0 when the trees agree, 1 when they do
not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import struct
import sys

FLOOR_FACTOR = 1e-3
# a decimal or exponent number, or an inf/nan token, as %g, repr and the
# json module write them
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan|Infinity|NaN)")


def _ordered(x: float) -> int:
    """An integer that orders doubles as their values do (-0.0 as 0.0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(a: float, b: float) -> float:
    """Representable doubles between a and b: 0 when equal or both NaN,
    infinite when only one is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(_ordered(a) - _ordered(b))


def tree(root: str) -> list:
    """Paths of every file under root, relative, with ``/`` separators."""
    return sorted(os.path.relpath(os.path.join(base, name), root).replace(os.sep, "/")
                  for base, _, names in os.walk(root) for name in names)


def _floor(report: dict) -> float:
    tols = [c["tol"] for c in report.get("checks", ()) if c["tol"] > 0.0]
    return FLOOR_FACTOR * min(tols) if tols else 0.0


class FileComparison:
    """Differences between the two versions of one file."""

    def __init__(self, name: str, ulps: int):
        self.name, self.ulps = name, ulps
        self.floor = 0.0  # both values at or below it: accepted at any distance
        self.identical = False
        self.max_ulps = 0
        self.floored = 0  # unequal value pairs that the floor accepted
        self.problems = []

    def fail(self, field: str, message: str):
        self.problems.append("%s: %s: %s" % (self.name, field, message))

    def number(self, field: str, a: float, b: float):
        d = ulp_distance(a, b)
        if d and abs(a) <= self.floor and abs(b) <= self.floor:
            self.floored += 1
            return
        self.max_ulps = max(self.max_ulps, d)
        if d > self.ulps:
            self.fail(field, "%r vs %r (%s ulps)" % (a, b, d))

    def exact(self, field: str, a, b):
        if a != b:
            self.fail(field, "%r vs %r" % (a, b))

    def text(self, field: str, a: str, b: str):
        """Text equal up to its numbers, which are compared as numbers."""
        parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
        nums_a, nums_b = NUMBER.findall(a), NUMBER.findall(b)
        if parts_a != parts_b or len(nums_a) != len(nums_b):
            self.fail(field, "%r vs %r" % (a, b))
            return
        for k, (x, y) in enumerate(zip(nums_a, nums_b)):
            self.number("%s number %d" % (field, k), float(x), float(y))


def compare_report(cmp: FileComparison, a: dict, b: dict):
    checks_a, checks_b = a.get("checks"), b.get("checks")
    cmp.exact("top-level fields", sorted(a), sorted(b))
    for key in sorted((a.keys() & b.keys()) - {"checks"}):
        cmp.exact(key, a[key], b[key])
    ids_a, ids_b = [c["id"] for c in checks_a], [c["id"] for c in checks_b]
    if ids_a != ids_b:
        cmp.fail("check ids", "%s vs %s" % (ids_a, ids_b))
        return
    for ca, cb in zip(checks_a, checks_b):
        where = "check %s" % ca["id"]
        cmp.exact(where + " fields", sorted(ca), sorted(cb))
        for key in sorted((ca.keys() & cb.keys()) - {"id"}):
            if key == "residual":
                cmp.number(where + " residual", float(ca[key]), float(cb[key]))
            elif key == "note":
                cmp.text(where + " note", ca[key], cb[key])
            else:
                cmp.exact("%s %s" % (where, key), ca[key], cb[key])


def _cell(s: str):
    try:
        return float(s)
    except ValueError:
        return None


def compare_csv(cmp: FileComparison, rows_a: list, rows_b: list):
    if len(rows_a) != len(rows_b):
        cmp.fail("rows", "%d vs %d" % (len(rows_a), len(rows_b)))
        return
    if not rows_a:
        return
    header = rows_a[0]
    cmp.exact("header", header, rows_b[0])
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            cmp.fail("row %d" % r, "%d vs %d cells" % (len(ra), len(rb)))
            continue
        for c, (x, y) in enumerate(zip(ra, rb)):
            field = "row %d column %s" % (r, header[c] if c < len(header) else c)
            fx, fy = _cell(x), _cell(y)
            if fx is None or fy is None:
                cmp.exact(field, x, y)
            else:
                cmp.number(field, fx, fy)


def _read(root: str, name: str) -> bytes:
    with open(os.path.join(root, name), "rb") as fh:
        return fh.read()


def _rows(raw: bytes) -> list:
    return list(csv.reader(raw.decode("utf-8").splitlines()))


def _is_report(doc) -> bool:
    return isinstance(doc, dict) and isinstance(doc.get("checks"), list)


def compare_trees(a: str, b: str, ulps: int) -> list:
    """One ``FileComparison`` per file present in both trees, and one named
    ``(file set)`` listing the files present in only one."""
    names_a, names_b = tree(a), tree(b)
    sets = FileComparison("(file set)", ulps)
    for name in sorted(set(names_a) - set(names_b)):
        sets.fail(name, "only in %s" % a)
    for name in sorted(set(names_b) - set(names_a)):
        sets.fail(name, "only in %s" % b)
    out = [sets]
    for name in sorted(set(names_a) & set(names_b)):
        stem, ext = os.path.splitext(name)
        raw_a, raw_b = _read(a, name), _read(b, name)
        cmp = FileComparison(name, ulps)
        out.append(cmp)
        doc_a = doc_b = None
        if raw_a == raw_b:
            cmp.identical = True
            continue
        if ext == ".json":
            doc_a, doc_b = json.loads(raw_a), json.loads(raw_b)
        if _is_report(doc_a) and _is_report(doc_b):
            cmp.floor = _floor(doc_a)
            compare_report(cmp, doc_a, doc_b)
        elif ext == ".csv":
            pair = stem + ".json"
            if os.path.isfile(os.path.join(a, pair)):
                cmp.floor = _floor(json.loads(_read(a, pair)))
            compare_csv(cmp, _rows(raw_a), _rows(raw_b))
        else:
            cmp.fail("bytes", "the files differ")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="compare_reports.py")
    parser.add_argument("a", metavar="A")
    parser.add_argument("b", metavar="B")
    parser.add_argument("--ulps", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    if args.ulps < 0:
        parser.error("--ulps must be at least 0")
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            parser.error("not a directory: %s" % root)
    results = compare_trees(args.a, args.b, args.ulps)
    for cmp in results[1:]:
        print("%-40s %s" % (cmp.name, "identical" if cmp.identical else
                            "max %s ulps, %d moves below the floor" % (cmp.max_ulps, cmp.floored)))
    problems = [p for cmp in results for p in cmp.problems]
    for p in problems:
        print(p)
    print("%d files, %d differences beyond %d ulps" % (len(results) - 1, len(problems), args.ulps))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
