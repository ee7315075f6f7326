"""Report bytes against committed digests (a golden-master test).

``tools/write_reports.py`` writes a fixed set of reports, error lines and
exit codes; ``report_digests.json`` holds the sha256 of each file as
written before the last intended report change. Any byte that a change
moves fails this test, which names every moved file. A change that moves
report bytes on purpose regenerates the digests with

    PYTHONPATH=src python3 tools/write_reports.py --digests tests/report_digests.json

and explains each moved file. A failure prints the numpy version, machine
and numpy's enabled SIMD dispatch targets recorded with the digests beside
those of this run, since a ufunc's last bits may depend on all three.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_reports_match_committed_digests(tmp_path):
    with open(os.path.join(HERE, "report_digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    out = tmp_path / "digests.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(ROOT, "tools", "write_reports.py"), "--digests", str(out)],
                   env=env, check=True, capture_output=True)
    current = json.loads(out.read_text(encoding="utf-8"))
    found, want = current["sha256"], recorded["sha256"]
    moved = sorted(name for name in want.keys() & found.keys() if want[name] != found[name])
    missing = sorted(want.keys() - found.keys())
    extra = sorted(found.keys() - want.keys())
    assert not (moved or missing or extra), (
        "report bytes differ from tests/report_digests.json\n"
        "moved: %s\nmissing: %s\nnew: %s\n"
        "digests recorded on numpy %s, %s, SIMD targets %s; this run: numpy %s, %s, SIMD targets %s" % (
            moved, missing, extra, recorded["numpy"], recorded["machine"], recorded["simd"],
            np.__version__, platform.machine(), current["simd"]))
