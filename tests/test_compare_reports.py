"""tools/compare_reports.py on synthetic report trees."""

import importlib.util
import json
import os

import numpy as np
import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_reports.py")
SPEC = importlib.util.spec_from_file_location("compare_reports", PATH)
compare_reports = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_reports)

RESIDUAL = 8.43769498715119e-15 * 1e6  # above the floor of 1e-3 * 1e-9


def report(**changes):
    checks = [
        {"id": "ke_ode_residual", "residual": RESIDUAL, "tol": 1e-9, "passed": True, "note": "", "source": ""},
        {"id": "completeness", "residual": 0.0, "tol": 0.0, "passed": True,
         "note": "verdict inconclusive; s extends to (-0.4658, 0.2852)", "source": ""},
    ]
    for key, value in changes.items():
        checks[0][key] = value
    return {"schema_version": 1, "suite": "ke-family:alpha_minus2", "grid": "tau=0.05:1:3",
            "passed": all(c["passed"] for c in checks), "checks": checks}


CSV = [["tau", "w", "ke_residual"], [0.05, 0.56203981431629269, -1.7763568394002505e-15],
       [0.5, 1.1368565415984049, 0.0]]


def write_tree(root, doc=None, rows=None, codes="ke 0\nbad 2\n", err="error: log of nonpositive value\n"):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "ke.json"), "w", encoding="utf-8") as fh:
        json.dump(doc or report(), fh, indent=2)
    with open(os.path.join(root, "ke.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(c) if isinstance(c, float) else c for c in row) + "\n" for row in rows or CSV)
    with open(os.path.join(root, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.write(codes)
    with open(os.path.join(root, "bad.err"), "w", encoding="utf-8") as fh:
        fh.write(err)


def run(tmp_path, capsys, ulps, **b_tree):
    write_tree(str(tmp_path / "a"))
    write_tree(str(tmp_path / "b"), **b_tree)
    code = compare_reports.main([str(tmp_path / "a"), str(tmp_path / "b"), "--ulps", str(ulps)])
    return code, capsys.readouterr().out


def moved(x, ulps):
    """Positive x moved up by ``ulps`` representable doubles."""
    return float((np.array([x]).view(np.int64) + ulps).view(np.float64)[0])


def test_identical_trees_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 0)
    assert code == 0
    assert "ke.csv" in out and "identical" in out


def test_residual_moved_within_k_passes(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 32, doc=report(residual=moved(RESIDUAL, 26)))
    assert code == 0
    assert "max 26 ulps" in out


def test_move_beyond_k_names_file_and_field(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 32, doc=report(residual=moved(RESIDUAL, 33)))
    assert code == 1
    assert "ke.json: check ke_ode_residual residual:" in out
    assert "(33 ulps)" in out


def test_note_number_beyond_k_fails(tmp_path, capsys):
    doc = report()
    doc["checks"][1]["note"] = "verdict inconclusive; s extends to (-0.4659, 0.2852)"
    code, out = run(tmp_path, capsys, 32, doc=doc)
    assert code == 1
    assert "ke.json: check completeness note number 0:" in out


@pytest.mark.parametrize("b_tree", [
    {"doc": report(id="ke_residual")},
    {"doc": report(passed=False)},
    {"doc": report(tol=1e-8)},
    {"codes": "ke 1\nbad 2\n"},
    {"err": "error: log of nonpositive value -1.0\n"},
], ids=["check_id", "verdict", "tol", "exit_code", "err_line"])
def test_changed_id_verdict_tol_exit_code_or_error_fails(tmp_path, capsys, b_tree):
    code, _ = run(tmp_path, capsys, 10 ** 6, **b_tree)
    assert code == 1


def test_near_zero_csv_cell_below_floor_passes(tmp_path, capsys):
    rows = [CSV[0], CSV[1][:2] + [4.4408920985006262e-16], CSV[2][:2] + [-2.2204460492503131e-16]]
    code, out = run(tmp_path, capsys, 0, rows=rows)
    assert code == 0
    # a cell above the floor must match to K ulps
    code, out = run(tmp_path, capsys, 0, rows=[CSV[0], CSV[1][:2] + [1.0], CSV[2]])
    assert code == 1
    assert "ke.csv: row 1 column ke_residual:" in out


def test_missing_file_fails(tmp_path, capsys):
    write_tree(str(tmp_path / "a"))
    write_tree(str(tmp_path / "b"))
    os.remove(str(tmp_path / "b" / "bad.err"))
    code = compare_reports.main([str(tmp_path / "a"), str(tmp_path / "b")])
    assert code == 1
    assert "(file set): bad.err: only in" in capsys.readouterr().out


def test_ulp_distance():
    assert compare_reports.ulp_distance(0.0, -0.0) == 0
    assert compare_reports.ulp_distance(float("nan"), float("nan")) == 0
    assert compare_reports.ulp_distance(1.0, float("nan")) == float("inf")
    assert compare_reports.ulp_distance(-5e-324, 5e-324) == 2
    assert compare_reports.ulp_distance(1.0, np.nextafter(1.0, 2.0)) == 1
