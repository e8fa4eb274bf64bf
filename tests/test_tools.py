"""tools/compare_reports.py on small hand-made reports."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"


def _report(rows):
    checks = [
        {"check": c, "scenario": "PERT_T4", "max_abs_err": e, "scale": 2.0, "passed": p}
        for c, e, p in rows
    ]
    return {"config": {"seed": 1}, "scenarios": [{"name": "PERT_T4", "checks": checks}]}


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(_report(a)))
    pb.write_text(json.dumps(_report(b)))
    out = subprocess.run(
        [sys.executable, str(TOOL), str(pa), str(pb)], capture_output=True, text=True
    )
    return out.returncode, out.stdout


def test_compare_reports_counts_diffs_and_flips(tmp_path):
    base = [("x", 1e-9, True), ("y", 4e-9, True)]
    code, out = _compare(tmp_path, base, base)
    assert code == 0
    assert "identical rows: 2 of 2" in out and "no pass/fail flips" in out

    code, out = _compare(tmp_path, base, [("x", 1e-9, True), ("y", 6e-9, True)])
    assert code == 0
    assert "identical rows: 1 of 2" in out and "1.000e-09  y@PERT_T4" in out

    code, out = _compare(tmp_path, base, [("x", 1e-9, True), ("y", 4e-9, False)])
    assert code == 1
    assert "FLIP  y@PERT_T4: passed True -> False" in out

    code, out = _compare(tmp_path, base, base[:1])
    assert code == 1
    assert "y@PERT_T4" in out and "ONLY IN" in out


def test_compare_reports_bad_input_exits_two(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "missing.json"), str(tmp_path / "b.json")],
        capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
