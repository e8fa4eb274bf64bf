"""The scripts in tools/: compare_reports.py on small hand-made reports, and
products_by_build.py on one small chunk."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_reports.py"
PRODUCTS = ROOT / "tools" / "products_by_build.py"


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


def _products(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(PRODUCTS), *argv], capture_output=True, text=True, env=env
    )


def test_products_by_build_charges_the_innermost_build():
    out = _products("SPHERE_IN_FLAT(3,1)", "ext_q3", "--points", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "SPHERE_IN_FLAT(3,1)  ext_q3  4 points"
    rows = {tuple(line.split()[:3]): int(line.split()[3]) for line in lines[2:-2]}
    # L at degree 2 for ext_q3, and the ambient Christoffel symbols it pulls
    assert rows[("surface", "second_fundamental", "2")] > 0
    assert rows[("metric", "gamma", "2")] > 0
    total = lines[-2].split()
    assert total[0] == "total" and int(total[1]) == sum(rows.values())
    assert lines[-1].startswith("wall ")


def test_products_by_build_counts_each_dot_term():
    # gamma and riemann contract through jets.dot only: on the flat 4-dimensional
    # ambient, n * n(n+1)/2 * n = 160 terms, and 21 independent components
    # of 2n = 8 terms each
    out = _products("SPHERE_IN_FLAT(3,1)", "ext_q3", "--points", "4")
    assert out.returncode == 0, out.stderr
    rows = {tuple(line.split()[:3]): int(line.split()[3]) for line in out.stdout.splitlines()[2:-2]}
    assert rows[("metric", "gamma", "2")] == 160
    assert rows[("metric", "riemann", "0")] == 168


def test_products_by_build_bad_input_exits_two():
    for argv in (("FLAT_T2", "total_q4"), ("FLAT_T2", "nope"), ("FLAT_T2", "q2", "--points", "0")):
        out = _products(*argv)
        assert out.returncode == 2
        assert out.stderr.startswith("error:")


def test_products_by_build_counts_one_column_monomials():
    # from 128 points on, compose builds the monomials of a chart coordinate
    # on one column; those products still count, so the total stays put
    totals = []
    for points in ("127", "128"):
        out = _products("ROUND_S(4,1)", "q4", "--points", points)
        assert out.returncode == 0, out.stderr
        totals.append(int(out.stdout.splitlines()[-2].split()[1]))
    assert totals[0] == totals[1]
