"""The scripts in tools/: compare_reports.py on small hand-made reports,
products_by_build.py on one small chunk, bench_draw_batch.py's row timings
and bench_tangential.py's contraction timings on this checkout, and
bench_pairs.py on stand-in perfbench runs and one side's builder timings."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_reports.py"
PRODUCTS = ROOT / "tools" / "products_by_build.py"
DRAW_BATCH = ROOT / "tools" / "bench_draw_batch.py"
PAIRS = ROOT / "tools" / "bench_pairs.py"
TANGENTIAL = ROOT / "tools" / "bench_tangential.py"


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
    rows = {tuple(line.split()[:3]): int(line.split()[3]) for line in lines[2:-3]}
    # L at degree 2 for ext_q3, and the ambient Christoffel symbols it pulls
    assert rows[("surface", "second_fundamental", "2")] > 0
    assert rows[("metric", "gamma", "2")] > 0
    total = lines[-3].split()
    assert total[0] == "total" and int(total[1]) == sum(rows.values())
    assert lines[-2].startswith("wall ")


def test_products_by_build_counts_each_dot_term():
    # gamma and riemann contract through jets.contract only: on the flat 4-dimensional
    # ambient, n * n(n+1)/2 * n = 160 terms, and 21 independent components
    # of 2n = 8 terms each
    out = _products("SPHERE_IN_FLAT(3,1)", "ext_q3", "--points", "4")
    assert out.returncode == 0, out.stderr
    rows = {tuple(line.split()[:3]): int(line.split()[3]) for line in out.stdout.splitlines()[2:-3]}
    assert rows[("metric", "gamma", "2")] == 160
    assert rows[("metric", "riemann", "0")] == 168


def test_products_by_build_counts_the_terms_left_out():
    # from 128 points on, the sphere's tangents and second derivatives make
    # dot terms whose products vanish, and the inverse leaves out products
    # of zeros; they still count as products
    counts = []
    for points in ("4", "128"):
        out = _products("SPHERE_IN_FLAT(3,1)", "ext_q3", "--points", points)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        left_out = {tuple(line.split()[:3]): int(line.split()[6]) for line in lines[2:-3]}
        total = lines[-3].split()
        assert int(total[4]) == sum(left_out.values())
        assert f" series, {total[4]} left out, " in lines[-1]
        counts.append((int(total[1]), left_out))
    (few, none_left), (many, left) = counts
    assert few == many and not any(none_left.values())
    assert 0 < left[("surface", "second_fundamental", "2")] < many
    assert left[("surface", "invdet", "2")] > 0


def test_products_by_build_bad_input_exits_two():
    for argv in (("FLAT_T2", "total_q4"), ("FLAT_T2", "nope"), ("FLAT_T2", "p2"),
                 ("FLAT_T2", "ext_q2"), ("FLAT_T2", "q2", "--points", "0")):
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
        totals.append(int(out.stdout.splitlines()[-3].split()[1]))
    assert totals[0] == totals[1]


def test_products_by_build_counts_series_per_build():
    # the rescaled ambient metric writes exp(2*(phi)) into each of its 10
    # components, and one build expands it, and each sin and cos, once
    out = _products("CONF_PERTURBED(SPHERE_IN_FLAT(3,1))", "ext_q3", "--points", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[1].split() == [
        "kind", "key", "degree", "products", "series", "seconds", "left_out"
    ]
    series = {tuple(line.split()[:3]): int(line.split()[4]) for line in lines[2:-3]}
    assert series[("metric", "g", "3")] == 4
    assert series[("surface", "gbar", "2")] == 4
    assert series[("surface", "iota", "4")] == 6
    assert int(lines[-3].split()[2]) == sum(series.values())


def test_products_by_build_totals_a_second_context_on_the_plan():
    # the q4 chain asks for g, the inverse, gamma and the curvature at several
    # degrees; a second context on the first one's plan builds each once, at
    # the deepest of them
    out = _products("ROUND_S(4,1)", "q4", "--points", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    first = lines[-3].split()
    assert first[:3] == ["total", "1269", "14"]
    assert lines[-1].startswith("second context on the same plan: 725 products, 7 series, ")


def test_bench_draw_batch_times_the_nine_draw_rows():
    out = subprocess.run(
        [sys.executable, str(DRAW_BATCH), "--rows", str(ROOT), "--repeats", "1"],
        capture_output=True, text=True, check=True,
    )
    times = json.loads(out.stdout)
    rows = [k for k in times if k != "sum"]
    assert len(rows) == 9 and all(t > 0 for t in times.values())
    assert sum(1 for k in rows if k.startswith("check_c_invariance")) == 2
    assert math.isclose(times["sum"], sum(times[k] for k in rows), abs_tol=1e-3)


def test_bench_tangential_times_each_degree_on_both_sides():
    out = subprocess.run(
        [sys.executable, str(TANGENTIAL), str(ROOT), str(ROOT), "--points", "2"],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    degrees = [str(d) for d in range(5)]
    assert got["points"] == 2
    assert all(list(got["us_per_call"][side]) == degrees for side in ("parent", "change"))
    assert all(got["us_per_call"][side][d] > 0 for side in ("parent", "change") for d in degrees)
    assert list(got["ratio"]) == degrees


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_alternates_sides_and_summarises(tmp_path, monkeypatch, capsys):
    # perfbench stands in for itself: each run reports its side's run_s
    bench = _bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    runs = []

    def fake(tree, workload, seed, seconds, trace):
        runs.append((Path(tree).name, workload, seed))
        value = {"parent": 2.0, "change": 1.5}[Path(tree).name] + seed % 7 * 0.01
        rss = 150.0 + 8.0 * (seed % 2)
        metrics = {"run_s": value, "setup_s": 0.3, "peak_rss_mb": rss}
        return {"correct": True, "failed": 0,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(bench, "perfbench", fake)
    assert bench.main([str(parent), str(change), "--workloads", "paper-points,total-q4",
                       "--pairs", "4", "--seed", "500", "--claim", "paper-points:run_s"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r[0] for r in runs[:4]] == ["parent", "change", "change", "parent"]
    row = out["end_to_end"]["paper-points"]
    assert row["seeds"] == [500, 501, 502, 503] and out["end_to_end"]["total-q4"]["seeds"][0] == 600
    assert row["run_s"]["change_lower_in"] == "4/4" and row["correct"] and row["failed"] == 0
    assert row["run_s"]["median_change_over_parent"] < 1.0
    assert row["peak_rss_mb"]["modes"]["parent"] == [[2, 150.0, 150.0], [2, 158.0, 158.0]]
    assert out["claim"]["result"].startswith("met: ")


def test_bench_pairs_times_each_builder_by_degree():
    out = subprocess.run(
        [sys.executable, str(PAIRS), "--builders-child", str(ROOT), "gauss-bonnet",
         "invdet,riemann", "2"],
        capture_output=True, text=True, check=True,
    )
    times = json.loads(out.stdout)
    assert set(times) == {"invdet", "riemann", "sum", "pass_s", "minflt", "sys_s"}
    assert all(s > 0 for s in times["riemann"].values())
    assert 0 < times["sum"] < times["pass_s"]
    # each warm pass's minor page faults and system time
    assert len(times["minflt"]) == len(times["sys_s"]) == 2
    assert all(isinstance(f, int) and f >= 0 for f in times["minflt"])
    assert all(0 <= s < 10 * times["pass_s"] for s in times["sys_s"])
