"""Measure leaving vanishing terms out of layered contractions, parent against change.

Usage, from the root of a checkout:

    python3 tools/bench_vanishing_terms.py PARENT CHANGE [--pairs 10] [--seconds 25] \\
        > BENCH_vanishing_terms.json

PARENT and CHANGE are two checkouts, each with its own ``src/`` and
``perfbench/`` (``git archive`` copies, say); the parent's ``jets`` has no
``_vanishing``.  For each perfbench workload it runs ``--pairs`` pairs of
``perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0``, one
run per side, one process at a time, the side that runs first alternating
from pair to pair, with seeds 9821, 9822, ... (paper-points), 9921, ...
(total-q4) and 10021, ... (gauss-bonnet).  It reports each end-to-end metric's
runs, quartiles and median ratio, and for ``run_s`` how many pairs the
change wins ("end_to_end"), and whether ``run_s`` on total-q4 meets the
claim: the change wins at least 9 of 10 pairs and the medians differ by more
than the parent's interquartile range ("claim").

Then, for each workload and side, one process sets the workload up at seed
7, runs one pass to warm its caches and counts one more pass ("passes"):
``_cauchy_layered`` calls, layered contraction rows and their terms.  On
the change it also sorts the layered rows by how many of their terms
vanish (none, some, all) and by how the sum was settled ("direct": no -0
left; "+0 term": a vanishing +0 term turned the -0 to +0; "products
added": the left-out products were made after all), and counts the terms
left out.  A third pass, with every layered row also summed in full,
checks that the two agree bit for bit ("bit_identical_rows").  It runs the
"dot_rows" section of ``tools/bench_cauchy_kernels.py`` from 128 points on
against each side's ``jets`` ("dot_rows").  Last, it runs
``perfbench/run.py --trace 1 --seed 7`` once per workload and side and
keeps the per-layer metrics ("traced").  It prints one JSON object.  Run
it on an otherwise idle machine; each run takes about SECONDS plus its
set-up probes.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

WORKLOADS = ("paper-points", "total-q4", "gauss-bonnet")
SEEDS = {"paper-points": 9821, "total-q4": 9921, "gauss-bonnet": 10021}
METRICS = ("run_s", "setup_s", "peak_rss_mb")
COUNT_SEED = 7


def perfbench(tree, workload, seed, seconds, trace):
    """The JSON object on the last line of one perfbench run in ``tree``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def quartiles(xs):
    return [round(float(q), 4) for q in np.percentile(xs, [25, 50, 75])]


def pairs(parent, change, workload, n, seconds):
    runs = {"parent": [], "change": []}
    first = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(perfbench(tree, workload, SEEDS[workload] + i, seconds, 0))
    out = {
        "seeds": [SEEDS[workload] + i for i in range(n)],
        "first": first,
        "correct": all(r["correct"] for rs in runs.values() for r in rs),
        "failed": sum(r["failed"] for rs in runs.values() for r in rs),
    }
    for name in METRICS:
        got = {
            side: [round(r["metrics"][name]["value"], 4) for r in rs] for side, rs in runs.items()
        }
        row = {
            **got,
            "parent_q25_median_q75": quartiles(got["parent"]),
            "change_q25_median_q75": quartiles(got["change"]),
            "median_change_over_parent": round(
                float(np.median(got["change"]) / np.median(got["parent"])), 4),
        }
        wins = sum(c < p for p, c in zip(got["parent"], got["change"]))
        row["change_lower_in"] = f"{wins}/{n}"
        out[name] = row
    return out


def claim(row):
    """The total-q4 run_s rule on one workload's pairs."""
    p25, pmed, p75 = row["parent_q25_median_q75"]
    cmed = row["change_q25_median_q75"][1]
    wins, n = (int(x) for x in row["change_lower_in"].split("/"))
    met = wins >= 9 * n / 10 and pmed - cmed > p75 - p25
    return {
        "metric": "run_s",
        "workload": "total-q4",
        "rule": "change lower in at least 9 of 10 pairs and the medians differ by more "
                "than the parent's interquartile range",
        "result": f"{'met' if met else 'not met'}: {pmed} -> {cmed} s "
                  f"({100 * (cmed / pmed - 1):+.1f}%), {wins}/{n} pairs, parent IQR "
                  f"{round(p75 - p25, 4)} s",
    }


def count(tree, workload):
    """Counters of one warm pass of ``workload`` in ``tree``, in this process."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads
    from extrinsicq import jets

    ops_ = workloads.setup(workload, COUNT_SEED)
    workloads.run_pass(ops_)
    layered, dot_layered = jets._cauchy_layered, jets._dot_layered
    plus_zero = getattr(jets, "_plus_zero", None)
    tally = Counter()
    classes = Counter()
    check = [False]

    def counted_layered(*args):
        tally["cauchy_layered_calls"] += 1
        return layered(*args)

    def counted_dot_layered(space, B, cs, k, negate, *vanishing):
        tally["layered_rows"] += 1
        tally["layered_terms"] += (len(cs) - k) // 2
        if plus_zero is None:
            return dot_layered(space, B, cs, k, negate)
        (gone,) = vanishing or ((),)
        seen = []
        jets._plus_zero = lambda *a: seen.append(plus_zero(*a)) or seen[-1]
        try:
            got = dot_layered(space, B, cs, k, negate, gone)
        finally:
            jets._plus_zero = plus_zero
        if check[0]:
            full = dot_layered(space, B, cs, k, negate)
            tally["bit_identical_rows"] += np.array_equal(got.view(np.int64), full.view(np.int64))
            return got
        m = (len(cs) - k) // 2
        kind = "none" if not gone else "all" if len(gone) == m else "some"
        settled = "direct" if not seen else "+0 term" if seen[-1] else "products added"
        classes[f"{kind} vanish, {settled}"] += 1
        tally["terms_left_out"] += len(gone)
        return got

    jets._cauchy_layered, jets._dot_layered = counted_layered, counted_dot_layered
    try:
        workloads.run_pass(ops_)
        out = dict(tally)
        if plus_zero is not None:
            out["row_classes"] = dict(sorted(classes.items()))
            tally.clear()
            check[0] = True
            workloads.run_pass(ops_)
            out["bit_identical_rows"] = f"{tally['bit_identical_rows']}/{tally['layered_rows']}"
    finally:
        jets._cauchy_layered, jets._dot_layered = layered, dot_layered
    return out


def kernel_rows(tree):
    """The "dot_rows" rows of 128 points or more of bench_cauchy_kernels.py,
    run on the jets of ``tree``, in this process."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(__file__).resolve().parent)]
    import bench_cauchy_kernels

    return [r for r in bench_cauchy_kernels.dot_rows(np.random.default_rng(0)) if r["batch"] >= 128]


def child(mode, *args):
    """The JSON that this script prints in ``mode`` in a process of its own."""
    out = subprocess.run(
        [sys.executable, __file__, mode, *map(str, args)],
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"},
    )
    return json.loads(out.stdout)


def main(argv):
    if argv[:1] == ["--count"]:
        print(json.dumps(count(argv[1], argv[2])))
        return 0
    if argv[:1] == ["--kernels"]:
        print(json.dumps(kernel_rows(argv[1])))
        return 0
    ap = argparse.ArgumentParser(
        prog="bench_vanishing_terms.py", description=__doc__.splitlines()[0]
    )
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    out = {
        "command": "python3 tools/bench_vanishing_terms.py PARENT CHANGE "
                   f"--pairs {args.pairs} --seconds {args.seconds}",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "end_to_end": {w: pairs(parent, change, w, args.pairs, args.seconds) for w in WORKLOADS},
    }
    out["claim"] = claim(out["end_to_end"]["total-q4"]["run_s"])
    sides = (("parent", parent), ("change", change))
    out["passes"] = {
        w: {side: child("--count", tree, w) for side, tree in sides} for w in WORKLOADS
    }
    out["dot_rows"] = {side: child("--kernels", tree) for side, tree in sides}
    out["traced"] = {
        w: {
            side: {
                k: v["value"]
                for k, v in perfbench(tree, w, COUNT_SEED, args.seconds, 1)["metrics"].items()
            }
            for side, tree in sides
        }
        for w in WORKLOADS
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
