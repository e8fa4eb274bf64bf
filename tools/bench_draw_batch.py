"""Measure batching each conformal check's draws, parent against change.

Usage, from the root of a checkout:

    python3 tools/bench_draw_batch.py PARENT CHANGE [--pairs 10] [--seconds 25] \\
        > BENCH_draw_batch.json

PARENT and CHANGE are two checkouts, each with its own ``src/`` and
``perfbench/`` (``git archive`` copies, say).  The script prints one JSON
object:

- "rows": for each side, in a process of its own, the nine rows of the
  paper-points workload that draw random conformal factors (``ROWS``), each
  run once to warm up and then ``--repeats`` times (default 3); the median
  seconds of each row and their sum.
- "passes": for each side and workload, in a process of its own, one warm
  pass at seed 7, then one counted pass: its wall time, the contexts it
  builds, ``Jet.partial`` calls, and the calls and seconds of
  ``jets._substitute`` (the coefficient sum of ``compose`` and the series
  functions) and of ``jets._dot_core`` (the stacked products and sums of
  a contraction below 128 points).
- "end_to_end": for each perfbench workload, ``--pairs`` pairs of
  ``perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0``,
  one run per side, one process at a time, the side that runs first
  alternating from pair to pair, with seeds 19001, 19002, ... (paper-points),
  19101, ... (total-q4) and 19201, ... (gauss-bonnet).  Each end-to-end
  metric's runs, quartiles, median ratio and the pairs the change wins.
- "claim": whether paper-points ``run_s`` meets the rule: the change wins
  at least 9 of 10 pairs and the medians differ by more than the parent's
  interquartile range.
- "traced": the per-layer metrics of ``perfbench/run.py --trace 1 --seed 7``,
  once per workload and side.

``--rows TREE [--repeats N]`` and ``--passes TREE WORKLOAD`` print one
side's "rows" or "passes" alone.  Run it on an otherwise idle machine; each
perfbench run takes about SECONDS plus its set-up probes.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

WORKLOADS = ("paper-points", "total-q4", "gauss-bonnet")
SEEDS = {"paper-points": 19001, "total-q4": 19101, "gauss-bonnet": 19201}
METRICS = ("run_s", "setup_s", "peak_rss_mb")
COUNT_SEED = 7
# the rows of paper-points that draw conformal factors: (scenario, check, arguments)
ROWS = (
    ("GRAPH(T2_IN_T3)", "check_q_law", {"which": "ext_q2"}),
    ("GRAPH(T3_IN_T4)", "check_q_law", {"which": "ext_q3"}),
    ("GRAPH(T2_IN_T3)", "check_covariance", {"op_name": "ext_p2"}),
    ("GRAPH(T3_IN_T4)", "check_covariance", {"op_name": "ext_p3"}),
    ("GRAPH(T4_IN_T5)", "check_covariance", {"op_name": "ext_p3"}),
    ("GRAPH(T4_IN_PERT_T5)", "check_covariance", {"op_name": "ext_p4_critical"}),
    ("GRAPH(T4_IN_PERT_T5)", "check_c_invariance", {}),
    ("GRAPH(T4_IN_T5)", "check_c_invariance", {}),
    ("SLICE(S2xS2)", "check_q_law", {"which": "ext_q4"}),
)


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
        wins = sum(c < p for p, c in zip(got["parent"], got["change"]))
        out[name] = {
            **got,
            "parent_q25_median_q75": quartiles(got["parent"]),
            "change_q25_median_q75": quartiles(got["change"]),
            "median_change_over_parent": round(
                float(np.median(got["change"]) / np.median(got["parent"])), 4),
            "change_lower_in": f"{wins}/{n}",
        }
    return out


def claim(row):
    """The paper-points run_s rule on that workload's pairs."""
    p25, pmed, p75 = row["parent_q25_median_q75"]
    cmed = row["change_q25_median_q75"][1]
    wins, n = (int(x) for x in row["change_lower_in"].split("/"))
    met = wins >= 9 * n / 10 and pmed - cmed > p75 - p25
    return {
        "metric": "run_s",
        "workload": "paper-points",
        "rule": "change lower in at least 9 of 10 pairs and the medians differ by more "
                "than the parent's interquartile range",
        "result": f"{'met' if met else 'not met'}: {pmed} -> {cmed} s "
                  f"({100 * (cmed / pmed - 1):+.1f}%), {wins}/{n} pairs, parent IQR "
                  f"{round(p75 - p25, 4)} s",
    }


def row_times(tree, repeats):
    """{row: median seconds} of ``ROWS`` run by the verify of ``tree``, in
    this process, at the row seeds of a suite seeded 7."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from extrinsicq import verify
    from extrinsicq.scenarios import parse_scenario

    cfg = verify.VerifyConfig(suite="extrinsic", seed=COUNT_SEED)
    out = {}
    for i, (scn_text, check, args) in enumerate(ROWS):
        scn, seed = parse_scenario(scn_text), verify._row_seed(COUNT_SEED, i)
        times = []
        for _ in range(repeats + 1):
            t0 = time.perf_counter()
            getattr(verify, check)(scn, cfg=cfg, seed=seed, **args)
            times.append(time.perf_counter() - t0)
        label = f"{check}({', '.join(map(str, args.values()))})@{scn_text}"
        out[label] = round(float(np.median(times[1:])), 4)
    out["sum"] = round(sum(out.values()), 4)
    return out


def pass_counts(tree, workload):
    """Counters of one warm pass of ``workload`` in ``tree``, in this process."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads
    from extrinsicq import geometry, jets

    ops_ = workloads.setup(workload, COUNT_SEED)
    workloads.run_pass(ops_)
    tally = Counter()

    def timed(name, fn):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                tally[f"{name}.calls"] += 1
                tally[f"{name}.s"] += time.perf_counter() - t0

        return call

    def counted(name, fn):
        def call(*args):
            tally[name] += 1
            return fn(*args)

        return call

    saved = (jets._substitute, jets._dot_core, jets.Jet.partial,
             geometry.GeometryContext.__init__)
    jets._substitute = timed("substitute", saved[0])
    jets._dot_core = timed("dot_core", saved[1])
    jets.Jet.partial = counted("partial_calls", saved[2])
    geometry.GeometryContext.__init__ = counted("contexts", saved[3])
    try:
        t0 = time.perf_counter()
        workloads.run_pass(ops_)
        tally["pass_s"] = time.perf_counter() - t0
    finally:
        (jets._substitute, jets._dot_core, jets.Jet.partial,
         geometry.GeometryContext.__init__) = saved
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in sorted(tally.items())}


def child(*args):
    """The JSON that this script prints for ``args`` in a process of its own."""
    out = subprocess.run(
        [sys.executable, __file__, *map(str, args)],
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"},
    )
    return json.loads(out.stdout)


def main(argv):
    ap = argparse.ArgumentParser(prog="bench_draw_batch.py", description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--rows", type=Path, metavar="TREE")
    ap.add_argument("--passes", nargs=2, metavar=("TREE", "WORKLOAD"))
    args = ap.parse_args(argv)
    if args.rows:
        print(json.dumps(row_times(args.rows, args.repeats)))
        return 0
    if args.passes:
        print(json.dumps(pass_counts(*args.passes)))
        return 0
    if args.parent is None or args.change is None:
        ap.error("PARENT and CHANGE are required")
    sides = (("parent", args.parent.resolve()), ("change", args.change.resolve()))
    out = {
        "command": "python3 tools/bench_draw_batch.py PARENT CHANGE "
                   f"--pairs {args.pairs} --seconds {args.seconds} --repeats {args.repeats}",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "rows": {side: child("--rows", tree, "--repeats", args.repeats) for side, tree in sides},
        "passes": {
            w: {side: child("--passes", tree, w) for side, tree in sides} for w in WORKLOADS
        },
        "end_to_end": {
            w: pairs(sides[0][1], sides[1][1], w, args.pairs, args.seconds) for w in WORKLOADS
        },
    }
    out["claim"] = claim(out["end_to_end"]["paper-points"]["run_s"])
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
