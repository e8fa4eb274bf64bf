"""Run alternating parent/change perfbench pairs and summarise them.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE [--workloads W,...] [--pairs 10] \\
        [--seconds 25] [--seed 21001] [--claim WORKLOAD:METRIC] \\
        [--builders KEY,...] [--traced] > BENCH_x.json

PARENT and CHANGE are each a directory holding a checkout with its own
``src/`` and ``perfbench/``, or a git revision of this repository, which is
written to a temporary directory with ``git archive`` first.  The script
prints one JSON object:

- "end_to_end": for each workload, ``--pairs`` pairs of
  ``perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0``,
  one run per side, one process at a time, the side that runs first
  alternating from pair to pair.  Pair i of the k-th workload runs seed
  SEED + 100 k + i.  For each end-to-end metric: both sides' runs, their
  quartiles, the median ratio and the pairs the change wins; peak_rss_mb
  also by mode, as its runs fall into a low and a high group.
- "claim", with ``--claim WORKLOAD:METRIC``: whether the change wins at
  least 9 of 10 pairs and the medians differ by more than the parent's
  interquartile range.
- "builders", with ``--builders``: for each side and workload, in a process
  of its own, the self time of each named cache key's builds per degree
  (time in the build less the time in the builds it asks for), on the
  fastest of ``--passes`` warm passes at seed 7; and the minor page faults
  and system time of each of those passes ("minflt", "sys_s"), from
  getrusage around the pass.
- "traced", with ``--traced``: the per-layer metrics of
  ``perfbench/run.py --trace 1 --seed 7``, once per workload and side.

``--builders-child TREE WORKLOAD KEYS PASSES`` prints one side's "builders"
alone.  Run it on an otherwise idle machine; each perfbench run takes about
SECONDS plus its set-up probes.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-points", "total-q4", "gauss-bonnet")
METRICS = ("run_s", "setup_s", "peak_rss_mb")
COUNT_SEED = 7


def checkout(spec, keep):
    """The directory of ``spec``: itself, or a git revision archived into a
    new temporary directory (added to ``keep`` so that it outlives the run)."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    tmp = tempfile.TemporaryDirectory(prefix="bench_pairs_")
    keep.append(tmp)
    archive = subprocess.run(["git", "archive", spec], cwd=ROOT, stdout=subprocess.PIPE,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp.name], input=archive, check=True)
    return Path(tmp.name)


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


def modes(xs):
    """The runs split at their widest gap into a low and a high group, each
    as [count, min, max]; one group when no gap exceeds a tenth of the range
    of the runs (or 1e-9)."""
    xs = sorted(xs)
    gaps = np.diff(xs)
    if not len(gaps) or gaps.max() <= max(0.1 * (xs[-1] - xs[0]), 1e-9) or len(xs) < 4:
        return [[len(xs), xs[0], xs[-1]]]
    cut = int(np.argmax(gaps)) + 1
    return [[len(g), g[0], g[-1]] for g in (xs[:cut], xs[cut:])]


def summary(parent, change):
    """The layout of one metric's pairs in the BENCH files."""
    wins = sum(c < p for p, c in zip(parent, change))
    return {
        "parent": parent,
        "change": change,
        "parent_q25_median_q75": quartiles(parent),
        "change_q25_median_q75": quartiles(change),
        "median_change_over_parent": round(float(np.median(change) / np.median(parent)), 4),
        "change_lower_in": f"{wins}/{len(parent)}",
    }


def pairs(parent, change, workload, n, seconds, seed):
    runs = {"parent": [], "change": []}
    first = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(perfbench(tree, workload, seed + i, seconds, 0))
    out = {
        "seeds": [seed + i for i in range(n)],
        "first": first,
        "correct": all(r["correct"] for rs in runs.values() for r in rs),
        "failed": sum(r["failed"] for rs in runs.values() for r in rs),
    }
    for name in METRICS:
        got = {side: [round(r["metrics"][name]["value"], 4) for r in rs]
               for side, rs in runs.items()}
        out[name] = summary(got["parent"], got["change"])
        if name == "peak_rss_mb":
            out[name]["modes"] = {side: modes(v) for side, v in got.items()}
    return out


def claim(row, workload, metric):
    """The claim rule on one metric's pairs."""
    p25, pmed, p75 = row["parent_q25_median_q75"]
    cmed = row["change_q25_median_q75"][1]
    wins, n = (int(x) for x in row["change_lower_in"].split("/"))
    met = wins >= 9 * n / 10 and pmed - cmed > p75 - p25
    return {
        "metric": metric,
        "workload": workload,
        "rule": "change lower in at least 9 of 10 pairs and the medians differ by more "
                "than the parent's interquartile range",
        "result": f"{'met' if met else 'not met'}: {pmed} -> {cmed} "
                  f"({100 * (cmed / pmed - 1):+.1f}%), {wins}/{n} pairs, parent IQR "
                  f"{round(p75 - p25, 4)}",
    }


def builder_times(tree, workload, keys, passes):
    """{key: {degree: self seconds}} of one side's builds of ``keys``, and
    the pass time, on the fastest of ``passes`` warm passes, in this process;
    and each pass's minor page faults and system seconds."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads
    from extrinsicq import geometry

    ops_ = workloads.setup(workload, COUNT_SEED)
    workloads.run_pass(ops_)
    tally, stack = {}, [[0.0]]
    get = geometry.GeometryContext.get

    def timed_get(ctx, key, d, build):
        def timed(dd):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return build(dd)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                if key in keys:
                    at = tally.setdefault(key, {})
                    at[dd] = at.get(dd, 0.0) + dt - frame[0]

        return get(ctx, key, d, timed)

    geometry.GeometryContext.get = timed_get
    best, faults, system = None, [], []
    try:
        for _ in range(passes):
            tally.clear()
            r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            workloads.run_pass(ops_)
            wall, r1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
            faults.append(r1.ru_minflt - r0.ru_minflt)
            system.append(round(r1.ru_stime - r0.ru_stime, 4))
            if best is None or wall < best[0]:
                best = (wall, {k: dict(v) for k, v in tally.items()})
    finally:
        geometry.GeometryContext.get = get
    wall, best_tally = best
    out = {k: {str(dd): round(s, 4) for dd, s in sorted(v.items())}
           for k, v in sorted(best_tally.items())}
    out["sum"] = round(sum(s for v in best_tally.values() for s in v.values()), 4)
    out["pass_s"] = round(wall, 4)
    out["minflt"], out["sys_s"] = faults, system
    return out


def child(*args):
    """The JSON that this script prints for ``args`` in a process of its own."""
    out = subprocess.run(
        [sys.executable, __file__, *map(str, args)],
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"},
    )
    return json.loads(out.stdout)


def main(argv):
    ap = argparse.ArgumentParser(prog="bench_pairs.py", description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=21001)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--builders", metavar="KEY,...")
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--builders-child", nargs=4, metavar=("TREE", "WORKLOAD", "KEYS", "PASSES"))
    args = ap.parse_args(argv)
    if args.builders_child:
        tree, workload, keys, passes = args.builders_child
        print(json.dumps(builder_times(tree, workload, set(keys.split(",")), int(passes))))
        return 0
    if args.parent is None or args.change is None:
        ap.error("PARENT and CHANGE are required")
    workloads = args.workloads.split(",")
    keep = []
    sides = (("parent", checkout(args.parent, keep)), ("change", checkout(args.change, keep)))
    command = (f"python3 tools/bench_pairs.py PARENT CHANGE --workloads {args.workloads} "
               f"--pairs {args.pairs} --seconds {args.seconds} --seed {args.seed}")
    for flag, value in (("--claim", args.claim), ("--builders", args.builders)):
        if value:
            command += f" {flag} {value}"
    if args.builders:
        command += f" --passes {args.passes}"
    if args.traced:
        command += " --traced"
    out = {
        "command": command,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    if args.builders:
        out["builders"] = {
            w: {side: child("--builders-child", tree, w, args.builders, args.passes)
                for side, tree in sides}
            for w in workloads
        }
    out["end_to_end"] = {
        w: pairs(sides[0][1], sides[1][1], w, args.pairs, args.seconds, args.seed + 100 * k)
        for k, w in enumerate(workloads)
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        out["claim"] = claim(out["end_to_end"][workload][metric], workload, metric)
    if args.traced:
        out["traced"] = {
            w: {
                side: {k: v["value"] for k, v in
                       perfbench(tree, w, COUNT_SEED, args.seconds, 1)["metrics"].items()}
                for side, tree in sides
            }
            for w in workloads
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
