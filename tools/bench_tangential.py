"""Time ``hypersurface._tangential``, the induced metric's contraction, on two checkouts.

Usage, from the root of a checkout:

    python3 tools/bench_tangential.py PARENT CHANGE [--points 16] > tangential.json

PARENT and CHANGE are two checkouts, each with its own ``src/``.  For each
side, in a process of its own, the script builds the tangents and the ambient
metric of GRAPH(T4_IN_PERT_T5) at ``--points`` points of its default
quadrature rule at degrees 0 to 4, then times ``_tangential`` of the two:
the best of 7 repeats of a loop of about 0.05 s, in microseconds per call.
It prints one JSON object: the microseconds per degree and side, and the
change's ratio to the parent.  Run it on an otherwise idle machine.
"""

import argparse
import json
import platform
import subprocess
import sys
import time

import numpy as np

SCENARIO = "GRAPH(T4_IN_PERT_T5)"
DEGREES = range(5)


def per_call(fn):
    n, t = 1, 0.0
    while t < 0.05:
        n *= 2
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - t0
    best = t
    for _ in range(6):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def side(points):
    """{degree: microseconds per call} on the checkout on sys.path."""
    from extrinsicq import hypersurface as hs
    from extrinsicq.scenarios import parse_scenario
    from extrinsicq.verify import Quadrature

    scn = parse_scenario(SCENARIO)
    rule = Quadrature(scn.chart, 10, 12)
    out = {}
    for d in DEGREES:
        ctx = scn.context(np.ascontiguousarray(rule.points[:, :points]), degree_cap=6)
        X, t = hs.ambient_metric_on_surface(ctx, d), hs.tangents(ctx, d)
        hs._tangential(X, t)
        out[d] = round(per_call(lambda: hs._tangential(X, t)) * 1e6, 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--points", type=int, default=16)
    ap.add_argument("--side", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side:
        sys.path.insert(0, f"{args.side}/src")
        print(json.dumps(side(args.points)))
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT and CHANGE are required")
    us = {}
    for name, tree in (("parent", args.parent), ("change", args.change)):
        run = subprocess.run([sys.executable, __file__, "--side", tree, "--points", str(args.points)],
                             capture_output=True, text=True, check=True)
        us[name] = json.loads(run.stdout)
    print(json.dumps({
        "scenario": SCENARIO,
        "points": args.points,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "us_per_call": us,
        "ratio": {d: round(us["change"][d] / us["parent"][d], 3) for d in us["parent"]},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
