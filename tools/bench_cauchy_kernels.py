"""Time the Cauchy product kernels of ``extrinsicq.jets`` side by side.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/bench_cauchy_kernels.py > kernels.json

For nvars {4, 5} x degree {0, 1, 2, 3, 6} x batch {8, 64, 128, 256, 1024}
it times ``_cauchy_reduceat`` and ``_cauchy_layered`` on the same random
operands ("rows"): microseconds per product for each kernel, their ratio,
and the largest difference between the two results relative to the largest
absolute value.  For nvars {4, 5} x degree {1, 2} x terms {4, 16, 25} x
batch {8, 128, 1024} it times a sum of products of jets, xs[0]*ys[0] +
xs[1]*ys[1] + ..., three ways ("dot_rows"): as a loop of ``Jet`` products
and additions, as ``jets.dot``, and stacked into one reduceat whatever the
batch (the form ``jets.dot`` uses below ``_LAYERED_MIN_BATCH``), and checks
that ``jets.dot`` equals the loop bit for bit.  For nvars {4, 5} x degree
{2, 3, 4} x batch {128, 1024} it times ``jets.sin`` of a chart coordinate,
whose offset is the same at every point, and of a jet whose offset varies
from point to point ("series_rows").  Every time is the best of 7
repeats of a loop of about 0.02 s, and product tables are built before
timing.  It prints one JSON object.  Run it single-threaded
(OMP_NUM_THREADS=1) on an otherwise idle machine.
"""

import json
import os
import platform
import time

import numpy as np

from extrinsicq import jets

NVARS = (4, 5)
DEGREES = (0, 1, 2, 3, 6)
BATCHES = (8, 64, 128, 256, 1024)
DOT_DEGREES = (1, 2)
DOT_TERMS = (4, 16, 25)
DOT_BATCHES = (8, 128, 1024)
SERIES_DEGREES = (2, 3, 4)
SERIES_BATCHES = (128, 1024)


def per_call(fn, repeats=7, budget=0.02):
    fn()
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= budget:
            break
        n *= 2
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t) / n)
    return best


def loop_dot(xs, ys):
    r = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        r = r + x * y
    return r


def stacked_dot(space, X, Y):
    """sum_m X[:, m] * Y[:, m] of (ncoeffs, terms, batch) stacks: one gather,
    one reduceat, one accumulate."""
    I, J, starts, *_ = space.mul_table()
    return np.add.accumulate(np.add.reduceat(X[I] * Y[J], starts, axis=0), axis=1)[:, -1]


def dot_rows(rng):
    rows = []
    for nvars in NVARS:
        for degree in DOT_DEGREES:
            space = jets.jet_space(nvars, degree)
            space.mul_table()
            for terms in DOT_TERMS:
                for batch in DOT_BATCHES:
                    X, Y = (rng.standard_normal((space.ncoeffs, terms, batch)) for _ in range(2))
                    xs = [jets.Jet(space, X[:, m].copy()) for m in range(terms)]
                    ys = [jets.Jet(space, Y[:, m].copy()) for m in range(terms)]
                    loop = per_call(lambda: loop_dot(xs, ys))
                    dot = per_call(lambda: jets.dot(xs, ys))
                    stacked = per_call(lambda: stacked_dot(space, X, Y))
                    rows.append(
                        {
                            "nvars": nvars,
                            "degree": degree,
                            "terms": terms,
                            "batch": batch,
                            "loop_us": round(loop * 1e6, 2),
                            "dot_us": round(dot * 1e6, 2),
                            "stacked_us": round(stacked * 1e6, 2),
                            "speedup": round(loop / dot, 2),
                            "bit_identical": bool(
                                np.array_equal(jets.dot(xs, ys).coeffs, loop_dot(xs, ys).coeffs)
                            ),
                        }
                    )
    return rows


def series_rows(rng):
    rows = []
    for nvars in NVARS:
        for degree in SERIES_DEGREES:
            space = jets.jet_space(nvars, degree)
            space.mul_table()
            for batch in SERIES_BATCHES:
                coordinate = jets.seed_variable(space, 0, rng.uniform(0.5, 1.5, batch))
                varying = jets.Jet(space, rng.standard_normal((space.ncoeffs, batch)))
                rows.append(
                    {
                        "nvars": nvars,
                        "degree": degree,
                        "batch": batch,
                        "coordinate_us": round(per_call(lambda: jets.sin(coordinate)) * 1e6, 2),
                        "varying_us": round(per_call(lambda: jets.sin(varying)) * 1e6, 2),
                    }
                )
    return rows


def main():
    rng = np.random.default_rng(0)
    rows = []
    for nvars in NVARS:
        for degree in DEGREES:
            space = jets.jet_space(nvars, degree)
            space.mul_table()
            for batch in BATCHES:
                ca = rng.standard_normal((space.ncoeffs, batch))
                cb = rng.standard_normal((space.ncoeffs, batch))
                red = per_call(lambda: jets._cauchy_reduceat(space, ca, cb))
                lay = per_call(lambda: jets._cauchy_layered(space, ca, cb))
                want = jets._cauchy_reduceat(space, ca, cb)
                diff = np.max(np.abs(jets._cauchy_layered(space, ca, cb) - want))
                rows.append(
                    {
                        "nvars": nvars,
                        "degree": degree,
                        "batch": batch,
                        "pairs": int(space.mul_table()[0].size),
                        "layers": len(space.mul_table()[3]) + 1,
                        "reduceat_us": round(red * 1e6, 2),
                        "layered_us": round(lay * 1e6, 2),
                        "speedup": round(red / lay, 2),
                        "max_rel_diff": float(diff / np.max(np.abs(want))),
                    }
                )
    out = {
        "command": "PYTHONPATH=src python3 tools/bench_cauchy_kernels.py",
        "threshold": jets._LAYERED_MIN_BATCH,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.processor() or platform.machine(),
        },
        "rows": rows,
        "dot_rows": dot_rows(rng),
        "series_rows": series_rows(rng),
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
