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
and additions, as one row of ``jets.contract`` on the operands packed
(``packed_dot``, "dot_us"), and stacked into one reduceat whatever the batch
(the form ``jets.contract`` uses below ``_LAYERED_MIN_BATCH``), and checks
that the contraction equals the loop bit for bit.  At 128 and 1024 points it
times the same sums again with the x of every second term all zero
("vanishing_share" 0.5), terms that ``jets.contract`` leaves out there.  For
nvars {4, 5} x degree {2, 3, 4} x batch {128, 1024} it times ``jets.sin`` of
a chart coordinate, whose offset is the same at every point, and of a jet
whose offset varies from point to point ("series_rows").  For 5 variables x degree 0-4 x rows
{6, 15, 55} x terms {5, 10} at 8 points it times the rows of one tensor
contracted one ``packed_dot`` each and by one ``packed_dot_rows`` call, the
latter with each candidate bound on the gathered array of one stacked
reduceat ("batched_rows", microseconds per row), checks that the two agree
bit for bit, and picks the bound ("stack_bound"): the smallest candidate
whose geometric mean time over the grid is within 15% of the fastest
candidate's: a larger bound keeps more stacked operands alive, and the
end-to-end paper-points run does not resolve a gain of that size.  Every
time is the best of 7 repeats of a loop of about 0.02 s, and product tables
are built before timing.  It prints one JSON object.  Run it single-threaded
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
DOT_VANISHING_BATCHES = (128, 1024)  # where rows with every second x zero are timed too
SERIES_DEGREES = (2, 3, 4)
SERIES_BATCHES = (128, 1024)
ROWS_DEGREES = (0, 1, 2, 3, 4)
ROWS = (6, 15, 55)
ROWS_TERMS = (5, 10)
ROWS_BATCH = 8
STACK_BOUNDS = (2**12, 2**13, 2**14, 2**15, 2**16, 2**18)


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


def packed_dot_rows(rows):
    """The sums of ``rows`` (xs, ys, None) of jets over one space: their
    operands packed and contracted by one ``jets.contract``."""
    m, space = len(rows[0][0]), rows[0][0][0].space
    x = jets.pack(space, [j for xs, _, _ in rows for j in xs])
    y = jets.pack(space, [j for _, ys, _ in rows for j in ys])
    ix = np.arange(len(rows) * m).reshape(-1, m)
    return jets.contract(x, ix, y, ix).views


def packed_dot(xs, ys):
    return packed_dot_rows([(xs, ys, None)])[0]


def dot_rows(rng):
    rows = []
    for nvars in NVARS:
        for degree in DOT_DEGREES:
            space = jets.jet_space(nvars, degree)
            space.mul_table()
            for terms in DOT_TERMS:
                for batch, share in [(b, 0.0) for b in DOT_BATCHES] + [
                    (b, 0.5) for b in DOT_VANISHING_BATCHES
                ]:
                    X, Y = (rng.standard_normal((space.ncoeffs, terms, batch)) for _ in range(2))
                    if share:
                        X[:, ::2] = 0.0
                    xs = [jets.Jet(space, X[:, m].copy()) for m in range(terms)]
                    ys = [jets.Jet(space, Y[:, m].copy()) for m in range(terms)]
                    loop = per_call(lambda: loop_dot(xs, ys))
                    dot = per_call(lambda: packed_dot(xs, ys))
                    stacked = per_call(lambda: stacked_dot(space, X, Y))
                    rows.append(
                        {
                            "nvars": nvars,
                            "degree": degree,
                            "terms": terms,
                            "batch": batch,
                            "vanishing_share": share,
                            "loop_us": round(loop * 1e6, 2),
                            "dot_us": round(dot * 1e6, 2),
                            "stacked_us": round(stacked * 1e6, 2),
                            "speedup": round(loop / dot, 2),
                            "bit_identical": bool(
                                np.array_equal(
                                    packed_dot(xs, ys).coeffs.view(np.int64),
                                    loop_dot(xs, ys).coeffs.view(np.int64),
                                )
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


def batched_rows(rng):
    """(rows, stack_bound): per-row times of one dot each and of dot_rows at
    each candidate bound, and the bound picked from them."""
    out, ratios = [], {b: [] for b in STACK_BOUNDS}
    saved = jets._STACK_ELEMENTS
    try:
        for degree in ROWS_DEGREES:
            space = jets.jet_space(5, degree)
            space.mul_table()
            for nrows in ROWS:
                for terms in ROWS_TERMS:
                    rows = [
                        tuple(
                            [jets.Jet(space, rng.standard_normal((space.ncoeffs, ROWS_BATCH)))
                             for _ in range(terms)]
                            for _ in range(2)
                        ) + (None,)
                        for _ in range(nrows)
                    ]
                    one = per_call(lambda: [packed_dot(xs, ys) for xs, ys, _ in rows]) / nrows
                    want = [packed_dot(xs, ys).coeffs for xs, ys, _ in rows]
                    row = {"degree": degree, "rows": nrows, "terms": terms,
                           "dot_us_per_row": round(one * 1e6, 2), "rows_us_per_row": {}}
                    for bound in STACK_BOUNDS:
                        jets._STACK_ELEMENTS = bound
                        t = per_call(lambda: packed_dot_rows(rows)) / nrows
                        got = [j.coeffs for j in packed_dot_rows(rows)]
                        assert all(np.array_equal(g, w) for g, w in zip(got, want))
                        row["rows_us_per_row"][str(bound)] = round(t * 1e6, 2)
                        ratios[bound].append(t / one)
                    out.append(row)
    finally:
        jets._STACK_ELEMENTS = saved
    gmean = {b: float(np.exp(np.mean(np.log(r)))) for b, r in ratios.items()}
    best = min(gmean.values())
    picked = min(b for b in STACK_BOUNDS if gmean[b] <= 1.15 * best)
    pick = {
        "geomean_rows_over_dot": {str(b): round(g, 3) for b, g in gmean.items()},
        "worst_rows_over_dot": {str(b): round(max(r), 3) for b, r in ratios.items()},
        "picked": picked,
        "rule": "smallest candidate within 15% of the fastest geometric mean",
        "in_use": saved,
    }
    return out, pick


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
    out["batched_rows"], out["stack_bound"] = batched_rows(rng)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
