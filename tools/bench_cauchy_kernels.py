"""Time the two Cauchy product kernels of ``extrinsicq.jets`` side by side.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/bench_cauchy_kernels.py > kernels.json

For nvars {4, 5} x degree {0, 1, 2, 3, 6} x batch {8, 64, 128, 256, 1024}
it times ``_cauchy_reduceat`` and ``_cauchy_layered`` on the same random
operands and prints one JSON object: microseconds per product for each
kernel (the best of 7 repeats of a loop of about 0.02 s), their ratio, and
the largest difference between the two results relative to the largest
absolute value.  Product tables are built before timing.  Run it
single-threaded (OMP_NUM_THREADS=1) on an otherwise idle machine.
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
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
