"""Benchmark of extrinsicq, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py`` (paper-points, total-q4, gauss-bonnet); see README.md.

Every process runs the workload from a single thread: numpy's BLAS and
OpenMP pools are held to one thread through the environment.  With
``--trace 0`` the run starts one process that sets up and times whole passes
for S seconds, with PROBES set-up-only processes around it, and reports
``setup_s`` (median set-up over all those processes), ``run_s`` (median
pass) and ``peak_rss_mb`` of the measuring process.  Both times are scaled
to the reference speed by the machine speed that speed.py samples through
them: each pass by its own samples, the set-up median by the samples of all
set-ups.  With ``--trace 1`` one process reports the per-layer
metrics of a traced pass.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the machine; the full result goes to
``perfbench/results/``.  Without the program's source next to it the run
exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PROBES = 8
BUDGET_S = 170.0  # every process a run starts must have ended by then
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _run_worker(argv, deadline, env):
    """Run worker.py to completion (killed and reaped at the deadline) and
    return the JSON object on the last line of its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget used up before the worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {BUDGET_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=_positive_int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "extrinsicq" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'extrinsicq'}", file=sys.stderr)
        return 2
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probe = common + ["--setup-only"]
    try:
        # Half the probes run before the measuring process and half after it,
        # so that the median set-up spans the run, not one moment of it.
        half = 0 if args.trace else PROBES // 2
        setups = [_run_worker(probe, deadline, env) for _ in range(half)]
        res = _run_worker(common, deadline, env)
        setups.append(res)
        setups += [_run_worker(probe, deadline, env) for _ in range(half)]
    except WorkerError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    setup_times = [s["setup_s"] for s in setups]
    # The speed samples of all set-ups are pooled: one set-up holds too few.
    setup_scale = speed.scale([k for s in setups for k in s["setup_speed_samples"]])
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
            "run_s": (statistics.median(
                [t * k for t, k in zip(res["pass_s"], res["pass_scale"])]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": res["threads"],
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "platform": platform.platform(),
    }
    out = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "setup_samples_s": setup_times,
                   "setup_scale": setup_scale,
                   "run_wall_s": statistics.median(res["pass_s"]),
                   "worker": res, "result": out}, fh, indent=1)
    print(json.dumps({"workload": args.workload, "machine": machine,
                      "passes": len(res["pass_s"]), "failures": res["failures"]}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
