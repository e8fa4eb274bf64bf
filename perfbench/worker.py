"""One benchmark process: set up one workload, time passes over it, print JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this with numpy's thread pools held to one thread.  Set-up is
timed from before ``import numpy`` to the end of ``workloads.setup``,
less the time spent sampling the machine's speed (speed.py) from just after
``import numpy``.
With ``--setup-only`` the process stops there.  Otherwise, with ``--trace 0``
it runs whole passes until ``--seconds`` have gone by (at least one) and
reports each pass's wall time, the machine's speed during it (speed.py)
and the process's peak resident memory; with
``--trace 1`` it sets up under the tracer, runs every operation once
untraced and then once traced, writes the trace file and reports the
per-layer metrics.  The last line of stdout is one JSON object.
"""

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MAX_FAILURES_KEPT = 20


def _threads():
    """OS threads of this process (Linux), to show that none were added."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import speed

    # The speed is sampled through the rest of set-up too, so that run.py
    # can scale set-up times like passes.
    setup_meter = speed.Speedometer(speed.SETUP_PERIOD_S)
    setup_meter.start()
    tracer = None
    try:
        import workloads

        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        ops = workloads.setup(args.workload, args.seed)
        setup_s = time.perf_counter() - t0
    finally:
        setup_meter.stop()
    setup_s -= setup_meter.overhead_s
    if tracer:
        tracer.uninstall()
    setup = {"setup_s": setup_s, "setup_speed_samples": setup_meter.samples}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tally = {"attempted": 0, "failed": 0, "wrong": 0, "failures": [], "worst_rel_err": {}}

    def timed_pass(ops_, around=None, meter=None):
        """Wall time of one pass, less the time the meter's sampling took."""
        gc.collect()
        if meter:
            meter.reset()
            meter.start()
        start = time.perf_counter()
        try:
            outcomes = workloads.run_pass(ops_, around)
            elapsed = time.perf_counter() - start
        finally:
            if meter:
                meter.stop()
        if meter:
            elapsed -= meter.overhead_s
        tally["attempted"] += len(outcomes)
        worst = tally["worst_rel_err"]
        for o in outcomes:
            for c in o.comparisons:
                key = f"{o.op} {c['label']}"
                worst[key] = max(worst.get(key, 0.0), c["rel_err"])
            if o.failed:
                tally["failed"] += 1
                tally["wrong"] += o.wrong
                if len(tally["failures"]) < MAX_FAILURES_KEPT:
                    tally["failures"].append(vars(o))
        return elapsed

    result = dict(setup)
    if tracer:
        # Each operation runs untraced and then traced, one right after the
        # other, so that the machine's speed drifts little between the two
        # halves of trace.overhead_s.
        untraced = traced = 0.0
        for op in ops:
            untraced += timed_pass([op])
            tracer.install()
            try:
                traced += timed_pass([op], tracer.operation)
            finally:
                tracer.uninstall()
        layers = tracer.metrics()
        layers["trace.overhead_s"] = (traced - untraced, "s")
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "untraced_pass_s": untraced,
                    "traced_pass_s": traced,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                    "self_s": dict(tracer.self_s),
                    "multi_degree_by_context": tracer.multi_degree_by_context(),
                    "spans_fields": ["id", "parent", "operation", "name", "start_s", "end_s"],
                    "spans": tracer.spans,
                },
                fh,
            )
        result.update(pass_s=[untraced], traced_pass_s=traced, layers=layers,
                      trace_file=str(trace_file.relative_to(ROOT)))
    else:
        # The machine's speed is sampled through every pass, so that run.py
        # can scale each pass to the reference speed (see speed.py).
        meter = speed.Speedometer()
        times, scales, samples = [], [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            times.append(timed_pass(ops, meter=meter))
            scales.append(meter.scale())
            samples.append(len(meter.samples))
        result.update(pass_s=times, pass_scale=scales, speed_samples=samples)

    # Correct: no operation produced a value that misses its oracle, and
    # every pass attempted every operation.  An operation that raises counts
    # as failed but says nothing about the values of the others.
    passes = len(result["pass_s"]) + bool(tracer)
    result.update(
        tally,
        correct=tally["wrong"] == 0 and tally["attempted"] == len(ops) * passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        threads=_threads(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
