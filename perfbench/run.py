"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload compat --seed 1 --seconds 22 --trace 0

Imports `toricfilt` from the checkout's `src`, sets the workload up several
times (the import plus the median set-up, calibrated, is `setup_s`), then
runs a closed loop with one caller: the next operation starts when the
previous one has returned.  The loop makes
whole passes over the corpus for `--seconds` (and at least MIN_PASSES).
Outputs are checked after the loop.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones.  Each operation's time
is calibrated against the host's speed of the moment (see calibration.py):
divided by the mean of the calibration times on either side of it, median
over the passes, in ms at the idle host's speed.  Throughput is the number
of operations over the sum of these times; p50 and p90 are over the
operations.  With `--trace 1` the run first makes passes untraced, then the
same number of passes with span wrappers installed (see spans.py) and
reports per-layer metrics and `trace.overhead_ratio`, the traced over the
untraced time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import calibration
import corpus

SETUP_REPS = 5
SAME = "same as the first outcome of this operation"
MIN_PASSES = 3
TRACE_REFERENCE_SHARE = 0.3

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith(("share", "ratio")):
        return "1"
    if name.endswith("bytes"):
        return "B"
    return "count"


def run_passes(wl, seconds=0.0, passes=None, min_passes=None, tracer=None):
    """Closed loop: passes over the whole corpus in order, each with fresh
    inputs loaded outside the timed window.  Stops after `passes` passes, or
    once `seconds` have passed and `min_passes` ran.  Returns the latencies,
    one list per pass; the calibration times, one list per pass, taken before
    the first operation and after every operation; and the (index, outcome)
    pairs.  A repeated operation whose outcome equals its first one is
    recorded as SAME, so memory does not grow with the run."""
    times, refs, outcomes, first = [], [], [], {}
    min_passes = MIN_PASSES if min_passes is None else min_passes
    deadline = perf_counter() + seconds
    executed = 0
    while (len(times) < passes) if passes is not None else (
            len(times) < min_passes or perf_counter() < deadline):
        if wl.in_process:
            if tracer is not None:
                tracer.restore()
            wl.reload()
            if tracer is not None:
                tracer.install()
        latencies, calibration = [], [wl.calibrate()]
        for idx in range(len(wl.ops)):
            if tracer is not None:
                tracer.op = executed
            t0 = perf_counter()
            try:
                out = wl.call(idx)
            except Exception as exc:  # an operation that raises counts as failed
                out = exc
            latencies.append(perf_counter() - t0)
            calibration.append(wl.calibrate())
            executed += 1
            if idx not in first:
                first[idx] = out
            elif not isinstance(out, Exception) and out == first[idx]:
                out = SAME
            outcomes.append((idx, out))
        times.append(latencies)
        refs.append(calibration)
    return times, refs, outcomes


def check_all(wl, outcomes):
    """(failed, contract violations, stdout drifts) over (index, outcome)
    pairs; an outcome marked SAME shares the check of the first outcome."""
    failed = violations = drift = 0
    first, verdicts = {}, {}
    for idx, out in outcomes:
        if isinstance(out, Exception):
            failed += 1
            print(f"perfbench: {wl.name} op {idx} raised {out!r}", file=sys.stderr)
            continue
        if out is SAME:
            reason = verdicts[idx]
            out = first[idx]
        else:
            first.setdefault(idx, out)
            reason = wl.check(idx, out)
            verdicts.setdefault(idx, reason)
        if not wl.in_process and wl.stdout_drift(idx, out[1], first[idx][1]):
            drift += 1
        if reason is None:
            continue
        if reason.startswith("contract:"):
            violations += 1
        else:
            failed += 1
            print(f"perfbench: {wl.name} op {idx}: {reason}", file=sys.stderr)
    return failed, violations, drift


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, seconds, setup_s):
    times, refs, outcomes = run_passes(wl, seconds=seconds)
    # an operation's time over the mean of the calibration times on either
    # side of it, median over the passes, in ms at the idle host's speed
    costs = [wl.idle_calibration_s * 1000
             * statistics.median(t[i] * 2 / (r[i] + r[i + 1]) for t, r in zip(times, refs))
             for i in range(len(wl.ops))]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    failed, _, _ = check_all(wl, outcomes)
    metrics = {
        "throughput_ops_s": len(costs) / sum(costs) * 1000,
        "latency_ms_p50": statistics.median(costs),
        "latency_ms_p90": quantile(costs, 90),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return len(outcomes), failed, {k: {"value": v, "unit": END_TO_END[k]}
                                   for k, v in metrics.items()}


def per_layer(wl, seconds):
    from spans import Tracer, layer_metrics, lru_stats

    ref_times, _, ref_out = run_passes(wl, seconds=seconds * TRACE_REFERENCE_SHARE,
                                       min_passes=1)
    tracer = Tracer()
    if wl.in_process:
        lru_before = lru_stats()
        tracer.install()
        try:
            times, _, out = run_passes(wl, passes=len(ref_times), tracer=tracer)
        finally:
            tracer.restore()
        lru = {k: tuple(a - b for a, b in zip(v, lru_before[k]))
               for k, v in lru_stats().items()}
    else:
        wl.traced = True
        times, _, out = run_passes(wl, passes=len(ref_times))
        wl.traced = False
        for op, (path, reaped) in enumerate(wl.span_files):
            root = tracer.store.merge_file(path, op)
            # process exit and reaping, after the child's last timestamp
            tracer.store.add("cli:cli.exit", tracer.store.end[root], reaped, -1, op)
        c = tracer.store.counters
        lru = {k: (c.get(f"lru.{k}.hits", 0), c.get(f"lru.{k}.misses", 0))
               for k in ("cone_from_generators", "cone_intersection")}
    traced_wall = sum(map(sum, times))
    tracer.store.dump(os.path.join(wl.work, f"spans-{wl.name}.bin"))
    metrics = layer_metrics(tracer.store, traced_wall, lru)
    outcomes = ref_out + out
    failed, violations, drift = map(sum, zip(check_all(wl, ref_out), check_all(wl, out)))
    samples = tracer.store.samples
    metrics.update({
        "serialize.output_bytes": 0 if wl.in_process else sum(len(o[1]) for _, o in out
                                                              if not isinstance(o, Exception)),
        "serialize.digest_mismatches": drift,
        "cli.startup_ms_p50": statistics.median(samples.get("cli.startup_ms", [0])),
        "cli.command_ms_p50": statistics.median(samples.get("cli.command_ms", [0])),
        "cli.contract_violations": violations,
        "trace.overhead_ratio": traced_wall / sum(map(sum, ref_times)),
    })
    return len(outcomes), failed, {k: {"value": v, "unit": per_layer_unit(k)}
                                   for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src_dir, "toricfilt", "__init__.py")):
        print("perfbench: no src/toricfilt here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # the checkout's own source and a bytecode cache inside the benchmark
    sys.path.insert(0, src_dir)
    sys.pycache_prefix = os.path.join(bench_dir, ".pycache")
    sys.dont_write_bytecode = False

    # imports every module of the package
    import_s = calibration.calibrated_s(lambda: importlib.import_module("toricfilt.cli"))
    import toricfilt
    if not os.path.abspath(toricfilt.__file__).startswith(src_dir + os.sep):
        print(f"perfbench: imported toricfilt from {toricfilt.__file__}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed, bench_dir, src_dir)
    reps = [calibration.calibrated_s(wl.prepare) for _ in range(SETUP_REPS)]
    setup_s = import_s + statistics.median(reps)
    print(f"perfbench: {args.workload} seed {args.seed}: corpus sha256 {wl.digest}, "
          f"{len(wl.ops)} operations", file=sys.stderr)

    if args.trace:
        attempted, failed, metrics = per_layer(wl, args.seconds)
    else:
        attempted, failed, metrics = end_to_end(wl, args.seconds, setup_s)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
