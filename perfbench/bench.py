"""The benchmark's run loop, metrics and report; ``run.py`` is its entry point."""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import machine
import numpy as np
import pipeline
import spans

# The end-to-end metrics of BENCHMARK.json, each with a bound.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "windows_per_s": "1/s",
    "score_ms_mean": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not bounded.  A train_reduced window takes about
# 0.9 ms or about 1.6 ms depending on the machine's state, so a percentile
# jumps between the two as the share of slow windows in a run crosses it;
# the mean moves smoothly with that share.
UNBOUNDED = {"score_ms_p50": "ms", "score_ms_p90": "ms"}


@dataclass
class Loop:
    """What one timed loop measured, one entry per set-up or workload run."""

    setups_s: list = field(default_factory=list)
    runs_s: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # per workload run
    windows_per_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    # Peak RSS once the first workload run has ended.  Later runs can raise
    # it by reusing fragmented memory, and how many runs fit depends on the
    # machine's speed.
    peak_rss_mb: float = 0.0

    def runs(self, traced: bool) -> list:
        return [r for r, t in zip(self.runs_s, self.traced) if t == traced]


def phase(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def prepare_inputs(w, seed, work_dir, trace: bool):
    """The probe's digest, the prepared inputs and their spans, from ``prepare.py``."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "prepare.py")
    subprocess.run(
        [sys.executable, script, w.name, str(seed), str(work_dir), str(int(trace))],
        check=True, timeout=120,
    )
    with open(work_dir / "prepared.pickle", "rb") as f:
        return pickle.load(f)


def run_loop(w, seed, seconds, prep, work_dir, found, tracer=None) -> Loop:
    """Set up ``w.extra_setups`` times, then repeat workload runs.

    A workload run starts only if it is expected to end before ``seconds``
    have passed since the first set-up.

    Garbage is collected before each set-up and workload run, outside the
    timings.  With a tracer, the extra set-ups are traced and the workload
    runs alternate traced and untraced, starting traced, so that the
    tracing overhead is measured on runs interleaved in time.
    """
    loop = Loop()
    start = time.perf_counter()
    for _ in range(w.extra_setups):
        gc.collect()
        t0 = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            with phase(tracer, spans.SETUP):
                pipeline.setup(w, seed, prep)
        loop.setups_s.append(time.perf_counter() - t0)
    least = 2 if tracer else 1
    first = None
    # Start another workload run only if one more fits in the time left.
    while len(loop.runs_s) < least or time.perf_counter() - start + loop.runs_s[-1] <= seconds:
        traced = tracer is not None and len(loop.runs_s) % 2 == 0
        active = tracer if traced else None
        gc.collect()
        with tracer.installed() if traced else contextlib.nullcontext():
            with phase(active, spans.RUN):
                t0 = time.perf_counter()
                with phase(active, spans.SETUP):
                    s = pipeline.setup(w, seed, prep)
                t1 = time.perf_counter()
                with phase(active, spans.PASS):
                    result = pipeline.run_pass(w, s, work_dir)
                t2 = time.perf_counter()
        saved = result.trained if w.trains else prep.model
        checks.check_pass(found, result, saved, first, f"run {len(loop.runs_s) + 1}")
        if first is None:
            first = result
        loop.setups_s.append(t1 - t0)
        loop.runs_s.append(t2 - t0)
        loop.traced.append(traced)
        loop.windows_per_s.append(result.windows / result.main_s)
        loop.latencies_s.extend(result.latencies_s)
        if len(loop.runs_s) == 1:
            loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return loop


def end_to_end(loop: Loop) -> dict:
    latencies_ms = np.array(loop.latencies_s) * 1e3
    return {
        "setup_s": statistics.median(loop.setups_s),
        "run_s": statistics.median(loop.runs_s),
        "windows_per_s": statistics.median(loop.windows_per_s),
        "score_ms_mean": float(np.mean(latencies_ms)),
        "score_ms_p50": float(np.percentile(latencies_ms, 50)),
        "score_ms_p90": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": loop.peak_rss_mb,
    }


def report_layers(record, tracer, traced_run_s, untraced_run_s) -> dict:
    """Print every layer metric with what it should move; return the JSON metrics."""
    layers = spans.layer_metrics(tracer.spans)
    record.update(
        layers={
            name: {"value": layers[name], "unit": unit, "moves": moves, "on": on}
            for name, (unit, _stat, moves, on) in spans.LAYER_METRICS.items()
        },
        calls_per_run=spans.calls_per_run(tracer.spans),
        traced_run_s=traced_run_s,
        untraced_run_s=untraced_run_s,
        tracing_overhead_s=traced_run_s - untraced_run_s,
        spans=tracer.spans,
    )
    for name, (unit, _stat, moves, on) in spans.LAYER_METRICS.items():
        value = layers[name]
        if value is None:
            shown = "not called"
        else:
            shown = f"{value:.6g} {unit}" if unit == "ms" else f"{value:.0f} {unit}"
        print(f"{name} {shown}  [moves {moves} on {on}]")
    print("calls per workload run: " + ", ".join(
        f"{fn} {n}" for fn, n in record["calls_per_run"].items()))
    print(f"tracing_overhead_s {traced_run_s - untraced_run_s:.6g} s "
          f"(traced run_s {traced_run_s:.6g} - untraced run_s {untraced_run_s:.6g})")
    return {m: {"value": layers[m], "unit": spans.LAYER_METRICS[m][0]}
            for m in spans.BENCHMARK_LAYER_METRICS}


def parse_args(argv):
    p = argparse.ArgumentParser(description="ttrnn pipeline benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, threads: int) -> int:
    args = parse_args(argv)
    w = pipeline.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(pipeline.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    record = {
        "workload": w.name,
        "seed": args.seed,
        "probe_seed": pipeline.PROBE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.describe(threads),
    }
    work_dir = machine.RUNS_DIR / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True)
    found = checks.Checks()
    tracer = spans.Tracer() if args.trace else None
    try:
        digest, prep, prep_spans = prepare_inputs(w, args.seed, work_dir, tracer is not None)
        found.probe(digest, checks.load_reference(w.name), "probe")
        if tracer:
            tracer.adopt(prep_spans)
        loop = run_loop(w, args.seed, args.seconds, prep, work_dir, found, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record.update(
        runs=len(loop.runs_s),
        setups=len(loop.setups_s),
        score_samples=len(loop.latencies_s),
        checks={"attempted": found.attempted, "failed": found.failed,
                "failures": found.failures[:20]},
    )
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {w.name} seed {args.seed}: {len(loop.runs_s)} runs, "
          f"{len(loop.setups_s)} set-ups, {len(loop.latencies_s)} scored windows")
    if tracer:
        metrics = report_layers(record, tracer, statistics.median(loop.runs(True)),
                                statistics.median(loop.runs(False)))
    else:
        e2e = record["end_to_end"] = end_to_end(loop)
        for name, unit in {**END_TO_END, **UNBOUNDED}.items():
            n = f" (n={len(loop.latencies_s)})" if name.startswith("score_ms") else ""
            print(f"{name} {e2e[name]:.6g} {unit}{n}")
        metrics = {m: {"value": e2e[m], "unit": unit} for m, unit in END_TO_END.items()}
    print(f"error_rate {found.failed / found.attempted:.6g} "
          f"({found.failed} of {found.attempted} checks failed)")
    for failure in found.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    with open(machine.RUNS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f)
    print(json.dumps({
        "correct": found.failed == 0,
        "attempted": found.attempted,
        "failed": found.failed,
        "metrics": metrics,
    }))
    return 0

