"""Run a workload's probe and make its inputs, in a process of their own.

``bench.py`` runs this before its timed loop, as

    python3 perfbench/prepare.py WORKLOAD SEED WORK_DIR TRACE

Both allocate far more than a set-up does (backtest_full trains and writes a
full-size checkpoint twice), so keeping them out of the benchmark's process
leaves its peak RSS to the timed loop.  Writes ``WORK_DIR/prepared.pickle``:
the probe's digest, ``pipeline.prepare``'s result and, when TRACE is 1, the
spans of ``pipeline.prepare``.
"""

import pickle
import sys
from pathlib import Path

import machine


def main(argv) -> int:
    machine.pin_blas_threads()  # before anything imports numpy
    machine.use_source()
    import pipeline
    import spans

    name, seed, work_dir, trace = argv
    w, work_dir = pipeline.WORKLOADS[name], Path(work_dir)
    digest = pipeline.probe(w, work_dir / "probe")
    tracer = spans.Tracer()
    if trace == "1":
        with tracer.installed(), tracer.span(spans.PREP):
            prep = pipeline.prepare(w, int(seed), work_dir)
    else:
        prep = pipeline.prepare(w, int(seed), work_dir)
    with open(work_dir / "prepared.pickle", "wb") as f:
        pickle.dump((digest, prep, tracer.spans), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
