"""ttrnn pipeline benchmark: one workload, one closed-loop process.

Run from the repository root:

    python3 perfbench/run.py --workload train_reduced --seed 1 --seconds 30 --trace 0

A run first has ``prepare.py`` run the probe and make the workload's inputs
from ``--seed`` in a process of their own, checks the probe against
``reference.json``, then repeats whole workload runs (set-up, then every
step to the last artifact written) until ``--seconds`` have passed.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced workload runs and reports the difference of
their median run times as the tracing overhead.  Each run also writes a
record with the machine, the seed and, when traced, every span, under
``perfbench/.runs/``.
"""

import sys

import machine


def main() -> int:
    threads = machine.pin_blas_threads()  # before anything imports numpy
    machine.use_source()
    import bench

    return bench.main(sys.argv[1:], threads)


if __name__ == "__main__":
    sys.exit(main())
