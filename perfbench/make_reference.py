"""Write reference.json: every workload's probe outputs on the current code.

Run from the repository root, only after a change that is meant to alter
results (and say why in its description):

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile

import machine


def main() -> int:
    machine.pin_blas_threads()  # before anything imports numpy
    machine.use_source()
    import checks
    import pipeline

    machine.RUNS_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=machine.RUNS_DIR) as work_dir:
        reference = {
            name: pipeline.probe(w, f"{work_dir}/{name}")
            for name, w in pipeline.WORKLOADS.items()
        }
    with open(checks.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
