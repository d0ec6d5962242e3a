"""Process set-up shared by the benchmark scripts, and the machine record.

Call :func:`pin_blas_threads` before numpy is imported anywhere in the
process: OpenBLAS reads its thread count once, when it is loaded.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / "perfbench" / ".runs"  # run records and scratch files
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Pin the BLAS thread count to the CPUs this process may use."""
    threads = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def use_source():
    """Import ttrnn from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "ttrnn" / "__init__.py").is_file():
        print(f"perfbench: no ttrnn package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ttrnn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def describe(threads: int) -> dict:
    """The machine and code a result was measured on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }
