"""Run the benchmark once per seed and summarise the spread of each metric.

Run from the repository root:

    python3 perfbench/repeat.py --workload train_full --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run after another, each for
BENCHMARK.json's ``run_seconds``, and prints for each
metric its median, its quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the distance between the quartiles as a share of the
median: the spread that each end-to-end metric's bound in BENCHMARK.json is
judged against.  ``--out FILE`` also writes the values and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import machine


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seconds() -> int:
    with open(machine.ROOT / "BENCHMARK.json") as f:
        return json.load(f)["run_seconds"]


def run_once(workload, seed, seconds) -> tuple[dict, dict]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=machine.ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    described = next(json.loads(x[len("machine "):]) for x in lines if x.startswith("machine "))
    return json.loads(lines[-1]), described


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description="repeat the benchmark over seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--out", help="write the values and summary to this JSON file")
    args = p.parse_args()

    seeds = seed_list(args.seeds)
    seconds = run_seconds()
    values, checks, described = {}, {"attempted": 0, "failed": 0}, None
    for seed in seeds:
        result, described = run_once(args.workload, seed, seconds)
        checks["attempted"] += result["attempted"]
        checks["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    summary = {
        name: {"unit": v["unit"], **summarise(v["values"])}
        for name, v in values.items()
        if len(v["values"]) >= 2
    }
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g} {s['unit']}, "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {spread}")
    print(f"checks: {checks['failed']} of {checks['attempted']} failed")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "workload": args.workload,
                "seeds": seeds,
                "seconds": seconds,
                "machine": described,
                "checks": checks,
                "metrics": summary,
            }, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
