"""Every benchmark metric of every workload, from one command.

    python3 perfbench/report.py [--seed 0] [--seconds 40]

Runs run.py on each workload, untraced and then traced, so every run's
outputs are checked.  Prints the end-to-end metrics by name and unit with
each workload's error_rate, then the traced per-layer table with one column
per workload.  Exits 1 if any run failed or any check was not met.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} (trace {trace}): exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title: str, results: dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{title}")
    print(f"{'metric':32s} {'unit':>6s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:>14.6g}" for r in results.values())
        print(f"{name:32s} {unit:>6s}{cells}")
    rates = "".join(f"{r['failed'] / r['attempted']:>14.3f}" for r in results.values())
    print(f"{'error_rate':32s} {'1':>6s}{rates}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args()
    e2e = {w: bench(w, args.seed, args.seconds, 0) for w in workloads.WORKLOADS}
    layers = {w: bench(w, args.seed, args.seconds, 1) for w in workloads.WORKLOADS}
    table("end-to-end (untraced; medians over runs)", e2e)
    table("per layer (traced replay; medians over pairs)", layers)
    ok = all(r["correct"] for r in [*e2e.values(), *layers.values()])
    print("\nall output checks passed" if ok else "\nSOME OUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
