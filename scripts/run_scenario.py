#!/usr/bin/env python3
"""Run the full pipeline on a scenario file and summarize the artifacts.

Defaults to the bundled 3d half-plane scenario; point it at any scenario
JSON to minimize, build per-point ghosts, scan the corrected quantity and
run the blow-up stage, with everything written under --out.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from time import perf_counter

from fbmlab import load_scenario, run_pipeline

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "halfplane_linear_3d.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", nargs="?", default=str(BUNDLED), help="scenario JSON")
    ap.add_argument("--out", default="runs/latest", help="artifact directory")
    args = ap.parse_args()

    scenario = load_scenario(args.config)
    t0 = perf_counter()
    summary = run_pipeline(scenario, args.out)
    elapsed = perf_counter() - t0

    mini = summary["minimize"]
    print(f"scenario : {args.config}")
    print(f"artifacts: {args.out} ({elapsed:.1f}s)")
    if "final_energy" in mini:
        print(
            f"minimize : energy {mini['final_energy']:.8f} after "
            f"{mini['iterations']} Newton steps, {mini['cg_iterations']} CG iterations "
            f"(stop: {mini['stop_reason']})"
        )
    else:
        print(f"minimize : field loaded from {mini['loaded_from']}")
    for entry in summary["per_point"]:
        z = ", ".join(f"{c:+.4f}" for c in entry["z"])
        mono = entry["monotonicity"]
        print(
            f"point {entry['index']}: z = ({z})  ghost iters {entry['ghost']['iterations']}  "
            f"violations {len(mono['violations'])} (tol_mono {mono['tol_mono']:.3g})  "
            f"verdict {entry['blowup']['verdict']}"
        )
    print(f"total monotonicity violations: {summary['total_violations']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
