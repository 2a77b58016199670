"""fbmlab benchmark: time run_pipeline on one workload and check its outputs.

    python3 perfbench/run.py --workload arctan2d --seed 1 --seconds 40 --trace 0

Run from the root of an fbmlab checkout; the package is imported from its
src/ directory, nothing is installed.  Each pipeline run happens in a fresh
child process, one at a time (closed loop, one run in flight), with
FBMLAB_THREADS=1 and one BLAS thread.  New runs start while the next one is
expected to finish within --seconds; at least MIN_RUNS runs are made (one
pair with --trace 1).

--trace 0 reports the end-to-end metrics, each the median over the runs.
--trace 1 alternates an untraced run with a traced replay of the same
scenario and reports the per-layer metrics (medians over the pairs); the
replay's artifacts must match the untraced run's byte for byte.

Every run's artifacts are checked (checks.py); a run that exits nonzero or
fails a check counts as failed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Scratch files go to
.perfbench/ under the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "final_energy": "1",
}
LAYER_UNITS = {
    "minimizer.minimize_s": "s",
    "minimizer.iterations": "count",
    "minimizer.ms_per_iter": "ms",
    "minimizer.energy_ms": "ms",
    "minimizer.gradient_ms": "ms",
    "minimizer.trials_per_iter": "count",
    "minimizer.grad_sup": "1",
    "minimizer.median_step": "1",
    "ghost.stage_s": "s",
    "ghost.flux_ms": "ms",
    "ghost.solve_ms": "ms",
    "ghost.cg_iterations": "count",
    "ghost.ms_per_cg_iter": "ms",
    "ghost.reports_s": "s",
    "ghost.residual_max": "1",
    "monotonicity.scan_s": "s",
    "monotonicity.ms_per_radius": "ms",
    "monotonicity.oscillation_ms": "ms",
    "fields.ball_integral_ms": "ms",
    "fields.shell_average_ms": "ms",
    "fields.gradient_ms": "ms",
    "blowup.stage_s": "s",
    "blowup.scales": "count",
    "blowup.flatness_fit_ms": "ms",
    "blowup.homogeneity_ms": "ms",
    "fieldio.read_s": "s",
    "fieldio.write_s": "s",
    "fieldio.bytes_written": "bytes",
    "scenario.load_s": "s",
    "pipeline.points": "count",
    "pipeline.select_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["FBMLAB_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment_record() -> dict:
    """Machine and library facts the measurements depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "FBMLAB_THREADS": env["FBMLAB_THREADS"],
    }


def run_child(mode: str, scenario: Path, out: Path) -> tuple[dict | None, str]:
    """Start one child, wait for it; return (result, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(scenario), str(out)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + [repr(t_spawn)], env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=out.parent,
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} run timed out after {CHILD_TIMEOUT_S}s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"{mode} run exited {proc.returncode}: {tail[0]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"{mode} run printed no result"
    if not Path(result.pop("fbmlab_file")).resolve().is_relative_to(SRC):
        return None, f"{mode} run imported fbmlab from outside {SRC}"
    return result, ""


def same_bytes(traced: Path, plain: Path) -> list[str]:
    """Every file the replay wrote must equal the untraced run's file."""
    return [
        f"traced {f.name} differs from the untraced run"
        for f in sorted(traced.iterdir())
        if not (plain / f.name).is_file() or (plain / f.name).read_bytes() != f.read_bytes()
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    scenario, expect = workloads.make(workload, seed, work / "input")
    problems: list[str] = []
    samples: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    min_runs = 1 if trace else MIN_RUNS
    while attempted < min_runs or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        attempted += 1
        run_dir = work / f"run{attempted}"
        plain, err = run_child("plain", scenario, run_dir)
        errs = [err] if err else (
            plain.pop("scenario_diagnostics") + checks.check_run(run_dir, expect)
        )
        if trace and plain is not None:
            traced_dir = work / f"traced{attempted}"
            layers, err = run_child("traced", scenario, traced_dir)
            errs += [err] if err else (
                checks.check_run(traced_dir, expect) + same_bytes(traced_dir, run_dir)
            )
            if layers is not None:
                layers["trace.overhead_s"] = layers.pop("pipeline.run_s") - plain["pipeline_s"]
                samples.append(layers)
            shutil.rmtree(traced_dir, ignore_errors=True)
        elif plain is not None:
            samples.append(plain)
        shutil.rmtree(run_dir, ignore_errors=True)
        if errs:
            failed += 1
            problems += [f"run {attempted}: {e}" for e in errs]
        last = time.perf_counter() - t0
    return samples, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fbmlab" / "__init__.py").is_file():
        print(f"no fbmlab sources under {SRC}; run from an fbmlab checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment_record()
    (work / "environment.json").write_text(json.dumps(env, indent=2) + "\n")

    samples, attempted, failed, problems = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), work
    )
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    if not samples:
        print("no run produced measurements", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in units.items()
    }
    print(f"# {args.workload} seed {args.seed}: {attempted} runs, {failed} failed, "
          f"error_rate {failed / attempted:.3f}; medians over {len(samples)} samples")
    print("# environment " + json.dumps(env))
    for name, m in metrics.items():
        each = " ".join(f"{s[name]:.4g}" for s in samples)
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:6s} [{each}]")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
