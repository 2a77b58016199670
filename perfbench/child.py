"""One measured pipeline run in a fresh interpreter.

    python3 child.py plain  SCENARIO OUT_DIR SPAWN_TIME
    python3 child.py traced SCENARIO OUT_DIR

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so setup_s covers the
interpreter start, `import fbmlab` and load_scenario.

plain runs fbmlab.run_pipeline untouched.  traced replays run_pipeline stage
by stage through fbmlab.pipeline's public functions, records a span around
each call, then times single kernel calls on the run's own field at its
first point.  Both print one JSON object as the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import fbmlab
from fbmlab import blowup, fields, minimizer, monotonicity, pipeline
from fbmlab.fieldio import read_field, write_csv, write_field, write_points_csv
from fbmlab.scenario import load_scenario, validate_dict

# Each kernel is called once to warm up, then timed until this many seconds
# have passed (at least one timed call); the median call is reported.
KERNEL_BUDGET_S = 0.3


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _final_energy(s, out: Path, summary: dict) -> float:
    """Minimizer's final energy, or the energy of a loaded field."""
    if "final_energy" in summary["minimize"]:
        return float(summary["minimize"]["final_energy"])
    u, _ = read_field(out / "field.bin")
    return minimizer.energy(pipeline.build_problem(s), u)


def run_plain(scenario: Path, out: Path, t_spawn: float) -> dict:
    s = load_scenario(scenario)
    setup_s = time.perf_counter() - t_spawn
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    summary = fbmlab.run_pipeline(s, out)
    pipeline_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    return {
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "final_energy": _final_energy(s, out, summary),
        "scenario_diagnostics": validate_dict(json.loads(scenario.read_text())),
    }


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.results: dict[str, list] = {}

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def around(self, module, attr: str, name: str):
        """Record a span around every call of module.attr while active."""
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.results.setdefault(name, []).append(result)
            return result

        setattr(module, attr, wrapped)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def self_time(self, name: str) -> float:
        out = 0.0
        for rec in self.spans:
            if rec["name"] != name:
                continue
            kids = sum(k["end"] - k["start"] for k in self.spans if k["parent"] == rec["id"])
            out += rec["end"] - rec["start"] - kids
        return out


def replay(tr: Tracer, s, out: Path):
    """run_pipeline(s, out) stage by stage, with a span around each call."""
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("pipeline.run"):
        with tr.span("minimizer.minimize"):
            u, minimize_report = pipeline.obtain_field(s)
        with tr.span("fieldio.write"):
            write_field(u, out / "field.bin")
            (out / "minimize.json").write_text(
                json.dumps(minimize_report, indent=2, sort_keys=True) + "\n"
            )
        with tr.span("pipeline.select"):
            points = pipeline.select_points(s, u)
        with tr.span("fieldio.write"):
            write_points_csv(np.asarray(points, dtype=float), out / "points.csv")
        results = []
        for z in points:
            with tr.span("ghost.stage"):
                g, ghost_report = pipeline.stage_ghost(s, u, z)
            with tr.span("monotonicity.scan"):
                scan = pipeline.stage_scan(s, u, g)
            with tr.span("blowup.stage"):
                blow = pipeline.stage_blowup(s, u, z)
            results.append((g, ghost_report, scan, blow))
        per_point = []
        for i, (z, (g, ghost_report, scan, blow)) in enumerate(zip(points, results)):
            with tr.span("fieldio.write"):
                pipeline.write_ghost(g, out / f"ghost_{i}.bin", report=ghost_report)
                monotonicity.write_report_csv(scan, out / f"scan_{i}.csv")
                write_csv(
                    out / f"blowup_{i}.csv",
                    pipeline.blowup_columns(s.grid.dim),
                    pipeline.blowup_rows(blow),
                )
            per_point.append(
                {
                    "index": i,
                    "z": [float(c) for c in z],
                    "ghost": {"residual": g.residual, "iterations": g.iterations},
                    "monotonicity": {
                        "tol_mono": scan.tol_mono,
                        "violations": list(scan.violations),
                    },
                    "blowup": {"verdict": blow["verdict"], "n_scales": len(blow["scales"])},
                }
            )
        summary = {
            "schema_version": 1,
            "n_points": len(points),
            "minimize": minimize_report,
            "per_point": per_point,
            "total_violations": sum(len(p["monotonicity"]["violations"]) for p in per_point),
        }
        with tr.span("fieldio.write"):
            (out / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
    return u, points, results


def kernel_ms(fn, *args) -> float:
    fn(*args)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < KERNEL_BUDGET_S:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def run_traced(scenario: Path, out: Path) -> dict:
    tr = Tracer(run_id=out.name)
    with tr.span("scenario.load"):
        s = load_scenario(scenario)
    with (
        tr.around(pipeline, "minimize", "minimizer.descent"),
        tr.around(pipeline, "flux_field", "ghost.flux"),
        tr.around(pipeline, "neumann_solve", "ghost.solve"),
        tr.around(monotonicity, "oscillation_profile", "monotonicity.oscillation"),
    ):
        u, points, results = replay(tr, s, out)

    # kernels on the run's own field at its first point
    z = np.asarray(points[0], dtype=float)
    p = pipeline.build_problem(s)
    flux = pipeline.flux_field(u, s.model, z)
    scale = blowup.default_scales(s.grid, z)[-1]
    rescaled = blowup.rescale(u, z, scale, blowup.unit_box(s.grid.dim))
    k = {
        "minimizer.energy_ms": kernel_ms(minimizer.energy, p, u),
        "minimizer.gradient_ms": kernel_ms(minimizer.energy_gradient, p, u),
        "ghost.flux_ms": kernel_ms(pipeline.flux_field, u, s.model, z),
        "ghost.solve_ms": kernel_ms(lambda: pipeline.neumann_solve(flux, tol=s.ghost_tol)),
        "fields.shell_average_ms": kernel_ms(fields.shell_average, u, z, s.r_min),
        "fields.ball_integral_ms": kernel_ms(fields.ball_integral, u, z, s.r_max),
        "fields.gradient_ms": kernel_ms(fields.gradient, u),
        "blowup.flatness_fit_ms": kernel_ms(blowup.flatness_deficit, rescaled),
        "blowup.homogeneity_ms": kernel_ms(blowup.homogeneity_deviation, u, z, scale),
    }
    t0 = time.perf_counter()
    read_field(out / "field.bin")
    read_s = time.perf_counter() - t0

    descent = tr.results.get("minimizer.descent", [])
    rep = descent[0][1] if descent else None
    iterations = rep.iterations if rep else 0
    minimize_s = tr.total("minimizer.minimize")
    # per-step times fall back to the whole call when no step ran
    ms_per_iter = 1000.0 * minimize_s / max(iterations, 1)
    ghosts = [g for g, _, _, _ in results]
    first_iters = ghosts[0].iterations
    n_radii = len(s.radii())
    metrics = {
        "minimizer.minimize_s": minimize_s,
        "minimizer.iterations": iterations,
        "minimizer.ms_per_iter": ms_per_iter,
        "minimizer.energy_ms": k["minimizer.energy_ms"],
        "minimizer.gradient_ms": k["minimizer.gradient_ms"],
        # derived: Armijo trials per step from the step time and the kernels
        "minimizer.trials_per_iter": (
            (ms_per_iter - k["minimizer.gradient_ms"]) / k["minimizer.energy_ms"]
            if iterations
            else 0.0
        ),
        "minimizer.grad_sup": rep.gradient_norm if rep else 0.0,
        "minimizer.median_step": float(np.median(rep.step_history)) if iterations else 0.0,
        "ghost.stage_s": tr.total("ghost.stage"),
        "ghost.flux_ms": k["ghost.flux_ms"],
        "ghost.solve_ms": k["ghost.solve_ms"],
        "ghost.cg_iterations": sum(g.iterations for g in ghosts),
        "ghost.ms_per_cg_iter": k["ghost.solve_ms"] / max(first_iters, 1),
        "ghost.reports_s": tr.self_time("ghost.stage"),
        "ghost.residual_max": max(g.residual for g in ghosts),
        "monotonicity.scan_s": tr.total("monotonicity.scan"),
        "monotonicity.ms_per_radius": (
            1000.0 * tr.total("monotonicity.scan") / (len(points) * n_radii)
        ),
        "monotonicity.oscillation_ms": 1000.0
        * float(np.median(tr.durations("monotonicity.oscillation"))),
        "fields.ball_integral_ms": k["fields.ball_integral_ms"],
        "fields.shell_average_ms": k["fields.shell_average_ms"],
        "fields.gradient_ms": k["fields.gradient_ms"],
        "blowup.stage_s": tr.total("blowup.stage"),
        "blowup.scales": sum(len(b["scales"]) for _, _, _, b in results),
        "blowup.flatness_fit_ms": k["blowup.flatness_fit_ms"],
        "blowup.homogeneity_ms": k["blowup.homogeneity_ms"],
        "fieldio.read_s": read_s,
        "fieldio.write_s": tr.total("fieldio.write"),
        "fieldio.bytes_written": sum(f.stat().st_size for f in out.iterdir()),
        "scenario.load_s": tr.total("scenario.load"),
        "pipeline.points": len(points),
        "pipeline.select_s": tr.total("pipeline.select"),
        "pipeline.self_s": tr.self_time("pipeline.run"),
        "pipeline.run_s": tr.total("pipeline.run"),
    }
    (out.parent / f"{out.name}.spans.json").write_text(json.dumps(tr.spans, indent=1) + "\n")
    return metrics


def main() -> int:
    mode, scenario, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    if mode == "plain":
        result = run_plain(scenario, out, float(sys.argv[4]))
    else:
        result = run_traced(scenario, out)
    result["fbmlab_file"] = fbmlab.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
