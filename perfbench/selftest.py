"""Self-test of the output checks: real artifacts pass, doctored ones fail.

    python3 perfbench/selftest.py

Requires `fbmlab validate` to print "ok" for every workload's scenario.
Runs one arctan2d and one linear3d pipeline (seed 0) in child processes,
as run.py does, and requires their artifacts to pass checks.check_run.  It
then doctors copies: one monotonicity violation in an arctan2d scan, and one
nonzero potential value in a linear3d ghost file.  Each doctored copy must
be rejected by the check meant to catch it.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import run
import workloads


def add_violation(run_dir: Path) -> None:
    """Lower A (and weiss_core with it) at the second radius of point 0."""
    path = run_dir / "scan_0.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(v) for v in row] for row in rows[1:]]
    a, core, gt = (header.index(c) for c in ("A", "weiss_core", "ghost_term"))
    body[1][a] = body[0][a] - (1.0 + abs(body[0][a]))
    body[1][core] = body[1][a] + body[1][gt]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [[repr(v) for v in row] for row in body])


def add_potential(run_dir: Path) -> None:
    path = run_dir / "ghost_0.bin"
    phi = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    phi[phi.size // 2] = 1e-3
    path.write_bytes(phi.tobytes())


CASES = (
    ("arctan2d", add_violation, "monotonicity violation"),
    ("linear3d", add_potential, "potential nonzero"),
)


def main() -> int:
    if not (run.SRC / "fbmlab" / "__init__.py").is_file():
        print(f"no fbmlab sources under {run.SRC}", file=sys.stderr)
        return 2
    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    for workload in workloads.WORKLOADS:
        scenario, _ = workloads.make(workload, 0, work / workload / "input")
        said = subprocess.run(
            [sys.executable, "-m", "fbmlab", "validate", "--config", str(scenario)],
            env=run.child_env(), capture_output=True, text=True,
        ).stdout.strip()
        print(f"{workload} fbmlab validate: {said}")
        ok = ok and said == "ok"
    for workload, doctor, expected in CASES:
        scenario, expect = workloads.make(workload, 0, work / workload / "input")
        real = work / workload / "real"
        _, err = run.run_child("plain", scenario, real)
        problems = [err] if err else checks.check_run(real, expect)
        print(f"{workload} real artifacts: {'pass' if not problems else problems}")
        ok = ok and not problems
        fake = work / workload / "doctored"
        shutil.copytree(real, fake)
        doctor(fake)
        caught = [p for p in checks.check_run(fake, expect) if expected in p]
        print(f"{workload} doctored ({doctor.__name__}): "
              f"{caught if caught else 'NOT rejected'}")
        ok = ok and bool(caught)
    shutil.rmtree(work, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
