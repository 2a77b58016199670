#!/usr/bin/env python3
"""Grid-refinement study for the two core numerical guarantees.

Part 1: L2 recovery of a manufactured potential cos(pi x) cos(pi y) by the
weak Neumann splitting, expected to shrink by ~4x per halving of h.
Part 2: radius-independence of the corrected scan on the exact half-plane
profile in 3d, expected to tighten under refinement as well.

Each part is held to its acceptance check's bounds, with the sizes given
read as a halving ladder: the L2 error ratio between consecutive sizes lies
in [3.5, 4.5] (check 04); the scan's spread is at most 0.02 |median| at
every size and at most 0.6 times the previous size's spread (check 01).
Exits 1 if any bound fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import numpy as np

from fbmlab import (
    DensityModel,
    FluxField,
    Grid,
    ScalarField,
    VectorField,
    flux_field,
    geometric_radii,
    neumann_solve,
    scan,
)
from fbmlab.fields import trapezoid_weights

MMS_RATIO = (3.5, 4.5)
SPREAD_OF_MEDIAN = 0.02
SPREAD_FACTOR = 0.6


def manufactured_error(n: int) -> float:
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (n, n))
    x, y = grid.node_mesh()
    phi = np.cos(np.pi * x) * np.cos(np.pi * y)
    load = np.stack(
        [
            -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        ]
    )
    flux = FluxField(VectorField(grid, load), (0.0, 0.0), 1.0)
    g = neumann_solve(flux, tol=1e-10)
    w = trapezoid_weights(grid.node_shape)
    diff = g.potential.values - phi
    return float(np.sqrt(grid.h**2 * np.sum(w * diff**2)))


def halfplane_constancy(n: int) -> tuple[float, float]:
    grid = Grid((-1.0,) * 3, (1.0,) * 3, (n,) * 3)
    model = DensityModel(kind="linear")
    u = ScalarField(grid, np.maximum(grid.node_mesh()[2], 0.0))
    g = neumann_solve(flux_field(u, model, (0.0, 0.0, 0.0)))
    rep = scan(
        u, model, 1.0, (0.0, 0.0, 0.0), geometric_radii(0.15, 0.4, 1.1), g, level=0.0
    )
    med = float(np.median(rep.a))
    return med, float(np.max(np.abs(rep.a - med)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--mms-sizes", type=int, nargs="+", default=[32, 64, 128, 256],
        help="cells per side for the manufactured-potential study (2d)",
    )
    ap.add_argument(
        "--halfplane-sizes", type=int, nargs="+", default=[48, 96],
        help="cells per side for the half-plane scan study (3d)",
    )
    args = ap.parse_args()

    ok = True
    print("manufactured potential recovery (2d, box [-1,1]^2)")
    print(f"{'n':>5} {'h':>10} {'L2 error':>12} {'ratio':>7} {'time':>7}")
    prev = None
    for n in args.mms_sizes:
        t0 = perf_counter()
        err = manufactured_error(n)
        ratio = "" if prev is None else f"{prev / err:7.3f}"
        print(f"{n:>5} {2.0 / n:>10.5f} {err:>12.3e} {ratio:>7} {perf_counter() - t0:6.1f}s")
        if prev is not None:
            ok &= MMS_RATIO[0] <= prev / err <= MMS_RATIO[1]
        prev = err

    print()
    print("half-plane scan constancy (3d, radii 0.15..0.4)")
    print(f"{'n':>5} {'h':>10} {'median A':>10} {'max dev':>12} {'rel':>9} {'time':>7}")
    prev = None
    for n in args.halfplane_sizes:
        t0 = perf_counter()
        med, dev = halfplane_constancy(n)
        print(
            f"{n:>5} {2.0 / n:>10.5f} {med:>10.5f} {dev:>12.3e} "
            f"{dev / abs(med):>9.2e} {perf_counter() - t0:6.1f}s"
        )
        ok &= dev <= SPREAD_OF_MEDIAN * abs(med)
        if prev is not None:
            ok &= dev <= SPREAD_FACTOR * prev
        prev = dev
    if not ok:
        print("a bound of acceptance check 01 or 04 fails", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
