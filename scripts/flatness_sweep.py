#!/usr/bin/env python3
"""Sweep the arctan slope amplitude and locate where the flatness gate flips.

The improvement-of-flatness condition 1 + 2 sup(f''/f') < 4 reduces, for
the arctan family, to alpha < 3/2; the sweep tabulates the measured
supremum against that analytic threshold and brackets the flip point by
bisection.  Exits 1 unless the bisection bracket contains 1.5.
"""

from __future__ import annotations

import argparse

import numpy as np

from fbmlab import DensityModel, flatness_report


def passes(alpha: float) -> bool:
    return flatness_report(DensityModel(kind="arctan", alpha=alpha)).passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=0.5)
    ap.add_argument("--hi", type=float, default=2.0)
    ap.add_argument("--steps", type=int, default=7)
    ap.add_argument("--tol", type=float, default=1e-6, help="bisection width")
    args = ap.parse_args()

    header = "sup f''/f'"
    print(f"{'alpha':>8} {header:>12} {'1 + 2 sup':>10} {'passed':>7}")
    for alpha in np.linspace(args.lo, args.hi, args.steps):
        rep = flatness_report(DensityModel(kind="arctan", alpha=float(alpha)))
        print(f"{alpha:>8.4f} {rep.sup_ratio:>12.6f} {rep.lhs:>10.6f} {str(rep.passed):>7}")

    lo, hi = args.lo, args.hi
    if not passes(lo) or passes(hi):
        print("\nsweep interval does not bracket the flip; skipping bisection")
        return 1
    while hi - lo > args.tol:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    print(f"\ngate flips in [{lo:.8f}, {hi:.8f}]  (analytic threshold 1.5)")
    return 0 if lo <= 1.5 <= hi else 1


if __name__ == "__main__":
    raise SystemExit(main())
