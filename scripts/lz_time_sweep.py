#!/usr/bin/env python3
"""Sweep the total time of the avoided-crossing drive.

Runs the bundled two-level scenario at log-spaced total times and prints
one row per T.  The condition ratio column is exactly proportional to
1/T, so the product ratio * T printed at the end is constant to machine
precision; the infidelity falls much faster through the intermediate
regime (the diabatic transition probability is exponentially small in T)
before settling onto the oscillatory 1/T^2 tail.
"""

import argparse
import pathlib

import numpy as np

from adiakit.cli import sweep_total_time

SCENARIO = pathlib.Path(__file__).parent / "scenarios" / "landau_zener.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-min", type=float, default=4.0)
    ap.add_argument("--t-max", type=float, default=1024.0)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--out", default=None, help="also write the CSV here")
    args = ap.parse_args()

    rows = sweep_total_time(str(SCENARIO), args.t_min, args.t_max,
                            args.points, "log", out=args.out)
    print(f"{'T':>10}  {'infidelity':>12}  {'ratio':>10}  satisfied")
    for T, infid, ratio, ok in rows:
        print(f"{T:10.3f}  {infid:12.4e}  {ratio:10.4f}  {ok}")

    products = [ratio * T for T, _, ratio, _ in rows]
    print(f"\nratio * T: {min(products):.6f} .. {max(products):.6f} "
          "(constant: the ratio is exactly proportional to 1/T)")
    drop = rows[0][1] / max(rows[-1][1], 1e-300)
    print(f"infidelity falls by a factor {drop:.2e} "
          f"while T grows {rows[-1][0] / rows[0][0]:.0f}-fold")
    first_ok = next((T for T, _, _, ok in rows if ok), None)
    print(f"condition ratio < 1 from T = {first_ok}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
