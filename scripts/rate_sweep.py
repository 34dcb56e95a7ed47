#!/usr/bin/env python3
"""Sweep the estimation risk across N for one or more schemes.

Prints a per-level table and the fitted N^2 rate constant for each scheme,
optionally dumping one CSV per scheme.  Typical runs:

    python3 scripts/rate_sweep.py -d 2 -N 20:200:10
    python3 scripts/rate_sweep.py -d 3 -N 60:150:10 --schemes product,optimal
    python3 scripts/rate_sweep.py -d 2 -N 10:60 --schemes uniform --exact
"""

import argparse
from pathlib import Path

from sud_estimate.cli import curve_to_csv, parse_range
from sud_estimate.risk import risk_curve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-d", type=int, default=2)
    parser.add_argument("-N", dest="levels", type=parse_range, default="20:200:10",
                        metavar="A:B[:STEP]")
    parser.add_argument("--schemes", default="product,uniform",
                        help="comma-separated scheme specs")
    parser.add_argument("--exact", action="store_true",
                        help="also print each level's exact rational risk, and fill "
                             "the CSV's numerator and denominator columns")
    parser.add_argument("--csv-dir", type=Path, default=None,
                        help="write <scheme>.csv files here")
    args = parser.parse_args()

    for scheme in args.schemes.split(","):
        curve = risk_curve(args.d, args.levels, scheme)
        print(f"== d={args.d}  scheme={scheme}")
        if curve.skipped:
            lo, hi = curve.skipped[0][0], curve.skipped[-1][0]
            print(f"   (skipped infeasible N={lo}..{hi})")
        for p in curve.points:
            exact = f"  = {p.risk}" if args.exact else ""
            print(f"   N={p.n:4d}  risk={p.risk_float:.3e}  "
                  f"N^2 risk={p.n2_risk:9.4f}{exact}")
        if curve.fit is not None:
            f = curve.fit
            print(f"   fit on N={f.window[0]}..{f.window[1]}: "
                  f"N^2 risk -> {f.constant:.4f}  (slope {f.slope:+.2f}/N, "
                  f"max residual {f.max_residual:.2e})")
        if args.csv_dir is not None:
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            out = args.csv_dir / f"{scheme.replace(':', '_')}_d{args.d}.csv"
            out.write_text(curve_to_csv(curve, args.exact))
            print(f"   wrote {out}")
        print()


if __name__ == "__main__":
    main()
