#!/usr/bin/env python3
"""How much the gap-product scheme concedes to the spectral optimum.

Per level: the exact product risk, the full- and strict-support optima, and
both rates scaled by N^2.  Ends with extrapolated constants for the two
routes; for d=2 the optimum follows sin^2(pi/(N+3)) (the incidence form is
a path graph there), so its N^2 rate tends to pi^2.

    python3 scripts/optimal_gap.py -d 2 -N 3:41
    python3 scripts/optimal_gap.py -d 3 -N 6:20 --extrapolate 30:120:10
"""

import argparse
import math

from sud_estimate.cli import parse_range
from sud_estimate.risk import exact_risk, fit_constant, RiskPoint
from sud_estimate.spectral import build_incidence, max_eigenpair, optimality_gap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-d", type=int, default=2)
    parser.add_argument("-N", dest="levels", type=parse_range, default="3:25",
                        metavar="A:B[:STEP]")
    parser.add_argument("--extrapolate", type=parse_range, default="81:401:20",
                        metavar="A:B[:STEP]",
                        help="levels for the N^2 rate fit of the optimum (at least two)")
    args = parser.parse_args()
    if len(args.extrapolate) < 2:
        parser.error("--extrapolate needs at least two levels to fit")

    closed_form = args.d == 2
    header = "   N    product    optimal     strict   N^2 opt"
    print(f"== d={args.d}")
    print(header + ("   sin^2(pi/(N+3))" if closed_form else ""))
    for n in args.levels:
        g = optimality_gap(args.d, n)
        product = f"{float(g.risk_product):.6f}" if g.risk_product is not None else "     --- "
        strict = f"{float(g.risk_strict):.6f}" if g.risk_strict is not None else "     --- "
        optimal = float(g.risk_full)
        row = f"  {n:4d}  {product}  {optimal:.6f}  {strict}  {n * n * optimal:8.4f}"
        if closed_form:
            row += f"   {math.sin(math.pi / (n + 3)) ** 2:.6f}"
        print(row)

    points = []
    # the fit reads the full-support optimum only: one solve and its exact risk per level
    for n in args.extrapolate:
        structure = build_incidence(args.d, n)
        full = max_eigenpair(structure).eigvec
        points.append(RiskPoint(n, exact_risk(args.d, n, full, structure).risk))
    fit = fit_constant(points)
    print(f"\n   optimal-rate fit on N={fit.window[0]}..{fit.window[1]}: "
          f"N^2 risk -> {fit.constant:.4f}"
          + (f"   (pi^2 = {math.pi ** 2:.4f})" if closed_form else ""))


if __name__ == "__main__":
    main()
