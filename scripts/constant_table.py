#!/usr/bin/env python3
"""Rate constants three ways: closed form, lattice sums, measured sweeps.

For each dimension the table shows the exact constant C(d), lattice-sum
approximations at increasing levels (exact rationals, printed as floats,
converging like 1/N), and the constant fitted from actual risk sweeps of the
gap-product scheme.  All three columns must agree for the package to be
telling a consistent story.

    python3 scripts/constant_table.py
    python3 scripts/constant_table.py --max-d 4 --riemann 200,800,3200
"""

import argparse

from sud_estimate.asymptotics import exact_constant
from sud_estimate.risk import risk_curve

# fit windows chosen so the sweep stays fast while the 1/N remainder is
# already small
FIT_WINDOWS = {2: range(100, 401, 20), 3: range(60, 151, 10), 4: range(60, 121, 10)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=3)
    parser.add_argument("--riemann", default="200,800,3200",
                        help="comma-separated lattice levels")
    args = parser.parse_args()
    levels = [int(x) for x in args.riemann.split(",")]

    for d in range(2, args.max_d + 1):
        report = exact_constant(d, levels)
        value = float(report.exact)
        print(f"== d={d}")
        print(f"   exact            C({d}) = {report.exact} = {value:.6f}")
        print(f"   integrals        numerator {report.numerator_integral}, "
              f"denominator {report.denominator_integral}")
        for n, exact_est in report.riemann_estimates:
            est = float(exact_est)
            rel = (est - value) / value
            print(f"   lattice N={n:<6d} {est:.6f}   ({rel:+.2%})")
        window = FIT_WINDOWS.get(d)
        if window is not None:
            fit = risk_curve(d, window, "product").fit
            rel = (fit.constant - value) / value
            print(f"   sweep  N={window[0]}..{window[-1]}  "
                  f"{fit.constant:.6f}   ({rel:+.2%})")
        print()


if __name__ == "__main__":
    main()
