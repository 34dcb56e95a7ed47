"""Command-line interface.

Subcommands:

* ``risk``     exact risk of one scheme at one level
* ``sweep``    risk as a function of N, with its rate-constant fit
* ``constant`` closed-form rate constant, optionally with lattice estimates
* ``optimal``  leading eigenpair of the incidence form at one level
* ``verify``   cross-checks of the combinatorial engine against the
               character oracle; fails (exit 1) iff any check exceeds its
               tolerance

Reports are JSON by default (stable key order, exact rationals as
"num/den" strings) or CSV via ``--format csv``.  Exit codes: 0 success,
1 failed verification, 2 infeasible parameters (empty support or sum, a bad
scheme or weight file, an export path that cannot be written, a level whose
tables do not fit in memory), 3 numerical failure (non-convergence, refused
resolution, an exact value outside its mathematical range or a NaN or
infinity in a report).  Errors are one JSON object on stderr, except usage
errors (a bad option value, a zero range step), which argparse prints as its
usage text (exit 2).  ``sud-estimate`` ends on SIGPIPE, printing nothing more,
when the reader of its stdout closes it.
``parse_range`` and ``curve_to_csv`` are shared with the experiment scripts.
"""

from __future__ import annotations

import argparse
import collections.abc
import csv
import io
import json
import math
import sys
import time

from . import __version__
from .asymptotics import exact_constant
from .characters import (
    branching_defect,
    haar_quadrature,
    min_resolution,
    orthogonality_defect,
    quadrature_risk,
    random_torus_points,
)
from .errors import (
    ConvergenceError,
    EmptySupportError,
    NumericalInstabilityError,
    ResolutionError,
)
from .risk import (
    RiskCurve,
    _scheme_and_structure,
    exact_risk,
    expansion_diagnostics,
    risk_curve,
)
from .spectral import build_incidence, max_eigenpair, optimality_gap
from .weights import (
    _fraction_records,
    fraction_text,
    int_text,
    records_text,
    save_weights,
    scheme_weights,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


def parse_range(text: str) -> list[int]:
    """'a:b' or 'a:b:step' with both ends inclusive at either sign of step, or
    a single integer; never empty.  Every refusal is a usage error naming the range."""
    pieces = text.split(":")
    try:
        nums = [int(p) for p in pieces]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if len(nums) == 1:
        return nums
    if len(nums) > 3:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    start, end, step = nums[0], nums[1], nums[2] if len(nums) == 3 else 1
    if step == 0:
        raise argparse.ArgumentTypeError(f"zero step in range {text!r}")
    levels = range(start, end + 1 if step > 0 else end - 1, step)
    if not levels:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    try:
        return list(levels)
    except (OverflowError, MemoryError) as exc:  # more levels than an index or memory holds
        raise argparse.ArgumentTypeError(f"range {text!r} is too long") from exc


def _int_at_least(lo: int):
    """argparse type: an int >= ``lo``; the usage error names the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0; the usage error names the flag."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


_positive_float.__name__ = "float"  # a non-number still reads "invalid float value"


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "format", "no_timestamp", "command"}
    out = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, collections.abc.Sequence) and not isinstance(value, str):
            value = list(value)
        out[key] = value
    return out


def _payload(args: argparse.Namespace, command: str, body: dict) -> dict:
    out = {"version": __version__, "command": command, "config": _config_echo(args)}
    if not args.no_timestamp:
        out["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out.update(body)
    return out


def _print_json(payload: dict, key: str | None = None, records=(), name: str = "weight") -> None:
    """Print the report, or refuse it whole if it holds a NaN or an infinity.

    With ``key``, the report ends in ``key``: ``{"parts": parts, name: text}`` for each
    ``(parts, text)`` of ``records``, streamed by ``records_text`` once the rest is checked.
    """
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalInstabilityError(
            f"{payload['command']}: non-finite number in the report ({exc})"
        ) from exc
    if key is not None:  # text ends in "\n}"
        sys.stdout.write(f'{text[:-2]},\n  "{key}": ')
        sys.stdout.writelines(records_text(records, name, 1))
        text = "\n}"
    print(text)


def _csv_rows(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def curve_to_csv(curve: RiskCurve, exact: bool) -> str:
    """CSV rows (N, risk_num, risk_den, risk_float, N2_risk), header included.

    The exact numerator and denominator columns are left empty unless ``exact``.
    """
    rows = []
    for p in curve.points:
        num, den = (int_text(p.risk.numerator), int_text(p.risk.denominator)) if exact else ("", "")
        rows.append([p.n, num, den, repr(p.risk_float), repr(p.n2_risk)])
    return _csv_rows(["N", "risk_num", "risk_den", "risk_float", "N2_risk"], rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_risk(args) -> int:
    if args.terms and args.format == "csv":
        raise ValueError("--terms has no CSV form: the CSV report is one row per level")
    w, structure = _scheme_and_structure(args.scheme, args.d, args.n, tol=args.tol)
    breakdown = exact_risk(args.d, args.n, w, structure)
    body = {
        "risk": fraction_text(breakdown.risk),
        "risk_float": float(breakdown.risk),
        "n2_risk": args.n * args.n * float(breakdown.risk),
        "numerator": fraction_text(breakdown.numerator),
        "norm_sq": fraction_text(breakdown.norm_sq),
        "support_size": len(w.numerators),
    }
    if args.format == "csv":
        print(
            _csv_rows(
                ["d", "N", "scheme", "risk_num", "risk_den", "risk_float"],
                [[args.d, args.n, args.scheme,
                  int_text(breakdown.risk.numerator), int_text(breakdown.risk.denominator),
                  repr(float(breakdown.risk))]],
            ),
            end="",
        )
    elif args.terms:
        _print_json(_payload(args, "risk", body), "numerator_terms", breakdown.term_records(),
                    "value")
    else:
        _print_json(_payload(args, "risk", body))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    curve = risk_curve(args.d, args.n, args.scheme, workers=args.workers)
    if not curve.points:
        raise EmptySupportError(
            f"no feasible level in {min(args.n)}..{max(args.n)} for "
            f"scheme {args.scheme!r} at d={args.d}"
        )
    if args.format == "csv":
        print(curve_to_csv(curve, args.exact), end="")
        return EXIT_OK
    rows = []
    for p in curve.points:
        row = {"N": p.n, "risk_float": p.risk_float, "n2_risk": p.n2_risk}
        if args.exact:
            row["risk"] = fraction_text(p.risk)
        rows.append(row)
    body = {
        "scheme": curve.scheme,
        "rows": rows,
        "skipped": [{"N": n, "reason": reason} for n, reason in curve.skipped],
    }
    if curve.fit is not None:
        body["fit"] = {
            "constant": curve.fit.constant,
            "slope": curve.fit.slope,
            "window": list(curve.fit.window),
            "max_residual": curve.fit.max_residual,
        }
    _print_json(_payload(args, "sweep", body))
    return EXIT_OK


def _cmd_constant(args) -> int:
    levels = args.riemann or []
    report = exact_constant(args.d, riemann_levels=levels)
    if args.format == "csv":
        rows = [["exact", "", repr(float(report.exact))]]
        rows += [["riemann", n, repr(float(v))] for n, v in report.riemann_estimates]
        print(_csv_rows(["kind", "N", "value"], rows), end="")
        return EXIT_OK
    body = {
        "d": args.d,
        "exact": fraction_text(report.exact),
        "float": float(report.exact),
        "numerator_integral": fraction_text(report.numerator_integral),
        "denominator_integral": fraction_text(report.denominator_integral),
        "riemann": [
            {"N": n, "value": float(v), "exact": fraction_text(v)}
            for n, v in report.riemann_estimates
        ],
    }
    _print_json(_payload(args, "constant", body))
    return EXIT_OK


def _cmd_optimal(args) -> int:
    gap = optimality_gap(args.d, args.n, tol=args.tol)
    result = getattr(gap, args.support)
    if result is None:
        raise EmptySupportError(f"no {args.support} partition at level {args.n} for d={args.d}")
    w = result.eigvec
    if args.export:
        save_weights(w, args.export)
    records = _fraction_records(w.table, w.numerators.tolist(), w.denominator)
    if args.format == "csv":
        rows = ([" ".join(map(str, parts)), text] for parts, text in records)
        print(_csv_rows(["parts", "weight"], rows), end="")
        return EXIT_OK
    risk = getattr(gap, f"risk_{args.support}")
    body = {
        "support": args.support,
        "eigmax": result.eigmax,
        "optimal_risk": float(risk),
        "n2_optimal_risk": float(args.n * args.n * risk),
        "iterations": result.iterations,
        "residual": result.residual,
        "full_optimal_risk": float(gap.risk_full),
        "strict_optimal_risk": None if gap.risk_strict is None else float(gap.risk_strict),
        "product_risk": fraction_text(gap.risk_product) if gap.risk_product is not None else None,
        "product_gap": (None if gap.risk_product is None
                        else float(gap.risk_product - gap.risk_full)),
    }
    _print_json(_payload(args, "optimal", body), "coefficients", records)
    return EXIT_OK


def _verify_checks(args) -> list[dict]:
    checks = []

    def record(name: str, error: float, tolerance: float):
        checks.append(
            {
                "name": name,
                "max_error": error,
                "tolerance": tolerance,
                "pass": bool(error <= tolerance),
            }
        )

    rule = haar_quadrature(args.d, min_resolution(args.d, args.n_max))
    ones = rule.eigenvalues[:, 0] * 0 + 1.0
    record("haar-normalization", abs(rule.integrate(ones) - 1.0), 1e-12)

    ortho_level = min(args.n_max, 8)
    record(
        "character-orthogonality",
        orthogonality_defect(args.d, ortho_level, rule=rule),
        1e-8,
    )

    points = random_torus_points(args.d, args.points, seed=args.seed)
    record("branching-pointwise", branching_defect(args.d, min(args.n_max, 6), points), 1e-9)

    worst = 0.0
    for n in range(1, args.n_max + 1):  # level by level: the rule drops the levels passed
        # one box-removal structure serves every scheme build and exact risk
        structure = build_incidence(args.d, n)
        schemes = []
        for scheme in ("product", "uniform"):
            try:
                schemes.append(scheme_weights(scheme, args.d, n, structure=structure))
            except EmptySupportError:
                pass
        schemes.append(max_eigenpair(structure).eigvec)
        for w in schemes:
            exact = float(exact_risk(args.d, n, w, structure).risk)
            quad = quadrature_risk(args.d, n, w, rule=rule)
            worst = max(worst, abs(exact - quad))
    record("risk-oracle", worst, 1e-7)

    exact_identities = True
    for n in range(args.d * (args.d + 1) // 2 - 1, args.n_max + 1):
        diag = expansion_diagnostics(args.d, n)
        exact_identities &= diag.c_t == diag.c_u and diag.t1 == diag.u1
    record("expansion-identities", 0.0 if exact_identities else 1.0, 0.0)
    return checks


def _cmd_verify(args) -> int:
    checks = _verify_checks(args)
    ok = all(c["pass"] for c in checks)
    if args.format == "csv":
        rows = [
            [c["name"], repr(c["max_error"]), repr(c["tolerance"]), c["pass"]]
            for c in checks
        ]
        print(_csv_rows(["check", "max_error", "tolerance", "pass"], rows), end="")
    else:
        _print_json(_payload(args, "verify", {"checks": checks, "pass": ok}))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sud-estimate",
        description="Risk and rate analysis of coefficient schemes for SU(d) estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated_at field for byte-identical reports")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=_positive_float, default=1e-12,
                        help="relative residual tolerance of the eigensolve")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("risk", parents=[common, solver], help="exact risk of one scheme")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--scheme", default="product",
                   help="product | uniform | power:<alpha> | optimal[:support] | file:<path>")
    p.add_argument("--terms", action="store_true", help="include per-partition numerator terms")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("sweep", parents=[common], help="risk as a function of N")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-N", dest="n", type=parse_range, required=True,
                   metavar="A:B[:STEP]", help="inclusive level range")
    p.add_argument("--scheme", default="product")
    p.add_argument("--exact", action=argparse.BooleanOptionalAction, default=False,
                   help="print each level's exact rational risk beside its float")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="process count; results are identical at any setting")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("constant", parents=[common], help="closed-form rate constant")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--riemann", type=parse_range, default=None, metavar="A:B[:STEP]",
                   help="also evaluate lattice-sum estimates at these levels")
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("optimal", parents=[common, solver],
                       help="leading eigenpair of the incidence form")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--support", choices=("full", "strict"), default="full")
    p.add_argument("--export", default=None, metavar="PATH",
                   help="write the optimal coefficients as a weights JSON file")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("verify", parents=[common],
                       help="cross-check combinatorics against the character oracle")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--n-max", type=_int_at_least(1), default=8)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--points", type=_int_at_least(1), default=100,
                   help="random torus points for the pointwise branching check")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # EmptySupportError / EmptySumError and bad scheme or parameter
        # strings all mean the request itself cannot be satisfied
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        # a level whose tables do not fit in memory cannot be satisfied either
        print(json.dumps({"error": str(exc) or "out of memory", "type": "MemoryError"}),
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConvergenceError, ResolutionError, NumericalInstabilityError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    import signal  # only the console command needs it: ~1 ms off every other import

    # a closed stdout ends it on SIGPIPE, like other filters, not with verify's exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
