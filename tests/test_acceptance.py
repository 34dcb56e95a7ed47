"""Acceptance gate: the headline claims of the package, each at its stated
tolerance.

Every test checks one criterion end to end and records a [PASS]/[FAIL] line;
the collected lines are printed as a block in the terminal summary.  Grids
and tolerances are frozen here on purpose: loosening them should be a
deliberate, visible act.
"""

import math
import time
from fractions import Fraction

import pytest

from conftest import brute_syt, is_strict, removable_rows, weyl_dimension
from sud_estimate.asymptotics import exact_constant
from sud_estimate.characters import branching_defect, quadrature_risk, random_torus_points
from sud_estimate.errors import EmptySupportError
from sud_estimate.partitions import enumerate_partitions, pieri_add
from sud_estimate.risk import (
    exact_risk,
    expansion_diagnostics,
    risk_curve,
)
from sud_estimate.spectral import build_incidence, max_eigenpair, optimality_gap
from sud_estimate.weights import product_weights, scheme_weights, uniform_weights


@pytest.fixture
def check(request):
    def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"[{verdict}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        lines = getattr(request.config, "_acceptance_lines", None)
        if lines is None:
            lines = []
            request.config._acceptance_lines = lines
        lines.append(line)
        assert ok, line

    return _check


def test_criterion_1_golden_exact_risks(check):
    want = {
        (2, 3): Fraction(1, 2),
        (2, 4): Fraction(1, 2),
        (2, 5): Fraction(7, 26),
    }
    got = {
        (d, n): exact_risk(d, n, product_weights(d, n)).risk for d, n in want
    }
    uniform = exact_risk(2, 5, uniform_weights(2, 5)).risk
    ok = got == want and uniform == Fraction(1, 4)
    check(
        1,
        "exact small-level risks",
        ok,
        "product " + ", ".join(f"N={n}: {v}" for (_, n), v in got.items())
        + f"; uniform N=5: {uniform}",
    )


def test_criterion_2_character_oracle_agreement(check):
    start = time.monotonic()
    worst = 0.0
    compared = 0
    skipped = 0
    for d in (2, 3):
        for scheme in ("product", "uniform", "optimal"):
            for n in range(1, 13):
                try:
                    w = scheme_weights(scheme, d, n)
                except EmptySupportError:
                    skipped += 1
                    continue
                combi = float(exact_risk(d, n, w).risk)
                quad = quadrature_risk(d, n, w)
                worst = max(worst, abs(combi - quad))
                compared += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and compared == 58 and skipped == 14 and elapsed < 60.0
    check(
        2,
        "quadrature oracle within 1e-7 of the exact risk",
        ok,
        f"{compared} combinations, {skipped} infeasible, "
        f"max |diff| {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_closed_form_rate_constants(check):
    c2 = exact_constant(2).exact
    c3 = exact_constant(3).exact
    c4 = exact_constant(4).exact
    ok = c2 == 10 and 74.5 <= float(c3) <= 75.5 and 265.0 <= float(c4) <= 275.0
    check(
        3,
        "rate constants in their certified windows",
        ok,
        f"C(2)={c2}, C(3)={c3}={float(c3):.4f}, C(4)={c4}",
    )


def test_criterion_4_measured_rates(check):
    fit2 = risk_curve(2, range(100, 401, 20), "product").fit.constant
    fit3 = risk_curve(3, range(60, 151, 10), "product").fit.constant
    c3 = float(exact_constant(3).exact)
    n_risk = {
        n: n * float(exact_risk(2, n, uniform_weights(2, n)).risk) for n in (50, 100, 200, 400)
    }
    drift = [abs(v - 1.0) for v in n_risk.values()]
    uniform_first_order = (
        drift == sorted(drift, reverse=True) and drift[-1] < 0.01
    )
    # under a second-order rate N^2 * risk would level off; here it keeps
    # growing in proportion to N
    n2_growth = (400 * n_risk[400]) / (50 * n_risk[50])
    ok = (
        abs(fit2 - 10.0) <= 0.5
        and abs(fit3 - c3) <= 0.10 * c3
        and uniform_first_order
        and n2_growth > 4.0
    )
    check(
        4,
        "swept risks reproduce the constants; uniform stays first order",
        ok,
        f"fit d=2 {fit2:.4f} vs 10, d=3 {fit3:.2f} vs {c3:.2f}; "
        f"uniform N*risk at 400: {n_risk[400]:.4f}, N^2 growth x{n2_growth:.1f}",
    )


def test_criterion_5_expansion_structure(check):
    identities = True
    for d in (2, 3, 4):
        for n in range(d * (d + 1) // 2 - 1, 41):
            diag = expansion_diagnostics(d, n)
            identities &= diag.c_t == diag.c_u and diag.t1 == diag.u1
    band_ratios = {}
    for d in (2, 3):
        ratios = [
            expansion_diagnostics(d, n).c_u / Fraction(n) ** (3 * d - 1)
            for n in range(2 * d * d, 61)
        ]
        band_ratios[d] = float(max(ratios) / min(ratios))
    worst_remainder = 0.0
    for n in range(5, 201):
        diag = expansion_diagnostics(2, n)
        risk = exact_risk(2, n, product_weights(2, n)).risk
        worst_remainder = max(
            worst_remainder, abs(float(risk - (diag.u2 - diag.t2))) * n**3
        )
    ok = (
        identities
        and all(r < 2.0 for r in band_ratios.values())
        and worst_remainder <= 60.0
    )
    check(
        5,
        "expansion identities, scale bands and third-order remainder",
        ok,
        f"identities exact to N=40, c_u/N^(3d-1) spread d=2 {band_ratios[2]:.2f} "
        f"d=3 {band_ratios[3]:.2f}, max |risk-(u2-t2)|*N^3 = {worst_remainder:.1f}",
    )


def test_criterion_6_multiplicity_dominates_dimension(check):
    holds = True
    equality_as_expected = True
    checked = 0
    for d in (2, 3, 4):
        for n in range(d * (d + 1) // 2, 31):
            seen_equal = set()
            for parts in enumerate_partitions(d, n, strict=True):
                mult = brute_syt(parts)
                dim = weyl_dimension(parts)
                holds &= mult >= dim
                if mult == dim:
                    seen_equal.add(parts)
                checked += 1
            corner = (n - d + 1,) + (1,) * (d - 1)
            expected = {corner} if is_strict(corner) else set()
            equality_as_expected &= seen_equal == expected
    ok = holds and equality_as_expected
    check(
        6,
        "multiplicity >= dimension on strict partitions, equality only at the hook",
        ok,
        f"{checked} strict partitions, d<=4, N<=30",
    )


def test_criterion_7_spectral_optimum(check):
    eig1 = max_eigenpair(build_incidence(2, 1, "full")).eigmax
    eig2 = max_eigenpair(build_incidence(2, 2, "full")).eigmax
    closed_forms = (
        abs(eig1 - 2.0) <= 1e-10 and abs(eig2 - (3 + math.sqrt(5)) / 2) <= 1e-10
    )
    dominated = True
    for d, levels in ((2, range(3, 26)), (3, range(6, 15))):
        for n in levels:
            g = optimality_gap(d, n)
            dominated &= g.risk_product - g.risk_full >= -1e-9
    curve = risk_curve(2, range(81, 402, 20), "optimal")
    extrapolated = curve.fit.constant
    ok = closed_forms and dominated and abs(extrapolated - 9.87) <= 0.15
    check(
        7,
        "spectral optimum beats the product scheme and extrapolates to 9.87",
        ok,
        f"eigmax closed forms ok={closed_forms}, N^2 optimal risk -> "
        f"{extrapolated:.4f} (target 9.87 +- 0.15)",
    )


def test_criterion_8_branching_consistency(check):
    algebra = True
    total_checked = 0
    for d in (2, 3, 4):
        for n in range(0, 11):
            level_sum = 0
            for parts in enumerate_partitions(d, n):
                dim = weyl_dimension(parts)
                mult = brute_syt(parts)
                level_sum += mult * dim
                children = pieri_add(parts)
                algebra &= sum(weyl_dimension(c) for _, c in children) == d * dim
                for i, child in children:
                    algebra &= i in removable_rows(child)
                if n:
                    algebra &= mult == sum(
                        brute_syt(parts[:i - 1] + (parts[i - 1] - 1,) + parts[i:])
                        for i in removable_rows(parts)
                    )
                total_checked += 1
            algebra &= level_sum == d**n
    worst = 0.0
    for d in (2, 3):
        points = random_torus_points(d, 100, seed=20240801)
        worst = max(worst, branching_defect(d, 4, points))
    ok = algebra and worst <= 1e-9
    check(
        8,
        "branching rules consistent, combinatorially and pointwise",
        ok,
        f"{total_checked} partitions checked algebraically; "
        f"max alternant residual {worst:.1e} at 100 torus points",
    )
