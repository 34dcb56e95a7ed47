import ast
import math
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from sud_estimate import characters
from sud_estimate.characters import (
    QuadratureRule,
    TorusPoint,
    _alternant,
    _eigenvalue_matrix,
    branching_defect,
    haar_quadrature,
    min_resolution,
    orthogonality_defect,
    quadrature_risk,
    random_torus_points,
)
from sud_estimate.errors import EmptySupportError, ResolutionError
from sud_estimate.partitions import enumerate_partitions, pieri_add
from sud_estimate.risk import exact_risk
from sud_estimate.weights import WeightVector, product_weights, scheme_weights, uniform_weights


def su2_character(k: int, theta: float) -> float:
    """sin((k+1) theta) / sin(theta), the closed form for d=2."""
    if abs(math.sin(theta)) < 1e-12:
        return float(k + 1)
    return math.sin((k + 1) * theta) / math.sin(theta)


def character(parts, points):
    """chi_lambda = a_(lambda+delta) / a_delta at points where no eigenvalues collide."""
    z = np.array([p.eigenvalues for p in points])
    return _alternant(parts, z) / _alternant((0,) * len(parts), z)


def determinant_alternant(parts, z):
    """The reference: one LU determinant per row of ``z``."""
    exponents = np.array(parts) + np.arange(len(parts) - 1, -1, -1)
    return np.linalg.det(z[:, :, None] ** exponents)


class TestAlternant:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_determinant_at_random_points(self, d):
        rng = np.random.default_rng(100 + d)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(40, d)))
        top = 4 if d <= 4 else 2
        for n in range(top + 1):
            for parts in enumerate_partitions(d, n):
                got = _alternant(parts, z)
                want = determinant_alternant(parts, z)
                assert np.max(np.abs(got - want)) <= 1e-12 * math.factorial(d), parts

    @pytest.mark.parametrize("angles", [(0.0, 0.0, 0.0), (0.7, 0.7, -1.9)])
    def test_vanishes_where_eigenvalues_collide(self, angles):
        # the identity node, and a node whose first two eigenvalues are equal
        # (the others are e^(-1.9i) and e^(0.5i))
        z = np.exp(1j * np.array([angles + (-sum(angles),)]))
        for parts in [(0, 0, 0, 0), (3, 1, 0, 0), (2, 2, 1, 0)]:
            assert abs(_alternant(parts, z)[0]) <= 1e-12

    def test_matches_determinant_on_quadrature_grid(self):
        z = haar_quadrature(3, 9).eigenvalues
        for n in range(5):
            for parts in enumerate_partitions(3, n):
                got = _alternant(parts, z)
                want = determinant_alternant(parts, z)
                assert np.max(np.abs(got - want)) <= 1e-12 * math.factorial(3), parts


class TestTorusPoint:
    def test_eigenphases_sum_to_zero(self):
        p = TorusPoint((0.3, -1.2, 2.5))
        assert len(p.eigenvalues) == 4
        assert math.fsum(p.eigenphases) == pytest.approx(0.0, abs=1e-15)

    def test_eigenvalue_product_is_one(self):
        for p in random_torus_points(3, 20, seed=7):
            prod = np.prod(p.eigenvalues)
            assert abs(prod - 1.0) < 1e-12

    def test_random_points_deterministic(self):
        a = random_torus_points(3, 5, seed=11)
        b = random_torus_points(3, 5, seed=11)
        c = random_torus_points(3, 5, seed=12)
        assert [p.angles for p in a] == [p.angles for p in b]
        assert [p.angles for p in a] != [p.angles for p in c]
        assert all(0.0 <= t < 2.0 * math.pi for p in a for t in p.angles)
        with pytest.raises(ValueError, match="seed"):
            random_torus_points(3, 5, seed=-11)  # would repeat seed 11

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected_where_it_enters(self, bad):
        with pytest.raises(ValueError, match="angle 1"):
            TorusPoint((0.3, bad))
        # a lazy sample meets the bad angle inside the defect computation
        sample = (TorusPoint(angles) for angles in [(0.1, 0.2), (0.3, bad)])
        with pytest.raises(ValueError, match="angle 1"):
            branching_defect(3, 3, sample)


class TestSchurEval:
    def test_su2_closed_form(self):
        for theta in (0.17, 1.3, 2.9):
            for k in range(7):
                got = character((k, 0), [TorusPoint((theta,))])[0]
                assert got.imag == pytest.approx(0.0, abs=1e-10)
                assert got.real == pytest.approx(su2_character(k, theta), abs=1e-10)

    def test_box_character_is_eigenvalue_sum(self):
        points = random_torus_points(3, 10, seed=3)
        got = character((1, 0, 0), points)
        want = [sum(point.eigenvalues) for point in points]
        assert got == pytest.approx(want, abs=1e-10)

    def test_equivalent_labels_agree_pointwise(self):
        points = random_torus_points(3, 10, seed=5)
        assert character((2, 1, 0), points) == pytest.approx(
            character((3, 2, 1), points), abs=1e-9
        )

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            haar_quadrature(2, 8).alternant((2, 1, 0))


class TestQuadrature:
    def test_total_mass_is_one(self):
        for d, resolution in [(2, 8), (2, 31), (3, 12), (4, 9)]:
            rule = haar_quadrature(d, resolution)
            assert math.fsum(rule.weights) == pytest.approx(1.0, abs=1e-12)

    def test_refuses_resolution_below_measure_degree(self):
        with pytest.raises(ResolutionError, match="resolution 4 cannot even normalise"):
            haar_quadrature(3, 4)

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            haar_quadrature(1, 8)

    def test_min_resolution_value(self):
        assert min_resolution(2, 5) == 17
        assert min_resolution(3, 0) == 9

    @pytest.mark.parametrize(
        "d, n", [(2, 3), (2, 8), (2, 12), (3, 6), (3, 9), (3, 12), (4, 10), (4, 11)]
    )
    def test_min_resolution_is_bandwidth_plus_one(self, d, n):
        bandwidth = 2 * (n + d + 1)
        assert min_resolution(d, n) == bandwidth + 1
        w = product_weights(d, n)
        want = float(exact_risk(d, n, w).risk)
        got = quadrature_risk(d, n, w, rule=haar_quadrature(d, min_resolution(d, n)))
        assert got == pytest.approx(want, abs=1e-12)
        with pytest.raises(ResolutionError):
            quadrature_risk(d, n, w, rule=haar_quadrature(d, min_resolution(d, n) - 1))

    @pytest.mark.parametrize("d, resolution", [(2, 12), (3, 13), (4, 11)])
    def test_one_regular_node_per_orbit(self, d, resolution):
        # the nodes are the increasing d-subsets of Z_M summing to 0 mod M,
        # counted here by brute force over all of Z_M^d
        rule = haar_quadrature(d, resolution)
        subsets = {
            k for k in product(range(resolution), repeat=d)
            if sum(k) % resolution == 0 and all(a < b for a, b in zip(k, k[1:]))
        }
        phases = np.angle(rule.eigenvalues) * resolution / (2.0 * math.pi)
        indices = np.rint(phases).astype(int) % resolution
        assert np.max(np.abs(phases - np.rint(phases))) < 1e-9
        assert len(rule.weights) == len(subsets)
        assert {tuple(sorted(k)) for k in indices.tolist()} == subsets
        # regular: no two eigenvalues closer than one grid step, so
        # |a_delta| = prod |z_i - z_j| is at least that step to the d(d-1)/2
        step = 2.0 * math.sin(math.pi / resolution)
        gaps = np.abs(rule.eigenvalues[:, :, None] - rule.eigenvalues[:, None, :])
        assert np.min(gaps + 4.0 * np.eye(d)) > step * (1.0 - 1e-12)
        floor = step ** (d * (d - 1) // 2) * (1.0 - 1e-9)
        assert np.min(np.abs(rule.alternant((0,) * d))) > floor
        assert np.min(rule.weights) > floor**2 * rule.cell * (1.0 - 1e-9)

    def test_node_counts_at_the_old_memory_wall(self):
        # C(M, d) / M nodes, as gcd(d, M) = 1; d=5 first, so a tensor grid
        # (29^4 nodes) fails here before d=6 would build 31^5 of them
        for d, resolution, nodes in [(5, 29, 4_095), (6, 31, 23_751)]:
            rule = haar_quadrature(d, resolution)
            assert len(rule.weights) == nodes == math.comb(resolution, d) // resolution
            assert math.fsum(rule.weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d, resolution", [(3, 13), (4, 11)])
    def test_orbit_rule_regroups_the_tensor_grid(self, d, resolution):
        # d! times every orbit-rule sum is the sum over the tensor grid of
        # resolution^(d-1) nodes; compared at the scale of the integrals
        ticks = 2.0 * math.pi * np.arange(resolution) / resolution
        grids = np.meshgrid(*([ticks] * (d - 1)), indexing="ij")
        grid = _eigenvalue_matrix(np.stack([g.ravel() for g in grids], axis=1))
        rule = haar_quadrature(d, resolution)
        fold = math.factorial(d)
        scale = fold * resolution ** (d - 1)

        def same_sum(on_orbits, on_grid):
            assert abs(fold * on_orbits - on_grid) <= 1e-13 * scale

        delta = (0,) * d
        same_sum(np.sum(np.abs(rule.alternant(delta)) ** 2),
                 np.sum(np.abs(_alternant(delta, grid)) ** 2))
        labels = [p for n in range(4) for p in enumerate_partitions(d, n)]
        for a in labels:
            for b in labels:
                same_sum(np.vdot(rule.alternant(b), rule.alternant(a)),
                         np.vdot(_alternant(b, grid), _alternant(a, grid)))
        # the product scheme's first level with two labels, (5,2,1) and
        # (4,3,1) at d=3; the regrouping needs no bandwidth margin
        w = product_weights(d, d * (d + 1) // 2 + 2)
        norm = math.sqrt(float(w.norm_sq))
        coeff = {tuple(p): v / w.denominator / norm
                 for p, v in zip(w.table.tolist(), w.numerators.tolist())}
        assert len(coeff) == 2
        orbit_total = sum(c * rule.alternant(p) for p, c in coeff.items())
        grid_total = sum(c * _alternant(p, grid) for p, c in coeff.items())
        same_sum(np.sum(np.abs(orbit_total * rule.eigenvalues.sum(axis=1)) ** 2),
                 np.sum(np.abs(grid_total * grid.sum(axis=1)) ** 2))

    def test_alternants_cached(self):
        rule = haar_quadrature(2, 16)
        first = rule.alternant((2, 0))
        second = rule.alternant((2, 0))
        assert first is second

    def test_inner_products_match_equivalence(self):
        rule = haar_quadrature(2, 24)
        assert rule.inner_product((3, 0), (3, 0)) == pytest.approx(1.0, abs=1e-12)
        assert rule.inner_product((4, 1), (3, 0)) == pytest.approx(1.0, abs=1e-12)
        assert abs(rule.inner_product((3, 0), (2, 0))) < 1e-12
        assert abs(rule.inner_product((4, 0), (2, 2))) < 1e-12

    def test_orthogonality_defect_small(self):
        assert orthogonality_defect(2, 8) < 1e-8
        assert orthogonality_defect(3, 4) < 1e-8

    def test_orthogonality_defect_holds_one_stacked_copy(self):
        # with the rule's cache warm, the labels' alternants are stacked once
        # (conjugated in place) and nothing of that size is allocated again
        rule = haar_quadrature(4, min_resolution(4, 8))
        orthogonality_defect(4, 8, rule=rule)
        block = sum(a.nbytes for a in rule._alternants.values())
        tracemalloc.start()
        try:
            defect = orthogonality_defect(4, 8, rule=rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect < 1e-12
        assert peak < 1.25 * block + 2**18, (peak, block)

    def test_aliasing_at_divisor_resolution(self):
        # |chi_(6,0)|^2 |Delta|^2 / 2 = 2 - 2 cos(14 theta): the rule errs
        # exactly when the resolution divides 14
        exact = haar_quadrature(2, 8)
        assert exact.inner_product((6, 0), (6, 0)) == pytest.approx(1.0, abs=1e-12)
        aliased = haar_quadrature(2, 7)  # chi vanishes on that whole grid
        assert abs(aliased.inner_product((6, 0), (6, 0)) - 1.0) > 0.5


# eigenphases 0.9 and 0.9 + 1.25e-5: a pair of eigenvalues 1.25e-5 apart
NEAR_CONFLUENT = TorusPoint((0.9, 0.9 + 1.25e-5, 2.3))


def min_pair_gap(point: TorusPoint) -> float:
    """The smallest distance between two eigenvalues of ``point``."""
    return min(abs(a - b) for a, b in combinations(point.eigenvalues, 2))


class TestPieriResidual:
    """The branching rule, checked pointwise by :func:`branching_defect`."""

    @pytest.mark.parametrize(
        "parts", [(3, 0), (4, 2), (2, 1, 0), (3, 3, 1), (2, 1, 1, 0)]
    )
    def test_branching_identity_pointwise(self, parts):
        points = random_torus_points(len(parts), 25, seed=42)
        assert branching_defect(len(parts), sum(parts), points) < 1e-9

    def test_branching_identity_near_confluence(self):
        # two eigenvalues 1.25e-5 apart, where an alternant ratio would lose
        # about four digits
        point = NEAR_CONFLUENT
        assert min_pair_gap(point) == pytest.approx(1.25e-5, rel=1e-6)
        assert branching_defect(4, 4, [point]) < 1e-11

    def test_batched_residual_matches_pointwise_evaluation(self):
        # the sample includes a point with two eigenvalues 1.25e-5 apart
        points = random_torus_points(4, 99, seed=290127639) + [NEAR_CONFLUENT]
        assert min_pair_gap(points[-1]) == pytest.approx(1.25e-5, rel=1e-6)
        batched = characters._sample_eigenvalues(points, 4)
        for n in range(5):
            for parts in enumerate_partitions(4, n):
                children = [child for _, child in pieri_add(parts)]
                pointwise = 0.0
                for p in points:
                    z = np.array([p.eigenvalues])
                    lhs = _alternant(parts, z)[0] * sum(p.eigenvalues)
                    rhs = sum(_alternant(c, z)[0] for c in children)
                    pointwise = max(pointwise, abs(lhs - rhs))
                assert characters._branching_deviation(parts, batched, {}) == pytest.approx(
                    pointwise, abs=1e-14
                )

    def test_rejects_points_of_another_rank(self):
        with pytest.raises(ValueError):
            branching_defect(3, 3, random_torus_points(4, 3))
        assert branching_defect(3, 3, []) == 0.0

    @pytest.mark.parametrize("d, max_level", [(2, 6), (3, 6), (4, 6), (5, 3)])
    def test_branching_defect_is_the_largest_residual(self, d, max_level):
        # each label on its own, with no alternant kept from another label
        points = random_torus_points(d, 30, seed=5)
        z = characters._sample_eigenvalues(points, d)
        assert branching_defect(d, max_level, points) == max(
            characters._branching_deviation(parts, z, {})
            for n in range(max_level + 1)
            for parts in enumerate_partitions(d, n)
        )
        assert branching_defect(d, max_level, []) == 0.0
        with pytest.raises(ValueError):
            branching_defect(d + 1, max_level, points)


class TestQuadratureRisk:
    def test_matches_exact_risk_d2(self):
        for n in (3, 4, 5, 8):
            w = product_weights(2, n)
            want = float(exact_risk(2, n, w).risk)
            assert quadrature_risk(2, n, w) == pytest.approx(want, abs=1e-10)

    def test_matches_exact_risk_uniform(self):
        w = uniform_weights(2, 5)
        assert quadrature_risk(2, 5, w) == pytest.approx(0.25, abs=1e-10)

    def test_matches_exact_risk_d3(self):
        w = product_weights(3, 6)
        want = float(exact_risk(3, 6, w).risk)
        assert quadrature_risk(3, 6, w) == pytest.approx(want, abs=1e-10)

    def test_empty_scheme_refused(self):
        w = WeightVector(2, 5, np.zeros((0, 2), dtype=np.int64), [])
        with pytest.raises(EmptySupportError, match="no nonzero coefficient at level 5 for d=2"):
            quadrature_risk(2, 5, w)

    def test_low_resolution_refused_with_suggestion(self):
        # the message names the bandwidth, which the resolution must exceed
        w = product_weights(2, 5)
        assert min_resolution(2, 5) == 17
        with pytest.raises(ResolutionError, match="inside the level-5 integrand bandwidth 16"):
            quadrature_risk(2, 5, w, rule=haar_quadrature(2, 6))

    def test_resolution_just_above_bandwidth_is_exact(self):
        # bandwidth at d=2, N=5 is 16, so 17 already suffices
        w = product_weights(2, 5)
        want = float(exact_risk(2, 5, w).risk)
        assert quadrature_risk(2, 5, w, rule=haar_quadrature(2, 17)) == pytest.approx(
            want, abs=1e-12
        )
        with pytest.raises(ResolutionError):
            quadrature_risk(2, 5, w, rule=haar_quadrature(2, 16))

    @pytest.mark.parametrize("d, n_max, pairs", [(4, 10, 12), (5, 3, 3)])
    def test_matches_exact_risk_every_feasible_scheme(self, d, n_max, pairs):
        compared = 0
        for scheme in ("product", "uniform", "optimal"):
            for n in range(1, n_max + 1):
                try:
                    w = scheme_weights(scheme, d, n)
                except EmptySupportError:
                    continue
                want = float(exact_risk(d, n, w).risk)
                assert quadrature_risk(d, n, w) == pytest.approx(want, abs=1e-12)
                compared += 1
        assert compared == pairs

    def test_matches_exact_risk_optimal_at_production_size(self):
        w = scheme_weights("optimal", 3, 40)
        want = float(exact_risk(3, 40, w).risk)
        assert quadrature_risk(3, 40, w) == pytest.approx(want, abs=1e-13)

    def test_weight_metadata_must_match(self):
        w = product_weights(2, 5)
        with pytest.raises(ValueError):
            quadrature_risk(2, 6, w)
        with pytest.raises(ValueError):
            quadrature_risk(3, 5, w)


def test_quadrature_rule_is_reusable_across_levels():
    # one rule at high resolution serves every label below its bandwidth
    rule = haar_quadrature(2, 40)
    assert isinstance(rule, QuadratureRule)
    for n in range(5):
        for parts in enumerate_partitions(2, n):
            assert rule.inner_product(parts, parts) == pytest.approx(1.0, abs=1e-12)


def test_oracle_imports_nothing_from_box_removal():
    # the oracle may share partition enumeration with the exact engine, but
    # no code from risk, spectral or asymptotics; and it divides by nothing,
    # so no linear-algebra routine (an LU determinant, an inverse) may enter
    path = Path(__file__).resolve().parent.parent / "src" / "sud_estimate" / "characters.py"
    source = path.read_text()
    forbidden = {"risk", "spectral", "asymptotics", "linalg"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            assert node.attr != "linalg", ast.dump(node)
            continue
        if isinstance(node, ast.ImportFrom):
            modules = [(node.module or "").split(".")[-1]] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        assert forbidden.isdisjoint(modules), ast.dump(node)
