import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import block_diag

from sud_estimate.errors import ConvergenceError, EmptySupportError
from sud_estimate.partitions import enumerate_partitions, partition_table, removable_rows
from sud_estimate.risk import exact_risk
from sud_estimate.spectral import (
    IncidenceStructure,
    build_incidence,
    max_eigenpair,
    optimal_weights,
    optimality_gap,
)
from sud_estimate.weights import product_weights


class TestIncidence:
    def test_strict_support_example(self):
        s = build_incidence(2, 5, "strict")
        assert s.cols == ((4, 1), (3, 2))
        assert s.rows == ((6, 0), (5, 1), (4, 2), (3, 3))
        assert list(s.row_degrees()) == [0, 1, 2, 1]

    def test_full_support_row_degrees_count_removable_rows(self):
        for d, n in [(2, 6), (3, 7), (4, 9)]:
            s = build_incidence(d, n, "full")
            for parts, deg in zip(s.rows, s.row_degrees()):
                assert deg == len(removable_rows(parts))

    def test_column_degrees_count_children(self):
        s = build_incidence(3, 6, "full")
        for parts, deg in zip(s.cols, s.col_degrees()):
            distinct_rows = len(set(parts))
            assert deg == distinct_rows  # one addable row per distinct value

    def test_empty_strict_support_raises(self):
        with pytest.raises(EmptySupportError):
            build_incidence(2, 2, "strict")

    def test_bad_support_name(self):
        with pytest.raises(ValueError):
            build_incidence(2, 5, "everything")


class TestMaxEigenpair:
    def test_one_by_one_case(self):
        r = max_eigenpair(build_incidence(2, 1, "full"))
        assert r.eigmax == pytest.approx(2.0, abs=1e-12)
        assert r.optimal_risk == pytest.approx(0.5, abs=1e-12)

    def test_two_by_two_case(self):
        r = max_eigenpair(build_incidence(2, 2, "full"))
        assert r.eigmax == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-10)

    def test_d2_chain_closed_form(self):
        # full-support d=2 incidence reduces to a path graph whose top
        # eigenvalue is 4 cos^2(pi / (N+3)), so risk = sin^2(pi / (N+3))
        for n in range(1, 26):
            r = max_eigenpair(build_incidence(2, n, "full"))
            assert r.optimal_risk == pytest.approx(
                math.sin(math.pi / (n + 3)) ** 2, abs=1e-10
            )

    @pytest.mark.parametrize("n", [101, 102, 401, 402, 1001, 1002, 1999, 2000])
    def test_d2_chain_closed_form_at_large_levels(self, n):
        # one solve at the default cap, odd and even N alike
        r = max_eigenpair(build_incidence(2, n, "full"))
        assert r.eigmax == pytest.approx(4 * math.cos(math.pi / (n + 3)) ** 2, abs=1e-10)
        assert r.residual <= 1e-12 * r.eigmax

    def test_tied_blocks_give_nonnegative_certified_vector(self):
        # two identical components tie for the top eigenvalue
        block = build_incidence(2, 6, "full").matrix
        parents = partition_table(3, 7)[: 2 * block.shape[1]]
        children = partition_table(3, 8)[: 2 * block.shape[0]]
        s = IncidenceStructure(
            3, 7, "full", children, parents, block_diag([block, block]).tocsr()
        )
        cols = s.cols
        r = max_eigenpair(s)
        assert r.eigmax == pytest.approx(4 * math.cos(math.pi / 9) ** 2, abs=1e-12)
        assert len(r.eigvec.entries) == len(cols)
        assert all(v > 0 for v in r.eigvec.entries.values())
        v = np.array([float(r.eigvec.coefficient(p)) for p in cols])
        av = s.matrix.T @ (s.matrix @ v)
        assert np.linalg.norm(av - r.eigmax * v) <= 2e-12 * r.eigmax
        assert r.residual <= 1e-12 * r.eigmax

    def test_eigmax_never_exceeds_d_squared(self):
        for d, n in [(2, 9), (2, 14), (3, 8), (3, 12), (4, 11)]:
            for support in ("full", "strict"):
                r = max_eigenpair(build_incidence(d, n, support))
                assert r.eigmax <= d * d + 1e-9

    def test_residual_certificate(self):
        s = build_incidence(3, 9, "full")
        r = max_eigenpair(s, tol=1e-12)
        v = np.array([float(r.eigvec.coefficient(p)) for p in s.cols])
        v /= np.linalg.norm(v)
        av = s.matrix.T @ (s.matrix @ v)
        assert np.linalg.norm(av - r.eigmax * v) <= 2e-12 * r.eigmax
        assert r.residual <= 1e-12 * r.eigmax

    def test_eigvec_is_nonnegative_weight_vector(self):
        r = max_eigenpair(build_incidence(3, 7, "full"))
        assert all(v > 0 for v in r.eigvec.entries.values())
        assert float(r.eigvec.norm_sq) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_eigensolver(self):
        for d, n in [(2, 8), (3, 7)]:
            s = build_incidence(d, n, "full")
            dense = (s.matrix.T @ s.matrix).toarray()
            want = max(np.linalg.eigvalsh(dense))
            got = max_eigenpair(s).eigmax
            assert got == pytest.approx(want, rel=1e-12)

    def test_iteration_cap_raises_with_best_iterate(self):
        s = build_incidence(2, 10, "full")
        with pytest.raises(ConvergenceError) as info:
            max_eigenpair(s, tol=1e-12, max_iterations=2)
        best = info.value.best
        assert best is not None
        assert best.iterations == 2
        assert 0 < best.eigmax <= 4.0

    def test_rejects_nonpositive_cap_and_tolerance(self):
        s = build_incidence(2, 10, "full")
        with pytest.raises(ValueError):
            max_eigenpair(s, max_iterations=0)
        with pytest.raises(ValueError):
            max_eigenpair(s, tol=0.0)

    def test_determinism(self):
        a = max_eigenpair(build_incidence(3, 8, "full"))
        b = max_eigenpair(build_incidence(3, 8, "full"))
        assert a.eigmax == b.eigmax
        assert a.eigvec == b.eigvec


class TestOptimality:
    def test_exact_risk_of_eigvec_matches_eigenvalue(self):
        # ties the spectral route to the rational risk engine
        for d, n in [(2, 7), (2, 12), (3, 8)]:
            r = max_eigenpair(build_incidence(d, n, "full"))
            via_risk = float(exact_risk(d, n, r.eigvec).risk)
            assert via_risk == pytest.approx(r.optimal_risk, abs=1e-9)

    def test_product_never_beats_optimum(self):
        for d, lo, hi in ((2, 3, 20), (3, 6, 14)):
            for n in range(lo, hi + 1):
                g = optimality_gap(d, n)
                assert g.gap is not None
                assert g.gap >= -1e-9

    def test_strict_support_cannot_beat_full(self):
        for d, n in [(2, 7), (2, 12), (3, 9)]:
            g = optimality_gap(d, n)
            assert g.support_gap is not None
            assert g.support_gap >= -1e-9

    def test_infeasible_product_still_reports_optimum(self):
        g = optimality_gap(2, 1)
        assert g.risk_product is None
        assert g.gap is None
        assert g.risk_optimal == pytest.approx(0.5, abs=1e-12)

    def test_both_eigenpairs_returned_and_strict_vector_left_unbuilt(self):
        g = optimality_gap(3, 12)
        assert (g.full.support, g.strict.support) == ("full", "strict")
        assert g.risk_optimal_strict == g.strict.optimal_risk
        assert "eigvec" not in vars(g.strict)
        assert len(g.strict.eigvec.entries) == len(partition_table(3, 12, strict=True))
        assert "eigvec" in vars(g.strict)

    def test_optimal_weights_scheme_entry_point(self):
        w = optimal_weights(2, 6, support="strict")
        assert w.support == ((5, 1), (4, 2), (3, 3)) or len(w.entries) <= 3
        full = optimal_weights(2, 6, support="full")
        assert exact_risk(2, 6, full).risk <= exact_risk(2, 6, product_weights(2, 6)).risk

    def test_strict_optimum_beats_product_too(self):
        for n in (8, 13):
            g = optimality_gap(2, n)
            assert g.risk_optimal_strict is not None
            assert float(g.risk_product) >= g.risk_optimal_strict - 1e-9


def test_partition_order_matches_enumeration():
    s = build_incidence(3, 5, "full")
    assert list(s.cols) == enumerate_partitions(3, 5)
    assert list(s.rows) == enumerate_partitions(3, 6)


def test_import_loads_no_dense_or_sparse_linalg():
    # scipy.linalg and scipy.sparse.linalg cost several MiB and ~0.1 s per process
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, sud_estimate.cli; "
        "print(sorted(m for m in sys.modules "
        "if m in ('scipy.linalg', 'scipy.sparse.linalg')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
