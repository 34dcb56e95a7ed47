import ast
import dataclasses
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import numpy as np
import pytest

from sud_estimate.errors import ConvergenceError, EmptySupportError
from conftest import dense, removable_rows
from sud_estimate.partitions import enumerate_partitions, partition_table
from sud_estimate.risk import BoxMatrix, IncidenceStructure, exact_risk
from sud_estimate.spectral import (
    _DEGREE,
    _KEPT,
    _cut,
    build_incidence,
    max_eigenpair,
    optimal_weights,
    optimality_gap,
)
from sud_estimate.weights import WeightVector, product_weights


def rows(table: np.ndarray) -> list[tuple[int, ...]]:
    return list(map(tuple, table.tolist()))


class TestIncidence:
    def test_strict_support_example(self):
        s = build_incidence(2, 5, "strict")
        assert rows(s.parent_table) == [(4, 1), (3, 2)]
        assert rows(s.child_table) == [(6, 0), (5, 1), (4, 2), (3, 3)]
        assert dense(s.matrix).sum(axis=1).tolist() == [0, 1, 2, 1]

    def test_full_support_row_degrees_count_removable_rows(self):
        for d, n in [(2, 6), (3, 7), (4, 9)]:
            s = build_incidence(d, n, "full")
            for parts, deg in zip(rows(s.child_table), dense(s.matrix).sum(axis=1)):
                assert deg == len(removable_rows(parts))

    def test_column_degrees_count_children(self):
        s = build_incidence(3, 6, "full")
        degrees = dense(s.matrix).sum(axis=0)
        for parts, deg in zip(rows(s.parent_table), degrees):
            distinct_rows = len(set(parts))
            assert deg == distinct_rows  # one addable row per distinct value

    def test_empty_strict_support_raises(self):
        with pytest.raises(EmptySupportError):
            build_incidence(2, 2, "strict")

    def test_bad_support_name(self):
        with pytest.raises(ValueError):
            build_incidence(2, 5, "everything")


class TestBoxMatrix:
    @pytest.mark.parametrize(
        "d, n", [(2, 5), (2, 40), (3, 6), (3, 17), (4, 10), (4, 15), (5, 15), (5, 19)]
    )
    def test_products_equal_dense_products(self, d, n):
        full = build_incidence(d, n, "full")
        strict = build_incidence(d, n, "strict")
        rng = np.random.default_rng(1000 * d + n)
        for s in (full, strict):
            b = s.matrix
            want = dense(b)
            assert b.shape == (len(s.child_table), len(s.parent_table))
            assert b.nnz == int(want.sum())
            # integer values: every sum is exact whatever its order
            x = rng.integers(-50, 50, b.shape[1]).astype(float)
            y = rng.integers(-50, 50, b.shape[0]).astype(float)
            assert np.array_equal(b @ x, want @ x)
            assert np.array_equal(b.rmatvec(y), want.T @ y)
        assert np.count_nonzero(dense(strict.matrix).sum(axis=1) == 0) > 0
        keep = np.flatnonzero(full.strict)
        assert np.array_equal(dense(strict.matrix), dense(full.matrix)[:, keep])
        # each entry keeps its slot, so sums keep their order; the others become pads
        m = full.matrix.shape[1]
        kept = np.isin(full.matrix.up, keep)
        assert np.array_equal(np.append(keep, m)[strict.matrix.up],
                              np.where(kept, full.matrix.up, m))

    @pytest.mark.parametrize("d, n", [(1, 7), (2, 5), (2, 12), (3, 6), (3, 11), (4, 10),
                                      (4, 14), (5, 15), (5, 19)])
    @pytest.mark.parametrize("support", ["full", "strict"])
    def test_products_add_in_the_order_of_a_loop(self, d, n, support):
        # B x adds each child's parent terms in box-row order, B^T y each
        # parent's child terms c + e_i in table order, from 0.0: a float
        # loop in that order must agree bit for bit
        s = build_incidence(d, n, support)
        b = s.matrix
        k, m = b.shape
        row_of = {p: r for r, p in enumerate(rows(s.child_table))}
        col_of = {p: c for c, p in enumerate(rows(s.parent_table))}
        rng = np.random.default_rng(100 * d + n)
        x, y = rng.normal(size=m), rng.normal(size=k)
        want_bx, want_bty, entries = [], [], 0
        for child in rows(s.child_table):
            total = 0.0
            for i in sorted(removable_rows(child)):
                parent = child[: i - 1] + (child[i - 1] - 1,) + child[i:]
                if parent in col_of:
                    total += x[col_of[parent]]
                    entries += 1
            want_bx.append(total)
        for parent in rows(s.parent_table):
            total = 0.0
            for i in range(d):
                child = parent[:i] + (parent[i] + 1,) + parent[i + 1 :]
                if child in row_of:
                    total += y[row_of[child]]
            want_bty.append(total)
        assert np.array_equal(b @ x, want_bx)
        assert np.array_equal(b.rmatvec(y), want_bty)
        assert b.nnz == entries and type(b.nnz) is int
        if support == "strict" and d > 1:
            assert (b.up == m).all(axis=0).any()  # a child with no strict parent
        slot, child = np.nonzero(b.up != m)
        assert np.array_equal(b.down[slot, b.up[slot, child]], child)
        assert np.count_nonzero(b.down != k) == entries


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

    @pytest.mark.parametrize("n", [*range(41), 60, 200])
    def test_d3_closed_form(self, n):
        # full-support d=3 optimum: eigmax = |1 + e^(2ia) + e^(3ia)|^2, a = 2 pi / (N+6)
        a = 2 * math.pi / (n + 6)
        want = abs(1 + np.exp(2j * a) + np.exp(3j * a)) ** 2
        assert max_eigenpair(build_incidence(3, n)).eigmax == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [101, 102, 401, 402, 1001, 1002, 1999, 2000])
    def test_d2_chain_closed_form_at_large_levels(self, n):
        # one solve at the default cap, odd and even N alike
        r = max_eigenpair(build_incidence(2, n, "full"))
        assert r.eigmax == pytest.approx(4 * math.cos(math.pi / (n + 3)) ** 2, abs=1e-10)
        assert r.residual <= 1e-12 * r.eigmax

    def test_tied_blocks_give_nonnegative_certified_vector(self):
        # two identical components tie for the top eigenvalue
        block = build_incidence(2, 6, "full").matrix
        nrows, ncols = block.shape
        padded = block.up == ncols
        pair = BoxMatrix((2 * nrows, 2 * ncols), np.concatenate(
            [np.where(padded, 2 * ncols, block.up), np.where(padded, 2 * ncols, block.up + ncols)],
            axis=1,
        ))
        parents = partition_table(3, 7)[: 2 * ncols]
        children = partition_table(3, 8)[: 2 * nrows]
        s = IncidenceStructure(3, 7, "full", children, parents, pair)
        cols = rows(s.parent_table)
        r = max_eigenpair(s)
        assert r.eigmax == pytest.approx(4 * math.cos(math.pi / 9) ** 2, abs=1e-12)
        assert len(r.eigvec.entries) == len(cols)
        assert all(v > 0 for v in r.eigvec.entries.values())
        v = np.array([float(r.eigvec.entries.get(p, 0)) for p in cols])
        b = dense(s.matrix)
        av = b.T @ (b @ v)
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
        v = np.array([float(r.eigvec.entries.get(p, 0)) for p in rows(s.parent_table)])
        v /= np.linalg.norm(v)
        b = dense(s.matrix)
        av = b.T @ (b @ v)
        assert np.linalg.norm(av - r.eigmax * v) <= 2e-12 * r.eigmax
        assert r.residual <= 1e-12 * r.eigmax

    def test_eigvec_is_nonnegative_weight_vector(self):
        r = max_eigenpair(build_incidence(3, 7, "full"))
        assert all(v > 0 for v in r.eigvec.entries.values())
        assert float(r.eigvec.norm_sq) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_eigensolver(self):
        for d, n in [(2, 8), (3, 7)]:
            s = build_incidence(d, n, "full")
            b = dense(s.matrix)
            want = max(np.linalg.eigvalsh(b.T @ b))
            got = max_eigenpair(s).eigmax
            assert got == pytest.approx(want, rel=1e-12)

    # levels whose column counts fall below, at and above the basis size (20)
    # and near 55: the basis holds the whole space of the first two, so their
    # first cycle ends the solve, and the other two run the filtered phase
    @pytest.mark.parametrize("d, support, levels", [
        (2, "full", (26, 38, 44, 110)),
        (2, "strict", (31, 41, 43, 111)),
        (3, "full", (11, 12, 13, 23)),
        (3, "strict", (17, 18, 19, 29)),
        (4, "full", (8, 9, 10, 15)),
        (4, "strict", (18, 19, 20, 25)),
        (5, "full", (8, 9, 10, 13)),
        (5, "strict", (23, 24, 25, 28)),
    ])
    def test_matches_dense_eigensolver_on_both_supports(self, d, support, levels, monkeypatch):
        import sud_estimate.spectral as spectral

        filters = []
        chebyshev = spectral._chebyshev
        monkeypatch.setattr(
            spectral, "_chebyshev", lambda *args: filters.append(args) or chebyshev(*args)
        )
        columns, filtered = [], []
        for n in levels:
            s = build_incidence(d, n, support)
            b = dense(s.matrix)
            want = max(np.linalg.eigvalsh(b.T @ b))
            built = len(filters)
            r = max_eigenpair(s)
            assert r.eigmax == pytest.approx(want, rel=1e-12), n
            assert r.residual <= 1e-12 * r.eigmax
            columns.append(s.matrix.shape[1])
            filtered.append(len(filters) > built)
        assert min(columns) < 20 <= max(columns[:3]) and max(columns) > 50
        assert filtered == [c > 20 for c in columns]

    def test_cut_stays_below_a_tied_top_ritz_value(self):
        for top in (1e-3, 1.0, 3.99999, 8.9991, 25.0):
            for second in (top, np.nextafter(top, 0.0), top * (1 - 1e-12)):
                cut = _cut(top, second)
                assert top / 2 <= cut < top
                scale = math.cosh(_DEGREE * math.acosh(2 * top / cut - 1))
                assert 1.0 < scale < math.inf
        assert _cut(8.0, 7.0) == 7.0
        assert _cut(8.0, 1.0) == 4.0

    @pytest.mark.parametrize(
        "cap, spent", [(2, 2), (_KEPT + 3, _KEPT), (_KEPT + 8, _KEPT + _DEGREE)]
    )
    def test_cap_inside_a_filter_block_stops_before_it(self, monkeypatch, cap, spent):
        # a filtered step costs _DEGREE applications; one that would pass the
        # cap is not taken, and the current Ritz vector comes back certified
        monkeypatch.setattr("sud_estimate.spectral._MAX_APPLICATIONS", cap)
        s = build_incidence(3, 60, "full")
        with pytest.raises(ConvergenceError) as info:
            max_eigenpair(s)
        best = info.value.best
        assert best.iterations == spent <= cap
        v = np.array([float(best.eigvec.entries.get(p, 0)) for p in rows(s.parent_table)])
        assert (v > 0).all()
        v /= np.linalg.norm(v)
        b = dense(s.matrix)
        av = b.T @ (b @ v)
        assert best.eigmax == pytest.approx(v @ av, rel=1e-12)
        assert best.residual == pytest.approx(np.linalg.norm(av - best.eigmax * v), rel=1e-6)
        assert 0 < best.eigmax <= 9.0

    @pytest.mark.parametrize("n, most", [(2000, 2000), (1999, 1200)])
    def test_d2_applications_at_large_levels(self, n, most):
        # 3,760 and 1,590 applications without the filter
        r = max_eigenpair(build_incidence(2, n, "full"))
        assert r.iterations <= most
        assert r.eigmax == pytest.approx(4 * math.cos(math.pi / (n + 3)) ** 2, abs=1e-10)

    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        monkeypatch.setattr("sud_estimate.spectral._MAX_APPLICATIONS", 2)
        s = build_incidence(2, 10, "full")
        with pytest.raises(ConvergenceError) as info:
            max_eigenpair(s, tol=1e-12)
        best = info.value.best
        assert best is not None
        assert best.iterations == 2
        assert 0 < best.eigmax <= 4.0

    def test_breakdown_below_any_tolerance_ends_the_solve(self):
        # 6 columns: the first cycle exhausts the Krylov space, and a beta at
        # rounding level is a breakdown however small tol is
        with pytest.raises(ConvergenceError, match="broke down") as info:
            max_eigenpair(build_incidence(2, 10), tol=1e-300)
        best = info.value.best
        assert best.iterations <= 6
        assert best.eigmax == pytest.approx(4 * math.cos(math.pi / 13) ** 2, rel=1e-14)

    def test_tolerance_below_the_rounding_floor_stops_when_certificates_stall(self):
        # at d=3 N=100 no certificate beats about 3.9e-16 theta; the solve used
        # to run to the 10^6-application cap, 50 s, before it raised
        start = time.process_time()
        with pytest.raises(ConvergenceError, match=r"best residual \S+e-16 \* theta") as info:
            max_eigenpair(build_incidence(3, 100), tol=1e-16)
        assert time.process_time() - start < 2.0
        best = info.value.best
        assert 1e-16 * best.eigmax < best.residual < 1e-15 * best.eigmax
        assert best.iterations < 1000

    def test_tolerance_above_the_floor_certifies_at_the_first_attempt(self):
        r = max_eigenpair(build_incidence(3, 100), tol=1e-15)
        assert r.iterations == 162
        assert r.residual <= 1e-15 * r.eigmax

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            max_eigenpair(build_incidence(2, 10, "full"), tol=0.0)

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
                assert g.risk_product is not None
                assert g.risk_product - g.risk_full >= -1e-9

    def test_strict_support_cannot_beat_full(self):
        for d, n in [(2, 7), (2, 12), (3, 9)]:
            g = optimality_gap(d, n)
            assert g.risk_strict is not None
            assert g.risk_strict - g.risk_full >= -1e-9

    def test_infeasible_product_still_reports_optimum(self):
        g = optimality_gap(2, 1)
        assert g.risk_product is None
        assert (g.strict, g.risk_strict) == (None, None)
        assert float(g.risk_full) == pytest.approx(0.5, abs=1e-12)

    def test_both_eigenpairs_returned_and_scored_exactly(self):
        g = optimality_gap(3, 12)
        assert (g.full.support, g.strict.support) == ("full", "strict")
        assert g.risk_full == exact_risk(3, 12, g.full.eigvec).risk
        assert g.risk_strict == exact_risk(3, 12, g.strict.eigvec).risk
        assert g.risk_product == exact_risk(3, 12, product_weights(3, 12)).risk
        assert len(g.strict.eigvec.entries) == len(partition_table(3, 12, strict=True))

    @pytest.mark.parametrize("d, n, want", [
        (2, 2000, math.sin(math.pi / 2003) ** 2),  # 1 - eigmax/4 is -1.3e-10 relative off
        # 4 (sin^2(a/2) + sin^2(a) + sin^2(3a/2)) / 9 = 1 - eigmax/9, a = 2 pi / (N+6)
        (3, 400, 4 * sum(math.sin(k * math.pi / 406) ** 2 for k in (1, 2, 3)) / 9),
    ], ids=["d2", "d3"])
    def test_optimum_to_rounding_at_a_large_level(self, d, n, want):
        assert float(optimality_gap(d, n).risk_full) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("d, n", [(2, 11), (3, 9), (4, 8), (5, 7)])
    def test_distance_to_the_eigmax_bound_is_a_sum_of_squares(self, d, n):
        # d^2 ||c||^2 - ||Bc||^2 = sum over children mu of the squared differences
        # of c on pairs of parents of mu, plus c(lam)^2 (d^2 - sum of |S(mu)| over
        # the children mu of lam); every term is >= 0, so eigmax <= d^2
        parents = enumerate_partitions(d, n)
        of_child = {  # mu -> its parents mu - e_i, i in S(mu)
            mu: [tuple(x - (j == i) for j, x in enumerate(mu, start=1))
                 for i in removable_rows(mu)]
            for mu in enumerate_partitions(d, n + 1)
        }
        degree_sum = dict.fromkeys(parents, 0)
        for ps in of_child.values():
            for p in ps:
                degree_sum[p] += len(ps)
        boundary = {p: d * d - s for p, s in degree_sum.items()}
        assert min(boundary.values()) >= 0
        rng = np.random.default_rng(10 * d + n)
        for _ in range(5):
            values = rng.integers(0, 1000, len(parents)) * (rng.random(len(parents)) < 0.7)
            values[rng.integers(len(parents))] += 1
            c = dict(zip(parents, values.tolist()))
            norm_sq = sum(v * v for v in c.values())
            bc_sq = sum(sum(c[p] for p in ps) ** 2 for ps in of_child.values())
            differences = sum((c[p] - c[q]) ** 2 for ps in of_child.values()
                              for p, q in itertools.combinations(ps, 2))
            assert d * d * norm_sq - bc_sq == differences + sum(
                c[p] ** 2 * boundary[p] for p in parents)
            # the exact engine's numerator is the same integer
            w = WeightVector(d, n, np.array(parents), values)
            assert exact_risk(d, n, w).numerator == bc_sq and w.norm_sq == norm_sq

    def test_optimal_weights_scheme_entry_point(self):
        w = optimal_weights(2, 6, support="strict")
        assert w.table.tolist() == [[5, 1], [4, 2], [3, 3]] or len(w.entries) <= 3
        full = optimal_weights(2, 6, support="full")
        assert exact_risk(2, 6, full).risk <= exact_risk(2, 6, product_weights(2, 6)).risk

    def test_strict_optimum_beats_product_too(self):
        for n in (8, 13):
            g = optimality_gap(2, n)
            assert g.risk_strict is not None
            assert g.risk_product >= g.risk_strict - 1e-9


def test_partition_order_matches_enumeration():
    s = build_incidence(3, 5, "full")
    assert rows(s.parent_table) == enumerate_partitions(3, 5)
    assert rows(s.child_table) == enumerate_partitions(3, 6)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dense_or_sparse_linalg():
    # scipy.sparse costs about 0.3 s and 20 MiB per process and the process
    # pool ~36 ms; only a multi-process sweep needs the pool
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import json, sys, sud_estimate.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert [m for m in loaded if m in ("scipy.linalg", "scipy.sparse.linalg")] == []
    assert [m for m in loaded if m.startswith(("scipy", "concurrent.futures", "multiprocessing"))] == []


def test_verify_loads_no_numpy_random():
    # numpy.random costs about 5.5 MiB and 16 ms per process; the torus
    # sample of the branching check is drawn by the standard library
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, json, sys; from sud_estimate import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = cli.main(['verify', '-d', '3', '--n-max', '4', '--no-timestamp'])\n"
        "print(json.dumps([exit_code, sorted(sys.modules)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    exit_code, loaded = json.loads(result.stdout)
    assert exit_code == 0
    assert [m for m in loaded if m.startswith("numpy.random")] == []


def test_package_imports_no_scipy():
    for path in sorted((SRC / "sud_estimate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            assert all(m.split(".")[0] != "scipy" for m in modules), (path.name, ast.dump(node))


def test_only_risk_reads_the_layout_of_box_matrix():
    # B's tables are risk.py's decision: elsewhere B is used through @,
    # rmatvec, take_columns, nnz and shape alone
    public = {"rmatvec", "take_columns", "nnz", "shape"}
    members = {name for name in vars(BoxMatrix) if not name.startswith("__")}
    members |= {f.name for f in dataclasses.fields(BoxMatrix)}
    layout = members - public
    assert {"up", "down"} <= layout
    for path in sorted((SRC / "sud_estimate").glob("*.py")):
        if path.name == "risk.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            assert name not in layout | {"_gather_sum"}, (path.name, node.lineno, name)


def test_every_exported_name_is_read_outside_the_tests():
    # a name that only tests read is surface no command, script or benchmark
    # uses; a read is a Python name token, not a string, a comment or the
    # name that a def or class statement binds
    root = SRC.parent
    package = [p for p in sorted((SRC / "sud_estimate").glob("*.py")) if p.name != "__init__.py"]
    readers = package + [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    read = set()
    for path in readers:
        with path.open("rb") as source:
            tokens = [t for t in tokenize.tokenize(source.readline) if t.type == tokenize.NAME]
        read.update(t.string for t, before in zip(tokens, [None, *tokens])
                    if before is None or before.string not in ("def", "class"))
    unread = []
    for path in package:
        module = importlib.import_module(f"sud_estimate.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)
            if name not in read:
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"only tests read {unread}"
