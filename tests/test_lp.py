import itertools
import re
import tracemalloc

import numpy as np
import pytest

from sparseloglin import (
    LinearProgram,
    binarize,
    build_design,
    find_facial_set,
    parse_generators,
    solve,
    sufficient_statistic,
)
from sparseloglin import lp as lpmod

from conftest import make_table, three_way_instance


def brute_force_max(c, a_mat, b, tol=1e-9):
    """Enumerate every basis; return the best feasible vertex objective.

    Independent oracle for equality-form LPs whose feasible region is
    bounded: tries all column subsets of size m, solves the square
    system, and keeps the best nonnegative solution.
    """
    m, n = a_mat.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a_mat[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if (x_b < -tol).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def nonnegative_rhs(a_mat, b):
    """The same constraints with each row scaled to a nonnegative rhs: same feasible set, same optimum."""
    sign = np.where(b < 0, -1.0, 1.0)
    return a_mat * sign[:, None], b * sign


def bland_reference(T, basis, max_iter):
    """Scalar-loop Bland simplex: the reference for lp._simplex's Bland path.

    Same contract as lp._simplex with ``stall_pivots=0``; every
    comparison is made one entry at a time, so each pivot decision is
    plain to read.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    pivots = 0
    while True:
        pivcol = -1
        for j in range(n):
            if T[m, j] < -lpmod.COST_TOL:
                pivcol = j
                break
        if pivcol < 0:
            return lpmod.OPTIMAL, pivots

        best = np.inf
        for i in range(m):
            a = T[i, pivcol]
            if a > lpmod.PIVOT_TOL:
                r = T[i, n] / a
                if r < best:
                    best = r
        if best == np.inf:
            return lpmod.UNBOUNDED, pivots
        thresh = best + 1e-9 * (1.0 + abs(best))
        pivrow = -1
        for i in range(m):
            a = T[i, pivcol]
            if a > lpmod.PIVOT_TOL:
                r = T[i, n] / a
                if r <= thresh and (pivrow < 0 or basis[i] < basis[pivrow]):
                    pivrow = i

        piv = T[pivrow, pivcol]
        T[pivrow, :] = T[pivrow, :] / piv
        col = T[:, pivcol].copy()
        col[pivrow] = 0.0
        T -= np.outer(col, T[pivrow, :])
        T[:, pivcol] = 0.0
        T[pivrow, pivcol] = 1.0
        basis[pivrow] = pivcol

        pivots += 1
        if pivots >= max_iter:
            return lpmod.ITERATION_LIMIT, pivots


def random_phase2_tableau(rng, m, n, integer=False):
    """Feasible canonical tableau: identity basis in the last m columns.

    With ``integer`` the entries are small integers and about a quarter
    of the rhs entries are 0.  That makes exact degenerate ratio ties,
    and ties that after a few pivots differ only by rounding, which the
    1e-9 band of the tie-break absorbs.
    """
    if integer:
        a = rng.integers(-3, 4, size=(m, n - m)).astype(float)
        b = rng.integers(0, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=n - m).astype(float)
    else:
        a = rng.normal(size=(m, n - m))
        b = rng.random(m) + 0.1
        c = rng.normal(size=n - m)
    T = np.zeros((m + 1, n + 1))
    T[:m, : n - m] = a
    T[:m, n - m : n] = np.eye(m)
    T[:m, -1] = b
    T[-1, : n - m] = c
    basis = np.arange(n - m, n, dtype=np.int64)
    return T, basis


def facial_lp(table, model, active):
    design = build_design(table, model)
    t_prime = sufficient_statistic(design, binarize(table).counts).t.astype(float)
    c = np.zeros(table.n_cells)
    c[list(active)] = 1.0
    return LinearProgram(c, design.matrix.T, t_prime), t_prime


class TestFacialLps:
    def test_haberman_zero_objective(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        lp, t_prime = facial_lp(haberman_table, model, [0, 7])
        sol = solve(lp)
        assert abs(sol.objective_value) <= 1e-8
        assert sol.objective_value <= t_prime[0] + 1e-8

    def test_3x3x3_first_round_rescues_131(self, table3x3x3):
        model = parse_generators("[ab][bc][ac]")
        zero_cells = table3x3x3.zero_cells()
        lp, t_prime = facial_lp(table3x3x3, model, zero_cells)
        sol = solve(lp)
        assert sol.objective_value > 1e-8
        cell_131 = table3x3x3.flat_index((0, 2, 0))
        assert sol.point[cell_131] > 1e-8
        # every other zero cell receives no mass in the optimal vertex
        others = [i for i in zero_cells if i != cell_131]
        assert (sol.point[others] <= 1e-8).all()

    def test_zero_objective_feasible_system(self, haberman_table):
        model = parse_generators("[ab][ac][bc]")
        lp, _ = facial_lp(haberman_table, model, [])
        sol = solve(lp)
        assert sol.objective_value == 0.0
        assert sol.residual <= 1e-9


class TestEdgeCases:
    def test_negative_rhs_rejected(self):
        # x1 + x2 = -1: solve takes rhs >= 0 only
        with pytest.raises(ValueError, match="negative rhs"):
            LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0])

    def test_infeasible_two_rows(self):
        lp = LinearProgram([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(lpmod.SimplexError, match="phase 1: infeasible"):
            solve(lp)

    def test_unbounded(self):
        # max x1 subject to x1 - x2 = 0
        lp = LinearProgram([1.0, 0.0], [[1.0, -1.0]], [0.0])
        with pytest.raises(lpmod.SimplexError, match="unbounded"):
            solve(lp)

    def test_redundant_row_handled(self):
        # the second row is twice the first: outside solve's contract
        lp = LinearProgram([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        with pytest.raises(lpmod.SimplexError, match="linearly dependent"):
            solve(lp)

    def test_redundant_rows_without_a_zero_row(self):
        # three-way 2^8 facial LP without the presolved cells' columns:
        # 93 constraints of rank 90, none of them zero; phase 1 leaves
        # artificials at tableau positions other than their constraints'
        table, model = three_way_instance(1)
        design = build_design(table, model)
        presolved = [cell for cell, _ in find_facial_set(table, model, design=design).presolved]
        keep = np.ones(table.n_cells, dtype=bool)
        keep[presolved] = False
        x = design.matrix[keep]
        lp = LinearProgram((table.counts[keep] == 0).astype(float), x.T, x.T @ (table.counts[keep] > 0))
        assert (lp.n_constraints, np.linalg.matrix_rank(x)) == (93, 90)
        with pytest.raises(lpmod.SimplexError, match=r"constraint \d+ is linearly dependent") as err:
            solve(lp)
        # the error names a constraint the others span, not a tableau position
        k = int(re.search(r"constraint (\d+)", str(err.value)).group(1))
        assert np.linalg.matrix_rank(np.delete(x.T, k, axis=0)) == 90

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], [[1.0, 2.0]], [1.0])

    def test_callers_arrays_stay_writable(self):
        # the LP freezes views and does not copy a C-contiguous float64 matrix
        c, a_mat, b = np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0])
        lp = LinearProgram(c, a_mat, b)
        assert np.shares_memory(lp.constraint_matrix, a_mat)
        for arr in (c, a_mat, b):
            arr[0] = 2.0
        for arr in (lp.objective, lp.constraint_matrix, lp.rhs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram([np.inf, 1.0], [[1.0, 2.0]], [1.0])

    def test_negative_rhs_feasible(self):
        # -x1 + x2 = 3, x1 + x2 = 5 -> x = (1, 4)
        lp = LinearProgram([1.0, 0.0], [[-1.0, 1.0], [1.0, 1.0]], [3.0, 5.0])
        sol = solve(lp)
        assert np.allclose(sol.point, [1.0, 4.0], atol=1e-9)


class TestSimplex:
    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_scalar_reference(self, integer):
        rng = np.random.default_rng(3)
        statuses = set()
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m + 1, m + 10))
            T, basis = random_phase2_tableau(rng, m, n, integer)
            T_ref, basis_ref = T.copy(), basis.copy()
            got = lpmod._simplex(T, basis, 1000, stall_pivots=0)
            want = bland_reference(T_ref, basis_ref, 1000)
            # identical pivot decisions: same status, pivot count, basis
            # and, since the arithmetic is the same, the same tableau
            assert got == want
            assert np.array_equal(basis, basis_ref)
            assert np.array_equal(T, T_ref)
            statuses.add(got[0])
        assert statuses == {lpmod.OPTIMAL, lpmod.UNBOUNDED}

    @pytest.mark.parametrize("stall_pivots", [lpmod.STALL_PIVOTS, 1])
    @pytest.mark.parametrize("integer", [False, True])
    def test_dantzig_matches_reference_optimum(self, integer, stall_pivots):
        # stall_pivots=1 hands degenerate stretches to Bland's rule and
        # back at almost every pivot
        rng = np.random.default_rng(3)
        statuses = set()
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m + 1, m + 10))
            T, basis = random_phase2_tableau(rng, m, n, integer)
            T_ref, basis_ref = T.copy(), basis.copy()
            status, _ = lpmod._simplex(T, basis, 1000, stall_pivots=stall_pivots)
            want, _ = bland_reference(T_ref, basis_ref, 1000)
            assert status == want
            if status == lpmod.OPTIMAL:
                assert abs(T[-1, -1] - T_ref[-1, -1]) <= 1e-9
                assert (T[:-1, -1] >= -1e-9).all()
            statuses.add(status)
        assert statuses == {lpmod.OPTIMAL, lpmod.UNBOUNDED}

    def test_iteration_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            T, basis = random_phase2_tableau(rng, 4, 10)
            T_ref, basis_ref = T.copy(), basis.copy()
            assert lpmod._simplex(T, basis, 1, stall_pivots=0) == bland_reference(T_ref, basis_ref, 1)
            assert np.array_equal(T, T_ref)

    def test_optimal_tableau_untouched(self):
        T = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [0.5, 0.25, 0.0]])
        basis = np.array([0, 1], dtype=np.int64)
        status, pivots = lpmod._simplex(T.copy(), basis.copy(), 100)
        assert status == lpmod.OPTIMAL
        assert pivots == 0

    def test_unbounded_detected(self):
        # entering column has no positive entries
        T = np.zeros((2, 4))
        T[0] = [1.0, -1.0, 0.0, 2.0]
        T[1] = [0.0, -1.0, 0.0, 0.0]
        status, _ = lpmod._simplex(T, np.array([0], dtype=np.int64), 100)
        assert status == lpmod.UNBOUNDED

    def test_drift_raises_with_phase_and_pivots(self):
        # a tableau whose basic values disagree with B^-1 b, as after
        # lost precision, fails at its first rebuild
        a_mat = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        cost = np.array([-1.0, 0.0, -1.0])
        T = lpmod._factor(a_mat, b, cost, np.array([0, 2]))
        T[0, -1] += 1e-3
        refactor = lpmod._refactorer(a_mat, b, cost, 2)
        with pytest.raises(lpmod.SimplexError, match=r"phase 2: .*drifted 1\.000e-03.* after 7 pivots"):
            refactor(T, np.array([0, 2]), 7)


class TestDeterminism:
    def test_same_support_across_solves(self, table3x3x3):
        model = parse_generators("[ab][bc][ac]")
        lp, _ = facial_lp(table3x3x3, model, table3x3x3.zero_cells())
        s1 = solve(lp)
        s2 = solve(lp)
        assert np.array_equal(s1.point, s2.point)


class TestAgainstBruteForce:
    def test_random_small_lps(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 120:
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 7))
            a_mat = np.vstack([np.ones(n), rng.normal(size=(m - 1, n))]) if m > 1 else np.ones((1, n))
            x_feas = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 3)
            if x_feas.sum() == 0:
                x_feas[int(rng.integers(n))] = 1.0
            a_mat, b = nonnegative_rhs(a_mat, a_mat @ x_feas)
            c = rng.normal(size=n)
            # row of ones makes the feasible set bounded, so the brute
            # force enumeration is a complete oracle
            expect = brute_force_max(c, a_mat, b)
            assert expect is not None
            sol = solve(LinearProgram(c, a_mat, b))
            assert sol.objective_value == pytest.approx(expect, abs=1e-8)
            checked += 1


def random_feasible_rhs(rng, a_mat):
    """rhs A x for a random nonnegative, nonzero x."""
    n = a_mat.shape[1]
    x = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 3)
    if x.sum() == 0:
        x[int(rng.integers(n))] = 1.0
    return a_mat @ x


def random_bounded_lp(rng):
    """Random equality LP data whose first row (all ones) bounds the feasible set."""
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m, 7))
    a_mat = np.vstack([np.ones(n), rng.normal(size=(m - 1, n))]) if m > 1 else np.ones((1, n))
    return nonnegative_rhs(a_mat, random_feasible_rhs(rng, a_mat))


def no_phase1(*args):
    raise AssertionError("phase 1 ran on a warm start")


class TestWarmStart:
    def test_3x3x3_facial_lps(self, table3x3x3, monkeypatch):
        model = parse_generators("[ab][bc][ac]")
        zero_cells = table3x3x3.zero_cells()
        cell_131 = table3x3x3.flat_index((0, 2, 0))
        # the facial loop's two objectives, then the oracle's per-cell ones
        objectives = [zero_cells, [i for i in zero_cells if i != cell_131]] + [[i] for i in zero_cells]
        prev = solve(facial_lp(table3x3x3, model, objectives[0])[0])
        for active in objectives[1:]:
            lp, _ = facial_lp(table3x3x3, model, active)
            cold = solve(lp)
            with monkeypatch.context() as mp:
                mp.setattr(lpmod, "_phase1", no_phase1)
                warm = solve(lp, start=prev.basis)
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
            assert warm.residual <= 1e-9
            prev = warm

    def test_random_lps_sharing_constraints(self, monkeypatch):
        rng = np.random.default_rng(42)
        for _ in range(60):
            a_mat, b = random_bounded_lp(rng)
            prev = solve(LinearProgram(rng.normal(size=a_mat.shape[1]), a_mat, b))
            for _ in range(3):
                c = rng.normal(size=a_mat.shape[1])
                lp = LinearProgram(c, a_mat, b)
                cold = solve(lp)
                with monkeypatch.context() as mp:
                    mp.setattr(lpmod, "_phase1", no_phase1)
                    warm = solve(lp, start=prev.basis)
                expect = brute_force_max(c, a_mat, b)
                assert warm.objective_value == pytest.approx(expect, abs=1e-8)
                assert cold.objective_value == pytest.approx(expect, abs=1e-8)
                prev = warm

    def test_start_infeasible_for_new_rhs_runs_phase1(self):
        rng = np.random.default_rng(11)
        fallbacks = 0
        for _ in range(60):
            a_mat, b = random_bounded_lp(rng)
            a_new, b_new = nonnegative_rhs(a_mat, random_feasible_rhs(rng, a_mat))
            prev = solve(LinearProgram(rng.normal(size=a_mat.shape[1]), a_mat, b))
            fallbacks += bool((np.linalg.solve(a_new[:, prev.basis], b_new) < -1e-8).any())
            c = rng.normal(size=a_mat.shape[1])
            sol = solve(LinearProgram(c, a_new, b_new), start=prev.basis)
            assert sol.objective_value == pytest.approx(brute_force_max(c, a_new, b_new), abs=1e-8)
        assert fallbacks > 0

    def test_warm_solve_reads_the_constraints_in_place(self):
        # three-way 2^8, warm-started from the all-zero-cells optimum as
        # in per_cell_oracle.  The rebuild at the verdict holds about
        # four phase-2 tableaux at once; a copy of the constraints would
        # add more than one.
        table, model = three_way_instance(0)
        xt = np.ascontiguousarray(build_design(table, model).matrix.T)
        t_prime = xt @ (table.counts > 0)
        zero = table.counts == 0
        cold = solve(LinearProgram(zero.astype(float), xt, t_prime))
        c = np.zeros(table.n_cells)
        c[np.flatnonzero(zero)[0]] = 1.0
        lp = LinearProgram(c, xt, t_prime)
        tracemalloc.start()
        try:
            warm = solve(lp, start=cold.basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n = xt.shape
        assert warm.pivots > 0
        assert peak <= 5 * 8 * (m + 1) * (n + 1)
