import itertools
import re
import tracemalloc

import numpy as np
import pytest

from sparseloglin import build_design, find_facial_set, parse_generators
from sparseloglin import lp as lpmod
from sparseloglin.lp import LinearProgram, solve

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


# dantzig_reference's verdicts
OPTIMAL, UNBOUNDED, ITERATION_LIMIT = "optimal", "unbounded", "iteration limit"


def dantzig_reference(T, basis, max_iter):
    """Scalar-loop simplex on a dense tableau: the reference for lp._simplex's pivot rule.

    ``T`` is (m+1, n+1): rows 0..m-1 hold [M | b] with an identity at
    the columns listed in ``basis``, the last row holds [reduced costs
    | -objective]; both are pivoted in place.  Returns (verdict,
    pivots).  It decides as lp._simplex does: the most negative reduced
    cost below -COST_TOL enters, and among ratios within the tie band
    of the minimum the largest entry leaves, the first column or row
    winning among equals.  Every comparison is made one entry at a
    time, so each pivot decision is plain to read.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    pivots = 0
    while True:
        pivcol = -1
        for j in range(n):
            if T[m, j] < -lpmod.COST_TOL and (pivcol < 0 or T[m, j] < T[m, pivcol]):
                pivcol = j
        if pivcol < 0:
            return OPTIMAL, pivots

        best = np.inf
        for i in range(m):
            a = T[i, pivcol]
            if a > lpmod.PIVOT_TOL:
                r = max(T[i, n], 0.0) / a
                if r < best:
                    best = r
        if best == np.inf:
            return UNBOUNDED, pivots
        thresh = best + 1e-9 * (1.0 + best)
        pivrow = -1
        for i in range(m):
            a = T[i, pivcol]
            if a > lpmod.PIVOT_TOL:
                r = max(T[i, n], 0.0) / a
                if r <= thresh and (pivrow < 0 or a > T[pivrow, pivcol]):
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
            return ITERATION_LIMIT, pivots


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


def facial_lp(table, model):
    """The facial constraints X'a = t' of ``table`` under ``model``."""
    xt = build_design(table, model).matrix.T
    return LinearProgram(xt, xt @ (table.counts > 0))


def indicator(n, cells):
    """The objective of total mass on ``cells`` among n variables."""
    c = np.zeros(n)
    c[list(cells)] = 1.0
    return c


class TestFacialLps:
    def test_haberman_zero_objective(self, haberman_table):
        lp = facial_lp(haberman_table, parse_generators("[ab][ac][bc]"))
        sol = solve(lp, indicator(haberman_table.n_cells, [0, 7]))
        assert abs(sol.objective_value) <= 1e-8
        assert sol.objective_value <= lp.rhs[0] + 1e-8

    def test_3x3x3_first_round_rescues_131(self, table3x3x3):
        lp = facial_lp(table3x3x3, parse_generators("[ab][bc][ac]"))
        zero_cells = np.flatnonzero(table3x3x3.counts == 0)
        sol = solve(lp, indicator(table3x3x3.n_cells, zero_cells))
        assert sol.objective_value > 1e-8
        cell_131 = np.ravel_multi_index((0, 2, 0), table3x3x3.shape)
        assert sol.point[cell_131] > 1e-8
        # every other zero cell receives no mass in the optimal vertex
        others = [i for i in zero_cells if i != cell_131]
        assert (sol.point[others] <= 1e-8).all()

    def test_zero_objective_feasible_system(self, haberman_table):
        lp = facial_lp(haberman_table, parse_generators("[ab][ac][bc]"))
        sol = solve(lp, indicator(haberman_table.n_cells, []))
        assert sol.objective_value == 0.0
        assert np.abs(lp.constraint_matrix @ sol.point - lp.rhs).max() <= 1e-9


class TestEdgeCases:
    def test_negative_rhs_rejected(self):
        # x1 + x2 = -1: solve takes rhs >= 0 only
        with pytest.raises(ValueError, match="negative rhs"):
            LinearProgram([[1.0, 1.0]], [-1.0])

    def test_infeasible_two_rows(self):
        lp = LinearProgram([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(lpmod.SimplexError, match="phase 1: infeasible"):
            solve(lp, [0.0, 0.0])

    def test_unbounded(self):
        # max x1 subject to x1 - x2 = 0
        lp = LinearProgram([[1.0, -1.0]], [0.0])
        with pytest.raises(lpmod.SimplexError, match="unbounded"):
            solve(lp, [1.0, 0.0])

    def test_redundant_row_handled(self):
        # the second row is twice the first: outside solve's contract
        lp = LinearProgram([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        with pytest.raises(lpmod.SimplexError, match="linearly dependent"):
            solve(lp, [1.0, 0.0])

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
        lp = LinearProgram(x.T, x.T @ (table.counts[keep] > 0))
        assert (lp.n_constraints, np.linalg.matrix_rank(x)) == (93, 90)
        with pytest.raises(lpmod.SimplexError, match=r"constraint \d+ is linearly dependent") as err:
            solve(lp, (table.counts[keep] == 0).astype(float))
        # the error names a constraint the others span, not a tableau position
        k = int(re.search(r"constraint (\d+)", str(err.value)).group(1))
        assert np.linalg.matrix_rank(np.delete(x.T, k, axis=0)) == 90

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram([[1.0, 2.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve(LinearProgram([[1.0, 2.0]], [1.0]), [1.0])

    def test_callers_arrays_stay_writable(self):
        # the LP freezes views and copies no float64 matrix, C-contiguous
        # or the transpose of one, as faces passes a design's
        for a_mat in (np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]]).T):
            b = np.array([1.0])
            lp = LinearProgram(a_mat, b)
            assert np.shares_memory(lp.constraint_matrix, a_mat)
            for arr in (a_mat, b):
                arr[0] = 2.0
            for arr in (lp.constraint_matrix, lp.rhs):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 3.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram([[np.inf, 2.0]], [1.0])
        with pytest.raises(ValueError):
            solve(LinearProgram([[1.0, 2.0]], [1.0]), [np.inf, 1.0])

    def test_negative_rhs_feasible(self):
        # -x1 + x2 = 3, x1 + x2 = 5 -> x = (1, 4)
        lp = LinearProgram([[-1.0, 1.0], [1.0, 1.0]], [3.0, 5.0])
        sol = solve(lp, [1.0, 0.0])
        assert np.allclose(sol.point, [1.0, 4.0], atol=1e-9)


def run_engine(T, basis, max_iter):
    """lp._simplex on the LP of tableau ``T`` (M, b and cost read from it), starting from B^-1 = I.

    ``basis`` is updated in place.  Returns (verdict, pivots, tableau):
    the verdict in dantzig_reference's labels, and the tableau B^-1 [M | b]
    with its reduced-cost row [cost - cost_B B^-1 M | -objective]
    rebuilt from the engine's final B^-1 [I | b].
    """
    m, n = T.shape[0] - 1, T.shape[1] - 1
    M, b, cost = T[:m, :n], T[:m, n], T[m, :n]
    inv = np.column_stack((np.eye(m), b))
    try:
        pivots = lpmod._simplex(M, b, cost, basis, inv, max_iter, 2)
        verdict = OPTIMAL
    except lpmod.SimplexError as err:
        if str(err) == f"phase 2: pivot limit {max_iter} exhausted":
            verdict, pivots = ITERATION_LIMIT, max_iter
        else:
            verdict = UNBOUNDED
            pivots = int(re.fullmatch(r"phase 2: objective unbounded after (\d+) pivots", str(err)).group(1))
    top = inv[:, :m] @ T[:m]
    bottom = np.append(cost - cost[basis] @ top[:, :n], -cost[basis] @ inv[:, m])
    return verdict, pivots, np.vstack((top, bottom))


class TestSimplex:
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_scalar_reference(self, degenerate):
        # normal entries, so no two reduced costs or pivot entries tie
        # exactly; with ``degenerate`` about a quarter of the rhs entries
        # are 0, so ratios tie at 0 and the largest-entry tie-break decides
        rng = np.random.default_rng(3)
        statuses = set()
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m + 1, m + 10))
            T, basis = random_phase2_tableau(rng, m, n)
            if degenerate:
                T[:m, -1] *= rng.random(m) < 0.75
            T_ref, basis_ref = T.copy(), basis.copy()
            status, pivots, tableau = run_engine(T, basis, 1000)
            want = dantzig_reference(T_ref, basis_ref, 1000)
            # identical pivot decisions: same status, pivot count, basis
            # and, up to roundoff relative to its largest entry, the same
            # tableau
            assert (status, pivots) == want
            assert np.array_equal(basis, basis_ref)
            assert np.abs(tableau - T_ref).max() <= 1e-9 * (1.0 + np.abs(T_ref).max())
            statuses.add(status)
        assert statuses == {OPTIMAL, UNBOUNDED}

    @pytest.mark.parametrize("integer", [False, True])
    def test_dantzig_matches_reference_optimum(self, integer):
        # integer tableaux tie reduced costs exactly, and roundoff may
        # then pick either column; the verdict and optimum stay the same
        rng = np.random.default_rng(3)
        statuses = set()
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m + 1, m + 10))
            T, basis = random_phase2_tableau(rng, m, n, integer)
            T_ref, basis_ref = T.copy(), basis.copy()
            status, _, tableau = run_engine(T, basis, 1000)
            want, _ = dantzig_reference(T_ref, basis_ref, 1000)
            assert status == want
            if status == OPTIMAL:
                assert abs(tableau[-1, -1] - T_ref[-1, -1]) <= 1e-9
                assert (tableau[:-1, -1] >= -1e-9).all()
            statuses.add(status)
        assert statuses == {OPTIMAL, UNBOUNDED}

    def test_iteration_limit(self):
        rng = np.random.default_rng(5)
        statuses = set()
        for _ in range(50):
            T, basis = random_phase2_tableau(rng, 4, 10)
            T_ref, basis_ref = T.copy(), basis.copy()
            status, pivots, tableau = run_engine(T, basis, 1)
            assert (status, pivots) == dantzig_reference(T_ref, basis_ref, 1)
            assert np.array_equal(basis, basis_ref)
            assert np.abs(tableau - T_ref).max() <= 1e-9 * (1.0 + np.abs(T_ref).max())
            statuses.add(status)
        assert ITERATION_LIMIT in statuses

    def test_optimal_tableau_untouched(self):
        T = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [0.5, 0.25, 0.0]])
        basis = np.array([0, 1], dtype=np.int64)
        status, pivots, _ = run_engine(T, basis, 100)
        assert status == OPTIMAL
        assert pivots == 0

    def test_unbounded_detected(self):
        # entering column has no positive entries
        T = np.zeros((2, 4))
        T[0] = [1.0, -1.0, 0.0, 2.0]
        T[1] = [0.0, -1.0, 0.0, 0.0]
        status, _, _ = run_engine(T, np.array([0], dtype=np.int64), 100)
        assert status == UNBOUNDED

    def test_drift_raises_with_phase_and_pivots(self):
        # basic values that disagree with B^-1 b, as after lost
        # precision, fail at the next rebuild
        a_mat = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        basis = np.array([0, 2])
        inv = lpmod._invert(a_mat, b, basis)
        inv[0, -1] += 1e-3
        with pytest.raises(lpmod.SimplexError, match=r"phase 2: .*drifted 1\.000e-03.* after 7 pivots"):
            lpmod._rebuild(a_mat, b, basis, inv, 2, 7)


class TestDeterminism:
    def test_same_support_across_solves(self, table3x3x3):
        lp = facial_lp(table3x3x3, parse_generators("[ab][bc][ac]"))
        c = indicator(table3x3x3.n_cells, np.flatnonzero(table3x3x3.counts == 0))
        s1 = solve(lp, c)
        s2 = solve(lp, c)
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
            sol = solve(LinearProgram(a_mat, b), c)
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
        lp = facial_lp(table3x3x3, parse_generators("[ab][bc][ac]"))
        zero_cells = np.flatnonzero(table3x3x3.counts == 0)
        cell_131 = np.ravel_multi_index((0, 2, 0), table3x3x3.shape)
        # the facial loop's two objectives, then the oracle's per-cell ones
        objectives = [zero_cells, [i for i in zero_cells if i != cell_131]] + [[i] for i in zero_cells]
        prev = solve(lp, indicator(table3x3x3.n_cells, objectives[0]))
        for active in objectives[1:]:
            c = indicator(table3x3x3.n_cells, active)
            cold = solve(lp, c)
            with monkeypatch.context() as mp:
                mp.setattr(lpmod, "_phase1", no_phase1)
                warm = solve(lp, c, start=prev)
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
            assert np.abs(lp.constraint_matrix @ warm.point - lp.rhs).max() <= 1e-9
            prev = warm

    def test_random_lps_sharing_constraints(self, monkeypatch):
        rng = np.random.default_rng(42)
        for _ in range(60):
            a_mat, b = random_bounded_lp(rng)
            lp = LinearProgram(a_mat, b)
            prev = solve(lp, rng.normal(size=a_mat.shape[1]))
            for _ in range(3):
                c = rng.normal(size=a_mat.shape[1])
                cold = solve(lp, c)
                with monkeypatch.context() as mp:
                    mp.setattr(lpmod, "_phase1", no_phase1)
                    warm = solve(lp, c, start=prev)
                expect = brute_force_max(c, a_mat, b)
                assert warm.objective_value == pytest.approx(expect, abs=1e-8)
                assert cold.objective_value == pytest.approx(expect, abs=1e-8)
                prev = warm

    def test_start_from_another_program_raises(self):
        # a start belongs to the LinearProgram it solved: one built from
        # the very same arrays, or from other constraints, is another
        a_mat, b = np.array([[1.0, 1.0]]), np.array([1.0])
        lp = LinearProgram(a_mat, b)
        sol = solve(lp, [1.0, 0.0])
        for other in (LinearProgram(a_mat, b), LinearProgram(a_mat, 2.0 * b)):
            with pytest.raises(ValueError, match="another LinearProgram"):
                solve(other, [0.0, 1.0], start=sol)
        assert solve(lp, [0.0, 1.0], start=sol).objective_value == 1.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_chain_equals_the_chain_inverted_afresh(self, seed):
        # three-way 2^8: the loop's first LP, then per-cell LPs stopped as
        # in per_cell_oracle; each warm start copies the last inverse, and
        # every inverse returned is its basis inverted afresh, bit for bit
        table, model = three_way_instance(seed)
        lp = facial_lp(table, model)
        zero = table.counts == 0
        chain = [(zero.astype(float), None)]
        chain += [(np.eye(1, table.n_cells, i)[0], lpmod.SUPPORT_TOL) for i in np.flatnonzero(zero)[:60]]
        sol, pivots = None, []
        for c, stop_above in chain:
            sol = solve(lp, c, start=sol, stop_above=stop_above)
            assert np.array_equal(sol.inverse, lpmod._invert(lp.constraint_matrix, lp.rhs, sol.basis))
            pivots.append(sol.pivots)
        assert sum(pivots[1:]) > 0

    def test_solution_inverse_is_read_only(self):
        sol = solve(LinearProgram([[1.0, 1.0]], [1.0]), [1.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            sol.inverse[0, 0] = 2.0

    def test_warm_solve_reads_the_constraints_in_place(self):
        # three-way 2^8, warm-started from the all-zero-cells optimum as
        # in per_cell_oracle.  The solve holds d x d inverses and vectors,
        # about 1.5 phase-2 tableaux' worth at a rebuild; a copy of the
        # constraints would add one more.
        table, model = three_way_instance(0)
        lp = facial_lp(table, model)
        zero = table.counts == 0
        cold = solve(lp, zero.astype(float))
        c = indicator(table.n_cells, np.flatnonzero(zero)[:1])
        tracemalloc.start()
        try:
            warm = solve(lp, c, start=cold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n = lp.n_constraints, lp.n_vars
        assert warm.pivots > 0
        assert peak <= 2 * 8 * (m + 1) * (n + 1)

    def test_cold_solve_holds_one_phase1_matrix(self):
        # the same LP solved cold: phase 1 holds [A | I] (one phase-1
        # tableau's worth) and the d x d inverses of a rebuild, about two
        # tableaux in all; a tableau pivoted in place would add one more
        table, model = three_way_instance(0)
        lp = facial_lp(table, model)
        c = (table.counts == 0).astype(float)
        tracemalloc.start()
        try:
            cold = solve(lp, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n = lp.n_constraints, lp.n_vars
        assert cold.pivots > 0
        assert peak <= 3 * 8 * (m + 1) * (n + m + 1)


class TestStopAbove:
    def test_verdict_matches_the_optimum(self):
        # the solve exceeds s exactly when the optimum does, on a prefix
        # of the full solve's path; otherwise it is the full solve
        rng = np.random.default_rng(8)
        n_stopped = 0
        for _ in range(60):
            a_mat, b = random_bounded_lp(rng)
            lp = LinearProgram(a_mat, b)
            prev = solve(lp, rng.normal(size=a_mat.shape[1]))
            c = rng.normal(size=a_mat.shape[1])
            best = solve(lp, c, start=prev)
            v0, v = float(c @ prev.point), best.objective_value
            # each bar at least 1e-6 from v, far above the roundoff of objectives
            bars = [v0 - 1e-6, v - 1e-6, v + 1e-6] + [(v0 + v) / 2] * (v - v0 > 2e-6)
            for s in bars:
                sol = solve(lp, c, start=prev, stop_above=s)
                if v > s:
                    assert sol.objective_value > s
                    assert sol.pivots <= best.pivots
                    n_stopped += sol.pivots < best.pivots
                else:
                    assert sol.pivots == best.pivots
                    assert np.array_equal(sol.point, best.point)
        assert n_stopped > 0

    def test_strict_at_the_start_vertex(self):
        # max a_i from a vertex with a_i = v below the optimum: the solve
        # ends at the start for any bar below v, and moves on for v itself
        rng = np.random.default_rng(9)
        n_cases = 0
        while n_cases < 20:
            a_mat, b = random_bounded_lp(rng)
            n = a_mat.shape[1]
            lp = LinearProgram(a_mat, b)
            prev = solve(lp, rng.normal(size=n))
            for i in np.flatnonzero(prev.point > 0):
                c = np.eye(1, n, i)[0]
                v = prev.point[i]
                if solve(lp, c).objective_value <= v + 1e-6:
                    continue
                below = solve(lp, c, start=prev, stop_above=np.nextafter(v, -np.inf))
                assert below.pivots == 0 and np.array_equal(below.point, prev.point)
                at = solve(lp, c, start=prev, stop_above=v)
                assert at.pivots > 0 and at.objective_value > v
                n_cases += 1
