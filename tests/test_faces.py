import importlib.util
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseloglin import (
    ContingencyTable,
    FactorSpec,
    build_design,
    find_facial_set,
    mle_exists,
    parse_formula,
    parse_generators,
    per_cell_oracle,
)
from sparseloglin import lp as lpmod
from sparseloglin.datasets import example3x3x3, haberman, rochdale
from sparseloglin.faces import _presolve
from sparseloglin.formula import ModelFormula, Term, hierarchical_closure
from sparseloglin.lp import SUPPORT_TOL, LinearProgram, solve

from conftest import (
    cell_labels,
    highs_facial_set,
    iter_instances,
    make_table,
    margin,
    presolve_reference,
    relabel,
    three_way_instance,
)
from test_acceptance import BIC_ROWS, CBIC_ROWS

# The 9 distinct models of the reference cBIC and BIC tables, in table
# order, with the number of zero cells each presolves.
PAPER_MODELS = list(dict.fromkeys(gens for gens, _ in CBIC_ROWS + BIC_ROWS))
PAPER_PRESOLVED = [60, 60, 60, 60, 32, 0, 0, 32, 0]


@pytest.fixture(scope="module")
def fs(haberman_table):
    return find_facial_set(haberman_table, parse_generators("[ab][ac][bc]"))


@pytest.fixture(scope="module")
def fs3(table3x3x3):
    return find_facial_set(table3x3x3, parse_generators("[ab][bc][ac]"))


@pytest.fixture(scope="module")
def sweep():
    out = []
    for table, model in iter_instances(120, seed=99):
        out.append((table, model, find_facial_set(table, model)))
    return out


@pytest.fixture(scope="module")
def paper_faces():
    table = rochdale()
    out = []
    for gens in PAPER_MODELS:
        model = parse_generators(gens)
        design = build_design(table, model)
        out.append((table, model, design, find_facial_set(table, model, design=design)))
    return out


def max_cell_mass(design, counts, cells):
    """max a_i over a >= 0 with X'a = t', by one LP per cell on the full design."""
    xt = design.matrix.T
    problem = LinearProgram(xt, xt @ (counts > 0).astype(np.float64))
    sol = None
    out = []
    for i in cells:
        c = np.zeros(design.matrix.shape[0])
        c[i] = 1.0
        sol = solve(problem, c, start=sol)
        out.append(sol.objective_value)
    return np.array(out)


class TestHaberman:
    def test_excluded_cells(self, fs):
        assert np.flatnonzero(~fs.in_face).tolist() == [0, 7]

    def test_face_dimension(self, fs):
        assert fs.face_dimension == 6

    def test_one_iteration(self, fs):
        assert fs.iterations == 1
        assert fs.termination == "optimal_zero"
        assert fs.status == "Optimal objective value 0"

    def test_mle_does_not_exist(self, fs):
        assert not mle_exists(fs)


class Test3x3x3:
    def test_face_is_positives_plus_131(self, fs3, table3x3x3):
        expected = table3x3x3.counts > 0
        expected[np.ravel_multi_index((0, 2, 0), table3x3x3.shape)] = True  # cell a=1,b=3,c=1
        assert np.array_equal(fs3.in_face, expected)

    def test_face_dimension_18(self, fs3):
        assert fs3.face_dimension == 18

    def test_excluded_six_cells(self, fs3, table3x3x3):
        labels = cell_labels(table3x3x3)
        excluded = {"".join(labels[i]) for i in np.flatnonzero(~fs3.in_face)}
        assert excluded == {"111", "211", "322", "332", "323", "333"}

    def test_oracle_matches(self, fs3, table3x3x3):
        oracle = per_cell_oracle(table3x3x3, parse_generators("[ab][bc][ac]"))
        assert np.array_equal(oracle.in_face, fs3.in_face)
        assert oracle.face_dimension == fs3.face_dimension


class TestAllPositive:
    def test_face_is_everything(self):
        table = make_table((2, 2, 2), [3, 1, 2, 1, 1, 4, 1, 2])
        model = parse_generators("[ab][bc][ac]")
        fs = find_facial_set(table, model)
        assert fs.in_face.all()
        assert fs.iterations == 0
        assert fs.termination == "initial_A_empty"
        assert fs.face_dimension == 7
        assert mle_exists(fs)

    def test_no_lp_makes_no_copy_of_the_design(self):
        # all-positive 2^12 table, all-two-way model: no LP, so no
        # binarized statistic, no LP constraints and no face-row copy
        names = "abcdefghijkl"
        counts = np.random.default_rng(12).poisson(3.0, 2**12) + 1
        table = ContingencyTable(tuple(FactorSpec(n, ("0", "1")) for n in names), counts)
        model = parse_generators("".join(f"[{a}{b}]" for i, a in enumerate(names) for b in names[i + 1 :]))
        design = build_design(table, model)
        tracemalloc.start()
        try:
            fs = find_facial_set(table, model, design=design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fs.in_face.all() and fs.iterations == 0
        assert fs.face_dimension == design.d == 79
        assert peak < design.matrix.nbytes

    def test_oracle_all_positive_runs_no_lps(self):
        table = make_table((2, 2), [1, 1, 1, 1])
        oracle = per_cell_oracle(table, parse_generators("[a][b]"))
        assert oracle.in_face.all()
        assert oracle.iterations == 0


class TestPresolve:
    def test_paper_model_counts_and_off_face_sets(self, paper_faces):
        counts = [len(fs.presolved) for _t, _m, _d, fs in paper_faces]
        assert counts == PAPER_PRESOLVED
        for _table, _model, _design, fs in paper_faces:
            assert [cell for cell, _ in fs.presolved] == np.flatnonzero(~fs.in_face).tolist()

    def test_presolved_cells_carry_no_mass(self, paper_faces, sweep):
        # the reference LPs run on the full design and know nothing of margins
        instances = [(t, build_design(t, m), fs) for t, m, _d, fs in paper_faces]
        instances += [(t, build_design(t, m), fs) for t, m, fs in sweep]
        n_checked = 0
        for table, design, fs in instances:
            cells = [cell for cell, _ in fs.presolved]
            if cells:
                assert (max_cell_mass(design, table.counts, cells) <= SUPPORT_TOL).all()
                n_checked += len(cells)
        assert n_checked > sum(PAPER_PRESOLVED)  # the sweep adds cells too

    def test_generator_is_first_zero_margin(self, paper_faces, sweep):
        cases = [(t, m, fs) for t, m, _d, fs in paper_faces] + sweep
        for table, model, fs in cases:
            binary = ContingencyTable(table.factors, table.counts > 0)
            coords = table.cell_coords()
            for cell, gen in fs.presolved:
                first = None
                for g in model.generators:
                    keep = [k for k, name in enumerate(table.factor_names) if name in g]
                    cube = margin(binary, g).reshape([table.shape[k] for k in keep])
                    if cube[tuple(coords[cell][keep])] == 0:
                        first = g
                        break
                assert first is not None and gen == tuple(n for n in table.factor_names if n in first)

    def test_every_zero_presolved_runs_no_lp(self):
        table = make_table((2, 2), [1, 1, 0, 0])  # the a=1 margin is zero
        fs = find_facial_set(table, parse_generators("[a][b]"))
        assert fs.presolved == ((2, ("a",)), (3, ("a",)))
        assert fs.iterations == 0
        assert fs.termination == "all_zeros_presolved"
        assert fs.status == "Every sampling zero lies in a zero margin; no LP needed"
        assert fs.removed_per_iteration == ()
        assert np.flatnonzero(~fs.in_face).tolist() == [2, 3]
        assert fs.face_dimension == 2

    def test_oracle_skips_presolved_cells(self, paper_faces):
        table, model, design, fs = paper_faces[0]
        oracle = per_cell_oracle(table, model, design=design)
        assert oracle.iterations == 165 - 60 == 105
        assert oracle.presolved == fs.presolved
        assert np.array_equal(oracle.in_face, fs.in_face)


def assert_presolve_matches_reference(table, model):
    pairs, mask = _presolve(table, model)
    ref_pairs, ref_mask = presolve_reference(table, model)
    assert pairs == ref_pairs
    assert mask.dtype == bool and np.array_equal(mask, ref_mask)
    return pairs


@st.composite
def presolve_cases(draw):
    """1-5 factors of 2-4 levels, a random hierarchical model and a zero pattern with a positive cell."""
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=5)))
    names = "abcde"[: len(shape)]
    gens = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.where(rng.random(int(np.prod(shape))) < draw(st.sampled_from([0.2, 0.6, 0.9, 1.0])), 0, 1)
    counts[draw(st.integers(0, counts.size - 1))] = 3
    return make_table(shape, counts), ModelFormula("freq", hierarchical_closure(Term(g) for g in gens))


class TestPresolveReference:
    """``_presolve``, which reads the positive cells' margin codes, against ``presolve_reference``."""

    def test_sweep_paper_models_3x3x3_and_haberman(self, paper_faces):
        n_cells = sum(len(assert_presolve_matches_reference(t, m)) for t, m in iter_instances(1500))
        assert n_cells == 2834
        assert [len(assert_presolve_matches_reference(t, m)) for t, m, _d, _f in paper_faces] == PAPER_PRESOLVED
        for table in (example3x3x3(), haberman()):
            for gens in ("[a][b][c]", "[ab][c]", "[ab][ac][bc]", "[abc]"):
                assert_presolve_matches_reference(table, parse_generators(gens))

    @pytest.mark.parametrize("p0", [0.5, 0.85, 0.97])
    @pytest.mark.parametrize("k", range(8, 13))
    def test_three_way(self, k, p0):
        for seed in range(4):
            assert_presolve_matches_reference(*three_way_instance(seed, k, p0))

    def test_blocks_of_one_generator(self):
        # more than 2^14 positive cells, so each block holds one generator's codes
        counts = np.random.default_rng(5).poisson(1.0, 4**8)
        counts.reshape((4,) * 8)[0, 0] = 0  # one zero [ab] margin cell
        table = make_table((4,) * 8, counts)
        gens = "".join(f"[{a}{b}]" for i, a in enumerate("abcdefgh") for b in "abcdefgh"[i + 1 :])
        pairs = assert_presolve_matches_reference(table, parse_generators(gens))
        assert np.count_nonzero(counts) > 2**14
        assert [cell for cell, _ in pairs] == list(range(4**6)) and {gen for _, gen in pairs} == {("a", "b")}

    @given(presolve_cases())
    def test_random_models_and_zero_patterns(self, case):
        assert_presolve_matches_reference(*case)

    def test_intercept_only_presolves_nothing(self):
        table = make_table((2, 3), [0, 0, 0, 0, 0, 5])
        assert assert_presolve_matches_reference(table, parse_formula("freq ~ 1")) == ()

    def test_main_effects_only(self):
        table = make_table((2, 3), [1, 0, 2, 0, 0, 0])  # a=1 and b=1 are zero margins
        pairs = assert_presolve_matches_reference(table, parse_generators("[a][b]"))
        assert pairs == ((1, ("b",)), (3, ("a",)), (4, ("a",)), (5, ("a",)))

    def test_saturated_model_presolves_every_zero(self):
        table, _ = three_way_instance(2, 8, 0.85)
        pairs = assert_presolve_matches_reference(table, parse_generators("[abcdefgh]"))
        assert [cell for cell, _ in pairs] == np.flatnonzero(table.counts == 0).tolist()
        assert {gen for _, gen in pairs} == {tuple("abcdefgh")}

    def test_one_positive_cell(self):
        counts = np.zeros(3 * 4, dtype=np.int64)
        counts[np.ravel_multi_index((1, 2), (3, 4))] = 7
        table = make_table((3, 4), counts)
        pairs = assert_presolve_matches_reference(table, parse_generators("[a][b]"))
        assert len(pairs) == 11
        assert [gen for cell, gen in pairs if cell // 4 == 1] == [("b",)] * 3
        assert {gen for cell, gen in pairs if cell // 4 != 1} == {("a",)}

    def test_mixed_levels(self):
        shape = (3, 4, 2, 5)
        rng = np.random.default_rng(3425)
        table = make_table(shape, np.where(rng.random(120) < 0.8, 0, rng.poisson(2.0, 120) + 1))
        for gens in ("[ab][bcd][ad]", "[abc][d]", "[ac][bd]", "[abcd]"):
            assert_presolve_matches_reference(table, parse_generators(gens))

    @pytest.mark.parametrize("p0", [0.5, 0.97])
    def test_peak_memory_at_4096_cells(self, p0):
        table, model = three_way_instance(0, 12, p0)
        model.generators  # computed once per model, before the trace
        tracemalloc.start()
        try:
            _presolve(table, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestSpanClosure:
    def test_paper_models_run_no_lp(self, paper_faces):
        for table, _model, _design, fs in paper_faces:
            assert fs.iterations == 0
            assert fs.termination == "all_cells_in_face"
            assert fs.span_closed and fs.removed_per_iteration == (fs.span_closed,)
            closed = sorted([cell for cell, _ in fs.presolved] + list(fs.span_closed))
            assert closed == np.flatnonzero(table.counts == 0).tolist()

    def test_rochdale_all_two_way_runs_no_lp(self):
        table = rochdale()
        names = table.factor_names
        model = parse_generators("".join(f"[{a}{b}]" for i, a in enumerate(names) for b in names[i + 1 :]))
        fs = find_facial_set(table, model)
        assert fs.iterations == 0
        assert fs.in_face.all() and fs.face_dimension == 37
        assert list(fs.span_closed) == np.flatnonzero(table.counts == 0).tolist()

    def test_3x3x3_closes_cell_131_and_runs_one_lp(self, fs3, table3x3x3):
        assert fs3.iterations == 1
        assert fs3.termination == "optimal_zero"
        assert fs3.span_closed == (np.ravel_multi_index((0, 2, 0), table3x3x3.shape),)
        assert fs3.removed_per_iteration == (fs3.span_closed,)

    def test_haberman_runs_one_lp(self, fs):
        assert fs.iterations == 1
        assert fs.span_closed == ()

    def test_closure_builds_no_lp_inputs(self):
        # sparse 2^12 table, all-two-way model: the positive rows have
        # full rank, so no LP, no LP constraints and no binarized statistic
        names = "abcdefghijkl"
        rng = np.random.default_rng([1, 12, 2])
        counts = np.where(rng.random(2**12) < 0.6, 0, rng.poisson(2.0, 2**12) + 1)
        table = ContingencyTable(tuple(FactorSpec(n, ("0", "1")) for n in names), counts)
        model = parse_generators("".join(f"[{a}{b}]" for i, a in enumerate(names) for b in names[i + 1 :]))
        design = build_design(table, model)
        tracemalloc.start()
        try:
            fs = find_facial_set(table, model, design=design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fs.iterations == 0 and fs.in_face.all()
        assert len(fs.span_closed) == len(np.flatnonzero(table.counts == 0)) > 0.5 * table.n_cells
        assert fs.face_dimension == design.d == 79
        assert peak < design.matrix.nbytes


class TestLoopLps:
    @pytest.mark.parametrize("seed, k, iterations", [(0, 8, 1), (1, 8, 2), (1, 9, 2)])
    def test_each_lp_runs_to_its_optimum(self, monkeypatch, seed, k, iterations):
        # the loop's LPs are not stopped early: each one's objective is
        # that of a cold solve of the same objective
        solved = []

        def recorded(problem, objective, *args, **kwargs):
            sol = solve(problem, objective, *args, **kwargs)
            solved.append((problem, objective, sol))
            return sol

        monkeypatch.setattr(lpmod, "solve", recorded)
        table, model = three_way_instance(seed, k)
        assert find_facial_set(table, model).iterations == len(solved) == iterations
        for problem, objective, sol in solved:
            assert sol.objective_value == pytest.approx(solve(problem, objective).objective_value, abs=1e-9)


class TestOneProgramPerCall:
    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        monkeypatch.setattr(lpmod, "LinearProgram", lambda *args: built.append(args) or LinearProgram(*args))
        return built

    def test_oracle_builds_one_for_all_its_lps(self, built, paper_faces):
        table, model, design, _fs = paper_faces[0]
        assert per_cell_oracle(table, model, design=design).iterations == 105
        assert len(built) == 1

    def test_find_builds_one_when_it_runs_lps(self, built):
        table, model = three_way_instance(1)
        assert find_facial_set(table, model).iterations == 2
        assert len(built) == 1

    def test_find_builds_none_without_lps(self, built, paper_faces):
        cases = [
            (make_table((2, 2, 2), [3, 1, 2, 1, 1, 4, 1, 2]), parse_generators("[ab][bc][ac]"), "initial_A_empty"),
            (make_table((2, 2), [1, 1, 0, 0]), parse_generators("[a][b]"), "all_zeros_presolved"),
            (*paper_faces[0][:2], "all_cells_in_face"),  # every zero presolved or span-closed
        ]
        for table, model, termination in cases:
            fs = find_facial_set(table, model)
            assert (fs.iterations, fs.termination) == (0, termination)
        assert built == []


class TestErrors:
    def test_all_zero_table(self):
        table = make_table((2, 2), [0, 0, 0, 0])
        with pytest.raises(ValueError, match="all-zero"):
            find_facial_set(table, parse_generators("[a][b]"))
        with pytest.raises(ValueError, match="all-zero"):
            per_cell_oracle(table, parse_generators("[a][b]"))


class TestInvariants:
    # 120 instances here; the full 500-instance sweep runs in the
    # acceptance suite

    def test_positive_cells_always_in_face(self, sweep):
        for table, _model, fs in sweep:
            assert fs.in_face[table.counts > 0].all()

    def test_oracle_equivalence(self, sweep):
        for table, model, fs in sweep:
            oracle = per_cell_oracle(table, model)
            assert np.array_equal(oracle.in_face, fs.in_face)

    def test_no_lp_exactly_when_zeros_in_span(self, sweep):
        n_without_lp = 0
        for table, model, fs in sweep:
            x = build_design(table, model).matrix
            positive = table.counts > 0
            rank = np.linalg.matrix_rank(x[positive])
            presolved = {cell for cell, _ in fs.presolved}
            unpresolved = [i for i in np.flatnonzero(table.counts == 0) if i not in presolved]
            in_span = all(np.linalg.matrix_rank(np.vstack((x[positive], x[i]))) == rank for i in unpresolved)
            assert (fs.iterations == 0) == in_span
            n_without_lp += in_span
            # every LP rescues a batch, but for an optimal-zero last one
            lp_batches = [b for b in fs.removed_per_iteration if not set(b) <= set(fs.span_closed)]
            assert fs.iterations == len(lp_batches) + (fs.termination == "optimal_zero")
        assert 0 < n_without_lp < len(sweep)

    def test_face_dimension_bounds(self, sweep):
        from sparseloglin import build_design

        for table, model, fs in sweep:
            d = build_design(table, model).d
            assert 1 <= fs.face_dimension <= d
            if fs.in_face.all():
                assert fs.face_dimension == d

    def test_zero_pattern_invariance(self, sweep):
        rng = np.random.default_rng(5)
        for table, model, fs in sweep[:60]:
            counts = table.counts.copy()
            pos = counts > 0
            counts[pos] *= rng.integers(1, 9, size=int(pos.sum()))
            scaled = make_table(table.shape, counts)
            fs2 = find_facial_set(scaled, model)
            assert np.array_equal(fs2.in_face, fs.in_face)
            assert fs2.face_dimension == fs.face_dimension

    def test_pivot_order_independence(self, sweep):
        # a relabelled table orders the LP's variables differently and
        # recodes the design; reversing every factor's levels reverses
        # the variables, and a random relabelling shuffles them
        rng = np.random.default_rng(11)
        n_with_lp = 0
        for table, model, fs in sweep[:60]:
            k = len(table.shape)
            for order, flip in [(range(k), range(k)), (rng.permutation(k), np.flatnonzero(rng.random(k) < 0.5))]:
                relabelled, cells = relabel(table, tuple(order), tuple(flip))
                fs2 = find_facial_set(relabelled, model)
                assert np.array_equal(fs2.in_face, fs.in_face[cells])
                assert fs2.face_dimension == fs.face_dimension
            n_with_lp += fs.iterations > 0
        assert n_with_lp > 0

    def test_removed_trace_partitions_rescued_cells(self, sweep):
        for table, _model, fs in sweep:
            rescued = set(np.flatnonzero(fs.in_face & (table.counts == 0)))
            traced = [i for batch in fs.removed_per_iteration for i in batch]
            assert len(traced) == len(set(traced))
            assert set(traced) == rescued


class TestOracle:
    @pytest.mark.parametrize("seed, k, p0", [(1, 9, 0.85), (0, 10, 0.92)])
    def test_larger_three_way_rungs(self, seed, k, p0):
        # hundreds of warm LPs on 130 and 176 rows, each ended at its
        # first witnessing vertex or at an optimum of 0
        table, model = three_way_instance(seed, k, p0)
        design = build_design(table, model)
        fs = find_facial_set(table, model, design=design)
        oracle = per_cell_oracle(table, model, design=design)
        assert oracle.iterations == (table.counts == 0).sum() - len(oracle.presolved)
        assert np.array_equal(oracle.in_face, fs.in_face)
        assert oracle.face_dimension == fs.face_dimension
        if importlib.util.find_spec("scipy") is not None:
            assert np.array_equal(oracle.in_face, highs_facial_set(design, table.counts))

    def test_every_yes_carries_its_witness(self, monkeypatch, paper_faces, table3x3x3):
        solved = []

        def recorded(problem, objective, *args, **kwargs):
            sol = solve(problem, objective, *args, **kwargs)
            solved.append((int(np.argmax(objective)), sol))
            return sol

        monkeypatch.setattr(lpmod, "solve", recorded)
        cases = [paper_faces[0][:2], (table3x3x3, parse_generators("[ab][bc][ac]"))]
        cases += list(iter_instances(60, seed=23))
        n_witnessed = 0
        for table, model in cases:
            solved.clear()
            oracle = per_cell_oracle(table, model)
            xt = build_design(table, model).matrix.T
            t_prime = xt @ (table.counts > 0).astype(np.float64)
            zeros = [cell for cell, _ in solved]
            assert zeros == [i for i in np.flatnonzero(table.counts == 0) if i not in dict(oracle.presolved)]
            for cell, sol in solved:
                if oracle.in_face[cell]:
                    a = sol.point
                    assert (a >= 0).all()
                    assert np.abs(xt @ a - t_prime).max() <= 1e-9
                    assert a[cell] > SUPPORT_TOL
                    n_witnessed += 1
                else:
                    assert sol.objective_value <= SUPPORT_TOL
        assert n_witnessed > 0
