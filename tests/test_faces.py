import tracemalloc

import numpy as np
import pytest

from sparseloglin import (
    ContingencyTable,
    FactorSpec,
    LinearProgram,
    binarize,
    build_design,
    find_facial_set,
    marginal,
    mle_exists,
    parse_generators,
    per_cell_oracle,
    solve,
)
from sparseloglin.datasets import rochdale
from sparseloglin.lp import SUPPORT_TOL

from conftest import iter_instances, make_table, relabel
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
    t_prime = xt @ (counts > 0).astype(np.float64)
    basis = None
    out = []
    for i in cells:
        c = np.zeros(design.n_cells)
        c[i] = 1.0
        sol = solve(LinearProgram(c, xt, t_prime), start=basis)
        basis = sol.basis
        out.append(sol.objective_value)
    return np.array(out)


class TestHaberman:
    def test_excluded_cells(self, fs):
        assert fs.excluded_cells().tolist() == [0, 7]

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
        expected[table3x3x3.flat_index((0, 2, 0))] = True  # cell a=1,b=3,c=1
        assert np.array_equal(fs3.in_face, expected)

    def test_face_dimension_18(self, fs3):
        assert fs3.face_dimension == 18

    def test_excluded_six_cells(self, fs3, table3x3x3):
        labels = table3x3x3.cell_labels()
        excluded = {"".join(labels[i]) for i in fs3.excluded_cells()}
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
        # binarized statistic, no transposed design and no face-row copy
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
            assert [cell for cell, _ in fs.presolved] == fs.excluded_cells().tolist()

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
            binary = binarize(table)
            coords = table.cell_coords()
            for cell, gen in fs.presolved:
                first = None
                for g in model.generators:
                    keep = [k for k, name in enumerate(table.factor_names) if name in g]
                    cube = marginal(binary, g).reshape([table.shape[k] for k in keep])
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
        assert fs.excluded_cells().tolist() == [2, 3]
        assert fs.face_dimension == 2

    def test_oracle_skips_presolved_cells(self, paper_faces):
        table, model, design, fs = paper_faces[0]
        oracle = per_cell_oracle(table, model, design=design)
        assert oracle.iterations == 165 - 60 == 105
        assert oracle.presolved == fs.presolved
        assert np.array_equal(oracle.in_face, fs.in_face)


class TestSpanClosure:
    def test_paper_models_run_no_lp(self, paper_faces):
        for table, _model, _design, fs in paper_faces:
            assert fs.iterations == 0
            assert fs.termination == "all_cells_in_face"
            assert fs.span_closed and fs.removed_per_iteration == (fs.span_closed,)
            closed = sorted([cell for cell, _ in fs.presolved] + list(fs.span_closed))
            assert closed == table.zero_cells().tolist()

    def test_rochdale_all_two_way_runs_no_lp(self):
        table = rochdale()
        names = table.factor_names
        model = parse_generators("".join(f"[{a}{b}]" for i, a in enumerate(names) for b in names[i + 1 :]))
        fs = find_facial_set(table, model)
        assert fs.iterations == 0
        assert fs.in_face.all() and fs.face_dimension == 37
        assert list(fs.span_closed) == table.zero_cells().tolist()

    def test_3x3x3_closes_cell_131_and_runs_one_lp(self, fs3, table3x3x3):
        assert fs3.iterations == 1
        assert fs3.termination == "optimal_zero"
        assert fs3.span_closed == (table3x3x3.flat_index((0, 2, 0)),)
        assert fs3.removed_per_iteration == (fs3.span_closed,)

    def test_haberman_runs_one_lp(self, fs):
        assert fs.iterations == 1
        assert fs.span_closed == ()

    def test_closure_builds_no_lp_inputs(self):
        # sparse 2^12 table, all-two-way model: the positive rows have
        # full rank, so no LP, no transposed design and no binarized statistic
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
        assert len(fs.span_closed) == len(table.zero_cells()) > 0.5 * table.n_cells
        assert fs.face_dimension == design.d == 79
        assert peak < design.matrix.nbytes


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
            unpresolved = [i for i in table.zero_cells() if i not in presolved]
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
