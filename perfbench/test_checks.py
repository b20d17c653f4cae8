"""Each correctness check of the benchmark rejects a corrupted output.

Run from the root of a checkout:  python3 -m pytest perfbench
The outputs come from real analyses of the paper_models and dense_fit
workloads; each test corrupts one of them and expects a rejection.
"""

import dataclasses

import numpy as np
import pytest

import checks
import workloads
from run import ROOT, Program


@pytest.fixture(scope="module")
def prog():
    return Program()


def outputs_of(workload):
    return {a.key: (a, a.read(a.run())) for a in workload.analyses}


@pytest.fixture(scope="module")
def paper(prog):
    return outputs_of(workloads.paper_models(prog, 0, ROOT))


@pytest.fixture(scope="module")
def dense(prog):
    return outputs_of(workloads.dense_fit(prog, 0, ROOT))


def with_face(out, in_face):
    return dataclasses.replace(out, in_face=in_face)


def test_clean_outputs_pass(paper, dense):
    for a, out in [*paper.values(), *dense.values()]:
        workloads.common_checks(a, out)
    workloads.check_paper_pass({k: out for k, (_, out) in paper.items()})


def paper_model(paper):
    return paper[workloads.PAPER_MODEL]


def test_flipped_positive_cell_rejected(paper):
    a, out = paper_model(paper)
    face = out.in_face.copy()
    face[np.flatnonzero(a.counts > 0)[0]] = False
    with pytest.raises(checks.CheckFailed):
        workloads.common_checks(a, with_face(out, face))


@pytest.mark.parametrize("which", ["zero cell in the face", "zero cell off the face"])
def test_flipped_zero_cell_rejected(paper, which):
    a, out = paper_model(paper)
    inside = a.counts == 0
    inside &= out.in_face if which == "zero cell in the face" else ~out.in_face
    face = out.in_face.copy()
    i = np.flatnonzero(inside)[0]
    face[i] = not face[i]
    with pytest.raises(checks.CheckFailed):
        workloads.common_checks(a, with_face(out, face))


def test_flipped_cell_differs_from_highs(paper):
    pytest.importorskip("scipy")
    a, out = paper_model(paper)
    ref = checks.highs_facial_set(a.coords, a.counts, a.generators)
    checks.same_face(out.in_face, ref, "HiGHS")
    face = out.in_face.copy()
    i = np.flatnonzero(a.counts == 0)[0]
    face[i] = not face[i]
    with pytest.raises(checks.CheckFailed):
        checks.same_face(face, ref, "HiGHS")


@pytest.mark.parametrize("workload", ["paper", "dense"])
def test_scaled_means_rejected(paper, dense, workload):
    for a, out in (paper if workload == "paper" else dense).values():
        bad = dataclasses.replace(out, fitted=out.fitted * 1.01)
        with pytest.raises(checks.CheckFailed):
            workloads.common_checks(a, bad)


def test_scaled_means_change_loglik(dense):
    for a, out in dense.values():
        checks.loglik_matches(a.counts, out.fitted, out.info["max_loglik"])
        with pytest.raises(checks.CheckFailed):
            checks.loglik_matches(a.counts, out.fitted * 1.01, out.info["max_loglik"])


@pytest.mark.parametrize("rows,crit", [(workloads.CBIC_ROWS, "cbic"), (workloads.BIC_ROWS, "bic")])
@pytest.mark.parametrize("i", range(4))
def test_swapped_adjacent_criteria_rejected(paper, rows, crit, i):
    outs = {k: out for k, (_, out) in paper.items()}
    g1, g2 = rows[i][0], rows[i + 1][0]
    outs[g1] = dataclasses.replace(outs[g1], info={**outs[g1].info, crit: outs[g2].info[crit]})
    outs[g2] = dataclasses.replace(outs[g2], info={**outs[g2].info, crit: paper[g1][1].info[crit]})
    with pytest.raises(checks.CheckFailed):
        workloads.check_paper_pass(outs)


def test_paper_model_face_dimension_rejected(paper):
    outs = {k: out for k, (_, out) in paper.items()}
    out = outs[workloads.PAPER_MODEL]
    outs[workloads.PAPER_MODEL] = dataclasses.replace(out, info={**out.info, "face_dimension": 24})
    with pytest.raises(checks.CheckFailed):
        workloads.check_paper_pass(outs)


def test_cli_exit_code_5_rejected(paper):
    a, _ = paper_model(paper)
    code, out, err = a.run()
    assert code == 0
    with pytest.raises(checks.OperationFailed):
        a.read((5, out, "error: numerical failure"))
