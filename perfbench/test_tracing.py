"""The tracer records the calls the program makes and then steps aside.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import tracing
from run import PACKAGE, Program


def test_spans_match_what_the_calls_return():
    prog = Program()
    table = prog.datasets.example3x3x3()
    model = prog.sl.parse_generators("[ab][ac][bc]")
    original = prog.sl.faces.find_facial_set
    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    try:
        tracer.pass_index = 0
        fs = prog.sl.find_facial_set(table, model)
        res = prog.sl.fit(table, model, fs)
    finally:
        tracer.uninstall()
    assert prog.sl.faces.find_facial_set is original

    metrics, rows = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["lp.solves"] == metrics["faces.lp_solves"] == fs.iterations
    assert metrics["faces.cells_rescued"] == sum(len(r) for r in fs.removed_per_iteration) == 1
    assert metrics["fit.newton_iters"] == res.n_iter
    # one design each for find_facial_set and fit; ranks in build_design
    # (twice), the face dimension and the fit
    assert metrics["design.matrix_bytes"] == 8 * 27 * 19
    assert metrics["design.rank_calls"] == 4
    assert 0 <= metrics["faces.find_self_s"] <= metrics["faces.find_s"]
    assert 0 <= metrics["fit.self_s"] <= metrics["fit.fit_s"]
    find = next(s for s in tracer.spans if s.name == "faces.find_facial_set")
    assert all(s.parent == find.id for s in tracer.spans if s.name == "lp.solve")
