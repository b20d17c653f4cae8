"""Benchmark of sparseloglin: whole analyses, timed and checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_models --seed 1 --seconds 15 --trace 0

It imports sparseloglin from the checkout's ``src`` (the package need
not be installed), sets up SETUPS times, then repeats whole passes over
the workload's analyses until ``--seconds`` of pass time have elapsed,
checks every output, and prints one JSON object as its last line of
standard output: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.  Details go to
perfbench/results/<workload>-trace<0|1>.json.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One process and one thread: the BLAS thread count is read once, when
# numpy is first imported by the modules below.
BLAS_THREADS = 1
if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "sparseloglin"
# Each set-up imports the package afresh, makes the inputs and runs one
# untimed pass; setup_s is the median of these.
SETUPS = 3
MODULES = ("cli", "report", "datasets")


class Program:
    """The package and the modules the workloads call, freshly imported."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / PACKAGE / "__init__.py").is_file():
            raise ImportError(f"no {PACKAGE} package under {src}")
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        if sys.path[0] != str(src):
            sys.path.insert(0, str(src))
        self.sl = importlib.import_module(PACKAGE)
        if Path(self.sl.__file__).resolve().parent != (src / PACKAGE).resolve():
            raise ImportError(f"{PACKAGE} was imported from {self.sl.__file__}, not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


@dataclass
class Tally:
    failed: int = 0
    correct: bool = True
    errors: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(workload, first, tally, tracer=None):
    """Time one pass, then check its outputs.  Returns per-analysis times.

    ``first`` maps each analysis to its output in the first pass, which
    every later pass must repeat.
    """
    times, results = {}, {}
    for a in workload.analyses:
        if tracer is not None:
            tracer.analysis = a.key
        t0 = time.perf_counter()
        try:
            results[a.key] = a.run()
        except Exception as exc:  # a failed analysis is counted, not fatal
            results[a.key] = exc
        times[a.key] = time.perf_counter() - t0

    outputs = {}
    for a in workload.analyses:
        result = results[a.key]
        try:
            if isinstance(result, Exception):
                raise checks.OperationFailed(f"{type(result).__name__}: {result}")
            out = a.read(result)
            workloads.common_checks(a, out)
            checks.same_face(out.in_face, first.setdefault(a.key, out).in_face, "the first pass")
            outputs[a.key] = out
        except checks.OperationFailed as exc:
            tally.failed += 1
            tally.errors.append(f"{a.key}: {exc}")
        except checks.CheckFailed as exc:
            tally.failed += 1
            tally.correct = False
            tally.errors.append(f"{a.key}: {exc}")
    if len(outputs) == len(workload.analyses):
        try:
            workload.check_pass(outputs)
        except checks.CheckFailed as exc:
            tally.correct = False
            tally.errors.append(f"pass: {exc}")
    return times


def final_checks(workload, prog, first, tally):
    """Checks made once per run, after timing.  Returns the HiGHS verdict."""
    highs = "skipped: scipy cannot be imported"
    try:
        for a in workload.analyses:
            ref = checks.highs_facial_set(a.coords, a.counts, a.generators)
            if ref is not None and a.key in first:
                checks.same_face(first[a.key].in_face, ref, "the HiGHS reference")
                highs = "passed"
        if len(first) == len(workload.analyses):
            workload.check_final(prog, first)
    except checks.CheckFailed as exc:
        tally.correct = False
        tally.errors.append(f"final: {exc}")
        highs = "failed"
    return highs


def main(argv=None):
    args = parse_args(argv)
    build = workloads.WORKLOADS[args.workload]

    setup_times, warm = [], Tally()
    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            prog = Program()
            workload = build(prog, args.seed, ROOT)
            made = time.perf_counter() - t0
            # the warm-up's checks run after its analyses and are not timed
            setup_times.append(made + sum(run_pass(workload, {}, warm).values()))
    except (ImportError, OSError) as exc:
        print(f"cannot set up the program: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
    # failures in the warm-up repeat in the timed passes, which count them
    tally = Tally(correct=warm.correct, errors=[f"warm-up: {e}" for e in warm.errors])
    first, pass_times, largest, per_analysis = {}, [], [], []
    try:
        while not pass_times or sum(pass_times) < args.seconds:
            if tracer is not None:
                tracer.pass_index = len(pass_times)
            times = run_pass(workload, first, tally, tracer)
            pass_times.append(sum(times.values()))
            largest.append(max(times.values()))
            per_analysis.append(times)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # read before the reference check imports scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    highs = final_checks(workload, prog, first, tally)

    n_analyses = len(workload.analyses)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "setup_times_s": setup_times,
        "pass_times_s": pass_times,
        "analysis_times_s": per_analysis,
        "peak_rss_mb": peak_rss_mb,
        "highs_check": highs,
        "errors": tally.errors[:50],
    }
    if args.trace:
        values, detail["layer_metrics_per_pass"] = tracing.layer_metrics(tracer.spans, len(pass_times))
        detail["spans"] = tracer.dump()
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "analyses_per_s": n_analyses / statistics.median(pass_times),
            "largest_analysis_s": statistics.median(largest),
            "peak_rss_mb": peak_rss_mb,
        }
    # names and units as BENCHMARK.json declares them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    detail["metrics"] = metrics

    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    for line in tally.errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    attempted = n_analyses * len(pass_times)
    print(json.dumps({"correct": tally.correct, "attempted": attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
