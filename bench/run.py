"""Benchmark gpca end to end (--trace 0) or per layer (--trace 1).

Usage, from the repository root:

    python3 bench/run.py --workload segment-highM --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md for the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: on a shared 2-core machine two OpenBLAS threads made a
# segment-highM pass 20-45% slower, and more variable, than one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Set-ups made in one run; setup_s reports their median.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(args, workdir):
    """Import gpca, make the workload's inputs and run one untimed pass.

    Returns (workload, seconds). gpca and numpy load once per process, so
    the import is timed once; making the inputs and the warm-up pass are
    repeated SETUP_REPEATS times, in fresh folders, and their median is
    added to it.
    """
    start = perf_counter()
    if not (SRC / "gpca" / "__init__.py").is_file():
        raise SystemExit(f"error: no gpca sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gpca

    if Path(gpca.__file__).resolve().parent != SRC / "gpca":
        raise SystemExit(f"error: imported gpca from {gpca.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    import_s = perf_counter() - start
    repeats = []
    for repeat in range(SETUP_REPEATS):
        start = perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir / f"setup{repeat}")
        workload.setup()
        for _, call in workload.calls(0):
            call()
        repeats.append(perf_counter() - start)
    return workload, import_s + statistics.median(repeats)


def run_passes(workload, seconds, tracer=None):
    """Whole rounds until `seconds` of pass time; returns per-pass records.

    A record is (pass wall time, one (call name, Outcome) per call). Every
    round makes the same calls, so the share of failed calls does not
    depend on how many rounds fit in the time. Checks run after the pass
    clock stops.
    """
    from workloads import Outcome

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    records = []
    spent = 0.0
    while spent < seconds or not records:
        for k in range(workload.ROUND):
            calls = workload.calls(k)
            outputs = []
            start = perf_counter()
            with span("pass"):
                for name, call in calls:
                    with span(f"call.{name}"):
                        outputs.append(_attempt(call))
            elapsed = perf_counter() - start
            spent += elapsed
            outcomes = []
            for index, ((name, _), (value, error)) in enumerate(zip(calls, outputs)):
                if error is not None:
                    outcome = Outcome([f"raised {type(error).__name__}: {error}"])
                else:
                    outcome = workload.check(k, index, value)
                outcomes.append((name, outcome))
            records.append((elapsed, outcomes))
    return records


def _attempt(call):
    """(output, None) on return; (None, exception) if the call raised."""
    try:
        return call(), None
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return None, exc


def end_to_end(records, setup_s):
    """The six end-to-end metrics, over the passes of an untraced run.

    angle_error_deg is the geometric mean, over the kinds of call (an input
    size, a sweep algorithm, a CLI command), of each kind's median angle
    error. The errors are bimodal within a kind (a K-subspaces or EM run
    from a random start lands 10-40 degrees off in about a fifth of the
    sweep's cells; two close subspaces push gpca tens of degrees off), so a
    mean moves with how many such calls a seed draws; and kinds differ in
    scale, so one median over all of them moves with where the kinds meet.
    """
    good = [o for _, passed in records for _, o in passed if not o.problems]
    by_kind = collections.defaultdict(list)
    for o in good:
        for kind, angle in o.angles_deg:
            by_kind[kind].append(angle)
    accuracies = [a for o in good for a in o.accuracies_pct]
    pass_times = [t for t, _ in records]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(good) / sum(pass_times), "op/s"),
        "op_p50_s": (statistics.median(pass_times), "s"),
        "angle_error_deg": (
            statistics.geometric_mean(statistics.median(v) for v in by_kind.values()),
            "deg",
        ),
        "accuracy_pct": (statistics.fmean(accuracies), "%"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload, setup_s = set_up(args, workdir)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        records = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [(name, o) for _, passed in records for name, o in passed]
    failed = [(name, o) for name, o in calls if o.problems]
    for problem in sorted({f"{name}: {p}" for name, o in failed for p in o.problems}):
        print(f"failed check: {problem}", file=sys.stderr)
    # A failed call of a fault the workload names (see the README) is
    # expected; any other failed call means an output was wrong.
    correct = all(name in workload.known_faults for name, _ in failed)
    e2e = end_to_end(records, setup_s)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(records))
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        header = {
            "workload": args.workload,
            "seed": args.seed,
            "passes": len(records),
            "op_p50_s": e2e["op_p50_s"][0],
        }
        tracer.write(path, header)
        print(f"traced op_p50_s={e2e['op_p50_s'][0]!r}; spans in {path}", file=sys.stderr)
    else:
        metrics = e2e
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(calls),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
