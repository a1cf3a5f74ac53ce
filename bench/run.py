"""Benchmark of the `hrg` command line: one workload and one seed per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one in-process `hrg.cli.run_command(argv)` call with stdout
captured, in a closed loop: the next op starts when the last one returns.
A run repeats whole cycles of the workload's command list (workloads.py),
and stops before the next cycle would pass --seconds, so every run has the
same mix.  Every output is checked (checks.py) outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced cycles and prints the per-layer metrics of the traced ones
(tracing.py), per traced cycle, with the tracing overhead; its spans go to
bench/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The program is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import check_cycle
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
PROBLEMS_SHOWN = 20


def load_cli():
    """Import `hrg.cli` from the source tree next to the benchmark, with one
    BLAS thread.

    The thread count must be set before numpy loads.  With OpenBLAS's
    default of one thread per core, the same `observables` op took 2.6 to
    4.0 s on a 2-core machine; with one thread, 3.9 to 4.4 s.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import hrg.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import hrg from {SRC}: {exc}")
    if Path(hrg.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: hrg was imported from {hrg.cli.__file__}, not from {SRC}")
    return hrg.cli


class Tally:
    """Ops attempted and failed, and the problems the output checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []  # one line per failed op
        self.problems = []  # one line per failed check


def run_op(cli, argv) -> tuple:
    """(return code, stdout, stderr, seconds) of one command."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.run_command(list(argv))
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def run_cycle(cli, ops, tally: Tally, tracer=None) -> list:
    """Run one cycle and check it; returns the times of the ops that completed."""
    results, times = [], []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        rc, text, err, seconds = run_op(cli, op.argv)
        tally.attempted += 1
        if rc != 0:
            tally.failed += 1
            tally.errors.append(f"{' '.join(op.argv)}: exit {rc}: {err.strip()}")
            continue
        results.append((op, text))
        times.append(seconds)
    tally.problems += check_cycle(results)
    return times


def _next_cycle_fits(t_start: float, cycles: int, seconds: float) -> bool:
    elapsed = perf_counter() - t_start
    return elapsed + elapsed / cycles <= seconds


def measure_setup(workload: str, seed: int, seconds: float) -> float:
    """Median time from starting a fresh interpreter to ready for the first
    op (import hrg, build the inputs), over SETUP_PROBES probes run one at a
    time.  A probe is this run's own command line with --probe added."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe exited {proc.returncode} without getting ready")
        times.append(elapsed)
    return statistics.median(times)


def timed_run(cli, ops, seconds: float, tally: Tally) -> dict:
    times = []
    cycles = 0
    t_start = perf_counter()
    while True:
        times += run_cycle(cli, ops, tally)
        cycles += 1
        if not _next_cycle_fits(t_start, cycles, seconds):
            break
    if not times:
        raise SystemExit("bench: no op completed")
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
    }


def traced_run(cli, ops, seconds: float, tally: Tally, spans_path: Path) -> dict:
    tracer = Tracer()
    plain, traced = [], []
    pairs = 0
    t_start = perf_counter()
    while True:
        plain += run_cycle(cli, ops, tally)
        tracer.install()
        try:
            traced += run_cycle(cli, ops, tally, tracer)
        finally:
            tracer.remove()
        pairs += 1
        if not _next_cycle_fits(t_start, 2 * pairs, seconds):
            break
    if not plain or not traced:
        raise SystemExit("bench: no op completed")
    metrics = layer_metrics(tracer, pairs)
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "1/s"}
    metrics["trace.ops_per_s_change"] = {"value": 100.0 * (traced_rate / plain_rate - 1.0), "unit": "%"}
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    cli = load_cli()
    ops = WORKLOADS[args.workload](args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    tally = Tally()
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = traced_run(cli, ops, args.seconds, tally, spans_path)
    else:
        setup_s = measure_setup(args.workload, args.seed, args.seconds)
        metrics = timed_run(cli, ops, args.seconds, tally)
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            **metrics,
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        }
    for line in (tally.errors + tally.problems)[:PROBLEMS_SHOWN]:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
