#!/usr/bin/env python3
"""vortexlab benchmark.

    python3 benchmark/run.py --workload decay-dns --seed 1 --seconds 20 --trace 0

Runs one workload against the vortexlab sources of this checkout
(``src/vortexlab``) and prints, as the last line of standard output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
rounds alternate between untraced and traced and the metrics are the
per-layer ones, derived from the spans, plus the tracing overhead.  Spans
of a traced run are written to ``benchmark/out/``.  See README.md.

An untraced run also starts ``SETUP_PROCESSES - 1`` copies of itself with
``--setup-only``, one after the other: each imports vortexlab, makes the
inputs and makes the warm-up call in a fresh process, so every set-up it
times is a cold one.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROCESSES = 3
SETUP_TIMEOUT_S = 60
TAIL_PERCENTILE = 75
TRACED_ROUNDS = 3


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workload_names))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import vortexlab from this checkout; returns the CPU seconds it took."""
    src = ROOT / "src"
    if not (src / "vortexlab" / "__init__.py").is_file():
        raise SystemExit(f"no vortexlab sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import vortexlab.cli  # noqa: F401  (imports every module)
    elapsed = time.process_time() - t0
    loaded = Path(sys.modules["vortexlab"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"imported vortexlab from {loaded}, not {src}")
    return elapsed


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass(frozen=True)
class Round:
    traced: bool
    requests: int
    wall: float   # wall seconds of the requests
    cpu: float    # CPU seconds of the requests
    total: float  # CPU seconds of the whole round, checks included


def measure(workload, seconds, tracer):
    """Whole rounds until `seconds` have passed on the wall clock and, in
    an untraced run, `workload.min_requests` requests are done.

    With a tracer, rounds alternate untraced / traced, starting untraced,
    until `TRACED_ROUNDS` of each are done.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and 2 * sum(
            r.traced for r in rounds) < len(rounds)
        requests, (wall, cpu) = workload.requests, tuple(workload.busy)
        if use_trace:
            tracer.install()
        t0 = time.process_time()
        try:
            workload.round(tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        rounds.append(Round(use_trace, workload.requests - requests,
                            workload.busy[0] - wall, workload.busy[1] - cpu,
                            time.process_time() - t0))
        if time.perf_counter() - start < seconds:
            continue
        if tracer is None and workload.requests < workload.min_requests:
            continue
        if tracer is not None and len(rounds) < 2 * TRACED_ROUNDS:
            continue
        return rounds


def end_to_end(workload, rounds, setup_s, peak_rss_mb):
    lat_ms = [1e3 * x for x in workload.latencies]
    return {
        "requests_per_s": (statistics.median(
            r.requests / r.wall for r in rounds if r.requests), "1/s"),
        "requests_per_cpu_s": (statistics.median(
            r.requests / r.cpu for r in rounds if r.requests), "1/s"),
        "request_cpu_ms_p50": (statistics.median(lat_ms), "ms"),
        "request_cpu_ms_tail": (percentile(lat_ms, TAIL_PERCENTILE), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_metrics(tracing, tracer, workload, rounds):
    return tracing.layer_metrics(
        tracer, [r.total for r in rounds if not r.traced],
        [r.total for r in rounds if r.traced], workload.drift_samples)


def new_workload(name, seed, workdir, size=None):
    import workloads

    cls, default_size = workloads.WORKLOADS[name]
    return cls(seed, workdir, size or default_size)


def timed_setup(workload):
    t0 = time.process_time()
    workload.setup()
    return time.process_time() - t0


def setup_only(name, seed, import_s):
    """CPU seconds of this process's import plus one set-up."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-setup-",
                                     dir=OUT) as workdir:
        return import_s + timed_setup(new_workload(name, seed, Path(workdir)))


def cold_setup(name, seed):
    """`setup_only` in a fresh process; returns its CPU seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def run_workload(name, seed, seconds, trace, import_s=0.0, size=None,
                 cold_setups=()):
    """One benchmark run; returns the result object that `main` prints and
    the list of failed checks.

    `size` replaces the workload's input sizes (the tests use tiny ones).
    `setup_s` is the median of this process's own set-up, `import_s` added,
    and the `cold_setups` timed in other processes.
    """
    import tracing

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = new_workload(name, seed, workdir, size)
        setup_s = import_s + timed_setup(workload)
        tracer = tracing.Tracer() if trace else None
        rounds = measure(workload, seconds, tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = traced_metrics(tracing, tracer, workload, rounds)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(workload, rounds,
                             statistics.median([setup_s, *cold_setups]),
                             peak_rss_mb)
    return {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }, workload.problems


def main(argv=None):
    import_s = import_program()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.setup_only:
        print(setup_only(args.workload, args.seed, import_s))
        return 0
    cold = [] if args.trace else [cold_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROCESSES - 1)]
    result, problems = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), import_s,
                                    cold_setups=cold)
    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
