"""qshallow benchmark: closed-loop verdict workloads with a per-layer trace.

Usage, from the root of a checkout (nothing needs building or installing;
the package is imported from ``src/``):

    python3 bench/run.py --workload kill-campaign --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

One caller sends the next op only when the previous one has returned (a
closed loop, concurrency 1). Inputs are generated from ``--seed`` before any
timing starts, as a pool of passes. A run measures whole passes until every
pass of the pool has run once and at least ``--seconds`` have elapsed. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
measures half the time untraced and half with every layer wrapped (each half
runs the whole pool), and reports the per-layer metrics, the layer each
workload spends most time in, and whether each prediction in README.md held.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported (here and in every child process).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "decisive_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Runs in a fresh interpreter: import the package and take every lazy
# first-call cost of the paths the workloads use, on tiny inputs.
SETUP_PROBE = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qshallow as q
from numpy.random import default_rng
rng = default_rng(0)
c = q.parse_circuit(q.serialize_circuit(q.random_single_qubit_z_circuit(6, 0, 4, rng)))
q.verify_kill(c, q.kill_run(c, "basic"), trials=1)
cert = q.parity_certificate(c)
q.recheck_certificate(q.certificate_from_json(q.certificate_to_json(cert)), c)
b = q.random_bounded_arity_circuit(6, 0, 2, rng)
q.lightcone_counterexample(b, q.MeasurementSpec(b.target))
q.sensitivity_scan(b, q.MeasurementSpec(b.target))
p = q.build_parity_logdepth(2)
q.verify_clean(q.rewrite_toffoli_to_z(p), q.ReferenceOp("parity", 2))
q.robust_check(p, q.ReferenceOp("parity", 2))
elapsed = time.perf_counter() - start
print(q.__file__)
print(repr(elapsed))
"""


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_qshallow():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "qshallow" / "__init__.py").is_file():
        fail(f"no qshallow package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qshallow

    if not Path(qshallow.__file__).resolve().is_relative_to(SRC):
        fail(f"imported qshallow from {qshallow.__file__}, not from {SRC}")
    return qshallow


def measure_setup() -> float:
    """Median over fresh interpreters of import plus first-call set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            env=os.environ.copy(),
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            fail(f"set-up probe failed:\n{proc.stderr}")
        if not Path(lines[0]).resolve().is_relative_to(SRC):
            fail(f"set-up probe imported qshallow from {lines[0]}")
        times.append(float(lines[1]))
    return statistics.median(times)


@dataclass
class RunStats:
    """One measured loop. Latencies are per execution; the verdict accounting
    (``attempted``, ``failed``, ``decisive``, ``wrong``) is per distinct op of
    the pool, so it depends on the seed alone and not on the host's speed."""

    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    outcomes: dict[tuple[int, int], bytes] = field(default_factory=dict)
    failed_slots: set[tuple[int, int]] = field(default_factory=set)
    failures: Counter = field(default_factory=Counter)  # by class
    tracebacks: dict[str, str] = field(default_factory=dict)
    decisive: int = 0
    wrong: int = 0
    passes: int = 0
    wall: float = 0.0
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return len(self.failed_slots)

    @property
    def executions(self) -> int:
        return len(self.latencies)


def execute(op, key: tuple[int, int], stats: RunStats) -> None:
    """Run one op and account for it the first time its pool slot runs. A
    repeat must give the same canonical bytes, or the op counts as wrong."""
    from workloads import RUNNERS, WrongVerdict

    first = key not in stats.outcomes
    failure = None
    try:
        outcome = RUNNERS[op.kind](op)
        canonical = outcome.canonical
    except WrongVerdict as exc:
        failure, detail = "WrongVerdict", str(exc)
        canonical = b"wrong:" + detail.encode()
    except Exception as exc:  # an op that raises is counted, and the loop goes on
        failure, detail = type(exc).__name__, traceback.format_exc()
        canonical = b"error:" + failure.encode()
    if first:
        stats.outcomes[key] = canonical
        if failure is None:
            stats.decisive += outcome.decisive
        else:
            stats.failed_slots.add(key)
            stats.failures[failure] += 1
            stats.wrong += failure == "WrongVerdict"
            stats.tracebacks.setdefault(failure, detail)
    elif key not in stats.failed_slots and canonical != stats.outcomes[key]:
        stats.outcomes[key] = b"unrepeatable"
        stats.failed_slots.add(key)
        stats.failures["Unrepeatable"] += 1
        stats.wrong += 1
        stats.tracebacks.setdefault("Unrepeatable", f"{op.label}: verdict changed on a repeat")


def measure(passes, seconds: float, tracer=None) -> RunStats:
    """Closed loop over whole passes of the pool until every pass has run
    once and ``seconds`` have elapsed. The output digest covers the pool."""
    stats = RunStats()
    begin = time.perf_counter()
    while stats.passes < len(passes) or time.perf_counter() - begin < seconds:
        index = stats.passes % len(passes)
        for slot, op in enumerate(passes[index]):
            start = time.perf_counter()
            execute(op, (index, slot), stats)
            elapsed = time.perf_counter() - start
            stats.latencies.append(elapsed)
            stats.labels.append(op.label)
            if tracer is not None:
                tracer.end_op(elapsed)
        stats.passes += 1
    stats.wall = time.perf_counter() - begin
    digest = hashlib.sha256()
    for key in sorted(stats.outcomes):
        canonical = stats.outcomes[key]
        digest.update(f"{len(canonical)}:".encode() + canonical)
    stats.digest = digest.hexdigest()
    return stats


def ops_per_s(stats: RunStats) -> float:
    return stats.executions / stats.wall


def p90_ms(latencies: list[float]) -> float:
    return 1000.0 * statistics.quantiles(latencies, n=10, method="exclusive")[8]


def report_run(name: str, seed: int, stats: RunStats, label: str) -> None:
    n, runs = stats.attempted, stats.executions
    print(
        f"{label} {name}  seed {seed}  passes {stats.passes}  ops run {runs} ({n} distinct)"
        f"  wall {stats.wall:.2f} s  (closed loop, 1 caller)"
    )
    print(f"  ops_per_s        {ops_per_s(stats):.4f} 1/s")
    print(f"  op_p50_ms        {1000 * statistics.median(stats.latencies):.2f} ms  ({runs} samples)")
    if runs >= 100:
        print(f"  op_p90_ms        {p90_ms(stats.latencies):.2f} ms  ({runs} samples)")
    else:
        print(f"  op_p90_ms        n/a ms  (only {runs} samples; needs >= 100)")
    by_class = ", ".join(f"{k} {v}" for k, v in sorted(stats.failures.items())) or "none"
    print(f"  ops_failed_frac  {stats.failed / n:.4f} ratio  ({stats.failed} of {n}; {by_class})")
    print(f"  decisive_frac    {stats.decisive / n:.4f} ratio  ({stats.decisive} of {n})")
    by_class_ms: dict[str, list[float]] = {}
    for op_label, seconds in zip(stats.labels, stats.latencies):
        by_class_ms.setdefault(op_label, []).append(1000 * seconds)
    classes = ", ".join(
        f"{k} {statistics.median(v):.1f}" for k, v in sorted(by_class_ms.items())
    )
    print(f"  class_p50_ms     {classes}")
    print(f"  output_digest    {stats.digest}  (every op of the pool; reported, not gated)")
    for cls, text in stats.tracebacks.items():
        print(f"first {cls}:\n{text}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = None if trace else measure_setup()
    import workloads

    warm, passes = workloads.make_inputs(name, seed)
    measure([warm], 0.0)  # first-call costs, outside the timed loop
    gc.collect()
    gc.freeze()  # the input pool is long-lived: keep it out of every collection
    if not trace:
        stats = measure(passes, seconds)
        correct = stats.wrong == 0
        report_run(name, seed, stats, "workload")
        metrics = {
            "ops_per_s": ops_per_s(stats),
            "op_p50_ms": 1000 * statistics.median(stats.latencies),
            "decisive_frac": stats.decisive / stats.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup,
        }
        print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
        print(f"  setup_s          {setup:.4f} s  (median of {SETUP_PROBES} fresh interpreters)")
        units = END_TO_END_UNITS
    else:
        import tracing

        plain = measure(passes, seconds / 2)
        report_run(name, seed, plain, "untraced")
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            stats = measure(passes, seconds / 2, tracer)
        report_run(name, seed, stats, "traced")
        overhead = ops_per_s(plain) / ops_per_s(stats)
        metrics = tracer.metrics(overhead)
        tracing.print_report(name, tracer, metrics)
        units = tracing.PER_LAYER_UNITS
        # Both halves run the whole pool; the wrappers must not change a verdict.
        correct = plain.wrong == stats.wrong == 0 and plain.outcomes == stats.outcomes
    return {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_qshallow()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
