"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-geo-mlp --seed 0 --seconds 50 --trace 0

With ``--trace 0`` the run repeats passes (a few setups of the workload, then
one job) until ``--seconds`` have passed.  It cuts the timed work into short
pieces (an expert demo, a training step, a rollout), probes the host's speed
around each (``speed.py``) and scales each piece to the reference host's
speed.  It reports the median scaled setup and the throughputs as work over
scaled seconds, leaving out the first, warm-up pass.  With ``--trace 1`` it
alternates untraced and traced passes of one setup and one job, and reports
per-span calls, self times and shares, the row and step counters, and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON record of the run (environment, per-repeat samples, checks, errors).
Exit code 0 means a result was printed; the program is built from ``src/``
next to this directory, and without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: on a 2-core host a second OpenBLAS thread made training
# no faster, with bit-identical losses (see README.md), and with one thread
# the benchmark process uses one core.
BLAS_THREADS = 1
MIN_PASSES = 3
# Passes whose outputs are checked but whose times are left out: the first
# pass fills the interpreter's and allocator's caches and runs slower.
WARM_UP_PASSES = 1
# A setup is short next to a job and varies more: several per pass give its
# median enough samples.
SETUPS_PER_PASS = 3


def _pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _openblas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


class Operations:
    """Runs operations, counting each attempt and each GeoAwareError."""

    def __init__(self):
        from geoaware.errors import GeoAwareError

        self._error_type = GeoAwareError
        self.attempted = 0
        self.errors = []

    def run(self, fn, *args):
        """``fn(*args)``, or None when it raised a GeoAwareError."""
        self.attempted += 1
        try:
            return fn(*args)
        except self._error_type as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def _same(values):
    return all(v == values[0] for v in values[1:])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _failed_checks(named_checks):
    """Sorted names of the checks that failed, over several ``{name: ok}`` dicts."""
    return sorted({name for checks in named_checks for name, ok in checks.items() if not ok})


def _result(ops, checks, metrics):
    """The result line: correct when no named check failed and every
    repeat-equality check held."""
    correct = not checks["failed"] and all(ok for name, ok in checks.items() if name != "failed")
    return {"correct": correct, "attempted": ops.attempted, "failed": len(ops.errors), "metrics": metrics}


def measure_end_to_end(workload, seed, seconds, workdir):
    """(result, record) of an untraced run: passes of SETUPS_PER_PASS setups
    and one job, at least MIN_PASSES of them and then until one more as long
    as the last would pass ``seconds``.  Setting up afresh in every pass
    spreads the setups over the run like the jobs."""
    from speed import PROBE_REFERENCE_S, probe, reference_seconds, warm_up
    from tracing import PieceClock

    ops = Operations()
    setups, jobs = [], []           # outputs; Outcome
    pieces = []                     # per pass: {section: [(seconds, probe seconds)]}, setups listed apart
    warm_up()
    attempts = 0
    start = time.perf_counter()
    last = 0.0
    while attempts < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        attempts += 1
        t0 = time.perf_counter()
        state, setup_pieces = None, []
        for _ in range(SETUPS_PER_PASS):
            with PieceClock(probe) as clock:
                with clock.section("setup"):
                    done = ops.run(workload.setup, seed, workdir)
            if done is not None:
                state, outputs = done
                setups.append(outputs)
                setup_pieces.append(clock.pieces["setup"])
        job = None
        if state is not None:
            with PieceClock(probe) as clock:
                job = ops.run(workload.job, state)
        if job is not None:
            jobs.append(job)
            # A renamed function can leave a timed call uncut: then it is unscaled.
            pieces.append({
                "setup": setup_pieces,
                "train": clock.pieces["train"] or [(job.train.seconds, PROBE_REFERENCE_S)],
                "eval": clock.pieces["eval"] or [(job.evaluation.seconds, PROBE_REFERENCE_S)],
            })
        last = time.perf_counter() - t0
    if not jobs:
        return None, {"errors": ops.errors}

    trains = [o.train for o in jobs]
    evaluations = [o.evaluation for o in jobs]
    checks = {
        "setups_repeat": _same(setups),
        "jobs_repeat": _same([o.outputs for o in jobs]),
        "failed": _failed_checks(o.checks for o in jobs),
    }
    timed = pieces[WARM_UP_PASSES:] or pieces

    def per_second(amount, section):
        """Work of one pass over the scaled seconds of an average timed pass."""
        return amount * len(timed) / sum(reference_seconds(p[section]) for p in timed)

    metrics = {
        "setup_s": _metric(statistics.median(reference_seconds(one) for p in timed for one in p["setup"]), "s"),
        "train_samples_per_s": _metric(per_second(trains[0].samples, "train"), "samples/s"),
        "train_loss_final": _metric(trains[0].final_loss, "loss"),
        "eval_steps_per_s": _metric(per_second(evaluations[0].steps, "eval"), "steps/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "train": [[r.samples, r.seconds] for r in trains],
        "eval": [[r.steps, r.seconds] for r in evaluations],
        "pieces": pieces,
        "checks": checks,
        "errors": ops.errors,
    }
    return _result(ops, checks, metrics), record


def run_pass(workload, seed, workdir):
    """One setup plus one job; returns (outputs, checks, pass wall seconds,
    job wall seconds)."""
    start = time.perf_counter()
    state, setup_outputs = workload.setup(seed, workdir)
    job_start = time.perf_counter()
    job = workload.job(state)
    end = time.perf_counter()
    return {"setup": setup_outputs, "job": job.outputs}, job.checks, end - start, end - job_start


def measure_traced(workload, seed, seconds, workdir):
    """(result, record) of a run alternating untraced and traced passes."""
    from tracing import COUNTERS, SPANS, Tracer

    ops = Operations()
    plain, traced, tracers = [], [], []
    pairs = 0
    start = time.perf_counter()
    last = 0.0
    while pairs == 0 or time.perf_counter() - start + last <= seconds:
        pairs += 1
        t0 = time.perf_counter()
        tracer = Tracer()
        # Alternate which pass goes first, so drift in machine speed does
        # not land on one side of the overhead ratio.
        if pairs % 2:
            untraced_pass = ops.run(run_pass, workload, seed, workdir)
        with tracer:
            traced_pass = ops.run(run_pass, workload, seed, workdir)
        if not pairs % 2:
            untraced_pass = ops.run(run_pass, workload, seed, workdir)
        last = time.perf_counter() - t0
        if untraced_pass is not None and traced_pass is not None:
            plain.append(untraced_pass)
            traced.append(traced_pass)
            tracers.append(tracer)
    if not traced:
        return None, {"errors": ops.errors}

    passes = len(traced)
    traced_wall = sum(wall for _, _, wall, _ in traced)
    metrics = {}
    for name in SPANS:
        self_s = sum(t.self_s[name] for t in tracers)
        metrics[f"{name}.calls"] = _metric(tracers[0].calls[name], "count")
        metrics[f"{name}.self_s"] = _metric(self_s / passes, "s")
        metrics[f"{name}.share"] = _metric(self_s / traced_wall, "ratio")
    counts = tracers[0].counters
    batch_rows = counts["training.make_batch.rows"]
    metrics["backbones.pyramid_batch.rows"] = _metric(counts["backbones.pyramid_batch.rows"], "count")
    metrics["training.featurize_miss_ratio"] = _metric(
        counts["training.featurize.rows"] / batch_rows if batch_rows else 0.0, "ratio"
    )
    metrics["bench.rollout.steps"] = _metric(counts["bench.rollout.steps"], "count")
    # Job times only, summed over the pairs like the throughputs: setups
    # are short and vary more than the tracing costs.
    metrics["trace.overhead_ratio"] = _metric(
        sum(job for *_, job in traced) / sum(job for *_, job in plain), "ratio"
    )

    checks = {
        "traced_matches_untraced": _same([outputs for outputs, *_ in plain + traced]),
        "trace_counts_repeat": _same([(t.calls, t.counters) for t in tracers]),
        "failed": _failed_checks(pass_checks for _, pass_checks, *_ in plain + traced),
    }
    record = {
        "passes": passes,
        "untraced_wall_s": [w for _, _, w, _ in plain],
        "traced_wall_s": [w for _, _, w, _ in traced],
        "untraced_job_s": [job for *_, job in plain],
        "traced_job_s": [job for *_, job in traced],
        "counters": {name: counts[name] for name in COUNTERS},
        "absent_spans": tracers[0].absent,
        "checks": checks,
        "errors": ops.errors,
    }
    return _result(ops, checks, metrics), record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "geoaware").is_dir():
        print(f"perfbench: no geoaware sources under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    measure = measure_traced if args.trace else measure_end_to_end
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, record = measure(workload, args.seed, args.seconds, Path(tmp))
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), **record}
    print(json.dumps({"record": record}, sort_keys=True))
    if result is None:
        print("perfbench: every attempt of an operation the metrics need failed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
