"""unruhkit benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures|verify|sweep-small \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it times operations for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced blocks with
blocks in which every layer is wrapped by ``tracer.Tracer``, half of S each,
and reports the per-layer metrics plus the tracing overhead.  Every
operation's output is checked against the gates in ``workloads``; an
operation that raises counts as failed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread so the numbers do not depend on how many cores
the machine happens to have free.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("figures", "verify", "sweep-small")
SETUP_SAMPLES = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
TRACE_BLOCKS = 8
# Layers every workload calls.  Their self time goes into the JSON result;
# channels.route (verify only) and the sweep and cli layers (never called by
# verify) would read as no time at all on some workload, so their self time
# is printed in the layer table only.  Call counts of every layer go into
# the JSON result.
SELF_TIME_LAYERS = (
    "qlinalg.eig_hermitian",
    "qlinalg.sqrt_psd",
    "entanglement.concurrence",
    "entanglement.closed",
    "channels.state",
    "fisher.qfi_two",
    "fisher.bloch",
    "fisher.closed",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup() -> float:
    """Wall time of a fresh interpreter importing unruhkit and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import unruhkit, unruhkit.cli"]
    start = time.perf_counter()
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def blas_threads():
    """Threads the loaded OpenBLAS will use, or the pinned value if it cannot be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_int
        return query()
    return f"pinned {os.environ['OPENBLAS_NUM_THREADS']}"


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with enough samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return None


class Run:
    """Timed operations of one workload and what their gates found."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.setup_times: list[float] = []
        self.best: dict = {}  # fastest time of each part of the workload
        self.parts_per_op = 0
        self.cells = 0
        self.empty_cells = 0
        self.attempted = 0
        self.failed = 0

    def fail(self, detail: str) -> None:
        self.failed += 1
        print(f"FAILED: {detail}", file=sys.stderr)

    def attempt(self, workload) -> None:
        """Time one operation and gate its output; an operation that raises fails."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.op()
            seconds_op = time.perf_counter() - start
            result = workload.check(output)
        except Exception as exc:
            self.times.append(time.perf_counter() - start)
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        self.times.append(seconds_op)
        parts = workload.parts(output, seconds_op)
        self.parts_per_op = len(parts)
        for key, part in parts:
            self.best[key] = min(part, self.best.get(key, math.inf))
        self.cells += result.cells
        self.empty_cells += result.empty_cells
        if result.failures:
            self.fail(result.detail)

    def measure(self, workload, seconds: float, setup_samples: int = 0) -> "Run":
        """Run operations for ``seconds``, timing ``setup_samples`` fresh
        imports between them, evenly over the run."""
        start = time.perf_counter()
        deadline = start + seconds
        next_setup = start
        while True:
            if len(self.setup_times) < setup_samples and time.perf_counter() >= next_setup:
                self.setup_times.append(time_setup())
                next_setup += seconds / setup_samples
            self.attempt(workload)
            if time.perf_counter() >= deadline:
                return self

    @property
    def p50(self) -> float:
        return statistics.median(self.times)

    @property
    def op_best(self) -> float:
        """One operation at each part's fastest time in the run.

        When no operation got through, the median time to failure stands in.
        """
        if not self.best:
            return self.p50
        return sum(self.best.values()) / len(self.best) * self.parts_per_op


def make_workload(name: str, seed: int, scratch: Path):
    import workloads

    if name == "figures":
        return workloads.Figures(seed)
    if name == "verify":
        return workloads.Verify()
    return workloads.SweepSmall(seed, scratch / "sweep.csv")


def end_to_end(run: Run) -> dict[str, dict]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cells_per_s = run.cells / run.attempted / run.op_best
    found = tail(run.times)
    n = len(run.times)
    setup_s = min(run.setup_times)
    print(f"setup_s: {setup_s:.6f} s (fastest of {len(run.setup_times)} fresh imports over the run; "
          f"median {statistics.median(run.setup_times):.6f} s)")
    print(f"op_best_s: {run.op_best:.6f} s (each of {len(run.best)} parts at its fastest)")
    print(f"op_p50_s: {run.p50:.6f} s (n={n})")
    if found:
        print(f"op_tail_s: {found[1]:.6f} s (p{found[0]:g}, n={n})")
    else:
        print(f"op_tail_s: omitted (n={n}: under {TAIL_MIN_BEYOND} samples beyond p90)")
    print(f"cells_per_s: {cells_per_s:.3f} 1/s ({run.cells} cells, {run.empty_cells} empty)")
    print(f"peak_rss_mb: {peak_rss_mb:.3f} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_best_s": {"value": run.op_best, "unit": "s"},
        "cells_per_s": {"value": cells_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, traced: Run, untraced: Run, untraced_block_s: float) -> dict[str, dict]:
    ops = len(traced.times)
    metrics = {}
    print(f"{'layer':28s} {'calls/op':>12s} {'self µs/call':>13s}  (self time: fastest traced block)")
    for layer, row in tracer.layer_table().items():
        self_us = row["self_us_per_call"]
        shown = f"{self_us:13.3f}" if self_us is not None else f"{'-':>13s}"
        print(f"{layer:28s} {row['calls_per_op']:12.1f} {shown}")
        metrics[f"{layer}.calls_per_op"] = {"value": row["calls_per_op"], "unit": "1/op"}
        if layer in SELF_TIME_LAYERS:
            metrics[f"{layer}.self_us_per_call"] = {"value": self_us, "unit": "us"}
    counters = tracer.qfi_two_counters()
    empty_by_reason = ", ".join(f"{k}={v}" for k, v in sorted(tracer.empty_cells.items()))
    traced_block_s = tracer.fastest_block()[0]
    overhead = traced_block_s - untraced_block_s
    print(f"fisher.qfi_two: retry_ratio={counters['retry_ratio']:g} "
          f"degenerate_errors={counters['degenerate_errors']}")
    print(f"sweep.run_sweep: cells={tracer.cells} empty_cells={sum(tracer.empty_cells.values())} "
          f"({empty_by_reason or 'none'})")
    print(f"trace_overhead: {overhead:.6f} s per op (fastest blocks: traced {traced_block_s:.6f} s "
          f"per op, untraced {untraced_block_s:.6f} s; n={ops} traced, {len(untraced.times)} untraced)")
    metrics.update({
        "fisher.qfi_two.retry_ratio": {"value": counters["retry_ratio"], "unit": "ratio"},
        "fisher.qfi_two.degenerate_errors_per_op": {
            "value": counters["degenerate_errors"] / ops, "unit": "1/op"},
        "sweep.run_sweep.cells_per_op": {"value": tracer.cells / ops, "unit": "1/op"},
        "sweep.run_sweep.empty_cells_per_op": {
            "value": sum(tracer.empty_cells.values()) / ops, "unit": "1/op"},
        "trace_overhead_s": {"value": overhead, "unit": "s"},
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unruhkit" / "__init__.py").is_file():
        print(f"perfbench: no unruhkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from tracer import Tracer

    print(
        f"provenance: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} blas_threads={blas_threads()}"
    )
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workload = make_workload(args.workload, args.seed, Path(scratch))
        warmup = Run()
        warmup.attempt(workload)
        if args.trace:
            # Untraced and traced blocks alternate, so both see the same
            # machine load and the same mix of inputs.
            untraced, traced, tracer = Run(), Run(), Tracer()
            untraced_block_s = math.inf
            for _ in range(TRACE_BLOCKS // 2):
                first = len(untraced.times)
                untraced.measure(workload, args.seconds / TRACE_BLOCKS)
                untraced_block_s = min(untraced_block_s, statistics.fmean(untraced.times[first:]))
                first = len(traced.times)
                with tracer:
                    traced.measure(workload, args.seconds / TRACE_BLOCKS)
                tracer.mark_block(len(traced.times) - first, sum(traced.times[first:]))
            metrics = per_layer(tracer, traced, untraced, untraced_block_s)
            runs = (warmup, untraced, traced)
        else:
            run = Run().measure(workload, args.seconds, setup_samples=SETUP_SAMPLES)
            metrics = end_to_end(run)
            runs = (warmup, run)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"failed_ratio: {failed / attempted:g} ({failed}/{attempted}, warm-up included)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
