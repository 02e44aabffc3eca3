"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 perfbench/selftest.py

Checks that every workload passes its output checks untraced and traced,
that traced outputs are byte-identical to untraced ones, that both modes
print exactly the metrics BENCHMARK.json declares, that every per-layer
metric is non-zero on at least one workload, that the computed cell and
byte counters match the arrays the grid code really builds and allocates,
and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
import tracemalloc

import run
import spans


def check_workloads(failures: list[str]) -> None:
    import workloads
    nonzero: set[str] = set()
    declared = run.declared_metrics("per_layer")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, details = run.measure(name, seed=3, seconds=0.0,
                                          trace=trace, tiny=True)
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {details['failures']}")
            want = declared if trace else run.declared_metrics("end_to_end")
            if list(result["metrics"]) != list(want):
                failures.append(f"{label}: metrics {sorted(result['metrics'])}")
            if trace and not details["traced_op_s"]:
                failures.append(f"{label}: no traced op ran")
            if trace:
                nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
    for metric in declared:
        if metric not in nonzero:
            failures.append(f"per-layer metric {metric} is 0 on every workload")


def check_counters(failures: list[str]) -> None:
    """Counters computed from the grid shape equal the real array sizes."""
    import numpy as np
    rae = run.import_rae()
    inference = rae.inference
    grid = inference.MLEGrid(pi_points=301, lambda_points=7, lambda_max=0.25)
    layers = (0, 1, 2)
    records = tuple(inference.ParityRecord(l, 100, 40 + l) for l in layers)
    dataset = inference.ParityDataset(pauli="Z", records=records)
    even = np.array([[40.0, 41.0, 42.0]] * 5)
    shots = np.full(len(layers), 100.0)

    rec = spans.Recorder()
    undo = spans.install(rec, vars(rae))
    try:
        table = inference.LikelihoodGrid(grid, layers)
        table.estimate_counts(even, shots)
        inference.mle_estimate(dataset, grid)
    finally:
        spans.uninstall(undo)

    cells = grid.pi_values().size * grid.lambda_values().size
    table_bytes = table._log_p0.nbytes + table._log_p1.nbytes
    want = {
        "inference.table_build.bytes": 2 * table_bytes,  # two builds above
        "inference.estimate_counts.rows": even.shape[0],
        "inference.estimate_counts.cells": even.shape[0] * cells,
        "inference.point_mle.cells": cells,
    }
    for key, value in want.items():
        if rec.counts[key] != value:
            failures.append(f"counter {key} = {rec.counts[key]}, arrays say {value}")

    # The surfaces part of bytes_computed against what estimate_counts
    # really allocates.  The surfaces here are smaller than numpy's
    # temporary-elision threshold, so each result gets its own buffer, and
    # the few row-sized vectors allocated besides them stay within 2%.
    surfaces = rec.counts["inference.estimate_counts.bytes_computed"] - table_bytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table.estimate_counts(even, shots)
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    if abs(allocated - surfaces) > 0.02 * surfaces:
        failures.append(f"bytes_computed counts {surfaces} surface bytes, "
                        f"estimate_counts allocated {allocated}")
    if rec.calls["inference.table_build"] != 2:
        failures.append(f"table builds counted {rec.calls['inference.table_build']}, want 2")
    if not hasattr(inference.likelihood_tables, "cache_info"):
        failures.append("likelihood_tables lost cache_info while traced")


def check_refuses_without_sources(failures: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = os.path.abspath("bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"ran without sources: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")


def main() -> int:
    run.configure_blas_threads()
    start = time.perf_counter()
    failures: list[str] = []
    with run.scratch_dir("selftest"):
        check_workloads(failures)
        check_counters(failures)
        check_refuses_without_sources(failures)
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print(f"selftest: {'FAILED' if failures else 'ok'} in "
          f"{time.perf_counter() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
