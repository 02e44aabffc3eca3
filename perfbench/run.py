"""Benchmark for rae: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload estimate-boot --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
(nothing is installed); the process sets up the workload, then runs ops
back to back (a closed loop, one client) until ``--seconds`` have passed,
checks every op's outputs, and prints one JSON result as the last line of
stdout.  An untraced run sets the workload up once more after every op, so
that its set-up samples span the whole run, not only its first seconds.
With ``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` untraced and traced ops alternate
and the metrics are the declared per-layer ones, averaged per traced op.
The line before the result holds the details: provenance, set-up and op
times, output sha256 digests, quality figures and the full span table.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Run by a fresh interpreter: the seconds it takes to import rae's modules,
# numpy and every other dependency included.
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    f"import {', '.join('rae.' + m for m in spans.MODULES)}\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def configure_blas_threads() -> None:
    """One BLAS thread per usable core, or fewer if the caller asked for
    fewer; must run before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if requested.isdigit() and 0 < int(requested) < threads:
        threads = int(requested)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)


def import_rae():
    """(Re)import the package from ``src/``; returns its modules by short name."""
    if not os.path.isfile(os.path.join(SRC, "rae", "__init__.py")):
        raise BenchError(f"no rae package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "rae" or m.startswith("rae.")]:
        del sys.modules[name]
    package = importlib.import_module("rae")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "rae"):
        raise BenchError(f"imported rae from {package.__file__}, not {SRC}")
    modules = {short: importlib.import_module(f"rae.{short}") for short in spans.MODULES}
    return types.SimpleNamespace(package=package, **modules)


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing rae from ``src/``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"a fresh interpreter could not import rae: "
                         f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def blas_runtime_threads(numpy) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            getter = getattr(lib, "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        getter.argtypes = []
        return int(getter())
    return None


def provenance() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_configured": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_runtime": blas_runtime_threads(numpy),
        "platform": platform.platform(),
    }


def declared_metrics(key: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def timed_op(workload):
    """(result or None, seconds, failure messages) for one op."""
    start = time.perf_counter()
    try:
        result = workload.run()
    except Exception:
        return None, time.perf_counter() - start, [traceback.format_exc()]
    elapsed = time.perf_counter() - start
    if result.exit_code != 0:
        return result, elapsed, [f"exit code {result.exit_code}: {result.error}"]
    try:
        return result, elapsed, workload.check(result)
    except (KeyError, TypeError, ValueError):
        return result, elapsed, ["unreadable output: " + traceback.format_exc()]


def digests(result) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(result.outputs.items())}


class Run:
    """Ops of one workload, their checks and their timings."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.times = {False: [], True: []}   # keyed by traced
        self.items_per_op = 0
        self.reference: dict[str, str] | None = None
        self.quality: dict[str, float] = {}

    def op(self, traced: bool) -> None:
        self.attempted += 1
        result, elapsed, problems = timed_op(self.workload)
        if result is not None and result.exit_code == 0:
            hashes = digests(result)
            if self.reference is None:
                self.reference = hashes
                self.quality = dict(result.quality)
            elif hashes != self.reference:
                problems.append(
                    f"{'traced' if traced else 'untraced'} op outputs differ "
                    f"from the first op's: {hashes} vs {self.reference}")
        if problems:
            self.failures.append("; ".join(problems))
            return
        self.times[traced].append(elapsed)
        self.items_per_op = result.items


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Set up and run one workload; returns (result, details).

    Call it inside :func:`scratch_dir`, after :func:`configure_blas_threads`.
    """
    from workloads import WORKLOADS  # loads numpy, so only after the BLAS set-up
    cls = WORKLOADS[name]

    rae = import_rae()

    def set_up():
        """What a fresh user process pays: importing rae (timed in a fresh
        interpreter, since this one already holds numpy) plus generating
        the inputs.  Returns (workload, seconds)."""
        imported = import_seconds()
        start = time.perf_counter()
        workload = cls(rae, seed, tiny=tiny)
        return workload, imported + time.perf_counter() - start

    workload, seconds_first = set_up()
    setup_times = [seconds_first]

    run = Run(workload)
    recorder = spans.Recorder()
    tables = getattr(rae.inference, "likelihood_tables", None)
    cache = {"hits": 0, "misses": 0}
    start = time.perf_counter()
    for rounds in itertools.count():
        round_start = time.perf_counter()
        if trace:
            # alternate which goes first, so neither side always gets the
            # process's first op
            untraced_first = rounds % 2 == 0
            if untraced_first:
                run.op(traced=False)
            undo = spans.install(recorder, vars(rae))
            try:
                run.op(traced=True)
            finally:
                spans.uninstall(undo)
            if tables is not None:
                # every op starts with cache_clear(), which zeroes the stats
                info = tables.cache_info()
                cache["hits"] += info.hits
                cache["misses"] += info.misses
            if not untraced_first:
                run.op(traced=False)
        else:
            run.op(traced=False)
            setup_times.append(set_up()[1])
        now = time.perf_counter()
        # Stop before a round that, as long as the last one, would overrun.
        if now - start + (now - round_start) > seconds:
            break

    if trace:
        declared = declared_metrics("per_layer")
        metrics = per_layer_metrics(recorder, cache, run, declared)
    else:
        declared = declared_metrics("end_to_end")
        metrics = end_to_end_metrics(run, setup_times)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "item": cls.item,
        "provenance": provenance(),
        "setup_s": setup_times,
        "op_s": run.times[False],
        "traced_op_s": run.times[True],
        "outputs_sha256": run.reference,
        "quality": run.quality,
        "failures": run.failures,
        "spans": {
            span: {"calls": recorder.calls[span], "s": recorder.seconds[span],
                   "self_s": recorder.self_seconds[span]}
            for span in sorted(recorder.calls)
        },
    }
    return result, details


def end_to_end_metrics(run: Run, setup_times: list[float]) -> dict[str, float]:
    """Medians, so that a burst of load from elsewhere on the host moves
    them less than it would move a mean."""
    times = run.times[False]
    p50 = statistics.median(times) if times else 0.0  # 0 only if every op failed
    return {
        "op_s_p50": p50,
        "items_per_s": run.items_per_op / p50 if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def per_layer_metrics(recorder, cache: dict, run: Run,
                      declared) -> dict[str, float]:
    """Per traced op: the declared span statistics (``<span>.calls``, ``.s``,
    ``.self_s``), counters and derived figures.  A span or counter the
    program never reached reads 0."""
    n = max(len(run.times[True]), 1)
    replicates = recorder.counts.get("inference.bootstrap.replicates", 0.0)
    untraced, traced = run.times[False], run.times[True]
    values = {
        "inference.bootstrap.us_per_replicate": (
            1e6 * recorder.seconds.get("inference.bootstrap", 0.0) / replicates
            if replicates else 0.0),
        "inference.bootstrap.draw_s":
            recorder.self_seconds.get("inference.bootstrap", 0.0) / n,
        "inference.table_cache.hits": cache["hits"] / n,
        "inference.table_cache.misses": cache["misses"] / n,
        "trace_overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0),
    }
    stats = {"calls": recorder.calls, "s": recorder.seconds,
             "self_s": recorder.self_seconds}
    for name in declared:
        if name in values:
            continue
        if name in spans.COUNTERS:
            values[name] = recorder.counts.get(name, 0.0) / n
            continue
        span, _, stat = name.rpartition(".")
        if stat not in stats:
            raise BenchError(f"per-layer metric {name!r} names no span statistic")
        values[name] = stats[stat].get(span, 0) / n
    return values


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("estimate-boot", "point-mle", "energy-sweep",
                                 "curve-fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh working directory inside the checkout, removed afterwards."""
    path = os.path.join(WORK, f"{tag}-{os.getpid()}")
    home = os.getcwd()
    os.makedirs(path)
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(home)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_blas_threads()
    from workloads import SetupError  # loads numpy, so only after the BLAS set-up
    try:
        with scratch_dir(args.workload):
            result, details = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in details["failures"]:
        print(f"perfbench: op failed: {failure}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
