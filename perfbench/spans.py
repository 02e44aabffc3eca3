"""Per-layer spans recorded from outside the package.

``install`` wraps the public functions of rae's modules, plus the two
``LikelihoodGrid`` methods that carry the grid work, in place: every module
global that refers to a wrapped function is swapped for its wrapper, so
calls made through ``from .x import f`` bindings are traced too.
``likelihood_tables`` is never wrapped, so its ``cache_info`` and
``cache_clear`` keep working.  ``uninstall`` puts every original back.

Spans are aggregated as they close: per span name the number of calls,
the total seconds and the self seconds (total minus the time of the spans
it directly encloses).  Counters record work at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

MODULES = ("cli", "energy", "inference", "fisher", "simulator", "noisefit",
           "pauli", "schedules")

# Functions reported under a shared or clearer span name; everything else
# public is reported as "<module>.<function>".
RENAMED = {
    ("inference", "mle_estimate"): "inference.point_mle",
    ("schedules", "lis"): "schedules.build",
    ("schedules", "eis"): "schedules.build",
    ("schedules", "polynomial"): "schedules.build",
    ("schedules", "noise_robust_schedule"): "schedules.build",
    ("inference", "load_dataset"): "cli.io",
    ("inference", "save_dataset"): "cli.io",
    ("noisefit", "load_curve"): "cli.io",
    ("noisefit", "save_curve"): "cli.io",
    ("cli", "_write_text"): "cli.io",
}

# Wrapping the cache would hide cache_info()/cache_clear() from callers.
NOT_WRAPPED = {("inference", "likelihood_tables")}

FLOAT_BYTES = 8

# Every counter the wrappers below record; a counter never hit reads 0.
COUNTERS = (
    "inference.table_build.bytes",
    "inference.estimate_counts.rows",
    "inference.estimate_counts.cells",
    "inference.estimate_counts.bytes_computed",
    "inference.point_mle.cells",
    "inference.bootstrap.replicates",
    "simulator.evolve.layers_applied",
    "cli.io.bytes",
)


def _grid_cells(grid) -> int:
    return grid.pi_points * grid.lambda_points


class Recorder:
    """Aggregated spans and counters, keyed by span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def span(self, name: str, fn, args, kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - children

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value


# Counters run after the wrapped call returns: (recorder, args, kwargs, result).
# Cell and byte counts are computed from the grid shape, not measured.

def _count_table_build(rec, args, kwargs, result) -> None:
    table = args[0]
    cells = _grid_cells(table.grid)
    rec.count("inference.table_build.bytes",
              2 * len(table.layer_values) * cells * FLOAT_BYTES)


def _count_estimate_counts(rec, args, kwargs, result) -> None:
    table, even = args[0], args[1]
    rows = int(even.shape[0])
    cells = _grid_cells(table.grid)
    rec.count("inference.estimate_counts.rows", rows)
    rec.count("inference.estimate_counts.cells", rows * cells)
    rec.count("inference.estimate_counts.bytes_computed",
              estimate_counts_bytes(len(table.layer_values), cells, rows))


# Float64 (rows x cells) results estimate_counts writes: the even-count and
# the odd-count products, and their sum.
SURFACES_PER_ROW = 3


def estimate_counts_bytes(n_layers: int, cells: int, rows: int) -> int:
    """A nominal model, not a measurement: both per-layer tables read once
    plus the ``SURFACES_PER_ROW`` float64 surfaces written per row."""
    return (2 * n_layers + SURFACES_PER_ROW * rows) * cells * FLOAT_BYTES


def _count_point_mle(inference):
    def count(rec, args, kwargs, result) -> None:
        grid = args[1] if len(args) > 1 else kwargs.get("grid")
        if grid is None:
            grid = inference.MLEGrid()
        rec.count("inference.point_mle.cells", _grid_cells(grid))
    return count


def _count_bootstrap(rec, args, kwargs, result) -> None:
    rec.count("inference.bootstrap.replicates",
              args[1] if len(args) > 1 else kwargs["n_replicates"])


def _count_evolve(rec, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    rec.count("simulator.evolve.layers_applied", spec.layers)


def _count_io(rec, args, kwargs, result) -> None:
    path, *rest = args
    if rest and isinstance(rest[0], str):  # cli._write_text(path, text)
        rec.count("cli.io.bytes", len(rest[0].encode("utf-8")))
    else:
        rec.count("cli.io.bytes", os.path.getsize(path))


def _wrap(rec: Recorder, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.span(name, fn, args, kwargs)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result
    return wrapper


def _targets(modules: dict):
    """(owner, attribute, span name, counter) for everything to wrap."""
    inference = modules["inference"]
    counters = {
        "inference.point_mle": _count_point_mle(inference),
        "inference.bootstrap": _count_bootstrap,
        "simulator.evolve": _count_evolve,
        "cli.io": _count_io,
    }
    for short in MODULES:
        module = modules[short]
        for attr, value in vars(module).items():
            key = (short, attr)
            defined_here = (inspect.isfunction(value)
                            and value.__module__ == module.__name__)
            public = defined_here and not attr.startswith("_")
            if key in NOT_WRAPPED or not (public or key in RENAMED):
                continue
            name = RENAMED.get(key, f"{short}.{attr}")
            yield module, attr, name, counters.get(name)
    grid_class = getattr(inference, "LikelihoodGrid", None)
    if grid_class is not None:
        yield grid_class, "__init__", "inference.table_build", _count_table_build
        if hasattr(grid_class, "estimate_counts"):
            yield (grid_class, "estimate_counts", "inference.estimate_counts",
                   _count_estimate_counts)


def install(rec: Recorder, modules: dict) -> list:
    """Wrap every target; returns the undo list for :func:`uninstall`.

    ``modules`` maps the short names in ``MODULES`` to imported modules, and
    may hold ``"package"`` for the package itself, whose re-exports are
    swapped too.  Functions a module no longer has are simply not wrapped.
    """
    undo = []
    originals = {}
    for owner, attr, name, counter in list(_targets(modules)):
        fn = getattr(owner, attr)
        wrapper = _wrap(rec, name, fn, counter)
        if inspect.isclass(owner):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        else:
            originals[id(fn)] = (fn, wrapper)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            swap = originals.get(id(value))
            if swap is not None and value is swap[0]:
                undo.append((module, attr, value))
                setattr(module, attr, swap[1])
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
