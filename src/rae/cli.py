"""Command-line front end: generate parity data, estimate amplitudes and
energies, profile the decay rate, and inspect measurement schedules.

Every command is deterministic for a fixed configuration.  The seed falls
back to the ``RAE_SEED`` environment variable and then to 0, per-term and
per-row substreams are derived from spawn keys that encode only the position
in the work grid, JSON is written with sorted keys, and no timestamp is
emitted unless ``--stamp`` is given.  Running the same invocation twice
therefore produces byte-identical output files, and computing the cells of a
sweep in any order (or in parallel) gives the same table.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 an input file
that cannot be opened or breaks its schema (one ``DatasetFormatError``, from
``rae.jsonio.load``), 4 computation failure (unidentifiable model, or an
internal error reported in one line).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import errno
import os
import sys

import numpy as np

from . import jsonio
from .energy import (
    direct_baseline,
    rmse_sweep,
    simulate_dataset,
    sweep,
    term_row,
)
from .fisher import (
    VERDICT_BAND,
    NoContrastError,
    advantage_verdict,
    matrix_crb,
    prefix_fisher_matrices,
)
from .inference import (
    BOOTSTRAP_REPLICATES,
    IdentifiabilityError,
    MLEGrid,
    estimate_term,
    load_dataset,
    save_dataset,
)
from .jsonio import DatasetFormatError
from .noisefit import (
    CURVE_POINTS,
    INSTABILITY_THRESHOLD,
    LAMBDA_MAX,
    MIN_CURVE_POINTS,
    check_threshold,
    lambda_profile,
    load_curve,
    simulate_curves,
)
from .pauli import (
    BUILTIN_PROBLEMS,
    AnsatzSpec,
    PauliString,
    PauliSum,
    builtin_problem,
    load_hamiltonian,
    oracle_expectation,
)
from .schedules import (
    MAX_LAYERS,
    NRIS_C,
    LayerSchedule,
    eis,
    lis,
    noise_robust_schedule,
    polynomial,
    query_cost,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_COMPUTE = 4

def _resolve_seed(value: int | None) -> int:
    """The --seed value, else RAE_SEED, else 0.  A negative seed is
    rejected here, before any output exists: numpy would reject it only
    once a command builds its first generator."""
    if value is not None:
        seed, source = int(value), "--seed"
    else:
        env = os.environ.get("RAE_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "RAE_SEED"
        except ValueError:
            raise ValueError(f"RAE_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _check_bootstrap(count: int | None) -> None:
    """Reject a ``--bootstrap`` count below 1 before any work; ``None``
    leaves the per-register default of ``estimate``."""
    if count is not None and count < 1:
        raise ValueError(f"--bootstrap must be a positive integer, got {count}")


def _load_problem(args: argparse.Namespace) -> tuple[PauliSum, AnsatzSpec]:
    """The ``--hamiltonian`` problem, a builtin name or a saved file, with
    ``--theta`` applied to its ansatz where the command declares it.  Every
    command that loads a problem runs its ansatz, so a file without one is
    rejected."""
    theta = getattr(args, "theta", None)
    if args.hamiltonian in BUILTIN_PROBLEMS:
        return builtin_problem(args.hamiltonian, theta)
    h, ansatz = load_hamiltonian(args.hamiltonian)
    if ansatz is None:
        raise ValueError(f"{args.command} needs an ansatz; the Hamiltonian file has none")
    if theta is not None:
        ansatz = AnsatzSpec(ansatz.kind, theta)
    return h, ansatz


def _measured_terms(args: argparse.Namespace, h: PauliSum):
    """The terms of ``h`` that a command runs circuits for: every one but
    the identity.  A Hamiltonian with none leaves nothing to measure."""
    terms = h.non_identity_terms()
    if not terms:
        raise ValueError(
            f"{args.command} needs a non-identity term; the Hamiltonian has none"
        )
    return terms


# Parsed arguments a report's config leaves out: the seed is recorded as
# resolved and theta as the ansatz used; the rest name outputs or the parser.
_NOT_CONFIG = frozenset({"command", "func", "seed", "stamp", "theta", "out",
                         "json"})


def _config(args: argparse.Namespace, seed: int, ansatz=None) -> dict:
    """What a run's outputs depend on: the command, its seed, every other
    argument but the output paths and ``--stamp`` (``lam`` is written
    ``lambda``), and the ansatz used."""
    config = {"command": args.command, "seed": seed}
    for key, value in vars(args).items():
        if key not in _NOT_CONFIG:
            config["lambda" if key == "lam" else key] = value
    if ansatz is not None:
        config.update(ansatz=ansatz.kind, theta=ansatz.theta)
    return config


def _check_writable(*paths) -> None:
    """Reject, before any work, an output path whose directory is missing
    or is not a directory, or that names a directory; ``None`` is no
    output.  A failure left for write time goes through :func:`_writing`."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path) or os.curdir
        if not os.path.exists(directory):
            code = errno.ENOENT
        elif not os.path.isdir(directory):
            code = errno.ENOTDIR
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            continue
        raise ValueError(f"cannot write {path}: {os.strerror(code)}")


@contextlib.contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a bad output argument (exit 2);
    a failed read is ``rae.jsonio.load``'s (exit 3)."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_report(path: str, stamp: bool, body: dict,
                  config: dict | None = None) -> None:
    """JSON report: ``body`` plus the optional timestamp, and the config
    with its digest for commands that have one."""
    doc = {"timestamp": _utc_stamp(stamp), **body}
    if config is not None:
        doc["config"] = config
        doc["config_sha256"] = jsonio.digest(config)
    with _writing(path):
        jsonio.save(path, doc)
    print(f"wrote {path}")


def _utc_stamp(enabled: bool) -> str | None:
    if not enabled:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _grid_from_args(args: argparse.Namespace) -> MLEGrid:
    return MLEGrid(args.grid_pi, args.grid_lambda, args.grid_lambda_max)


def _build_schedule(args: argparse.Namespace, i_max: int,
                    pi_prior: float | None = None) -> LayerSchedule:
    """The ``--schedule`` family at size ``i_max``; nris needs ``pi_prior``."""
    if args.schedule == "lis":
        return lis(i_max, args.shots)
    if args.schedule == "eis":
        return eis(i_max, args.shots)
    if args.schedule == "poly":
        return polynomial(args.degree, i_max, args.shots)
    if args.schedule == "nris":
        if args.lam is None or pi_prior is None:
            raise ValueError(
                "the noise-robust schedule needs both --lambda and an amplitude prior"
            )
        return noise_robust_schedule(pi_prior, args.lam, args.shots, args.c)
    raise ValueError(f"unknown schedule family {args.schedule!r}")


def _fmt(x: float) -> str:
    # repr round-trips exactly, so reruns stay byte-identical
    return repr(float(x))


def cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    h, ansatz = _load_problem(args)
    terms = _measured_terms(args, h)
    config = _config(args, seed, ansatz)
    digest = jsonio.digest(config)
    stamp = _utc_stamp(args.stamp)
    # every term is simulated before --out is created or written
    outputs = []
    for j, (_, string) in enumerate(terms):
        prior = None
        if args.schedule == "nris":
            prior = oracle_expectation(ansatz, string)
        schedule = _build_schedule(args, args.i_max, prior)
        dataset = simulate_dataset(
            ansatz, string, args.lam, schedule,
            seed=np.random.SeedSequence(seed, spawn_key=(j,)),
        )
        dataset.metadata["seed"] = seed
        dataset.metadata["config_sha256"] = digest
        if schedule.origin:
            dataset.metadata["schedule_origin"] = schedule.origin
        if stamp is not None:
            dataset.metadata["generated_at"] = stamp
        outputs.append((os.path.join(args.out, f"{string.word}.json"), dataset,
                        query_cost(schedule)))
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    for path, dataset, cost in outputs:
        with _writing(path):
            save_dataset(path, dataset)
        print(f"wrote {path}: {len(dataset.layers)} depths, {cost} queries")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if not (np.isfinite(args.band) and args.band > 0.0):
        raise ValueError(f"--band must be a finite positive number, got {args.band}")
    _check_bootstrap(args.bootstrap)
    _check_writable(args.out)
    datasets = [(path, load_dataset(path)) for path in args.files]
    # compared by equality: metadata is free-form and may not be hashable
    provenance = [
        (d.metadata.get("ansatz"), d.metadata.get("theta"), d.metadata.get("lam"))
        for _, d in datasets
    ]
    if any(p != provenance[0] for p in provenance) and not args.force:
        raise ValueError(
            "input datasets disagree on ansatz/theta/lambda metadata; "
            "pass --force to combine them anyway"
        )
    grid = _grid_from_args(args)
    config = _config(args, seed)
    rows = []
    for j, (path, dataset) in enumerate(datasets):
        m = args.bootstrap
        if m is None:
            m = BOOTSTRAP_REPLICATES.get(len(dataset.pauli))
            if m is None:
                raise ValueError(
                    f"no default replicate count for {len(dataset.pauli)}-qubit "
                    "terms; pass --bootstrap"
                )
        result, pi_hats, _ = estimate_term(
            dataset, m, grid=grid, seed=np.random.SeedSequence(seed, spawn_key=(j,)))
        row = term_row(dataset, result, pi_hats, grid)
        row["file"] = path
        row["verdict"] = None if row["crb"] is None else advantage_verdict(
            row["rmse"], row["sigma_rmse"], row["crb"], row["mse_direct"],
            k=args.band).value
        rows.append(row)
    for row in rows:
        line = (
            f"{row['term']}: pi_hat={row['pi_hat']:+.6f} "
            f"lambda_hat={row['lambda_hat']:.6f} rmse={row['rmse']:.3e} "
            f"[{row['method']}]"
        )
        if row["verdict"] is not None:
            line += f" verdict={row['verdict']}"
        print(line)
        if row["note"] is not None:
            print(f"  note: {row['note']}")
    if args.out:
        _write_report(args.out, args.stamp, {"terms": rows}, config)
    return EXIT_OK


def _sweep_setup(args: argparse.Namespace):
    """Shared front half of ``sweep`` and ``energy``: seed, problem, one
    schedule per row (sizes 0 to ``--i-max``), grid, and the report
    config."""
    seed = _resolve_seed(args.seed)
    _check_bootstrap(args.bootstrap)
    _check_writable(args.out, args.json)
    h, ansatz = _load_problem(args)
    _measured_terms(args, h)
    if args.schedule == "nris":
        raise ValueError(
            "sweeps need a schedule family with a single size axis, not 'nris'"
        )
    # the deepest row first: an --i-max its family refuses fails at once
    deepest = _build_schedule(args, args.i_max)
    schedules = [_build_schedule(args, i) for i in range(args.i_max)] + [deepest]
    config = _config(args, seed, ansatz)
    return seed, h, ansatz, schedules, _grid_from_args(args), config


def _write_table(args: argparse.Namespace, header: str, columns,
                 rows: list[dict], config: dict) -> None:
    """The ``columns`` of ``rows`` as CSV at ``--out`` and, with ``--json``,
    the full rows as a report."""
    lines = [header] + [
        ",".join(_fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                 for c in columns)
        for row in rows
    ]
    with _writing(args.out):
        jsonio.write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.json:
        _write_report(args.json, args.stamp, {"rows": rows}, config)


def cmd_sweep(args: argparse.Namespace) -> int:
    seed, h, ansatz, schedules, grid, config = _sweep_setup(args)
    columns = ("term", "l_max", "n_queries", "pi_hat", "lambda_hat", "rmse",
               "sigma_rmse")
    rows = [{**term_row(*cell, grid), "l_max": int(max(schedule.layers))}
            for schedule, cells in sweep(h, ansatz, args.lam, schedules,
                                         args.bootstrap, grid, seed)
            for cell in cells]
    _write_table(args, ",".join(columns), columns, rows, config)
    return EXIT_OK


def cmd_energy(args: argparse.Namespace) -> int:
    seed, h, ansatz, schedules, grid, config = _sweep_setup(args)
    rows = [{**dataclasses.asdict(row), "baseline_rmse":
             direct_baseline(h, ansatz, args.lam, row.n_queries_per_term).rmse}
            for row in rmse_sweep(h, ansatz, args.lam, schedules, args.bootstrap,
                                  seed=seed, grid=grid)]
    _write_table(args, "l_max,n_queries,rmse,bias,variance",
                 ("l_max", "n_queries_per_term", "rmse", "bias", "variance"),
                 rows, config)
    return EXIT_OK


def cmd_fit_lambda(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    check_threshold(args.threshold, "--threshold")
    _check_writable(args.out)
    if args.files and args.simulate:
        raise ValueError("give saved curve files or --simulate, not both")
    if args.files:
        curves = [load_curve(path) for path in args.files]
    elif args.simulate:
        _, ansatz = _load_problem(args)
        curves = simulate_curves(
            ansatz.kind, PauliString(args.term), args.layers, args.lam, args.shots,
            [np.random.SeedSequence(seed, spawn_key=(layers,)) for layers in args.layers],
            pi_values=np.linspace(0.0, 1.0, args.points),
        )
    else:
        raise ValueError("need saved curve files or --simulate")
    profile = lambda_profile(
        curves, instability_threshold=args.threshold, lambda_max=args.lambda_max
    )
    width = max([3, *(len(str(row.layers)) for row in profile.rows)])
    print(f"{'L':>{width}}  lambda_hat    delta_lambda")
    for row in profile.rows:
        print(f"{row.layers:>{width}d}  {row.lambda_hat:<12.6f} {row.delta_lambda:.6f}")
    bounded = np.isfinite(profile.variation)
    if bounded:
        print(f"relative variation: {100.0 * profile.variation:.1f}%")
    else:
        print("relative variation: unbounded (a fitted rate is 0)")
    verdict = "unstable" if profile.unstable else "stable"
    print(f"verdict: {verdict} (threshold {100.0 * args.threshold:.1f}%)")
    if args.out:
        _write_report(args.out, args.stamp, {
            "rows": [dataclasses.asdict(r) for r in profile.rows],
            "variation": float(profile.variation) if bounded else None,
            "unstable": bool(profile.unstable),
            "threshold": float(args.threshold),
        })
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    schedule = _build_schedule(args, args.i_max, args.pi)
    # every bound is computed, in one pass, before anything is printed
    prefixes, lines = [], []
    if args.pi is not None and args.lam is not None:
        n_queries = 0
        infos = prefix_fisher_matrices(args.pi, args.lam, schedule)
        for k, (layer, info) in enumerate(zip(schedule.layers, infos), 1):
            n_queries += schedule.shots_per_layer * (2 * layer + 1)
            bound = None
            try:
                bound = matrix_crb(info)
                text = f"{bound:.6e}"
            except NoContrastError:
                text = "n/a (no contrast left at any depth)"
            except IdentifiabilityError:
                text = "n/a (depth set not identifiable)"
            if args.out:
                prefixes.append({"layers": list(schedule.layers[:k]),
                                 "n_queries": n_queries, "crb": bound})
            lines.append((layer, n_queries, text))
    layer_width = max([4, *(len(str(layer)) for layer, _, _ in lines)])
    query_width = max([9, *(len(str(n_queries)) for _, n_queries, _ in lines)])
    lines = [f"  L<={layer:>{layer_width}d}  queries={n_queries:>{query_width}d}  crb={text}"
             for layer, n_queries, text in lines]
    print(f"layers: {' '.join(str(layer) for layer in schedule.layers)}")
    print(f"shots per layer: {schedule.shots_per_layer}")
    print(f"query cost: {query_cost(schedule)}")
    if schedule.origin:
        print(f"origin: {schedule.origin}")
    if lines:
        print("best-case rmse by schedule prefix:")
        print("\n".join(lines))
    if args.out:
        _write_report(args.out, args.stamp, {
            "layers": list(schedule.layers),
            "shots_per_layer": schedule.shots_per_layer,
            "origin": schedule.origin,
            "n_queries": query_cost(schedule),
            "pi": args.pi,
            "lambda": args.lam,
            "prefixes": prefixes,
        })
    return EXIT_OK


def _parse_layer_list(text: str) -> tuple[int, ...]:
    try:
        layers = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if min(layers) < 0:
        raise argparse.ArgumentTypeError(
            f"layer counts must be non-negative, got {text!r}")
    if max(layers) > MAX_LAYERS:
        raise argparse.ArgumentTypeError(
            f"layer counts must be at most {MAX_LAYERS}, got {text!r}")
    return layers


def _parse_points(text: str) -> int:
    try:
        points = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if points < MIN_CURVE_POINTS:
        raise argparse.ArgumentTypeError(
            f"a curve needs at least {MIN_CURVE_POINTS} points, got {text!r}")
    return points


def _arg(*flags, **kwargs):
    """One ``add_argument`` call, for a subcommand's parser to make."""
    return flags, kwargs


_HAMILTONIAN = _arg(
    "--hamiltonian", default="two_qubit",
    help=f"builtin problem ({', '.join(BUILTIN_PROBLEMS)}) or path to a saved "
         "Hamiltonian JSON (default: two_qubit)")
# fit-lambda sweeps the ansatz angle itself, so it reads no --theta
_PROBLEM = [
    _HAMILTONIAN,
    _arg("--theta", type=float, default=None,
         help="ansatz angle override (default: the problem's ground-state angle)"),
]
_SEED = [_arg("--seed", type=int, default=None,
              help="base seed (default: RAE_SEED environment variable, then 0)")]
_STAMP = [_arg("--stamp", action="store_true",
               help="embed a UTC timestamp in outputs (off by default so reruns "
                    "are byte-identical)")]
_GRID = [
    _arg("--grid-pi", type=int, default=MLEGrid.pi_points,
         help=f"amplitude grid points (default: {MLEGrid.pi_points})"),
    _arg("--grid-lambda", type=int, default=MLEGrid.lambda_points,
         help=f"decay-rate grid points (default: {MLEGrid.lambda_points})"),
    _arg("--grid-lambda-max", type=float, default=MLEGrid.lambda_max,
         help=f"decay-rate grid upper edge (default: {MLEGrid.lambda_max})"),
]
_FAMILY = [
    _arg("--schedule", choices=("lis", "eis", "poly", "nris"), default="lis",
         help="layer schedule family (default: lis)"),
    _arg("--i-max", type=int, default=8,
         help="schedule size parameter (default: 8)"),
    _arg("--degree", type=int, default=2,
         help="growth exponent for poly schedules (default: 2)"),
    _arg("--shots", type=int, default=8192,
         help="shots per layer (default: 8192)"),
]
_NOISE = [_arg("--lambda", dest="lam", type=float, default=0.0,
               help="depolarizing rate per layer (default: 0)")]
_TABLE = [
    _arg("--bootstrap", type=int, default=300,
         help="bootstrap replicates per term at each schedule size "
              "(default: 300)"),
    _arg("--out", required=True, help="output CSV path"),
    _arg("--json", default=None, help="also write a JSON report here"),
]
# only the commands that can build an nris schedule read --c
_NRIS = [_arg("--c", type=float, default=NRIS_C,
              help=f"edge-guard width multiplier for nris (default: {NRIS_C:g})")]
_REPLICATES = ", ".join(f"{m} for {n}-qubit terms"
                        for n, m in BOOTSTRAP_REPLICATES.items())
_REPORT = _arg("--out", default=None, help="write a JSON report here")


def _commands() -> dict:
    """Each subcommand's function, help line and arguments in ``--help``
    order.  Built per call, so a ``cmd_*`` replaced after import is used."""
    return {
        "generate": (
            cmd_generate, "simulate parity datasets, one JSON file per Pauli term",
            [*_PROBLEM, *_FAMILY, *_NRIS, *_SEED, *_STAMP, *_NOISE,
             _arg("--out", required=True, help="output directory")]),
        "estimate": (
            cmd_estimate,
            "joint amplitude and decay-rate estimates for saved datasets",
            [*_GRID, *_SEED, *_STAMP,
             _arg("files", nargs="+", help="dataset JSON files"),
             _arg("--bootstrap", type=int, default=None,
                  help=f"bootstrap replicates (default: {_REPLICATES})"),
             _arg("--band", type=float, default=VERDICT_BAND,
                  help="uncertainty band width for the advantage verdict "
                       f"(default: {VERDICT_BAND:g})"),
             _arg("--force", action="store_true",
                  help="estimate even if the files disagree on provenance"),
             _REPORT]),
        "sweep": (
            cmd_sweep, "per-term estimation error versus schedule size, as CSV",
            [*_PROBLEM, *_FAMILY, *_GRID, *_SEED, *_STAMP, *_NOISE, *_TABLE]),
        "energy": (
            cmd_energy, "ground-state energy error versus schedule size, as CSV",
            [*_PROBLEM, *_FAMILY, *_GRID, *_SEED, *_STAMP, *_NOISE, *_TABLE]),
        "fit-lambda": (
            cmd_fit_lambda,
            "fit the decay rate from likelihood curves and report stability",
            [_HAMILTONIAN, *_SEED, *_STAMP,
             _arg("files", nargs="*", help="saved curve JSON files"),
             _arg("--simulate", action="store_true",
                  help="simulate the curves instead of reading files"),
             _arg("--term", default="Z",
                  help="Pauli word to sweep when simulating (default: Z)"),
             _arg("--layers", type=_parse_layer_list, default=(1, 2, 3, 4, 5),
                  help="comma-separated layer counts for --simulate "
                       "(default: 1,2,3,4,5)"),
             _arg("--lambda", dest="lam", type=float, default=0.045,
                  help="depolarizing rate for --simulate (default: 0.045)"),
             _arg("--shots", type=int, default=100000,
                  help="shots per curve point for --simulate (default: 100000)"),
             _arg("--points", type=_parse_points, default=CURVE_POINTS,
                  help=f"amplitudes per curve for --simulate (default: {CURVE_POINTS})"),
             _arg("--threshold", type=float, default=INSTABILITY_THRESHOLD,
                  help="relative-variation threshold flagging an unstable "
                       f"fit (default: {INSTABILITY_THRESHOLD:.2f})"),
             _arg("--lambda-max", type=float, default=LAMBDA_MAX,
                  help="upper edge of the decay-rate search "
                       f"(default: {LAMBDA_MAX:g})"),
             _REPORT]),
        "schedule": (
            cmd_schedule,
            "print a schedule's layers, query cost, and best-case rmse",
            [*_FAMILY, *_NRIS, *_STAMP,
             _arg("--lambda", dest="lam", type=float, default=None,
                  help="depolarizing rate (needed for nris and rmse bounds)"),
             _arg("--pi", type=float, default=None,
                  help="amplitude prior (needed for nris and rmse bounds)"),
             _REPORT]),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="rae",
        description="Amplitude estimation with noisy Grover circuits: "
                    "simulate parity data, run the joint likelihood fit, and "
                    "assemble ground-state energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every name is listed, but only the command being run (the first word
    # that is not a flag) gets its arguments
    chosen = next((a for a in argv if not a.startswith("-")), None)
    for name, (func, help_line, arguments) in _commands().items():
        p = sub.add_parser(name, help=help_line)
        if name == chosen:
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except IdentifiabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a fault of the program, not of its inputs
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
