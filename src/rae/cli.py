"""Command-line front end: generate parity data, estimate amplitudes and
energies, profile the decay rate, and inspect measurement schedules.

Every command is deterministic for a fixed configuration.  The seed falls
back to the ``RAE_SEED`` environment variable and then to 0, per-term and
per-row substreams are derived from spawn keys that encode only the position
in the work grid, JSON is written with sorted keys, and no timestamp is
emitted unless ``--stamp`` is given.  Running the same invocation twice
therefore produces byte-identical output files, and computing the cells of a
sweep in any order (or in parallel) gives the same table.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 unreadable or
malformed input file, 4 computation failure (unidentifiable model, or an
internal error reported in one line).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import jsonio
from .energy import (
    direct_baseline,
    estimate_term,
    rmse_sweep,
    simulate_dataset,
    sweep_cell,
    term_row,
)
from .fisher import advantage_verdict, crb_rmse
from .inference import (
    BOOTSTRAP_REPLICATES,
    IdentifiabilityError,
    MLEGrid,
    load_dataset,
    save_dataset,
)
from .jsonio import DatasetFormatError
from .noisefit import lambda_profile, load_curve, simulate_curve
from .pauli import (
    AnsatzSpec,
    PauliString,
    builtin_problem,
    load_hamiltonian,
    oracle_expectation,
)
from .schedules import (
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

_BUILTIN_PROBLEMS = ("one_qubit", "two_qubit")


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


def _load_problem(spec: str, theta: float | None):
    """Builtin problem name or path to a saved Hamiltonian file."""
    if spec in _BUILTIN_PROBLEMS:
        return builtin_problem(spec, theta)
    h, ansatz = load_hamiltonian(spec)
    if theta is not None:
        if ansatz is None:
            raise ValueError(
                f"--theta given but {spec} carries no ansatz to apply it to"
            )
        ansatz = AnsatzSpec(ansatz.kind, float(theta))
    return h, ansatz


# Arguments every grid-fitting command records, and those of the sweeps.
_GRID_KEYS = ("grid_pi", "grid_lambda", "grid_lambda_max")
_SWEEP_KEYS = ("hamiltonian", "lambda", "schedule", "i_max", "degree", "shots",
               "bootstrap", *_GRID_KEYS)


def _config(args: argparse.Namespace, seed: int, keys, ansatz=None) -> dict:
    """What a run's outputs depend on: the command, its seed, the arguments
    named in ``keys`` (``lambda`` is ``--lambda``), and the ansatz used."""
    config = {"command": args.command, "seed": seed}
    for key in keys:
        config[key] = getattr(args, "lam" if key == "lambda" else key)
    if ansatz is not None:
        config.update(ansatz=ansatz.kind, theta=ansatz.theta)
    return config


def _config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_report(path: str, stamp: bool, body: dict,
                  config: dict | None = None) -> None:
    """JSON report: ``body`` plus the format version and the optional
    timestamp, and the config with its digest for commands that have one."""
    doc = {"version": jsonio.FORMAT_VERSION, "timestamp": _utc_stamp(stamp), **body}
    if config is not None:
        doc["config"] = config
        doc["config_sha256"] = _config_digest(config)
    _write_text(path, jsonio.dumps(doc))
    print(f"wrote {path}")


def _utc_stamp(enabled: bool) -> str | None:
    if not enabled:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _grid_from_args(args: argparse.Namespace) -> MLEGrid:
    return MLEGrid(
        pi_points=args.grid_pi,
        lambda_points=args.grid_lambda,
        lambda_max=args.grid_lambda_max,
    )


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
    h, ansatz = _load_problem(args.hamiltonian, args.theta)
    if ansatz is None:
        raise ValueError(
            "dataset generation needs an ansatz; the Hamiltonian file has none"
        )
    terms = h.non_identity_terms()
    if not terms:
        raise ValueError("the Hamiltonian has no non-identity terms to measure")
    config = _config(args, seed, ("hamiltonian", "lambda", "schedule", "i_max",
                                  "degree", "c", "shots"), ansatz)
    digest = _config_digest(config)
    stamp = _utc_stamp(args.stamp)
    os.makedirs(args.out, exist_ok=True)
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
        path = os.path.join(args.out, f"{string.word}.json")
        save_dataset(path, dataset)
        print(
            f"wrote {path}: {len(dataset.records)} depths, "
            f"{query_cost(schedule)} queries"
        )
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if not (np.isfinite(args.band) and args.band > 0.0):
        raise ValueError(f"--band must be a finite positive number, got {args.band}")
    datasets = [(path, load_dataset(path)) for path in args.files]
    provenance = {
        (d.metadata.get("ansatz"), d.metadata.get("theta"), d.metadata.get("lam"))
        for _, d in datasets
    }
    if len(provenance) > 1 and not args.force:
        raise ValueError(
            "input datasets disagree on ansatz/theta/lambda metadata; "
            "pass --force to combine them anyway"
        )
    grid = _grid_from_args(args)
    config = _config(args, seed, ("files", "bootstrap", "band", "force",
                                  *_GRID_KEYS))
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
        row = term_row(dataset, *estimate_term(
            dataset, m, grid=grid,
            seed=np.random.SeedSequence(seed, spawn_key=(j,)),
        ))
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
    h, ansatz = _load_problem(args.hamiltonian, args.theta)
    if ansatz is None:
        raise ValueError(
            f"{args.command} needs an ansatz; the Hamiltonian file has none"
        )
    if args.schedule == "nris":
        raise ValueError(
            "sweeps need a schedule family with a single size axis, not 'nris'"
        )
    if args.i_max < 0:
        raise ValueError("i_max must be non-negative")
    schedules = [_build_schedule(args, i) for i in range(args.i_max + 1)]
    config = _config(args, seed, _SWEEP_KEYS, ansatz)
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
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.json:
        _write_report(args.json, args.stamp, {"rows": rows}, config)


def cmd_sweep(args: argparse.Namespace) -> int:
    seed, h, ansatz, schedules, grid, config = _sweep_setup(args)
    columns = ("term", "l_max", "n_queries", "pi_hat", "lambda_hat", "rmse",
               "sigma_rmse")
    rows = []
    for i, schedule in enumerate(schedules):
        for j, (_, string) in enumerate(h.non_identity_terms()):
            row = term_row(*sweep_cell(ansatz, string, args.lam, schedule,
                                       args.bootstrap, grid, seed, (i, j)))
            row["l_max"] = int(max(schedule.layers))
            rows.append({c: row[c] for c in columns})
    _write_table(args, ",".join(columns), columns, rows, config)
    return EXIT_OK


def cmd_energy(args: argparse.Namespace) -> int:
    seed, h, ansatz, schedules, grid, config = _sweep_setup(args)
    estimates = rmse_sweep(h, ansatz, args.lam, schedules, args.bootstrap,
                           seed=seed, grid=grid)
    rows = []
    for row in estimates:
        baseline = direct_baseline(h, ansatz, args.lam, row.n_queries_per_term)
        rows.append({
            "l_max": int(row.l_max),
            "n_queries_per_term": int(row.n_queries_per_term),
            "energy": float(row.energy),
            "bias": float(row.bias),
            "variance": float(row.variance),
            "rmse": float(row.rmse),
            "baseline_rmse": float(baseline.rmse),
        })
    _write_table(args, "l_max,n_queries,rmse,bias,variance",
                 ("l_max", "n_queries_per_term", "rmse", "bias", "variance"),
                 rows, config)
    return EXIT_OK


def cmd_fit_lambda(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.files and args.simulate:
        raise ValueError("give saved curve files or --simulate, not both")
    if args.files:
        curves = [load_curve(path) for path in args.files]
    elif args.simulate:
        _, ansatz = _load_problem(args.hamiltonian, args.theta)
        if ansatz is None:
            raise ValueError("--simulate needs an ansatz kind from the problem")
        string = PauliString(args.term)
        pi_values = np.linspace(0.0, 1.0, args.points)
        curves = [
            simulate_curve(
                ansatz.kind, string, layers, args.lam, args.shots,
                seed=np.random.SeedSequence(seed, spawn_key=(layers,)),
                pi_values=pi_values,
            )
            for layers in args.layers
        ]
    else:
        raise ValueError("need saved curve files or --simulate")
    profile = lambda_profile(
        curves, instability_threshold=args.threshold, lambda_max=args.lambda_max
    )
    print("  L  lambda_hat    delta_lambda")
    for row in profile.rows:
        print(f"{row.layers:>3d}  {row.lambda_hat:<12.6f} {row.delta_lambda:.6f}")
    bounded = np.isfinite(profile.variation)
    if bounded:
        print(f"relative variation: {100.0 * profile.variation:.1f}%")
    else:
        print("relative variation: unbounded (a fitted rate is 0)")
    verdict = "unstable" if profile.unstable else "stable"
    print(f"verdict: {verdict} (threshold {100.0 * args.threshold:.1f}%)")
    if args.out:
        _write_report(args.out, args.stamp, {
            "rows": [
                {
                    "layers": int(r.layers),
                    "lambda_hat": float(r.lambda_hat),
                    "delta_lambda": float(r.delta_lambda),
                }
                for r in profile.rows
            ],
            "variation": float(profile.variation) if bounded else None,
            "unstable": bool(profile.unstable),
            "threshold": float(args.threshold),
        })
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    schedule = _build_schedule(args, args.i_max, args.pi)
    print(f"layers: {' '.join(str(layer) for layer in schedule.layers)}")
    print(f"shots per layer: {schedule.shots_per_layer}")
    print(f"query cost: {query_cost(schedule)}")
    if schedule.origin:
        print(f"origin: {schedule.origin}")
    prefixes = []
    if args.pi is not None and args.lam is not None:
        for k in range(1, len(schedule.layers) + 1):
            sub = LayerSchedule(schedule.layers[:k], schedule.shots_per_layer)
            try:
                bound = crb_rmse(args.pi, args.lam, sub)
            except IdentifiabilityError:
                bound = None
            prefixes.append({
                "layers": list(sub.layers),
                "n_queries": int(query_cost(sub)),
                "crb": None if bound is None else float(bound),
            })
        print("best-case rmse by schedule prefix:")
        for row in prefixes:
            if row["crb"] is None:
                text = "n/a (depth set not identifiable)"
            else:
                text = f"{row['crb']:.6e}"
            print(
                f"  L<={row['layers'][-1]:>4d}  queries={row['n_queries']:>9d}  "
                f"crb={text}"
            )
    if args.out:
        _write_report(args.out, args.stamp, {
            "layers": list(schedule.layers),
            "shots_per_layer": int(schedule.shots_per_layer),
            "origin": schedule.origin,
            "n_queries": int(query_cost(schedule)),
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
    if not layers:
        raise argparse.ArgumentTypeError("need at least one layer count")
    return layers


def build_parser() -> argparse.ArgumentParser:
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument(
        "--hamiltonian", default="two_qubit",
        help="builtin problem (one_qubit, two_qubit) or path to a saved "
             "Hamiltonian JSON (default: two_qubit)",
    )
    problem.add_argument(
        "--theta", type=float, default=None,
        help="ansatz angle override (default: the problem's ground-state angle)",
    )

    seeding = argparse.ArgumentParser(add_help=False)
    seeding.add_argument(
        "--seed", type=int, default=None,
        help="base seed (default: RAE_SEED environment variable, then 0)",
    )
    stamping = argparse.ArgumentParser(add_help=False)
    stamping.add_argument(
        "--stamp", action="store_true",
        help="embed a UTC timestamp in outputs (off by default so reruns "
             "are byte-identical)",
    )

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-pi", type=int, default=10000,
                      help="amplitude grid points (default: 10000)")
    grid.add_argument("--grid-lambda", type=int, default=100,
                      help="decay-rate grid points (default: 100)")
    grid.add_argument("--grid-lambda-max", type=float, default=0.5,
                      help="decay-rate grid upper edge (default: 0.5)")

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument(
        "--schedule", choices=("lis", "eis", "poly", "nris"), default="lis",
        help="layer schedule family (default: lis)",
    )
    family.add_argument("--i-max", type=int, default=8,
                        help="schedule size parameter (default: 8)")
    family.add_argument("--degree", type=int, default=2,
                        help="growth exponent for poly schedules (default: 2)")
    family.add_argument("--shots", type=int, default=8192,
                        help="shots per layer (default: 8192)")

    # only the commands that can build an nris schedule read --c
    nris = argparse.ArgumentParser(add_help=False)
    nris.add_argument("--c", type=float, default=1.0,
                      help="edge-guard width multiplier for nris (default: 1)")

    parser = argparse.ArgumentParser(
        prog="rae",
        description="Amplitude estimation with noisy Grover circuits: "
                    "simulate parity data, run the joint likelihood fit, and "
                    "assemble ground-state energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate", parents=[problem, family, nris, seeding, stamping],
        help="simulate parity datasets, one JSON file per Pauli term",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="depolarizing rate per layer (default: 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "estimate", parents=[grid, seeding, stamping],
        help="joint amplitude and decay-rate estimates for saved datasets",
    )
    p.add_argument("files", nargs="+", help="dataset JSON files")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="bootstrap replicates (default: 15000 for 1-qubit "
                        "terms, 10000 for 2-qubit terms)")
    p.add_argument("--band", type=float, default=2.0,
                   help="uncertainty band width for the advantage verdict "
                        "(default: 2)")
    p.add_argument("--force", action="store_true",
                   help="estimate even if the files disagree on provenance")
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "sweep", parents=[problem, family, grid, seeding, stamping],
        help="per-term estimation error versus schedule size, as CSV",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="depolarizing rate per layer (default: 0)")
    p.add_argument("--bootstrap", type=int, default=300,
                   help="bootstrap replicates per cell (default: 300)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json", default=None, help="also write a JSON report here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "energy", parents=[problem, family, grid, seeding, stamping],
        help="ground-state energy error versus schedule size, as CSV",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="depolarizing rate per layer (default: 0)")
    p.add_argument("--bootstrap", type=int, default=300,
                   help="bootstrap replicates per term (default: 300)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json", default=None, help="also write a JSON report here")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser(
        "fit-lambda", parents=[problem, seeding, stamping],
        help="fit the decay rate from likelihood curves and report stability",
    )
    p.add_argument("files", nargs="*", help="saved curve JSON files")
    p.add_argument("--simulate", action="store_true",
                   help="simulate the curves instead of reading files")
    p.add_argument("--term", default="Z",
                   help="Pauli word to sweep when simulating (default: Z)")
    p.add_argument("--layers", type=_parse_layer_list, default=(1, 2, 3, 4, 5),
                   help="comma-separated layer counts for --simulate "
                        "(default: 1,2,3,4,5)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.045,
                   help="depolarizing rate for --simulate (default: 0.045)")
    p.add_argument("--shots", type=int, default=100000,
                   help="shots per curve point for --simulate (default: 100000)")
    p.add_argument("--points", type=int, default=10,
                   help="amplitudes per curve for --simulate (default: 10)")
    p.add_argument("--threshold", type=float, default=0.20,
                   help="relative-variation threshold flagging an unstable "
                        "fit (default: 0.20)")
    p.add_argument("--lambda-max", type=float, default=5.0,
                   help="upper edge of the decay-rate search (default: 5)")
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_fit_lambda)

    p = sub.add_parser(
        "schedule", parents=[family, nris, stamping],
        help="print a schedule's layers, query cost, and best-case rmse",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="depolarizing rate (needed for nris and rmse bounds)")
    p.add_argument("--pi", type=float, default=None,
                   help="amplitude prior (needed for nris and rmse bounds)")
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_schedule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except IdentifiabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"error: cannot read {name}", file=sys.stderr)
        return EXIT_FORMAT
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
