"""The four benchmark workloads and the checks on their outputs.

A workload's constructor is its set-up: it generates the inputs from the
seed, and the program sees only those inputs.  ``run`` performs one
operation ("op") and ``check`` lists what is wrong with its outputs.  Every
op first clears ``likelihood_tables``, so each op pays what a fresh ``rae``
process pays.  All paths are relative to the working directory the caller
has entered, so reports that record input paths hash the same in every run.

``tiny=True`` shrinks every workload to a size the self-test runs in
seconds; the benchmark itself always runs the full sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Decay rate of the estimate-boot, point-mle and curve-fit inputs; the
# energy sweep uses the README's 0.05.
LAM = 0.045
ENERGY_LAM = 0.05
SHOTS = 8192

# Bootstrap RMSE includes the replicate spread, so a correct fit sits well
# inside this many RMSEs of the oracle value.
ESTIMATE_TOLERANCE = 5.0
# Per-rate tolerance of the decay fits, in units of their own error bar.
# The error bars are calibrated (the z-scores of 300 fits had sd 1.01), so
# 3 sigma over 20 rates would flag ~5% of correct ops; 5 sigma flags ~1e-5.
FIT_TOLERANCE = 5.0
# RMSE/CRB of a correct fit sits near 1 (0.91-1.10 over 12 seeds of 200
# datasets); its sampling sd is ~1/sqrt(2N), and 4 of those below 1 is the
# floor.  Above 2 the grid or the estimator has lost efficiency.
CRB_BAND_SIGMAS = 4.0
CRB_BAND_HIGH = 2.0


@dataclass
class OpResult:
    exit_code: int
    items: int
    outputs: dict[str, bytes] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    error: str = ""


def _clear_tables(rae) -> None:
    tables = getattr(rae.inference, "likelihood_tables", None)
    if tables is not None:
        tables.cache_clear()


def _run_cli(rae, argv: list[str]) -> tuple[int, str]:
    """``rae.cli.main`` in this process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rae.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


def _read(*paths: str) -> dict[str, bytes]:
    outputs = {}
    for path in paths:
        with open(path, "rb") as fh:
            outputs[path] = fh.read()
    return outputs


def _grid_args(grid: tuple[int, int, float] | None) -> list:
    if grid is None:
        return []
    pi_points, lambda_points, lambda_max = grid
    return ["--grid-pi", pi_points, "--grid-lambda", lambda_points,
            "--grid-lambda-max", lambda_max]


class SetupError(RuntimeError):
    """The inputs of a workload could not be generated."""


class EstimateBoot:
    """``rae estimate`` with bootstrap on the five two-qubit lis(8) files."""

    name = "estimate-boot"
    item = "bootstrap replicate"

    def __init__(self, rae, seed: int, tiny: bool = False) -> None:
        self.rae = rae
        self.seed = seed
        self.bootstrap = 8 if tiny else 30
        self.grid = (2001, 21, 0.25) if tiny else None
        code, err = _run_cli(rae, [
            "generate", "--hamiltonian", "two_qubit", "--lambda", LAM,
            "--schedule", "lis", "--i-max", 8, "--shots", SHOTS,
            "--seed", seed, "--out", "data",
        ])
        if code != 0:
            raise SetupError(f"rae generate exited {code}: {err}")
        self.files = sorted(os.path.join("data", f) for f in os.listdir("data"))

    def run(self) -> OpResult:
        _clear_tables(self.rae)
        code, err = _run_cli(self.rae, [
            "estimate", *self.files, "--bootstrap", self.bootstrap,
            "--seed", self.seed, "--out", "report.json",
            *_grid_args(self.grid),
        ])
        if code != 0:
            return OpResult(code, 0, error=err)
        return OpResult(code, self.bootstrap * len(self.files),
                        _read("report.json"))

    def check(self, result: OpResult) -> list[str]:
        terms = json.loads(result.outputs["report.json"])["terms"]
        problems = []
        if len(terms) != len(self.files):
            problems.append(f"{len(terms)} terms reported for {len(self.files)} files")
        for row in terms:
            if row["pi_ref"] is None:
                problems.append(f"{row['term']}: no oracle reference")
            elif abs(row["pi_hat"] - row["pi_ref"]) > ESTIMATE_TOLERANCE * row["rmse"]:
                problems.append(
                    f"{row['term']}: |pi_hat - pi_ref| = "
                    f"{abs(row['pi_hat'] - row['pi_ref']):.3e} exceeds "
                    f"{ESTIMATE_TOLERANCE:g} rmse = {row['rmse']:.3e}")
        return problems


class PointMLE:
    """Point MLEs of fresh lis(8) datasets at the XX operating point, no
    bootstrap, plus the Cramer-Rao bound they are judged against."""

    name = "point-mle"
    item = "point estimate"

    def __init__(self, rae, seed: int, tiny: bool = False) -> None:
        self.rae = rae
        self.n_datasets = 12 if tiny else 50
        _, ansatz = rae.pauli.builtin_problem("two_qubit")
        term = rae.pauli.PauliString("XX")
        self.schedule = rae.schedules.lis(8, SHOTS)
        self.pi_ref = rae.pauli.oracle_expectation(ansatz, term)
        self.datasets = [
            rae.energy.simulate_dataset(
                ansatz, term, LAM, self.schedule,
                seed=np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in range(self.n_datasets)
        ]

    def run(self) -> OpResult:
        _clear_tables(self.rae)
        results = [self.rae.inference.mle_estimate(d) for d in self.datasets]
        crb = self.rae.fisher.crb_rmse(self.pi_ref, LAM, self.schedule)
        pi_hats = [r.pi_hat for r in results]
        rmse = math.sqrt(float(np.mean(np.square(np.subtract(pi_hats, self.pi_ref)))))
        doc = {"crb": crb, "pi_hats": pi_hats,
               "lambda_hats": [r.lambda_hat for r in results]}
        text = json.dumps(doc, sort_keys=True).encode("utf-8")
        return OpResult(0, len(results), {"estimates.json": text},
                        {"rmse_over_crb": rmse / crb})

    def check(self, result: OpResult) -> list[str]:
        ratio = result.quality["rmse_over_crb"]
        low = 1.0 - CRB_BAND_SIGMAS / math.sqrt(2.0 * self.n_datasets)
        if low <= ratio <= CRB_BAND_HIGH:
            return []
        return [f"rmse/crb = {ratio:.3f} outside [{low:.3f}, {CRB_BAND_HIGH:g}]"]


class EnergySweep:
    """``rae energy`` over lis(0..6): simulate, estimate, bootstrap, combine."""

    name = "energy-sweep"
    item = "bootstrap replicate"

    def __init__(self, rae, seed: int, tiny: bool = False) -> None:
        self.rae = rae
        self.seed = seed
        hamiltonian, _ = rae.pauli.builtin_problem("two_qubit")
        self.n_terms = len(hamiltonian.non_identity_terms())
        self.i_max = 2 if tiny else 6
        self.bootstrap = 6 if tiny else 10
        self.grid = (2001, 21, 0.25) if tiny else None

    def run(self) -> OpResult:
        _clear_tables(self.rae)
        code, err = _run_cli(self.rae, [
            "energy", "--hamiltonian", "two_qubit", "--lambda", ENERGY_LAM,
            "--i-max", self.i_max, "--shots", SHOTS,
            "--bootstrap", self.bootstrap, "--seed", self.seed,
            "--out", "energy.csv", "--json", "energy.json",
            *_grid_args(self.grid),
        ])
        if code != 0:
            return OpResult(code, 0, error=err)
        outputs = _read("energy.csv", "energy.json")
        rows = json.loads(outputs["energy.json"])["rows"]
        return OpResult(code, (self.i_max + 1) * self.n_terms * self.bootstrap,
                        outputs, {"energy_rmse_mha": 1e3 * rows[-1]["rmse"]})

    def check(self, result: OpResult) -> list[str]:
        rows = json.loads(result.outputs["energy.json"])["rows"]
        problems = []
        if [r["l_max"] for r in rows] != list(range(self.i_max + 1)):
            problems.append("energy rows do not cover l_max 0..i_max")
        for row in rows:
            if row["l_max"] >= 2 and not row["rmse"] < row["baseline_rmse"]:
                problems.append(
                    f"l_max={row['l_max']}: rmse {row['rmse']:.3e} does not "
                    f"beat the depth-0 baseline {row['baseline_rmse']:.3e}")
        return problems


class CurveFit:
    """``rae fit-lambda --simulate``: sampled likelihood curves at 20 depths."""

    name = "curve-fit"
    item = "sampled circuit"

    def __init__(self, rae, seed: int, tiny: bool = False) -> None:
        self.rae = rae
        self.seed = seed
        self.layers = tuple(range(1, 4 if tiny else 21))
        self.points = 20 if tiny else 200

    def run(self) -> OpResult:
        _clear_tables(self.rae)
        code, err = _run_cli(self.rae, [
            "fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
            "--term", "Z", "--layers", ",".join(map(str, self.layers)),
            "--points", self.points, "--lambda", LAM, "--seed", self.seed,
            "--out", "fit.json",
        ])
        if code != 0:
            return OpResult(code, 0, error=err)
        return OpResult(code, len(self.layers) * self.points, _read("fit.json"))

    def check(self, result: OpResult) -> list[str]:
        rows = json.loads(result.outputs["fit.json"])["rows"]
        problems = []
        if [r["layers"] for r in rows] != list(self.layers):
            problems.append("fit rows do not cover the requested layers")
        for row in rows:
            if abs(row["lambda_hat"] - LAM) > FIT_TOLERANCE * row["delta_lambda"]:
                problems.append(
                    f"L={row['layers']}: lambda_hat {row['lambda_hat']:.6f} is "
                    f"more than {FIT_TOLERANCE:g} delta "
                    f"({row['delta_lambda']:.2e}) from {LAM}")
        return problems


WORKLOADS = {w.name: w for w in (EstimateBoot, PointMLE, EnergySweep, CurveFit)}
