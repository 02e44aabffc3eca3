"""End-to-end checks of the command-line interface.

Commands run in-process through ``rae.cli.main`` so exit codes and output
files can be inspected without spawning interpreters.  Workloads are kept
small (few layers, coarse grids, tens of bootstrap replicates); statistical
quality is covered elsewhere, these tests pin behaviour, formats, and
determinism.
"""

import contextlib
import datetime
import io
import json
import math
import os
import pathlib
import platform
import random
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import synthetic_curve
from rae import cli, energy, fisher, jsonio, noisefit
from rae.cli import main, _fmt
from rae.energy import sweep_cell
from rae.fisher import NoContrastError, crb_rmse
from rae.inference import (
    IdentifiabilityError,
    MLEGrid,
    ParityDataset,
    load_dataset,
    rmse_stats,
    save_dataset,
)
from rae.noisefit import LikelihoodCurve, save_curve
from rae.pauli import (
    PauliSum,
    builtin_problem,
    hamiltonian_to_dict,
    oracle_expectation,
    save_hamiltonian,
)
from rae.schedules import (
    MAX_LAYERS,
    LayerSchedule,
    lis,
    noise_robust_schedule,
    query_cost,
)


def run(*argv):
    return main([str(a) for a in argv])


SMALL_GRID_ARGS = (
    "--grid-pi", 1001, "--grid-lambda", 11, "--grid-lambda-max", 0.25,
)


def _no_work(*args, **kwargs):
    raise AssertionError("estimated before the flags were checked")


def _bootstrap_count_rejected(argv, count, outputs, capsys, monkeypatch):
    """``sweep`` and ``energy`` reject ``--bootstrap count`` in their shared
    set-up: exit 2 naming the flag, no cell estimated, no file written."""
    monkeypatch.setattr(energy, "sweep_cell", _no_work)
    assert run(*argv, "--bootstrap", count) == 2
    assert capsys.readouterr().err == \
        f"error: --bootstrap must be a positive integer, got {count}\n"
    assert not any(path.exists() for path in outputs)


class TestGenerate:
    def test_one_file_per_term(self, tmp_path):
        out = tmp_path / "data"
        code = run(
            "generate", "--hamiltonian", "two_qubit", "--lambda", 0.05,
            "--schedule", "lis", "--i-max", 8, "--shots", 16,
            "--seed", 11, "--out", out,
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["IZ.json", "XX.json", "YY.json", "ZI.json", "ZZ.json"]
        dataset = load_dataset(str(out / "XX.json"))
        assert dataset.layers == tuple(range(9))
        assert all(n_shots == 16 for n_shots in dataset.n_shots)
        assert dataset.metadata["lam"] == 0.05
        assert dataset.metadata["ansatz"] == "two_qubit_ucc"
        assert dataset.metadata["seed"] == 11
        assert len(dataset.metadata["config_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "generate", "--hamiltonian", "one_qubit", "--lambda", 0.02,
            "--i-max", 3, "--shots", 64, "--seed", 5,
        ]
        run(*argv, "--out", tmp_path / "a")
        run(*argv, "--out", tmp_path / "b")
        for name in ("Z.json", "X.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        argv = ["generate", "--hamiltonian", "one_qubit", "--i-max", 2,
                "--shots", 32]
        monkeypatch.setenv("RAE_SEED", "77")
        run(*argv, "--out", tmp_path / "env")
        monkeypatch.delenv("RAE_SEED")
        run(*argv, "--seed", 77, "--out", tmp_path / "flag")
        run(*argv, "--seed", 0, "--out", tmp_path / "zero")
        env = (tmp_path / "env" / "Z.json").read_bytes()
        assert env == (tmp_path / "flag" / "Z.json").read_bytes()
        assert env != (tmp_path / "zero" / "Z.json").read_bytes()

    @pytest.mark.parametrize("source,value,message", [
        ("--seed", "-1", "--seed must be a non-negative integer, got -1"),
        ("RAE_SEED", "-1", "RAE_SEED must be a non-negative integer, got -1"),
        ("RAE_SEED", "abc", "RAE_SEED must be an integer, got 'abc'"),
    ], ids=["--seed", "RAE_SEED", "RAE_SEED-abc"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys, source,
                                    value, message):
        argv = ["generate", "--hamiltonian", "one_qubit", "--i-max", 1,
                "--shots", 16, "--out", tmp_path / "neg"]
        if source == "--seed":
            argv += ["--seed", value]
        else:
            monkeypatch.setenv("RAE_SEED", value)
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("argv", [
        ("--lambda", "nan"),
        ("--lambda", "inf"),
        ("--shots", 0),
        ("--schedule", "nris", "--lambda", 0.05, "--c", "nan"),
    ], ids=["lambda-nan", "lambda-inf", "shots-0", "nris-c-nan"])
    def test_rejected_before_any_output(self, tmp_path, capsys, argv):
        """Every term is simulated before ``--out`` is made: a bad argument
        leaves no directory and prints no ``wrote`` line."""
        out = tmp_path / "data"
        assert run("generate", "--hamiltonian", "one_qubit", "--i-max", 2,
                   "--shots", 16, *argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_nris_rejects_zero_lambda(self, tmp_path):
        code = run(
            "generate", "--schedule", "nris", "--lambda", 0.0,
            "--shots", 16, "--out", tmp_path / "x",
        )
        assert code == 2

    def test_hamiltonian_from_file(self, tmp_path):
        """A saved problem file works wherever a builtin name does."""
        h, ansatz = builtin_problem("one_qubit")
        path = tmp_path / "problem.json"
        save_hamiltonian(str(path), h, ansatz)
        out = tmp_path / "data"
        assert run(
            "generate", "--hamiltonian", path, "--i-max", 1,
            "--shots", 16, "--out", out,
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == ["X.json", "Z.json"]

    def test_file_without_ansatz_rejected(self, tmp_path):
        h, _ = builtin_problem("one_qubit")
        path = tmp_path / "bare.json"
        save_hamiltonian(str(path), h)
        assert run(
            "generate", "--hamiltonian", path, "--shots", 16,
            "--out", tmp_path / "x",
        ) == 2


# each command that loads a problem, with its outputs in a given directory
PROBLEM_COMMANDS = {
    "sweep": lambda tmp: ("sweep", "--i-max", 1, "--shots", 16, "--bootstrap",
                          2, "--out", tmp / "t.csv"),
    "energy": lambda tmp: ("energy", "--i-max", 1, "--shots", 16, "--bootstrap",
                           2, "--out", tmp / "t.csv"),
    "fit-lambda": lambda tmp: ("fit-lambda", "--simulate", "--layers", 1,
                               "--shots", 16, "--out", tmp / "f.json"),
    "generate": lambda tmp: ("generate", "--theta", 0.3, "--shots", 16,
                             "--out", tmp / "x"),
}


class TestProblemLoading:
    """A problem the command cannot run exits 2 before any output, with one
    error line that names the command."""

    def rejected(self, tmp_path, capsys, command, h, ansatz=None):
        path = tmp_path / "problem.json"
        save_hamiltonian(str(path), h, ansatz)
        assert run(*PROBLEM_COMMANDS[command](tmp_path), "--hamiltonian", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {command} needs ")
        assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]
        return err[0]

    @pytest.mark.parametrize("command", sorted(PROBLEM_COMMANDS))
    def test_file_without_ansatz(self, tmp_path, capsys, command):
        h, _ = builtin_problem("one_qubit")
        assert self.rejected(tmp_path, capsys, command, h).endswith(
            "needs an ansatz; the Hamiltonian file has none")

    @pytest.mark.parametrize("command", ["energy", "generate", "sweep"])
    def test_identity_only_hamiltonian(self, tmp_path, capsys, monkeypatch,
                                       command):
        """Nothing to measure: rejected before any schedule is built."""
        monkeypatch.setattr(cli, "_build_schedule", _no_work)
        _, ansatz = builtin_problem("one_qubit")
        h = PauliSum.from_pairs([(-0.5, "I")])
        assert self.rejected(tmp_path, capsys, command, h, ansatz) == (
            f"error: {command} needs a non-identity term; the Hamiltonian has none")


class TestEstimate:
    def generated(self, tmp_path, **overrides):
        lam = overrides.get("lam", 0.05)
        i_max = overrides.get("i_max", 4)
        run(
            "generate", "--hamiltonian", "one_qubit", "--lambda", lam,
            "--i-max", i_max, "--shots", 256, "--seed", 3,
            "--out", tmp_path / "data",
        )
        return tmp_path / "data"

    def test_report_and_verdicts(self, tmp_path, capsys):
        data = self.generated(tmp_path)
        report = tmp_path / "rep.json"
        code = run(
            "estimate", data / "Z.json", data / "X.json",
            "--bootstrap", 60, "--grid-pi", 2001, "--grid-lambda", 26,
            "--grid-lambda-max", 0.25, "--seed", 1, "--out", report,
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["timestamp"] is None
        by_term = {row["term"]: row for row in doc["terms"]}
        assert by_term["Z"]["method"] == "mle"
        assert by_term["Z"]["verdict"] == "ADVANTAGE"
        assert by_term["X"]["verdict"] == "INCONCLUSIVE"
        assert by_term["Z"]["crb"] > 0
        assert by_term["Z"]["reference"] == "oracle"
        assert "ADVANTAGE" in capsys.readouterr().out

    def test_blas_thread_count_moves_no_byte(self, tmp_path):
        """The grid search's bounds and screen are BLAS matrix products,
        whose rounding may follow the BLAS build, but every decision is the
        fixed-order kernel's: one and two OpenBLAS threads write the same
        report, over two row groups of replicates.  On x86-64 a third run
        forces OpenBLAS's SSE3 kernels, whose products differ from the
        AVX2 and AVX-512 ones in their last bits."""
        data = self.generated(tmp_path)
        src = str(pathlib.Path(cli.__file__).parents[1])
        settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
        if platform.machine() in ("x86_64", "AMD64"):
            settings.append({"OPENBLAS_NUM_THREADS": "2", "OPENBLAS_CORETYPE": "Prescott"})
        reports = []
        for k, setting in enumerate(settings):
            report = tmp_path / f"rep-{k}.json"
            subprocess.run(
                [sys.executable, "-m", "rae.cli", "estimate",
                 *sorted(str(path) for path in data.glob("*.json")),
                 "--bootstrap", "100", "--grid-pi", "2001", "--grid-lambda", "26",
                 "--grid-lambda-max", "0.25", "--seed", "1", "--out", str(report)],
                check=True, capture_output=True, timeout=120, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src,
                     "OMP_NUM_THREADS": setting["OPENBLAS_NUM_THREADS"], **setting},
            )
            reports.append(report.read_bytes())
        assert all(report == reports[0] for report in reports)

    def test_single_depth_routes_direct(self, tmp_path):
        data = self.generated(tmp_path, i_max=0)
        report = tmp_path / "rep.json"
        assert run(
            "estimate", data / "Z.json", "--bootstrap", 40,
            *SMALL_GRID_ARGS, "--out", report,
        ) == 0
        row = json.loads(report.read_text())["terms"][0]
        assert row["method"] == "direct"
        assert row["lambda_hat"] == 0.0
        assert row["crb"] is None
        assert row["verdict"] is None
        assert "single-depth" in row["note"]

    def test_mixed_provenance_needs_force(self, tmp_path):
        a = self.generated(tmp_path / "a", lam=0.02)
        b = self.generated(tmp_path / "b", lam=0.08)
        argv = ("estimate", a / "Z.json", b / "Z.json",
                "--bootstrap", 20, *SMALL_GRID_ARGS)
        assert run(*argv) == 2
        assert run(*argv, "--force") == 0

    def test_unhashable_provenance_compared_by_equality(self, tmp_path,
                                                         capsys):
        """A list-valued theta names no ansatz angle, so the file is
        estimated about pi_hat; two files that differ only in it still
        disagree on provenance."""
        doc = json.loads((self.generated(tmp_path) / "Z.json").read_text())
        paths = []
        for theta in ([1, 2], [1, 3]):
            doc["metadata"]["theta"] = theta
            paths.append(tmp_path / f"theta-{theta[1]}.json")
            paths[-1].write_text(json.dumps(doc))
        report = tmp_path / "rep.json"
        assert run("estimate", paths[0], "--bootstrap", 10, *SMALL_GRID_ARGS,
                   "--out", report) == 0
        assert json.loads(report.read_text())["terms"][0]["reference"] == "pi_hat"
        capsys.readouterr()
        argv = ("estimate", *paths, "--bootstrap", 10, *SMALL_GRID_ARGS)
        assert run(*argv) == 2
        assert "disagree on ansatz/theta/lambda" in capsys.readouterr().err
        assert run(*argv, "--force") == 0

    def test_corrupt_file_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "records": [')
        assert run("estimate", bad, "--bootstrap", 10) == 3
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 2, "pauli": "Z", "records": []}))
        assert run("estimate", wrong, "--bootstrap", 10) == 3

    def test_missing_file_exit_3(self, tmp_path):
        assert run("estimate", tmp_path / "nope.json", "--bootstrap", 10) == 3

    def test_records_in_any_order(self, tmp_path):
        """The bound is computed over the sorted depths, whatever order the
        file lists its records in."""
        path = self.generated(tmp_path, i_max=3) / "Z.json"
        doc = json.loads(path.read_text())
        doc["records"].reverse()
        path.write_text(json.dumps(doc))
        report = tmp_path / "rep.json"
        assert run("estimate", path, "--bootstrap", 20, *SMALL_GRID_ARGS,
                   "--out", report) == 0
        assert json.loads(report.read_text())["terms"][0]["crb"] > 0

    def test_single_boosted_depth_has_no_verdict(self, tmp_path, capsys):
        path = tmp_path / "L2.json"
        save_dataset(path, ParityDataset("Z", (2,), (256,), (200,)))
        report = tmp_path / "rep.json"
        assert run("estimate", path, "--bootstrap", 10, *SMALL_GRID_ARGS,
                   "--out", report) == 0
        row = json.loads(report.read_text())["terms"][0]
        assert row["method"] == "mle"
        assert row["verdict"] is None
        assert "singular" in row["note"]
        assert "verdict=" not in capsys.readouterr().out

    def test_three_qubit_term_needs_bootstrap(self, tmp_path, capsys):
        """No default replicate count exists past two qubits: exit 2 with
        one line, and no report written."""
        path = tmp_path / "ZZZ.json"
        save_dataset(path, ParityDataset("ZZZ", (0, 1), (16, 16), (8, 5)))
        report = tmp_path / "rep.json"
        assert run("estimate", path, *SMALL_GRID_ARGS, "--out", report) == 2
        assert capsys.readouterr().err == (
            "error: no default replicate count for 3-qubit terms; pass --bootstrap\n")
        assert not report.exists()

    @pytest.mark.parametrize("band", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("i_max", [0, 2])
    def test_band_must_be_finite_and_positive(self, tmp_path, capsys,
                                              monkeypatch, band, i_max):
        """Rejected before any estimate, on a depth-0 file (no verdict to
        reach) and on a multi-depth one alike."""
        data = self.generated(tmp_path, i_max=i_max)
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("estimated before the band was checked")

        monkeypatch.setattr(cli, "estimate_term", no_work)
        report = tmp_path / "rep.json"
        assert run("estimate", data / "Z.json", f"--band={band}",
                   "--bootstrap", 10, *SMALL_GRID_ARGS, "--out", report) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --band must be a finite positive number")
        assert not report.exists()

    @pytest.mark.parametrize("lambda_max", ["inf", "0"])
    def test_grid_lambda_max_validated(self, tmp_path, capsys, monkeypatch,
                                       lambda_max):
        """Rejected before any estimate, with the value it got."""
        data = self.generated(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "estimate_term", _no_work)
        report = tmp_path / "rep.json"
        assert run("estimate", data / "Z.json", "--bootstrap", 10,
                   "--grid-lambda-max", lambda_max, "--out", report) == 2
        assert capsys.readouterr().err == ("error: lambda_max must be a finite "
                                           f"positive number, got {float(lambda_max)}\n")
        assert not report.exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_bootstrap_must_be_positive(self, tmp_path, capsys, monkeypatch,
                                        count):
        """Rejected before the first term's estimate, naming the flag."""
        data = self.generated(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "estimate_term", _no_work)
        report = tmp_path / "rep.json"
        assert run("estimate", data / "Z.json", data / "X.json",
                   "--bootstrap", count, *SMALL_GRID_ARGS, "--out", report) == 2
        assert capsys.readouterr().err == \
            f"error: --bootstrap must be a positive integer, got {count}\n"
        assert not report.exists()


class TestSweep:
    ARGS = (
        "sweep", "--hamiltonian", "one_qubit", "--lambda", 0.02,
        "--i-max", 2, "--shots", 128, "--bootstrap", 30,
        *SMALL_GRID_ARGS, "--seed", 4,
    )

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(*self.ARGS, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "term,l_max,n_queries,pi_hat,lambda_hat,rmse,sigma_rmse"
        assert len(lines) == 1 + 3 * 2
        budgets = [line.split(",")[1] for line in lines[1:]]
        assert budgets == ["0", "0", "1", "1", "2", "2"]
        queries = [int(line.split(",")[2]) for line in lines[1:]]
        assert queries == [128, 128, 512, 512, 1152, 1152]

    def test_cells_reproduce_in_any_order(self, tmp_path):
        """Cell substreams are keyed by position, so evaluation order (and
        hence any parallel split of the work) cannot change the table."""
        out = tmp_path / "sweep.csv"
        run(*self.ARGS, "--out", out)
        lines = out.read_text().splitlines()[1:]

        _, ansatz = builtin_problem("one_qubit")
        terms = builtin_problem("one_qubit")[0].non_identity_terms()
        grid = MLEGrid(1001, 11, 0.25)
        cells = [(i, j) for i in range(3) for j in range(len(terms))]
        random.Random(0).shuffle(cells)
        recomputed = {}
        for i, j in cells:
            schedule = lis(i, 128)
            dataset, result, pi_hats = sweep_cell(
                ansatz, terms[j][1], 0.02, schedule, 30, grid, 4, (i, j),
            )
            assert dataset.pauli == terms[j][1].word
            assert dataset.layers == schedule.layers
            rmse, sigma_rmse = rmse_stats(pi_hats,
                                          oracle_expectation(ansatz, terms[j][1]))
            recomputed[(i, j)] = (
                f"{terms[j][1].word},{max(schedule.layers)},"
                f"{query_cost(schedule)},{_fmt(result.pi_hat)},"
                f"{_fmt(result.lambda_hat)},{_fmt(rmse)},"
                f"{_fmt(sigma_rmse)}"
            )
        expected = [recomputed[(i, j)] for i in range(3)
                    for j in range(len(terms))]
        assert lines == expected

    def test_json_rows_are_whole_term_rows(self, tmp_path):
        """Each ``--json`` row is the whole ``term_row`` plus ``l_max``, so
        a fit at the grid's lambda_max carries its edge note there, while
        the CSV keeps its seven columns."""
        out, report = tmp_path / "s.csv", tmp_path / "s.json"
        assert run("sweep", "--hamiltonian", "one_qubit", "--lambda", 0.8,
                   "--i-max", 2, "--shots", 256, "--bootstrap", 10,
                   "--grid-pi", 1001, "--grid-lambda", 11, "--seed", 3,
                   "--out", out, "--json", report) == 0
        assert out.read_text().splitlines()[0] == \
            "term,l_max,n_queries,pi_hat,lambda_hat,rmse,sigma_rmse"
        rows = json.loads(report.read_text())["rows"]
        assert all(set(row) == {
            "term", "method", "pi_hat", "lambda_hat", "degenerate_maximum",
            "n_queries", "n_bootstrap", "pi_ref", "reference", "rmse",
            "sigma_rmse", "crb", "mse_direct", "note", "l_max"} for row in rows)
        edge = [row for row in rows if row["lambda_hat"] == 0.5]
        assert edge
        for row in edge:
            assert "lambda_hat at the grid's lambda_max 0.5: the decay rate may " \
                   "lie beyond it; raise --grid-lambda-max" in row["note"]

    def test_nris_has_no_budget_axis(self, tmp_path):
        assert run(
            "sweep", "--schedule", "nris", "--lambda", 0.05,
            "--shots", 16, "--out", tmp_path / "x.csv",
        ) == 2

    def test_negative_i_max_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(*self.ARGS, "--i-max", -1, "--out", out) == 2
        assert capsys.readouterr().err == "error: i_max must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_bootstrap_must_be_positive(self, tmp_path, capsys, monkeypatch,
                                        count):
        out = tmp_path / "sweep.csv"
        _bootstrap_count_rejected((*self.ARGS, "--out", out), count, [out],
                                  capsys, monkeypatch)


class TestEnergy:
    ARGS = (
        "energy", "--hamiltonian", "one_qubit", "--lambda", 0.02,
        "--i-max", 2, "--shots", 128, "--bootstrap", 30,
        *SMALL_GRID_ARGS, "--seed", 4,
    )

    def test_csv_and_json_report(self, tmp_path):
        out = tmp_path / "energy.csv"
        sidecar = tmp_path / "energy.json"
        assert run(*self.ARGS, "--out", out, "--json", sidecar) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "l_max,n_queries,rmse,bias,variance"
        assert len(lines) == 4
        doc = json.loads(sidecar.read_text())
        assert len(doc["config_sha256"]) == 64
        assert doc["timestamp"] is None
        assert [row["l_max"] for row in doc["rows"]] == [0, 1, 2]
        for row in doc["rows"]:
            assert row["baseline_rmse"] > 0
            assert row["rmse"] == pytest.approx(
                (row["bias"] ** 2 + row["variance"]) ** 0.5
            )

    def test_l_max_is_deepest_layer(self, tmp_path):
        """``energy`` and ``sweep`` label a row by its deepest circuit, not
        by the schedule's size parameter."""
        args = ("--hamiltonian", "one_qubit", "--schedule", "eis", "--i-max", 3,
                "--shots", 64, "--bootstrap", 5, *SMALL_GRID_ARGS)
        assert run("energy", *args, "--out", tmp_path / "e.csv") == 0
        assert run("sweep", *args, "--out", tmp_path / "s.csv") == 0
        energy = [int(line.split(",")[0])
                  for line in (tmp_path / "e.csv").read_text().splitlines()[1:]]
        sweep = [int(line.split(",")[1])
                 for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
        assert energy == [0, 1, 2, 4]
        assert sweep == [depth for depth in energy for _ in range(2)]

    def test_rows_combine_the_sweep_cells(self, tmp_path):
        """Each ``energy`` row is the identity coefficient plus every term's
        coefficient times the ``pi_hat`` that ``sweep`` reports for it at
        that ``l_max``, summed in Hamiltonian order, bit for bit."""
        args = ("--hamiltonian", "two_qubit", "--lambda", 0.05, "--i-max", 3,
                "--shots", 256, "--bootstrap", 7, *SMALL_GRID_ARGS, "--seed", 4)
        assert run("energy", *args, "--out", tmp_path / "e.csv",
                   "--json", tmp_path / "e.json") == 0
        assert run("sweep", *args, "--out", tmp_path / "s.csv",
                   "--json", tmp_path / "s.json") == 0
        energy_rows = json.loads((tmp_path / "e.json").read_text())["rows"]
        sweep_rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        h, _ = builtin_problem("two_qubit")
        assert len(energy_rows) == 4
        for row in energy_rows:
            pi_hats = {cell["term"]: cell["pi_hat"] for cell in sweep_rows
                       if cell["l_max"] == row["l_max"]}
            energy = h.identity_coefficient
            for coeff, string in h.non_identity_terms():
                energy += coeff * pi_hats[string.word]
            assert energy == row["energy"]

    def test_negative_i_max_rejected(self, tmp_path, capsys):
        out, sidecar = tmp_path / "energy.csv", tmp_path / "energy.json"
        assert run(*self.ARGS, "--i-max", -1, "--out", out, "--json", sidecar) == 2
        assert capsys.readouterr().err == "error: i_max must be non-negative\n"
        assert not out.exists() and not sidecar.exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_bootstrap_must_be_positive(self, tmp_path, capsys, monkeypatch,
                                        count):
        out, sidecar = tmp_path / "energy.csv", tmp_path / "energy.json"
        _bootstrap_count_rejected((*self.ARGS, "--out", out, "--json", sidecar),
                                  count, [out, sidecar], capsys, monkeypatch)

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run(*self.ARGS, "--out", tmp_path / f"{name}.csv",
                "--json", tmp_path / f"{name}.json")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["rows"] == b["rows"]


class TestFitLambda:
    def test_simulated_profile_is_stable(self, tmp_path, capsys):
        report = tmp_path / "fit.json"
        code = run(
            "fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
            "--term", "Z", "--layers", "1,2,3", "--lambda", 0.045,
            "--shots", 20000, "--seed", 9, "--out", report,
        )
        assert code == 0
        assert "verdict: stable" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert [row["layers"] for row in doc["rows"]] == [1, 2, 3]
        for row in doc["rows"]:
            assert row["lambda_hat"] == pytest.approx(0.045, abs=5e-3)
        assert doc["unstable"] is False

    def test_saved_curve_files(self, tmp_path):
        for layers in (1, 2):
            save_curve(str(tmp_path / f"c{layers}.json"),
                       synthetic_curve(layers, 0.08))
        report = tmp_path / "fit.json"
        assert run(
            "fit-lambda", tmp_path / "c1.json", tmp_path / "c2.json",
            "--out", report,
        ) == 0
        doc = json.loads(report.read_text())
        for row in doc["rows"]:
            assert row["lambda_hat"] == pytest.approx(0.08, abs=1e-6)

    def test_large_lambda_max(self, tmp_path):
        save_curve(str(tmp_path / "c.json"),
                   synthetic_curve(1, 0.045, std_err=0.01))
        report = tmp_path / "fit.json"
        assert run("fit-lambda", tmp_path / "c.json", "--lambda-max", "1e5",
                   "--out", report) == 0
        doc = json.loads(report.read_text())
        assert doc["rows"][0]["lambda_hat"] == pytest.approx(0.045, abs=1e-6)

    def test_unbounded_variation_is_strict_json(self, tmp_path, capsys):
        # noiseless curves fit lam = 0 exactly at some depths, so the
        # relative variation has no finite value
        report = tmp_path / "fit.json"
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--term", "Z", "--lambda", 0, "--seed", 0,
                   "--out", report) == 0
        assert "unbounded" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(report.read_text(), parse_constant=reject)
        assert 0.0 in [row["lambda_hat"] for row in doc["rows"]]
        assert doc["variation"] is None
        assert doc["unstable"] is True

    def test_flat_curve_exits_4(self, tmp_path, capsys):
        """Sweep points at roots of T_5 leave an L = 2 curve constant in
        lam: one error line, exit 4, and no report."""
        roots = (0.0, math.cos(3 * math.pi / 10), math.cos(math.pi / 10))
        save_curve(str(tmp_path / "c.json"),
                   LikelihoodCurve(2, roots, (0.5,) * 3, (0.01,) * 3))
        report = tmp_path / "r.json"
        assert run("fit-lambda", tmp_path / "c.json", "--out", report) == 4
        assert capsys.readouterr().err == (
            "error: curve carries no decay signal: the boosted amplitude "
            "vanishes at every sweep point, so lambda does not affect the "
            "model\n")
        assert not report.exists()

    def test_tiny_std_err_exits_3(self, tmp_path, capsys):
        """A std_err whose inverse square overflows is rejected as the curve
        file is read: one error line, exit 3, no numpy warning, no report."""
        doc = synthetic_curve(2, 0.05, std_err=0.01).to_dict()
        doc["points"][3]["std_err"] = 1e-200
        path, report = tmp_path / "c.json", tmp_path / "r.json"
        jsonio.save(str(path), doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit-lambda", path, "--out", report) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: std_err must be positive, at least 1e-100\n")
        assert not report.exists()

    def test_files_and_simulate_conflict(self, tmp_path):
        save_curve(str(tmp_path / "c.json"), synthetic_curve(1, 0.05))
        assert run("fit-lambda", tmp_path / "c.json", "--simulate") == 2

    def test_no_input_rejected(self):
        assert run("fit-lambda") == 2

    @pytest.mark.parametrize("lambda_max", ["-1", "nan", "inf"])
    def test_lambda_max_validated(self, capsys, lambda_max):
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--term", "Z", "--shots", 100, "--layers", 1,
                   "--lambda-max", lambda_max) == 2
        assert capsys.readouterr().err == ("error: lambda_max must be a finite "
                                           f"positive number, got {float(lambda_max)}\n")


    @pytest.mark.parametrize("argv,message", [
        (("--shots", 0), "n_shots must be positive"),
        (("--lambda", "inf"), "depolarizing rate must be finite and non-negative"),
        (("--lambda", "-1"), "depolarizing rate must be finite and non-negative"),
        (("--lambda", "nan"), "depolarizing rate must be finite and non-negative"),
        # the circuit is checked before the shots
        (("--shots", 0, "--lambda", "-1"),
         "depolarizing rate must be finite and non-negative"),
        # the fewest points argparse accepts still reach the shots check
        (("--points", 3, "--shots", 0), "n_shots must be positive"),
    ])
    def test_simulate_rejects_bad_arguments(self, capsys, argv, message):
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--layers", 1, *argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
    def test_threshold_must_be_finite_and_non_negative(self, capsys,
                                                       monkeypatch, threshold):
        """Rejected before any curve is simulated, naming the flag."""
        monkeypatch.setattr(cli, "simulate_curves", _no_work)
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--layers", 1, f"--threshold={threshold}") == 2
        assert capsys.readouterr().err == (
            "error: --threshold must be a finite non-negative number, "
            f"got {float(threshold)}\n")

    @pytest.mark.parametrize("layers,message", [
        ("-1", "layer counts must be non-negative, got '-1'"),
        ("1,-2", "layer counts must be non-negative, got '1,-2'"),
        ("1,x", "expected comma-separated integers, got '1,x'"),
        ("1,1000001", "layer counts must be at most 1000000, got '1,1000001'"),
        (f"1{'0' * 30}", f"layer counts must be at most 1000000, got '1{'0' * 30}'"),
    ], ids=["-1", "1,-2", "1,x", "1,1000001", "10^30"])
    def test_negative_layers_name_the_flag(self, capsys, monkeypatch, layers,
                                           message):
        """argparse rejects the value, before any curve is simulated."""
        monkeypatch.setattr(cli, "simulate_curves", _no_work)
        with pytest.raises(SystemExit) as exc:
            run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                f"--layers={layers}")
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"rae fit-lambda: error: argument --layers: {message}"

    @pytest.mark.parametrize("points,message", [
        (points, f"a curve needs at least 3 points, got {points!r}")
        for points in ("-1", "0", "1", "2")
    ] + [("abc", "invalid int value: 'abc'")], ids=["-1", "0", "1", "2", "abc"])
    def test_points_below_three_name_the_flag(self, capsys, monkeypatch, points,
                                              message):
        """argparse rejects the value, before any curve is simulated and
        before the shots are checked."""
        monkeypatch.setattr(cli, "simulate_curves", _no_work)
        with pytest.raises(SystemExit) as exc:
            run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                f"--points={points}", "--shots", 0)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"rae fit-lambda: error: argument --points: {message}"

    def test_sweep_built_once_per_run(self, monkeypatch):
        """A sweep point's angle and state depend on no depth, so each is
        computed once per run, not once per depth."""
        calls = {"angle_for_expectation": 0, "ansatz_state": 0}

        def counting(name):
            original = getattr(noisefit, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return count

        for name in calls:
            monkeypatch.setattr(noisefit, name, counting(name))
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--layers", "1,2,3", "--points", 7, "--shots", 256) == 0
        assert calls == {"angle_for_expectation": 7, "ansatz_state": 7}

    def test_simulate_needs_an_invertible_term(self, capsys):
        assert run("fit-lambda", "--simulate", "--hamiltonian", "two_qubit",
                   "--term", "ZZ", "--layers", 1) == 2
        err = capsys.readouterr().err
        assert "has no invertible closed form" in err
        assert err.count("\n") == 1

    def test_simulate_names_a_register_mismatch(self, capsys):
        """The defaults pair the 1-qubit term Z with the 2-qubit ansatz:
        the circuit check says so before any amplitude is inverted."""
        assert run("fit-lambda", "--simulate") == 2
        assert capsys.readouterr().err == \
            "error: target 'Z' acts on 1 qubits, ansatz prepares 2\n"

    def test_depth_column_fits_the_widest_depth(self, capsys):
        """A four-digit depth widens the L column and its header, so every
        rate starts under ``lambda_hat``."""
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--layers", "1,2,100,1000", "--lambda", 0.045,
                   "--seed", 4) == 0
        header, *rows = capsys.readouterr().out.splitlines()[:5]
        assert header == "   L  lambda_hat    delta_lambda"
        assert [row[:4] for row in rows] == ["   1", "   2", " 100", "1000"]
        assert all(row[4:6] == "  " and row[6] in "0123456789-" for row in rows)


class TestInternalError:
    def test_one_line_and_exit_4(self, monkeypatch, capsys):
        def fail(args):
            raise RuntimeError("kernel state\nlost")

        monkeypatch.setattr(cli, "cmd_schedule", fail)
        assert run("schedule") == 4
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: kernel state lost\n"
        assert "Traceback" not in err


class TestSchedule:
    def test_prefix_bounds(self, tmp_path, capsys):
        report = tmp_path / "sched.json"
        code = run(
            "schedule", "--schedule", "lis", "--i-max", 4, "--shots", 64,
            "--lambda", 0.05, "--pi", 0.9, "--out", report,
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["layers"] == [0, 1, 2, 3, 4]
        assert doc["n_queries"] == query_cost(lis(4, 64))
        prefixes = doc["prefixes"]
        # the bare L=0 prefix cannot separate amplitude from decay
        assert prefixes[0]["crb"] is None
        bounds = [p["crb"] for p in prefixes[1:]]
        assert all(b > 0 for b in bounds)
        assert bounds[-1] < bounds[0]
        assert "n/a" in capsys.readouterr().out

    def test_prefix_columns_fit_the_widest_values(self, capsys):
        """A five-digit depth and a ten-digit query count widen their
        columns, so every prefix's queries and bound start in line."""
        assert run("schedule", "--schedule", "eis", "--i-max", 16,
                   "--pi", 0.3, "--lambda", 0.00001) == 0
        out = capsys.readouterr().out.splitlines()
        rows = out[out.index("best-case rmse by schedule prefix:") + 1:]
        assert len(rows) == 17
        assert rows[0] == "  L<=    0  queries=      8192  crb=n/a (depth set not identifiable)"
        assert rows[-1].startswith("  L<=32768  queries=1073864704  crb=")
        assert len({row.index("queries=") for row in rows}) == 1
        assert len({row.index("crb=") for row in rows}) == 1

    def test_overflowing_depths_repeat_the_shallower_bound(self, tmp_path,
                                                           capsys):
        """Layers whose contrast e^{-lam (2L+1)} underflows add no
        information: their prefixes repeat the bound before them, and a
        schedule with no usable layer prints n/a throughout."""
        report = tmp_path / "sched.json"
        assert run("schedule", "--schedule", "eis", "--i-max", 12,
                   "--lambda", 0.5, "--pi", 0.3, "--out", report) == 0
        bounds = [p["crb"] for p in json.loads(report.read_text())["prefixes"]]
        assert bounds[0] is None and bounds[-1] > 0
        assert bounds[-1] == bounds[-2] == bounds[-3]
        capsys.readouterr()
        assert run("schedule", "--schedule", "eis", "--i-max", 3,
                   "--lambda", 800, "--pi", 0.3) == 0
        out = capsys.readouterr().out
        assert out.count("crb=n/a") == 4 and "error" not in out

    def test_no_contrast_is_named(self, tmp_path, capsys):
        """With every e^{lam (2L+1)} overflowing, the rows say that no
        contrast is left, not that the depth set is unidentifiable; the
        report keeps crb null."""
        report = tmp_path / "sched.json"
        assert run("schedule", "--schedule", "eis", "--i-max", 3,
                   "--lambda", 800, "--pi", 0.3, "--out", report) == 0
        out = capsys.readouterr().out
        assert out.count("crb=n/a (no contrast left at any depth)") == 4
        assert "not identifiable" not in out
        prefixes = json.loads(report.read_text())["prefixes"]
        assert [p["crb"] for p in prefixes] == [None] * 4
        assert run("schedule", "--schedule", "eis", "--i-max", 3,
                   "--lambda", 0.5, "--pi", 0.3) == 0
        out = capsys.readouterr().out
        assert out.count("crb=n/a (depth set not identifiable)") == 1

    @pytest.mark.parametrize("argv", [
        ("lis", "--i-max", 12, "--lambda", 0.05, "--pi", 0.9),
        ("eis", "--i-max", 12, "--lambda", 0.5, "--pi", 0.3),
        ("eis", "--i-max", 3, "--lambda", 800, "--pi", 0.3),
        ("nris", "--lambda", 0.01, "--pi", 0.3),
        ("poly", "--degree", 2, "--i-max", 5, "--lambda", 0.05, "--pi", 0.9),
    ])
    def test_each_prefix_is_crb_rmse_of_that_prefix(self, tmp_path, capsys,
                                                      argv):
        """The one-pass prefix table gives, for every prefix, the query cost
        and the bound (or the reason there is none) that ``crb_rmse`` gives
        for that prefix alone, the no-contrast and singular ones included."""
        report = tmp_path / "sched.json"
        assert run("schedule", "--schedule", *argv, "--shots", 64,
                   "--out", report) == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads(report.read_text())
        rows = [line for line in lines if line.startswith("  L<=")]
        assert len(rows) == len(doc["prefixes"]) == len(doc["layers"])
        for k, (row, line) in enumerate(zip(doc["prefixes"], rows), 1):
            prefix = LayerSchedule(tuple(doc["layers"][:k]), 64)
            assert row["layers"] == list(prefix.layers)
            assert row["n_queries"] == query_cost(prefix)
            try:
                want = crb_rmse(doc["pi"], doc["lambda"], prefix)
                text = f"{want:.6e}"
            except NoContrastError:
                want, text = None, "n/a (no contrast left at any depth)"
            except IdentifiabilityError:
                want, text = None, "n/a (depth set not identifiable)"
            assert row["crb"] == want
            assert line.endswith(f"crb={text}")

    def test_per_layer_terms_computed_once_per_layer(self, monkeypatch,
                                                     capsys):
        """The prefix table takes one pass over the layers: each layer's
        decay factor is computed once, not once per prefix holding it."""
        calls = []
        exp = fisher.math.exp

        def counting(x):
            calls.append(x)
            return exp(x)

        monkeypatch.setattr(fisher.math, "exp", counting)
        assert run("schedule", "--schedule", "lis", "--i-max", 39,
                   "--lambda", 0.01, "--pi", 0.3) == 0
        assert len(calls) == 40
        assert capsys.readouterr().out.count("crb=") == 40

    def test_nris_matches_library(self, tmp_path, capsys):
        code = run(
            "schedule", "--schedule", "nris", "--i-max", 8, "--shots", 100,
            "--lambda", 0.045, "--pi", -0.2238,
        )
        assert code == 0
        out = capsys.readouterr().out
        expected = noise_robust_schedule(-0.2238, 0.045, 100)
        assert f"layers: {' '.join(str(l) for l in expected.layers)}" in out
        assert "origin: nris" in out

    def test_poly_matches_library(self, capsys):
        assert run("schedule", "--schedule", "poly", "--degree", 2,
                   "--i-max", 3, "--shots", 8) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "layers: 0 1 4 9"
        assert "origin: poly2" in out

    def test_nris_without_prior_rejected(self):
        assert run("schedule", "--schedule", "nris", "--lambda", 0.05) == 2

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_c_rejected(self, capsys, c):
        assert run("schedule", "--schedule", "nris", "--pi", 0.3,
                   "--lambda", 0.1, "--c", c) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: c must be a finite positive number, got {float(c)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ("schedule", "--pi", "0.3"),
        ("generate", "--hamiltonian", "one_qubit", "--out", "unused"),
    ], ids=["schedule", "generate"])
    def test_tiny_lambda_fails_fast(self, tmp_path, command):
        """The nris scan tests every layer below its envelope maximum
        1/lambda + 1/2, so a lambda that puts it past the depth bound exits 2
        at once.  A subprocess with a timeout turns a hang into a failure."""
        src = str(pathlib.Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "rae.cli", *command, "--schedule", "nris",
             "--lambda", "1e-300"],
            capture_output=True, text=True, timeout=30, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: lambda 1e-300 ")
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("argv", [
        ("schedule", "--i-max", 70),
        ("schedule", "--i-max", 1100, "--lambda", 0.01, "--pi", 0.3),
        ("schedule", "--i-max", 20000),
        ("generate", "--hamiltonian", "one_qubit", "--i-max", 70, "--out", "unused"),
    ], ids=["schedule-70", "schedule-1100", "schedule-20000", "generate-70"])
    def test_eis_beyond_the_depth_bound(self, tmp_path, monkeypatch, capsys, argv):
        """An eis depth past MAX_LAYERS exits 2 with one line naming
        i_max, before anything is printed or written: not L = 2^69, an
        overflow or Python's integer-digits limit."""
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--schedule", "eis") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        i_max = argv[argv.index("--i-max") + 1]
        assert captured.err == (f"error: i_max {i_max} puts the deepest eis layer "
                                f"beyond the bound of {MAX_LAYERS} layers\n")
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("command", ["sweep", "energy"])
    @pytest.mark.parametrize("family, i_max", [("eis", 30), ("lis", 1000001)])
    def test_sweep_rejects_its_i_max(self, tmp_path, command, family, i_max):
        """A sweep checks its deepest row first, so the message names the
        --i-max given, and an lis bound is not reached row by row.  A
        subprocess with a timeout turns a hang into a failure."""
        src = str(pathlib.Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "rae.cli", command, "--hamiltonian", "one_qubit",
             "--schedule", family, "--i-max", str(i_max), "--out", "rows.csv"],
            capture_output=True, text=True, timeout=30, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr == (f"error: i_max {i_max} puts the deepest {family} layer "
                               f"beyond the bound of {MAX_LAYERS} layers\n")
        assert not (tmp_path / "rows.csv").exists()

    def test_bounds_computed_before_printing(self, capsys):
        """A prior the bound rejects exits 2 before the schedule is
        printed."""
        assert run("schedule", "--pi", 2, "--lambda", 0.1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pi must lie strictly inside (-1, 1)\n"


# command -> its argv writing to ``out``, given a scratch directory
UNWRITABLE = {
    "estimate": lambda tmp, out: (
        "estimate", TestEstimate().generated(tmp) / "Z.json", "--bootstrap", 5,
        *SMALL_GRID_ARGS, "--out", out),
    "sweep": lambda tmp, out: (*TestSweep.ARGS, "--out", out),
    "energy": lambda tmp, out: (*TestEnergy.ARGS, "--out", tmp / "e.csv",
                                "--json", out),
    "fit-lambda": lambda tmp, out: (
        "fit-lambda", "--simulate", "--hamiltonian", "one_qubit", "--layers", 1,
        "--shots", 100, "--out", out),
    "schedule": lambda tmp, out: ("schedule", "--out", out),
}


class TestUnwritableOutput:
    """An output path that cannot be written is a bad argument: exit 2 and
    one line naming the path, never an unreadable input or an internal
    error."""

    def assert_rejected(self, argv, out, capsys):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(UNWRITABLE))
    def test_missing_directory(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out"
        self.assert_rejected(UNWRITABLE[command](tmp_path, out), out, capsys)

    @pytest.mark.parametrize("command", sorted(UNWRITABLE))
    @pytest.mark.parametrize("kind", ["missing", "under-a-file", "a-directory"])
    def test_rejected_before_any_work(self, tmp_path, capsys, monkeypatch,
                                      command, kind):
        """Nothing is built, estimated, printed or written before the exit."""
        (tmp_path / "file").write_text("")
        out = {"missing": tmp_path / "missing" / "out",
               "under-a-file": tmp_path / "file" / "out",
               "a-directory": tmp_path}[kind]
        argv = UNWRITABLE[command](tmp_path, out)
        for work in ("_build_schedule", "estimate_term", "rmse_sweep",
                     "simulate_curves", "sweep"):
            monkeypatch.setattr(cli, work, _no_work)
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_energy_writes_no_csv_before_a_bad_json_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "e.json"
        self.assert_rejected(UNWRITABLE["energy"](tmp_path, out), out, capsys)
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("under", ["file", "file/sub"])
    def test_generate_into_a_file(self, tmp_path, capsys, under):
        (tmp_path / "file").write_text("")
        out = tmp_path / under
        self.assert_rejected(("generate", "--hamiltonian", "one_qubit",
                              "--i-max", 1, "--shots", 16, "--out", out),
                             out, capsys)


class TestStamp:
    """``--stamp`` adds a UTC time and nothing else: with it removed, each
    document equals the unstamped run's, config digest included."""

    @staticmethod
    def _utc(stamp):
        when = datetime.datetime.fromisoformat(stamp)
        assert when.utcoffset() == datetime.timedelta(0)

    def test_generate_and_estimate(self, tmp_path):
        generate = ("generate", "--hamiltonian", "one_qubit", "--lambda", 0.05,
                    "--i-max", 2, "--shots", 64, "--seed", 7)
        estimate = ("estimate", tmp_path / "plain" / "Z.json", "--bootstrap", 10,
                    *SMALL_GRID_ARGS, "--seed", 1)
        docs = {}
        for name, stamp in (("plain", ()), ("stamped", ("--stamp",))):
            assert run(*generate, *stamp, "--out", tmp_path / name) == 0
            assert run(*estimate, *stamp, "--out", tmp_path / f"{name}.json") == 0
            docs[name] = (json.loads((tmp_path / name / "Z.json").read_text()),
                          json.loads((tmp_path / f"{name}.json").read_text()))
        (plain_data, plain_report), (data, report) = docs["plain"], docs["stamped"]
        self._utc(data["metadata"].pop("generated_at"))
        self._utc(report.pop("timestamp"))
        assert plain_report.pop("timestamp") is None
        assert data["metadata"]["config_sha256"] == \
            plain_data["metadata"]["config_sha256"]
        assert report["config_sha256"] == plain_report["config_sha256"]
        assert data == plain_data
        assert report == plain_report


class TestUnreadFlags:
    """A command accepts only the flags it reads: ``schedule`` draws no
    counts, ``sweep`` and ``energy`` reject nris, the only schedule that
    reads ``--c``, and ``fit-lambda`` sweeps the ansatz angle itself."""

    @pytest.mark.parametrize("argv", [
        ("schedule", "--seed", 3),
        ("sweep", "--c", 2.0, "--out", "x.csv"),
        ("energy", "--c", 2.0, "--out", "x.csv"),
        ("fit-lambda", "--simulate", "--theta", 1.234),
    ], ids=["schedule-seed", "sweep-c", "energy-c", "fit-lambda-theta"])
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err



def _as_array(doc, key):
    return [doc]


def _wrong_version(doc, key):
    return {**doc, "version": 2}


def _missing_key(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _entry_field(field, value):
    """Set ``field`` of the first entry of the document's list to ``value``."""
    def edit(doc, key):
        doc[key][0][field] = value
        return doc
    return edit


def _ansatz_without_theta(doc, key):
    del doc["ansatz"]["theta"]
    return doc


def _versioned(doc):
    """``doc`` as :func:`rae.jsonio.save` writes it."""
    return {"version": 1, **doc}


# input kind -> (valid document, its required list key, argv reading the file)
INPUT_FILES = {
    "dataset": (
        lambda: _versioned(ParityDataset("Z", (0, 1), (16, 16), (8, 5)).to_dict()),
        "records",
        lambda path, tmp: ("estimate", path, "--bootstrap", 10,
                           *SMALL_GRID_ARGS),
    ),
    "curve": (
        lambda: _versioned(synthetic_curve(1, 0.05).to_dict()),
        "points",
        lambda path, tmp: ("fit-lambda", path),
    ),
    "hamiltonian": (
        lambda: _versioned(hamiltonian_to_dict(*builtin_problem("one_qubit"))),
        "terms",
        lambda path, tmp: ("generate", "--hamiltonian", path, "--shots", 16,
                           "--out", tmp / "out"),
    ),
}

MALFORMED = [
    (kind, name, edit)
    for kind in INPUT_FILES
    for name, edit in (("array", _as_array), ("version", _wrong_version),
                       ("missing-key", _missing_key))
] + [
    ("dataset", "e_even=3.7", _entry_field("e_even", 3.7)),
    ("dataset", "n_shots='12'", _entry_field("n_shots", "12")),
    ("dataset", "n_shots=1e20", _entry_field("n_shots", 10**20)),
    ("dataset", "L=1e20", _entry_field("L", 10**20)),
    ("curve", "pi='0.5'", _entry_field("pi", "0.5")),
    ("hamiltonian", "coeff='0.3'", _entry_field("coeff", "0.3")),
    ("hamiltonian", "ansatz-without-theta", _ansatz_without_theta),
    ("curve", "version=true", lambda doc, key: {**doc, "version": True}),
    ("dataset", "version=1.0", lambda doc, key: {**doc, "version": 1.0}),
    ("dataset", "metadata-not-an-object",
     lambda doc, key: {**doc, "metadata": [["a", 1]]}),
    # the range checks of a record, a term and a curve
    ("dataset", "records=[]", lambda doc, key: {**doc, key: []}),
    ("dataset", "n_shots=0", _entry_field("n_shots", 0)),
    ("dataset", "L=-1", _entry_field("L", -1)),
    ("dataset", "e_even=17-of-16", _entry_field("e_even", 17)),
    ("dataset", "e_even=-1", _entry_field("e_even", -1)),
    ("dataset", "duplicate-L", _entry_field("L", 1)),
    ("hamiltonian", "terms=[]", lambda doc, key: {**doc, key: []}),
    ("hamiltonian", "coeff=NaN", _entry_field("coeff", math.nan)),
    ("curve", "L=-1", lambda doc, key: {**doc, "L": -1}),
]


class TestMalformedFiles:
    """Dataset, curve and Hamiltonian files share one reader, so the same
    defect fails the same way everywhere: exit 3 and a one-line error."""

    @pytest.mark.parametrize("kind,edit", [(k, e) for k, _, e in MALFORMED],
                             ids=[f"{k}-{n}" for k, n, _ in MALFORMED])
    def test_exit_3_without_traceback(self, tmp_path, capsys, kind, edit):
        make_doc, key, argv = INPUT_FILES[kind]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(edit(make_doc(), key)))
        assert run(*argv(path, tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_valid_document_is_accepted(self, tmp_path, kind):
        make_doc, _, argv = INPUT_FILES[kind]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(make_doc()))
        assert run(*argv(path, tmp_path)) == 0


def _symlink_loop(tmp):
    (tmp / "loop").symlink_to("loop")
    return tmp / "loop"


UNREADABLE = {
    "missing": lambda tmp: tmp / "nope.json",
    "directory": lambda tmp: tmp,
    "under-a-file": lambda tmp: tmp / "plain" / "x.json",
    "symlink-loop": _symlink_loop,
    "name-too-long": lambda tmp: tmp / ("x" * 300),
}


class TestUnreadableFiles:
    """An input path that cannot be opened is one failed read for every
    file kind: exit 3 with the path, and nothing written."""

    @pytest.mark.parametrize("where", sorted(UNREADABLE))
    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_exit_3_naming_the_path(self, tmp_path, capsys, kind, where):
        (tmp_path / "plain").write_text("not a directory")
        path = UNREADABLE[where](tmp_path)
        before = sorted(tmp_path.rglob("*"))
        report = tmp_path / "report.json"
        argv = INPUT_FILES[kind][2](path, tmp_path)
        if kind != "hamiltonian":
            argv += ("--out", report)
        assert run(*argv) == 3
        assert capsys.readouterr().err == f"error: cannot read {path}\n"
        assert sorted(tmp_path.rglob("*")) == before


def _paths(doc, prefix=()):
    """(path, value) for every value under the document's keys and list
    entries, skipping the free-form dataset metadata."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if key == "metadata":
            continue
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replace(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=4))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _json_kind(value) -> str:
    """The JSON type a reader expects; any JSON number may stand for a real."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    return type(value).__name__


def _wrong_kind(expected: str):
    def wrong(value) -> bool:
        kind = _json_kind(value)
        if expected == "number":
            return kind not in ("integer", "number")
        return kind != expected
    return JSON_VALUES.filter(wrong)


@st.composite
def malformed_documents(draw):
    """(kind, text) of a dataset, curve or Hamiltonian file with one defect."""
    kind = draw(st.sampled_from(sorted(INPUT_FILES)))
    doc = INPUT_FILES[kind][0]()
    paths = list(_paths(doc))
    keyed = [(p, v) for p, v in paths if isinstance(p[-1], str)]
    counts = [p for p, v in keyed if _json_kind(v) == "integer" and p != ("version",)]
    reals = [p for p, v in keyed if _json_kind(v) == "number"]
    defect = draw(st.sampled_from(
        ["drop", "wrong-type", "top-level", "version", "count"]
        + (["real"] if reals else [])))
    if defect == "drop":
        path = draw(st.sampled_from([p for p, _ in keyed]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    elif defect == "wrong-type":
        path, value = draw(st.sampled_from(paths))
        _replace(doc, path, draw(_wrong_kind(_json_kind(value))))
    elif defect == "top-level":
        doc = draw(_wrong_kind("dict"))
    elif defect == "version":
        doc["version"] = draw(JSON_VALUES.filter(
            lambda v: _json_kind(v) != "integer" or v != 1))
    elif defect == "count":
        _replace(doc, draw(st.sampled_from(counts)), draw(
            st.floats(allow_nan=False) | st.integers().map(str)))
    else:
        _replace(doc, draw(st.sampled_from(reals)), draw(
            st.text(max_size=4) | st.floats(allow_nan=False).map(str)))
    return kind, json.dumps(doc)


class TestMalformedFilesFuzz:
    """Generated variants of the defects above, over every field of the
    three file kinds: each exits 2 or 3 and none escapes as an exception.
    Derandomized, so the examples are the same on every run."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(malformed_documents())
    def test_rejected_with_exit_2_or_3(self, case):
        kind, text = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            path = tmp / f"{kind}.json"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = run(*INPUT_FILES[kind][2](path, tmp))
        assert code in (2, 3), (kind, text, err.getvalue())
