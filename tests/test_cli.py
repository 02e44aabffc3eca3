"""End-to-end checks of the command-line interface.

Commands run in-process through ``rae.cli.main`` so exit codes and output
files can be inspected without spawning interpreters.  Workloads are kept
small (few layers, coarse grids, tens of bootstrap replicates); statistical
quality is covered elsewhere, these tests pin behaviour, formats, and
determinism.
"""

import contextlib
import io
import json
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import synthetic_curve
from rae import cli
from rae.cli import main, _fmt
from rae.energy import sweep_cell
from rae.inference import (
    MLEGrid,
    ParityDataset,
    ParityRecord,
    load_dataset,
    rmse_stats,
    save_dataset,
)
from rae.noisefit import save_curve
from rae.pauli import (
    builtin_problem,
    hamiltonian_to_dict,
    oracle_expectation,
    save_hamiltonian,
)
from rae.schedules import lis, noise_robust_schedule, query_cost


def run(*argv):
    return main([str(a) for a in argv])


SMALL_GRID_ARGS = (
    "--grid-pi", 1001, "--grid-lambda", 11, "--grid-lambda-max", 0.25,
)


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
        assert dataset.layer_values() == tuple(range(9))
        assert all(r.n_shots == 16 for r in dataset.records)
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

    @pytest.mark.parametrize("source", ["--seed", "RAE_SEED"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys, source):
        argv = ["generate", "--hamiltonian", "one_qubit", "--i-max", 1,
                "--shots", 16, "--out", tmp_path / "neg"]
        if source == "--seed":
            argv += ["--seed", -1]
        else:
            monkeypatch.setenv("RAE_SEED", "-1")
        assert run(*argv) == 2
        assert capsys.readouterr().err == \
            f"error: {source} must be a non-negative integer, got -1\n"
        assert not (tmp_path / "neg").exists()

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
        save_dataset(path, ParityDataset("Z", (ParityRecord(2, 256, 200),)))
        report = tmp_path / "rep.json"
        assert run("estimate", path, "--bootstrap", 10, *SMALL_GRID_ARGS,
                   "--out", report) == 0
        row = json.loads(report.read_text())["terms"][0]
        assert row["method"] == "mle"
        assert row["verdict"] is None
        assert "singular" in row["note"]
        assert "verdict=" not in capsys.readouterr().out

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
            dataset, result, reps = sweep_cell(
                ansatz, terms[j][1], 0.02, schedule, 30, grid, 4, (i, j),
            )
            assert dataset.pauli == terms[j][1].word
            assert dataset.layer_values() == schedule.layers
            stats = rmse_stats(reps.pi_hats,
                               oracle_expectation(ansatz, terms[j][1]))
            recomputed[(i, j)] = (
                f"{terms[j][1].word},{max(schedule.layers)},"
                f"{query_cost(schedule)},{_fmt(result.pi_hat)},"
                f"{_fmt(result.lambda_hat)},{_fmt(stats.rmse)},"
                f"{_fmt(stats.sigma_rmse)}"
            )
        expected = [recomputed[(i, j)] for i in range(3)
                    for j in range(len(terms))]
        assert lines == expected

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

    def test_negative_i_max_rejected(self, tmp_path, capsys):
        out, sidecar = tmp_path / "energy.csv", tmp_path / "energy.json"
        assert run(*self.ARGS, "--i-max", -1, "--out", out, "--json", sidecar) == 2
        assert capsys.readouterr().err == "error: i_max must be non-negative\n"
        assert not out.exists() and not sidecar.exists()

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

    def test_files_and_simulate_conflict(self, tmp_path):
        save_curve(str(tmp_path / "c.json"), synthetic_curve(1, 0.05))
        assert run("fit-lambda", tmp_path / "c.json", "--simulate") == 2

    def test_no_input_rejected(self):
        assert run("fit-lambda") == 2

    @pytest.mark.parametrize("lambda_max", ["-1", "nan"])
    def test_lambda_max_validated(self, capsys, lambda_max):
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--term", "Z", "--shots", 100, "--layers", 1,
                   "--lambda-max", lambda_max) == 2
        assert "lambda_max must be positive" in capsys.readouterr().err


    @pytest.mark.parametrize("argv,message", [
        (("--shots", 0), "n_shots must be positive"),
        (("--points", 2), "curve needs at least 3 points"),
        (("--lambda", "-1"), "depolarizing rate must be finite and non-negative"),
        (("--lambda", "nan"), "depolarizing rate must be finite and non-negative"),
        # the circuit is checked before the shots, and both before the curve
        (("--shots", 0, "--lambda", "-1"),
         "depolarizing rate must be finite and non-negative"),
        (("--points", 2, "--shots", 0), "n_shots must be positive"),
    ])
    def test_simulate_rejects_bad_arguments(self, capsys, argv, message):
        assert run("fit-lambda", "--simulate", "--hamiltonian", "one_qubit",
                   "--layers", 1, *argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_simulate_needs_an_invertible_term(self, capsys):
        assert run("fit-lambda", "--simulate", "--hamiltonian", "two_qubit",
                   "--term", "Z", "--layers", 1) == 2
        err = capsys.readouterr().err
        assert "has no invertible closed form" in err
        assert err.count("\n") == 1


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

    def test_nris_without_prior_rejected(self):
        assert run("schedule", "--schedule", "nris", "--lambda", 0.05) == 2


class TestUnreadFlags:
    """A command accepts only the flags it reads: ``schedule`` draws no
    counts, and ``sweep`` and ``energy`` reject nris, the only schedule
    that reads ``--c``."""

    @pytest.mark.parametrize("argv", [
        ("schedule", "--seed", 3),
        ("sweep", "--c", 2.0, "--out", "x.csv"),
        ("energy", "--c", 2.0, "--out", "x.csv"),
    ], ids=["schedule-seed", "sweep-c", "energy-c"])
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


# input kind -> (valid document, its required list key, argv reading the file)
INPUT_FILES = {
    "dataset": (
        lambda: ParityDataset("Z", (ParityRecord(0, 16, 8),
                                    ParityRecord(1, 16, 5))).to_dict(),
        "records",
        lambda path, tmp: ("estimate", path, "--bootstrap", 10,
                           *SMALL_GRID_ARGS),
    ),
    "curve": (
        lambda: synthetic_curve(1, 0.05).to_dict(),
        "points",
        lambda path, tmp: ("fit-lambda", path),
    ),
    "hamiltonian": (
        lambda: hamiltonian_to_dict(*builtin_problem("one_qubit")),
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
