"""Byte-level guard on every file the command line writes.

One small run of each report-writing command (plus the Hamiltonian and
curve savers) is hashed and compared with digests frozen from a known-good
build, so a refactor of the per-term pipeline or of the JSON layout cannot
change a single output byte unnoticed, and every file they create must have
been written through ``jsonio.write_text``.  ``rae schedule``'s console
output is hashed the same way.  Commands run from a scratch working
directory with relative paths, because the ``estimate`` report records its
input paths.

The digests depend on floating-point results, so they hold for one numpy and
BLAS build at one SIMD dispatch level: numpy picks its float64 ``cos``,
``arccos``, ``exp``, ``log`` and ``log1p`` kernels by that level, and without
its AVX-512 kernels the curve and decay-fit digests (``curve.json``,
``fit.json``, ``fit-xx.json``) move while every grid-estimate digest holds.
Re-freeze a digest only for a deliberate output change: a failing
``test_output_bytes_unchanged`` names the digest it computed, and CHANGES.md
says why it moved.
"""

import hashlib
import os

import pytest

from oracles import synthetic_curve
from rae import jsonio
from rae.cli import main
from rae.noisefit import save_curve
from rae.pauli import builtin_problem, save_hamiltonian

GRID = ("--grid-pi", 1001, "--grid-lambda", 11, "--grid-lambda-max", 0.25)
SWEEP = ("--hamiltonian", "one_qubit", "--lambda", 0.02, "--i-max", 2,
         "--shots", 64, "--bootstrap", 40, *GRID, "--seed", 4)

COMMANDS = (
    ("generate", "--hamiltonian", "problem.json", "--lambda", 0.05,
     "--i-max", 3, "--shots", 64, "--seed", 7, "--out", "data"),
    ("estimate", "data/Z.json", "data/X.json", "--bootstrap", 40, *GRID,
     "--seed", 1, "--out", "estimate.json"),
    # A ragged 997x13 grid: neither axis is a multiple of the block size.
    ("estimate", "data/Z.json", "data/X.json", "--grid-pi", 997,
     "--grid-lambda", 13, "--bootstrap", 33, "--seed", 1,
     "--out", "estimate-ragged.json"),
    # Default 10^6-cell grid; 17 replicates leave a one-row last batch.
    ("generate", "--hamiltonian", "one_qubit", "--lambda", 0.05,
     "--i-max", 2, "--shots", 64, "--seed", 7, "--out", "lis2"),
    ("estimate", "lis2/Z.json", "lis2/X.json", "--bootstrap", 17,
     "--seed", 1, "--out", "estimate-default.json"),
    # 130 replicates span three row groups (64, 64, 2).
    ("estimate", "lis2/Z.json", "lis2/X.json", "--bootstrap", 130,
     "--seed", 1, "--out", "estimate-default-130.json"),
    ("sweep", *SWEEP, "--out", "sweep.csv", "--json", "sweep.json"),
    ("energy", *SWEEP, "--out", "energy.csv", "--json", "energy.json"),
    ("fit-lambda", "--simulate", "--hamiltonian", "one_qubit", "--term", "Z",
     "--layers", "1,2", "--points", 5, "--shots", 64, "--seed", 9,
     "--out", "fit.json"),
    ("schedule", "--schedule", "lis", "--i-max", 4, "--shots", 64,
     "--lambda", 0.05, "--pi", 0.9, "--out", "schedule.json"),
    # The two-qubit register through the sampler: five terms, ZZ included,
    # and a curve swept through the two-qubit ansatz.
    ("generate", "--hamiltonian", "two_qubit", "--lambda", 0.05,
     "--i-max", 3, "--shots", 64, "--seed", 7, "--out", "data2"),
    ("fit-lambda", "--simulate", "--hamiltonian", "two_qubit", "--term", "XX",
     "--layers", "0,3", "--points", 7, "--lambda", 0.1, "--shots", 64,
     "--seed", 9, "--out", "fit-xx.json"),
    # Every two-qubit term: ZZ fits one Pi step inside the grid's -1 edge,
    # at -0.998, so its row has no edge note, and it gets a verdict.
    ("estimate", "data2/IZ.json", "data2/XX.json", "data2/YY.json",
     "data2/ZI.json", "data2/ZZ.json", "--bootstrap", 40, *GRID, "--seed", 1,
     "--out", "estimate2.json"),
    # Depth-0 files take the direct route: no bound, no verdict, a note.
    ("generate", "--hamiltonian", "one_qubit", "--lambda", 0.05,
     "--i-max", 0, "--shots", 64, "--seed", 7, "--out", "lis0"),
    ("estimate", "lis0/Z.json", "lis0/X.json", "--bootstrap", 40, *GRID,
     "--seed", 1, "--out", "estimate-direct.json"),
    # The user-default run: five two-qubit lis(8) files and the default
    # 10,000 replicates per term on the default grid, 785 row groups.  ZZ
    # fits at the grid's -1 edge, and its note says so.
    ("generate", "--hamiltonian", "two_qubit", "--lambda", 0.045,
     "--i-max", 8, "--shots", 8192, "--seed", 11, "--out", "ud"),
    ("estimate", "ud/IZ.json", "ud/XX.json", "ud/YY.json", "ud/ZI.json",
     "ud/ZZ.json", "--out", "ud-report.json"),
)

GOLDEN = {
    "problem.json":
        "68a0a11da3f7c0f58bcd0216d1b090206196dd8862dc40576aefaa709bba7104",
    "curve.json":
        "617f4d3bc6186654c2ff90c3e592f5f9bcb8724913197ca5525577011152d902",
    "data/X.json":
        "110023768c98c16e6fbb2b349e370da808b78d4bc42210b4545eeaea83f328d1",
    "data/Z.json":
        "4e94bc91f7619b0f253faf3682991568d96e52bac1a29194b4580fc2873d4a21",
    "estimate.json":
        "ac85cb222f88bda55059a74a5b31ad318da5ea795a0981fa753ecadf118be8ff",
    "estimate-ragged.json":
        "116349ec9fc4cec12190d8f787dc3299192e6c53374b7d1e86dc35e2aa7443c7",
    "estimate-default.json":
        "eac53d42f25426553d47c1a7d645355d752440f60c19c74069fd0e95c0a7b1f5",
    "estimate-default-130.json":
        "5ae6fa7148dccadf9c9e1e285c84b2d005607ca7d4e049d292df3dd8bf2c2065",
    "estimate2.json":
        "3af10f5a570411a1faa88d7d7c16dc21c1b78b1f543c743984fdb808fb30a795",
    "estimate-direct.json":
        "bdaf38a681f6882e6039010624c6b07e504e3bbf2dde316acbf76c14c5a05935",
    "sweep.csv":
        "fb8c2e18622dbba719392ea5b5ad7f5b626329f3e5233d815aa92c29d66e86be",
    "sweep.json":
        "fd26ade088a32fbfb1e31755b9497aea3d41c486949f83e4fd8659eeab9fd802",
    "energy.csv":
        "611ebab0eb342cfac6eb7f6ad3b44d9850a17faeaccae31c81e8c098274441d3",
    "energy.json":
        "4d1fa26fe2df9be686acd4664acf9685c79b0df1057cc6582556a30891ed9124",
    "fit.json":
        "b3790624a267c8bb64f3687f1817f07af42b00784d71bf0b398d5420824c1046",
    "schedule.json":
        "f5c468c21b88a92b05cafd4fb95457a50210a8024a63d275480480a4cda3e3d6",
    "data2/IZ.json":
        "7ff27825f649a9bbfc7ad35b32e86d793e987c276a8c3ac725f5a4d04652e34b",
    "data2/XX.json":
        "f072a56cbc47f58d90d4b37adbf8f0d5d2727bc5386a2c384a5475e0bb3fff90",
    "data2/YY.json":
        "d185686e88e48298cf2394c525eb6ed2d8f638aab28578e35327487c593c432a",
    "data2/ZI.json":
        "71d6a52fe2872ec31124615f622385c29f7e87ea3afc701b1d1a1240c298aabd",
    "data2/ZZ.json":
        "8b9acc7042e0f71ccecb401937dec269c6349d3a5d4bdf6207f318d05d37a638",
    "fit-xx.json":
        "ee8dccfdbc0255d300d95d2fd548b0e2d899747d322559625c68de75a59b6881",
    "ud-report.json":
        "50c0db4ef9b788bfcdbd214db4c06edeedfae802952a4cf2b8c43487d744823f",
}

# ``rae schedule`` runs whose exit code, stdout, stderr and report (if one
# was written) are hashed together: every bound, the no-contrast and the
# singular prefix lines, and an amplitude the bound rejects.
SCHEDULE_RUNS = {
    ("--schedule", "lis", "--i-max", 12, "--shots", 64, "--lambda", 0.05,
     "--pi", 0.9):
        "cafe5ebb1125b6a98ffb144ddef1298bde5cda5abd92b4e4c4895fe72e5ade53",
    # no contrast left at any prefix
    ("--schedule", "eis", "--i-max", 6, "--lambda", 800, "--pi", 0.3):
        "bec1949a3eb089459cea565378b1ade2ba624b9d5f249fe591bf717eb0964afc",
    ("--schedule", "nris", "--pi", 0.3, "--lambda", 0.01):
        "74185ffe55aec80373af7cd5517c8bcd83bb7569898bc1b79e333e91fb62c346",
    # the one-layer prefix is singular
    ("--schedule", "lis", "--i-max", 0, "--pi", 0.3, "--lambda", 0.1):
        "59b4319e3398a6f069e7a13483eb2595f9ef0206f588d41d98c4be7f65604832",
    # exit 2 before anything is printed or written
    ("--schedule", "lis", "--i-max", 5, "--pi", 2, "--lambda", 0.1):
        "1920457fab86dd0afd0e92d96954fbf86608376938bb6287dd1646314ac7d44c",
}


def _files(root) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def _golden_run(tmp_path_factory):
    """The scratch directory ``COMMANDS`` ran in, the files they created,
    and the paths they wrote through ``jsonio.write_text``."""
    root = tmp_path_factory.mktemp("golden")
    written = set()
    write_text = jsonio.write_text

    def recording(path, text):
        written.add(os.path.normpath(path))
        write_text(path, text)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        h, ansatz = builtin_problem("one_qubit")
        save_hamiltonian("problem.json", h, ansatz)
        save_curve("curve.json", synthetic_curve(2, 0.05))
        inputs = _files(root)
        mp.setattr(jsonio, "write_text", recording)
        for argv in COMMANDS:
            assert main([str(a) for a in argv]) == 0, argv[0]
    return root, _files(root) - inputs, written


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(_golden_run, name):
    root = _golden_run[0]
    digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], f"{name} now hashes to {digest}"


def test_every_file_goes_through_one_writer(_golden_run):
    _, created, written = _golden_run
    assert written == created


@pytest.mark.parametrize("argv", list(SCHEDULE_RUNS),
                         ids=lambda argv: " ".join(map(str, argv)))
def test_schedule_console_unchanged(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["schedule", *map(str, argv), "--out", "schedule.json"])
    captured = capsys.readouterr()
    report = tmp_path / "schedule.json"
    text = f"{code}\n[stdout]\n{captured.out}[stderr]\n{captured.err}[report]\n"
    data = text.encode("utf-8") + (report.read_bytes() if report.exists() else b"")
    assert hashlib.sha256(data).hexdigest() == SCHEDULE_RUNS[argv]
