"""Release gate: one test per headline behaviour of the toolkit.

Each test prints a single ``[ACCEPTANCE nn] PASS/FAIL`` line on the real
stdout (past pytest's capture) with the measured numbers, then asserts.
Workloads and tolerances are the contract; the individual module suites
cover the fine-grained behaviour.

Everything here is seeded, so the statistical checks are deterministic:
a pass is a pass on every machine.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import rae
from oracles import (
    RAECircuitSpec,
    circuit_p_even,
    log_likelihood,
    numerical_fisher,
    parity_distribution,
    synthetic_curve,
)
from rae.energy import direct_baseline, rmse_sweep
from rae.fisher import crb_rmse, direct_mse_model, fisher_matrix
from rae.inference import (
    IdentifiabilityError,
    MLEGrid,
    ParityDataset,
    chebyshev_parity_probability,
    mle_estimate,
)
from rae.noisefit import fit_lambda, lambda_profile, simulate_curves
from rae.pauli import (
    AnsatzSpec,
    PauliString,
    angle_for_expectation,
    builtin_problem,
    oracle_expectation,
)
from rae.schedules import (
    LayerSchedule,
    eis,
    l_max_fisher,
    lis,
    noise_robust_schedule,
    query_cost,
)

BASE_SEED = 20260822


def report(capsys, criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[ACCEPTANCE {criterion:02d}] {status}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_01_simulator_matches_closed_form(capsys):
    """Density-matrix parity probabilities equal the Chebyshev model."""
    t0 = time.perf_counter()
    worst = 0.0
    circuits = 0
    for name in ("one_qubit", "two_qubit"):
        h, ansatz = builtin_problem(name)
        for _, string in h.non_identity_terms():
            pi = oracle_expectation(ansatz, string)
            for layers in range(9):
                for lam in (0.0, 0.003, 0.045, 0.18):
                    spec = RAECircuitSpec(ansatz=ansatz, target=string,
                                          layers=layers, lam=lam)
                    p_even, _ = parity_distribution(spec)
                    model = float(chebyshev_parity_probability(pi, lam, layers, 0))
                    worst = max(worst, abs(p_even - model))
                    circuits += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 1, worst < 1e-10 and elapsed < 10.0,
           f"max |simulator - closed form| = {worst:.2e} over {circuits} "
           f"circuits in {elapsed:.1f}s (tol 1e-10, budget 10s)")


def test_02_fisher_matches_score_covariance(capsys):
    """Analytic information matrix vs the finite-difference score covariance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(100):
        pi = float(rng.uniform(-0.95, 0.95))
        lam = float(rng.uniform(0.002, 0.3))
        depths = sorted(rng.choice(np.arange(1, 12),
                                   size=int(rng.integers(1, 5)),
                                   replace=False).tolist())
        schedule = LayerSchedule(layers=tuple([0] + depths),
                                 shots_per_layer=int(rng.integers(50, 5000)))
        info = fisher_matrix(pi, lam, schedule)
        got = np.array([[info.i11, info.i12], [info.i12, info.i22]])
        want = numerical_fisher(pi, lam, schedule.layers,
                                schedule.shots_per_layer)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    elapsed = time.perf_counter() - t0
    report(capsys, 2, worst < 1e-6 and elapsed < 30.0,
           f"max relative deviation = {worst:.2e} over 100 draws in "
           f"{elapsed:.1f}s (tol 1e-6, budget 30s)")


def test_03_single_depth_schedule_is_singular(capsys):
    """Depth-0-only data cannot separate amplitude from decay."""
    rng = np.random.default_rng(3)
    worst_det = 0.0
    raised = 0
    for _ in range(50):
        pi = float(rng.uniform(-0.99, 0.99))
        lam = float(rng.uniform(0.0, 0.4))
        schedule = LayerSchedule((0,), int(rng.integers(100, 10000)))
        info = fisher_matrix(pi, lam, schedule)
        worst_det = max(worst_det, abs(info.normalized_determinant))
        try:
            crb_rmse(pi, lam, schedule)
        except IdentifiabilityError:
            raised += 1
    report(capsys, 3, worst_det < 1e-14 and raised == 50,
           f"max normalized determinant = {worst_det:.2e} (tol 1e-14), "
           f"identifiability error raised {raised}/50 times")


def test_04_direct_estimate_closed_form(capsys):
    """Depth-0 estimator is exact and agrees with the decay-pinned grid scan."""
    rng = np.random.default_rng(4)
    grid_pi = MLEGrid().pi_values()
    step = grid_pi[1] - grid_pi[0]
    exact = 0
    within_step = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5000))
        e = int(rng.integers(0, n + 1))
        dataset = ParityDataset("Z", (0,), (n,), (e,))
        result = mle_estimate(dataset)
        if result.pi_hat == (2.0 * e - n) / n and result.lambda_hat == 0.0:
            exact += 1
        scan = grid_pi[int(np.argmax(log_likelihood(dataset, grid_pi, 0.0)))]
        if abs(result.pi_hat - scan) <= step:
            within_step += 1
    report(capsys, 4, exact == 1000 and within_step == 1000,
           f"closed form exact on {exact}/1000 count vectors, within one "
           f"grid step of the pinned scan on {within_step}/1000")


def test_05_mle_rmse_within_crb_band(capsys):
    """Empirical MLE error at the operating point sits in [CRB, 2 CRB]."""
    t0 = time.perf_counter()
    pi0, lam0 = -0.2238, 0.045
    schedule = lis(8, 8192)
    base = np.random.SeedSequence(BASE_SEED, spawn_key=(5,))
    errors = []
    for child in base.spawn(200):
        rng = np.random.default_rng(child)
        counts = []
        for layers in schedule.layers:
            p0 = float(chebyshev_parity_probability(pi0, lam0, layers, 0))
            counts.append(int(rng.binomial(schedule.shots_per_layer, p0)))
        result = mle_estimate(ParityDataset(
            "XX", schedule.layers, (schedule.shots_per_layer,) * len(counts),
            tuple(counts)))
        errors.append(result.pi_hat - pi0)
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    crb = crb_rmse(pi0, lam0, schedule)
    elapsed = time.perf_counter() - t0
    report(capsys, 5, crb <= rmse <= 2.0 * crb and elapsed < 300.0,
           f"rmse = {rmse:.3e}, crb = {crb:.3e}, ratio = {rmse / crb:.2f} "
           f"over 200 seeds in {elapsed:.1f}s (band [1, 2], budget 5min)")


def _scaling_slope(builder, points, stream: int) -> float:
    # Amplitudes are drawn per seed: at any fixed amplitude some depths sit
    # on Chebyshev nodes and contribute no information, which distorts the
    # fitted exponent; averaging over amplitudes recovers the envelope.
    grid = MLEGrid(10000, 26, 0.05)
    n_shots = 512
    log_queries, log_rmse = [], []
    for k, i_max in enumerate(points):
        schedule = builder(i_max, n_shots)
        base = np.random.SeedSequence(BASE_SEED, spawn_key=(stream, k))
        errors = []
        for child in base.spawn(150):
            rng = np.random.default_rng(child)
            pi0 = float(rng.uniform(-0.9, 0.9))
            counts = tuple(
                int(rng.binomial(n_shots, float(
                    chebyshev_parity_probability(pi0, 0.0, layers, 0))))
                for layers in schedule.layers
            )
            result = mle_estimate(ParityDataset(
                "X", schedule.layers, (n_shots,) * len(counts), counts), grid=grid)
            errors.append(result.pi_hat - pi0)
        log_queries.append(math.log(query_cost(schedule)))
        log_rmse.append(math.log(float(np.sqrt(np.mean(np.square(errors))))))
    return float(np.polyfit(log_queries, log_rmse, 1)[0])


def test_06_noiseless_scaling_exponents(capsys):
    """Query scaling: linear schedules give the -3/4 power, exponential -1."""
    lis_slope = _scaling_slope(lis, (4, 6, 8, 11, 16, 22), 73)
    eis_slope = _scaling_slope(eis, (3, 4, 5, 6, 7, 8), 72)
    ok = abs(lis_slope + 0.75) <= 0.10 and abs(eis_slope + 1.0) <= 0.10
    report(capsys, 6, ok,
           f"lis slope = {lis_slope:.3f} (want -0.75 +- 0.10), "
           f"eis slope = {eis_slope:.3f} (want -1.00 +- 0.10), "
           f"150 seeds per point")


def _direct_sampling_mse(pi: float, lam: float, n_shots: int,
                         trials: int, seed0: int):
    theta = angle_for_expectation("one_qubit_ry", PauliString("Z"), pi)
    spec = RAECircuitSpec(ansatz=AnsatzSpec("one_qubit_ry", theta),
                          target=PauliString("Z"), layers=0, lam=lam)
    p_even = circuit_p_even(spec)
    sq_errors = np.empty(trials)
    for t in range(trials):
        e_even = np.random.default_rng(seed0 + t).binomial(n_shots, p_even)
        sq_errors[t] = ((2.0 * e_even - n_shots) / n_shots - pi) ** 2
    return float(sq_errors.mean()), float(sq_errors.std() / math.sqrt(trials))


def test_07_direct_sampling_model(capsys):
    """Depth-0 MSE model against Monte Carlo through the simulator."""
    checks = []
    for pi, lam, seed0 in ((0.9745, 0.003, 7000), (-0.2238, 0.05, 7500)):
        mse, se = _direct_sampling_mse(pi, lam, 8192, 1500, seed0)
        model = direct_mse_model(pi, lam, 8192)
        checks.append((abs(mse - model), 3.0 * se))
    epsilon = math.sqrt(direct_mse_model(0.9745, 0.003, 8192))
    ok = all(dev < band for dev, band in checks) and abs(epsilon - 0.0030) < 1e-4
    report(capsys, 7, ok,
           f"MC deviations {checks[0][0]:.2e} (3se {checks[0][1]:.2e}) and "
           f"{checks[1][0]:.2e} (3se {checks[1][1]:.2e}); "
           f"model rmse at the one-qubit settings = {epsilon:.4f} (want 0.0030)")


def test_08_lambda_round_trip(capsys):
    """Decay-rate fits recover the truth, and the stability metric is ~14%."""
    worst_noiseless = 0.0
    for lam in (0.003, 0.045, 0.1):
        fit = fit_lambda(synthetic_curve(2, lam))
        worst_noiseless = max(worst_noiseless, abs(fit.lambda_hat - lam))
    sampled_ok = True
    for lam in (0.003, 0.045, 0.1):
        curve, = simulate_curves("one_qubit_ry", PauliString("Z"), (2,), lam,
                                 8192, (3,))
        fit = fit_lambda(curve)
        sampled_ok &= abs(fit.lambda_hat - lam) <= 2.0 * fit.delta_lambda
    montreal = lambda_profile(
        synthetic_curve(depth, lam)
        for depth, lam in enumerate((0.043, 0.043, 0.047, 0.042, 0.048), start=1)
    )
    montreal_ok = (abs(montreal.variation - 0.142857) < 1e-4
                   and not montreal.unstable)
    report(capsys, 8, worst_noiseless < 1e-6 and sampled_ok and montreal_ok,
           f"noiseless error = {worst_noiseless:.1e} (tol 1e-6), sampled fits "
           f"within 2 delta, per-depth variation = {montreal.variation:.1%} "
           f"(want ~14.3%, stable)")


def test_09_energy_pipeline(capsys):
    """Full sweeps reach chemical accuracy and beat the depth-0 baseline."""
    t0 = time.perf_counter()
    h2, ansatz2 = builtin_problem("two_qubit")
    rows2 = rmse_sweep(h2, ansatz2, 0.05, [lis(i, 8192) for i in range(4)], 300,
                       seed=5, grid=MLEGrid(10000, 26, 0.25))
    two_qubit_ok = all(
        row.rmse < 1.6e-3
        and row.rmse < direct_baseline(h2, ansatz2, 0.05,
                                       row.n_queries_per_term).rmse
        for row in rows2 if row.l_max >= 2
    )
    h1, ansatz1 = builtin_problem("one_qubit")
    rows1 = rmse_sweep(h1, ansatz1, 0.003, [lis(i, 8192) for i in range(5)], 300,
                       seed=7, grid=MLEGrid(10000, 101, 0.1))
    one_qubit_ok = all(row.rmse < 1.6e-3 for row in rows1 if row.l_max > 2)
    elapsed = time.perf_counter() - t0
    mha2 = {row.l_max: round(row.rmse * 1e3, 2) for row in rows2}
    mha1 = {row.l_max: round(row.rmse * 1e3, 2) for row in rows1}
    report(capsys, 9, two_qubit_ok and one_qubit_ok and elapsed < 900.0,
           f"two-qubit rmse/mHa by depth {mha2}, one-qubit {mha1} "
           f"(threshold 1.6 mHa past depth 2) in {elapsed:.0f}s (budget 15min)")


def test_10_noise_robust_schedule(capsys):
    """Envelope cap, extremum condition, and per-query information gain."""
    pi0, lam0 = -0.2238, 0.045
    cap = l_max_fisher(lam0)
    schedule = noise_robust_schedule(pi0, lam0, 100)
    theta = math.acos(pi0)
    condition_ok = all(
        math.sin((2 * layers + 1) * theta) ** 2 > 1.0 - lam0
        for layers in schedule.layers[1:]
    )
    nris_rate = fisher_matrix(pi0, lam0, schedule).i11 / query_cost(schedule)
    lis_schedule = lis(max(schedule.layers), 100)
    lis_rate = (fisher_matrix(pi0, lam0, lis_schedule).i11
                / query_cost(lis_schedule))
    report(capsys, 10, 22.2 <= cap <= 23.2 and condition_ok and nris_rate >= lis_rate,
           f"depth cap = {cap:.2f} (want [22.2, 23.2]), members "
           f"{schedule.layers} all pass the extremum condition, per-query "
           f"information {nris_rate:.1f} vs {lis_rate:.1f} for the linear "
           f"schedule")


# CLI subprocesses import the same ``rae`` as this module, whether it comes
# from an install or from pytest's ``pythonpath`` setting
_CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(rae.__file__)), os.environ.get("PYTHONPATH"))))}


def _run_cli(args) -> None:
    subprocess.run([sys.executable, "-m", "rae.cli", *[str(a) for a in args]],
                   check=True, capture_output=True, env=_CLI_ENV)


def test_11_cli_determinism(tmp_path, capsys):
    """Re-runs and concurrent runs of the pipeline are byte-identical."""
    def generate_args(out):
        return ["generate", "--hamiltonian", "one_qubit", "--lambda", "0.02",
                "--i-max", "2", "--shots", "64", "--seed", "9", "--out", out]

    def energy_args(csv, js):
        return ["energy", "--hamiltonian", "one_qubit", "--lambda", "0.02",
                "--i-max", "2", "--shots", "64", "--bootstrap", "40",
                "--grid-pi", "1001", "--grid-lambda", "11",
                "--grid-lambda-max", "0.25", "--seed", "9",
                "--out", csv, "--json", js]

    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        _run_cli(generate_args(d / "data"))
        _run_cli(energy_args(d / "energy.csv", d / "energy.json"))
    # the input paths are part of the report, so both re-runs read run a's
    # datasets (themselves already shown identical to run b's)
    data = tmp_path / "a" / "data"
    for run in ("a", "b"):
        _run_cli(["estimate", data / "Z.json", data / "X.json",
                  "--bootstrap", "40", "--grid-pi", "1001",
                  "--grid-lambda", "11", "--grid-lambda-max", "0.25",
                  "--seed", "2", "--out", tmp_path / run / "report.json"])
    compared = 0
    rerun_ok = True
    for rel in ("data/Z.json", "data/X.json", "energy.csv", "energy.json",
                "report.json"):
        rerun_ok &= ((tmp_path / "a" / rel).read_bytes()
                     == (tmp_path / "b" / rel).read_bytes())
        compared += 1

    # same energy config raced against itself from two processes
    procs = []
    for run in ("c", "d"):
        d = tmp_path / run
        d.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "rae.cli",
             *[str(a) for a in energy_args(d / "energy.csv", d / "energy.json")]],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_CLI_ENV))
    for proc in procs:
        assert proc.wait() == 0
    serial = (tmp_path / "a" / "energy.csv").read_bytes()
    parallel_ok = all(
        (tmp_path / run / "energy.csv").read_bytes() == serial
        for run in ("c", "d"))
    report(capsys, 11, rerun_ok and parallel_ok,
           f"{compared} pipeline outputs byte-identical on re-run; "
           f"concurrent energy sweeps match the serial bytes")
