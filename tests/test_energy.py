"""Energy combination, the direct-sampling baseline, and the sweep driver."""

import math

import numpy as np
import pytest

from oracles import exact_ground_energy
from rae.energy import (
    CHEMICAL_ACCURACY,
    EnergyEstimate,
    combine_energy,
    direct_baseline,
    rmse_sweep,
    simulate_dataset,
    term_row,
)
from rae.fisher import crb_rmse, direct_mse_model
from rae.inference import (
    PI_INSET,
    IdentifiabilityError,
    MLEGrid,
    ParityDataset,
    estimate_term,
    rmse_stats,
)
from rae.pauli import (
    PauliString,
    PauliSum,
    builtin_problem,
    oracle_expectation,
)
from rae.schedules import LayerSchedule, lis, query_cost

H1, ANSATZ1 = builtin_problem("one_qubit")
H2, ANSATZ2 = builtin_problem("two_qubit")


def oracle_estimates(hamiltonian, ansatz):
    return {
        s.word: (oracle_expectation(ansatz, s), 0.0, 0.0)
        for _, s in hamiltonian.non_identity_terms()
    }


class TestCombineEnergy:
    def test_one_qubit_exact_inputs(self):
        estimate = combine_energy(H1, oracle_estimates(H1, ANSATZ1))
        assert estimate.energy == pytest.approx(-1.1375, abs=1e-4)
        assert estimate.rmse == 0.0
        assert estimate.bias == 0.0

    def test_two_qubit_reaches_ground_state(self):
        estimate = combine_energy(H2, oracle_estimates(H2, ANSATZ2))
        # the ansatz is variational, so exact expectations can sit above
        # the true ground energy only by the optimality gap
        gap = estimate.energy - exact_ground_energy(H2)
        assert 0.0 <= gap < 1e-10

    def test_single_term_variance_weighting(self):
        h = PauliSum.from_pairs([(0.25, "I"), (-0.6, "Z")])
        estimate = combine_energy(h, {"Z": (0.9, 0.01, 0.0)})
        assert estimate.variance == pytest.approx(0.36 * 0.01)
        assert estimate.energy == pytest.approx(0.25 - 0.54)

    def test_identity_contributes_exactly(self):
        h = PauliSum.from_pairs([(1.25, "II")])
        estimate = combine_energy(h, {})
        assert estimate.energy == 1.25
        assert estimate.variance == 0.0
        assert estimate.rmse == 0.0

    def test_linearity_under_coefficient_scaling(self):
        base = [(0.2, "IZ"), (-0.4, "ZI"), (0.1, "XX")]
        estimates = {"IZ": (0.3, 0.02, 0.01),
                     "ZI": (-0.5, 0.03, -0.02),
                     "XX": (0.1, 0.01, 0.005)}
        one = combine_energy(PauliSum.from_pairs(base), estimates)
        three = combine_energy(
            PauliSum.from_pairs([(3 * c, w) for c, w in base]), estimates)
        assert three.energy == pytest.approx(3 * one.energy)
        assert three.bias == pytest.approx(3 * one.bias)
        assert three.variance == pytest.approx(9 * one.variance)

    def test_missing_term_listed(self):
        with pytest.raises(ValueError, match="ZI"):
            combine_energy(H2, {"IZ": (0.9, 0.0, 0.0)})

    def test_rmse_is_quadrature_sum(self):
        h = PauliSum.from_pairs([(1.0, "Z")])
        estimate = combine_energy(h, {"Z": (0.5, 0.0004, 0.03)})
        assert estimate.rmse == pytest.approx(math.hypot(0.03, 0.02))


class TestEnergyEstimateValidation:
    def test_inconsistent_rmse_rejected(self):
        with pytest.raises(ValueError):
            EnergyEstimate(energy=0.0, variance=1e-4, bias=0.0, rmse=0.5,
                           n_queries_per_term=1, l_max=0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            EnergyEstimate(energy=0.0, variance=-1e-4, bias=0.0, rmse=0.0,
                           n_queries_per_term=1, l_max=0)


class TestDirectBaseline:
    def test_noiseless_vanishes_with_shots(self):
        estimate = direct_baseline(H1, ANSATZ1, 0.0, 10 ** 12)
        assert estimate.rmse < 1e-5
        assert estimate.bias == 0.0

    def test_two_qubit_noise_floor_is_bias_dominated(self):
        estimate = direct_baseline(H2, ANSATZ2, 0.05, 8192)
        assert 0.020 < estimate.rmse < 0.050
        assert estimate.bias ** 2 / estimate.rmse ** 2 > 0.9
        # more shots do not buy accuracy once bias dominates
        more = direct_baseline(H2, ANSATZ2, 0.05, 8192 * 100)
        assert more.rmse > 0.95 * estimate.rmse

    def test_one_qubit_small_noise_magnitude(self):
        estimate = direct_baseline(H1, ANSATZ1, 0.003, 8192)
        assert 1e-3 < estimate.rmse < 1e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_baseline(H1, ANSATZ1, -0.1, 100)
        with pytest.raises(ValueError):
            direct_baseline(H1, ANSATZ1, 0.1, 0)


class TestSimulateDataset:
    def test_structure_follows_schedule(self):
        schedule = lis(4, 256)
        ds = simulate_dataset(ANSATZ2, PauliString("XX"), 0.045, schedule,
                              seed=3)
        assert ds.pauli == "XX"
        assert ds.layers == (0, 1, 2, 3, 4)
        assert all(n_shots == 256 for n_shots in ds.n_shots)
        assert ds.metadata["lam"] == 0.045

    def test_deterministic_and_seed_sensitive(self):
        schedule = lis(2, 128)
        a = simulate_dataset(ANSATZ1, PauliString("Z"), 0.01, schedule, seed=5)
        b = simulate_dataset(ANSATZ1, PauliString("Z"), 0.01, schedule, seed=5)
        c = simulate_dataset(ANSATZ1, PauliString("Z"), 0.01, schedule, seed=6)
        assert a == b
        assert a != c

    def test_counts_concentrate_on_model(self):
        from rae.inference import chebyshev_parity_probability
        pi = oracle_expectation(ANSATZ1, PauliString("Z"))
        n = 200000
        ds = simulate_dataset(ANSATZ1, PauliString("Z"), 0.02, lis(3, n),
                              seed=11)
        for layers, e_even in zip(ds.layers, ds.e_even):
            p = chebyshev_parity_probability(pi, 0.02, layers, 0)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) * n)
            assert abs(e_even - n * p) < 5 * max(sigma, 1.0)


class TestEstimateTerm:
    def test_unboosted_routes_to_closed_form(self):
        ds = simulate_dataset(ANSATZ1, PauliString("Z"), 0.0, lis(0, 512),
                              seed=2)
        result, _, lambda_hats = estimate_term(ds, 50, seed=1)
        assert result.lambda_hat == 0.0
        assert result.method == "direct"
        assert result.pi_hat == (2 * ds.e_even[0] - 512) / 512
        assert np.all(lambda_hats == 0.0)

    def test_boosted_uses_joint_grid(self):
        grid = MLEGrid(pi_points=2001, lambda_points=26, lambda_max=0.25)
        ds = simulate_dataset(ANSATZ1, PauliString("Z"), 0.05, lis(4, 4096),
                              seed=2)
        result, pi_hats, _ = estimate_term(ds, 30, grid=grid, seed=1)
        assert result.lambda_hat > 0.0
        assert len(pi_hats) == 30


class TestTermRow:
    GRID = MLEGrid(pi_points=1001, lambda_points=11, lambda_max=0.25)

    def row(self, dataset, m_bootstrap=20):
        result, pi_hats, _ = estimate_term(dataset, m_bootstrap,
                                           grid=self.GRID, seed=1)
        return term_row(dataset, result, pi_hats, self.GRID)

    def test_simulated_term_is_judged_against_its_oracle(self):
        schedule = lis(3, 512)
        ds = simulate_dataset(ANSATZ1, PauliString("Z"), 0.05, schedule,
                              seed=2)
        result, pi_hats, _ = estimate_term(ds, 20, grid=self.GRID, seed=1)
        row = term_row(ds, result, pi_hats, self.GRID)
        pi_ref = oracle_expectation(ANSATZ1, PauliString("Z"))
        assert row["method"] == "mle"
        assert row["reference"] == "oracle" and row["pi_ref"] == pi_ref
        assert row["rmse"] == rmse_stats(pi_hats, pi_ref)[0]
        assert row["n_queries"] == query_cost(schedule)
        assert row["n_bootstrap"] == 20
        assert row["crb"] == crb_rmse(result.pi_hat, result.lambda_hat,
                                      schedule)
        assert row["mse_direct"] == direct_mse_model(
            result.pi_hat, result.lambda_hat, query_cost(schedule))
        assert row["note"] is None

    def test_bound_at_the_grid_edge(self):
        # noiseless ZZ is exactly -1: every count is odd, the fit pins at
        # the grid's inset edge, and the bound is taken there
        schedule = lis(3, 64)
        ds = simulate_dataset(ANSATZ2, PauliString("ZZ"), 0.0, schedule,
                              seed=2)
        row = self.row(ds)
        assert row["pi_hat"] == -1.0 + PI_INSET
        assert row["lambda_hat"] == 0.0
        assert row["crb"] == crb_rmse(-1.0 + PI_INSET, 0.0, schedule)
        assert row["note"] == ("pi_hat at an end of the Pi grid, 1e-09 inside "
                               "|Pi| = 1: any bound is taken at that inset")

    def test_decay_beyond_the_grid(self):
        # lam = 0.8 decays faster than the grid's lambda_max of 0.25 allows:
        # the fit pins there, and the note says so and names the flag
        ds = simulate_dataset(ANSATZ1, PauliString("Z"), 0.8, lis(3, 512),
                              seed=2)
        row = self.row(ds)
        assert row["method"] == "mle"
        assert row["lambda_hat"] == 0.25
        assert row["note"] == ("lambda_hat at the grid's lambda_max 0.25: the decay "
                               "rate may lie beyond it; raise --grid-lambda-max")

    def test_unequal_shot_counts_have_no_bound(self):
        ds = ParityDataset("Z", (0, 1, 2), (256, 512, 256), (230, 300, 40))
        row = self.row(ds)
        assert row["method"] == "mle"
        assert row["crb"] is None
        assert "unequal shot counts" in row["note"]
        assert row["n_queries"] == 256 * 1 + 512 * 3 + 256 * 5

    def test_single_boosted_depth_notes_the_singular_bound(self):
        # one depth L >= 1 goes to the grid MLE, but its Fisher matrix is
        # singular: the bound's error message becomes the note
        ds = ParityDataset("Z", (2,), (256,), (200,))
        row = self.row(ds)
        assert row["method"] == "mle"
        assert row["crb"] is None
        with pytest.raises(IdentifiabilityError) as exc:
            crb_rmse(row["pi_hat"], row["lambda_hat"], LayerSchedule((2,), 256))
        assert row["note"] == str(exc.value)

    def test_without_metadata_the_reference_is_the_estimate(self):
        ds = ParityDataset("X", (0, 1), (256, 256), (90, 200))
        result, pi_hats, _ = estimate_term(ds, 20, grid=self.GRID, seed=1)
        row = term_row(ds, result, pi_hats, self.GRID)
        assert row["reference"] == "pi_hat"
        assert row["pi_ref"] is None
        assert row["rmse"] == rmse_stats(pi_hats, result.pi_hat)[0]


class TestRmseSweep:
    def test_noiseless_unboosted_rows_match_sampling_theory(self):
        # empirical RMSE of the energy point estimate over many seeds
        # against sqrt(sum c_i^2 (1 - Pi_i^2) / N)
        n_shots, n_seeds = 256, 300
        truth = combine_energy(H1, oracle_estimates(H1, ANSATZ1)).energy
        predicted_mse = sum(
            c * c * (1 - oracle_expectation(ANSATZ1, s) ** 2) / n_shots
            for c, s in H1.non_identity_terms()
        )
        sq_errors = np.empty(n_seeds)
        for t in range(n_seeds):
            row = rmse_sweep(H1, ANSATZ1, 0.0, [lis(0, n_shots)], 5,
                             seed=t)[0]
            sq_errors[t] = (row.energy - truth) ** 2
        se = sq_errors.std() / math.sqrt(n_seeds)
        assert abs(sq_errors.mean() - predicted_mse) < 3 * se

    def test_reported_rmse_scale_at_unboosted_row(self):
        # a single row's reported rmse folds in the realized draw offset,
        # so it tracks the analytic prediction only to O(1) factors
        n_shots = 4096
        predicted = math.sqrt(sum(
            c * c * (1 - oracle_expectation(ANSATZ1, s) ** 2) / n_shots
            for c, s in H1.non_identity_terms()))
        row = rmse_sweep(H1, ANSATZ1, 0.0, [lis(0, n_shots)], 400, seed=3)[0]
        assert 0.5 * predicted < row.rmse < 2.5 * predicted

    def test_error_shrinks_with_layer_budget(self):
        grid = MLEGrid(pi_points=4001, lambda_points=26, lambda_max=0.25)
        rows = rmse_sweep(H2, ANSATZ2, 0.05, [lis(i, 2048) for i in (0, 2, 4)],
                          80, seed=5, grid=grid)
        assert [r.l_max for r in rows] == [0, 2, 4]
        assert rows[1].rmse < rows[0].rmse
        assert rows[2].rmse < rows[0].rmse
        assert rows[1].n_queries_per_term == (1 + 3 + 5) * 2048

    def test_rows_independent_of_sweep_composition(self):
        # each row draws on substreams keyed by its position and term, so
        # computing a row alone reproduces the full sweep's row
        grid = MLEGrid(pi_points=1001, lambda_points=11, lambda_max=0.25)
        full = rmse_sweep(H1, ANSATZ1, 0.02, [lis(0, 512), lis(2, 512)], 40,
                          seed=9, grid=grid)
        alone = rmse_sweep(H1, ANSATZ1, 0.02, [lis(0, 512)], 40, seed=9,
                           grid=grid)
        assert full[0] == alone[0]

    def test_chemical_accuracy_constant(self):
        assert CHEMICAL_ACCURACY == pytest.approx(1.6e-3)
