"""Fisher matrix validation, CRB behavior, and the direct-sampling model."""

import math

import numpy as np
import pytest

from oracles import RAECircuitSpec, circuit_p_even, numerical_fisher
from rae.fisher import (
    SINGULARITY_TOL,
    FisherMatrix,
    Verdict,
    advantage_verdict,
    crb_rmse,
    direct_mse_model,
    fisher_matrix,
)
from rae.inference import IdentifiabilityError
from rae.pauli import PauliString, builtin_problem, oracle_expectation
from rae.schedules import LayerSchedule, lis


def random_draw(rng):
    pi = float(rng.uniform(-0.95, 0.95))
    lam = float(rng.uniform(0.002, 0.3))
    depths = sorted(rng.choice(np.arange(1, 12), size=int(rng.integers(1, 5)),
                               replace=False).tolist())
    schedule = LayerSchedule(layers=tuple([0] + depths),
                             shots_per_layer=int(rng.integers(50, 5000)))
    return pi, lam, schedule


class TestFisherMatrix:
    def test_matches_score_covariance_on_random_draws(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pi, lam, schedule = random_draw(rng)
            got = fisher_matrix(pi, lam, schedule).matrix()
            want = numerical_fisher(pi, lam, schedule.layers,
                                    schedule.shots_per_layer)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_matches_score_covariance_at_operating_point(self):
        got = fisher_matrix(-0.2238, 0.045, lis(8, 8192)).matrix()
        want = numerical_fisher(-0.2238, 0.045, tuple(range(9)), 8192)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_unboosted_schedule_is_singular(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pi = float(rng.uniform(-0.99, 0.99))
            lam = float(rng.uniform(0.0, 0.4))
            info = fisher_matrix(pi, lam, LayerSchedule((0,), 1000))
            assert abs(info.normalized_determinant) < SINGULARITY_TOL

    def test_noiseless_single_circuit_diagonal(self):
        for pi in (-0.8, 0.1, 0.62):
            info = fisher_matrix(pi, 0.0, LayerSchedule((0,), 4096))
            assert info.i11 == pytest.approx(4096 / (1 - pi * pi), rel=1e-12)

    def test_diagonal_non_negative_and_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pi, lam, schedule = random_draw(rng)
            info = fisher_matrix(pi, lam, schedule)
            assert info.i11 >= 0.0
            assert info.i22 >= 0.0
            m = info.matrix()
            assert m[0, 1] == m[1, 0]

    def test_additive_over_layer_partition(self):
        pi, lam, n = 0.4, 0.06, 300
        whole = fisher_matrix(pi, lam, LayerSchedule((0, 1, 2, 5, 9), n))
        part_a = fisher_matrix(pi, lam, LayerSchedule((0, 2, 9), n))
        part_b = fisher_matrix(pi, lam, LayerSchedule((1, 5), n))
        assert whole.matrix() == pytest.approx(part_a.matrix() + part_b.matrix(),
                                               rel=1e-12)

    def test_shot_scaling_is_linear(self):
        a = fisher_matrix(0.3, 0.1, LayerSchedule((0, 1, 4), 100))
        b = fisher_matrix(0.3, 0.1, LayerSchedule((0, 1, 4), 700))
        assert b.matrix() == pytest.approx(7.0 * a.matrix(), rel=1e-12)

    def test_domain_errors(self):
        sched = lis(2, 100)
        with pytest.raises(ValueError):
            fisher_matrix(1.0, 0.0, sched)
        with pytest.raises(ValueError):
            fisher_matrix(-1.0, 0.0, sched)
        with pytest.raises(ValueError):
            fisher_matrix(0.5, -0.01, sched)


class TestCrbRmse:
    def test_singular_schedule_raises(self):
        with pytest.raises(IdentifiabilityError):
            crb_rmse(0.5, 0.05, LayerSchedule((0,), 8192))

    def test_one_boost_layer_beats_standard_sampling(self):
        pi, n = 0.9745, 8192
        bound = crb_rmse(pi, 0.0, LayerSchedule((0, 1), n))
        assert bound < math.sqrt((1 - pi * pi) / n)

    def test_decreases_with_schedule_depth(self):
        previous = math.inf
        for i_max in range(1, 11):
            value = crb_rmse(0.9745, 0.003, lis(i_max, 100))
            assert 0.0 < value < previous
            previous = value

    def test_adding_a_layer_never_hurts(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pi, lam, schedule = random_draw(rng)
            extra = max(schedule.layers) + 1
            wider = LayerSchedule(schedule.layers + (extra,),
                                  schedule.shots_per_layer)
            assert crb_rmse(pi, lam, wider) <= crb_rmse(pi, lam, schedule) * (1 + 1e-12)

    def test_consistency_operating_point(self):
        # the bound the consistency acceptance run compares RMSE against
        value = crb_rmse(-0.2238, 0.045, lis(8, 8192))
        assert value == pytest.approx(5.374e-4, abs=1e-6)


class TestDirectMseModel:
    def test_noiseless_is_binomial_variance(self):
        for pi in (-0.9, 0.0, 0.7):
            assert direct_mse_model(pi, 0.0, 500) == pytest.approx(
                (1 - pi * pi) / 500)

    def test_strong_noise_limit_is_squared_bias(self):
        assert direct_mse_model(0.7, 60.0, 10 ** 9) == pytest.approx(0.49, abs=1e-6)

    def test_analytic_error_at_tabulated_settings(self):
        eps = math.sqrt(direct_mse_model(0.9745, 0.003, 8192))
        assert eps == pytest.approx(0.0030, abs=1e-4)

    def test_monte_carlo_agreement(self):
        # unboosted sampling through the density-matrix simulator
        ham, ansatz = builtin_problem("one_qubit")
        target = PauliString("Z")
        pi = oracle_expectation(ansatz, target)
        lam, n_shots, trials = 0.045, 512, 2000
        spec = RAECircuitSpec(ansatz=ansatz, target=target, layers=0, lam=lam)
        p_even = circuit_p_even(spec)
        sq_errors = np.empty(trials)
        for t in range(trials):
            e_even = np.random.default_rng(9000 + t).binomial(n_shots, p_even)
            sq_errors[t] = ((2.0 * e_even - n_shots) / n_shots - pi) ** 2
        model = direct_mse_model(pi, lam, n_shots)
        se = sq_errors.std() / math.sqrt(trials)
        assert abs(sq_errors.mean() - model) < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_mse_model(1.1, 0.0, 100)
        with pytest.raises(ValueError):
            direct_mse_model(0.5, 0.0, 0)


class TestAdvantageVerdict:
    def test_clear_win(self):
        assert advantage_verdict(0.001, 0.0001, 0.0005, 1e-4) is Verdict.ADVANTAGE

    def test_clear_loss(self):
        assert advantage_verdict(0.02, 0.001, 0.0005, 1e-4) is Verdict.NO_ADVANTAGE

    def test_near_boundary_is_inconclusive(self):
        assert advantage_verdict(0.0099, 0.001, 0.0005, 1e-4) is Verdict.INCONCLUSIVE

    def test_rmse_below_its_own_bound_is_not_a_win(self):
        # an RMSE under the CRB signals a broken estimate, not an advantage
        assert advantage_verdict(0.0004, 0.00001, 0.0005, 1e-4) is Verdict.INCONCLUSIVE

    def test_band_width_configurable(self):
        assert advantage_verdict(0.0099, 0.001, 0.0005, 1e-4,
                                 k=0.05) is Verdict.ADVANTAGE

    def test_values_are_strings(self):
        assert Verdict.ADVANTAGE.value == "ADVANTAGE"
        assert str(Verdict.NO_ADVANTAGE.value) == "NO_ADVANTAGE"

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            advantage_verdict(-0.001, 0.0001, 0.0005, 1e-4)
        with pytest.raises(ValueError):
            advantage_verdict(0.001, 0.0001, 0.0005, 1e-4, k=0.0)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_band_rejected(self, k):
        with pytest.raises(ValueError):
            advantage_verdict(0.001, 0.0001, 0.0005, 1e-4, k=k)
