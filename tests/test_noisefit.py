"""Decay-rate fitting on likelihood curves and the stability profile."""

import json
import math

import numpy as np
import pytest

from oracles import synthetic_curve
from rae.inference import IdentifiabilityError, chebyshev_parity_probability
from rae.noisefit import (
    LikelihoodCurve,
    fit_lambda,
    lambda_profile,
    load_curve,
    save_curve,
    simulate_curves,
)
from rae.pauli import PauliString


def curve_at(layers, lam, pis, noise_rng=None, std_err=0.004):
    rates = []
    for pi in pis:
        p = chebyshev_parity_probability(float(pi), lam, layers, 0)
        if noise_rng is not None:
            p = float(np.clip(p + noise_rng.normal(0.0, std_err), 0.0, 1.0))
        rates.append(p)
    return LikelihoodCurve(layers, tuple(float(pi) for pi in pis), tuple(rates),
                           (std_err,) * len(rates))


class TestCurveValidation:
    def test_minimum_points(self):
        with pytest.raises(ValueError):
            LikelihoodCurve(1, (0.0, 1.0), (0.5, 0.9), (0.01, 0.01))

    def test_distinct_pi_required(self):
        with pytest.raises(ValueError):
            LikelihoodCurve(1, (0.5, 0.5, 1.0), (0.5, 0.6, 0.9), (0.01, 0.01, 0.01))

    def test_point_ranges(self):
        with pytest.raises(ValueError, match=r"pi must lie in \[0, 1\]"):
            LikelihoodCurve(1, (-0.1, 0.5, 1.0), (0.5, 0.5, 0.5), (0.01, 0.01, 0.01))
        with pytest.raises(ValueError, match=r"p_even must lie in \[0, 1\]"):
            LikelihoodCurve(1, (0.0, 0.5, 1.0), (0.5, 1.2, 0.5), (0.01, 0.01, 0.01))
        with pytest.raises(ValueError, match="std_err must be positive"):
            LikelihoodCurve(1, (0.0, 0.5, 1.0), (0.5, 0.5, 0.5), (0.01, 0.0, 0.01))

    def test_columns_of_equal_length(self):
        with pytest.raises(ValueError, match="pi, p_even and std_err must have "
                                             "equal lengths"):
            LikelihoodCurve(1, (0.0, 0.5, 1.0), (0.5, 0.5), (0.01, 0.01, 0.01))


class TestFitLambda:
    def test_exact_round_trip(self):
        # a wide search range must not lose a well-identified rate
        for lambda_max in (5.0, 1e5, 1e8):
            for lam in (0.003, 0.043, 0.045, 0.1):
                for layers in (1, 2, 3):
                    fit = fit_lambda(synthetic_curve(layers, lam),
                                     lambda_max=lambda_max)
                    assert abs(fit.lambda_hat - lam) < 1e-6

    def test_matches_linear_solution_in_decay_factor(self):
        # the weighted problem is linear in g = e^{-lam (L+1/2)}; inside
        # (0, 1] the fit must be its unconstrained least-squares solution
        rng = np.random.default_rng(0)
        pis = np.linspace(0.05, 1.0, 10)
        for _ in range(20):
            layers = int(rng.integers(1, 5))
            lam = float(rng.uniform(0.01, 0.2))
            curve = curve_at(layers, lam, pis, noise_rng=rng)
            cheb = np.cos((2 * layers + 1) * np.arccos(pis))
            rates = np.array(curve.p_even)
            g = float(np.sum(cheb * (2 * rates - 1)) / np.sum(cheb ** 2))
            if not 0.0 < g <= 1.0:
                continue
            closed_form = -math.log(g) / (layers + 0.5)
            assert fit_lambda(curve).lambda_hat == pytest.approx(closed_form,
                                                                 abs=1e-8)

    def test_zero_noise_boundary(self):
        fit = fit_lambda(synthetic_curve(2, 0.0, std_err=1e-9))
        assert fit.lambda_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.delta_lambda < 1e-8

    def test_search_range_edges_are_exact(self):
        # the least-squares decay factor q* lies outside (0, 1]: above 1 the
        # fit is lam = 0, below 0 it is lambda_max, both exactly
        pis = (0.1, 0.15, 0.2)  # T_5 stays below 0.85 here
        cheb = np.cos(5 * np.arccos(pis))
        for q, expected in ((1.1, 0.0), (-0.3, 2.5)):
            rates = tuple((0.5 * (1.0 + q * cheb)).tolist())
            curve = LikelihoodCurve(2, pis, rates, (0.01,) * len(pis))
            assert fit_lambda(curve, lambda_max=2.5).lambda_hat == expected

    def test_sampled_curve_within_error_bar(self):
        curve, = simulate_curves("one_qubit_ry", PauliString("Z"), (3,), 0.047,
                                 8192, (5,))
        fit = fit_lambda(curve)
        assert abs(fit.lambda_hat - 0.047) < 2.0 * fit.delta_lambda

    def test_error_bar_shrinks_with_precision(self):
        loose = fit_lambda(synthetic_curve(2, 0.05, std_err=0.01))
        tight = fit_lambda(synthetic_curve(2, 0.05, std_err=0.001))
        assert tight.delta_lambda == pytest.approx(loose.delta_lambda / 10,
                                                   rel=1e-6)

    def test_chi_square_scale_for_matched_noise(self):
        rng = np.random.default_rng(21)
        pis = np.linspace(0.05, 1.0, 10)
        curve = curve_at(2, 0.06, pis, noise_rng=rng)
        fit = fit_lambda(curve)
        chi_square = sum(
            (p_even - chebyshev_parity_probability(
                pi, fit.lambda_hat, curve.layers, 0)) ** 2 / std_err ** 2
            for pi, p_even, std_err in zip(curve.pi, curve.p_even, curve.std_err)
        )
        dof = 10 - 1
        assert 0.5 < chi_square / dof < 2.0

    def test_point_order_irrelevant(self):
        curve = curve_at(2, 0.08, np.linspace(0.1, 1.0, 8),
                         noise_rng=np.random.default_rng(3))
        reordered = LikelihoodCurve(curve.layers, curve.pi[::-1],
                                    curve.p_even[::-1], curve.std_err[::-1])
        assert fit_lambda(curve).lambda_hat == pytest.approx(
            fit_lambda(reordered).lambda_hat, abs=1e-9)

    def test_flat_curve_unidentifiable(self):
        # sweep points at roots of the order-5 Chebyshev polynomial leave
        # the model constant in lam
        roots = (0.0, math.cos(3 * math.pi / 10), math.cos(math.pi / 10))
        curve = LikelihoodCurve(2, roots, (0.5,) * 3, (0.01,) * 3)
        with pytest.raises(IdentifiabilityError):
            fit_lambda(curve)


    @pytest.mark.parametrize("lambda_max", [-1.0, 0.0, math.nan, math.inf])
    def test_lambda_max_validated(self, lambda_max):
        with pytest.raises(ValueError, match="lambda_max must be a finite positive number"):
            fit_lambda(synthetic_curve(1, 0.05), lambda_max=lambda_max)


class TestLambdaProfile:
    def _curves(self, lams):
        return [synthetic_curve(layers, lam)
                for layers, lam in zip(range(1, len(lams) + 1), lams)]

    def test_identical_curves_have_zero_variation(self):
        profile = lambda_profile(self._curves([0.045] * 5))
        assert profile.variation == pytest.approx(0.0, abs=1e-6)
        assert not profile.unstable

    def test_stable_device_profile(self):
        profile = lambda_profile(self._curves([0.043, 0.043, 0.047, 0.042,
                                               0.048]))
        assert profile.variation == pytest.approx(0.142857, abs=1e-4)
        assert not profile.unstable

    def test_unstable_device_profile(self):
        profile = lambda_profile(self._curves([0.072, 0.076, 0.089, 0.098,
                                               0.099]))
        assert profile.variation == pytest.approx(0.375, abs=1e-4)
        assert profile.unstable

    def test_threshold_configurable(self):
        curves = self._curves([0.072, 0.076, 0.089, 0.098, 0.099])
        assert not lambda_profile(curves, instability_threshold=0.5).unstable

    def test_rows_carry_depths_in_input_order(self):
        profile = lambda_profile(self._curves([0.02, 0.03, 0.04]))
        assert [r.layers for r in profile.rows] == [1, 2, 3]
        assert profile.rows[1].lambda_hat == pytest.approx(0.03, abs=1e-6)

    def test_duplicate_depths_rejected(self):
        curves = [synthetic_curve(1, 0.02), synthetic_curve(1, 0.03)]
        with pytest.raises(ValueError):
            lambda_profile(curves)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.5])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        """nan would call every profile stable and a negative threshold
        every profile unstable."""
        with pytest.raises(ValueError, match="instability_threshold must be "
                                             "a finite non-negative number"):
            lambda_profile(self._curves([0.045] * 2), instability_threshold=threshold)

    def test_zero_threshold_accepted(self):
        profile = lambda_profile(self._curves([0.045] * 2), instability_threshold=0.0)
        assert profile.unstable == (profile.variation > 0.0)


class TestCurveIO:
    def test_round_trip(self, tmp_path):
        curve, = simulate_curves("one_qubit_ry", PauliString("Z"), (2,), 0.05,
                                 256, (1,))
        path = tmp_path / "curve.json"
        save_curve(str(path), curve)
        assert load_curve(str(path)) == curve

    def test_schema(self, tmp_path):
        curve = synthetic_curve(3, 0.01, pi_values=(0.0, 0.5, 1.0))
        path = tmp_path / "c.json"
        save_curve(str(path), curve)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["L"] == 3
        assert set(doc["points"][0]) == {"pi", "p_even", "std_err"}

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**synthetic_curve(1, 0.01).to_dict(),
                                    "version": 0}))
        with pytest.raises(ValueError, match="unsupported curve format version 0"):
            load_curve(str(path))


class TestSimulateCurve:
    def test_deterministic(self):
        a = simulate_curves("two_qubit_ucc", PauliString("XX"), (1, 2), 0.045,
                            128, (11, 12))
        b = simulate_curves("two_qubit_ucc", PauliString("XX"), (1, 2), 0.045,
                            128, (11, 12))
        assert a == b

    def test_rates_near_model_at_high_shots(self):
        curve, = simulate_curves("one_qubit_ry", PauliString("Z"), (1,), 0.02,
                                 100000, (2,))
        for pi, p_even, std_err in zip(curve.pi, curve.p_even, curve.std_err):
            model = chebyshev_parity_probability(pi, 0.02, 1, 0)
            assert abs(p_even - model) < 5 * max(std_err, 1e-4)

    def test_one_seed_per_depth(self):
        with pytest.raises(ValueError, match="need one seed per depth, got 1 for 2"):
            simulate_curves("one_qubit_ry", PauliString("Z"), (1, 2), 0.02, 64, (0,))

    def test_positive_error_bars_even_at_certainty(self):
        curve, = simulate_curves("one_qubit_ry", PauliString("Z"), (0,), 0.0,
                                 64, (0,), pi_values=(0.0, 0.5, 1.0))
        assert all(std_err > 0 for std_err in curve.std_err)
