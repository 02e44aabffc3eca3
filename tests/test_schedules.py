"""Layer-schedule constructors, the Fisher depth cap, and query accounting."""

import math

import pytest

from rae.fisher import fisher_matrix
from rae.schedules import (
    MAX_LAYERS,
    LayerSchedule,
    eis,
    l_max_fisher,
    lis,
    noise_robust_schedule,
    polynomial,
    query_cost,
)


class TestLayerSchedule:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LayerSchedule(layers=(), shots_per_layer=100)

    def test_rejects_negative_layer(self):
        with pytest.raises(ValueError):
            LayerSchedule(layers=(-1, 0), shots_per_layer=100)

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValueError):
            LayerSchedule(layers=(0, 0, 1), shots_per_layer=100)
        with pytest.raises(ValueError):
            LayerSchedule(layers=(2, 1), shots_per_layer=100)

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            LayerSchedule(layers=(0, 1), shots_per_layer=0)

    def test_origin_does_not_affect_equality(self):
        a = LayerSchedule(layers=(0, 1), shots_per_layer=8, origin="lis")
        b = LayerSchedule(layers=(0, 1), shots_per_layer=8, origin="")
        assert a == b


class TestConstructors:
    def test_lis_is_contiguous(self):
        assert lis(3, 100).layers == (0, 1, 2, 3)
        assert lis(0, 100).layers == (0,)

    def test_eis_deduplicates_floors(self):
        # 0, then 2^{i-1} for i = 1..5: each depth is new
        assert eis(5, 100).layers == (0, 1, 2, 4, 8, 16)
        assert eis(1, 100).layers == (0, 1)

    def test_polynomial_cubes(self):
        assert polynomial(3, 2, 100).layers == (0, 1, 8)
        assert polynomial(1, 4, 100).layers == lis(4, 100).layers

    def test_polynomial_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            polynomial(0, 4, 100)

    def test_deepest_layer_bounded(self):
        """Every family builds up to MAX_LAYERS and refuses, naming i_max,
        an i_max whose deepest layer lies beyond it."""
        assert lis(MAX_LAYERS, 1).layers[-1] == MAX_LAYERS
        assert eis(20, 1).layers[-1] == 2**19 < MAX_LAYERS < 2**20
        assert polynomial(2, 1000, 1).layers[-1] == MAX_LAYERS
        for build, i_max in ((lis, MAX_LAYERS + 1), (eis, 21), (eis, 20000),
                             (lambda i, n: polynomial(2, i, n), 1001),
                             (lambda i, n: polynomial(10**12, i, n), 2)):
            with pytest.raises(ValueError, match=f"^i_max {i_max} puts the deepest "):
                build(i_max, 1)

    def test_lis_never_subset_of_eis(self):
        # the two families genuinely differ once i_max >= 3
        eis_members = set(eis(MAX_LAYERS.bit_length(), 1).layers)
        for i_max in range(3, 9):
            assert not set(lis(i_max, 1).layers) <= eis_members


class TestFisherDepthCap:
    def test_known_values(self):
        assert l_max_fisher(0.045) == pytest.approx(22.722, abs=0.001)
        assert 22.2 <= l_max_fisher(0.045) <= 23.2
        assert l_max_fisher(0.18) == pytest.approx(6.0556, abs=0.001)
        assert l_max_fisher(1.0) == 1.5

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            l_max_fisher(0.0)


class TestQueryCost:
    def test_examples(self):
        assert query_cost(lis(0, 8192)) == 8192
        assert query_cost(lis(1, 8192)) == 32768
        assert query_cost(lis(2, 1)) == 9

    def test_odd_query_counts_per_circuit(self):
        sched = LayerSchedule(layers=(0, 3, 7), shots_per_layer=10)
        assert query_cost(sched) == (1 + 7 + 15) * 10


class TestNoiseRobustSchedule:
    def test_two_qubit_operating_point(self):
        sched = noise_robust_schedule(-0.2238, 0.045, 100)
        assert sched.layers == (0, 6, 13, 20)
        assert sched.origin == "nris"

    def test_members_satisfy_selection_condition(self):
        # every non-anchor member must clear the signal-extremum threshold,
        # re-derived here with an independent loop
        pi, lam, c = -0.2238, 0.045, 1.0
        sched = noise_robust_schedule(pi, lam, 100, c=c)
        phi = math.acos(pi)
        cap = l_max_fisher(lam)
        expected = [
            l for l in range(int(cap) + 1)
            if l < cap and math.sin((2 * l + 1) * phi) ** 2 > 1.0 - c * lam
        ]
        if 0 not in expected:
            expected.insert(0, 0)
        assert list(sched.layers) == expected
        for l in sched.layers[1:]:
            assert math.sin((2 * l + 1) * phi) ** 2 > 1.0 - c * lam

    def test_near_unit_prior_takes_exponential_branch(self):
        sched = noise_robust_schedule(0.999, 0.045, 100)
        assert sched.origin == "nris-eis-edge"
        cap = math.floor(l_max_fisher(0.045))
        eis_members = set(eis(MAX_LAYERS.bit_length(), 100).layers)
        assert all(l in eis_members and l <= cap for l in sched.layers)

    def test_near_zero_prior_takes_exponential_branch(self):
        sched = noise_robust_schedule(0.01, 0.1, 100)
        assert sched.origin == "nris-eis-edge"

    def test_depth_cap_respected(self):
        for pi in (-0.9, -0.2238, 0.3, 0.7, 0.9745):
            for lam in (0.01, 0.045, 0.18):
                sched = noise_robust_schedule(pi, lam, 100)
                cap = l_max_fisher(lam)
                if sched.origin == "nris-eis-edge":
                    assert max(sched.layers) <= math.floor(cap)
                else:
                    assert all(l < cap for l in sched.layers[1:])

    def test_always_anchored_at_zero(self):
        for pi in (-0.9745, -0.5, 0.2238, 0.62, 0.999):
            for lam in (0.003, 0.045, 0.18):
                assert noise_robust_schedule(pi, lam, 100).layers[0] == 0

    def test_per_query_information_beats_linear(self):
        # the point of the construction: more information per ansatz query
        # than a linear ramp to the same maximum depth
        pi = -0.2238
        for lam in (0.045, 0.18):
            sched = noise_robust_schedule(pi, lam, 100)
            ramp = lis(max(sched.layers), 100)
            per_query = fisher_matrix(pi, lam, sched).i11 / query_cost(sched)
            per_query_ramp = fisher_matrix(pi, lam, ramp).i11 / query_cost(ramp)
            assert per_query >= per_query_ramp

    def test_input_validation(self):
        with pytest.raises(ValueError):
            noise_robust_schedule(1.5, 0.045, 100)
        with pytest.raises(ValueError):
            noise_robust_schedule(0.5, 0.045, 100, c=0.0)
        with pytest.raises(ValueError):
            noise_robust_schedule(0.5, 0.0, 100)
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError, match="c must be a finite positive"):
                noise_robust_schedule(0.5, 0.045, 100, c=c)
        # the scan tests every layer below l_max_fisher(lam), so a lam that
        # puts it past MAX_LAYERS is refused; a far smaller lam, which
        # would never return without the bound, runs in a subprocess in
        # tests/test_cli.py
        assert l_max_fisher(1e-6) > MAX_LAYERS
        with pytest.raises(ValueError, match="lambda 1e-06 "):
            noise_robust_schedule(0.5, 1e-6, 100)
