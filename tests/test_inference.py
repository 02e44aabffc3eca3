"""Likelihood evaluation, grid MLE, the L=0 closed form, and bootstrap."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    RAECircuitSpec,
    block_maxima,
    closed_form_parity,
    dense_surface,
    dense_tables,
    eager_block_level,
    exhaustive_bootstrap,
    exhaustive_estimate,
    log_likelihood,
    parity_distribution,
)
from rae.cli import main
from rae.inference import (
    BLOCK,
    BOOTSTRAP_REPLICATES,
    BOUND_ROWS,
    DEGENERACY_TOL,
    SUPER,
    LikelihoodGrid,
    MLEGrid,
    ParityDataset,
    chebyshev_parity_probability,
    estimate_term,
    load_dataset,
    likelihood_tables,
    mle_estimate,
    rmse_stats,
    save_dataset,
)
from rae.jsonio import DatasetFormatError
from rae.pauli import PauliString, builtin_problem, oracle_expectation


def exact_count_dataset(pi: float, lam: float, layers, n_shots: int,
                        pauli: str = "Z") -> ParityDataset:
    layers = tuple(layers)
    counts = tuple(
        int(round(n_shots * chebyshev_parity_probability(pi, lam, L, 0)))
        for L in layers
    )
    return ParityDataset(pauli, layers, (n_shots,) * len(layers), counts)


# default-grid spacings, used for landing tolerances below
PI_STEP = 2.0 * (1.0 - 1e-9) / 9999
LAMBDA_STEP = 0.5 / 99


class TestChebyshevParityProbability:
    def test_halfway_point(self):
        assert chebyshev_parity_probability(0.5, 0.0, 0, 0) == pytest.approx(0.75)

    def test_unit_amplitude_is_certain(self):
        for layers in (0, 1, 3, 8):
            assert chebyshev_parity_probability(1.0, 0.0, layers, 0) == pytest.approx(1.0)
            assert chebyshev_parity_probability(1.0, 0.0, layers, 1) == pytest.approx(0.0)

    def test_parities_sum_to_one(self):
        p0 = chebyshev_parity_probability(-0.3, 0.07, 4, 0)
        p1 = chebyshev_parity_probability(-0.3, 0.07, 4, 1)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)

    def test_two_qubit_operating_point(self):
        # odd-parity complement of the known even-parity value at L=2
        p1 = chebyshev_parity_probability(-0.2238, 0.045, 2, 1)
        assert p1 == pytest.approx(1.0 - 0.09617, abs=1e-4)

    def test_matches_density_matrix_simulator(self):
        _, ansatz = builtin_problem("two_qubit")
        target = PauliString("XX")
        pi = oracle_expectation(ansatz, target)
        for layers in (0, 2, 5):
            for lam in (0.0, 0.045):
                spec = RAECircuitSpec(ansatz=ansatz, target=target,
                                      layers=layers, lam=lam)
                p_even, _ = parity_distribution(spec)
                model = chebyshev_parity_probability(pi, lam, layers, 0)
                assert model == pytest.approx(p_even, abs=1e-10)

    def test_matches_reference_formula_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pi = rng.uniform(-1, 1)
            lam = rng.uniform(0, 0.3)
            layers = int(rng.integers(0, 12))
            d = int(rng.integers(0, 2))
            assert chebyshev_parity_probability(pi, lam, layers, d) == pytest.approx(
                closed_form_parity(pi, lam, layers, d), abs=1e-14)

    def test_broadcasts_over_pi(self):
        pi = np.linspace(-0.9, 0.9, 7)
        out = chebyshev_parity_probability(pi, 0.01, 2, 0)
        assert out.shape == (7,)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_parity_probability(0.5, 0.0, 0, 2)
        with pytest.raises(ValueError):
            chebyshev_parity_probability(0.5, 0.0, -1, 0)
        with pytest.raises(ValueError):
            chebyshev_parity_probability(0.5, -0.1, 0, 0)


class TestLogLikelihood:
    def test_certain_data_peaks_at_unit_amplitude(self):
        ds = ParityDataset("Z", (0,), (100,), (100,))
        near_one = log_likelihood(ds, 1.0 - 1e-9, 0.0)
        assert abs(near_one) < 1e-6
        assert near_one > log_likelihood(ds, 0.5, 0.0)

    def test_coin_flip_data_maximized_at_zero(self):
        # even/odd balance at every depth puts the noiseless argmax at Pi = 0
        ds = ParityDataset("Z", tuple(range(9)), (8192,) * 9, (4096,) * 9)
        pi = np.linspace(-0.999, 0.999, 4001)
        values = log_likelihood(ds, pi, 0.0)
        assert abs(pi[np.argmax(values)]) < 1e-3

    def test_record_permutation_invariant(self):
        layers = tuple(range(5))
        counts = tuple(40 + 13 * L for L in layers)
        ds = ParityDataset("Z", layers, (200,) * 5, counts)
        ds_rev = ParityDataset("Z", layers[::-1], (200,) * 5, counts[::-1])
        for pi, lam in [(-0.7, 0.0), (0.2, 0.13), (0.94, 0.4)]:
            assert log_likelihood(ds, pi, lam) == log_likelihood(ds_rev, pi, lam)

    def test_finite_at_impossible_data(self):
        # clamping keeps zero-probability observations at a finite penalty
        ds = ParityDataset("Z", (0,), (10,), (0,))
        value = log_likelihood(ds, 1.0, 0.0)
        assert math.isfinite(value)
        assert value == pytest.approx(10 * math.log(1e-12))


class TestMLEEstimate:
    def test_noiseless_self_consistency(self):
        ds = exact_count_dataset(0.9745, 0.0, range(9), 8192)
        result = mle_estimate(ds)
        assert abs(result.pi_hat - 0.9745) <= PI_STEP
        assert result.lambda_hat == 0.0
        assert not result.degenerate_maximum

    def test_noisy_operating_point_recovered(self):
        ds = exact_count_dataset(-0.2238, 0.045, range(9), 8192, pauli="XX")
        result = mle_estimate(ds)
        assert abs(result.pi_hat + 0.2238) <= PI_STEP
        assert abs(result.lambda_hat - 0.045) <= LAMBDA_STEP

    def test_argmax_matches_direct_surface_scan(self):
        # small grid, brute-force double loop as the oracle
        ds = exact_count_dataset(0.4, 0.08, (0, 1, 3), 500)
        grid = MLEGrid(pi_points=101, lambda_points=11, lambda_max=0.2)
        best = (-np.inf, None, None)
        for pi in grid.pi_values():
            for lam in grid.lambda_values():
                value = log_likelihood(ds, float(pi), float(lam))
                if value > best[0]:
                    best = (value, float(pi), float(lam))
        result = mle_estimate(ds, grid)
        assert result.pi_hat == pytest.approx(best[1], abs=1e-15)
        assert result.lambda_hat == pytest.approx(best[2], abs=1e-15)

    def test_unboosted_dataset_rejected(self):
        """Depth-0-only data cannot separate the decay from the amplitude:
        it takes the closed form with lam pinned at 0, not the grid."""
        ds = ParityDataset("Z", (0,), (100,), (80,))
        result = mle_estimate(ds)
        assert result.method == "direct"
        assert (result.pi_hat, result.lambda_hat) == (0.6, 0.0)
        assert not result.degenerate_maximum

    def test_balanced_counts_land_at_zero(self):
        ds = ParityDataset("Z", tuple(range(9)), (8192,) * 9, (4096,) * 9)
        result = mle_estimate(ds)
        assert abs(result.pi_hat) <= PI_STEP

    def test_flat_ridge_flagged_degenerate(self):
        # a single L=1 record with balanced counts peaks wherever the
        # order-3 Chebyshev vanishes: three separated ridges, exact mirror
        # ties, so the runner-up sits far from the argmax
        ds = ParityDataset("Z", (1,), (100,), (50,))
        result = mle_estimate(ds)
        assert result.degenerate_maximum
        assert result.pi_hat < 0.0
        assert abs(4 * result.pi_hat ** 3 - 3 * result.pi_hat) < 1e-3

    def test_estimate_within_grid_ranges(self):
        rng = np.random.default_rng(3)
        grid = MLEGrid(pi_points=201, lambda_points=11, lambda_max=0.3)
        for _ in range(10):
            counts = tuple(int(rng.integers(0, 51)) for _ in range(3))
            result = mle_estimate(ParityDataset("Z", (0, 1, 2), (50,) * 3, counts), grid)
            assert -1.0 < result.pi_hat < 1.0
            assert 0.0 <= result.lambda_hat <= 0.3


class TestLikelihoodGrid:
    # Balanced counts make the Pi = 0 column flat in lam (T_{2L+1}(0) = 0),
    # so the argmax there rests on the last bit of each surface value.  A
    # BLAS product rounds some of these cells differently with the number
    # of rows it is given; the fixed-order kernel that makes every decision
    # does not.
    FLAT = ParityDataset("Z", tuple(range(4)), (100,) * 4, (50,) * 4)
    GRID = MLEGrid(pi_points=1001, lambda_points=11, lambda_max=0.25)

    def test_point_estimate_equals_one_row_batch(self):
        tables = LikelihoodGrid(self.GRID, self.FLAT.layers)
        pi_hats, lambda_hats, degenerate = tables.search(
            np.full((2, 4), 50.0), np.full(4, 100.0))
        point = tables.search(np.full((1, 4), 50.0), np.full(4, 100.0))
        assert (pi_hats[1], lambda_hats[1]) == (pi_hats[0], lambda_hats[0])
        assert (point[0][0], point[1][0], point[2]) == (
            pi_hats[0], lambda_hats[0], degenerate)

    def test_records_search_the_grid_of_their_own_order(self):
        """Reversed records are searched on the grid built for the reversed
        layers, which the cache then holds."""
        ds = exact_count_dataset(0.6, 0.02, range(4), 256)
        reversed_ds = ParityDataset("Z", ds.layers[::-1], ds.n_shots[::-1],
                                    ds.e_even[::-1])
        likelihood_tables.cache_clear()
        result = mle_estimate(reversed_ds, self.GRID)
        hits = likelihood_tables.cache_info().hits
        likelihood_tables(self.GRID, (3, 2, 1, 0))
        assert likelihood_tables.cache_info().hits == hits + 1
        even = np.array(reversed_ds.e_even, dtype=float)
        pi_hats, lambda_hats, degenerate = LikelihoodGrid(
            self.GRID, (3, 2, 1, 0)).search(even[None], np.full(4, 256.0))
        assert result.method == "mle"
        assert (result.pi_hat, result.lambda_hat, result.degenerate_maximum) == (
            pi_hats[0], lambda_hats[0], degenerate)


class TestDirectEstimate:
    """:func:`mle_estimate` on depth-0-only data: the closed form."""

    def test_closed_form_values(self):
        def ds(e, n):
            return ParityDataset("Z", (0,), (n,), (e,))
        assert mle_estimate(ds(8192, 8192)).pi_hat == 1.0
        assert mle_estimate(ds(4096, 8192)).pi_hat == 0.0
        assert mle_estimate(ds(6144, 8192)).pi_hat == 0.5
        assert mle_estimate(ds(0, 8192)).pi_hat == -1.0

    def test_exact_formula_on_random_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10000))
            e = int(rng.integers(0, n + 1))
            ds = ParityDataset("Z", (0,), (n,), (e,))
            result = mle_estimate(ds)
            assert result.pi_hat == (2 * e - n) / n
            assert result.lambda_hat == 0.0

    def test_agrees_with_lambda_pinned_grid_scan(self):
        grid = MLEGrid()
        pi = grid.pi_values()
        for e, n in [(700, 1000), (13, 64), (500, 1000), (999, 1000)]:
            ds = ParityDataset("Z", (0,), (n,), (e,))
            values = log_likelihood(ds, pi, 0.0)
            pinned = pi[int(np.argmax(values))]
            assert abs(mle_estimate(ds).pi_hat - pinned) <= PI_STEP

    def test_requires_single_unboosted_record(self):
        """Boosted data never takes the closed form, with or without the
        L=0 record."""
        grid = MLEGrid(pi_points=101, lambda_points=11, lambda_max=0.2)
        boosted = ParityDataset("Z", (0, 1), (10, 10), (5, 5))
        no_anchor = ParityDataset("Z", (1,), (10,), (5,))
        for ds in (boosted, no_anchor):
            assert mle_estimate(ds, grid).method == "mle"

    def test_closed_form_builds_no_grid(self):
        ds = ParityDataset("Z", (0,), (1000,), (357,))
        before = likelihood_tables.cache_info()
        result = mle_estimate(ds)
        assert likelihood_tables.cache_info() == before
        assert result.pi_hat == (2 * 357 - 1000) / 1000
        assert result.lambda_hat == 0.0
        assert result.method == "direct"

    def test_bootstrap_replicates_are_closed_form_estimates(self):
        """Each depth-0 replicate is the point estimate of its own redraw:
        the k-th ``SeedSequence`` child's binomial count at the observed
        rate."""
        n, e, seed = 1000, 700, 4
        _, pi_hats, lambda_hats = estimate_term(
            ParityDataset("Z", (0,), (n,), (e,)), 50, seed=seed)
        for k, child in enumerate(np.random.SeedSequence(seed).spawn(50)):
            redraw = int(np.random.default_rng(child).binomial(n, e / n))
            result = mle_estimate(ParityDataset("Z", (0,), (n,), (redraw,)))
            assert (pi_hats[k], lambda_hats[k]) == (
                result.pi_hat, result.lambda_hat)


SMALL_GRID = MLEGrid(pi_points=2001, lambda_points=26, lambda_max=0.25)


class TestBootstrap:
    def test_deterministic_given_seed(self):
        ds = exact_count_dataset(-0.2238, 0.045, range(5), 512, pauli="XX")
        _, a_pi, a_lambda = estimate_term(ds, 40, grid=SMALL_GRID, seed=7)
        _, b_pi, b_lambda = estimate_term(ds, 40, grid=SMALL_GRID, seed=7)
        assert np.array_equal(a_pi, b_pi)
        assert np.array_equal(a_lambda, b_lambda)
        c_pi = estimate_term(ds, 40, grid=SMALL_GRID, seed=8)[1]
        assert not np.array_equal(a_pi, c_pi)

    def test_replicates_do_not_depend_on_replicate_count(self):
        # near-tied lam values on the flat Pi = 0 column: rounding that
        # depended on the other replicates would move replicate 16
        flat, grid = TestLikelihoodGrid.FLAT, TestLikelihoodGrid.GRID
        _, a_pi, a_lambda = estimate_term(flat, 17, grid=grid, seed=22)
        _, b_pi, b_lambda = estimate_term(flat, 18, grid=grid, seed=22)
        assert np.array_equal(a_pi, b_pi[:17])
        assert np.array_equal(a_lambda, b_lambda[:17])

    def test_prefix_property_of_substreams(self):
        # replicate k depends only on (seed, k): a longer run extends a
        # shorter one without changing its entries
        ds = exact_count_dataset(0.6, 0.02, range(4), 256)
        short = estimate_term(ds, 10, grid=SMALL_GRID, seed=2)[1]
        long = estimate_term(ds, 25, grid=SMALL_GRID, seed=2)[1]
        assert np.array_equal(short, long[:10])

    def test_degenerate_counts_give_identical_replicates(self):
        ds = ParityDataset("Z", (0, 1), (64, 64), (64, 0))
        pi_hats = estimate_term(ds, 25, grid=SMALL_GRID, seed=0)[1]
        assert np.all(pi_hats == pi_hats[0])

    def test_unboosted_dataset_routes_through_closed_form(self):
        ds = ParityDataset("Z", (0,), (1000,), (700,))
        _, pi_hats, lambda_hats = estimate_term(ds, 200, seed=4)
        assert np.all(lambda_hats == 0.0)
        # every replicate is (2e - n)/n for an integer redraw e
        counts = (pi_hats * 1000 + 1000) / 2
        assert np.allclose(counts, np.round(counts))
        # binomial mean matches the observed rate within 3 standard errors
        se = math.sqrt(0.7 * 0.3 / 1000) * 2 / math.sqrt(200)
        assert abs(pi_hats.mean() - 0.4) < 3 * se

    def test_replicate_mean_tracks_full_estimate(self):
        # grid snapping contributes up to one step of systematic offset on
        # top of the monte-carlo error
        ds = exact_count_dataset(-0.2238, 0.045, range(5), 2048, pauli="XX")
        pi_hats = estimate_term(ds, 150, grid=SMALL_GRID, seed=9)[1]
        full = mle_estimate(ds, SMALL_GRID)
        spread = float(np.std(pi_hats))
        pi_step = 2.0 * (1.0 - 1e-9) / (SMALL_GRID.pi_points - 1)
        tol = 3.0 * spread / math.sqrt(150) + pi_step
        assert abs(float(np.mean(pi_hats)) - full.pi_hat) < tol

    def test_replicate_count_validated(self):
        ds = ParityDataset("Z", (0,), (10,), (5,))
        with pytest.raises(ValueError):
            estimate_term(ds, 0)

    def test_default_replicate_counts(self):
        assert BOOTSTRAP_REPLICATES[1] == 15000
        assert BOOTSTRAP_REPLICATES[2] == 10000


def _sampled(pi, lam, layers, n_shots, seed, pauli="Z"):
    rng = np.random.default_rng(seed)
    layers = tuple(layers)
    return ParityDataset(pauli, layers, (n_shots,) * len(layers), tuple(
        int(rng.binomial(n_shots, chebyshev_parity_probability(pi, lam, L, 0)))
        for L in layers))


RAGGED_GRID = MLEGrid(pi_points=997, lambda_points=13, lambda_max=0.5)

# (dataset, grid, replicates): the acceptance operating points, near-ties,
# estimates pinned at a grid edge, few shots, one layer, records out of
# depth order, and grids whose sizes are not multiples of the block size.
EXHAUSTIVE_CASES = {
    "acceptance-xx-lis8": (_sampled(-0.2238, 0.045, range(9), 8192, 1, "XX"),
                           MLEGrid(), 6),
    "acceptance-energy": (_sampled(-0.2238, 0.05, range(4), 8192, 2, "XX"),
                          MLEGrid(10000, 26, 0.25), 6),
    "acceptance-scaling": (_sampled(0.41, 0.0, (0, 1, 3, 7), 512, 3, "X"),
                           MLEGrid(10000, 26, 0.05), 6),
    "flat": (TestLikelihoodGrid.FLAT, TestLikelihoodGrid.GRID, 150),
    "lambda-beyond-max": (_sampled(0.3, 0.8, range(4), 256, 4),
                          MLEGrid(1001, 11, 0.25), 60),
    "pi-minus-one-zz": (_sampled(-1.0, 0.05, range(4), 512, 5, "ZZ"),
                        RAGGED_GRID, 60),
    "16-shots": (_sampled(0.5, 0.05, range(4), 16, 6), RAGGED_GRID, 60),
    "64-shots": (_sampled(-0.7, 0.02, range(3), 64, 7), RAGGED_GRID, 60),
    "one-layer": (_sampled(0.2, 0.03, (1,), 64, 8), RAGGED_GRID, 60),
    "non-increasing-layers": (_sampled(0.6, 0.04, (3, 1, 0, 2), 128, 9),
                              SMALL_GRID, 30),
    "ragged": (_sampled(0.1, 0.1, range(5), 1024, 10), RAGGED_GRID, 60),
    # at L = 64, T_{2L+1} runs through several periods inside one block
    "deep-exponential": (_sampled(0.3, 0.005, (0, 1, 2, 4, 8, 16, 32, 64), 1024, 11),
                         MLEGrid(1001, 11, 0.05), 30),
    # e^{-lam (L + 1/2)} underflows to 0 over the high-lam half of the grid
    "lambda-max-50": (_sampled(0.4, 0.5, (0, 1, 2, 4, 8, 16, 32), 256, 12),
                      MLEGrid(501, 51, 50.0), 30),
    "pi-near-plus-one": (_sampled(1.0 - 1e-6, 0.02, range(5), 512, 13),
                         RAGGED_GRID, 60),
    # p0 rounds to exactly 1/2 from a lam that varies with the Pi row, so
    # exact maxima lie in several rows and lam blocks of one block row
    "exact-ties-across-blocks": (ParityDataset("Z", (4,), (100,), (50,)),
                                 MLEGrid(101, 101, 10.0), 30),
    # e = N at L = 0 and e = 0 at L = 1 put p* at an end of every block's
    # interval; on this grid T_3 reaches -1 and 1 exactly at lam = 0, so
    # both clipped ends, log(P_EPS), enter the L = 1 values
    "saturated": (ParityDataset("Z", (0, 1, 2), (64, 64, 64), (64, 0, 48)),
                  MLEGrid(1001, 11, 0.25), 60),
    "16-shot-flat": (ParityDataset("Z", tuple(range(9)), (16,) * 9, (8,) * 9),
                     MLEGrid(1001, 11, 50.0), 30),
    # from lam = 10 on, e^{-4.5 lam} T_9(Pi) rounds p0 to exactly 1/2, so
    # balanced counts tie at every cell of those columns: the point
    # estimate's 10,201 candidates span three kernel tiles of 5,100 cells,
    # and the replicates that redraw 50 span thirty tiles of 340
    "ties-across-tiles": (ParityDataset("Z", (4,), (100,), (50,)),
                          MLEGrid(101, 101, 1000.0), 30),
    # lis(1): the concave stage cuts the most blocks where two records
    # leave the linear bound loose
    "lis1-two-records": (_sampled(-0.2244, 0.02, (0, 1), 8192, 15, "X"),
                         MLEGrid(10000, 101, 0.1), 6),
    # 150 replicates are three row groups (64, 64, 22) on non-flat data
    "xx-lis8-three-groups": (_sampled(-0.2238, 0.045, range(9), 8192, 16, "XX"),
                             MLEGrid(1001, 101, 0.5), 150),
    # the observed counts and 64 replicates are 65 rows: the last row group
    # holds a single replicate
    "lone-last-replicate": (_sampled(0.55, 0.03, range(4), 256, 17),
                            RAGGED_GRID, 64),
    # wide peaks at a high decay rate: the bounds leave most of the grid
    # to the screen, in tens of tiles, for every row at once
    "lambda-0.35-lis8": (_sampled(-0.2238, 0.35, range(9), 8192, 18, "XX"),
                         MLEGrid(1001, 51, 0.5), 60),
    # 4 shots at two depths leave maxima a few ulps apart: the screen's
    # matrix product and the fixed-order kernel rank them differently for
    # some replicates, which a screen cut without the rounding slack, or
    # one that keeps only each row's best product, gets wrong
    "screen-near-ties": (_sampled(-0.34, 0.14, (4, 8), 4, 47),
                         MLEGrid(1001, 11, 0.25), 60),
}


@pytest.mark.parametrize("case", sorted(EXHAUSTIVE_CASES))
class TestEqualsExhaustiveScan:
    """The pruned argmax equals a fixed-order scan of every cell, bit for bit."""

    def test_point_estimate(self, case):
        ds, grid, _ = EXHAUSTIVE_CASES[case]
        assert mle_estimate(ds, grid) == exhaustive_estimate(ds, grid)

    def test_bootstrap(self, case):
        ds, grid, n = EXHAUSTIVE_CASES[case]
        _, pi_hats, lambda_hats = estimate_term(ds, n, grid=grid, seed=3)
        expected_pi, expected_lambda = exhaustive_bootstrap(ds, n, grid, seed=3)
        assert np.array_equal(pi_hats, expected_pi)
        assert np.array_equal(lambda_hats, expected_lambda)

    def test_term(self, case):
        """The point estimate, searched as row 0 of the replicates' first
        row group, and every replicate equal the oracles."""
        ds, grid, n = EXHAUSTIVE_CASES[case]
        result, pi_hats, lambda_hats = estimate_term(ds, n, grid=grid, seed=3)
        assert result == exhaustive_estimate(ds, grid)
        expected_pi, expected_lambda = exhaustive_bootstrap(ds, n, grid, seed=3)
        assert np.array_equal(pi_hats, expected_pi)
        assert np.array_equal(lambda_hats, expected_lambda)


class TestSearchCount:
    """A term's point estimate and its bootstrap share one search: the
    observed counts are row 0 of the replicates' first row group, so a
    term with n replicates runs ``ceil((n + 1) / BOUND_ROWS)`` candidate
    searches, and a lone point estimate one."""

    DATASET = EXHAUSTIVE_CASES["acceptance-xx-lis8"][0]

    @staticmethod
    def searched_rows(monkeypatch, call) -> list[int]:
        """The number of rows of each ``LikelihoodGrid._candidates`` call
        that ``call()`` makes."""
        rows = []
        candidates = LikelihoodGrid._candidates

        def spy(self, even, shots):
            rows.append(len(even))
            return candidates(self, even, shots)

        monkeypatch.setattr(LikelihoodGrid, "_candidates", spy)
        call()
        return rows

    def test_point_estimate_searches_once(self, monkeypatch):
        assert self.searched_rows(monkeypatch, lambda: mle_estimate(self.DATASET)) == [1]

    @pytest.mark.parametrize("n", [30, 63, 64, 130])
    def test_term_searches_once_per_row_group(self, monkeypatch, n):
        rows = self.searched_rows(
            monkeypatch, lambda: estimate_term(self.DATASET, n, seed=0))
        assert len(rows) == math.ceil((n + 1) / BOUND_ROWS)
        assert sum(rows) == n + 1

    @pytest.mark.parametrize("n", [0, 130])
    def test_kernel_sees_fewer_cells_than_the_screen(self, monkeypatch, n):
        """The fixed-order kernel runs only on the cells the matrix-product
        screen keeps: here under a tenth of the cells screened, for the
        point estimate alone and with three row groups of replicates."""
        screened, summed = [], []
        maxima, kernel = LikelihoodGrid._maxima, LikelihoodGrid._sum

        def screen_spy(self, even, shots, cells):
            screened.append(len(cells))
            return maxima(self, even, shots, cells)

        def kernel_spy(self, counts, table):
            summed.append(table.shape[1])
            return kernel(self, counts, table)

        monkeypatch.setattr(LikelihoodGrid, "_maxima", screen_spy)
        monkeypatch.setattr(LikelihoodGrid, "_sum", kernel_spy)
        if n:
            estimate_term(self.DATASET, n, seed=0)
        else:
            mle_estimate(self.DATASET)
        assert len(screened) == math.ceil((n + 1) / BOUND_ROWS)
        assert 0 < 10 * sum(summed) < sum(screened)


DEEP_LAYERS = (0, 1, 2, 4, 8, 16, 32, 64)

BOUND_GRIDS = pytest.mark.parametrize(
    "grid", [MLEGrid(), RAGGED_GRID, MLEGrid(1001, 101, 50.0)],
    ids=["default", "ragged", "lambda-max-50"])


def levels(tables):
    """Each level of the search: the cells its units span along (Pi, lam),
    and its units' ``p_lo``, ``p_hi`` and linear bounds, for every block
    through :meth:`LikelihoodGrid._block_bounds` and for every
    super-block as built."""
    n_blocks = len(tables._c_lo) * len(tables._e_lo)
    return [((BLOCK, BLOCK), tables._block_bounds(np.arange(n_blocks))),
            ((BLOCK * SUPER, BLOCK),
             (tables._super_p_lo, tables._super_p_hi, tables._super_bounds))]


class TestBlockBounds:
    """Each layer's block and super-block bounds of log p0 and log p1
    against the maxima of the dense tables over the same cells."""

    @BOUND_GRIDS
    def test_never_below_dense_block_maxima(self, grid):
        tables = LikelihoodGrid(grid, DEEP_LAYERS)
        n = len(DEEP_LAYERS)
        for span, (_, _, bounds) in levels(tables):
            for i, layers in enumerate(DEEP_LAYERS):
                log_p0, log_p1 = dense_tables(grid, (layers,))
                for bound, table in ((bounds[i], log_p0[0]), (bounds[n + i], log_p1[0])):
                    top = block_maxima(table, *span)
                    assert np.all(bound >= top), (span, layers)
                    # and tight: both are <= 0, and the slack is ~1e-14 relative
                    assert np.all(bound <= top * (1.0 - 1e-12)), (span, layers)


class TestConcaveBound:
    """Each row's concave bound on every block and super-block against the
    row's maximum over its cells, summed from the dense tables."""

    @staticmethod
    def rows(n_shots):
        rng = np.random.default_rng(n_shots)
        rows = rng.integers(0, n_shots + 1, size=(4, len(DEEP_LAYERS)))
        rows[0, 2], rows[0, 5] = 0, n_shots  # saturated at two depths
        rows[1], rows[2] = 0, n_shots
        return rows.astype(float)

    @pytest.mark.parametrize("n_shots", [16, 8192])
    @BOUND_GRIDS
    def test_never_below_dense_block_maxima(self, grid, n_shots):
        even = self.rows(n_shots)
        shots = np.full(len(DEEP_LAYERS), float(n_shots))
        surfaces = np.zeros((len(even), grid.pi_points, grid.lambda_points))
        for l, layers in enumerate(DEEP_LAYERS):
            log_p0, log_p1 = dense_tables(grid, (layers,))
            for surface, e in zip(surfaces, even[:, l]):
                surface += e * log_p0[0]
                surface += (n_shots - e) * log_p1[0]
        tables = LikelihoodGrid(grid, DEEP_LAYERS)
        for span, (p_lo, p_hi, _) in levels(tables):
            for e, surface in zip(even, surfaces):
                bound = tables._concave_bound(np.tile(e, (len(p_lo), 1)), shots, p_lo, p_hi)
                assert np.all(bound >= block_maxima(surface, *span))


class TestCandidates:
    """How many blocks the kernel sees on the two-qubit XX lis(8) data of
    ``rae generate --seed 11 --lambda 0.045``.  For the point estimate, 28
    of the 1,000 super-blocks pass the linear bound and 2 the concave one;
    20 of their blocks pass the linear bound and 2 reach the kernel.  For
    its first 64 replicates, 1,787 (row, super-block) pairs pass the linear
    bound and 125 the concave one; 1,250 (row, block) pairs then pass the
    linear bound, 227 the concave one, and they cover 9 blocks."""

    def test_lis8_keeps_few_blocks(self, tmp_path):
        assert main(["generate", "--seed", "11", "--lambda", "0.045",
                     "--out", str(tmp_path)]) == 0
        ds = load_dataset(str(tmp_path / "XX.json"))
        tables = LikelihoodGrid(MLEGrid(), ds.layers)
        shots = np.array(ds.n_shots)
        rates = np.array([e / n for e, n in zip(ds.e_even, ds.n_shots)])
        point = np.array([ds.e_even], dtype=float)
        group = np.array([np.random.default_rng(child).binomial(shots, rates)
                          for child in np.random.SeedSequence(0).spawn(64)], dtype=float)
        for even in (point, group):
            cells = tables._candidates(even, shots.astype(float))
            assert len(cells) <= 16 * BLOCK**2

    @pytest.mark.parametrize("case", ["screen-near-ties", "flat"])
    def test_every_row_keeps_its_near_maxima(self, monkeypatch, case):
        """For every row of every row group, not only row 0, each cell
        whose value on the dense tables comes within ``DEGENERACY_TOL`` of
        the row's maximum is among the group's candidates."""
        ds, grid, n = EXHAUSTIVE_CASES[case]
        searched = []
        candidates = LikelihoodGrid._candidates

        def spy(self, even, shots):
            cells = candidates(self, even, shots)
            searched.append((even, shots, cells))
            return cells

        monkeypatch.setattr(LikelihoodGrid, "_candidates", spy)
        estimate_term(ds, n, grid=grid, seed=3)
        assert len(searched) == math.ceil((n + 1) / BOUND_ROWS)
        tables = dense_tables(grid, ds.layers)
        near_ties = 0
        for even, shots, cells in searched:
            for row in even:
                total = dense_surface(tables, row, shots)
                near = np.flatnonzero(total >= total.max() - DEGENERACY_TOL)
                assert np.all(np.isin(near, cells))
                near_ties += np.count_nonzero(total[near] < total.max())
        # some rows have cells below their maximum but within the tolerance,
        # so the check covers more than exact maxima
        assert near_ties > 0

    def test_searches_leave_the_grid_unchanged(self, tmp_path):
        """A point estimate and a 130-row search, three row groups, write
        nothing on the shared grid, and the point estimate equals that of
        a fresh grid."""
        assert main(["generate", "--seed", "11", "--lambda", "0.045",
                     "--out", str(tmp_path)]) == 0
        ds = load_dataset(str(tmp_path / "XX.json"))
        likelihood_tables.cache_clear()
        tables = likelihood_tables(MLEGrid(), ds.layers)

        def arrays():
            return {name: values.tobytes() for name, values in vars(tables).items()
                    if isinstance(values, np.ndarray)}

        built = arrays()
        point = np.array(ds.e_even, dtype=float)
        shots = np.array(ds.n_shots)
        result = tables.search(point[None], shots.astype(float))
        rates = np.array([e / n for e, n in zip(ds.e_even, ds.n_shots)])
        even = np.random.default_rng(0).binomial(shots, rates, size=(130, len(shots)))
        tables.search(np.vstack([point, even]), shots.astype(float))
        assert arrays() == built
        for values in vars(tables).values():
            if isinstance(values, np.ndarray):
                assert not values.flags.writeable
        fresh = LikelihoodGrid(MLEGrid(), ds.layers).search(
            point[None], shots.astype(float))
        assert (result[0][0], result[1][0], result[2]) == (
            fresh[0][0], fresh[1][0], fresh[2])


class TestBlockLevel:
    """Block bounds computed for any set of blocks equal the eager build of
    every block at once, bit for bit."""

    @BOUND_GRIDS
    def test_block_bounds_equal_eager_build(self, grid):
        (_, computed), _ = levels(LikelihoodGrid(grid, DEEP_LAYERS))
        for name, values, reference in zip(("p_lo", "p_hi", "bounds"), computed,
                                           eager_block_level(grid, DEEP_LAYERS)):
            assert values.shape == reference.shape, name
            assert values.tobytes() == reference.tobytes(), name

    def test_bounds_are_independent_of_the_order_of_requests(self):
        tables = LikelihoodGrid(MLEGrid(1001, 101, 50.0), DEEP_LAYERS)
        (_, whole), _ = levels(tables)
        parts = [np.full_like(values, np.nan) for values in whole]
        n_supers = len(tables._super_p_lo)
        for supers in np.array_split(np.random.default_rng(5).permutation(n_supers), 7):
            blocks, _ = tables._members(supers)
            p_lo, p_hi, bounds = tables._block_bounds(blocks)
            parts[0][blocks], parts[1][blocks], parts[2][:, blocks] = p_lo, p_hi, bounds
        for name, part, values in zip(("p_lo", "p_hi", "bounds"), parts, whole):
            assert part.tobytes() == values.tobytes(), name


class TestLikelihoodTables:
    def test_one_grid_per_grid_and_layer_order(self):
        likelihood_tables.cache_clear()
        tables = likelihood_tables(SMALL_GRID, (0, 1, 2))
        assert likelihood_tables(SMALL_GRID, (0, 1, 2)) is tables
        assert likelihood_tables(RAGGED_GRID, (0, 1, 2)) is not tables
        reordered = likelihood_tables(SMALL_GRID, (2, 1, 0))
        assert reordered is not tables and reordered.layer_values == (2, 1, 0)

    def test_arrays_are_read_only(self):
        tables = likelihood_tables(SMALL_GRID, (0, 1, 2))
        arrays = [v for v in vars(tables).values() if isinstance(v, np.ndarray)]
        assert arrays
        for values in arrays:
            with pytest.raises(ValueError):
                values.flat[0] = 0.0

    def test_axes_are_the_grid_values(self):
        tables = likelihood_tables(RAGGED_GRID, (0, 1, 2))
        assert tables.pi_values.tobytes() == RAGGED_GRID.pi_values().tobytes()
        assert tables.lambda_values.tobytes() == RAGGED_GRID.lambda_values().tobytes()

    def test_estimate_then_bootstrap_build_once(self):
        ds = exact_count_dataset(0.6, 0.02, range(4), 256)
        likelihood_tables.cache_clear()
        mle_estimate(ds, SMALL_GRID)
        estimate_term(ds, 10, grid=SMALL_GRID, seed=0)
        info = likelihood_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def _peak_bytes(ds, grid, n_replicates=0) -> int:
    """tracemalloc's peak over a point estimate and a point estimate with
    a bootstrap (if ``n_replicates``), from an empty table cache."""
    likelihood_tables.cache_clear()
    tracemalloc.start()
    try:
        mle_estimate(ds, grid)
        if n_replicates:
            estimate_term(ds, n_replicates, grid=grid, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_default_grid_estimate_and_bootstrap_peak(self):
        ds = _sampled(-0.2238, 0.045, (1, 2, 3, 5, 8, 13), 8192, 14, "XX")
        assert _peak_bytes(ds, MLEGrid(), 64) < 64 * 2**20

    def test_flat_point_estimate_peak(self):
        # balanced 2-shot counts at 30 depths: the point estimate's
        # candidates cover all 25,000 cells, where (layers, cells) log
        # tables would take 60 grid surfaces (11 MiB)
        ds = ParityDataset("Z", tuple(range(30)), (2,) * 30, (1,) * 30)
        grid = MLEGrid(500, 50, 50.0)
        tables = LikelihoodGrid(grid, ds.layers)
        even = np.array([[1.0] * 30])
        assert len(tables._candidates(even, np.full(30, 2.0))) == 25000
        assert _peak_bytes(ds, grid) < 4 * 2**20

    def test_flat_likelihood_peak(self):
        # balanced 2-shot counts at 30 depths: most (row, block) pairs pass
        # the linear bound, and the concave stage's (pairs, layers)
        # temporaries would reach ~68 grid surfaces (13 MiB) unchunked
        ds = ParityDataset("Z", tuple(range(30)), (2,) * 30, (1,) * 30)
        assert _peak_bytes(ds, MLEGrid(500, 50, 50.0), 64) < 6 * 2**20


class TestRmseStats:
    def test_all_replicates_on_reference(self):
        # a zero RMSE has a zero sigma, not a division by zero
        rmse, sigma_rmse = rmse_stats([0.9, 0.9, 0.9], 0.9)
        assert rmse == 0.0
        assert sigma_rmse == 0.0

    def test_single_replicate(self):
        rmse, sigma_rmse = rmse_stats([1.0], 0.9)
        assert rmse == pytest.approx(0.1)
        assert sigma_rmse == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_pair(self):
        # both replicates sit 0.1 from the reference, so the squared
        # deviations are constant: variance 0, sigma 0, but rmse nonzero
        rmse, sigma_rmse = rmse_stats([0.8, 1.0], 0.9)
        assert rmse == pytest.approx(0.1)
        assert sigma_rmse == pytest.approx(0.0, abs=1e-15)

    def test_population_conventions(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.5, 0.01, size=400)
        rmse, sigma_rmse = rmse_stats(values, 0.5)
        sq = (values - 0.5) ** 2
        mse = sq.mean()
        assert rmse == pytest.approx(math.sqrt(mse))
        assert sigma_rmse == pytest.approx(
            math.sqrt(((sq - mse) ** 2).mean()) / (2 * math.sqrt(mse)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse_stats([], 0.0)


class TestDatasetIO:
    def _dataset(self):
        return ParityDataset(
            "XX", (0, 3), (8192, 8192), (4000, 7121),
            metadata={"hamiltonian": "h2_two_qubit", "seed": 17},
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "xx.json"
        ds = self._dataset()
        save_dataset(str(path), ds)
        loaded = load_dataset(str(path))
        assert loaded == ds
        save_dataset(str(path) + ".again", loaded)
        assert path.read_bytes() == (tmp_path / "xx.json.again").read_bytes()

    def test_json_schema_fields(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(str(path), self._dataset())
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["pauli"] == "XX"
        assert doc["records"][0] == {"L": 0, "n_shots": 8192, "e_even": 4000}

    def test_invalid_json_reported_with_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DatasetFormatError, match="broken.json"):
            load_dataset(str(path))

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"version": 1, "pauli": "Z"}))
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        doc = self._dataset().to_dict()
        doc["version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ParityDataset("Z", (0,), (100,), (101,))
        with pytest.raises(ValueError):
            ParityDataset("Z", (-1,), (100,), (50,))
        with pytest.raises(ValueError):
            ParityDataset("Z", (0, 0), (10, 10), (5, 6))
        with pytest.raises(ValueError):
            ParityDataset("Q", (0,), (10,), (5,))
        with pytest.raises(ValueError, match="layers entries must be integers"):
            ParityDataset("Z", (0, 1.5), (100, 100), (60, 30))
        with pytest.raises(ValueError, match="layers entries must be integers"):
            ParityDataset("Z", (0, True), (100, 100), (60, 30))
        with pytest.raises(ValueError, match="n_shots entries must be integers"):
            ParityDataset("Z", (0, 1), (100.5, 100), (60, 30))


class TestMLEGridValidation:
    def test_defaults(self):
        grid = MLEGrid()
        assert grid.pi_points == 10000
        assert grid.lambda_points == 100
        assert grid.lambda_values()[0] == 0.0
        assert grid.lambda_values()[-1] == 0.5
        assert grid.pi_values()[0] == -1.0 + 1e-9

    def test_rejects_degenerate_axes(self):
        with pytest.raises(ValueError):
            MLEGrid(pi_points=1)
        with pytest.raises(ValueError):
            MLEGrid(lambda_max=0.0)
