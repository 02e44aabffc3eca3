"""Density-matrix pipeline against the Chebyshev closed form."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import (
    DensityMatrix,
    RAECircuitSpec,
    apply_depolarizing,
    apply_grover_layer,
    circuit_p_even,
    closed_form_parity,
    context_rotation,
    curve_specs,
    evolve,
    grover_unitary,
    measured_parity_distribution,
    parity_distribution,
    per_point_curve,
    per_point_dataset,
    prepare_noisy_ansatz,
    validate,
)
import rae
from rae import energy, jsonio, noisefit
from rae.pauli import AnsatzSpec, PauliString, builtin_problem, oracle_expectation
from rae.schedules import LayerSchedule
from rae.simulator import _child_seed_type, _child_seed_words, sample_parities

ANSATZ_1Q = AnsatzSpec("one_qubit_ry", -6.5095)
ANSATZ_2Q = AnsatzSpec("two_qubit_ucc", -6.0575)


def _spec(ansatz, word, layers, lam):
    return RAECircuitSpec(ansatz=ansatz, target=PauliString(word), layers=layers, lam=lam)


def _draw(spec, n_shots, seed):
    return np.random.default_rng(seed).binomial(n_shots, circuit_p_even(spec))


class TestChannels:
    def test_unit_fidelity_is_identity_channel(self):
        dm = prepare_noisy_ansatz(ANSATZ_1Q, 0.0)
        out = apply_depolarizing(dm, 1.0)
        assert np.allclose(out.data, dm.data)

    def test_zero_fidelity_gives_maximally_mixed(self):
        dm = prepare_noisy_ansatz(ANSATZ_2Q, 0.0)
        out = apply_depolarizing(dm, 0.0)
        assert np.allclose(out.data, np.eye(4) / 4.0)

    def test_intermediate_fidelity_mixes_linearly(self):
        dm = prepare_noisy_ansatz(ANSATZ_1Q, 0.0)
        out = apply_depolarizing(dm, 0.5)
        assert np.allclose(out.data, 0.5 * dm.data + 0.25 * np.eye(2))

    def test_fidelity_domain(self):
        dm = prepare_noisy_ansatz(ANSATZ_1Q, 0.0)
        with pytest.raises(ValueError):
            apply_depolarizing(dm, 1.5)


class TestNoisyPreparation:
    def test_noiseless_preparation_is_pure(self):
        dm = prepare_noisy_ansatz(ANSATZ_2Q, 0.0)
        validate(dm)
        assert np.trace(dm.data @ dm.data).real == pytest.approx(1.0, abs=1e-12)

    def test_contrast_shrinks_by_half_rate(self):
        # Tr[rho_0 P] = e^{-lam/2} <A|P|A> for any non-identity P.
        lam = 0.09
        target = PauliString("XX")
        dm = prepare_noisy_ansatz(ANSATZ_2Q, lam)
        expected = math.exp(-lam / 2.0) * oracle_expectation(ANSATZ_2Q, target)
        assert dm.expectation(target) == pytest.approx(expected, abs=1e-12)

    def test_infinite_rate_limit_is_maximally_mixed(self):
        dm = prepare_noisy_ansatz(ANSATZ_2Q, 80.0)
        assert np.allclose(dm.data, np.eye(4) / 4.0, atol=1e-15)


class TestGroverLayers:
    def test_unitary_is_unitary(self):
        u = grover_unitary(_spec(ANSATZ_2Q, "XX", 1, 0.1))
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_maximally_mixed_state_is_a_fixed_point(self):
        mixed = DensityMatrix(data=np.eye(4, dtype=complex) / 4.0, n_qubits=2)
        out = apply_grover_layer(mixed, _spec(ANSATZ_2Q, "XX", 1, 0.2))
        assert np.allclose(out.data, mixed.data, atol=1e-14)

    def test_single_noiseless_layer_triples_the_angle(self):
        # One boost layer maps Pi to T_3(Pi) = 4 Pi^3 - 3 Pi.
        spec = _spec(ANSATZ_1Q, "Z", 1, 0.0)
        pi = oracle_expectation(ANSATZ_1Q, PauliString("Z"))
        value = evolve(spec).expectation(spec.target)
        assert value == pytest.approx(4.0 * pi**3 - 3.0 * pi, abs=1e-12)

    def test_state_stays_physical_through_layers(self):
        dm = evolve(_spec(ANSATZ_2Q, "YY", 6, 0.08))
        validate(dm, atol=1e-10)


class TestParityDistribution:
    def test_matches_closed_form_for_all_terms_and_depths(self):
        for name, ansatz in (("one_qubit", ANSATZ_1Q), ("two_qubit", ANSATZ_2Q)):
            h, _ = builtin_problem(name)
            for _, string in h.non_identity_terms():
                pi = oracle_expectation(ansatz, string)
                for lam in (0.0, 0.003, 0.045, 0.1):
                    for layers in range(9):
                        p_even, p_odd = parity_distribution(
                            _spec(ansatz, string.word, layers, lam)
                        )
                        assert p_even == pytest.approx(
                            closed_form_parity(pi, lam, layers, 0), abs=1e-10
                        )
                        assert p_odd == pytest.approx(
                            closed_form_parity(pi, lam, layers, 1), abs=1e-10
                        )

    def test_distribution_normalizes(self):
        p_even, p_odd = parity_distribution(_spec(ANSATZ_2Q, "IZ", 3, 0.05))
        assert 0.0 <= p_even <= 1.0
        assert p_even + p_odd == pytest.approx(1.0, abs=1e-15)

    def test_frozen_example_two_layers(self):
        # L=2, lam=0.045, XX target: decay e^{-0.1125}, T_5(-0.22378...).
        p_even, p_odd = parity_distribution(_spec(ANSATZ_2Q, "XX", 2, 0.045))
        assert p_even == pytest.approx(0.09617, abs=1e-3)
        assert p_odd == pytest.approx(0.90383, abs=1e-3)

    def test_explicit_measurement_route_agrees(self):
        # Basis rotation + bitstring parity fold is an independent readout path.
        for word, ansatz in (
            ("Z", ANSATZ_1Q),
            ("X", ANSATZ_1Q),
            ("XX", ANSATZ_2Q),
            ("YY", ANSATZ_2Q),
            ("IZ", ANSATZ_2Q),
            ("ZI", ANSATZ_2Q),
            ("ZZ", ANSATZ_2Q),
        ):
            spec = _spec(ansatz, word, 2, 0.07)
            dm = evolve(spec)
            trace_route = parity_distribution(spec)
            explicit_route = measured_parity_distribution(dm, spec.target)
            assert trace_route[0] == pytest.approx(explicit_route[0], abs=1e-12)

    def test_context_rotation_diagonalizes(self):
        for word in ("X", "Y", "Z", "XY", "YX", "ZZ"):
            p = PauliString(word)
            v = context_rotation(p)
            rotated = v @ p.dense() @ v.conj().T
            assert np.allclose(rotated, np.diag(np.diag(rotated)), atol=1e-12)
            assert np.allclose(np.abs(np.diag(rotated)), 1.0, atol=1e-12)


class TestSpecValidation:
    def test_identity_target_rejected(self):
        with pytest.raises(ValueError):
            _spec(ANSATZ_2Q, "II", 1, 0.1)

    def test_register_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _spec(ANSATZ_1Q, "XX", 1, 0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            _spec(ANSATZ_1Q, "Z", -1, 0.1)
        with pytest.raises(ValueError):
            _spec(ANSATZ_1Q, "Z", 1, -0.1)


class TestSampling:
    def test_same_seed_same_counts(self):
        spec = _spec(ANSATZ_2Q, "XX", 3, 0.05)
        a = _draw(spec, 4096, 123)
        b = _draw(spec, 4096, 123)
        assert a == b

    def test_different_seeds_decorrelate(self):
        spec = _spec(ANSATZ_2Q, "XX", 3, 0.05)
        draws = {_draw(spec, 4096, s) for s in range(8)}
        assert len(draws) > 1

    def test_closed_form_counts_equal_density_matrix_counts(self):
        # a count drawn at the Chebyshev closed form equals the count the
        # same seed draws at the density-matrix probability
        n_shots = 8192
        seed = 0
        for name in ("one_qubit", "two_qubit"):
            h, ansatz = builtin_problem(name)
            for _, string in h.non_identity_terms():
                for layers in range(9):
                    for lam in (0.0, 0.045, 0.18):
                        spec = RAECircuitSpec(ansatz=ansatz, target=string,
                                              layers=layers, lam=lam)
                        p_even, _ = parity_distribution(spec)
                        expected = np.random.default_rng(seed).binomial(
                            n_shots, p_even)
                        assert _draw(spec, n_shots, seed) == expected
                        seed += 1

    def test_counts_concentrate_at_the_probability(self):
        # theta = 0 puts <X> at 0, so the parity coin is fair.
        spec = _spec(AnsatzSpec("one_qubit_ry", 0.0), "X", 0, 0.0)
        n = 10**6
        mean = np.mean([_draw(spec, n, s) / n for s in range(20)])
        assert mean == pytest.approx(0.5, abs=0.002)


# Every (ansatz, term) pair the curve sweep can invert, the depths and rates
# of the per-point comparison, and a sweep that reaches pi = 0 and pi = 1.
CURVE_PAIRS = [("one_qubit_ry", "Z"), ("one_qubit_ry", "X"),
               ("two_qubit_ucc", "IZ"), ("two_qubit_ucc", "ZI"),
               ("two_qubit_ucc", "XX"), ("two_qubit_ucc", "YY")]
DEPTHS = (0, 1, 7, 20)
RATES = (0.0, 0.045, 0.7)
SWEEP = np.linspace(0.0, 1.0, 200)


class TestSampleParities:
    """The one seed-to-counts path: entry ``k`` is drawn from the ``k``-th
    spawned child of the seed, so it depends only on ``(seed, k)``."""

    @pytest.mark.parametrize("p_even,n_shots,kind", [
        (np.linspace(0.0, 1.0, 7), 100, int),
        (np.broadcast_to([0.1, 0.5, 0.93], (6, 3)), np.array([64, 128, 8192]),
         np.ndarray),
    ], ids=["scalar", "row"])
    def test_entry_k_depends_only_on_seed_and_k(self, p_even, n_shots, kind):
        seed = 31
        counts = sample_parities(p_even, n_shots, seed)
        children = np.random.SeedSequence(seed).spawn(len(p_even))
        assert len(counts) == len(p_even)
        for k, count in enumerate(counts):
            assert type(count) is kind
            assert np.array_equal(
                count, np.random.default_rng(children[k]).binomial(n_shots, p_even[k]))
        for k in range(len(p_even)):
            prefix = sample_parities(p_even[:k], n_shots, seed)
            assert len(prefix) == k
            assert all(map(np.array_equal, prefix, counts))
        same = sample_parities(p_even, n_shots, np.random.SeedSequence(seed))
        assert all(map(np.array_equal, same, counts))

    @pytest.mark.parametrize("n_shots", [0, -5, np.array([64, 0, 64])])
    def test_non_positive_shots_rejected(self, n_shots):
        for p_even in (np.full(3, 0.5), np.full((2, 3), 0.5)):
            with pytest.raises(ValueError, match="n_shots must be positive"):
                sample_parities(p_even, n_shots, 0)


def _spawned_words(base, n):
    """NumPy's own path: the PCG64 seed words of ``base.spawn(n)``."""
    return np.array([child.generate_state(4, np.uint64) for child in base.spawn(n)])


class TestChildSeedWords:
    """The one-pass child seeds equal the seeds of ``SeedSequence.spawn``'s
    children, bit for bit."""

    @pytest.mark.parametrize("pool_size", [4, 8])
    @pytest.mark.parametrize("spawn_key", [(), (3,), (1, 2, 0), (2**33,)])
    @pytest.mark.parametrize("entropy", [
        0, 31, 2**40 + 7, 2**130 + 5, [1, 2, 3, 4, 5, 6], None,
        np.array([7, 2**32 - 1, 0, 5, 9], np.uint32),
        np.array([3, 2**40, 2**64 - 1], np.uint64), 2**32 - 1, 2**32,
    ], ids=["0", "31", "2^40+7", "2^130+5", "list", "None", "uint32-array",
            "uint64-array", "2^32-1", "2^32"])
    def test_equal_spawned_children(self, entropy, spawn_key, pool_size):
        for n in (1, 2, 300):
            base = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                          pool_size=pool_size)
            words = _child_seed_words(base, n)
            assert words.dtype == np.uint64 and words.shape == (n, 4)
            assert np.array_equal(words, _spawned_words(base, n))

    @pytest.mark.parametrize("entropy,spawn_key,pool_size", [
        (31, (), 4), (2**130 + 5, (1, 2, 0), 8)])
    def test_large_call(self, entropy, spawn_key, pool_size):
        base = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                      pool_size=pool_size)
        assert np.array_equal(_child_seed_words(base, 10_000),
                              _spawned_words(base, 10_000))

    def test_numbered_from_children_already_spawned(self):
        base = np.random.SeedSequence(31, spawn_key=(3,))
        base.spawn(5)
        words = _child_seed_words(base, 7)
        assert base.n_children_spawned == 5
        assert np.array_equal(words, _spawned_words(base, 7))
        fresh = np.random.SeedSequence(31, spawn_key=(3,), n_children_spawned=5)
        assert np.array_equal(_child_seed_words(fresh, 7), words)

    def test_sampler_reads_but_does_not_advance_the_counter(self):
        base = np.random.SeedSequence(8, spawn_key=(2,))
        base.spawn(3)
        p_even = np.linspace(0.1, 0.9, 4)
        counts = sample_parities(p_even, 100, base)
        assert base.n_children_spawned == 3
        assert sample_parities(p_even, 100, base) == counts
        assert counts == [np.random.default_rng(child).binomial(100, p)
                          for child, p in zip(base.spawn(4), p_even)]

    def test_child_index_must_fit_one_word(self):
        # the last one-word child is built directly: NumPy 2.4's own
        # ``spawn`` from this counter does not return
        base = np.random.SeedSequence(7, n_children_spawned=2**32 - 1)
        last = np.random.SeedSequence(7, spawn_key=(2**32 - 1,))
        assert np.array_equal(_child_seed_words(base, 1)[0],
                              last.generate_state(4, np.uint64))
        assert _child_seed_words(base, 0).shape == (0, 4)
        for call in (lambda: _child_seed_words(base, 2),
                     lambda: sample_parities(np.full(2, 0.5), 10, base)):
            with pytest.raises(ValueError, match="below 2\\*\\*32"):
                call()

    def test_child_seed_serves_only_pcg64(self):
        seed = _child_seed_type()(_child_seed_words(np.random.SeedSequence(1), 1)[0])
        assert seed.generate_state(4, np.uint64).shape == (4,)
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(ValueError, match="PCG64"):
                seed.generate_state(n_words, dtype)


def test_import_leaves_numpy_random_unloaded():
    """``numpy.random`` is loaded on the first draw, not by importing any
    ``rae`` module: it would add to every command's start-up time."""
    src = os.path.dirname(os.path.dirname(rae.__file__))
    code = (
        "import importlib, pkgutil, sys, rae\n"
        "names = [m.name for m in pkgutil.iter_modules(rae.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('rae.' + name)\n"
        "print(len(names), 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout.split()
    assert int(out[0]) >= 9
    assert out[1:] == ["True", "False"]


@pytest.fixture
def sampled_probabilities(monkeypatch):
    """The probability arrays the package hands to ``sample_parities``."""
    seen = []

    def spy(p_even, n_shots, seed):
        seen.append(np.array(p_even, dtype=float))
        return sample_parities(p_even, n_shots, seed)

    monkeypatch.setattr(noisefit, "sample_parities", spy)
    monkeypatch.setattr(energy, "sample_parities", spy)
    return seen


class TestBatchedEqualsPerPoint:
    """A curve or dataset sampled in one call equals the circuits sampled
    one at a time: the same probabilities bit for bit, hence the same counts."""

    @pytest.mark.parametrize("kind,word", CURVE_PAIRS)
    def test_curves(self, sampled_probabilities, kind, word):
        """Every curve of one multi-depth call equals its depth sampled
        alone with its own seed, in any depth order and with a depth
        repeated."""
        target = PauliString(word)
        seed = 401
        for depths in (DEPTHS, DEPTHS[::-1], (DEPTHS[2], DEPTHS[0], DEPTHS[2])):
            for lam in RATES:
                seeds = range(seed, seed + len(depths))
                curves = noisefit.simulate_curves(kind, target, depths, lam, 8192,
                                                  seeds, pi_values=SWEEP)
                assert [c.layers for c in curves] == list(depths)
                assert len(sampled_probabilities) == len(depths)
                for curve, layers, s, p_even in zip(curves, depths, seeds,
                                                    sampled_probabilities):
                    reference = per_point_curve(kind, target, layers, lam, 8192,
                                                s, SWEEP)
                    assert jsonio.dumps(curve.to_dict()) == \
                        jsonio.dumps(reference.to_dict())
                    expected = [circuit_p_even(spec) for spec in
                                curve_specs(kind, target, layers, lam, SWEEP)]
                    assert p_even.tobytes() == np.array(expected).tobytes()
                sampled_probabilities.clear()
                seed += len(depths)

    @pytest.mark.parametrize("name", ["one_qubit", "two_qubit"])
    def test_datasets(self, sampled_probabilities, name):
        h, builtin = builtin_problem(name)
        schedule = LayerSchedule(DEPTHS, 8192)
        seed = 401
        for theta in (builtin.theta, *np.linspace(-7.0, 7.0, 15)):
            ansatz = AnsatzSpec(builtin.kind, float(theta))
            for _, target in h.non_identity_terms():
                for lam in RATES:
                    dataset = energy.simulate_dataset(ansatz, target, lam,
                                                      schedule, seed=seed)
                    reference = per_point_dataset(ansatz, target, lam,
                                                  schedule, seed)
                    assert dataset == reference
                    expected = [circuit_p_even(_spec(ansatz, target.word, layers, lam))
                                for layers in DEPTHS]
                    assert sampled_probabilities.pop().tobytes() == \
                        np.array(expected).tobytes()
                    seed += 1

    def test_checks_run_once_per_curve_and_dataset(self):
        with pytest.raises(ValueError, match="n_shots must be positive"):
            noisefit.simulate_curves("one_qubit_ry", PauliString("Z"), (1,), 0.1,
                                     0, (0,))
        with pytest.raises(ValueError, match="ansatz prepares 1"):
            energy.simulate_dataset(ANSATZ_1Q, PauliString("XX"), 0.1,
                                    LayerSchedule((0, 1), 64))
        with pytest.raises(ValueError, match="non-identity"):
            energy.simulate_dataset(ANSATZ_2Q, PauliString("II"), 0.1,
                                    LayerSchedule((0, 1), 64))
        with pytest.raises(ValueError, match="layer count"):
            noisefit.simulate_curves("one_qubit_ry", PauliString("Z"), (-1,), 0.1,
                                     64, (0,))
        for lam in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="depolarizing rate"):
                energy.simulate_dataset(ANSATZ_1Q, PauliString("Z"), lam,
                                        LayerSchedule((0, 1), 64))
