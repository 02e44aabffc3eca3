"""Pauli algebra, ansatz states, and the built-in Hamiltonians."""

import json
import math

import numpy as np
import pytest

from oracles import (
    analytic_expectation,
    exact_ground_energy,
    hamiltonian_dense,
    support,
)
from rae.pauli import (
    AnsatzSpec,
    PauliString,
    PauliSum,
    angle_for_expectation,
    ansatz_state,
    builtin_problem,
    h2_one_qubit,
    h2_two_qubit,
    hamiltonian_from_dict,
    hamiltonian_to_dict,
    load_hamiltonian,
    oracle_expectation,
)

THETA_1Q = -6.5095
THETA_2Q = -6.0575

# Frozen from the 2x2 / 4x4 eigenproblems: a - sqrt(b^2 + c^2) for the
# one-qubit case, lowest eigenvalue of the odd-parity block for two qubits.
GROUND_1Q = -1.1375202530
GROUND_2Q = -1.1458687394


def coefficients(h):
    return {string.word: coeff for coeff, string in h.terms}


class TestPauliString:
    def test_letters_are_validated(self):
        with pytest.raises(ValueError):
            PauliString("XQ")
        with pytest.raises(ValueError):
            PauliString("")

    def test_qubit_zero_is_rightmost(self):
        assert support(PauliString("XZ")) == (0, 1)
        assert support(PauliString("XI")) == (1,)
        assert support(PauliString("IZ")) == (0,)

    def test_identity_detection(self):
        assert PauliString("II").is_identity
        assert not PauliString("IZ").is_identity

    def test_dense_single_qubit(self):
        z = PauliString("Z").dense()
        assert np.allclose(z, np.diag([1.0, -1.0]))

    def test_dense_orders_kron_by_qubit(self):
        # IZ = Z on qubit 0: diagonal alternates with the least significant bit.
        assert np.allclose(PauliString("IZ").dense(), np.diag([1, -1, 1, -1]))
        assert np.allclose(PauliString("ZI").dense(), np.diag([1, 1, -1, -1]))

    def test_dense_is_hermitian_and_involutory(self):
        rng = np.random.default_rng(11)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            word = "".join(rng.choice(letters, size=rng.integers(1, 5)))
            m = PauliString(word).dense()
            assert np.allclose(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(m.shape[0]))

    def test_dense_is_built_once_per_word_and_read_only(self):
        m = PauliString("XY").dense()
        assert PauliString("XY").dense() is m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        assert np.array_equal(m, np.kron([[0, 1], [1, 0]], [[0, -1j], [1j, 0]]))

    def test_dense_qubit_limit(self):
        with pytest.raises(ValueError):
            PauliString("IIIII").dense()


class TestPauliSum:
    def test_rejects_mixed_register_sizes(self):
        with pytest.raises(ValueError):
            PauliSum(
                terms=((1.0, PauliString("Z")), (1.0, PauliString("ZZ"))),
                n_qubits=1,
            )

    def test_rejects_duplicate_terms(self):
        with pytest.raises(ValueError):
            PauliSum.from_pairs([(1.0, "Z"), (2.0, "Z")])

    def test_identity_coefficient(self):
        h = h2_one_qubit()
        assert h.identity_coefficient == -0.329
        assert len(h.non_identity_terms()) == 2

    def test_dense_linearity(self):
        h = PauliSum.from_pairs([(0.5, "Z"), (2.0, "X")])
        expected = 0.5 * np.diag([1.0, -1.0]) + 2.0 * np.array([[0, 1], [1, 0]])
        assert np.allclose(hamiltonian_dense(h), expected)

    def test_scalar_identity_dense(self):
        h = PauliSum.from_pairs([(-0.329, "I")])
        assert np.allclose(hamiltonian_dense(h), -0.329 * np.eye(2))


class TestBuiltinHamiltonians:
    def test_one_qubit_coefficients(self):
        h = h2_one_qubit()
        assert h.n_qubits == 1
        assert coefficients(h) == {"I": -0.329, "X": 0.181, "Z": -0.788}

    def test_two_qubit_coefficients(self):
        h = h2_two_qubit()
        assert h.n_qubits == 2
        assert coefficients(h) == {"II": 0.2388, "IZ": 0.3466, "ZI": -0.4439,
                                   "ZZ": 0.5736, "XX": 0.09075, "YY": 0.09075}

    def test_ground_energies_match_eigensolver(self):
        assert exact_ground_energy(h2_one_qubit()) == pytest.approx(GROUND_1Q, abs=1e-6)
        assert exact_ground_energy(h2_two_qubit()) == pytest.approx(GROUND_2Q, abs=1e-6)

    def test_one_qubit_ground_closed_form(self):
        # 2x2 problem: E0 = a - sqrt(b^2 + c^2).
        h = h2_one_qubit()
        a, b, c = (coefficients(h)[w] for w in ("I", "X", "Z"))
        assert exact_ground_energy(h) == pytest.approx(a - math.hypot(b, c), abs=1e-12)

    def test_identity_shift_moves_spectrum(self):
        h = h2_one_qubit()
        shifted = PauliSum.from_pairs(
            [(h.identity_coefficient + 0.25, "I"), (0.181, "X"), (-0.788, "Z")]
        )
        assert exact_ground_energy(shifted) == pytest.approx(
            exact_ground_energy(h) + 0.25, abs=1e-12
        )

    def test_builtin_problem_lookup(self):
        h, ansatz = builtin_problem("two_qubit")
        assert ansatz.kind == "two_qubit_ucc"
        assert ansatz.theta == THETA_2Q
        _, custom = builtin_problem("one_qubit", theta=0.5)
        assert custom.theta == 0.5
        with pytest.raises(ValueError):
            builtin_problem("three_qubit")


class TestAnsatzStates:
    def test_one_qubit_state_is_ry_rotation(self):
        psi = ansatz_state(AnsatzSpec("one_qubit_ry", 0.3))
        assert psi[0] == pytest.approx(math.cos(0.15))
        assert psi[1] == pytest.approx(math.sin(0.15))

    def test_two_qubit_state_lives_in_odd_parity_block(self):
        psi = ansatz_state(AnsatzSpec("two_qubit_ucc", THETA_2Q))
        assert psi[0b00] == 0
        assert psi[0b11] == 0
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)

    def test_two_qubit_state_matches_generator_exponential(self):
        # exp(-i theta/2 G) with G = X_1 Y_0 equals cos I - i sin G since G^2 = 1.
        theta = 1.234
        g = PauliString("XY").dense()
        start = np.zeros(4, dtype=complex)
        start[0b01] = 1.0
        expected = (
            math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * g
        ) @ start
        psi = ansatz_state(AnsatzSpec("two_qubit_ucc", theta))
        assert np.allclose(psi, expected, atol=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AnsatzSpec("hardware_efficient", 0.1)


class TestExpectations:
    def test_one_qubit_reference_values(self):
        ansatz = AnsatzSpec("one_qubit_ry", THETA_1Q)
        assert analytic_expectation(ansatz, PauliString("Z")) == pytest.approx(0.9745, abs=1e-4)
        assert analytic_expectation(ansatz, PauliString("X")) == pytest.approx(-0.2243, abs=1e-4)

    def test_two_qubit_reference_values(self):
        ansatz = AnsatzSpec("two_qubit_ucc", THETA_2Q)
        assert analytic_expectation(ansatz, PauliString("IZ")) == pytest.approx(-0.9746, abs=1e-4)
        assert analytic_expectation(ansatz, PauliString("ZI")) == pytest.approx(0.9746, abs=1e-4)
        assert analytic_expectation(ansatz, PauliString("XX")) == pytest.approx(-0.2238, abs=1e-4)
        assert analytic_expectation(ansatz, PauliString("YY")) == pytest.approx(-0.2238, abs=1e-4)

    def test_analytic_agrees_with_oracle_where_tabulated(self):
        for name in ("one_qubit", "two_qubit"):
            h, ansatz = builtin_problem(name)
            for _, string in h.terms:
                if ansatz.kind == "two_qubit_ucc" and string.word == "ZZ":
                    continue  # no closed form on purpose, see below
                assert analytic_expectation(ansatz, string) == pytest.approx(
                    oracle_expectation(ansatz, string), abs=1e-12
                )

    def test_two_qubit_zz_routes_to_oracle(self):
        # The ZZ pair is deliberately absent from the closed-form table; the
        # exact value for any angle is -1 (the state never leaves the
        # odd-parity block).
        ansatz = AnsatzSpec("two_qubit_ucc", THETA_2Q)
        with pytest.raises(KeyError):
            analytic_expectation(ansatz, PauliString("ZZ"))
        assert oracle_expectation(ansatz, PauliString("ZZ")) == pytest.approx(-1.0, abs=1e-12)

    def test_ansatz_energy_sits_near_the_ground_state(self):
        for name, ground in (("one_qubit", GROUND_1Q), ("two_qubit", GROUND_2Q)):
            h, ansatz = builtin_problem(name)
            energy = sum(c * oracle_expectation(ansatz, s) for c, s in h.terms)
            assert energy >= exact_ground_energy(h) - 1e-12
            assert energy == pytest.approx(ground, abs=5e-5)

    def test_register_size_mismatch(self):
        with pytest.raises(ValueError):
            oracle_expectation(AnsatzSpec("one_qubit_ry", 0.1), PauliString("ZZ"))

    def test_angle_inversion_round_trip(self):
        for kind, word in (
            ("one_qubit_ry", "Z"),
            ("one_qubit_ry", "X"),
            ("two_qubit_ucc", "IZ"),
            ("two_qubit_ucc", "ZI"),
            ("two_qubit_ucc", "XX"),
            ("two_qubit_ucc", "YY"),
        ):
            for value in (-0.9, -0.2238, 0.0, 0.5, 0.9745):
                theta = angle_for_expectation(kind, PauliString(word), value)
                got = oracle_expectation(AnsatzSpec(kind, theta), PauliString(word))
                assert got == pytest.approx(value, abs=1e-12)

    def test_angle_inversion_rejects_constant_pairs(self):
        with pytest.raises(ValueError, match="no invertible closed form"):
            angle_for_expectation("two_qubit_ucc", PauliString("ZZ"), 0.5)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        h, ansatz = builtin_problem("two_qubit")
        doc = hamiltonian_to_dict(h, ansatz)
        h2, ansatz2 = hamiltonian_from_dict(doc)
        assert h2 == h
        assert ansatz2 == ansatz

    def test_round_trip_without_ansatz(self):
        h = h2_one_qubit()
        h2, ansatz2 = hamiltonian_from_dict(hamiltonian_to_dict(h))
        assert h2 == h
        assert ansatz2 is None

    def test_version_is_checked(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({**hamiltonian_to_dict(h2_one_qubit()),
                                    "version": 99}))
        with pytest.raises(ValueError,
                           match="unsupported hamiltonian format version 99"):
            load_hamiltonian(str(path))
