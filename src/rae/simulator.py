"""Parity counts of amplitude-boosted measurement circuits.

The circuit family is: prepare the ansatz state, then apply L Grover-style
layers U = R_A P, where P is the target Pauli and R_A reflects about the
ansatz state.  A global depolarizing channel acts once after state
preparation (fidelity e^{-lam/2}) and once per layer (fidelity e^{-lam}),
so the signal contrast decays as e^{-lam (L + 1/2)}.

Under this noise model the even-parity probability of every circuit is the
closed form ``inference.chebyshev_parity_probability`` at the ansatz's exact
expectation value.  Callers evaluate it once for a whole curve or dataset,
check the circuit with ``check_circuit``, and draw every count with
``sample_parities``: shot noise enters only there.  The density-matrix
evolution that this closed form summarizes is kept in the tests as the
reference it is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import AnsatzSpec, PauliString


def check_circuit(ansatz: AnsatzSpec, target: PauliString, layers: int,
                  lam: float) -> None:
    """Reject a circuit the sampler cannot describe: a target on another
    register, the identity, a negative depth or a bad depolarizing rate."""
    if target.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"target {target.word!r} acts on {target.n_qubits} qubits, "
            f"ansatz prepares {ansatz.n_qubits}"
        )
    if target.is_identity:
        raise ValueError("target Pauli must be non-identity")
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("depolarizing rate must be finite and non-negative")


def sample_parities(p_even, n_shots: int, seeds) -> list[int]:
    """Even-parity counts among ``n_shots`` measurements, one per
    (probability, seed) pair in order.

    Each count comes from its own generator, ``default_rng(seed)``, so a
    point's draw does not depend on how many points are sampled with it.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    return [int(np.random.default_rng(seed).binomial(n_shots, p))
            for p, seed in zip(p_even, seeds)]
