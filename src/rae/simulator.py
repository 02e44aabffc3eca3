"""Parity counts of amplitude-boosted measurement circuits.

The circuit family is: prepare the ansatz state, then apply L Grover-style
layers U = R_A P, where P is the target Pauli and R_A reflects about the
ansatz state.  A global depolarizing channel acts once after state
preparation (fidelity e^{-lam/2}) and once per layer (fidelity e^{-lam}),
so the signal contrast decays as e^{-lam (L + 1/2)}.

Under this noise model the even-parity probability of every circuit is the
closed form ``inference.chebyshev_parity_probability`` at the ansatz's exact
expectation value, so counts are drawn from it directly; shot noise enters
only through ``sample_parities``.  The density-matrix evolution that this
closed form summarizes is kept in the tests as the reference it is checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import chebyshev_parity_probability
from .pauli import AnsatzSpec, PauliString, oracle_expectation


@dataclass(frozen=True)
class RAECircuitSpec:
    """Ansatz, target Pauli, layer count, and depolarizing rate for one circuit."""

    ansatz: AnsatzSpec
    target: PauliString
    layers: int
    lam: float

    def __post_init__(self) -> None:
        if self.target.n_qubits != self.ansatz.n_qubits:
            raise ValueError(
                f"target {self.target.word!r} acts on {self.target.n_qubits} qubits, "
                f"ansatz prepares {self.ansatz.n_qubits}"
            )
        if self.target.is_identity:
            raise ValueError("target Pauli must be non-identity")
        if self.layers < 0:
            raise ValueError("layer count must be non-negative")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("depolarizing rate must be finite and non-negative")


def sample_parities(spec: RAECircuitSpec, n_shots: int, seed) -> int:
    """Number of even-parity outcomes among ``n_shots`` measurements."""
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    p_even = chebyshev_parity_probability(
        oracle_expectation(spec.ansatz, spec.target), spec.lam, spec.layers, 0)
    rng = np.random.default_rng(seed)
    return int(rng.binomial(n_shots, p_even))
