"""Exact density-matrix simulation of amplitude-boosted parity measurements.

The circuit family is: prepare the ansatz state, then apply L Grover-style
layers U = R_A P, where P is the target Pauli and R_A reflects about the
ansatz state.  A global depolarizing channel acts once after state
preparation (fidelity e^{-lam/2}) and once per layer (fidelity e^{-lam}),
so the signal contrast decays as e^{-lam (L + 1/2)}.

Everything here is dense linear algebra on <= 4 qubits; probabilities come
from traces, and shot noise enters only through ``sample_parities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import AnsatzSpec, PauliString, ansatz_state


@dataclass
class DensityMatrix:
    """Density operator on an n-qubit register, qubit 0 least significant."""

    data: np.ndarray
    n_qubits: int

    @classmethod
    def from_statevector(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        n = int(round(math.log2(psi.size)))
        if 2 ** n != psi.size:
            raise ValueError(f"statevector length {psi.size} is not a power of two")
        return cls(data=np.outer(psi, psi.conj()), n_qubits=n)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def expectation(self, string: PauliString) -> float:
        """Tr[rho P], guaranteed real for Hermitian rho and Pauli P."""
        if string.n_qubits != self.n_qubits:
            raise ValueError("Pauli string and density matrix register sizes differ")
        return float(np.trace(self.data @ string.dense()).real)


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


def apply_depolarizing(dm: DensityMatrix, fidelity: float) -> DensityMatrix:
    """Global depolarizing channel rho -> p rho + (1 - p) I / 2^n."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [0, 1]")
    mixed = np.eye(dm.dim, dtype=complex) / dm.dim
    return DensityMatrix(data=fidelity * dm.data + (1.0 - fidelity) * mixed,
                         n_qubits=dm.n_qubits)


def prepare_noisy_ansatz(ansatz: AnsatzSpec, lam: float) -> DensityMatrix:
    """Ansatz state after the state-preparation depolarizing step."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("depolarizing rate must be finite and non-negative")
    pure = DensityMatrix.from_statevector(ansatz_state(ansatz))
    return apply_depolarizing(pure, math.exp(-lam / 2.0))


def reflection_about(psi: np.ndarray) -> np.ndarray:
    """R = 2|psi><psi| - I."""
    psi = np.asarray(psi, dtype=complex)
    return 2.0 * np.outer(psi, psi.conj()) - np.eye(psi.size, dtype=complex)


def grover_unitary(spec: RAECircuitSpec) -> np.ndarray:
    """One boost layer U = R_A P."""
    return reflection_about(ansatz_state(spec.ansatz)) @ spec.target.dense()


def evolve(spec: RAECircuitSpec) -> DensityMatrix:
    """State after ansatz preparation and ``spec.layers`` boost layers."""
    dm = prepare_noisy_ansatz(spec.ansatz, spec.lam)
    if spec.layers == 0:
        return dm
    u = grover_unitary(spec)
    udag = u.conj().T
    p = math.exp(-spec.lam)
    mixed = np.eye(dm.dim, dtype=complex) / dm.dim
    data = dm.data
    for _ in range(spec.layers):
        data = p * (u @ data @ udag) + (1.0 - p) * mixed
    return DensityMatrix(data=data, n_qubits=dm.n_qubits)


def parity_distribution(spec: RAECircuitSpec) -> tuple[float, float]:
    """(P(d=0), P(d=1)) for the parity measurement of the target Pauli.

    The even outcome has probability (1 + Tr[rho_L P]) / 2.
    """
    value = evolve(spec).expectation(spec.target)
    p_even = 0.5 * (1.0 + value)
    p_even = min(max(p_even, 0.0), 1.0)
    return p_even, 1.0 - p_even


def sample_parities(spec: RAECircuitSpec, n_shots: int, seed) -> int:
    """Number of even-parity outcomes among ``n_shots`` measurements."""
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    p_even, _ = parity_distribution(spec)
    rng = np.random.default_rng(seed)
    return int(rng.binomial(n_shots, p_even))
