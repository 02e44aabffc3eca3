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
``sample_parities``: shot noise enters only there.  It is also where the
bootstrap redraws its counts, so every seed in the package becomes counts
in that one function.  The density-matrix evolution that this closed form
summarizes is kept in the tests as the reference it is checked against.
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


def sample_parities(p_even, n_shots, seed) -> list:
    """Even-parity counts among ``n_shots`` measurements, one per entry
    along the first axis of ``p_even``; the package's only source of
    randomness.

    ``seed`` (an int or a ``SeedSequence``) spawns one child per entry, and
    entry ``k`` is ``default_rng(child_k).binomial(n_shots, p_even[k])``:
    an int for a scalar entry, an array for a row.  Entry ``k`` therefore
    depends only on ``(seed, k)``, and a longer draw extends a shorter one.
    """
    if np.any(np.asarray(n_shots) <= 0):
        raise ValueError("n_shots must be positive")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child).binomial(n_shots, p)
            for child, p in zip(base.spawn(len(p_even)), p_even)]
