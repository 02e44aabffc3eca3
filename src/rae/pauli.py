"""Pauli strings, Pauli-sum observables, and the built-in test Hamiltonians.

Qubits are numbered from right to left: the last character of a Pauli word
acts on qubit 0.  Dense matrices are therefore Kronecker products taken in
word order, with qubit 0 as the least significant basis bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio

# Dense matrices stay practical only for a handful of qubits.
MAX_DENSE_QUBITS = 4

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_ANSATZ_QUBITS = {"one_qubit_ry": 1, "two_qubit_ucc": 2}


# Unbounded, but MAX_DENSE_QUBITS caps it at 340 words of at most 4 KB.
@functools.cache
def _dense(word: str) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for letter in word:
        out = np.kron(out, _PAULI_1Q[letter])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. ``"IZ"`` (Z on qubit 0)."""

    word: str

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("Pauli word must be non-empty")
        bad = set(self.word) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)!r} in {self.word!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return set(self.word) == {"I"}

    def dense(self) -> np.ndarray:
        """2^n x 2^n matrix of the string, qubit 0 least significant;
        read-only, built once per word."""
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise ValueError(
                f"dense matrix limited to {MAX_DENSE_QUBITS} qubits, got {self.n_qubits}"
            )
        return _dense(self.word)


@dataclass(frozen=True)
class PauliSum:
    """Real linear combination of Pauli strings on a fixed register."""

    terms: tuple[tuple[float, PauliString], ...]
    n_qubits: int

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("PauliSum needs at least one term")
        seen: set[str] = set()
        for coeff, string in self.terms:
            if string.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {string.word!r} acts on {string.n_qubits} qubits, "
                    f"register has {self.n_qubits}"
                )
            if string.word in seen:
                raise ValueError(f"duplicate term {string.word!r}")
            seen.add(string.word)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient for {string.word!r}")

    @classmethod
    def from_pairs(cls, pairs: list[tuple[float, str]]) -> "PauliSum":
        terms = tuple((float(c), PauliString(w)) for c, w in pairs)
        return cls(terms=terms, n_qubits=terms[0][1].n_qubits)

    @property
    def identity_coefficient(self) -> float:
        for coeff, string in self.terms:
            if string.is_identity:
                return coeff
        return 0.0

    def non_identity_terms(self) -> list[tuple[float, PauliString]]:
        return [(c, s) for c, s in self.terms if not s.is_identity]


@dataclass(frozen=True)
class AnsatzSpec:
    """State-preparation family: a named circuit plus its single angle."""

    kind: str
    theta: float

    def __post_init__(self) -> None:
        if self.kind not in _ANSATZ_QUBITS:
            raise ValueError(
                f"unknown ansatz kind {self.kind!r}, expected one of "
                f"{sorted(_ANSATZ_QUBITS)}"
            )
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @property
    def n_qubits(self) -> int:
        return _ANSATZ_QUBITS[self.kind]


def ansatz_state(ansatz: AnsatzSpec) -> np.ndarray:
    """Statevector prepared by the ansatz circuit.

    ``one_qubit_ry`` is RY(theta) on |0>.  ``two_qubit_ucc`` is
    exp(-i theta/2 X_1 Y_0) applied to |01>, which reduces to
    cos(theta/2)|01> - sin(theta/2)|10> because the generator squares
    to the identity.
    """
    half = ansatz.theta / 2.0
    if ansatz.kind == "one_qubit_ry":
        return np.array([math.cos(half), math.sin(half)], dtype=complex)
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = math.cos(half)
    psi[0b10] = -math.sin(half)
    return psi


def oracle_expectation(ansatz: AnsatzSpec, string: PauliString) -> float:
    """<A| P |A> from the dense statevector; authoritative for every pair."""
    if string.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"{string.word!r} acts on {string.n_qubits} qubits, "
            f"ansatz {ansatz.kind!r} prepares {ansatz.n_qubits}"
        )
    return float(expectation_values(ansatz_state(ansatz), string))


def expectation_values(states: np.ndarray, string: PauliString) -> np.ndarray:
    """<psi| P |psi> for every statevector along the last axis of ``states``.

    Each value is a (1, d) @ (d, 1) product, which sums like ``np.vdot`` on
    one vector, so a whole sweep of states costs one dense matrix and every
    state gets the value it would get on its own.
    """
    bras = states.conj()[..., None, :]
    kets = (states @ string.dense().T)[..., :, None]
    return (bras @ kets)[..., 0, 0].real


def angle_for_expectation(kind: str, string: PauliString, value: float) -> float:
    """Angle theta such that the ansatz hits a prescribed expectation value.

    Inverts the ansatz's closed-form expectation for the pairs where it is
    invertible; used to sweep a term's expectation over a grid when
    generating likelihood curves.
    """
    if kind not in _ANSATZ_QUBITS:
        raise ValueError(f"unknown ansatz kind {kind!r}")
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"expectation value {value} outside [-1, 1]")
    if kind == "one_qubit_ry":
        inverses = {"Z": lambda v: math.acos(v), "X": lambda v: math.asin(v)}
    else:
        inverses = {
            "IZ": lambda v: math.acos(-v),
            "ZI": lambda v: math.acos(v),
            "XX": lambda v: -math.asin(v),
            "YY": lambda v: -math.asin(v),
        }
    try:
        return inverses[string.word](value)
    except KeyError:
        raise ValueError(
            f"({kind}, {string.word}) has no invertible closed form"
        ) from None


def h2_one_qubit() -> PauliSum:
    """One-qubit hydrogen test Hamiltonian (coefficients in Hartree)."""
    return PauliSum.from_pairs(
        [(-0.329, "I"), (0.181, "X"), (-0.788, "Z")]
    )


def h2_two_qubit() -> PauliSum:
    """Two-qubit hydrogen test Hamiltonian (coefficients in Hartree)."""
    return PauliSum.from_pairs(
        [
            (0.2388, "II"),
            (0.3466, "IZ"),
            (-0.4439, "ZI"),
            (0.5736, "ZZ"),
            (0.09075, "XX"),
            (0.09075, "YY"),
        ]
    )


# Reference angles used throughout the examples; each sits at the variational
# minimum of the corresponding Hamiltonian to within ~1e-3.
THETA_ONE_QUBIT = -6.5095
THETA_TWO_QUBIT = -6.0575

BUILTIN_PROBLEMS = {
    "one_qubit": (h2_one_qubit, "one_qubit_ry", THETA_ONE_QUBIT),
    "two_qubit": (h2_two_qubit, "two_qubit_ucc", THETA_TWO_QUBIT),
}


def builtin_problem(name: str, theta: float | None = None) -> tuple[PauliSum, AnsatzSpec]:
    """Hamiltonian plus matching ansatz for a built-in problem name."""
    try:
        build, kind, default_theta = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown hamiltonian {name!r}, expected one of {sorted(BUILTIN_PROBLEMS)}"
        ) from None
    return build(), AnsatzSpec(kind=kind, theta=default_theta if theta is None else theta)


def hamiltonian_to_dict(h: PauliSum, ansatz: AnsatzSpec | None = None) -> dict:
    doc: dict = {
        "n_qubits": h.n_qubits,
        "terms": [{"coeff": c, "word": s.word} for c, s in h.terms],
        "ansatz": None,
    }
    if ansatz is not None:
        doc["ansatz"] = {"kind": ansatz.kind, "theta": ansatz.theta}
    return doc


def hamiltonian_from_dict(doc: dict) -> tuple[PauliSum, AnsatzSpec | None]:
    terms = tuple(
        (jsonio.real(t["coeff"]), PauliString(str(t["word"]))) for t in doc["terms"]
    )
    h = PauliSum(terms=terms, n_qubits=jsonio.integer(doc["n_qubits"]))
    ansatz = None
    if doc.get("ansatz") is not None:
        ansatz = AnsatzSpec(kind=doc["ansatz"]["kind"],
                            theta=jsonio.real(doc["ansatz"]["theta"]))
    return h, ansatz


def save_hamiltonian(path: str, h: PauliSum, ansatz: AnsatzSpec | None = None) -> None:
    jsonio.save(path, hamiltonian_to_dict(h, ansatz))


def load_hamiltonian(path: str) -> tuple[PauliSum, AnsatzSpec | None]:
    return jsonio.load(path, "hamiltonian", hamiltonian_from_dict)
