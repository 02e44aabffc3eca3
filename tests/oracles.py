"""Independent reference implementations used to freeze expected values.

The closed-form helpers are written directly from the measurement model,
without importing the package internals under test: parity probabilities
from the Chebyshev closed form, and Fisher information as the covariance of
the numerical score.  The package samples parities from the closed form;
the exact density-matrix simulator here (``evolve``, ``parity_distribution``)
reaches the same probabilities by evolving the noisy circuit, and the
cross-checks reach them by further routes: one explicit layer at a time, and
a readout by basis rotation and bitstring parity instead of a trace.  The
expectation and ground-energy references come from closed forms and dense
diagonalization, and noise-free likelihood curves from the package's own
parity model, so curve fits can be checked for exact recovery.  The
per-point sampler (``per_point_curve``, ``per_point_dataset``) draws one
circuit at a time as the package once did, so its batched curves and
datasets can be checked for the same counts bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from rae.inference import (
    BLOCK,
    P_EPS,
    EstimationResult,
    ParityDataset,
    _rounding_slack,
    chebyshev_parity_probability,
)
from rae.noisefit import LikelihoodCurve
from rae.pauli import (
    AnsatzSpec,
    PauliString,
    PauliSum,
    angle_for_expectation,
    ansatz_state,
)
from rae.simulator import check_circuit

_H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_SDG_GATE = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def closed_form_parity(pi: float, lam: float, layers: int, d: int) -> float:
    """(1 + (-1)^d e^{-lam (L + 1/2)} T_{2L+1}(pi)) / 2."""
    pi = min(max(pi, -1.0), 1.0)
    cheb = math.cos((2 * layers + 1) * math.acos(pi))
    return 0.5 * (1.0 + (-1) ** d * math.exp(-lam * (layers + 0.5)) * cheb)


def analytic_expectation(ansatz: AnsatzSpec, string: PauliString) -> float:
    """Closed-form <A| P |A> for the pairs the built-in Hamiltonians need.

    The two-qubit ZZ term is left out on purpose (its value is -1 for every
    angle); it and every other untabulated pair raise ``KeyError``.
    """
    theta = ansatz.theta
    if ansatz.kind == "one_qubit_ry":
        table = {"I": 1.0, "Z": math.cos(theta), "X": math.sin(theta)}
    else:
        table = {
            "II": 1.0,
            "IZ": -math.cos(theta),
            "ZI": math.cos(theta),
            "XX": -math.sin(theta),
            "YY": -math.sin(theta),
        }
    return table[string.word]


def hamiltonian_dense(h: PauliSum) -> np.ndarray:
    """Dense matrix of the Pauli sum, qubit 0 least significant."""
    dim = 2 ** h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, string in h.terms:
        out += coeff * string.dense()
    return out


def exact_ground_energy(h: PauliSum) -> float:
    """Smallest eigenvalue of the dense Hamiltonian matrix."""
    return float(np.linalg.eigvalsh(hamiltonian_dense(h))[0])


def support(string: PauliString) -> tuple[int, ...]:
    """Qubits on which the string acts non-trivially, ascending; qubit 0 is
    the rightmost letter."""
    n = string.n_qubits
    return tuple(q for q in range(n) if string.word[n - 1 - q] != "I")


def synthetic_curve(layers: int, lam: float, pi_values=None,
                    std_err: float = 1e-6) -> LikelihoodCurve:
    """Noise-free curve evaluated straight from the parity model."""
    if pi_values is None:
        pi_values = np.linspace(0.0, 1.0, 10)
    pis = tuple(float(pi) for pi in pi_values)
    return LikelihoodCurve(
        layers, pis,
        tuple(chebyshev_parity_probability(pi, lam, layers, 0) for pi in pis),
        (std_err,) * len(pis))


def log_likelihood(dataset, pi, lam):
    """Joint log-likelihood of all records, each probability clamped to
    [P_EPS, 1 - P_EPS]; broadcasts like the probability.  A scalar value is
    the exact sum of the per-record terms (``math.fsum``), so it does not
    depend on the record order; arrays are summed in record order."""
    terms = []
    for layers, n_shots, e_even in zip(dataset.layers, dataset.n_shots,
                                       dataset.e_even):
        p_even = np.clip(
            chebyshev_parity_probability(pi, lam, layers, 0),
            P_EPS, 1.0 - P_EPS,
        )
        terms.append((e_even * np.log(p_even),
                      (n_shots - e_even) * np.log1p(-p_even)))
    if np.isscalar(pi) and np.isscalar(lam):
        return math.fsum(float(t) for pair in terms for t in pair)
    total = 0.0
    for even, odd in terms:
        total = total + even + odd
    return total


def dense_tables(grid, layer_values) -> tuple[np.ndarray, np.ndarray]:
    """log p0 and log p1 at every cell of the grid, one (pi, lam) table per
    layer, clamped to [P_EPS, 1 - P_EPS] before the logarithm."""
    pi = grid.pi_values()[:, None]
    lam = grid.lambda_values()[None, :]
    log_p0 = np.empty((len(layer_values), grid.pi_points, grid.lambda_points))
    log_p1 = np.empty_like(log_p0)
    for i, layers in enumerate(layer_values):
        p0 = np.clip(chebyshev_parity_probability(pi, lam, layers, 0),
                     P_EPS, 1.0 - P_EPS)
        log_p0[i] = np.log(p0)
        log_p1[i] = np.log1p(-p0)
    return log_p0, log_p1


def dense_surface(tables, even, shots) -> np.ndarray:
    """The log-likelihood of one count row at every cell of the grid, flat,
    summed elementwise layer by layer in record order against the
    :func:`dense_tables` ``tables``."""
    log_p0, log_p1 = (t.reshape(len(t), -1) for t in tables)
    total = np.zeros(log_p0.shape[1])
    for l in range(len(log_p0)):
        total += even[l] * log_p0[l]
        total += (shots[l] - even[l]) * log_p1[l]
    return total


def exhaustive_scan(grid, tables, even, shots) -> tuple[int, float, bool]:
    """Every cell of the grid by :func:`dense_surface`: (flat index of the
    first maximum, the maximum, whether a cell outside its 3x3
    neighbourhood comes within 1e-9 of it)."""
    total = dense_surface(tables, even, shots)
    best_flat = int(np.argmax(total))
    best = total[best_flat]
    surface = total.reshape(grid.pi_points, grid.lambda_points)
    i, j = divmod(best_flat, grid.lambda_points)
    surface[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2] = -np.inf
    return best_flat, float(best), bool(surface.max() > best - 1e-9)


def exhaustive_estimate(dataset, grid) -> EstimationResult:
    """The grid MLE by :func:`exhaustive_scan`."""
    tables = dense_tables(grid, dataset.layers)
    best_flat, _, degenerate = exhaustive_scan(grid, tables, dataset.e_even,
                                               dataset.n_shots)
    i, j = divmod(best_flat, grid.lambda_points)
    return EstimationResult(pi_hat=float(grid.pi_values()[i]),
                            lambda_hat=float(grid.lambda_values()[j]),
                            degenerate_maximum=degenerate)


def exhaustive_bootstrap(dataset, n_replicates: int, grid, seed) -> tuple[np.ndarray, np.ndarray]:
    """(pi_hats, lambda_hats) of the bootstrap by :func:`exhaustive_scan`:
    replicate k redraws every record binomially at its observed rate from
    the k-th ``SeedSequence`` child of ``seed``."""
    tables = dense_tables(grid, dataset.layers)
    shots = np.array(dataset.n_shots)
    rates = np.array([e / n for e, n in zip(dataset.e_even, dataset.n_shots)])
    flats = [
        exhaustive_scan(grid, tables,
                        np.random.default_rng(child).binomial(shots, rates), shots)[0]
        for child in np.random.SeedSequence(seed).spawn(n_replicates)
    ]
    i, j = np.divmod(flats, grid.lambda_points)
    return grid.pi_values()[i], grid.lambda_values()[j]


def block_maxima(table: np.ndarray, pi_block: int, lam_block: int) -> np.ndarray:
    """Maximum of a (pi, lam) table over every pi_block x lam_block block
    of cells (ragged at the high edges), flattened in block order."""
    n_pi, n_lam = table.shape
    padded = np.full((-(-n_pi // pi_block) * pi_block,
                      -(-n_lam // lam_block) * lam_block), -np.inf)
    padded[:n_pi, :n_lam] = table
    blocks = padded.reshape(padded.shape[0] // pi_block, pi_block, -1, lam_block)
    return blocks.max(axis=(1, 3)).ravel()


def eager_block_level(grid, layer_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every block's bounds in one eager pass, the reference for the
    block bounds a search computes for the blocks it reaches
    (``LikelihoodGrid._block_bounds``): the (blocks, layers) ``p_lo`` and
    ``p_hi`` of ``p0`` over each ``BLOCK`` x ``BLOCK`` block, and the
    (2 layers, blocks) bounds of ``log p0`` then ``log p1``, scaled by
    ``1 - _rounding_slack``."""
    layers = np.array(layer_values, dtype=float)[:, None]
    cheb = np.cos((2 * layers + 1) * np.arccos(grid.pi_values()))
    decay = np.exp(-grid.lambda_values() * (layers + 0.5))

    def block_range(values):
        starts = np.arange(0, values.shape[1], BLOCK)
        return (np.minimum.reduceat(values, starts, axis=1)[:, :, None],
                np.maximum.reduceat(values, starts, axis=1)[:, :, None])

    (c_lo, c_hi), (e_lo, e_hi) = block_range(cheb), block_range(decay)
    e_lo, e_hi = e_lo.transpose(0, 2, 1), e_hi.transpose(0, 2, 1)
    p_lo = np.clip(0.5 * (1.0 + np.minimum(c_lo * e_lo, c_lo * e_hi)),
                   P_EPS, 1.0 - P_EPS).reshape(len(layer_values), -1)
    p_hi = np.clip(0.5 * (1.0 + np.maximum(c_hi * e_lo, c_hi * e_hi)),
                   P_EPS, 1.0 - P_EPS).reshape(len(layer_values), -1)
    bounds = np.concatenate([np.log(p_hi), np.log1p(-p_lo)])
    return p_lo.T, p_hi.T, (1.0 - _rounding_slack(len(layer_values))) * bounds


def numerical_fisher(pi: float, lam: float, layers, n_shots: int,
                     step: float = 1e-6) -> np.ndarray:
    """2x2 Fisher matrix as the covariance of the central-difference score."""
    info = np.zeros((2, 2))
    for L in layers:
        for d in (0, 1):
            p = closed_form_parity(pi, lam, L, d)
            d_pi = (
                math.log(closed_form_parity(pi + step, lam, L, d))
                - math.log(closed_form_parity(pi - step, lam, L, d))
            ) / (2.0 * step)
            d_lam = (
                math.log(closed_form_parity(pi, lam + step, L, d))
                - math.log(closed_form_parity(pi, lam - step, L, d))
            ) / (2.0 * step)
            score = np.array([d_pi, d_lam])
            info += n_shots * p * np.outer(score, score)
    return info


@dataclass(frozen=True)
class RAECircuitSpec:
    """Ansatz, target Pauli, layer count, and depolarizing rate for one
    circuit, checked as the package checks the circuits it samples."""

    ansatz: AnsatzSpec
    target: PauliString
    layers: int
    lam: float

    def __post_init__(self) -> None:
        check_circuit(self.ansatz, self.target, self.layers, self.lam)


def circuit_p_even(spec: RAECircuitSpec) -> float:
    """Even-parity probability of one circuit as the per-point sampler took
    it: ``np.vdot`` of the ansatz state with the target's dense matrix, then
    the scalar closed form."""
    psi = ansatz_state(spec.ansatz)
    pi = float(np.vdot(psi, spec.target.dense() @ psi).real)
    return chebyshev_parity_probability(pi, spec.lam, spec.layers, 0)


def per_point_counts(specs, n_shots: int, seeds) -> list[int]:
    """The sampler one circuit at a time, checks and all: the reference the
    batched curve and dataset samplers must reproduce bit for bit."""
    counts = []
    for spec, seed in zip(specs, seeds):
        if n_shots <= 0:
            raise ValueError("n_shots must be positive")
        rng = np.random.default_rng(seed)
        counts.append(int(rng.binomial(n_shots, circuit_p_even(spec))))
    return counts


def curve_specs(ansatz_kind: str, target: PauliString, layers: int,
                lam: float, pi_values) -> list[RAECircuitSpec]:
    """One circuit per sweep point, at the angle that hits its amplitude."""
    return [
        RAECircuitSpec(AnsatzSpec(ansatz_kind,
                                  angle_for_expectation(ansatz_kind, target, pi)),
                       target, layers, lam)
        for pi in pi_values
    ]


def per_point_curve(ansatz_kind: str, target: PauliString, layers: int,
                    lam: float, n_shots: int, seed: int,
                    pi_values) -> LikelihoodCurve:
    """One depth of ``noisefit.simulate_curves`` with one spec,
    expectation, probability and generator per point."""
    pi_values = tuple(float(pi) for pi in pi_values)
    children = np.random.SeedSequence(seed).spawn(len(pi_values))
    specs = curve_specs(ansatz_kind, target, layers, lam, pi_values)
    rates = tuple(e_even / n_shots
                  for e_even in per_point_counts(specs, n_shots, children))
    std_errs = tuple(max(math.sqrt(rate * (1.0 - rate) / n_shots), 0.5 / n_shots)
                     for rate in rates)
    return LikelihoodCurve(layers, pi_values, rates, std_errs)


def per_point_dataset(ansatz: AnsatzSpec, target: PauliString, lam: float,
                      schedule, seed: int) -> ParityDataset:
    """``energy.simulate_dataset`` with one spec, expectation, probability
    and generator per depth."""
    children = np.random.SeedSequence(seed).spawn(len(schedule.layers))
    specs = [RAECircuitSpec(ansatz, target, layers, lam)
             for layers in schedule.layers]
    counts = per_point_counts(specs, schedule.shots_per_layer, children)
    return ParityDataset(
        target.word, schedule.layers,
        (schedule.shots_per_layer,) * len(schedule.layers), tuple(counts),
        metadata={"ansatz": ansatz.kind, "theta": ansatz.theta, "lam": lam},
    )


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


def validate(dm: DensityMatrix, atol: float = 1e-10) -> None:
    """Check trace one, Hermiticity, and positive semidefiniteness."""
    if abs(np.trace(dm.data).real - 1.0) > atol:
        raise ValueError("trace differs from one")
    if not np.allclose(dm.data, dm.data.conj().T, atol=atol):
        raise ValueError("not Hermitian")
    if np.linalg.eigvalsh(dm.data).min() < -atol:
        raise ValueError("negative eigenvalue")


def apply_grover_layer(dm: DensityMatrix, spec: RAECircuitSpec) -> DensityMatrix:
    """Conjugate by U = R_A P, then depolarize with fidelity e^{-lam}."""
    u = grover_unitary(spec)
    rotated = DensityMatrix(data=u @ dm.data @ u.conj().T, n_qubits=dm.n_qubits)
    return apply_depolarizing(rotated, math.exp(-spec.lam))


def context_rotation(string: PauliString) -> np.ndarray:
    """Unitary V with V P V^dag diagonal: H for X, H S^dag for Y, I otherwise."""
    single = {"I": _EYE2, "Z": _EYE2, "X": _H_GATE, "Y": _H_GATE @ _SDG_GATE}
    out = np.array([[1.0 + 0.0j]])
    for letter in string.word:
        out = np.kron(out, single[letter])
    return out


def measured_parity_distribution(dm: DensityMatrix, string: PauliString) -> tuple[float, float]:
    """Parity distribution via explicit basis rotation and bitstring readout.

    Slower than the trace formula but independent of it; rotates into the
    measurement basis, reads computational-basis probabilities, and folds
    bitstrings by parity over the support of ``string``.
    """
    v = context_rotation(string)
    probs = np.diag(v @ dm.data @ v.conj().T).real
    p_even = 0.0
    for index, prob in enumerate(probs):
        parity = 0
        for qubit in support(string):
            parity ^= (index >> qubit) & 1
        if parity == 0:
            p_even += prob
    return float(p_even), float(1.0 - p_even)
