"""Ground-state energy assembly from per-term amplitude estimates.

Every non-identity Pauli term is measured by its own circuit family, so
term estimates combine as independent random variables: coefficients weigh
the means linearly, the variances quadratically.  The sweep driver runs the
full simulate / estimate / bootstrap pipeline per term and layer budget and
reports energy error against the dense-diagonalization reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fisher import crb_rmse, direct_error_model, direct_mse_model
from .inference import (
    PI_INSET,
    IdentifiabilityError,
    MLEGrid,
    ParityDataset,
    ParityRecord,
    bootstrap,
    chebyshev_parity_probability,
    direct_estimate,
    mle_estimate,
    rmse_stats,
)
from .pauli import AnsatzSpec, PauliString, PauliSum, oracle_expectation
from .schedules import LayerSchedule, query_cost
from .simulator import check_circuit, sample_parities

# 1.6 mHa, the usual chemical-accuracy threshold in Hartree
CHEMICAL_ACCURACY = 1.6e-3


@dataclass(frozen=True)
class EnergyEstimate:
    """Combined energy with first-order error decomposition (Hartree)."""

    energy: float
    variance: float
    bias: float
    rmse: float
    n_queries_per_term: int
    l_max: int

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be non-negative")
        budget = self.bias ** 2 + self.variance
        if abs(self.rmse ** 2 - budget) > 1e-12 * max(1.0, budget):
            raise ValueError("rmse inconsistent with bias and variance")


@dataclass(frozen=True)
class TermEstimate:
    """Per-term inputs to the energy combination."""

    pi_hat: float
    variance: float
    bias: float


def combine_energy(hamiltonian: PauliSum, estimates: dict[str, TermEstimate],
                   n_queries_per_term: int = 0,
                   l_max: int = 0) -> EnergyEstimate:
    """Linear combination of term estimates with independent errors.

    ``estimates`` maps Pauli words to their :class:`TermEstimate`; the
    identity term needs no estimate and contributes its coefficient exactly.
    """
    energy = hamiltonian.identity_coefficient
    variance = 0.0
    bias = 0.0
    missing = []
    for coeff, string in hamiltonian.non_identity_terms():
        term = estimates.get(string.word)
        if term is None:
            missing.append(string.word)
            continue
        energy += coeff * term.pi_hat
        variance += coeff * coeff * term.variance
        bias += coeff * term.bias
    if missing:
        raise ValueError(f"no estimate for terms: {', '.join(missing)}")
    return EnergyEstimate(
        energy=energy,
        variance=variance,
        bias=bias,
        rmse=math.sqrt(bias * bias + variance),
        n_queries_per_term=n_queries_per_term,
        l_max=l_max,
    )


def direct_baseline(hamiltonian: PauliSum, ansatz: AnsatzSpec, lam: float,
                    n_queries: int) -> EnergyEstimate:
    """Analytic unboosted-sampling error model combined over terms: each
    term carries the bias and variance of :func:`fisher.direct_error_model`
    at its oracle expectation."""
    estimates = {}
    for _, string in hamiltonian.non_identity_terms():
        pi = oracle_expectation(ansatz, string)
        bias, variance = direct_error_model(pi, lam, n_queries)
        estimates[string.word] = TermEstimate(
            pi_hat=pi + bias, variance=variance, bias=bias)
    return combine_energy(hamiltonian, estimates,
                          n_queries_per_term=n_queries, l_max=0)


def simulate_dataset(ansatz: AnsatzSpec, target: PauliString, lam: float,
                     schedule: LayerSchedule, seed=0) -> ParityDataset:
    """Sample one parity dataset for a term: the oracle expectation once,
    then one ``simulator.sample_parities`` count per schedule depth."""
    # only the depth check depends on the depth, and the shallowest decides it
    check_circuit(ansatz, target, min(schedule.layers), lam)
    pi = oracle_expectation(ansatz, target)
    p_even = [chebyshev_parity_probability(pi, lam, layers, 0)
              for layers in schedule.layers]
    counts = sample_parities(p_even, schedule.shots_per_layer, seed)
    return ParityDataset(
        pauli=target.word,
        records=tuple(ParityRecord(layers, schedule.shots_per_layer, e_even)
                      for layers, e_even in zip(schedule.layers, counts)),
        metadata={"ansatz": ansatz.kind, "theta": ansatz.theta, "lam": lam},
    )


def estimate_term(dataset: ParityDataset, m_bootstrap: int,
                  grid: MLEGrid | None = None, seed=0):
    """Point estimate plus bootstrap replicates, routed by layer content."""
    if dataset.layer_values() == (0,):
        result = direct_estimate(dataset)
    else:
        result = mle_estimate(dataset, grid)
    replicates = bootstrap(dataset, m_bootstrap, grid=grid, seed=seed)
    return result, replicates


def sweep_cell(ansatz: AnsatzSpec, string: PauliString, lam: float,
               schedule: LayerSchedule, m_bootstrap: int, grid: MLEGrid | None,
               seed: int, position: tuple[int, int]):
    """Simulate and estimate the (budget row, term) cell at ``position``;
    returns the dataset with its point estimate and replicates.

    The data and bootstrap substreams are keyed by (row, term, 0) and
    (row, term, 1) only, so cells can be computed in any order, or
    concurrently, and still reproduce the sequential table.
    """
    i, j = position
    dataset = simulate_dataset(
        ansatz, string, lam, schedule,
        seed=np.random.SeedSequence(seed, spawn_key=(i, j, 0)),
    )
    result, replicates = estimate_term(
        dataset, m_bootstrap, grid=grid,
        seed=np.random.SeedSequence(seed, spawn_key=(i, j, 1)))
    return dataset, result, replicates


def _reference_expectation(dataset: ParityDataset) -> float | None:
    """Oracle value recorded in the metadata, when enough of it is present."""
    meta = dataset.metadata
    if meta.get("ansatz") is None or meta.get("theta") is None:
        return None
    try:
        ansatz = AnsatzSpec(str(meta["ansatz"]), float(meta["theta"]))
        return oracle_expectation(ansatz, PauliString(dataset.pauli))
    except (ValueError, TypeError):
        return None


def term_row(dataset: ParityDataset, result, replicates) -> dict:
    """The per-term report row of ``estimate`` and ``sweep``.

    The bootstrap RMSE is taken about the oracle value of the ansatz the
    dataset's metadata names, else about ``pi_hat``.  The Cramer-Rao bound
    needs one shot count for every record and a jointly identifiable depth
    set; where either is missing ``crb`` is None and ``note`` says why.
    ``mse_direct`` is the depth-0 sampling model at the fitted point with
    the same query budget.
    """
    direct_route = dataset.layer_values() == (0,)
    pi_ref = _reference_expectation(dataset)
    stats = rmse_stats(replicates.pi_hats,
                       result.pi_hat if pi_ref is None else pi_ref)
    n_queries = sum((2 * r.layers + 1) * r.n_shots for r in dataset.records)
    crb = note = None
    shot_counts = {r.n_shots for r in dataset.records}
    if direct_route:
        note = "single-depth data: decay rate pinned at 0, no joint error bound"
    elif len(shot_counts) != 1:
        note = "records carry unequal shot counts, no closed-form bound reported"
    else:
        schedule = LayerSchedule(tuple(sorted(dataset.layer_values())),
                                 shot_counts.pop())
        # the bound needs |Pi| < 1; an edge fit is taken at the grid's inset
        pi_bound = min(max(result.pi_hat, -1.0 + PI_INSET), 1.0 - PI_INSET)
        try:
            crb = crb_rmse(pi_bound, result.lambda_hat, schedule)
        except IdentifiabilityError as exc:
            note = str(exc)
    return {
        "term": dataset.pauli,
        "method": "direct" if direct_route else "mle",
        "pi_hat": float(result.pi_hat),
        "lambda_hat": float(result.lambda_hat),
        "degenerate_maximum": bool(result.degenerate_maximum),
        "n_queries": int(n_queries),
        "n_bootstrap": len(replicates.pi_hats),
        "pi_ref": None if pi_ref is None else float(pi_ref),
        "reference": "pi_hat" if pi_ref is None else "oracle",
        "rmse": float(stats.rmse),
        "sigma_rmse": float(stats.sigma_rmse),
        "crb": None if crb is None else float(crb),
        "mse_direct": float(direct_mse_model(result.pi_hat, result.lambda_hat,
                                             n_queries)),
        "note": note,
    }


def rmse_sweep(hamiltonian: PauliSum, ansatz: AnsatzSpec, lam: float,
               schedules, m_bootstrap: int, seed: int = 0,
               grid: MLEGrid | None = None) -> tuple[EnergyEstimate, ...]:
    """Energy error versus layer budget, one row per entry of ``schedules``.

    Every term of a row is one :func:`sweep_cell`, and the row's ``l_max``
    is its schedule's deepest layer.
    """
    terms = hamiltonian.non_identity_terms()
    rows = []
    for i, schedule in enumerate(schedules):
        estimates = {}
        for j, (_, string) in enumerate(terms):
            _, result, replicates = sweep_cell(ansatz, string, lam, schedule,
                                               m_bootstrap, grid, seed, (i, j))
            pi_ref = oracle_expectation(ansatz, string)
            estimates[string.word] = TermEstimate(
                pi_hat=result.pi_hat,
                variance=float(np.var(replicates.pi_hats)),
                bias=float(np.mean(replicates.pi_hats)) - pi_ref,
            )
        rows.append(combine_energy(hamiltonian, estimates,
                                   n_queries_per_term=query_cost(schedule),
                                   l_max=max(schedule.layers)))
    return tuple(rows)
