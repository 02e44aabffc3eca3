"""Ground-state energy assembly from per-term amplitude estimates.

Every non-identity Pauli term is measured by its own circuit family, so
term estimates combine as independent random variables: coefficients weigh
the means linearly, the variances quadratically.  :func:`sweep` runs the
full simulate / estimate / bootstrap pipeline per layer budget and term, and
:func:`rmse_sweep` combines each budget's terms into an energy row.
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
    chebyshev_parity_probability,
    estimate_terms,
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


def combine_energy(hamiltonian: PauliSum, estimates: dict[str, tuple],
                   n_queries_per_term: int = 0, l_max: int = 0) -> EnergyEstimate:
    """Linear combination of term estimates with independent errors.

    ``estimates`` maps Pauli words to ``(pi_hat, variance, bias)``; the
    identity term needs no estimate and contributes its coefficient exactly.
    """
    terms = hamiltonian.non_identity_terms()
    missing = [string.word for _, string in terms if string.word not in estimates]
    if missing:
        raise ValueError(f"no estimate for terms: {', '.join(missing)}")
    energy, variance, bias = hamiltonian.identity_coefficient, 0.0, 0.0
    for coeff, string in terms:
        pi_hat, term_variance, term_bias = estimates[string.word]
        energy += coeff * pi_hat
        variance += coeff * coeff * term_variance
        bias += coeff * term_bias
    return EnergyEstimate(energy=energy, variance=variance, bias=bias,
                          rmse=math.sqrt(bias * bias + variance),
                          n_queries_per_term=n_queries_per_term, l_max=l_max)


def direct_baseline(hamiltonian: PauliSum, ansatz: AnsatzSpec, lam: float,
                    n_queries: int) -> EnergyEstimate:
    """Analytic unboosted-sampling error model combined over terms: each
    term carries the bias and variance of :func:`fisher.direct_error_model`
    at its oracle expectation."""
    estimates = {}
    for _, string in hamiltonian.non_identity_terms():
        pi = oracle_expectation(ansatz, string)
        bias, variance = direct_error_model(pi, lam, n_queries)
        estimates[string.word] = (pi + bias, variance, bias)
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
        target.word, schedule.layers,
        (schedule.shots_per_layer,) * len(schedule.layers), tuple(counts),
        metadata={"ansatz": ansatz.kind, "theta": ansatz.theta, "lam": lam},
    )


def sweep(hamiltonian: PauliSum, ansatz: AnsatzSpec, lam: float, schedules,
          m_bootstrap: int, grid: MLEGrid, seed: int):
    """Yield each of ``schedules`` with a (dataset, point estimate,
    replicates' pi_hats) cell for every non-identity term, in term order:
    schedule i, term j is cell (i, j).  A row's terms share its schedule,
    so :func:`estimate_terms` searches them as one batch.

    Cell (i, j)'s data and bootstrap substreams are keyed by (i, j, 0) and
    (i, j, 1) only, so cells can be computed in any order, or
    concurrently, and still reproduce the sequential table.
    """
    terms = hamiltonian.non_identity_terms()
    for i, schedule in enumerate(schedules):
        datasets = [simulate_dataset(ansatz, string, lam, schedule,
                                     seed=np.random.SeedSequence(seed, spawn_key=(i, j, 0)))
                    for j, (_, string) in enumerate(terms)]
        estimates = estimate_terms(
            datasets, [m_bootstrap] * len(terms), grid,
            [np.random.SeedSequence(seed, spawn_key=(i, j, 1)) for j in range(len(terms))])
        yield schedule, [(dataset, result, pi_hats) for dataset, (result, pi_hats, _)
                         in zip(datasets, estimates)]


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


def term_row(dataset: ParityDataset, result, pi_hats, grid: MLEGrid) -> dict:
    """The per-term report row of ``estimate`` and ``sweep``, whose fits
    searched ``grid``, from the point estimate and its replicates' pi_hats.

    The bootstrap RMSE is taken about the oracle value of the ansatz the
    dataset's metadata names, else about ``pi_hat``.  The Cramer-Rao bound
    needs one shot count for every record and a jointly identifiable depth
    set; where either is missing ``crb`` is None and ``note`` says why.  A
    grid fit at either end of the Pi axis is noted too, since any bound is
    then taken at the grid's inset edge and not at the amplitude, and so is
    one at the grid's ``lambda_max``, since the decay rate may lie beyond
    it.  ``mse_direct`` is the depth-0 sampling model at the fitted point
    with the same query budget.
    """
    pi_ref = _reference_expectation(dataset)
    rmse, sigma_rmse = rmse_stats(pi_hats,
                                  result.pi_hat if pi_ref is None else pi_ref)
    n_queries = sum((2 * layers + 1) * n_shots
                    for layers, n_shots in zip(dataset.layers, dataset.n_shots))
    crb = None
    notes = []
    shot_counts = set(dataset.n_shots)
    if result.method == "direct":
        notes.append("single-depth data: decay rate pinned at 0, no joint error bound")
    elif len(shot_counts) != 1:
        notes.append("records carry unequal shot counts, no closed-form bound reported")
    else:
        schedule = LayerSchedule(tuple(sorted(dataset.layers)), shot_counts.pop())
        # a grid fit has |Pi| <= 1 - PI_INSET, inside the bound's domain
        try:
            crb = crb_rmse(result.pi_hat, result.lambda_hat, schedule)
        except IdentifiabilityError as exc:
            notes.append(str(exc))
    if result.method == "mle" and abs(result.pi_hat) >= 1.0 - PI_INSET:
        notes.append(f"pi_hat at an end of the Pi grid, {PI_INSET:g} inside "
                     "|Pi| = 1: any bound is taken at that inset")
    # the lam axis ends at exactly lambda_max (np.linspace's endpoint)
    if result.method == "mle" and result.lambda_hat == grid.lambda_max:
        notes.append(f"lambda_hat at the grid's lambda_max {grid.lambda_max:g}: "
                     "the decay rate may lie beyond it; raise --grid-lambda-max")
    return {
        "term": dataset.pauli,
        "method": result.method,
        "pi_hat": float(result.pi_hat),
        "lambda_hat": float(result.lambda_hat),
        "degenerate_maximum": bool(result.degenerate_maximum),
        "n_queries": int(n_queries),
        "n_bootstrap": len(pi_hats),
        "pi_ref": None if pi_ref is None else float(pi_ref),
        "reference": "pi_hat" if pi_ref is None else "oracle",
        "rmse": float(rmse),
        "sigma_rmse": float(sigma_rmse),
        "crb": None if crb is None else float(crb),
        "mse_direct": float(direct_mse_model(result.pi_hat, result.lambda_hat,
                                             n_queries)),
        "note": "; ".join(notes) or None,
    }


def rmse_sweep(hamiltonian: PauliSum, ansatz: AnsatzSpec, lam: float,
               schedules, m_bootstrap: int, seed: int = 0,
               grid: MLEGrid = MLEGrid()) -> tuple[EnergyEstimate, ...]:
    """Energy error versus layer budget: each row of :func:`sweep` combined,
    a term's variance and bias taken from its bootstrap replicates about its
    oracle value, and the row's ``l_max`` its schedule's deepest layer.
    """
    terms = hamiltonian.non_identity_terms()
    rows = []
    for schedule, cells in sweep(hamiltonian, ansatz, lam, schedules,
                                 m_bootstrap, grid, seed):
        estimates = {
            string.word: (result.pi_hat, float(np.var(pi_hats)),
                          float(np.mean(pi_hats)) - oracle_expectation(ansatz, string))
            for (_, string), (_, result, pi_hats) in zip(terms, cells)
        }
        rows.append(combine_energy(hamiltonian, estimates,
                                   n_queries_per_term=query_cost(schedule),
                                   l_max=max(schedule.layers)))
    return tuple(rows)
