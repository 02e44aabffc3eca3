"""Likelihood inference for boosted parity counts.

The measurement model for a circuit with L boost layers is

    P_L(d | Pi, lam) = (1 + (-1)^d e^{-lam (L + 1/2)} T_{2L+1}(Pi)) / 2,

with T the Chebyshev polynomial of the first kind.  A dataset is a set of
(L, n_shots, e_even) records for one Pauli term; the estimator maximizes
the joint likelihood over an exhaustive (Pi, lam) grid.  Bootstrap error
bars come from re-drawing each record's count binomially at its observed
rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .jsonio import DatasetFormatError  # noqa: F401  (re-exported)
from .pauli import PauliString

# Probabilities are clamped to this floor before any logarithm; the model
# genuinely reaches 0 and 1 (noiseless, |Pi| = 1), and counts there must
# contribute a large finite penalty instead of -inf.
P_EPS = 1e-12

# Two grid values this close at non-neighboring points mean the likelihood
# surface does not single out a maximum.
DEGENERACY_TOL = 1e-9

# The grid's Pi axis is inset from +-1 by this much so acos stays
# well-conditioned at the endpoints; bounds evaluated at a fitted Pi use the
# same inset.
PI_INSET = 1e-9

# Default bootstrap replicate counts by register size.
BOOTSTRAP_REPLICATES = {1: 15000, 2: 10000}


class IdentifiabilityError(ValueError):
    """The requested estimate is not identifiable from the given data."""


@dataclass(frozen=True)
class ParityRecord:
    """Counts for one circuit depth: ``e_even`` even outcomes in ``n_shots``."""

    layers: int
    n_shots: int
    e_even: int

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise ValueError("layers must be non-negative")
        if self.n_shots <= 0:
            raise ValueError("n_shots must be positive")
        if not 0 <= self.e_even <= self.n_shots:
            raise ValueError("e_even must lie in [0, n_shots]")


@dataclass
class ParityDataset:
    """All parity counts collected for a single Pauli term."""

    pauli: str
    records: tuple[ParityRecord, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        PauliString(self.pauli)  # validates the word
        if not self.records:
            raise ValueError("dataset needs at least one record")
        layer_values = [r.layers for r in self.records]
        if len(set(layer_values)) != len(layer_values):
            raise ValueError("duplicate layer values in dataset")

    def layer_values(self) -> tuple[int, ...]:
        return tuple(r.layers for r in self.records)

    def to_dict(self) -> dict:
        return {
            "version": jsonio.FORMAT_VERSION,
            "pauli": self.pauli,
            "records": [
                {"L": r.layers, "n_shots": r.n_shots, "e_even": r.e_even}
                for r in self.records
            ],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ParityDataset":
        jsonio.check_version(doc, "dataset")
        records = tuple(
            ParityRecord(jsonio.integer(r["L"]), jsonio.integer(r["n_shots"]),
                         jsonio.integer(r["e_even"]))
            for r in doc["records"]
        )
        return cls(pauli=str(doc["pauli"]), records=records,
                   metadata=dict(doc.get("metadata", {})))


def save_dataset(path: str, dataset: ParityDataset) -> None:
    jsonio.save(path, dataset.to_dict())


def load_dataset(path: str) -> ParityDataset:
    return jsonio.load(path, ParityDataset.from_dict)


@dataclass(frozen=True)
class MLEGrid:
    """Exhaustive search lattice for the two-parameter MLE.

    The Pi axis spans [-1, 1] inset by ``PI_INSET``; the lam axis starts at
    exactly 0.
    """

    pi_points: int = 10000
    lambda_points: int = 100
    lambda_max: float = 0.5

    def __post_init__(self) -> None:
        if self.pi_points < 2 or self.lambda_points < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not (math.isfinite(self.lambda_max) and self.lambda_max > 0.0):
            raise ValueError("lambda_max must be positive")

    def pi_values(self) -> np.ndarray:
        return np.linspace(-1.0 + PI_INSET, 1.0 - PI_INSET, self.pi_points)

    def lambda_values(self) -> np.ndarray:
        return np.linspace(0.0, self.lambda_max, self.lambda_points)


@dataclass
class EstimationResult:
    """Joint MLE output, or the depth-0 closed form with lam pinned at 0."""

    pi_hat: float
    lambda_hat: float
    log_likelihood_max: float
    degenerate_maximum: bool


def chebyshev_parity_probability(pi, lam, layers: int, d: int):
    """P_L(d | Pi, lam); broadcasts over array-valued ``pi`` and ``lam``.

    Returns exact probabilities (0 and 1 included); clamping happens only
    where logarithms are taken.
    """
    if d not in (0, 1):
        raise ValueError("parity d must be 0 or 1")
    if layers < 0:
        raise ValueError("layers must be non-negative")
    pi_arr = np.clip(np.asarray(pi, dtype=float), -1.0, 1.0)
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0.0):
        raise ValueError("lam must be non-negative")
    cheb = np.cos((2 * layers + 1) * np.arccos(pi_arr))
    signal = np.exp(-lam_arr * (layers + 0.5)) * cheb
    out = 0.5 * (1.0 + (-1.0) ** d * signal)
    if np.isscalar(pi) and np.isscalar(lam):
        return float(out)
    return out


def log_likelihood(dataset: ParityDataset, pi, lam):
    """Joint log-likelihood of all records; broadcasts like the probability."""
    total = 0.0
    for record in dataset.records:
        p_even = np.clip(
            chebyshev_parity_probability(pi, lam, record.layers, 0),
            P_EPS, 1.0 - P_EPS,
        )
        total = total + record.e_even * np.log(p_even) \
            + (record.n_shots - record.e_even) * np.log1p(-p_even)
    if np.isscalar(pi) and np.isscalar(lam):
        return float(total)
    return total


class LikelihoodGrid:
    """Per-layer log-probability tables on a fixed grid, reusable across
    datasets and bootstrap replicates whose records carry these layers in
    this order: table row ``i`` belongs to record ``i``."""

    def __init__(self, grid: MLEGrid, layer_values) -> None:
        self.grid = grid
        self.layer_values = tuple(layer_values)
        if not self.layer_values:
            raise ValueError("need at least one layer")
        pi = grid.pi_values()[:, None]
        lam = grid.lambda_values()[None, :]
        n_l = len(self.layer_values)
        self._log_p0 = np.empty((n_l, grid.pi_points, grid.lambda_points))
        self._log_p1 = np.empty_like(self._log_p0)
        for i, layers in enumerate(self.layer_values):
            p0 = np.clip(chebyshev_parity_probability(pi, lam, layers, 0),
                         P_EPS, 1.0 - P_EPS)
            self._log_p0[i] = np.log(p0)
            self._log_p1[i] = np.log1p(-p0)

    def _surfaces(self, even: np.ndarray, shots: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of each row of ``even`` (record-ordered even
        counts out of ``shots``) at every cell: a (rows, cells) array."""
        tables0 = self._log_p0.reshape(len(self.layer_values), -1)
        tables1 = self._log_p1.reshape(len(self.layer_values), -1)
        return even @ tables0 + (shots - even) @ tables1

    def estimate(self, dataset: ParityDataset) -> EstimationResult:
        """Grid argmax, flagged degenerate when a cell outside its 3x3
        neighbourhood comes within ``DEGENERACY_TOL`` of the maximum."""
        if dataset.layer_values() != self.layer_values:
            raise ValueError(
                f"dataset layers {list(dataset.layer_values())} differ from "
                f"the tables' layers {list(self.layer_values)}"
            )
        even = np.array([[r.e_even for r in dataset.records]], dtype=float)
        shots = np.array([r.n_shots for r in dataset.records], dtype=float)
        flat = self._surfaces(even, shots)[0]
        best_flat = int(np.argmax(flat))  # first maximum: smallest Pi index, then lam
        n_lam = self.grid.lambda_points
        i, j = divmod(best_flat, n_lam)
        best = flat[best_flat]

        surface = flat.reshape(-1, n_lam)
        surface[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2] = -np.inf
        runner_up = float(np.max(surface))

        return EstimationResult(
            pi_hat=float(self.grid.pi_values()[i]),
            lambda_hat=float(self.grid.lambda_values()[j]),
            log_likelihood_max=float(best),
            degenerate_maximum=bool(runner_up > best - DEGENERACY_TOL),
        )

    def estimate_counts(self, even: np.ndarray, shots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched argmax for bootstrap: rows of ``even`` are replicates.

        Returns (pi_hats, lambda_hats); skips degeneracy diagnostics for
        speed.  Ties resolve to the smallest Pi index, then smallest lam
        index, exactly as in ``estimate``.
        """
        flat = np.argmax(self._surfaces(even, shots), axis=1)
        i, j = np.divmod(flat, self.grid.lambda_points)
        return self.grid.pi_values()[i], self.grid.lambda_values()[j]


# The tables dominate estimation cost (16 MB per layer on the default grid).
# Every caller is done with a layer set before it starts the next (file by
# file, sweep row by row), so holding only the last set keeps every reuse.
@functools.lru_cache(maxsize=1)
def likelihood_tables(grid: MLEGrid, layer_values: tuple[int, ...]) -> LikelihoodGrid:
    return LikelihoodGrid(grid, layer_values)


def mle_estimate(dataset: ParityDataset, grid: MLEGrid | None = None) -> EstimationResult:
    """Exhaustive-grid joint MLE of (Pi, lam).

    Requires at least one record with L >= 1: with only the L=0 circuit the
    decay and the amplitude are confounded (use :func:`direct_estimate`,
    which pins lam = 0).
    """
    if grid is None:
        grid = MLEGrid()
    if set(dataset.layer_values()) == {0}:
        raise IdentifiabilityError(
            "dataset contains only the L=0 circuit; (Pi, lam) are not jointly "
            "identifiable -- use direct_estimate, which pins lam = 0"
        )
    return likelihood_tables(grid, dataset.layer_values()).estimate(dataset)


def _direct_pi(even, shots):
    """The L=0 closed form (2 e - N) / N; broadcasts over arrays."""
    return (2.0 * even - shots) / shots


def direct_estimate(dataset: ParityDataset) -> EstimationResult:
    """Closed-form estimate from the L=0 record alone: (2 e_0 - N) / N.

    The decay parameter is pinned to 0; with a single unboosted circuit the
    data cannot separate signal shrinkage from a smaller amplitude.
    """
    if dataset.layer_values() != (0,):
        raise ValueError("direct_estimate expects exactly one record with L=0")
    record = dataset.records[0]
    pi_hat = _direct_pi(record.e_even, record.n_shots)
    return EstimationResult(
        pi_hat=pi_hat,
        lambda_hat=0.0,
        log_likelihood_max=log_likelihood(dataset, pi_hat, 0.0),
        degenerate_maximum=False,
    )


@dataclass
class BootstrapReplicates:
    """Bootstrap re-estimates; arrays are aligned by replicate.

    Each replicate redraws every record binomially at its observed rate
    ``e_even / n_shots`` (not from the fitted model) and re-estimates.
    """

    pi_hats: np.ndarray
    lambda_hats: np.ndarray


def bootstrap(dataset: ParityDataset, n_replicates: int,
              grid: MLEGrid | None = None, seed=0,
              _batch: int = 16) -> BootstrapReplicates:
    """Re-draw every record binomially and re-estimate, ``n_replicates`` times.

    Each replicate consumes its own ``SeedSequence`` substream, so the
    redrawn counts are reproducible and independent of evaluation order.
    The grid argmax is not batch-independent: BLAS may round a row of a
    ``_batch``-row product differently from the same row alone, so on a
    near-flat surface a replicate can land on another cell when
    ``n_replicates`` (and with it the batch layout) changes.  Datasets
    with only the L=0 record route through the closed form with lam pinned
    to 0.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be positive")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = base.spawn(n_replicates)

    shots = np.array([r.n_shots for r in dataset.records], dtype=float)
    rates = np.array([r.e_even / r.n_shots for r in dataset.records])
    even = np.empty((n_replicates, len(dataset.records)))
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        even[k] = rng.binomial(shots.astype(np.int64), rates)

    if set(dataset.layer_values()) == {0}:
        pi_hats = _direct_pi(even[:, 0], shots[0])
        return BootstrapReplicates(pi_hats=pi_hats,
                                   lambda_hats=np.zeros(n_replicates))

    if grid is None:
        grid = MLEGrid()
    tables = likelihood_tables(grid, dataset.layer_values())

    pi_hats = np.empty(n_replicates)
    lambda_hats = np.empty(n_replicates)
    for start in range(0, n_replicates, _batch):
        stop = min(start + _batch, n_replicates)
        pi_hats[start:stop], lambda_hats[start:stop] = tables.estimate_counts(
            even[start:stop], shots
        )
    return BootstrapReplicates(pi_hats=pi_hats, lambda_hats=lambda_hats)


@dataclass
class BootstrapSummary:
    """RMSE of replicates about a reference value, with its own error bar."""

    rmse: float
    sigma_rmse: float
    mse: float
    var_mse: float
    n_replicates: int
    zero_rmse: bool


def rmse_stats(pi_hats, pi_ref: float) -> BootstrapSummary:
    """MSE, its empirical variance, and sigma_RMSE = sqrt(Var)/(2 RMSE).

    All three follow the population conventions: MSE = mean of squared
    deviations from ``pi_ref``, Var(MSE) = mean of {squared deviation -
    MSE}^2, and the sigma comes from propagating Var(MSE) through the
    square root.
    """
    values = np.asarray(pi_hats, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one replicate")
    sq = (values - pi_ref) ** 2
    mse = float(np.mean(sq))
    var_mse = float(np.mean((sq - mse) ** 2))
    rmse = math.sqrt(mse)
    if rmse > 0.0:
        sigma = math.sqrt(var_mse) / (2.0 * rmse)
        zero = False
    else:
        sigma = 0.0
        zero = True
    return BootstrapSummary(rmse=rmse, sigma_rmse=sigma, mse=mse,
                            var_mse=var_mse, n_replicates=values.size,
                            zero_rmse=zero)
