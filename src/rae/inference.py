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


# The bootstrap argmax bounds the surface on blocks of BLOCK x BLOCK cells
# (ragged at the high edges of axes that are not a multiple of BLOCK).
BLOCK = 10

# Replicates whose block bounds come from one matrix product: a
# (BOUND_ROWS, blocks) temporary, 5 MB on the default grid.
BOUND_ROWS = 64


def _block_reduce(surface: np.ndarray, ufunc) -> np.ndarray:
    """``ufunc`` (``np.maximum`` or ``np.minimum``) over every block of a
    (pi, lam) array, flattened in block order.  Whole row groups go first:
    one pass over contiguous rows, then a short pass along lam."""
    n_pi, n_lam = surface.shape
    whole = n_pi - n_pi % BLOCK
    rows = [ufunc.reduce(surface[:whole].reshape(-1, BLOCK, n_lam), axis=1)]
    if whole < n_pi:
        rows.append(ufunc.reduce(surface[whole:], axis=0, keepdims=True))
    return ufunc.reduceat(np.concatenate(rows), np.arange(0, n_lam, BLOCK),
                          axis=1).ravel()


def _rounding_slack(n_layers: int) -> float:
    """Relative slack that covers every rounding error the argmax compares.

    Let u = eps/2, n = n_layers and gamma_k = k u / (1 - k u).  Every term of
    S(c) = sum_l e_l T0[l, c] + (N_l - e_l) T1[l, c] is <= 0 (counts >= 0,
    log-probabilities <= 0), so a sum of these products in any order errs
    by at most gamma_k |S(c)| for k products plus one: gamma_(2n+1) for the
    fixed-order kernel, gamma_(n+1) for the BLAS product.

    Point estimate: a cell within DEGENERACY_TOL of the kernel maximum has a
    BLAS value within (gamma_(n+1) + gamma_(2n+1)) (|S(c)| + |S(c*)|), about
    (3n + 2) u 2 |max S|, of the BLAS maximum minus DEGENERACY_TOL.

    Bootstrap: with integer counts and an integer reference row, a
    replicate's S_r = S_ref + sum_l d_l g_l exactly, g = T0 - T1.  Its block
    bound max_B S_ref + sum_l [max(d_l, 0) max_B g_l + min(d_l, 0) min_B g_l]
    is computed from the BLAS S_ref (off by gamma_(n+1) A_B, A_B the largest
    |S_ref| in the block) and from g rounded once (u D_B, where
    D_B = sum_l |d_l| max_B |g_l|).  As |S_r(c)| <= A_B + D_B, the kernel
    value of any cell of the block exceeds the exact bound by at most
    (3n + 3) u (A_B + D_B).  The slack s (A_B + D_B) is added inside the
    bound's own arithmetic, 3n products and two sums, which errs by at most
    gamma_(3n+2) (A_B + D_B) (1 + s).  A cell at or above the incumbent thus
    keeps its block's computed bound at or above the incumbent whenever
    s >= (6n + 5) u (1 + O(n u)).

    16 (n + 1) u is over twice either requirement.
    """
    return 8.0 * (n_layers + 1) * np.finfo(float).eps


class LikelihoodGrid:
    """Per-layer log-probability tables on a fixed grid, reusable across
    datasets and bootstrap replicates whose records carry these layers in
    this order: table row ``i`` belongs to record ``i``.

    Decisions (argmax, ties, degeneracy) rest on one fixed-order kernel,
    :meth:`_exact`, so a cell's value never depends on what else is
    evaluated with it; the BLAS contraction :meth:`_surface` only narrows
    down which cells the kernel must see.
    """

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

    def _surface(self, even_row: np.ndarray, shots: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of one record-ordered count row at every
        cell, flat.  A BLAS product: fast, but its rounding may change with
        the shape of the product, so it never decides between cells."""
        tables0 = self._log_p0.reshape(len(self.layer_values), -1)
        tables1 = self._log_p1.reshape(len(self.layer_values), -1)
        return even_row @ tables0 + (shots - even_row) @ tables1

    def _exact(self, even_row: np.ndarray, shots: np.ndarray,
               cells: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of one count row at the flat ``cells``,
        summed elementwise layer by layer in record order."""
        n_l = len(self.layer_values)
        tables0 = self._log_p0.reshape(n_l, -1)[:, cells]
        tables1 = self._log_p1.reshape(n_l, -1)[:, cells]
        total = np.zeros(len(cells))
        for l in range(n_l):
            total += even_row[l] * tables0[l]
            total += (shots[l] - even_row[l]) * tables1[l]
        return total

    @functools.cached_property
    def _bound_weights(self) -> np.ndarray:
        """Block max and min of g = log p0 - log p1 per layer, then its
        largest block magnitude times the rounding slack: a (3 layers,
        blocks) array, built on first use one layer at a time."""
        g_max, g_min = [], []
        for log_p0, log_p1 in zip(self._log_p0, self._log_p1):
            g = log_p0 - log_p1
            g_max.append(_block_reduce(g, np.maximum))
            g_min.append(_block_reduce(g, np.minimum))
        g_max, g_min = np.array(g_max), np.array(g_min)
        slack = _rounding_slack(len(self.layer_values))
        return np.concatenate(
            [g_max, g_min, slack * np.maximum(np.abs(g_max), np.abs(g_min))])

    def _block_cells(self, blocks) -> np.ndarray:
        """Flat indices of the cells of the given blocks."""
        n_pi, n_lam = self.grid.pi_points, self.grid.lambda_points
        bi, bj = np.divmod(np.atleast_1d(blocks), -(-n_lam // BLOCK))
        rows = bi[:, None] * BLOCK + np.arange(BLOCK)
        cols = bj[:, None] * BLOCK + np.arange(BLOCK)
        flat = rows[:, :, None] * n_lam + cols[:, None, :]
        inside = (rows < n_pi)[:, :, None] & (cols < n_lam)[:, None, :]
        return flat[inside]

    def estimate(self, dataset: ParityDataset) -> EstimationResult:
        """Grid argmax, flagged degenerate when a cell outside its 3x3
        neighbourhood comes within ``DEGENERACY_TOL`` of the maximum.

        The BLAS surface picks the candidates, every cell within
        ``DEGENERACY_TOL`` plus the rounding slack of its maximum; the
        kernel decides among them.
        """
        if dataset.layer_values() != self.layer_values:
            raise ValueError(
                f"dataset layers {list(dataset.layer_values())} differ from "
                f"the tables' layers {list(self.layer_values)}"
            )
        even = np.array([r.e_even for r in dataset.records], dtype=float)
        shots = np.array([r.n_shots for r in dataset.records], dtype=float)
        surface = self._surface(even, shots)
        top = surface.max()
        slack = 2.0 * _rounding_slack(len(even)) * (abs(top) + DEGENERACY_TOL)
        cells = np.flatnonzero(surface >= top - DEGENERACY_TOL - slack)
        values = self._exact(even, shots, cells)
        k = int(np.argmax(values))  # first maximum: smallest Pi index, then lam
        best = values[k]
        n_lam = self.grid.lambda_points
        i, j = divmod(int(cells[k]), n_lam)
        ci, cj = np.divmod(cells, n_lam)
        far = (np.abs(ci - i) > 1) | (np.abs(cj - j) > 1)

        return EstimationResult(
            pi_hat=float(self.grid.pi_values()[i]),
            lambda_hat=float(self.grid.lambda_values()[j]),
            log_likelihood_max=float(best),
            degenerate_maximum=bool(np.any(values[far] > best - DEGENERACY_TOL)),
        )

    def estimate_counts(self, even: np.ndarray, shots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact argmax of every row of ``even`` (bootstrap replicates);
        returns (pi_hats, lambda_hats) without degeneracy diagnostics.

        A row differs from the rows' rounded mean by ``d``, so its surface
        is S_ref + sum_l d_l g_l with g = log p0 - log p1, which the block
        extremes of S_ref and g bound on every block.  The kernel evaluates
        the block with the highest bound, then every block whose bound plus
        the rounding slack reaches the best value found there.  Ties resolve
        to the smallest Pi index, then the smallest lam index, as in
        ``estimate``, and a row's result does not depend on the other rows.
        """
        n_pi, n_lam = self.grid.pi_points, self.grid.lambda_points
        ref = np.round(even.mean(axis=0))
        s_ref = self._surface(ref, shots).reshape(n_pi, n_lam)
        # block max of S_ref, plus the slack on its largest magnitude (all
        # of S_ref is <= 0, so that is minus its block min)
        base = (_block_reduce(s_ref, np.maximum)
                - _rounding_slack(len(shots)) * _block_reduce(s_ref, np.minimum))

        winners = np.empty(len(even), dtype=np.intp)
        for start in range(0, len(even), BOUND_ROWS):
            rows = even[start:start + BOUND_ROWS]
            d = rows - ref
            reach = base + np.hstack(
                [np.maximum(d, 0.0), np.minimum(d, 0.0), np.abs(d)]) @ self._bound_weights
            for r, row in enumerate(rows):
                first = self._block_cells(np.argmax(reach[r]))
                incumbent = self._exact(row, shots, first).max()
                cells = self._block_cells(np.flatnonzero(reach[r] >= incumbent))
                values = self._exact(row, shots, cells)
                winners[start + r] = cells[values == values.max()].min()
        i, j = np.divmod(winners, n_lam)
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
              grid: MLEGrid | None = None, seed=0) -> BootstrapReplicates:
    """Re-draw every record binomially and re-estimate, ``n_replicates`` times.

    Each replicate consumes its own ``SeedSequence`` substream and its
    argmax is exact, so replicate ``k`` depends only on ``(seed, k)``: a
    longer run extends a shorter one without changing its entries.
    Datasets with only the L=0 record route through the closed form with
    lam pinned to 0.
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
    pi_hats, lambda_hats = likelihood_tables(
        grid, dataset.layer_values()).estimate_counts(even, shots)
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
