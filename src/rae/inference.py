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
from .pauli import PauliString
from .simulator import sample_parities

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


def _model_factors(pi, lam, layers):
    """The two factors of the model's signal, T_{2L+1}(Pi) as
    cos((2L+1) acos Pi) and the decay e^{-lam (L + 1/2)}; broadcasts over
    all three arguments."""
    return np.cos((2 * layers + 1) * np.arccos(pi)), np.exp(-lam * (layers + 0.5))


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
    cheb, decay = _model_factors(pi_arr, lam_arr, layers)
    out = 0.5 * (1.0 + (-1.0) ** d * (decay * cheb))
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


# The argmax bounds the likelihood on blocks of BLOCK x BLOCK cells (ragged
# at the high edges of axes that are not a multiple of BLOCK).
BLOCK = 10

# Count rows whose block bounds come from one matrix product: a
# (BOUND_ROWS, blocks) temporary, 5 MB on the default grid.
BOUND_ROWS = 64


def _rounding_slack(n_layers: int) -> float:
    """Relative slack that makes a row's block bound cover every kernel value
    of the block.

    The kernel's p0 at cell (i, j) is 0.5 (1 + E_j C_i), clipped, from the
    stored factors C_i = T_{2L+1}(Pi_i) and E_j = e^{-lam_j (L + 1/2)}.  A
    block's p_hi and p_lo go through the same operations from the extreme
    products of the block's ranges of C and E (E >= 0), which its cells
    attain.  Products, sums, halving and clipping are correctly rounded,
    hence monotone, so p_lo <= p0 <= p_hi holds exactly at every cell of
    the block, whatever the accuracy of acos, cos and exp.

    The rest assumes log and log1p within k = 4 ulps (numpy's own accuracy
    tests hold its float64 log and log1p to 1 ulp).  Let u = eps/2,
    n = n_layers and gamma_m = m u / (1 - m u).  A kernel log value T at a
    cell and the block's V = log(p_hi) or log1p(-p_lo) are <= 0, so
    T <= V (1 - k u) / (1 + k u); the bounds are stored as V (1 - s),
    rounded.  A row's kernel value K = sum_l e_l T0_l + f_l T1_l (counts
    e, f >= 0, 2n products summed in record order) is at most
    (1 - gamma_2n) times its exact sum, and the row's bound M, a matrix
    product of the same counts with the stored bounds in any order, is at
    least (1 + gamma_2n) times its exact sum.  Hence K <= M whenever
    (1 - s) (1 + u) (1 + k u) (1 + gamma_2n) <= (1 - k u) (1 - gamma_2n),
    that is s >= (4n + 2k + 1) u (1 + O(n u)), and a block whose bound
    falls below a threshold holds no cell at or above it.

    16 (n + 1) u is over twice that for every n >= 1.
    """
    return 8.0 * (n_layers + 1) * np.finfo(float).eps


def _concave_slack(shots: np.ndarray) -> float:
    """Absolute slack that, with :func:`_rounding_slack`, makes a row's
    concave bound on a block cover every kernel value of the block.

    Each layer's term g(p) = e log p + f log(1 - p) is concave with its
    maximum at p* = e / (e + f), so its maximum over the block's
    [p_lo, p_hi] is at c = clamp(p*, p_lo, p_hi).  The bound evaluates g
    at q = clamp(fl(e / N), p_lo, p_hi) instead.  Below 2^53 shots e, f
    and N are exact and |fl(e / N) - p*| <= u p*; above it the counts
    round too, and the distance is at most 2u (1 + u).  Call it d.  Let M = max |g''| =
    max e / p^2 + f / (1 - p)^2 over [p_lo, p_hi], at most
    (e + f) / (P_EPS (1 - 1e-4))^2 since p_lo >= P_EPS and
    1 - p_hi >= P_EPS (1 - 1e-4).  If c = p* is interior, g'(c) = 0 and
    |q - c| <= d, so g(c) - g(q) <= M d^2 / 2.  If c = p_lo > p*, then
    0 <= q - c <= d - (c - p*) and |g'(c)| <= M (c - p*), so again
    g(c) - g(q) <= M (c - p*)(q - c) + M (q - c)^2 / 2 <= M d^2 / 2; p_hi
    is the mirror case.  The loss per layer is hence at most
    2.001 u^2 N / P_EPS^2.

    With the loss A added, the relative argument of :func:`_rounding_slack`
    carries over unchanged: the kernel value is at most
    (1 - gamma_2n)(1 - k u) (G + A) <= (1 - gamma_2n)(1 - k u) G + A for
    the exact sum G <= 0 of the terms at q, and the computed sum of those
    terms is at least (1 + gamma_2n)(1 + k u) G.  Scaling it by the same
    (1 - s), rounded, and adding A, rounded (monotone), leaves it at or
    above every kernel value of the block.

    eps^2 = 4 u^2 per shot is twice that loss, which covers the rounding
    of the slack itself.
    """
    return float(np.finfo(float).eps ** 2 / P_EPS ** 2 * shots.sum())


class LikelihoodGrid:
    """The likelihood of count rows whose records carry these layers in this
    order, on a fixed grid: the model's factors per grid row and column,
    each block's range ``[p_lo, p_hi]`` of ``p0`` per layer, and upper
    bounds of ``log p0`` and ``log p1`` per layer and block.

    One fixed-order kernel, :meth:`_exact`, computes the model at the cells
    it is given and makes every decision (argmax, ties, degeneracy), so a
    cell's value never depends on what else is evaluated with it; the block
    bounds only narrow down which cells the kernel must see.  The arrays
    are read-only, since :func:`likelihood_tables` shares one grid among
    its callers.
    """

    def __init__(self, grid: MLEGrid, layer_values) -> None:
        self.grid = grid
        self.layer_values = tuple(layer_values)
        if not self.layer_values:
            raise ValueError("need at least one layer")
        # (layers, pi points) and (layers, lam points)
        self._cheb, self._decay = _model_factors(
            grid.pi_values(), grid.lambda_values(),
            np.array(self.layer_values, dtype=float)[:, None])

        def block_range(values):
            starts = np.arange(0, values.shape[1], BLOCK)
            return (np.minimum.reduceat(values, starts, axis=1),
                    np.maximum.reduceat(values, starts, axis=1))

        (c_lo, c_hi), (e_lo, e_hi) = block_range(self._cheb), block_range(self._decay)

        def p0_extreme(c, pick):
            # E >= 0, so the block's extreme products pair C's extreme with
            # either extreme of E
            ce = pick(c[:, :, None] * e_lo[:, None, :], c[:, :, None] * e_hi[:, None, :])
            return np.clip(0.5 * (1.0 + ce), P_EPS, 1.0 - P_EPS)

        n_l = len(self.layer_values)
        # (blocks, layers), so that a row's blocks gather contiguous rows
        self._p_hi = p0_extreme(c_hi, np.maximum).reshape(n_l, -1).T.copy()
        self._p_lo = p0_extreme(c_lo, np.minimum).reshape(n_l, -1).T.copy()
        self._bounds = (1.0 - _rounding_slack(n_l)) * np.concatenate(
            [np.log(self._p_hi.T), np.log1p(-self._p_lo.T)])
        for values in (self._cheb, self._decay, self._p_hi, self._p_lo, self._bounds):
            values.setflags(write=False)

    def _exact(self, even: np.ndarray, shots: np.ndarray,
               cells: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of every row of ``even`` at the flat
        ``cells``, summed elementwise layer by layer in record order: a
        (rows, cells) array."""
        i, j = np.divmod(cells, self.grid.lambda_points)
        total = np.zeros((len(even), len(cells)))
        for l in range(len(self.layer_values)):
            p0 = np.clip(0.5 * (1.0 + self._decay[l, j] * self._cheb[l, i]),
                         P_EPS, 1.0 - P_EPS)
            total += even[:, l, None] * np.log(p0)
            total += (shots[l] - even[:, l, None]) * np.log1p(-p0)
        return total

    def _block_cells(self, blocks) -> np.ndarray:
        """Flat indices of the cells of the given blocks, ascending."""
        n_pi, n_lam = self.grid.pi_points, self.grid.lambda_points
        bi, bj = np.divmod(blocks, -(-n_lam // BLOCK))
        rows = bi[:, None] * BLOCK + np.arange(BLOCK)
        cols = bj[:, None] * BLOCK + np.arange(BLOCK)
        flat = rows[:, :, None] * n_lam + cols[:, None, :]
        inside = (rows < n_pi)[:, :, None] & (cols < n_lam)[:, None, :]
        return np.sort(flat[inside])

    def _candidates(self, even: np.ndarray, shots: np.ndarray,
                    tol: float) -> np.ndarray:
        """Flat indices, ascending, of every cell of every block on which
        some row of ``even`` may come within ``tol`` of its maximum.

        A row's incumbent is its best kernel value on the rows' top blocks.
        A block stays when, for some row, both bounds there reach the
        incumbent minus ``tol``: first the linear bound, the row's counts
        times the block bounds, then, on the (row, block) pairs that pass
        it, the concave bound, each layer's term at its maximum over the
        block's ``[p_lo, p_hi]``.  The pairs go in chunks, so that no
        (pairs, layers) temporary exceeds one full-grid surface.
        """
        reach = np.hstack([even, shots - even]) @ self._bounds
        top = self._block_cells(np.unique(np.argmax(reach, axis=1)))
        threshold = self._exact(even, shots, top).max(axis=1) - tol
        rows, blocks = np.nonzero(reach >= threshold[:, None])
        keep = np.zeros(len(self._p_lo), dtype=bool)
        step = max(1, self.grid.pi_points * self.grid.lambda_points // len(shots))
        for start in range(0, len(rows), step):
            r, b = rows[start:start + step], blocks[start:start + step]
            keep[b[self._concave_bound(even[r], shots, b) >= threshold[r]]] = True
        return self._block_cells(np.flatnonzero(keep))

    def _concave_bound(self, even: np.ndarray, shots: np.ndarray,
                       blocks: np.ndarray) -> np.ndarray:
        """Upper bound of every kernel value of row ``even[k]`` on block
        ``blocks[k]``: each layer's term ``e log p + f log(1 - p)`` at its
        maximum over the block's ``[p_lo, p_hi]``, ``p = clamp(e / N)``,
        summed and widened by :func:`_rounding_slack` and
        :func:`_concave_slack`."""
        p = np.clip(even / shots, self._p_lo[blocks], self._p_hi[blocks])
        value = np.log1p(-p)
        value *= shots - even
        p = np.log(p, out=p)
        p *= even
        value += p
        return ((1.0 - _rounding_slack(len(self.layer_values))) * value.sum(axis=1)
                + _concave_slack(shots))

    def estimate(self, dataset: ParityDataset) -> EstimationResult:
        """Grid argmax, flagged degenerate when a cell outside its 3x3
        neighbourhood comes within ``DEGENERACY_TOL`` of the maximum."""
        if dataset.layer_values() != self.layer_values:
            raise ValueError(
                f"dataset layers {list(dataset.layer_values())} differ from "
                f"the grid's layers {list(self.layer_values)}"
            )
        even = np.array([[r.e_even for r in dataset.records]], dtype=float)
        shots = np.array([r.n_shots for r in dataset.records], dtype=float)
        cells = self._candidates(even, shots, DEGENERACY_TOL)
        values = self._exact(even, shots, cells)[0]
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

        Rows go ``BOUND_ROWS`` at a time; the kernel evaluates every row of
        a group on the union of the group's candidate blocks, never more
        rows at once than keep its values within one full-grid surface.
        Ties resolve to the smallest Pi index, then the smallest lam index,
        as in ``estimate``, and a row's result does not depend on the other
        rows.
        """
        n_cells = self.grid.pi_points * self.grid.lambda_points
        winners = np.empty(len(even), dtype=np.intp)
        for start in range(0, len(even), BOUND_ROWS):
            group = even[start:start + BOUND_ROWS]
            cells = self._candidates(group, shots, 0.0)
            step = max(1, n_cells // len(cells))
            for first in range(0, len(group), step):
                # no values array outlives its argmax into the next call
                rows = group[first:first + step]
                winners[start + first:start + first + len(rows)] = cells[
                    np.argmax(self._exact(rows, shots, cells), axis=1)]
        i, j = np.divmod(winners, self.grid.lambda_points)
        return self.grid.pi_values()[i], self.grid.lambda_values()[j]


@functools.lru_cache(maxsize=1)
def likelihood_tables(grid: MLEGrid, layer_values: tuple[int, ...]) -> LikelihoodGrid:
    """The :class:`LikelihoodGrid` of ``layer_values``, in this order, on
    ``grid``, built once and shared while it stays the most recent.

    One entry is enough: callers run one layer set back to back (a term's
    point estimate and bootstrap, files sharing a schedule, a sweep row's
    terms).  It holds about 3.6 MB for nine layers on the default grid.
    """
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

    Replicate ``k`` is entry ``k`` of one ``simulator.sample_parities``
    draw and its argmax is exact, so it depends only on ``(seed, k)``: a
    longer run extends a shorter one without changing its entries.
    Datasets with only the L=0 record route through the closed form with
    lam pinned to 0.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be positive")
    shots = np.array([r.n_shots for r in dataset.records], dtype=float)
    rates = np.array([r.e_even / r.n_shots for r in dataset.records])
    even = np.array(sample_parities(
        np.broadcast_to(rates, (n_replicates, len(rates))),
        shots.astype(np.int64), seed), dtype=float)

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
