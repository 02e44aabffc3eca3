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


# The argmax bounds the likelihood on blocks of BLOCK x BLOCK cells (ragged
# at the high edges of axes that are not a multiple of BLOCK), and first on
# super-blocks of SUPER blocks along Pi within one lam block.  A super-block
# stays one block wide in lam: the lam axis has few blocks, and one that
# spans the decay range bounds so loosely that most of the grid survives.
BLOCK = 10
SUPER = 10

# Count rows whose bounds come from one matrix product per level: at most a
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
    order, on a fixed grid: the grid's axes, the model's factors per grid
    row and column, and two levels of bounds.  Each block has a range
    ``[p_lo, p_hi]`` of ``p0`` per layer and upper bounds of ``log p0`` and
    ``log p1`` per layer; each super-block, ``SUPER`` blocks along Pi in
    one lam block, has the max of its blocks' upper bounds and ``p_hi`` and
    the min of their ``p_lo``.  A super-block's values are thus the
    extremes of stored values that bound every cell of its blocks, and the
    arguments of :func:`_rounding_slack` and :func:`_concave_slack` carry
    over to it unchanged.

    One fixed-order kernel, :meth:`_exact`, computes the model at the cells
    it is given and makes every decision (argmax, ties, degeneracy), so a
    cell's value never depends on what else is evaluated with it; the
    bounds only narrow down which cells the kernel must see.  The arrays
    are read-only, since :func:`likelihood_tables` shares one grid among
    its callers.
    """

    def __init__(self, grid: MLEGrid, layer_values) -> None:
        self.grid = grid
        self.layer_values = tuple(layer_values)
        if not self.layer_values:
            raise ValueError("need at least one layer")
        self.pi_values, self.lambda_values = grid.pi_values(), grid.lambda_values()
        # (layers, pi points) and (layers, lam points)
        self._cheb, self._decay = _model_factors(
            self.pi_values, self.lambda_values,
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

        n_bi, n_bj = -(-grid.pi_points // BLOCK), -(-grid.lambda_points // BLOCK)
        n_si = -(-n_bi // SUPER)

        def coarsen(values, pick, axis):
            # the flat block axis splits into (Pi-blocks, lam-blocks), and a
            # super-block is SUPER consecutive Pi-blocks; repeating the last
            # Pi-block fills a ragged last super-block without changing
            # its extremes
            head, tail = values.shape[:axis], values.shape[axis + 1:]
            split = values.reshape(head + (n_bi, n_bj) + tail)
            if n_si * SUPER > n_bi:
                last = np.take(split, [n_bi - 1] * (n_si * SUPER - n_bi), axis=axis)
                split = np.concatenate([split, last], axis=axis)
            return pick.reduce(split.reshape(head + (n_si, SUPER, n_bj) + tail),
                               axis=axis + 1).reshape(head + (-1,) + tail)

        self._super_p_hi = coarsen(self._p_hi, np.maximum, 0)
        self._super_p_lo = coarsen(self._p_lo, np.minimum, 0)
        self._super_bounds = coarsen(self._bounds, np.maximum, 1)
        for values in vars(self).values():
            if isinstance(values, np.ndarray):
                values.setflags(write=False)

    def _exact(self, even: np.ndarray, shots: np.ndarray,
               cells: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of every row of ``even`` at the flat
        ``cells``: a (rows, cells) array.  ``log p0`` and ``log p1`` are
        computed once per layer and cell and shared by every row, whose
        values are summed elementwise layer by layer in record order."""
        i, j = np.divmod(cells, self.grid.lambda_points)
        log_p0 = np.take(self._cheb, i, axis=1)
        log_p1 = np.take(self._decay, j, axis=1)
        log_p1 *= log_p0
        log_p1 += 1.0
        log_p1 *= 0.5
        p0 = np.clip(log_p1, P_EPS, 1.0 - P_EPS, out=log_p1)
        np.log(p0, out=log_p0)
        np.log1p(np.negative(p0, out=p0), out=log_p1)
        odd = shots - even
        total = np.zeros((len(even), len(cells)))
        term = np.empty_like(total)
        for l in range(len(self.layer_values)):
            total += np.multiply(even[:, l, None], log_p0[l], out=term)
            total += np.multiply(odd[:, l, None], log_p1[l], out=term)
        return total

    def _tiles(self, cells: np.ndarray, rows: int) -> list[np.ndarray]:
        """``cells`` in consecutive slices small enough that neither a
        slice's ``(layers, tile)`` log tables nor its ``(rows, tile)``
        values exceed one full-grid surface."""
        n_cells = self.grid.pi_points * self.grid.lambda_points
        size = max(1, min(n_cells // (2 * len(self.layer_values)), n_cells // rows))
        return [cells[k:k + size] for k in range(0, len(cells), size)]

    def _maxima(self, even: np.ndarray, shots: np.ndarray,
                cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's maximum over the ascending ``cells`` and the first
        cell that attains it, kept as a running first maximum over the
        kernel's tiles."""
        best = np.full(len(even), -np.inf)
        where = np.zeros(len(even), dtype=np.intp)
        for tile in self._tiles(cells, len(even)):
            values = self._exact(even, shots, tile)
            k = np.argmax(values, axis=1)
            top = values[np.arange(len(even)), k]
            better = top > best
            best[better], where[better] = top[better], tile[k[better]]
        return best, where

    def _members(self, supers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks of the given super-blocks, grouped by super-block, and
        the position in ``supers`` of each block's super-block."""
        n_bi = -(-self.grid.pi_points // BLOCK)
        n_bj = -(-self.grid.lambda_points // BLOCK)
        si, bj = np.divmod(supers, n_bj)
        bi = si[:, None] * SUPER + np.arange(SUPER)
        inside = bi < n_bi
        return (bi * n_bj + bj[:, None])[inside], np.nonzero(inside)[0]

    def _block_cells(self, blocks) -> np.ndarray:
        """Flat indices of the cells of the given blocks, ascending."""
        n_pi, n_lam = self.grid.pi_points, self.grid.lambda_points
        bi, bj = np.divmod(blocks, -(-n_lam // BLOCK))
        rows = bi[:, None] * BLOCK + np.arange(BLOCK)
        cols = bj[:, None] * BLOCK + np.arange(BLOCK)
        inside = (rows < n_pi)[:, :, None] & (cols < n_lam)[:, None, :]
        cells = (rows[:, :, None] * n_lam + cols[:, None, :])[inside]
        cells.sort()
        return cells

    def _candidates(self, even: np.ndarray, shots: np.ndarray,
                    tol: float) -> np.ndarray:
        """Flat indices, ascending, of every cell of every block on which
        some row of ``even`` may come within ``tol`` of its maximum.

        A row's incumbent is its best kernel value on the rows' top blocks
        of their top super-blocks, both by the linear bound.  The search
        then filters super-blocks, and the blocks of the super-blocks that
        survive for a row, with :meth:`_survivors`.
        """
        counts = np.hstack([even, shots - even])
        reach = counts @ self._super_bounds
        blocks, _ = self._members(np.unique(np.argmax(reach, axis=1)))
        top = np.unique(blocks[np.argmax(counts @ self._bounds[:, blocks], axis=1)])
        threshold = self._maxima(even, shots, self._block_cells(top))[0] - tol
        rows, supers = self._survivors(even, shots, threshold, reach,
                                       self._super_p_lo, self._super_p_hi)
        supers, owner = np.unique(supers, return_inverse=True)
        alive = np.zeros((len(even), len(supers)), dtype=bool)
        alive[rows, owner] = True
        blocks, owner = self._members(supers)
        reach = counts @ self._bounds[:, blocks]
        reach[~alive[:, owner]] = -np.inf
        # where the super-blocks' linear bounds ranked poorly (deep layers
        # span most of [0, 1] in a super-block), the incumbent rises to the
        # rows' best surviving blocks
        best = set(blocks[np.argmax(reach, axis=1)].tolist()).difference(top.tolist())
        if best:
            cells = self._block_cells(np.fromiter(best, dtype=np.intp))
            threshold = np.maximum(threshold, self._maxima(even, shots, cells)[0] - tol)
        _, kept = self._survivors(even, shots, threshold, reach,
                                  self._p_lo[blocks], self._p_hi[blocks])
        return self._block_cells(np.unique(blocks[kept]))

    def _survivors(self, even: np.ndarray, shots: np.ndarray,
                   threshold: np.ndarray, reach: np.ndarray,
                   p_lo: np.ndarray, p_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (row, column) pairs of ``reach``, a (rows, units) linear
        bound, where both bounds reach the row's threshold: first the
        linear bound, then, on the pairs that pass it, the concave bound
        from the units' ``[p_lo, p_hi]``.  The pairs go in chunks, so that
        a chunk's (pairs, layers) temporaries, six at most, stay within one
        full-grid surface together."""
        rows, units = np.nonzero(reach >= threshold[:, None])
        keep = np.zeros(len(rows), dtype=bool)
        step = max(1, self.grid.pi_points * self.grid.lambda_points // (6 * len(shots)))
        for start in range(0, len(rows), step):
            r, u = rows[start:start + step], units[start:start + step]
            keep[start:start + step] = self._concave_bound(
                even[r], shots, p_lo[u], p_hi[u]) >= threshold[r]
        return rows[keep], units[keep]

    def _concave_bound(self, even: np.ndarray, shots: np.ndarray,
                       p_lo: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
        """Upper bound of every kernel value of row ``even[k]`` on a block
        or super-block with range ``[p_lo[k], p_hi[k]]``: each layer's term
        ``e log p + f log(1 - p)`` at its maximum over the range,
        ``p = clamp(e / N)``, summed and widened by
        :func:`_rounding_slack` and :func:`_concave_slack`."""
        p = np.divide(even, shots)
        np.clip(p, p_lo, p_hi, out=p)
        value = np.negative(p)
        np.log1p(value, out=value)
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
        values = np.empty(len(cells))
        start = 0
        for tile in self._tiles(cells, 1):
            values[start:start + len(tile)] = self._exact(even, shots, tile)[0]
            start += len(tile)
        k = int(np.argmax(values))  # first maximum: smallest Pi index, then lam
        best = values[k]
        n_lam = self.grid.lambda_points
        i, j = divmod(int(cells[k]), n_lam)
        ci, cj = np.divmod(cells[values > best - DEGENERACY_TOL], n_lam)
        far = (np.abs(ci - i) > 1) | (np.abs(cj - j) > 1)

        return EstimationResult(
            pi_hat=float(self.pi_values[i]),
            lambda_hat=float(self.lambda_values[j]),
            degenerate_maximum=bool(np.any(far)),
        )

    def estimate_counts(self, even: np.ndarray, shots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact argmax of every row of ``even`` (bootstrap replicates);
        returns (pi_hats, lambda_hats) without degeneracy diagnostics.

        Rows go ``BOUND_ROWS`` at a time; the kernel evaluates every row of
        a group on the union of the group's candidate blocks, one tile of
        cells at a time.  Ties resolve to the smallest Pi index, then the
        smallest lam index, as in ``estimate``, and a row's result does not
        depend on the other rows.
        """
        winners = np.empty(len(even), dtype=np.intp)
        for start in range(0, len(even), BOUND_ROWS):
            group = even[start:start + BOUND_ROWS]
            winners[start:start + len(group)] = self._maxima(
                group, shots, self._candidates(group, shots, 0.0))[1]
        i, j = np.divmod(winners, self.grid.lambda_points)
        return self.pi_values[i], self.lambda_values[j]


@functools.lru_cache(maxsize=1)
def likelihood_tables(grid: MLEGrid, layer_values: tuple[int, ...]) -> LikelihoodGrid:
    """The :class:`LikelihoodGrid` of ``layer_values``, in this order, on
    ``grid``, built once and shared while it stays the most recent.

    One entry is enough: callers run one layer set back to back (a term's
    point estimate and bootstrap, files sharing a schedule, a sweep row's
    terms).  It holds about 4.0 MB for nine layers on the default grid.
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


def rmse_stats(pi_hats, pi_ref: float) -> BootstrapSummary:
    """RMSE about ``pi_ref`` and sigma_RMSE = sqrt(Var(MSE)) / (2 RMSE).

    Both follow the population conventions: MSE = mean of squared
    deviations from ``pi_ref``, Var(MSE) = mean of {squared deviation -
    MSE}^2, and the sigma comes from propagating Var(MSE) through the
    square root; it is 0 when the RMSE is.
    """
    values = np.asarray(pi_hats, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one replicate")
    sq = (values - pi_ref) ** 2
    mse = float(np.mean(sq))
    var_mse = float(np.mean((sq - mse) ** 2))
    rmse = math.sqrt(mse)
    sigma = math.sqrt(var_mse) / (2.0 * rmse) if rmse > 0.0 else 0.0
    return BootstrapSummary(rmse=rmse, sigma_rmse=sigma)
