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


@dataclass
class ParityDataset:
    """All parity counts collected for a single Pauli term: entry i of
    ``layers``, ``n_shots`` and ``e_even`` is one record, ``e_even`` even
    outcomes in ``n_shots`` shots of the circuit with that many layers."""

    pauli: str
    layers: tuple[int, ...]
    n_shots: tuple[int, ...]
    e_even: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        PauliString(self.pauli)  # validates the word
        if not len(self.layers) == len(self.n_shots) == len(self.e_even):
            raise ValueError("layers, n_shots and e_even must have equal lengths")
        if not self.layers:
            raise ValueError("dataset needs at least one record")
        for name in ("layers", "n_shots", "e_even"):
            if any(isinstance(value, bool) or not isinstance(value, (int, np.integer))
                   for value in getattr(self, name)):
                raise ValueError(f"{name} entries must be integers")
        for layers, n_shots, e_even in zip(self.layers, self.n_shots, self.e_even):
            if layers < 0:
                raise ValueError("layers must be non-negative")
            if n_shots <= 0:
                raise ValueError("n_shots must be positive")
            if not 0 <= e_even <= n_shots:
                raise ValueError("e_even must lie in [0, n_shots]")
        if len(set(self.layers)) != len(self.layers):
            raise ValueError("duplicate layer values in dataset")

    def to_dict(self) -> dict:
        """The file form: a list of ``{L, n_shots, e_even}`` records."""
        return {
            "pauli": self.pauli,
            "records": [{"L": layers, "n_shots": n_shots, "e_even": e_even}
                        for layers, n_shots, e_even
                        in zip(self.layers, self.n_shots, self.e_even)],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ParityDataset":
        records = [(jsonio.integer(r["L"]), jsonio.integer(r["n_shots"]),
                    jsonio.integer(r["e_even"])) for r in doc["records"]]
        # no records at all leaves three empty columns, which the dataset rejects
        columns = tuple(zip(*records)) or ((), (), ())
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise jsonio.DatasetFormatError(
                f"dataset metadata must be a JSON object, not a "
                f"{type(metadata).__name__}")
        return cls(str(doc["pauli"]), *columns, metadata=dict(metadata))


def save_dataset(path: str, dataset: ParityDataset) -> None:
    jsonio.save(path, dataset.to_dict())


def load_dataset(path: str) -> ParityDataset:
    return jsonio.load(path, "dataset", ParityDataset.from_dict)


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
            raise ValueError(
                f"lambda_max must be a finite positive number, got {self.lambda_max}")

    def pi_values(self) -> np.ndarray:
        return np.linspace(-1.0 + PI_INSET, 1.0 - PI_INSET, self.pi_points)

    def lambda_values(self) -> np.ndarray:
        return np.linspace(0.0, self.lambda_max, self.lambda_points)


@dataclass
class EstimationResult:
    """Joint MLE output (``method`` "mle"), or the depth-0 closed form with
    lam pinned at 0 (``method`` "direct")."""

    pi_hat: float
    lambda_hat: float
    degenerate_maximum: bool
    method: str = "mle"


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

# Floats in one of the kernel pass's per-tile arrays, 512 KiB: a search of
# many rows screens the union of their candidates in more tiles, not in
# larger temporaries.
TILE_FLOATS = 2**16


def _rounding_slack(n_layers: int) -> float:
    """Relative slack that makes a row's block bound cover every kernel value
    of the block.

    The kernel's p0 at cell (i, j) is 0.5 (1 + E_j C_i), clipped, from the
    stored factors C_i = T_{2L+1}(Pi_i) and E_j = e^{-lam_j (L + 1/2)}.  A
    block's p_hi and p_lo go through the same :func:`_to_p0` from the extreme
    products of the block's ranges of C and E (E >= 0), which its cells
    attain.  Products, sums, halving and clipping are correctly rounded,
    hence monotone, so p_lo <= p0 <= p_hi holds exactly at every cell of
    the block, whatever the accuracy of acos, cos and exp.

    The rest assumes log and log1p within k = 4 ulps (numpy's own accuracy
    tests hold its float64 log and log1p to 1 ulp).  Let u = eps/2,
    n = n_layers and gamma_m = m u / (1 - m u).  A kernel log value T at a
    cell and the block's V = log(p_hi) or log1p(-p_lo) are <= 0, so
    T <= V (1 - k u) / (1 + k u); the bounds are computed as V (1 - s),
    rounded.  A row's kernel value K = sum_l e_l T0_l + f_l T1_l (counts
    e, f >= 0, 2n products summed in record order) is at most
    (1 - gamma_2n) times its exact sum, and the row's bound M, a matrix
    product of the same counts with these bounds in any order, is at
    least (1 + gamma_2n) times its exact sum.  Hence K <= M whenever
    (1 - s) (1 + u) (1 + k u) (1 + gamma_2n) <= (1 - k u) (1 - gamma_2n),
    that is s >= (4n + 2k + 1) u (1 + O(n u)), and a block whose bound
    falls below a threshold holds no cell at or above it.

    16 (n + 1) u is over twice that for every n >= 1.

    The same slack, as a factor 1 + s, covers the matrix-product screen.
    Every term c T of a row's value at a cell (counts c >= 0, table values
    T <= 0) has one sign, so the kernel value K and a matrix product B of
    the same counts and table, summed in any order with or without fused
    multiply-adds, both lie within gamma_2n of the exact sum S <= 0:
    (1 + gamma_2n) S <= K, B <= (1 - gamma_2n) S.  With
    r = (1 + gamma_2n) / (1 - gamma_2n) that gives K >= r B and B >= r K.
    A row's best product m over some cells hence has a kernel value of at
    least r m >= (1 + s) m there, rounded included, so m (1 + s) is a lower
    bound of its kernel maximum: an incumbent.  And every cell whose kernel
    value is at least K_max - t, for t = DEGENERACY_TOL, has B >= r (r m - t)
    >= r^2 (m - t), at or above (m - t)(1 + s) computed in floating point,
    as r^2 <= 1 + 8.1 n u: such a cell passes the screen's cut.
    """
    return 8.0 * (n_layers + 1) * np.finfo(float).eps


def _to_p0(p: np.ndarray) -> np.ndarray:
    """In place, ``p`` <- 0.5 (1 + p) clipped as np.clip does (maximum, then
    minimum, without its Python wrapper): the one path from E C to p0."""
    p += 1.0
    p *= 0.5
    np.maximum(p, P_EPS, out=p)
    np.minimum(p, 1.0 - P_EPS, out=p)
    return p


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
    """The likelihood of count rows on a fixed grid: the grid's axes, the
    model's factors per grid row and column, and two levels of bounds.  A
    row is one float even count per layer in ``layer_values`` order, and
    ``shots`` the (layers,) shot counts in that order: :meth:`search`
    takes a (rows, layers) batch.  Each block has a range ``[p_lo, p_hi]``
    of ``p0`` per layer and upper bounds of ``log p0`` and ``log p1`` per
    layer.  Each super-block, ``SUPER`` blocks along Pi in one lam block,
    has the same values, computed the same way from the range of ``C`` over
    its Pi rows.  They bound every cell of its blocks, so the arguments of
    :func:`_rounding_slack` and :func:`_concave_slack` carry over to it
    unchanged.  Its ``p_lo`` and
    ``p_hi`` are exactly the extremes of its blocks' (each step from ``C``
    to ``p0`` is monotone and correctly rounded), and so are its log bounds
    wherever ``log`` and ``log1p`` are monotone.

    One fixed-order kernel, :meth:`_sum`, computes the model at the cells
    it is given and makes every decision (argmax, ties, degeneracy), so a
    cell's value never depends on what else is evaluated with it; the
    bounds, and a matrix-product screen of each tile, only narrow down
    which cells the kernel must see.

    The grid stores its :func:`_rounding_slack`, the factors, their ranges
    per block and the super-block level.  A search computes the bounds of the blocks it reaches with
    :meth:`_block_bounds`, elementwise, so a block's bounds do not depend
    on which blocks are computed with it.  Nothing changes after the build,
    and the arrays are read-only, since :func:`likelihood_tables` shares
    one grid among its callers.
    """

    def __init__(self, grid: MLEGrid, layer_values) -> None:
        self.grid = grid
        self.layer_values = tuple(layer_values)
        if not self.layer_values:
            raise ValueError("need at least one layer")
        self._slack = _rounding_slack(len(self.layer_values))
        self.pi_values, self.lambda_values = grid.pi_values(), grid.lambda_values()
        # (layers, pi points) and (layers, lam points)
        self._cheb, self._decay = _model_factors(
            self.pi_values, self.lambda_values,
            np.array(self.layer_values, dtype=float)[:, None])

        def block_range(values, width):
            starts = np.arange(0, len(values), width)
            return np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)

        # (Pi blocks, layers) and (lam blocks, layers)
        self._c_lo, self._c_hi = block_range(self._cheb.T, BLOCK)
        self._e_lo, self._e_hi = block_range(self._decay.T, BLOCK)
        c_lo, c_hi = block_range(self._cheb.T, BLOCK * SUPER)
        si, bj = np.divmod(np.arange(len(c_lo) * len(self._e_lo)), len(self._e_lo))
        self._super_p_lo, self._super_p_hi, self._super_bounds = self._p0_bounds(
            c_lo[si], c_hi[si], self._e_lo[bj], self._e_hi[bj])
        for values in vars(self).values():
            if isinstance(values, np.ndarray):
                values.setflags(write=False)

    def _p0_bounds(self, c_lo, c_hi, e_lo, e_hi):
        """``p0`` ranges and log bounds of units whose ``C`` and ``E`` span
        these (units, layers) ranges: the (units, layers) ``p_lo`` and
        ``p_hi``, and the (2 layers, units) bounds of ``log p0`` then
        ``log p1``, so that a row of counts times them is its linear bound
        on every unit."""
        # E >= 0, so a unit's extreme products pair C's extreme with either
        # extreme of E
        p = _to_p0(np.concatenate([np.minimum(c_lo * e_lo, c_lo * e_hi),
                                   np.maximum(c_hi * e_lo, c_hi * e_hi)]))
        p_lo, p_hi = p[:len(c_lo)], p[len(c_lo):]
        bounds = np.concatenate([np.log(p_hi), np.log1p(-p_lo)], axis=1)
        bounds *= 1.0 - self._slack
        return p_lo, p_hi, bounds.T

    def _table(self, cells: np.ndarray) -> np.ndarray:
        """``log p0`` then ``log p1`` of every layer at the flat ``cells``:
        a (2 layers, cells) table, in the row order of the bound matrices,
        so that count rows ``[even, shots - even]`` multiply it directly.
        Each column is computed elementwise from the stored factors alone."""
        i, j = np.divmod(cells, self.grid.lambda_points)
        n = len(self.layer_values)
        table = np.concatenate([self._cheb.take(i, axis=1), self._decay.take(j, axis=1)])
        log_p0, p0 = table[:n], table[n:]
        p0 *= log_p0
        _to_p0(p0)
        np.log(p0, out=log_p0)
        np.log1p(np.negative(p0, out=p0), out=p0)
        return table

    def _sum(self, counts: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The fixed-order kernel: joint log-likelihood of every row of
        ``counts`` at the columns of a :meth:`_table`, a (rows, columns)
        array, each row's values summed elementwise layer by layer in
        record order."""
        n = len(self.layer_values)
        total = np.zeros((len(counts), table.shape[1]))
        term = np.empty_like(total)
        for l in range(n):
            total += np.multiply(counts[:, l, None], table[l], out=term)
            total += np.multiply(counts[:, n + l, None], table[n + l], out=term)
        return total

    def _floor(self, counts: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Each row's best matrix-product value on the cells of ``blocks``,
        widened by :func:`_rounding_slack`: at most its kernel maximum
        there."""
        screen = counts @ self._table(self._block_cells(blocks))
        return screen.max(axis=1) * (1.0 + self._slack)

    def _maxima(self, even: np.ndarray, shots: np.ndarray, cells: np.ndarray,
                n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's maximum over the ascending ``cells`` and the first
        cell that attains it, kept as a running first maximum over tiles,
        slices of ``cells`` whose ``(2 layers, tile)`` table and
        ``(rows, tile)`` values stay within ``TILE_FLOATS`` and one
        full-grid surface; and the leading ``n_points`` rows' kernel values
        over ``cells``, -inf where the screen drops one.

        Each tile's table is screened by one matrix product: a cell stays
        if some row's product there is at least that row's best product
        in the tile, less ``DEGENERACY_TOL``, widened by
        :func:`_rounding_slack`.  That keeps every cell whose kernel value
        comes within ``DEGENERACY_TOL`` of the row's maximum, so the
        kernel, run on the kept cells only, finds the same first maximum."""
        counts = np.hstack([even, shots - even])
        budget = min(self.grid.pi_points * self.grid.lambda_points, TILE_FLOATS)
        size = max(1, min(budget // (2 * len(self.layer_values)), budget // len(even)))
        best = np.full(len(even), -np.inf)
        where = np.zeros(len(even), dtype=np.intp)
        kept = np.full((n_points, len(cells)), -np.inf)
        for start in range(0, len(cells), size):
            tile = cells[start:start + size]
            table = self._table(tile)
            screen = counts @ table
            cut = (screen.max(axis=1) - DEGENERACY_TOL) * (1.0 + self._slack)
            keep = np.any(screen >= cut[:, None], axis=0)
            values = self._sum(counts, table[:, keep])
            kept[:, start:start + size][:, keep] = values[:n_points]
            k = np.argmax(values, axis=1)
            top = values[np.arange(len(even)), k]
            better = top > best
            best[better], where[better] = top[better], tile[keep][k[better]]
        return best, where, kept

    def _members(self, supers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks of the given super-blocks, grouped by super-block, and
        the position in ``supers`` of each block's super-block."""
        si, bj = np.divmod(supers, len(self._e_lo))
        bi = si[:, None] * SUPER + np.arange(SUPER)
        inside = bi < len(self._c_lo)
        return (bi * len(self._e_lo) + bj[:, None])[inside], np.nonzero(inside)[0]

    def _block_bounds(self, blocks: np.ndarray):
        """:meth:`_p0_bounds` of the given blocks."""
        bi, bj = np.divmod(blocks, len(self._e_lo))
        return self._p0_bounds(self._c_lo.take(bi, axis=0), self._c_hi.take(bi, axis=0),
                               self._e_lo.take(bj, axis=0), self._e_hi.take(bj, axis=0))

    def _block_cells(self, blocks) -> np.ndarray:
        """Flat indices of the cells of the given blocks, ascending."""
        n_pi, n_lam = self.grid.pi_points, self.grid.lambda_points
        bi, bj = np.divmod(blocks, len(self._e_lo))
        rows = bi[:, None] * BLOCK + np.arange(BLOCK)
        cols = bj[:, None] * BLOCK + np.arange(BLOCK)
        inside = (rows < n_pi)[:, :, None] & (cols < n_lam)[:, None, :]
        cells = (rows[:, :, None] * n_lam + cols[:, None, :])[inside]
        cells.sort()
        return cells

    def _candidates(self, even: np.ndarray, shots: np.ndarray) -> np.ndarray:
        """Flat indices, ascending, of every cell of every block on which
        some row of ``even`` may come within ``DEGENERACY_TOL`` of its
        maximum.

        A row's incumbent is its :meth:`_floor` on the rows' top blocks of
        their top super-blocks, both by the linear bound.  The search
        then filters super-blocks, and the blocks of the super-blocks that
        survive for a row, with :meth:`_survivors` at that incumbent less
        ``DEGENERACY_TOL``.
        """
        counts = np.hstack([even, shots - even])
        reach = counts @ self._super_bounds
        blocks, _ = self._members(np.unique(np.argmax(reach, axis=1)))
        top = np.unique(blocks[np.argmax(counts @ self._block_bounds(blocks)[2], axis=1)])
        incumbent = self._floor(counts, top)
        rows, supers = self._survivors(even, shots, incumbent - DEGENERACY_TOL, reach,
                                       self._super_p_lo, self._super_p_hi)
        supers, owner = np.unique(supers, return_inverse=True)
        alive = np.zeros((len(even), len(supers)), dtype=bool)
        alive[rows, owner] = True
        blocks, owner = self._members(supers)
        p_lo, p_hi, bounds = self._block_bounds(blocks)
        reach = counts @ bounds
        reach[~alive[:, owner]] = -np.inf
        # where the super-blocks' linear bounds ranked poorly (deep layers
        # span most of [0, 1] in a super-block), the incumbent rises to the
        # rows' best surviving blocks
        best = set(blocks[np.argmax(reach, axis=1)].tolist()).difference(top.tolist())
        if best:
            incumbent = np.maximum(
                incumbent, self._floor(counts, np.fromiter(best, dtype=np.intp)))
        _, kept = self._survivors(even, shots, incumbent - DEGENERACY_TOL, reach, p_lo, p_hi)
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
        np.maximum(p, p_lo, out=p)
        np.minimum(p, p_hi, out=p)
        value = np.negative(p)
        np.log1p(value, out=value)
        value *= shots - even
        p = np.log(p, out=p)
        p *= even
        value += p
        return (1.0 - self._slack) * value.sum(axis=1) + _concave_slack(shots)

    def search(self, even: np.ndarray, shots: np.ndarray,
               n_points: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact argmax of every row of ``even``, observed counts then
        bootstrap replicates: every row's (pi_hats, lambda_hats), and
        whether each of the leading ``n_points`` rows, the observed ones,
        has a degenerate maximum.  Rows go ``BOUND_ROWS`` at a time, each
        group's kernel on the union of its candidate blocks; ties resolve
        to the smallest Pi index, then lam index.

        A row is flagged degenerate when a cell outside its 3x3
        neighbourhood comes within ``DEGENERACY_TOL`` of its maximum, read
        from the kernel pass of the group that holds it.  Every row's
        threshold is its incumbent, at most its maximum, minus
        ``DEGENERACY_TOL``, so every such cell is among the group's
        candidates, and the cells other rows bring in change neither that
        set nor any row's first maximum: a row's result does not depend on
        the other rows, so rows of any terms that share the grid and the
        shots can be searched together.
        """
        winners = np.empty(len(even), dtype=np.intp)
        flags = np.zeros(n_points, dtype=bool)
        for start in range(0, len(even), BOUND_ROWS):
            group = even[start:start + BOUND_ROWS]
            cells = self._candidates(group, shots)
            best, winners[start:start + len(group)], kept = self._maxima(
                group, shots, cells, max(0, min(len(group), n_points - start)))
            for row, values in enumerate(kept, start):
                i, j = divmod(int(winners[row]), self.grid.lambda_points)
                ci, cj = np.divmod(cells[values > best[row - start] - DEGENERACY_TOL],
                                   self.grid.lambda_points)
                flags[row] = np.any((np.abs(ci - i) > 1) | (np.abs(cj - j) > 1))
        i, j = np.divmod(winners, self.grid.lambda_points)
        return self.pi_values[i], self.lambda_values[j], flags


@functools.lru_cache(maxsize=1)
def likelihood_tables(grid: MLEGrid, layer_values: tuple[int, ...]) -> LikelihoodGrid:
    """The :class:`LikelihoodGrid` of ``layer_values``, in this order, on
    ``grid``, built once and shared while it stays the most recent.

    One entry is enough: callers run one layer set back to back (files
    sharing a schedule, a sweep row's terms).  It allocates 1.2 MB for nine
    layers on the default grid, and no search writes on it.
    """
    return LikelihoodGrid(grid, layer_values)


def estimate_terms(datasets, m_bootstraps, grid: MLEGrid, seeds) -> list[tuple]:
    """Point estimate plus the (pi_hats, lambda_hats) of ``m_bootstraps[k]``
    bootstrap replicates (0 for none) of each of ``datasets``, in order.

    Replicate ``k`` of a term is entry ``k`` of one
    ``simulator.sample_parities`` draw from its own ``seeds`` entry, and
    every argmax is exact, so it depends only on that seed and ``k``.  The
    terms that share a grid, the same layers in the same order, and the
    same shots are searched as one batch of float count rows: their
    observed counts first, then each term's replicates in term order.  A
    row's result does not depend on the other rows, so each term's equals
    that of a search of its own.  Depth-0-only data cannot separate the
    decay from the amplitude, so it takes the closed form (2 e - N) / N
    with lam pinned at 0 and builds no grid.
    """
    batches: dict[tuple, list[int]] = {}
    replicates = []
    for k, (dataset, m, seed) in enumerate(zip(datasets, m_bootstraps, seeds)):
        batches.setdefault((tuple(dataset.layers), tuple(dataset.n_shots)), []).append(k)
        if not m:
            replicates.append(np.empty((0, len(dataset.layers))))
            continue
        rates = np.array([e / n for e, n in zip(dataset.e_even, dataset.n_shots)])
        replicates.append(np.array(sample_parities(
            np.broadcast_to(rates, (m, len(rates))),
            np.array(dataset.n_shots, dtype=float).astype(np.int64), seed), dtype=float))
    results = [None] * len(datasets)
    for (layers, n_shots), terms in batches.items():
        even = np.concatenate([np.array([datasets[k].e_even for k in terms], dtype=float),
                               *(replicates[k] for k in terms)])
        shots = np.array(n_shots, dtype=float)
        if layers == (0,):
            pi_hats = (2.0 * even[:, 0] - shots[0]) / shots[0]
            lambda_hats, flags, method = np.zeros(len(even)), [False] * len(terms), "direct"
        else:
            pi_hats, lambda_hats, flags = likelihood_tables(grid, layers).search(
                even, shots, len(terms))
            method = "mle"
        stop = len(terms)
        for row, (k, flag) in enumerate(zip(terms, flags)):
            start, stop = stop, stop + len(replicates[k])
            results[k] = (EstimationResult(float(pi_hats[row]), float(lambda_hats[row]),
                                           bool(flag), method),
                          pi_hats[start:stop], lambda_hats[start:stop])
    return results


def mle_estimate(dataset: ParityDataset, grid: MLEGrid = MLEGrid()) -> EstimationResult:
    """Exhaustive-grid joint MLE of (Pi, lam); depth-0-only data takes the
    closed form with lam pinned at 0 and builds no grid."""
    return estimate_terms([dataset], [0], grid, [0])[0][0]


def estimate_term(dataset: ParityDataset, m_bootstrap: int, grid: MLEGrid = MLEGrid(),
                  seed=0) -> tuple[EstimationResult, np.ndarray, np.ndarray]:
    """Point estimate plus the (pi_hats, lambda_hats) of ``m_bootstrap``
    bootstrap replicates, from one search: :func:`estimate_terms` of one
    term.  A longer run extends a shorter one without changing its
    entries.
    """
    if m_bootstrap < 1:
        raise ValueError("m_bootstrap must be positive")
    return estimate_terms([dataset], [m_bootstrap], grid, [seed])[0]


def rmse_stats(pi_hats, pi_ref: float) -> tuple[float, float]:
    """(RMSE, sigma_RMSE) of replicates about ``pi_ref``, with
    sigma_RMSE = sqrt(Var(MSE)) / (2 RMSE).

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
    return rmse, sigma
