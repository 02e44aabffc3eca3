"""Layer schedules: which Grover depths to run and at what shot budget."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Deepest layer any schedule may hold.  Every family checks its i_max
# against it before building its layers, and the noise-robust scan, which
# tests each layer below its Fisher-envelope maximum, checks that maximum.
MAX_LAYERS = 10**6
# Default edge-guard width multiplier of the noise-robust schedule.
NRIS_C = 1.0


@dataclass(frozen=True)
class LayerSchedule:
    """Sorted, unique Grover layer counts plus a uniform shot budget.

    ``origin`` records which constructor produced the schedule (and, for the
    noise-robust constructor, which branch was taken); it does not affect
    equality.
    """

    layers: tuple[int, ...]
    shots_per_layer: int
    origin: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("schedule needs at least one layer")
        if any(l < 0 or l != int(l) for l in self.layers):
            raise ValueError("layers must be non-negative integers")
        if list(self.layers) != sorted(set(self.layers)):
            raise ValueError("layers must be strictly increasing")
        if self.shots_per_layer <= 0:
            raise ValueError("shots_per_layer must be positive")


def _check_i_max(i_max: int, family: str, deepest) -> None:
    """Reject a negative ``i_max``, and one whose deepest layer,
    ``deepest(i_max)``, lies beyond ``MAX_LAYERS``."""
    if i_max < 0:
        raise ValueError("i_max must be non-negative")
    # each family's deepest layer is at least i_max, so deepest() only
    # sees an i_max within the bound
    if i_max > MAX_LAYERS or deepest(i_max) > MAX_LAYERS:
        raise ValueError(f"i_max {i_max} puts the deepest {family} layer beyond "
                         f"the bound of {MAX_LAYERS} layers")


def lis(i_max: int, n_shots: int) -> LayerSchedule:
    """Linear incremental sequence 0, 1, ..., i_max."""
    _check_i_max(i_max, "lis", lambda i: i)
    return LayerSchedule(tuple(range(i_max + 1)), n_shots, origin="lis")


def eis(i_max: int, n_shots: int) -> LayerSchedule:
    """Exponential incremental sequence 0, then 2^(i-1) for i = 1..i_max."""
    _check_i_max(i_max, "eis", lambda i: 2 ** (i - 1) if i else 0)
    layers = (0, *(2 ** (i - 1) for i in range(1, i_max + 1)))
    return LayerSchedule(layers, n_shots, origin="eis")


def polynomial(degree: int, i_max: int, n_shots: int) -> LayerSchedule:
    """Polynomial sequence i^degree for i = 0..i_max."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    # i >= 2 to the power of the bound's bit length is already beyond it
    _check_i_max(i_max, f"poly{degree}",
                 lambda i: i ** min(degree, MAX_LAYERS.bit_length()))
    layers = tuple(i ** degree for i in range(i_max + 1))
    return LayerSchedule(layers, n_shots, origin=f"poly{degree}")


def l_max_fisher(lam: float) -> float:
    """Layer count maximizing the single-circuit Fisher-information envelope.

    The envelope (2L+1)^2 e^{-lam (2L+1)} / (1 - Pi^2) peaks at
    L = 1/lam + 1/2 independent of Pi; beyond it, decoherence outpaces the
    quadratic gain from deeper boosting.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive (noiseless schedules have no maximum)")
    return 1.0 / lam + 0.5


def query_cost(schedule: LayerSchedule) -> int:
    """Total ansatz queries: an L-layer circuit makes 2L+1 ansatz calls."""
    return schedule.shots_per_layer * sum(2 * l + 1 for l in schedule.layers)


def noise_robust_schedule(pi_prior: float, lam: float, n_shots: int,
                          c: float = NRIS_C) -> LayerSchedule:
    """Layer selection that avoids Fisher-information minima.

    Keeps the depths L < 1/lam + 1/2 whose boosted signal sits near an
    extremum, sin^2((2L+1) acos Pi) > 1 - c*lam, seeded with the L=0 anchor
    the two-parameter MLE needs.  When the prior expectation is within
    c*lam of 0 or +-1 the condition is uninformative and the exponential
    sequence (capped at the envelope maximum) is used instead.  A ``lam``
    whose envelope maximum lies beyond ``MAX_LAYERS`` is rejected.
    """
    if not -1.0 <= pi_prior <= 1.0:
        raise ValueError("pi_prior must lie in [-1, 1]")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be a finite positive number, got {c}")
    cap = l_max_fisher(lam)
    if cap > MAX_LAYERS:
        raise ValueError(
            f"lambda {lam!r} puts the Fisher-envelope maximum at L = {cap:.10g}, "
            f"beyond the noise-robust bound of {MAX_LAYERS} layers"
        )

    if abs(pi_prior) < c * lam or 1.0 - abs(pi_prior) < c * lam:
        # the deepest eis within MAX_LAYERS holds every power of two up to cap
        deepest_eis = eis(MAX_LAYERS.bit_length(), n_shots)
        capped = [l for l in deepest_eis.layers if l <= math.floor(cap)]
        return LayerSchedule(tuple(capped), n_shots, origin="nris-eis-edge")

    phi = math.acos(pi_prior)
    selected = [
        l for l in range(int(math.ceil(cap)))
        if math.sin((2 * l + 1) * phi) ** 2 > 1.0 - c * lam
    ]
    if not selected:
        fallback = lis(int(math.floor(cap)), n_shots)
        return LayerSchedule(fallback.layers, n_shots, origin="nris-lis-fallback")
    if selected[0] != 0:
        selected.insert(0, 0)
    return LayerSchedule(tuple(selected), n_shots, origin="nris")
