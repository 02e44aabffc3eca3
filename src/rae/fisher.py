"""Fisher information, Cramer-Rao bounds, and the direct-sampling error model.

For one circuit with L boost layers and N shots the 2x2 information matrix
in (Pi, lam) has elements (phi = acos Pi, E = e^{lam (2L+1)}):

    I_11 = N (2L+1)^2 sin^2((2L+1) phi) / ((1 - Pi^2) (E - cos^2((2L+1) phi)))
    I_12 = N (L+1/2)^2 sin(2 (2L+1) phi) / (sqrt(1 - Pi^2) (cos^2((2L+1) phi) - E))
    I_22 = N (L+1/2)^2 cos^2((2L+1) phi) / (E - cos^2((2L+1) phi))

and a schedule's matrix is the sum over its layers.  With only the L=0
circuit the matrix is exactly singular: amplitude and decay cannot be told
apart from a single unboosted measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inference import IdentifiabilityError
from .schedules import LayerSchedule

# Scale-free singularity threshold: det / (I_11 I_22) below this means the
# two parameters are not jointly identifiable.
SINGULARITY_TOL = 1e-14


@dataclass(frozen=True)
class FisherMatrix:
    i11: float
    i12: float
    i22: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.i11, self.i12], [self.i12, self.i22]])

    @property
    def determinant(self) -> float:
        return self.i11 * self.i22 - self.i12 ** 2

    @property
    def normalized_determinant(self) -> float:
        """Determinant divided by the product of the diagonal; 1 means the
        parameters decouple, anything below ``SINGULARITY_TOL`` is singular."""
        scale = self.i11 * self.i22
        if scale == 0.0:
            return 0.0
        return self.determinant / scale


def fisher_matrix(pi: float, lam: float, schedule: LayerSchedule) -> FisherMatrix:
    """Information matrix of the full schedule at true parameters (pi, lam)."""
    if not -1.0 < pi < 1.0:
        raise ValueError("pi must lie strictly inside (-1, 1)")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and non-negative")
    n = schedule.shots_per_layer
    one_minus_pi2 = 1.0 - pi * pi
    phi = math.acos(pi)
    i11 = i12 = i22 = 0.0
    for layers in schedule.layers:
        k = 2 * layers + 1
        s = math.sin(k * phi)
        c = math.cos(k * phi)
        e = math.exp(lam * k)
        gap = e - c * c
        i11 += n * k * k * s * s / (one_minus_pi2 * gap)
        i12 += n * (layers + 0.5) ** 2 * (2.0 * s * c) / (math.sqrt(one_minus_pi2) * -gap)
        i22 += n * (layers + 0.5) ** 2 * c * c / gap
    return FisherMatrix(i11=i11, i12=i12, i22=i22)


def crb_rmse(pi: float, lam: float, schedule: LayerSchedule) -> float:
    """Cramer-Rao lower bound on RMSE(Pi): sqrt of the (Pi, Pi) element of
    the inverse information matrix, via the closed-form 2x2 adjugate."""
    info = fisher_matrix(pi, lam, schedule)
    if info.normalized_determinant < SINGULARITY_TOL:
        raise IdentifiabilityError(
            f"Fisher matrix of schedule {list(schedule.layers)} is singular; "
            "(Pi, lam) are not jointly identifiable"
        )
    return math.sqrt(info.i22 / info.determinant)


def direct_error_model(pi: float, lam: float, n_queries: int) -> tuple[float, float]:
    """(bias, variance) of unboosted sampling with ``n_queries`` shots.

    The depolarized L=0 circuit estimates e^{-lam/2} Pi, so the estimate
    carries a deterministic shrinkage bias -(1 - e^{-lam/2}) Pi plus the
    binomial variance (1 - e^{-lam} Pi^2) / N.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and non-negative")
    if n_queries <= 0:
        raise ValueError("n_queries must be positive")
    bias = -(1.0 - math.exp(-lam / 2.0)) * pi
    variance = (1.0 - math.exp(-lam) * pi * pi) / n_queries
    return bias, variance


def direct_mse_model(pi: float, lam: float, n_queries: int) -> float:
    """Mean squared error bias^2 + variance of :func:`direct_error_model`."""
    if not -1.0 <= pi <= 1.0:
        raise ValueError("pi must lie in [-1, 1]")
    bias, variance = direct_error_model(pi, lam, n_queries)
    return bias * bias + variance


class Verdict(str, Enum):
    ADVANTAGE = "ADVANTAGE"
    NO_ADVANTAGE = "NO_ADVANTAGE"
    INCONCLUSIVE = "INCONCLUSIVE"


def advantage_verdict(rmse_rae: float, sigma_rmse: float, crb: float,
                      mse_direct: float, k: float = 2.0) -> Verdict:
    """Compare boosted estimation against the direct-sampling error model.

    ADVANTAGE requires the achieved RMSE to be consistent with its own
    lower bound (crb <= rmse) and to beat the direct model by more than
    k sigma; NO_ADVANTAGE requires losing by more than k sigma; anything
    else is INCONCLUSIVE.
    """
    if min(rmse_rae, sigma_rmse, crb, mse_direct) < 0.0 or not (
            math.isfinite(k) and k > 0.0):
        raise ValueError("inputs must be non-negative and k finite and positive")
    baseline = math.sqrt(mse_direct)
    if crb <= rmse_rae and rmse_rae + k * sigma_rmse < baseline:
        return Verdict.ADVANTAGE
    if rmse_rae - k * sigma_rmse > baseline:
        return Verdict.NO_ADVANTAGE
    return Verdict.INCONCLUSIVE
