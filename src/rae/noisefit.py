"""Extraction of the per-layer decay rate from empirical likelihood curves.

The protocol sweeps the ansatz angle so a target term's expectation takes
prescribed values, measures the even-parity rate of the L-layer circuit at
each, and fits the single decay parameter of the parity model by weighted
least squares.  Fitting many depths and comparing the recovered rates is
the device-stability diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .inference import IdentifiabilityError, _model_factors, chebyshev_parity_probability
from .pauli import (
    AnsatzSpec,
    PauliString,
    angle_for_expectation,
    ansatz_state,
    expectation_values,
)
from .simulator import check_circuit, sample_parities

# curves whose Chebyshev values are all this small carry no decay signal
FLAT_TOL = 1e-12
MIN_CURVE_POINTS = 3  # fewest amplitudes a curve may have
CURVE_POINTS = 10  # amplitudes of a simulated curve, unless given
# upper edge of the decay-rate search, and the relative variation across
# depths above which a profile is called unstable
LAMBDA_MAX = 5.0
INSTABILITY_THRESHOLD = 0.20
# Smallest std_err a curve point may carry: each term of fit_lambda's sums
# is its weight std_err^-2 <= 1e200 times at most (L + 1/2)^2 / 4 < 3e37
# for a file's L < 2^63 (|p - 1/2|, |T| / 2 <= 1/2, q <= 1), so no sum over
# fewer than 1e70 points, any curve that fits in memory, overflows.
STD_ERR_MIN = 1e-100


@dataclass(frozen=True)
class LikelihoodCurve:
    """Even-parity rates of one circuit depth over a sweep of amplitudes:
    entry i of ``pi``, ``p_even`` and ``std_err`` is one sweep point."""

    layers: int
    pi: tuple[float, ...]
    p_even: tuple[float, ...]
    std_err: tuple[float, ...]

    def __post_init__(self) -> None:
        if not len(self.pi) == len(self.p_even) == len(self.std_err):
            raise ValueError("pi, p_even and std_err must have equal lengths")
        for pi, p_even, std_err in zip(self.pi, self.p_even, self.std_err):
            if not 0.0 <= pi <= 1.0:
                raise ValueError("pi must lie in [0, 1]")
            if not 0.0 <= p_even <= 1.0:
                raise ValueError("p_even must lie in [0, 1]")
            if not std_err >= STD_ERR_MIN:
                raise ValueError(f"std_err must be positive, at least {STD_ERR_MIN:g}")
        if self.layers < 0:
            raise ValueError("layers must be non-negative")
        if len(self.pi) < MIN_CURVE_POINTS:
            raise ValueError(f"curve needs at least {MIN_CURVE_POINTS} points")
        if len(set(self.pi)) != len(self.pi):
            raise ValueError("pi values must be distinct")

    def to_dict(self) -> dict:
        """The file form: a list of ``{pi, p_even, std_err}`` points."""
        return {
            "L": self.layers,
            "points": [{"pi": pi, "p_even": p_even, "std_err": std_err}
                       for pi, p_even, std_err
                       in zip(self.pi, self.p_even, self.std_err)],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LikelihoodCurve":
        points = [(jsonio.real(p["pi"]), jsonio.real(p["p_even"]),
                   jsonio.real(p["std_err"])) for p in doc["points"]]
        # no points at all leaves three empty columns, which the curve rejects
        columns = tuple(zip(*points)) or ((), (), ())
        return cls(jsonio.integer(doc["L"]), *columns)


def save_curve(path: str, curve: LikelihoodCurve) -> None:
    jsonio.save(path, curve.to_dict())


def load_curve(path: str) -> LikelihoodCurve:
    return jsonio.load(path, "curve", LikelihoodCurve.from_dict)


@dataclass(frozen=True)
class LambdaFit:
    """One depth's decay fit, as the stability profile reports it."""

    layers: int
    lambda_hat: float
    delta_lambda: float


def fit_lambda(curve: LikelihoodCurve, lambda_max: float = LAMBDA_MAX) -> LambdaFit:
    """Weighted least-squares decay fit with a linearized error bar.

    The model P_L(0 | pi, lam) = (1 + q T_{2L+1}(pi)) / 2 is linear in the
    decay factor q = e^{-lam (L + 1/2)}, so chi^2 = sum_i w_i (p_i - P_i)^2
    is a convex quadratic in q.  Its minimizer has a closed form; clamped to
    [e^{-lambda_max (L + 1/2)}, 1] it is the exact minimizer over
    lam in [0, lambda_max].  The error bar is the Gauss-Newton one:
    delta = 1 / sqrt(sum_i J_i^2 / s_i^2) with J = dP/dlam at the optimum.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0.0):
        raise ValueError("lambda_max must be positive")
    pis, rates = np.array(curve.pi), np.array(curve.p_even)
    weights = np.array(curve.std_err) ** -2.0
    half_order = curve.layers + 0.5
    cheb, _ = _model_factors(pis, 0.0, curve.layers)
    if np.max(np.abs(cheb)) < FLAT_TOL:
        raise IdentifiabilityError(
            "curve carries no decay signal: the boosted amplitude vanishes "
            "at every sweep point, so lambda does not affect the model"
        )

    slope = cheb / 2.0
    q_star = float(np.sum(weights * (rates - 0.5) * slope)
                   / np.sum(weights * slope ** 2))
    q_min = math.exp(-lambda_max * half_order)
    if q_star >= 1.0:
        q, lambda_hat = 1.0, 0.0
    elif q_star <= q_min:
        q, lambda_hat = q_min, lambda_max
    else:
        q, lambda_hat = q_star, min(-math.log(q_star) / half_order, lambda_max)

    jac = -half_order * q * slope
    curvature = float(np.sum(weights * jac ** 2))
    if not curvature > 0.0:
        raise IdentifiabilityError("zero curvature at the optimum; lambda unidentifiable")
    return LambdaFit(curve.layers, lambda_hat, 1.0 / math.sqrt(curvature))


@dataclass(frozen=True)
class LambdaProfile:
    """Per-depth decay fits plus the cross-depth stability metric."""

    rows: tuple[LambdaFit, ...]
    variation: float
    unstable: bool


def check_threshold(threshold: float, name: str = "instability_threshold") -> None:
    """Reject a relative-variation threshold that is not a finite
    non-negative number: ``nan`` would call every profile stable, and a
    negative value every profile unstable."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"{name} must be a finite non-negative number, got {threshold}")


def lambda_profile(curves, instability_threshold: float = INSTABILITY_THRESHOLD,
                   lambda_max: float = LAMBDA_MAX) -> LambdaProfile:
    """Fit every curve and report (max - min)/min relative variation."""
    check_threshold(instability_threshold)
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    depths = [c.layers for c in curves]
    if len(set(depths)) != len(depths):
        raise ValueError("curves must have distinct layer counts")
    rows = tuple(fit_lambda(c, lambda_max=lambda_max) for c in curves)
    lo = min(r.lambda_hat for r in rows)
    hi = max(r.lambda_hat for r in rows)
    if hi == lo:
        variation = 0.0
    elif lo == 0.0:
        variation = math.inf
    else:
        variation = (hi - lo) / lo
    return LambdaProfile(rows=rows, variation=variation,
                         unstable=variation > instability_threshold)


def simulate_curves(ansatz_kind: str, target: PauliString, depths, lam: float,
                    n_shots: int, seeds, pi_values=None) -> tuple[LikelihoodCurve, ...]:
    """Measured curves, one per entry of ``depths``: sweep the ansatz angle
    through the prescribed amplitudes and sample each depth's parity counts
    with ``simulator.sample_parities`` and that depth's entry of ``seeds``.

    The sweep's angles, states and expectation values depend on no depth,
    so they are computed once and shared; every depth's circuit is checked
    before any is sampled.  Each depth's probabilities come from one
    ``chebyshev_parity_probability`` call.  Error bars are binomial with a
    half-count floor so degenerate rates (0 or 1) still carry a positive
    uncertainty.
    """
    depths, seeds = tuple(depths), tuple(seeds)
    if len(seeds) != len(depths):
        raise ValueError(f"need one seed per depth, got {len(seeds)} for {len(depths)}")
    if pi_values is None:
        pi_values = np.linspace(0.0, 1.0, CURVE_POINTS)
    pi_values = tuple(float(pi) for pi in pi_values)
    ansatzes = [AnsatzSpec(ansatz_kind, angle_for_expectation(ansatz_kind, target, pi))
                for pi in pi_values]
    if not ansatzes:  # nothing to sample; the curves' own checks reject them
        return tuple(LikelihoodCurve(layers, (), (), ()) for layers in depths)
    for layers in depths:
        check_circuit(ansatzes[0], target, layers, lam)
    expectations = expectation_values(
        np.array([ansatz_state(ansatz) for ansatz in ansatzes]), target)
    curves = []
    for layers, seed in zip(depths, seeds):
        p_even = chebyshev_parity_probability(expectations, lam, layers, 0)
        rates = np.array(sample_parities(p_even, n_shots, seed)) / n_shots
        # sqrt and division are correctly rounded, so these equal the
        # scalar math-module values bit for bit
        std_errs = np.maximum(np.sqrt(rates * (1.0 - rates) / n_shots), 0.5 / n_shots)
        curves.append(LikelihoodCurve(layers, pi_values, tuple(rates.tolist()),
                                      tuple(std_errs.tolist())))
    return tuple(curves)
