"""Closed-form guarantee values for the gap-augmented secretary algorithms.

Everything here is deterministic arithmetic on the published bound formulas;
the Monte Carlo engine checks simulated ratios against these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import _check_index

__all__ = [
    "GuaranteeReport",
    "FrontierPoint",
    "TWO_BEST_UPPER_BOUND",
    "tau_for_k",
    "alpha_exact",
    "alpha_exact_values",
    "guarantee_exact_gap",
    "robustness",
    "consistency",
    "frontier",
    "guarantee_bounded_error",
    "two_three_tie_prob",
    "l_selection_bound",
]

# Hardness reference for the zero-gap (two-best) special case; documented
# constant only, never computed here.
TWO_BEST_UPPER_BOUND = 0.5736

# Input limits that keep the grid and series arrays small: the frontier grid
# holds about (1/grid_step)^2 points (4e6 at the minimum step), and the exact
# tie series one term per index below n.
MIN_GRID_STEP = 0.0005
MAX_TIE_N = 10**6

# The largest gap index k or selection budget L the formulas take: up to it
# every value is finite and the tuned tau is positive (at k = 10^18 it
# rounds to 0, and past about 10^308 the index no longer fits a float).
MAX_INDEX = 2**53

# Gap indices per block of the acceptance gate's scan of the exact-gap bound
# over k: no index array the scan makes is larger.
BLOCK_POINTS = 2**16


@dataclass(frozen=True)
class GuaranteeReport:
    """A competitive-ratio lower bound together with the sub-terms compared.

    ``alpha`` equals the min/max composition of ``components``;
    ``binding_term`` names the component realizing the outer min.
    ``penalty_form`` is set when the guarantee carries an additive loss.
    """

    alpha: float
    components: dict[str, float] = field(default_factory=dict)
    binding_term: str = ""
    penalty_form: str | None = None

    def as_dict(self) -> dict:
        out = {
            "alpha": self.alpha,
            "components": dict(self.components),
            "binding_term": self.binding_term,
        }
        if self.penalty_form is not None:
            out["penalty_form"] = self.penalty_form
        return out


@dataclass(frozen=True)
class FrontierPoint:
    """Best consistency achievable at a required level of robustness."""

    robustness_target: float
    tau: float
    gamma: float
    consistency: float
    feasible: bool = True


def _check_k(k: int) -> None:
    _check_index(k, "gap index k", 2, MAX_INDEX)


def _check_reciprocal(tau: float) -> None:
    # the formulas read ln(1/tau), inf below about 5.6e-309; -ln(tau) would
    # stay finite but differs from it in the last bit at many grid taus
    if not math.isfinite(1.0 / tau):
        raise ValueError("1/tau must be finite (tau above about 5.6e-309)")


def _check_schedule(tau: float, gamma: float = 0.0) -> None:
    # Closed upper end: the bound formulas are continuous at gamma = 1 - tau
    # and the classical-recovery point sits exactly there.
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    _check_reciprocal(tau)
    if not 0.0 <= gamma <= 1.0 - tau:
        raise ValueError("gamma must lie in [0, 1 - tau]")


def tau_for_k(k: int) -> float:
    """Waiting time tuned to the gap index: 1 - (1/(k+1))^(1/k)."""
    _check_k(k)
    return 1.0 - math.exp(-math.log(k + 1) / k)


def _alpha_terms(tau, k):
    """The three compared terms of the exact-gap bound, vectorized.

    case1  : (1-tau) * k / (2(k-1))          -- large-gap case
    alpha3 : ((k+1)/(2k)) * (1 - tau - (1-tau)^(k+1))
    alpha4 : (3/2) tau ln(1/tau) - (1/2) tau (1-tau)
    """
    tau = np.asarray(tau, dtype=float)
    k = np.asarray(k, dtype=float)
    case1 = (1.0 - tau) * k / (2.0 * (k - 1.0))
    alpha3 = (k + 1.0) / (2.0 * k) * (1.0 - tau - (1.0 - tau) ** (k + 1.0))
    alpha4 = 1.5 * tau * np.log(1.0 / tau) - 0.5 * tau * (1.0 - tau)
    return case1, alpha3, alpha4


def alpha_exact_values(tau, ks) -> np.ndarray:
    """Vectorized exact-gap bound min(case1, max(alpha3, alpha4)) over ``ks``."""
    case1, alpha3, alpha4 = _alpha_terms(tau, ks)
    return np.minimum(case1, np.maximum(alpha3, alpha4))


def alpha_exact(tau: float, k: int) -> GuaranteeReport:
    """Exact-gap competitive-ratio bound for waiting time ``tau`` and index ``k``."""
    _check_schedule(tau)
    _check_k(k)
    case1, alpha3, alpha4 = (float(x) for x in _alpha_terms(tau, k))
    inner = max(alpha3, alpha4)
    alpha = min(case1, inner)
    if alpha == case1 and case1 <= inner:
        binding = "case1"
    else:
        binding = "alpha3" if alpha3 >= alpha4 else "alpha4"
    return GuaranteeReport(
        alpha=alpha,
        components={"case1": case1, "alpha3": alpha3, "alpha4": alpha4},
        binding_term=binding,
    )


def guarantee_exact_gap(k: int) -> float:
    """Stated guarantee at the tuned waiting time: max(0.4, (1/2)(1/(k+1))^(1/k))."""
    _check_k(k)
    return max(0.4, 0.5 * math.exp(-math.log(k + 1) / k))


def _schedule_terms(tau, gamma, logs=None):
    """Robustness and the two small-gap terms of the robust-consistent bound,
    vectorized.

    robustness : tau ln(1/(1-gamma))
    alpha1     : 1 - gamma - tau + tau ln(1/(1-gamma))
    alpha2     : (1/2) [(1+gamma)(1-tau-gamma) + tau ln(1/tau) + tau ln(1/(1-gamma))]

    ``logs`` may give (ln(1/tau), ln(1/(1-gamma))) already computed, shaped
    like ``tau`` and ``gamma``.
    """
    tau = np.asarray(tau, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if logs is None:
        logs = np.log(1.0 / tau), np.log(1.0 / (1.0 - gamma))
    log_tau, log_gamma = logs
    rob = tau * log_gamma
    alpha1 = (1.0 - gamma) - tau + rob
    alpha2 = (((1.0 - tau) - gamma) * (1.0 + gamma) + tau * log_tau + rob) * 0.5
    return rob, alpha1, alpha2


def robustness(tau: float, gamma: float) -> float:
    """Competitive ratio guaranteed regardless of prediction error:
    tau * ln(1/(1-gamma))."""
    _check_schedule(tau, gamma)
    return float(_schedule_terms(tau, gamma)[0])


def consistency(tau: float, gamma: float, k_aggregation="worst-case") -> GuaranteeReport:
    """Competitive-ratio bound of the robust-consistent rule on an accurate gap.

    ``k_aggregation`` is either a specific gap index (int >= 2) or
    ``"worst-case"``: the infimum over k of the gap-case term
    max(alpha3(k), alpha4), which is alpha4, reached at k = 2. alpha4 does
    not depend on k and exceeds alpha3(2) on (0, 1): alpha4 - alpha3(2) =
    tau [(3/2) ln(1/tau) - (1-tau)(2 - (3/4) tau)], and ln(1/tau) >=
    2(1-tau)/(1+tau) reduces its sign to that of (3/4) tau^2 - (5/4) tau + 1,
    a quadratic with no real root.
    """
    _check_schedule(tau, gamma)
    _, alpha1, alpha2 = (float(x) for x in _schedule_terms(tau, gamma))
    components = {"alpha1": alpha1, "alpha2": alpha2}
    if k_aggregation == "worst-case":
        _, _, alpha4 = (float(x) for x in _alpha_terms(tau, 2))
        components["alpha4"] = alpha4
        components["worst_case_gap_term"] = alpha4
        gap_case, gap_name = alpha4, "alpha4"
    else:
        _check_k(k_aggregation)
        _, alpha3, alpha4 = (float(x) for x in _alpha_terms(tau, k_aggregation))
        components["alpha3"] = alpha3
        components["alpha4"] = alpha4
        gap_case = max(alpha3, alpha4)
        gap_name = "alpha3" if alpha3 >= alpha4 else "alpha4"
    small = min(alpha1, alpha2)
    alpha = min(small, gap_case)
    if alpha == small and small <= gap_case:
        binding = "alpha1" if alpha1 <= alpha2 else "alpha2"
    else:
        binding = gap_name
    return GuaranteeReport(alpha=alpha, components=components, binding_term=binding)


def frontier(
    robustness_targets,
    grid_step: float = 0.001,
    k_aggregation="worst-case",
) -> list[FrontierPoint]:
    """Best consistency for each required robustness level, by grid search.

    For every target r the search maximizes consistency(tau, gamma,
    k_aggregation) over the (tau, gamma) grid subject to
    robustness(tau, gamma) >= r; ties go to the lexicographically smallest
    (tau, gamma). Targets beyond the grid's reach come back infeasible.
    The worst-case aggregation is the k = 2 frontier (see ``consistency``).

    Along a tau row, on gamma < 1 - tau, robustness strictly rises with
    gamma and consistency never does: d(alpha1)/d(gamma) = -1 +
    tau/(1-gamma) < 0, d(alpha2)/d(gamma) = (1/2) gamma (tau/(1-gamma) - 2)
    <= 0, and the gap-case term does not read gamma. So a row's best point
    for r is its first column whose robustness reaches r, one binary search
    per row. Rows are taken in grid order, a later one winning only by a
    strictly larger consistency.
    """
    targets = list(robustness_targets)
    if not targets:
        raise ValueError("at least one robustness target required")
    if any(not r >= 0 for r in targets):
        raise ValueError("robustness targets must be non-negative")
    if not MIN_GRID_STEP <= grid_step <= 0.1:
        raise ValueError(f"grid step must lie in [{MIN_GRID_STEP}, 0.1]")

    steps = int(round(1.0 / grid_step))
    taus = np.arange(1, steps) * grid_step
    gammas = np.arange(0, steps) * grid_step
    k = 2 if k_aggregation == "worst-case" else k_aggregation
    _check_k(k)
    _, alpha3, alpha4 = _alpha_terms(taus, k)
    gap_case = np.maximum(alpha3, alpha4)
    # the 1-D log terms, taken once over the whole axes so that every row's
    # grid values equal those of the whole grid bit for bit
    log_tau = np.log(1.0 / taus)
    log_gamma = np.log(1.0 / (1.0 - gammas))

    r = np.array(targets, dtype=float)
    best = np.full(r.size, -np.inf)
    best_tau = np.zeros(r.size, dtype=np.intp)
    best_gamma = np.zeros(r.size, dtype=np.intp)
    for i, tau in enumerate(taus):
        cols = int(np.searchsorted(gammas, (1.0 - tau) - 1e-9))  # gamma < 1 - tau
        rob, alpha1, alpha2 = _schedule_terms(tau, gammas[:cols], (log_tau[i], log_gamma[:cols]))
        cons = np.minimum(np.minimum(alpha1, alpha2), gap_case[i])
        at = np.searchsorted(rob, r)  # the first column reaching r, cols if none does
        value = np.append(cons, -np.inf)[at]
        better = value > best
        best[better] = value[better]
        best_tau[better] = i
        best_gamma[better] = at[better]

    points = []
    for target, value, ti, gi in zip(targets, best, best_tau, best_gamma):
        if value == -math.inf:
            points.append(FrontierPoint(float(target), math.nan, math.nan, math.nan, False))
        else:
            points.append(
                FrontierPoint(float(target), float(taus[ti]), float(gammas[gi]), float(value))
            )
    return points


def guarantee_bounded_error(tau: float, k: int) -> GuaranteeReport:
    """Bounded-error guarantee: same alpha as the exact-gap bound, holding
    with an additive loss of twice the error bound."""
    return replace(alpha_exact(tau, k), penalty_form="alpha * w1 - 2 * epsilon")


def two_three_tie_prob(tau: float, n: int | None = None) -> float:
    """Probability that the strict-threshold rule selects the best element on
    instances whose second and third weights tie.

    Default is the large-n approximation (1/2) tau (1-tau)^2 + tau ln(1/tau);
    passing ``n`` evaluates the exact finite-n sum instead.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    _check_reciprocal(tau)
    base = 0.5 * tau * (1.0 - tau) ** 2
    if n is None:
        return base + tau * math.log(1.0 / tau)
    _check_index(n, "exact mode n", 3, MAX_TIE_N)
    i = np.arange(1, n, dtype=float)
    series = float(np.sum(tau * (1.0 - tau) ** i / i))
    return base + series + (1.0 - tau) ** n / n


def l_selection_bound(L: int, beta: float) -> float:
    """Multi-selection guarantee 1/e + (beta/(2e)) (1 - 1/L + 1/(L e^L)).

    ``beta`` is the fraction of the optimum covered by the L-th largest
    weight, hence at most 1/L.
    """
    _check_index(L, "L", 2, MAX_INDEX)
    if not 0.0 <= beta <= 1.0 / L:
        raise ValueError("beta must lie in [0, 1/L]")
    e = math.e
    return 1.0 / e + (beta / (2.0 * e)) * (1.0 - 1.0 / L + math.exp(-L) / L)
