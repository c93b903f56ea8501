"""Single-pass execution of each threshold algorithm on one (profile, draw).

All runners are pure functions. They compare weights in the profile's
normalized linear view and rescale the supplied gap into the same units, so
outcomes match the raw-scale definitions exactly (scale covariance) while
staying safe for profiles whose raw linear weights would over/underflow.

Each argument rule is stated once, on the path every runner takes:
``_check_tau`` (tau in [0, 1)) in the prologue of ``_first_acceptance`` and
of ``run_l_selection_gap``, and the gap test in ``_normalized_view``, which
every runner's gap passes through: a negative or NaN gap is refused, and a
+inf gap accepts nothing. ``L`` is an integer (``core._check_index``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ArrivalDraw, SelectionOutcome, WeightProfile, _check_index, _check_matching

__all__ = [
    "PolicySchedule",
    "MultiSelectionOutcome",
    "run_classical",
    "run_exact_gap",
    "run_robust_consistent",
    "run_bounded_error",
    "run_strict_classical",
    "run_l_selection_gap",
]


@dataclass(frozen=True)
class PolicySchedule:
    """Waiting time ``tau`` plus the late-phase length ``gamma`` used by the
    robust-consistent algorithm (``gamma = 0`` disables the late phase).
    ``tau`` obeys the runners' rule, ``_check_tau``."""

    tau: float
    gamma: float = 0.0

    def __post_init__(self):
        _check_tau(self.tau)
        if not 0.0 <= self.gamma < 1.0 - self.tau:
            raise ValueError("gamma must lie in [0, 1 - tau)")


@dataclass(frozen=True)
class MultiSelectionOutcome:
    """Ordered acceptances of the multi-selection algorithm.

    ``accepted`` holds (element index, weight, accept time) triples in
    acceptance order; ``reference_trace``, when requested, records the
    reference set after each post-waiting arrival.
    """

    accepted: tuple[tuple[int, float, float], ...]
    reference_trace: tuple[tuple[float, tuple[int, ...]], ...] | None = None

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _, _ in self.accepted)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w, _ in self.accepted))


def _check_tau(tau: float) -> None:
    """The waiting-time rule of every runner: tau in [0, 1), so not NaN."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")


def _normalized_view(profile: WeightProfile, gap: float) -> tuple[np.ndarray, float]:
    """Normalized weights plus the gap rescaled into the same units.

    The gap rule of every runner: the gap is non-negative, so not NaN; +inf
    is legal and accepts nothing (``core.true_gap`` returns it when the raw
    weights overflow). Saturation is the right answer at the extremes: a gap
    that dwarfs every representable weight maps to +inf (nothing passes), a
    negligible one maps to 0.
    """
    if not gap >= 0.0:
        raise ValueError(f"gap must be non-negative, got {gap}")
    m = profile.max_log_weight
    w = profile.normalized_weights
    if gap == 0.0 or m == -math.inf or m == 0.0:
        return w, gap
    with np.errstate(over="ignore", under="ignore"):
        scaled = float(gap * np.exp(np.float64(-m)))
    return w, scaled


def _first_acceptance(
    profile: WeightProfile,
    arrivals: ArrivalDraw,
    tau: float,
    gap: float,
    gamma: float = 0.0,
    strict: bool = False,
) -> SelectionOutcome:
    """Accept the first post-``tau`` element meeting the active threshold.

    Until time ``1 - gamma`` the threshold is max(best-so-far, gap); after
    that it drops to best-so-far alone. ``strict`` switches the comparison
    from >= to > (and is only used with ``gap = 0``). The prologue checks
    tau, the draw's size and the gap for all five single-selection runners.
    """
    _check_tau(tau)
    _check_matching(profile, arrivals)
    w, gap = _normalized_view(profile, gap)
    times = arrivals.times
    pre = times <= tau
    bsf = float(np.max(w[pre])) if pre.any() else 0.0
    thr_gap = max(bsf, gap)
    boundary = 1.0 - gamma
    for i in arrivals.order:
        t = times[i]
        if t <= tau:
            continue
        if t <= boundary:
            hit = (w[i] > thr_gap) if strict else (w[i] >= thr_gap)
        else:
            hit = w[i] >= bsf
        if hit:
            i = int(i)
            return SelectionOutcome(i, profile.weight(i), float(t))
    return SelectionOutcome.nothing()


def run_classical(profile: WeightProfile, arrivals: ArrivalDraw, tau: float) -> SelectionOutcome:
    """Classical secretary rule: accept the first element after ``tau`` whose
    weight is at least the best weight observed during the waiting phase."""
    return _first_acceptance(profile, arrivals, tau, 0.0)


def run_exact_gap(
    profile: WeightProfile, arrivals: ArrivalDraw, tau: float, c: float
) -> SelectionOutcome:
    """Gap-augmented rule: accept the first post-``tau`` element with weight
    at least max(best-so-far, c)."""
    return _first_acceptance(profile, arrivals, tau, c)


def run_robust_consistent(
    profile: WeightProfile,
    arrivals: ArrivalDraw,
    schedule: PolicySchedule,
    c_hat: float,
) -> SelectionOutcome:
    """Two-threshold rule hedging against bad gap predictions.

    Between ``tau`` and ``1 - gamma`` the threshold is max(best-so-far,
    c_hat); afterwards the gap is dropped and only best-so-far remains.
    """
    return _first_acceptance(
        profile, arrivals, schedule.tau, c_hat, gamma=schedule.gamma
    )


def run_bounded_error(
    profile: WeightProfile,
    arrivals: ArrivalDraw,
    tau: float,
    c_tilde: float,
    epsilon: float,
) -> SelectionOutcome:
    """Bounded-error rule: threshold term is the prediction lowered by the
    error bound, max(c_tilde - epsilon, 0).

    The term would hide a negative ``c_tilde``, so both are tested here
    (NaN fails too). ``epsilon = inf`` gives the classical rule; with
    ``c_tilde = inf`` too the term is inf - inf, undefined, and refused.
    """
    if not (c_tilde >= 0.0 and epsilon >= 0.0):
        raise ValueError("predicted gap and error bound must be non-negative")
    if c_tilde == epsilon == math.inf:
        raise ValueError("c_tilde and epsilon cannot both be inf: c_tilde - epsilon is undefined")
    return _first_acceptance(profile, arrivals, tau, max(c_tilde - epsilon, 0.0))


def run_strict_classical(
    profile: WeightProfile, arrivals: ArrivalDraw, tau: float
) -> SelectionOutcome:
    """Classical rule with a strict comparison: elements tying the observed
    maximum are rejected."""
    return _first_acceptance(profile, arrivals, tau, 0.0, strict=True)


def run_l_selection_gap(
    profile: WeightProfile,
    arrivals: ArrivalDraw,
    tau: float,
    c: float,
    L: int,
    trace: bool = False,
) -> MultiSelectionOutcome:
    """Multi-selection (virtual-algorithm) rule with an additive gap.

    A reference set tracks the ``L`` highest weights seen so far that reach
    the gap; it is seeded at ``tau`` with the ``L`` highest pre-``tau``
    arrivals. Every post-``tau`` arrival with weight at least max(r_L, c)
    displaces the current L-th reference element r_L, and the arrival is
    *accepted* exactly when the displaced r_L dates from the waiting phase.
    While fewer than ``L`` elements are tracked, r_L is a placeholder of
    weight 0 that counts as a pre-``tau`` arrival, so early acceptances are
    governed by the gap alone. Displacements happen whether or not the
    arrival is accepted; this is what keeps the reference set equal to the
    top-L qualifying weights seen so far, which the guarantee relies on.
    """
    _check_tau(tau)
    _check_matching(profile, arrivals)
    _check_index(L, "L", 1, profile.n)
    w, gap = _normalized_view(profile, c)
    times = arrivals.times
    pre_idx = [int(i) for i in arrivals.order if times[i] <= tau]
    pre_idx.sort(key=lambda i: (-w[i], i))
    # entries are (weight, index, arrived before tau); kept sorted descending
    ref: list[tuple[float, int, bool]] = [(float(w[i]), i, True) for i in pre_idx[:L]]

    accepted: list[tuple[int, float, float]] = []
    snapshots: list[tuple[float, tuple[int, ...]]] = []
    for i in arrivals.order:
        i = int(i)
        t = float(times[i])
        if t <= tau:
            continue
        if len(ref) < L:
            r_weight, r_pre = 0.0, True
        else:
            r_weight, r_pre = ref[-1][0], ref[-1][2]
        if w[i] >= max(r_weight, gap):
            if r_pre:
                accepted.append((i, profile.weight(i), t))
            if len(ref) == L:
                ref.pop()  # placeholder eviction is a no-op on the list
            entry = (float(w[i]), i, False)
            pos = 0
            while pos < len(ref) and (-ref[pos][0], ref[pos][1]) < (-entry[0], entry[1]):
                pos += 1
            ref.insert(pos, entry)
        if trace:
            snapshots.append((t, tuple(e[1] for e in ref)))
    return MultiSelectionOutcome(
        tuple(accepted), tuple(snapshots) if trace else None
    )
