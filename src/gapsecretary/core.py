"""Domain types and primitives shared by every gap-augmented secretary algorithm.

Weights live in natural-log space so that heavy-tailed instance families
(uniforms raised to powers near 3000) stay representable; every linear
comparison goes through a view normalized by the maximum weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "WeightProfile",
    "ArrivalDraw",
    "SelectionOutcome",
    "best_so_far",
    "true_gap",
    "normalize",
    "normalize_rows",
]


@dataclass(frozen=True)
class WeightProfile:
    """A multiset of non-negative element weights, stored as natural logs.

    ``log_weights[i]`` is log(w_i); ``-inf`` encodes a zero weight. Linear
    views are derived on demand:

    * ``weights`` reproduces the original linear values (may over/underflow
      float64 for extreme logs),
    * ``normalized_weights`` rescales so the maximum is exactly 1 and is safe
      for any finite log range.
    """

    log_weights: np.ndarray

    def __post_init__(self):
        lw = np.atleast_1d(np.asarray(self.log_weights, dtype=float))
        if lw.ndim != 1 or lw.size < 1:
            raise ValueError("a weight profile needs at least one weight")
        if np.isnan(lw).any() or (lw == math.inf).any():
            raise ValueError("log-weights must be finite or -inf")
        lw = lw.copy()
        lw.setflags(write=False)
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def from_weights(cls, weights) -> "WeightProfile":
        """Build a profile from linear weights (each >= 0 and finite)."""
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.size < 1:
            raise ValueError("a weight profile needs at least one weight")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and non-negative")
        with np.errstate(divide="ignore"):
            return cls(np.log(w))

    @property
    def n(self) -> int:
        return int(self.log_weights.size)

    @property
    def max_log_weight(self) -> float:
        return float(np.max(self.log_weights))

    @property
    def weights(self) -> np.ndarray:
        """Linear view in the original scale."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_weights)

    @cached_property
    def normalized_weights(self) -> np.ndarray:
        """Linear view rescaled so the maximum weight is exactly 1.

        An all-zero profile stays all zero.
        """
        m = self.max_log_weight
        if m == -math.inf:
            out = np.zeros(self.n)
        else:
            out = np.exp(self.log_weights - m)
        out.setflags(write=False)
        return out

    def weight(self, i: int) -> float:
        """Linear weight of element ``i`` (original scale)."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_weights[i]))

    @cached_property
    def sorted_indices(self) -> np.ndarray:
        """Element indices ordered from largest to smallest weight.

        Equal weights keep the lower original index first.
        """
        order = np.argsort(-self.log_weights, kind="stable")
        order.setflags(write=False)
        return order

    def sorted_index(self, j: int) -> int:
        """Original index of the j-th largest weight, 1-based j."""
        _check_index(j, "rank j", 1, self.n)
        return int(self.sorted_indices[j - 1])


@dataclass(frozen=True)
class ArrivalDraw:
    """One realization of the elements' arrival times on [0, 1]."""

    times: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        if t.ndim != 1 or t.size < 1:
            raise ValueError("an arrival draw needs at least one time")
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise ValueError("arrival times must lie in [0, 1]")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def n(self) -> int:
        return int(self.times.size)

    @cached_property
    def order(self) -> np.ndarray:
        """Element indices in arrival order; simultaneous arrivals keep the
        lower index first."""
        order = np.argsort(self.times, kind="stable")
        order.setflags(write=False)
        return order


@dataclass(frozen=True)
class SelectionOutcome:
    """Which element (if any) a single-selection algorithm accepted."""

    accepted_index: int | None
    accepted_weight: float
    accept_time: float | None

    def __post_init__(self):
        if (self.accepted_index is None) != (self.accept_time is None):
            raise ValueError("accepted_index and accept_time must be set together")
        if self.accepted_index is None and self.accepted_weight != 0.0:
            raise ValueError("an empty outcome carries weight 0")

    @classmethod
    def nothing(cls) -> "SelectionOutcome":
        return cls(None, 0.0, None)

    @property
    def accepted(self) -> bool:
        return self.accepted_index is not None


def _is_int(value) -> bool:
    """A Python or numpy integer; neither a bool nor a float is one, even a
    whole float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_index(value, name: str, lo: int, hi: int | None = None) -> None:
    """The index rule, stated once for every index argument outside the
    engine: ``value`` is an integer (``_is_int``) in [lo, hi], or at least
    ``lo`` when ``hi`` is None. ``name`` names the argument in the message."""
    if not (_is_int(value) and lo <= value and (hi is None or value <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}")


def _check_matching(profile: WeightProfile, arrivals: ArrivalDraw) -> None:
    if profile.n != arrivals.n:
        raise ValueError(
            f"arrival draw has {arrivals.n} times for a profile of {profile.n} weights"
        )


def best_so_far(profile: WeightProfile, arrivals: ArrivalDraw, tau: float) -> float:
    """Maximum weight among elements arriving at or before ``tau``.

    Returns 0 when nothing has arrived yet: weights are non-negative, so 0
    is the neutral threshold for an empty prefix.
    """
    _check_matching(profile, arrivals)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    mask = arrivals.times <= tau
    if not mask.any():
        return 0.0
    return float(np.max(profile.weights[mask]))


def true_gap(profile: WeightProfile, k: int) -> float:
    """Realized additive gap: largest weight minus k-th largest weight; inf
    when the gap exceeds float64, as ``WeightProfile.weights`` overflows."""
    _check_index(k, "gap index k", 2, profile.n)
    order = profile.sorted_indices
    top = profile.log_weights[order[0]]
    kth = profile.log_weights[order[k - 1]]
    if kth == top:  # tied, all-zero included: no 0 * inf
        return 0.0
    # w1 - wk = exp(top) * (1 - exp(kth - top)), computed without cancellation
    with np.errstate(over="ignore"):
        return float(np.exp(top) * -math.expm1(kth - top))


def normalize(profile: WeightProfile) -> WeightProfile:
    """Shift log-weights so the maximum linear weight is exactly 1.

    All-zero profiles pass through unchanged; the operation is idempotent.
    """
    m = profile.max_log_weight
    if m == -math.inf or m == 0.0:
        return profile
    return WeightProfile(profile.log_weights - m)


def normalize_rows(log_weights: np.ndarray) -> np.ndarray:
    """Shift each row of a 2-D log-weight array in place so that its maximum
    is 0, as :func:`normalize` shifts one profile; returns the row maxima.

    Rows are checked as ``WeightProfile`` checks a profile. All-zero rows
    (maximum -inf) stay as they are.
    """
    m = np.max(log_weights, axis=1)
    if np.isnan(m).any() or (m == math.inf).any():
        raise ValueError("log-weights must be finite or -inf")
    log_weights -= np.where(m == -math.inf, 0.0, m)[:, None]
    return m
