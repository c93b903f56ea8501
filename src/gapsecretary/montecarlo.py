"""Experiment engine: competitive-ratio estimation, parameter sweeps, and an
exhaustive small-instance expectation oracle.

Reproducibility contract: the draws for iteration i are a pure function of
(master_seed, i), so results are bit-identical across runs and across chunk
sizes. The engine runs in one thread (numpy does the bulk work), and
reductions happen in iteration order.

Every single-selection rule is one threshold policy ``(tau, gap, gamma,
strict)``: after ``tau``, accept the first arrival at or above max(best-so-far,
gap), or above it when strict, and after time 1 - ``gamma`` at or above
best-so-far alone. ``_threshold_term`` gives every rule's gap term in
normalized units, from a ``GapSpec`` or raw-unit gap values; it is the one
place where raw-unit quantities are rescaled. ``_policy`` maps each tag and
term to that record, and one of two kernels runs it over a chunk of draws.
Each kernel is split in two: a state that does not depend on the gap, built
once per ``tau``, and a pass per gap that reads it:

* ``_threshold_state`` and ``_threshold_pass`` take (rows, n) weights, one
  instance per row, and the pass takes a sequence of gaps and yields one
  result per gap: the generated and replayed batches of every estimate and
  sweep (``_run_threshold_rows`` runs both parts on one chunk). Only a
  post-``tau`` element at or above best-so-far can be accepted, under any
  gap or ``gamma``, so the state keeps just those candidates, as flat
  arrays in row-major order (about 4 per row at ``tau`` = 0.2, n = 200;
  every element at ``tau`` = 0), and a pass reads nothing else: one
  comparison with the gap, one with 1 - ``gamma``, and a segment minimum
  of the passing arrival times per row. A candidate at a larger ``tau`` is
  one at a smaller ``tau`` too, so ``_narrowed_state`` reads the state at a
  larger ``tau`` off the candidates of one at a smaller ``tau``;
* ``_fixed_profile_state`` and ``_fixed_profile_pass`` take one weight
  vector and the (n, rows) columns of its arrival times, swept column by
  column: ``simulate_fixed_profile`` and ``simulate_fixed_profile_rules``,
  where only the arrival order is random and several rules share one draw
  (``_run_fixed_profile`` runs both parts on one chunk).

The multi-selection rule runs through ``_run_l_select_rows``. Its reference
set holds the top-L weights seen so far of Q, the pre-``tau`` elements and
the post-``tau`` ones at or above the gap, so its L-th weight r_L starts at
theta, the L-th largest pre-``tau`` weight (0 with fewer than L), and never
falls. A post-``tau`` element of Q enters it, a hit, exactly when fewer than
L strictly heavier elements of Q arrived before it. That reads weights
only, so it holds with ties. Only the pre-``tau`` elements at or above theta
and the post-``tau`` ones at or above max(theta, gap) can be a hit or decide
one (``_l_select_kept``), so the kernel cuts each row to them, padded to the
widest row of the chunk: about 10 of 200 per row at L = 2 and ``tau`` = 0.2
(the widest of 81 rows about 32), and most of the row at ``tau`` = 0 or a
large L. It ranks those alone, ``_l_select_hits`` finds every hit with L
running minima over their arrival positions, and the kernel walks the hits
alone, every row's r-th hit in round r. The top-L total and the best index,
which do not depend on the gap, come from the batch.

Every kernel takes normalized weights and gaps only. The per-draw runners in
``algorithms`` are the tests' reference for every kernel, and the row kernel
on a broadcast weight vector is the reference for the fixed-profile one.

An experiment cell is an ``(AlgorithmSpec, GapSpec)`` pair; ``_check_cell``
validates it for one instance size. ``_run_cells`` is the one driver every
estimate goes through: it takes row chunks from one instance source
(generated or replayed) and evaluates each distinct cell on each chunk. The
single-selection cells of a chunk are grouped by their policy's ``(tau,
gamma, strict)``, and each group is one row-kernel pass over the chunk's
state at its tau: a sigma sweep at one tau is one state and one pass per
chunk, and a k-sweep at tuned taus builds one state from the weights and
narrows it for each larger tau. Each cell's outcomes are cut to what its estimate
reads as they are yielded, and a cell is reduced once its last chunk is done.

Generated instances are a pure function of (family, n, iterations,
master_seed), so the last batch that covered a whole run in one chunk is
memoized under that key in ``_last_batch``, its weights, times and
``max_log`` marked read-only. The batch carries the gap-independent work
done on it: the j-th largest weight of each row for every rank a gap has
read and the total of its L largest weights for every L an l-select cell
has read (one (rows,) column each, taken from one sort per call that needs
a new one, the sorted matrix dropped at once), and the threshold state of
the last ``tau`` asked (its candidates, best-so-far and the best index),
which serves every ``gamma`` and strictness at that ``tau`` and is
narrowed for a larger one. The next
estimate with the same key gets the same batch: it draws, sorts and
prepares nothing an earlier one did, and its arrays are what a fresh draw
gives, bit for bit.
The memo is dropped before any other instances or arrival times are drawn
(``_draw_rows``, ``_replay_batch``, ``simulate_fixed_profile_rules``), so
no later draw holds it beside its own batch, and a run of several chunks
leaves nothing behind. Until that next draw the last whole-run batch stays
resident (two (iterations, n) float arrays, up to about 80 MB for a full
chunk, plus its rank columns and the three candidate arrays of one
``tau``, 24 bytes per candidate: about 0.5 MB at ``tau`` = 0.2, n = 200
and 5000 iterations, 24 MB at ``tau`` = 0), also while other work that
draws nothing runs in the same process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .bounds import tau_for_k
from .core import WeightProfile, normalize_rows
from .generators import InstanceFamily, SeededRng

__all__ = [
    "ALGORITHM_TAGS",
    "GAP_TAGS",
    "ConfigError",
    "AlgorithmSpec",
    "GapSpec",
    "ExperimentConfig",
    "RatioEstimate",
    "SweepCell",
    "estimate_ratio",
    "per_iteration_outcomes",
    "batch_ratio_for_profiles",
    "regenerate_profiles",
    "sweep_k",
    "sweep_sigma",
    "exact_expectation_small_n",
    "estimate_l_selection",
    "simulate_fixed_profile",
    "simulate_fixed_profile_rules",
]

ALGORITHM_TAGS = (
    "classical",
    "exact-gap",
    "robust",
    "bounded",
    "strict-classical",
    "l-select",
)

_SINGLE_SELECTION = ALGORITHM_TAGS[:5]

GAP_TAGS = ("exact-gap", "robust", "bounded", "l-select")

CLASSICAL_BASELINE_TAU = 1.0 / math.e


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI usage errors)."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm tag plus the parameters it actually uses."""

    tag: str
    tau: float = 0.2
    gamma: float = 0.0
    epsilon: float = 0.0
    L: int = 1

    def __post_init__(self):
        if self.tag not in ALGORITHM_TAGS:
            raise ConfigError(f"unknown algorithm tag {self.tag!r}")
        if not all(math.isfinite(v) for v in (self.tau, self.gamma, self.epsilon)):
            raise ConfigError("tau, gamma and epsilon must be finite")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError("tau must lie in [0, 1)")
        if self.tag == "robust" and not 0.0 <= self.gamma < 1.0 - self.tau:
            raise ConfigError("gamma must lie in [0, 1 - tau)")
        if self.epsilon < 0.0:
            raise ConfigError("epsilon must be non-negative")
        if self.tag == "l-select" and self.L < 2:
            raise ConfigError("L must be an integer >= 2")

    @property
    def uses_gap(self) -> bool:
        return self.tag in GAP_TAGS


@dataclass(frozen=True)
class GapSpec:
    """How the predicted gap is produced for each generated instance.

    The prediction is ``sigma`` times a base gap: the instance's realized gap
    at index ``k``, or the raw-unit value ``absolute`` (the index-unknown
    regime), which takes precedence over ``k``.
    """

    k: int | None = None
    sigma: float = 1.0
    absolute: float | None = None

    def __post_init__(self):
        if self.k is not None and self.k < 2:
            raise ConfigError("gap index k must be >= 2")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigError("sigma must be finite and non-negative")
        if self.absolute is not None:
            if not (math.isfinite(self.absolute) and self.absolute >= 0.0):
                raise ConfigError("absolute gap must be finite and non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment cell.

    Stream i draws iteration i's arrival times first, then its instance
    weights. A fixed (family, n, master_seed) triple therefore pins every
    iteration's draws regardless of the algorithm or gap evaluated on them,
    and replaying dumped instances under the same master seed reproduces the
    original arrival draws too.
    """

    family: InstanceFamily
    n: int
    iterations: int
    algorithm: AlgorithmSpec
    gap: GapSpec = GapSpec()
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        _check_cell(self.n, self.algorithm, self.gap)


def _check_cell(n: int, algorithm: AlgorithmSpec, gap: GapSpec) -> None:
    """Reject a (rule, gap) pair that instances of size ``n`` cannot evaluate."""
    if gap.k is not None and gap.k > n:
        raise ConfigError(f"gap index k={gap.k} exceeds n={n}")
    if algorithm.tag == "l-select":
        # the auto-computed gap, L-th minus (L+1)-th largest weight, is index-free
        if algorithm.L > n:
            raise ConfigError(f"L={algorithm.L} exceeds n={n}")
        if gap.absolute is None and algorithm.L > n - 1:
            raise ConfigError("the auto-computed gap needs L <= n - 1")
    elif algorithm.uses_gap and gap.k is None and gap.absolute is None:
        raise ConfigError("gap-using algorithms need a gap index k or an absolute gap value")


@dataclass(frozen=True)
class RatioEstimate:
    """Monte Carlo competitive-ratio estimate.

    ``mean`` averages per-iteration ratios (selected weight over that
    iteration's maximum).
    """

    mean: float
    stderr: float
    iterations: int
    select_best_prob: float
    none_prob: float


@dataclass(frozen=True)
class SweepCell:
    """One (k, sigma, algorithm) cell of a sweep table."""

    k: int | None
    sigma: float
    algo: str
    tau: float
    estimate: RatioEstimate


# ---------------------------------------------------------------------------
# Threshold policies and the vectorized single-selection kernel


class _Policy(NamedTuple):
    """A threshold rule: one ``_threshold_pass`` over the state at ``tau``
    takes ``gamma`` and ``strict`` once and the gaps of every rule sharing
    them."""

    tau: float
    gap: object  # scalar or (B,) array, in normalized units
    gamma: float
    strict: bool


def _policy(algorithm: AlgorithmSpec, term=0.0) -> _Policy:
    """The threshold policy of a single-selection rule whose threshold term,
    in normalized units, is ``term`` (see ``_threshold_term``)."""
    tag = algorithm.tag
    if tag == "l-select":
        raise ConfigError("l-select is not a threshold policy")
    gamma = algorithm.gamma if tag == "robust" else 0.0
    return _Policy(algorithm.tau, term, gamma, tag == "strict-classical")


class _ThresholdState(NamedTuple):
    """What threshold rules at one ``tau`` read of a chunk, whatever their
    gaps and gamma: its candidates, the post-``tau`` elements at or above
    best-so-far, as flat arrays in row-major order, the rows holding one
    with the start of each row's run in them, and per row best-so-far and
    the best index. Only a candidate can be accepted, under any gap and in
    the late phase alike."""

    index: np.ndarray  # (m,) the candidates' indices, ascending within a row
    weight: np.ndarray  # (m,)
    time: np.ndarray  # (m,)
    rows: np.ndarray  # (R,) the rows holding a candidate, ascending
    starts: np.ndarray  # (R,) where each of them starts in the candidates
    bsf: np.ndarray  # (B,)
    best_index: np.ndarray  # (B,)


def _threshold_state(
    weights: np.ndarray, times: np.ndarray, tau: float, best_index: np.ndarray
) -> _ThresholdState:
    """The state of threshold rules at ``tau`` over (B, n) ``weights`` and
    ``times`` whose rows' best indices are ``best_index``."""
    B, n = weights.shape
    pre = times <= tau
    # weights are finite and non-negative, so this is max(pre-tau weights, 0)
    bsf = np.max(weights * pre, axis=1)
    candidate = np.greater_equal(weights, bsf[:, None])
    candidate &= np.logical_not(pre, out=pre)
    position = np.flatnonzero(candidate)
    # row r's candidates start at the first position at or after r * n
    r = np.arange(B)
    starts = np.searchsorted(position, r * n)
    holds = np.diff(starts, append=position.size) > 0
    return _ThresholdState(
        position % n,
        weights.take(position),
        times.take(position),
        r[holds],
        starts[holds],
        bsf,
        best_index,
    )


def _narrowed_state(state: _ThresholdState, tau: float) -> _ThresholdState:
    """The state at ``tau`` of the chunk whose state at a smaller tau is
    ``state``, equal to a fresh build, read off its candidates alone.

    A candidate at ``tau`` is one at the smaller tau too, and of the elements
    arriving between the two, only a candidate can raise best-so-far: every
    other one lies below it."""
    index, weight, time, rows, starts, bsf, best_index = state
    crossed = time <= tau
    bsf = bsf.copy()
    bsf[rows] = np.maximum(bsf[rows], np.maximum.reduceat(weight * crossed, starts))
    keep = weight >= np.repeat(bsf[rows], np.diff(starts, append=weight.size))
    keep &= np.logical_not(crossed, out=crossed)
    counts = np.add.reduceat(keep, starts, dtype=np.intp)
    holds = counts > 0
    return _ThresholdState(
        index[keep],
        weight[keep],
        time[keep],
        rows[holds],
        (np.cumsum(counts) - counts)[holds],
        bsf,
        best_index,
    )


def _threshold_pass(state: _ThresholdState, gaps, gamma: float = 0.0, strict: bool = False):
    """Run the threshold rules that share ``state`` over a chunk of draws
    once for each gap in ``gaps``, yielding one result dict per gap, in
    order.

    Each gap is a scalar or (B,) array in the units of the chunk's weights.
    Mirrors the per-draw runners in ``algorithms``: threshold max(best-so-far,
    gap) after ``tau``, dropping to best-so-far after time 1 - ``gamma``;
    ``strict`` switches >= to >. The accepted element is the earliest
    candidate to pass, tied times to the lower index.

    Only the candidates of ``state`` are read. Each is at or above
    best-so-far, so it passes when it is at or above the gap, or arrives
    after 1 - ``gamma``. Each row's earliest passing time is a segment
    minimum (``np.minimum.reduceat``), and the first candidate of the row at
    that time, the lowest index, is accepted. Each result gets its own
    copy of the best index, so no result is a view of ``state``.
    """
    index, weight, time, rows, starts, bsf, best_index = state
    if strict and gamma > 0.0:
        raise ValueError("strict comparison has no late phase")
    B = bsf.size
    sizes = np.diff(starts, append=weight.size)

    def per_candidate(values):
        return np.repeat(np.take(values, rows), sizes)

    late = time > 1.0 - gamma if gamma > 0.0 else None
    for gap in gaps:
        if strict:
            passed = weight > per_candidate(bsf)
        else:
            passed = weight >= (gap if np.ndim(gap) == 0 else per_candidate(gap))
        if late is not None:
            passed |= late
        # every candidate arrives after tau >= 0, so a time divided by its
        # flag is the time itself when it passed and +inf when not
        with np.errstate(divide="ignore"):
            masked = time / passed
        earliest = np.minimum.reduceat(masked, starts)
        earliest[earliest == np.inf] = np.nan  # a row where none passed
        hits = np.flatnonzero(masked == np.repeat(earliest, sizes))
        # the first hit of each row's run is its lowest index
        run = np.searchsorted(starts, hits, side="right") - 1
        firsts = np.diff(run, prepend=-1) != 0
        first, accepted = hits[firsts], rows.take(run[firsts])
        out = {
            "accept_index": np.full(B, -1, dtype=np.intp),
            "accept_weight": np.zeros(B),
            "accept_time": np.full(B, np.nan),
            "best_index": best_index.copy(),
        }
        out["accept_index"][accepted] = index.take(first)
        out["accept_weight"][accepted] = weight.take(first)
        out["accept_time"][accepted] = time.take(first)
        yield out


def _run_threshold_rows(
    weights: np.ndarray,
    times: np.ndarray,
    tau: float,
    gaps,
    gamma: float = 0.0,
    strict: bool = False,
):
    """``_threshold_pass`` of the policy ``(tau, gamma, strict)`` over
    ``gaps``, its state built for this call alone."""
    state = _threshold_state(weights, times, tau, np.argmax(weights, axis=1))
    return _threshold_pass(state, gaps, gamma, strict)


class _FixedProfileState(NamedTuple):
    """What threshold rules at one ``tau`` read of (n, B) arrival-time
    columns of one weight vector: the post-``tau`` mask and best-so-far."""

    post: np.ndarray  # (n, B) bool
    bsf: np.ndarray  # (B,)


def _fixed_profile_state(w: np.ndarray, cols: np.ndarray, tau: float) -> _FixedProfileState:
    """Best-so-far is the heaviest pre-``tau`` weight: its rank in ascending
    weight order plus one, 0 when none arrived, looked up in [0, ascending
    weights]."""
    post = cols > tau
    code = np.min_scalar_type(w.size).type
    ascending = np.argsort(w, kind="stable")
    level = np.zeros(cols.shape[1], dtype=code)
    # codes grow along each loop, so np.maximum keeps the last one taken
    for rank, j in enumerate(ascending, start=1):
        np.maximum(level, ~post[j] * code(rank), out=level)
    return _FixedProfileState(post, np.concatenate(([0.0], w[ascending])).take(level))


def _fixed_profile_pass(
    w: np.ndarray,
    cols: np.ndarray,
    state: _FixedProfileState,
    gap=0.0,
    gamma: float = 0.0,
    strict: bool = False,
) -> dict:
    """One threshold policy at the ``tau`` of ``state`` over the (n, B)
    arrival-time columns ``cols`` of the weight vector ``w``.

    The first arrival walks the columns in index order and takes a candidate
    only at a strictly earlier time, so tied times go to the lower index, as
    ``argmin`` gives them in the row kernel; it is kept as index plus one, 0
    when none.
    """
    if strict and gamma > 0.0:
        raise ValueError("strict comparison has no late phase")
    post, bsf = state
    B = cols.shape[1]
    code = np.min_scalar_type(w.size).type
    thr = bsf if strict else np.maximum(bsf, gap)
    first = np.zeros(B, dtype=code)
    first_t = np.full(B, np.inf)
    for j, t in enumerate(cols):
        cand = w[j] > thr if strict else w[j] >= thr
        if gamma > 0.0:
            late = t > 1.0 - gamma
            cand = late & (w[j] >= bsf) | ~late & cand
        cand &= post[j]
        cand &= t < first_t
        np.maximum(first, cand * code(j + 1), out=first)
        # a non-candidate's time moves past every arrival time (first_t
        # stays above 1 until a candidate arrives); a candidate's is exact
        np.minimum(first_t, t + ~cand * 2.0, out=first_t)
    return {
        "accept_index": np.subtract(first, 1, dtype=np.intp),
        "accept_weight": np.concatenate(([0.0], w)).take(first),
        "accept_time": np.where(first > 0, first_t, np.nan),
        "best_index": np.full(B, np.argmax(w)),
    }


def _run_fixed_profile(
    w: np.ndarray,
    times: np.ndarray,
    tau: float,
    gap=0.0,
    gamma: float = 0.0,
    strict: bool = False,
) -> dict:
    """Run one threshold policy over (B, n) arrival ``times`` in [0, 1] of the
    single weight vector ``w``; returns what ``_run_threshold_rows`` yields
    for ``gap`` on ``w`` broadcast to every row, bit for bit.

    The n columns are swept as contiguous (B,) vectors, and per-row choices
    are kept as small integer codes, never as masked copies: one
    ``_fixed_profile_state`` at ``tau``, then one ``_fixed_profile_pass``.
    """
    cols = np.ascontiguousarray(times.T)
    return _fixed_profile_pass(w, cols, _fixed_profile_state(w, cols, tau), gap, gamma, strict)


# ---------------------------------------------------------------------------
# Instance batches


@dataclass(frozen=True)
class _InstanceBatch:
    """A chunk of instances, with the gap-independent work done on it so far,
    so that a batch used again does none of it again: the j-th largest weight
    of each row for each rank j a gap has read, the total of each row's L
    largest weights for each L an l-select cell has read, the best index,
    and the threshold state of the last ``tau`` asked. All are 1-D: (rows,)
    columns, or one entry per candidate; no (rows, n) array beyond the
    weights and times is kept."""

    weights: np.ndarray  # normalized linear weights, (rows, n)
    times: np.ndarray  # arrival times, (rows, n)
    max_log: np.ndarray  # per-instance log normalization constant, (rows,)
    _largest: dict = field(default_factory=dict, init=False, repr=False)
    _top_totals: dict = field(default_factory=dict, init=False, repr=False)
    _states: dict = field(default_factory=dict, init=False, repr=False)

    def read_sorted(self, ranks=(), tops=()) -> None:
        """Keep the ``ranks``-th largest weight of each row (rank 1 is the
        maximum) and, for each L in ``tops``, the total of each row's L
        largest weights, summed from the largest down. Those not yet kept
        are read from one sort of the rows, which is dropped once they are
        copied out."""
        ranks = set(ranks) - self._largest.keys()
        tops = set(tops) - self._top_totals.keys()
        if ranks or tops:
            ascending = np.sort(self.weights, axis=1)
            n = ascending.shape[1]
            for j in ranks:
                self._largest[j] = ascending[:, n - j].copy()
            for L in tops:
                # a descending copy, so the sum runs in that order
                top = np.ascontiguousarray(ascending[:, n - L :][:, ::-1])
                self._top_totals[L] = np.sum(top, axis=1)

    def largest(self, ranks) -> list[np.ndarray]:
        """The ``ranks``-th largest weight of each row, one (rows,) column
        per rank (``read_sorted``)."""
        self.read_sorted(ranks=ranks)
        return [self._largest[j] for j in ranks]

    def top_total(self, L: int) -> np.ndarray:
        """The total of each row's L largest weights (``read_sorted``)."""
        self.read_sorted(tops=(L,))
        return self._top_totals[L]

    def threshold_state(self, tau: float) -> _ThresholdState:
        """The state of the threshold rules at ``tau``, kept until another
        ``tau`` is asked: the kept state narrowed when it is at a smaller
        tau, else built from the weights and times."""
        if tau not in self._states:
            kept = next(iter(self._states.items()), None)
            if kept is not None and kept[0] < tau:
                state = _narrowed_state(kept[1], tau)
            else:
                state = _threshold_state(self.weights, self.times, tau, self.best_index)
            self._states.clear()
            self._states[tau] = state
        return self._states[tau]

    @cached_property
    def best_index(self) -> np.ndarray:
        """The index of each row's first maximum."""
        return np.argmax(self.weights, axis=1)


# the last generated batch that covered a whole run, read-only, with the
# work kept on it, under (family, n, iterations, master_seed); at most one
# entry, dropped before any other instances or arrival times are drawn
_last_batch: dict = {}


def _draw_rows(
    family: InstanceFamily, n: int, rows: range, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times and raw log-weights of the instances in ``rows``, one
    row each, in two (rows, n) arrays: stream i draws iteration i's arrival
    times, then its weights."""
    _last_batch.clear()
    times, log_weights = np.empty((len(rows), n)), np.empty((len(rows), n))

    def streams():
        for row, rng in zip(times, SeededRng(master_seed).streams(rows)):
            rng.random(out=row)
            yield rng

    family.draw_rows(streams(), log_weights)
    return times, log_weights


def _normalized_batch(times: np.ndarray, log_weights: np.ndarray) -> _InstanceBatch:
    """Normalize raw log-weight rows in place into a batch; the one place
    where batch weights are normalized."""
    max_log = normalize_rows(log_weights)
    return _InstanceBatch(np.exp(log_weights, out=log_weights), times, max_log)


def _build_batch(
    family: InstanceFamily, n: int, rows: range, master_seed: int
) -> _InstanceBatch:
    """The instances of iterations ``rows``, drawn straight into rows and
    normalized once for the whole batch or chunk."""
    return _normalized_batch(*_draw_rows(family, n, rows, master_seed))


def _replay_batch(profiles, master_seed: int, rows: range) -> _InstanceBatch:
    """The user-supplied instances of iterations ``rows``; stream i of the
    master seed provides iteration i's arrival draw."""
    _last_batch.clear()
    log_weights = np.stack([profiles[i].log_weights for i in rows])
    times = np.empty(log_weights.shape)
    for row, rng in zip(times, SeededRng(master_seed).streams(rows)):
        rng.random(out=row)
    return _normalized_batch(times, log_weights)


def regenerate_profiles(
    family: InstanceFamily, n: int, iterations: int, master_seed: int
) -> list[WeightProfile]:
    """The instances an experiment with this (family, n, seed) draws, in
    iteration order, as raw profiles."""
    _, log_weights = _draw_rows(family, n, range(iterations), master_seed)
    return [WeightProfile(row) for row in log_weights]


def _rescale_raw(values, max_log):
    """Map raw-unit additive quantities into each instance's normalized view.

    ``max_log`` is the log maximum of the raw (unnormalized) profile. An
    all-zero profile (``max_log`` = -inf) is its own normalized view, so its
    values pass unchanged, as in the per-draw runners.
    """
    values = np.asarray(values, dtype=float)
    max_log = np.where(np.isneginf(max_log), 0.0, max_log)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = values * np.exp(-max_log)
    return np.where(values == 0.0, 0.0, out)


def _gap_ranks(algorithm: AlgorithmSpec, gap) -> tuple[int, ...]:
    """The ranks of each row's weights (1 is the maximum) that the threshold
    term of ``algorithm`` reads: index k for an index gap, L and L + 1 for
    l-select's auto gap, none otherwise."""
    if not (algorithm.uses_gap and isinstance(gap, GapSpec) and gap.absolute is None):
        return ()
    if algorithm.tag == "l-select":
        return algorithm.L, algorithm.L + 1
    return (gap.k,)


def _threshold_term(algorithm: AlgorithmSpec, gap, max_log, batch: _InstanceBatch | None = None):
    """The term ``algorithm`` adds to best-so-far, per row in normalized
    units: the predicted gap, less epsilon and floored at 0 for ``bounded``,
    and 0 for a rule without a gap. The one place where raw-unit quantities
    are rescaled, with ``max_log``, the raw rows' log maxima.

    ``gap`` is a checked cell's ``GapSpec``, whose index gap, 1 minus the
    k-th largest weight, or l-select auto gap, the L-th minus the (L+1)-th
    largest, reads ``batch.largest``, or raw-unit gap values, a scalar or
    one per row. Raw-unit values are combined before they are rescaled, so
    no 0 * inf or inf - inf arises: sigma 0 is no gap, and an epsilon at or
    above the gap is the classical rule.
    """
    if not algorithm.uses_gap:
        return 0.0
    epsilon = algorithm.epsilon if algorithm.tag == "bounded" else 0.0
    ranks = _gap_ranks(algorithm, gap)
    if ranks:
        if algorithm.tag == "l-select":
            above, below = batch.largest(ranks)
            base = above - below
        else:
            (kth,) = batch.largest(ranks)
            base = 1.0 - kth
        return np.maximum(gap.sigma * base - _rescale_raw(epsilon, max_log), 0.0)
    raw = gap.sigma * gap.absolute if isinstance(gap, GapSpec) else gap
    return _rescale_raw(np.maximum(raw - epsilon, 0.0), max_log)


def _chunk_outcomes(batch: _InstanceBatch, keys):
    """Yield ``(key, outcomes)`` for every checked cell ``key`` on one chunk:
    per-row ``ratio``, ``select_best`` and ``none``, plus the threshold
    kernel's arrays for a single-selection rule.

    Every rank the cells' gaps read, and every top-L total an l-select cell
    reads, is taken from the batch at once, so a chunk is sorted at most
    once. l-select cells run one by one.
    Single-selection cells are grouped by their policy's ``(tau, gamma,
    strict)``, and each group is one pass over the batch's threshold state,
    whose threshold terms are computed as the pass takes them. Groups run in
    order of tau, so the groups at one tau share its state, and each larger
    tau narrows the state of the one before."""
    batch.read_sorted(
        {j for a, g in keys for j in _gap_ranks(a, g)},
        {a.L for a, _ in keys if a.tag == "l-select"},
    )
    groups = {}
    for key in keys:
        algorithm, gap = key
        if algorithm.tag == "l-select":
            yield key, _l_select_outcomes(batch, algorithm, gap)
        else:
            tau, _, gamma, strict = _policy(algorithm)
            groups.setdefault((tau, gamma, strict), []).append(key)
    for (tau, gamma, strict), members in sorted(groups.items(), key=lambda item: item[0][0]):
        terms = (_threshold_term(a, g, batch.max_log, batch) for a, g in members)
        outs = _threshold_pass(batch.threshold_state(tau), terms, gamma, strict)
        for key, out in zip(members, outs):
            yield key, _threshold_outcomes(out)


def _l_select_outcomes(batch: _InstanceBatch, algorithm: AlgorithmSpec, gap: GapSpec) -> dict:
    """Per-row ``ratio``, ``select_best`` and ``none`` of a checked l-select
    cell on a batch."""
    opt = batch.top_total(algorithm.L)
    if (opt <= 0.0).any():
        raise ConfigError("the top-L weights must have positive total")
    gaps = _threshold_term(algorithm, gap, batch.max_log, batch)
    sel = _run_l_select_rows(batch.weights, batch.times, algorithm.tau, algorithm.L, gaps)
    accepted = sel["accepted"]
    return {
        "ratio": sel["total_weight"] / opt,
        "select_best": accepted[np.arange(len(accepted)), batch.best_index],
        "none": ~accepted.any(axis=1),
    }


def _threshold_outcomes(out: dict) -> dict:
    """A threshold kernel's arrays on normalized weights, plus per-row
    ``ratio``, ``select_best`` and ``none``."""
    out["ratio"] = out["accept_weight"]  # normalized max weight is exactly 1
    out["select_best"] = out["accept_index"] == out["best_index"]
    out["none"] = out["accept_index"] < 0
    return out


def _estimate_from(out: dict) -> RatioEstimate:
    ratios = out["ratio"]
    iters = int(ratios.size)
    mean = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(iters)) if iters > 1 else 0.0
    return RatioEstimate(
        mean=mean,
        stderr=stderr,
        iterations=iters,
        select_best_prob=float(np.mean(out["select_best"])),
        none_prob=float(np.mean(out["none"])),
    )


# ---------------------------------------------------------------------------
# The cell driver

# elements per chunk of rows, by kernel: a chunk is drawn and run together,
# so no whole-run array is held; a run takes the smallest entry of its cells
_CHUNK_ELEMENTS = {"threshold": 5_000_000, "l-select": 16_384}


def _chunks(n: int, iterations: int, algorithms):
    """Row ranges covering ``iterations``, each of at most the smallest
    ``_CHUNK_ELEMENTS`` entry among the algorithms' kernels, in instances
    of size ``n``."""
    kernels = {"l-select" if a.tag == "l-select" else "threshold" for a in algorithms}
    per = max(1, min(_CHUNK_ELEMENTS[k] for k in kernels) // n)
    return (range(lo, min(lo + per, iterations)) for lo in range(0, iterations, per))


def _joined(parts: list[dict]) -> dict:
    """Per-chunk outcome dicts joined in row order; one chunk is not copied."""
    if len(parts) == 1:
        return parts[0]
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _cell_key(algorithm: AlgorithmSpec, gap: GapSpec):
    """What a cell's estimate reads: a rule without a gap ignores the GapSpec,
    and an absolute gap or l-select's index-free one ignores k."""
    if not algorithm.uses_gap:
        return algorithm, None
    if gap.absolute is not None or algorithm.tag == "l-select":
        return algorithm, replace(gap, k=None)
    return algorithm, gap


def _run_cells(n: int, iterations: int, batch_of, cells, outcomes: bool = False) -> list:
    """Estimates of (AlgorithmSpec, GapSpec) cells on ``iterations`` instances
    of size ``n``, each cell checked as ``ExperimentConfig`` checks its own.

    ``batch_of(rows)`` gives the instances of a range of iterations. Each
    chunk of rows is taken from it once and every distinct cell (cells that
    read the same inputs are one) is evaluated on it, single-selection cells
    one kernel pass per threshold policy (``_chunk_outcomes``). A cell's
    outcomes are cut to what its estimate reads before the next cell is
    evaluated, and a cell is reduced after its last chunk. Each chunk's
    batch is dropped before the next chunk is drawn, so no two are held at
    once. With ``outcomes`` a cell gives its joined per-row outcomes in place
    of its estimate.
    """
    for algorithm, gap in cells:
        _check_cell(n, algorithm, gap)
    keys = dict.fromkeys(_cell_key(a, g) for a, g in cells)
    if not keys:
        return []
    parts = {key: [] for key in keys}
    done = {}
    for rows in _chunks(n, iterations, [a for a, _ in keys]):
        batch = batch_of(rows)
        for key, out in _chunk_outcomes(batch, keys):
            if not outcomes:
                out = {f: out[f] for f in ("ratio", "select_best", "none")}
            parts[key].append(out)
            if rows.stop == iterations:
                out = _joined(parts.pop(key))
                done[key] = out if outcomes else _estimate_from(out)
        del batch
    return [done[_cell_key(a, g)] for a, g in cells]


def _generated_batch(config: ExperimentConfig, rows: range) -> _InstanceBatch:
    """The instances the config's family draws for iterations ``rows``. A
    batch of the whole run is kept, its arrays read-only, in ``_last_batch``,
    so the next estimate on the same (family, n, iterations, seed) gets the
    same batch, with the work done on it: it draws, sorts and prepares
    nothing that an earlier estimate did."""
    key = (config.family, config.n, config.iterations, config.master_seed)
    whole = len(rows) == config.iterations
    if whole and key in _last_batch:
        return _last_batch[key]
    batch = _build_batch(config.family, config.n, rows, config.master_seed)
    if whole:
        for a in (batch.weights, batch.times, batch.max_log):
            a.setflags(write=False)
        _last_batch[key] = batch
    return batch


def _on_generated(config: ExperimentConfig, cells, outcomes: bool = False) -> list:
    """``_run_cells`` on the instances the config's family draws."""
    batch_of = partial(_generated_batch, config)
    return _run_cells(config.n, config.iterations, batch_of, cells, outcomes)


def per_iteration_outcomes(config: ExperimentConfig) -> dict:
    """Raw per-iteration outcomes for one experiment cell (validation surface)."""
    return _on_generated(config, [(config.algorithm, config.gap)], outcomes=True)[0]


def estimate_ratio(config: ExperimentConfig) -> RatioEstimate:
    """Monte Carlo competitive-ratio estimate for one experiment cell."""
    return _on_generated(config, [(config.algorithm, config.gap)])[0]


# ---------------------------------------------------------------------------
# Sweeps


def _resolve_tau(base_tau: float, k: int | None, tau_policy: str) -> float:
    """The waiting time a tau policy gives at gap index ``k``: ``fixed`` keeps
    ``base_tau``, ``from-k`` uses the index-tuned value and ``min`` the
    smaller of the two (``base_tau`` when k is unknown)."""
    if tau_policy not in ("fixed", "min", "from-k"):
        raise ConfigError(f"unknown tau policy {tau_policy!r}")
    if tau_policy == "fixed" or (tau_policy == "min" and k is None):
        return base_tau
    if k is None:
        raise ConfigError("tau policy 'from-k' needs an integer gap index k")
    return tau_for_k(k) if tau_policy == "from-k" else min(base_tau, tau_for_k(k))


def sweep_k(
    config: ExperimentConfig,
    ks,
    tau_policy: str = "fixed",
    include_baseline: bool = True,
) -> list[SweepCell]:
    """One estimate per gap index in ``ks``, on shared instance draws.

    The classical baseline ignores k, so it is computed once (at
    ``CLASSICAL_BASELINE_TAU``) and repeated after each k row.
    """
    algo = config.algorithm
    baseline = AlgorithmSpec("classical", tau=CLASSICAL_BASELINE_TAU)
    with_baseline = include_baseline and algo.tag != "classical"
    cells = []
    for k in ks:
        gap = replace(config.gap, k=int(k))
        cells.append((replace(algo, tau=_resolve_tau(algo.tau, gap.k, tau_policy)), gap))
        if with_baseline:
            cells.append((baseline, replace(gap, sigma=0.0)))
    estimates = _on_generated(config, cells)
    return [SweepCell(g.k, g.sigma, a.tag, a.tau, est) for (a, g), est in zip(cells, estimates)]


def sweep_sigma(
    config: ExperimentConfig, sigmas, ks, tau_policy: str = "fixed"
) -> list[SweepCell]:
    """Full (k, sigma) grid of estimates for the configured algorithm, with
    tau resolved per k as in :func:`sweep_k`.

    At sigma = 0 the predicted gap vanishes, so gap algorithms coincide with
    the classical rule at the same tau draw-for-draw.
    """
    algo = config.algorithm
    sigmas = [float(s) for s in sigmas]
    cells = [
        (replace(algo, tau=_resolve_tau(algo.tau, int(k), tau_policy)),
         replace(config.gap, k=int(k), sigma=s))
        for k in ks
        for s in sigmas
    ]
    estimates = _on_generated(config, cells)
    return [SweepCell(g.k, g.sigma, a.tag, a.tau, est) for (a, g), est in zip(cells, estimates)]


def batch_ratio_for_profiles(
    profiles,
    algorithm: AlgorithmSpec,
    gap: GapSpec,
    master_seed: int,
) -> RatioEstimate:
    """Estimate on user-supplied instances (replay files); stream i of the
    master seed provides iteration i's arrival draw."""
    profiles = list(profiles)
    if not profiles:
        raise ConfigError("need at least one profile")
    n = profiles[0].n
    if any(p.n != n for p in profiles):
        raise ConfigError("all profiles must have the same size")
    batch_of = partial(_replay_batch, profiles, master_seed)
    return _run_cells(n, len(profiles), batch_of, [(algorithm, gap)])[0]


# ---------------------------------------------------------------------------
# Fixed-profile Monte Carlo


def simulate_fixed_profile(
    profile: WeightProfile,
    algorithm: AlgorithmSpec,
    iterations: int,
    seed: int,
    gap_values=0.0,
) -> dict:
    """Monte Carlo over arrival draws only, holding the profile fixed.

    ``gap_values`` (a scalar, or an array with one value per iteration) is
    interpreted in the profile's raw units and must be finite and
    non-negative. Arrival times come from one stream derived from ``seed``,
    drawn chunk by chunk in iteration order, so the values do not depend on
    the chunk size. Returns per-iteration arrays, with accepted weights both
    normalized (``ratio``) and in raw units (``accept_weight``).
    """
    return simulate_fixed_profile_rules(profile, [(algorithm, gap_values)], iterations, seed)[0]


def simulate_fixed_profile_rules(
    profile: WeightProfile, rules, iterations: int, seed: int
) -> list[dict]:
    """:func:`simulate_fixed_profile` of each ``(algorithm, gap_values)``
    pair in ``rules``, on one draw of the arrival times: each rule's arrays
    equal those of its own call with the same seed, bit for bit.

    Each chunk of times is drawn and transposed once, its state is built
    once per tau (rules run in order of tau, so one state is held at a
    time), and each rule is then one pass over it.
    """
    _last_batch.clear()
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    rules = list(rules)
    w = profile.normalized_weights
    m = profile.max_log_weight
    terms = []
    for algorithm, gap_values in rules:
        gap_values = np.asarray(gap_values, dtype=float)
        if gap_values.ndim and gap_values.shape != (iterations,):
            raise ConfigError(
                f"gap_values must be a scalar or hold one value per iteration "
                f"({iterations}), got shape {gap_values.shape}"
            )
        if not (np.isfinite(gap_values).all() and (gap_values >= 0.0).all()):
            raise ConfigError("gap_values must be finite and non-negative")
        _policy(algorithm)  # l-select is no threshold policy
        terms.append(np.broadcast_to(_threshold_term(algorithm, gap_values, m), (iterations,)))
    by_tau = sorted(range(len(rules)), key=lambda i: rules[i][0].tau)
    rng = np.random.default_rng([int(seed)])
    parts = [[] for _ in rules]
    for rows in _chunks(w.size, iterations, [algorithm for algorithm, _ in rules]):
        cols = np.ascontiguousarray(rng.random((len(rows), w.size)).T)
        state = {}
        for i in by_tau:
            tau, gap, gamma, strict = _policy(rules[i][0], terms[i][rows.start : rows.stop])
            if tau not in state:
                state = {tau: _fixed_profile_state(w, cols, tau)}
            out = _fixed_profile_pass(w, cols, state[tau], gap, gamma, strict)
            parts[i].append(_threshold_outcomes(out))
    outs = [_joined(p) for p in parts]
    with np.errstate(over="ignore"):
        for out in outs:
            del out["best_index"]
            out["accept_weight"] = out["ratio"] * np.exp(m)
    return outs


# ---------------------------------------------------------------------------
# Exhaustive small-instance oracle


def exact_expectation_small_n(
    profile: WeightProfile, algorithm: AlgorithmSpec, gap_value: float = 0.0
) -> float:
    """Exact expected accepted weight by enumerating arrival configurations.

    For two-phase rules the enumeration runs over (pre-tau subset S, ordering
    of the rest) with probability tau^|S| (1-tau)^(n-|S|) / (n-|S|)!; the
    robust rule adds the split of the post-tau ordering between the gap phase
    and the late phase. The enumerated probabilities are asserted to sum to 1.

    Kept deliberately independent of the simulation kernels: the acceptance
    rule is restated inline on plain floats.
    """
    n = profile.n
    if n > 6:
        raise ValueError("enumeration oracle limited to n <= 6")
    if not (math.isfinite(gap_value) and gap_value >= 0.0):
        raise ValueError("gap must be finite and non-negative")
    tag = algorithm.tag
    if tag not in _SINGLE_SELECTION:
        raise ValueError("oracle covers the single-selection rules only")
    tau = algorithm.tau
    gamma = algorithm.gamma if tag == "robust" else 0.0
    w = [float(x) for x in profile.weights]
    elements = tuple(range(n))

    if tag in ("classical", "strict-classical"):
        term = 0.0
    elif tag == "exact-gap":
        term = gap_value
    elif tag == "bounded":
        term = max(gap_value - algorithm.epsilon, 0.0)
    else:
        term = gap_value
    strict = tag == "strict-classical"

    def first_hit(seq, threshold, strict_cmp):
        for i in seq:
            if (w[i] > threshold) if strict_cmp else (w[i] >= threshold):
                return w[i]
        return None

    total_p = 0.0
    total_val = 0.0
    for s_size in range(n + 1):
        for S in combinations(elements, s_size):
            bsf = max((w[i] for i in S), default=0.0)
            rest = [i for i in elements if i not in S]
            m = len(rest)
            if tag == "robust":
                thr_mid = max(bsf, term)
                for perm in permutations(rest):
                    for j in range(m + 1):
                        p = (
                            tau**s_size
                            * (1.0 - gamma - tau) ** j
                            / math.factorial(j)
                            * gamma ** (m - j)
                            / math.factorial(m - j)
                        )
                        if p == 0.0:
                            total_p += p
                            continue
                        val = first_hit(perm[:j], thr_mid, False)
                        if val is None:
                            val = first_hit(perm[j:], bsf, False)
                        total_p += p
                        total_val += p * (val or 0.0)
            else:
                thr = max(bsf, term)
                base_p = tau**s_size * (1.0 - tau) ** m / math.factorial(m)
                for perm in permutations(rest):
                    val = first_hit(perm, thr, strict)
                    total_p += base_p
                    total_val += base_p * (val or 0.0)
    assert abs(total_p - 1.0) < 1e-9, "enumeration probabilities must sum to 1"
    return total_val


# ---------------------------------------------------------------------------
# Multi-selection estimation


def _l_select_hits(
    w_ranked: np.ndarray, arrival: np.ndarray, pre: np.ndarray, gaps, L: int
) -> np.ndarray:
    """The hits of the multi-selection rule, as an (R, n) mask in rank order.

    Row j of each input holds rank j of an instance, ranks ordered by
    (-weight, index): ``w_ranked`` its weight, ``arrival`` its arrival
    position (an unsigned integer type that holds n) and ``pre`` whether it
    arrived by ``tau``. ``gaps`` is a scalar or one value per row.

    Q is the pre-``tau`` elements plus the post-``tau`` ones at or above the
    gap. The reference set's weights are the top-L weights of Q seen so far,
    and a post-``tau`` element of Q is a hit exactly when it reaches the
    L-th of them, that is, when fewer than L strictly heavier elements of Q
    arrived before it. This reads weights only, so it holds with ties. With
    ``a`` the arrival position of an element of Q and n for any other, L
    running minima over ranks give the L-th smallest ``a`` up to each rank;
    an element is a hit when its ``a`` lies below that value at the last rank
    before its tie group.
    """
    n = arrival.shape[1]
    q = w_ranked >= np.reshape(gaps, (-1, 1))
    q |= pre
    a = np.full_like(arrival, n)
    np.copyto(a, arrival, where=q)
    low = np.minimum.accumulate(a, axis=1)
    shifted = np.empty_like(a)
    shifted[:, 0] = n
    for _ in range(L - 1):
        # the k-th smallest up to rank j is the least, over i <= j, of
        # max(a_i, (k-1)-th smallest up to rank i - 1)
        np.maximum(low[:, :-1], a[:, 1:], out=shifted[:, 1:])
        np.minimum.accumulate(shifted, axis=1, out=low)
    # the L-th smallest before each rank, carried from the start of its tie
    # group; it never rises along the ranks, so a running minimum over the
    # group starts carries it
    before = np.full_like(a, n)
    np.copyto(before[:, 1:], low[:, :-1], where=w_ranked[:, 1:] != w_ranked[:, :-1])
    np.minimum.accumulate(before, axis=1, out=before)
    return (a < before) & ~pre


def _place_in_row(rows: np.ndarray, R: int) -> np.ndarray:
    """Each entry's place among the entries of its row, 0 first, for
    entries sorted by row."""
    counts = np.bincount(rows, minlength=R)
    return np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]


def _l_select_kept(weights: np.ndarray, times: np.ndarray, tau: float, L: int, gaps) -> np.ndarray:
    """The (R, n) mask of the elements of each row that can be a hit of the
    multi-selection rule or decide whether another is one.

    The reference set starts with the L best pre-``tau`` elements and with
    placeholders of weight 0 in its empty slots, so its lowest weight r_L
    starts at theta, the L-th largest pre-``tau`` weight or 0 when fewer
    than L elements arrived by ``tau``, and never falls. A hit is a
    post-``tau`` arrival of weight at least max(r_L, gap), and whether an
    arrival is one turns on the heavier elements of Q that arrived before it
    (``_l_select_hits``): each is pre-``tau``, or post-``tau`` and at or
    above the gap, and heavier than a hit, so above theta. So the pre-``tau``
    elements at or above theta and the post-``tau`` ones at or above
    max(theta, gap) hold every hit and everything that decides one.
    """
    n = weights.shape[1]
    pre = times <= tau
    theta = np.partition(np.where(pre, weights, -1.0), n - L, axis=1)[:, n - L]
    np.maximum(theta, 0.0, out=theta)
    keep = weights >= np.maximum(theta, gaps)[:, None]
    keep |= pre & (weights >= theta[:, None])
    return keep


def _run_l_select_rows(weights: np.ndarray, times: np.ndarray, tau: float, L: int, gaps) -> dict:
    """Run the multi-selection rule over (R, n) rows of normalized weights, as
    ``run_l_selection_gap`` runs it draw by draw.

    Elements are ranked by (-weight, index) and arrive in the order of their
    times, tied times to the lower index. The reference set is seeded with
    the L best pre-``tau`` elements, an empty slot holding a placeholder of
    weight 0 counted as pre-``tau``. Only a hit changes it: a post-``tau``
    arrival of weight at least max(r_L, gap), which replaces r_L, its lowest
    entry, and is accepted when r_L dates from before ``tau``. Since r_L
    never falls, whether an arrival is a hit depends on weights and arrival
    positions alone, ties included, and ``_l_select_hits`` finds every hit
    at once.

    The rule reads only the elements ``_l_select_kept`` keeps: each row is
    cut to them, in index order, and padded to the widest row of the chunk,
    m, with elements of weight -1 that arrive last, after ``tau``. On these
    (R, m) rows the rule runs as on whole ones: they are ranked, the
    reference set is an ascending (R, L) array of their ranks, placeholder j
    holding rank m + j, and the walk goes round by round, round r taking
    every row's r-th hit in arrival order, so it runs once per hit of the
    row with the most hits, not once per arrival position. An accepted rank
    is mapped back to its element's index.

    ``gaps`` is a scalar or (R,) array in the same units as ``weights``, at
    least 0. Returns the accepted elements as an (R, n) mask by element
    index and their total weight, summed in acceptance order.
    """
    R, n = weights.shape
    keep = _l_select_kept(weights, times, tau, L, gaps)

    # the kept elements, flat in row-major order, and padded to (R, m) rows,
    # m at least 1: kept entry j goes to place j - first[row] of its row
    kept = np.flatnonzero(keep)
    rows = kept // n
    counts = np.bincount(rows, minlength=R)
    first = np.cumsum(counts) - counts
    m = int(counts.max(initial=1))
    dest = np.arange(kept.size) + (np.arange(R) * m - first)[rows]
    w = np.full((R, m), -1.0)
    w.ravel()[dest] = weights.ravel()[kept]
    t = np.full((R, m), np.inf)
    t.ravel()[dest] = times.ravel()[kept]

    by_rank = np.argsort(-w, axis=1, kind="stable")
    w_ranked = np.take_along_axis(w, by_rank, axis=1)
    # holds the arrival positions, their sentinel m and the placeholder ranks
    index = np.min_scalar_type(m + L - 1)
    position = np.empty((R, m), dtype=index)
    order = np.argsort(t, axis=1, kind="stable")
    np.put_along_axis(position, order, np.arange(m, dtype=index)[None, :], axis=1)
    arrival = np.take_along_axis(position, by_rank, axis=1)
    # pre-tau flags by rank, the placeholders' appended; the pre-tau
    # elements take the first arrival positions
    pre_pad = np.ones((R, m + L), dtype=bool)
    pre = pre_pad[:, :m]
    np.less(arrival, np.count_nonzero(t <= tau, axis=1)[:, None], out=pre)

    ref = np.tile(np.arange(m, m + L, dtype=index), (R, 1))
    rows, ranks = np.nonzero(pre)
    slot = _place_in_row(rows, R)
    seeded = slot < L
    ref[rows[seeded], slot[seeded]] = ranks[seeded]

    # the hits of each row in arrival order, then regrouped by round
    rows, ranks = np.nonzero(_l_select_hits(w_ranked, arrival, pre, gaps, L))
    by_arrival = np.lexsort((arrival[rows, ranks], rows))
    rows, ranks = rows[by_arrival], ranks[by_arrival]
    rnd = _place_in_row(rows, R)
    by_round = np.argsort(rnd, kind="stable")
    rows, ranks = rows[by_round], ranks[by_round]
    ends = np.cumsum(np.bincount(rnd))

    total = np.zeros(R)
    accepted = np.zeros(rows.size, dtype=bool)
    start = 0
    for end in ends:
        r, k = rows[start:end], ranks[start:end]
        acc = pre_pad[r, ref[r, -1]]
        ref[r, -1] = k
        ref.sort(axis=1)
        # accepted weights summed in acceptance order, as the scalar runner
        # sums them; adding a zero leaves a partial sum unchanged
        total[r] += w_ranked[r, k] * acc
        accepted[start:end] = acc
        start = end
    by_index = np.zeros((R, n), dtype=bool)
    rows, ranks = rows[accepted], ranks[accepted]
    by_index.ravel()[kept[first[rows] + by_rank[rows, ranks]]] = True
    return {"accepted": by_index, "total_weight": total}


def estimate_l_selection(
    config: ExperimentConfig,
    fixed_profile: WeightProfile | None = None,
) -> RatioEstimate:
    """Monte Carlo ratio of the multi-selection rule against the sum of the
    top L weights, L being ``config.algorithm.L``.

    The gap fed per instance is sigma times (L-th minus (L+1)-th largest
    normalized weight), or sigma times the absolute gap rescaled into the
    instance's normalized units, when one is configured (``_threshold_term``
    gives both; the kernel takes the normalized gaps). The config is an
    ordinary cell: this is :func:`estimate_ratio`, and with ``fixed_profile``
    the replay of that profile in every iteration, so that only the arrival
    times are random.
    """
    if fixed_profile is None:
        return estimate_ratio(config)
    return batch_ratio_for_profiles(
        [fixed_profile] * config.iterations, config.algorithm, config.gap, config.master_seed
    )
