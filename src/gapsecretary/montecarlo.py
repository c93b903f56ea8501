"""Experiment engine: competitive-ratio estimation, parameter sweeps, and an
exhaustive small-instance expectation oracle.

Reproducibility contract: the draws for iteration i are a pure function of
(master_seed, i), so results are bit-identical across runs and across chunk
sizes. The engine runs in one thread (numpy does the bulk work), and
reductions happen in iteration order.

Every single-selection rule is one threshold policy ``(tau, gap, gamma,
strict)``: after ``tau``, accept the first arrival at or above max(best-so-far,
gap), or above it when strict, and after time 1 - ``gamma`` at or above
best-so-far alone. ``_policy`` maps each tag to that record and
``_run_threshold_batch`` runs it over a chunk of draws. The multi-selection
rule runs through ``_run_l_select_rows``. The per-draw runners in
``algorithms`` are the tests' reference for both kernels.

An experiment cell is an ``(AlgorithmSpec, GapSpec)`` pair; ``_check_cell``
validates it for one instance size. ``_run_cells`` is the one driver every
estimate goes through: it takes row chunks from one instance source
(generated or replayed), evaluates each distinct cell on each chunk and
reduces a cell once its last chunk is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .bounds import tau_for_k
from .core import WeightProfile, normalize, normalize_rows
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
    """A threshold rule; its fields are ``_run_threshold_batch``'s arguments
    after the batch, in order."""

    tau: float
    gap: object  # scalar or (B,) array, in normalized units
    gamma: float
    strict: bool


def _policy(algorithm: AlgorithmSpec, gaps, max_log) -> _Policy:
    """The threshold policy of a single-selection rule.

    ``gaps`` is the predicted gap in normalized units; ``max_log`` is the raw
    profiles' log maximum, which maps the raw-unit epsilon of ``bounded``.
    """
    tag, tau = algorithm.tag, algorithm.tau
    if tag == "classical":
        return _Policy(tau, 0.0, 0.0, False)
    if tag == "strict-classical":
        return _Policy(tau, 0.0, 0.0, True)
    if tag == "exact-gap":
        return _Policy(tau, gaps, 0.0, False)
    if tag == "bounded":
        eps = _rescale_raw(algorithm.epsilon, max_log)
        return _Policy(tau, np.maximum(gaps - eps, 0.0), 0.0, False)
    if tag == "robust":
        return _Policy(tau, gaps, algorithm.gamma, False)
    raise ConfigError("l-select is not a threshold policy")


def _run_threshold_batch(
    weights: np.ndarray,
    times: np.ndarray,
    tau: float,
    gap=0.0,
    gamma: float = 0.0,
    strict: bool = False,
) -> dict:
    """Run one threshold policy over a chunk of draws.

    ``weights`` and ``times`` are (B, n); ``gap`` is a scalar or (B,) array in
    the same units as ``weights``. Mirrors the per-draw runners in
    ``algorithms``: threshold max(best-so-far, gap) after ``tau``, dropping to
    best-so-far after time 1 - ``gamma``; ``strict`` switches >= to >. The
    accepted element is the candidate with the earliest arrival; ``argmin``
    returns the first minimum, so tied times go to the lower index.
    """
    if strict and gamma > 0.0:
        raise ValueError("strict comparison has no late phase")
    pre = times <= tau
    bsf = np.max(np.where(pre, weights, 0.0), axis=1)
    if strict:
        meets = weights > bsf[:, None]
    else:
        meets = weights >= np.maximum(bsf, gap)[:, None]
    if gamma > 0.0:
        late = times > 1.0 - gamma
        cand = ~pre & np.where(late, weights >= bsf[:, None], meets)
    else:
        cand = ~pre & meets
    first = np.argmin(np.where(cand, times, np.inf), axis=1)
    r = np.arange(weights.shape[0])
    has = cand[r, first]
    return {
        "accept_index": np.where(has, first, -1),
        "accept_weight": np.where(has, weights[r, first], 0.0),
        "accept_time": np.where(has, times[r, first], np.nan),
        "best_index": np.argmax(weights, axis=1),
    }


# ---------------------------------------------------------------------------
# Instance batches


@dataclass(frozen=True)
class _InstanceBatch:
    weights: np.ndarray  # normalized linear weights, (rows, n)
    times: np.ndarray  # arrival times, (rows, n)
    max_log: np.ndarray  # per-instance log normalization constant, (rows,)

    @cached_property
    def sorted_weights(self) -> np.ndarray:
        """Normalized weights sorted descending."""
        return np.sort(self.weights, axis=1)[:, ::-1]


def _draw_rows(
    family: InstanceFamily, n: int, rows: range, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times and raw log-weights of the instances in ``rows``, one
    row each: stream i draws iteration i's arrival times, then its weights."""
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


def _cell_gaps(batch: _InstanceBatch, gap: GapSpec):
    """Per-instance predicted gap in normalized units for one checked cell."""
    if gap.absolute is not None:
        base = _rescale_raw(gap.absolute, batch.max_log)
    else:
        base = 1.0 - batch.sorted_weights[:, gap.k - 1]
    return gap.sigma * base


def _cell_outcomes(batch: _InstanceBatch, algorithm: AlgorithmSpec, gap: GapSpec) -> dict:
    """Per-row ``ratio``, ``select_best`` and ``none`` of one checked cell on
    a batch; a single-selection rule adds the threshold kernel's arrays."""
    if algorithm.tag == "l-select":
        sel = _run_l_select_rows(
            batch.weights, batch.times, batch.max_log, algorithm.tau, algorithm.L, gap
        )
        if (sel["opt"] <= 0.0).any():
            raise ConfigError("the top-L weights must have positive total")
        accepted = sel["accepted"]
        return {
            "ratio": sel["total_weight"] / sel["opt"],
            "select_best": accepted[np.arange(len(accepted)), sel["best_index"]],
            "none": ~accepted.any(axis=1),
        }
    gaps = _cell_gaps(batch, gap) if algorithm.uses_gap else 0.0
    return _threshold_outcomes(batch.weights, batch.times, _policy(algorithm, gaps, batch.max_log))


def _threshold_outcomes(weights: np.ndarray, times: np.ndarray, policy: _Policy) -> dict:
    """The threshold kernel's arrays on normalized weights, plus per-row
    ``ratio``, ``select_best`` and ``none``."""
    out = _run_threshold_batch(weights, times, *policy)
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
    read the same inputs are one) is evaluated on it; a cell is reduced after
    its last chunk. With ``outcomes`` a cell gives its joined per-row
    outcomes in place of its estimate.
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
        for key in keys:
            out = _cell_outcomes(batch, *key)
            if not outcomes:
                out = {f: out[f] for f in ("ratio", "select_best", "none")}
            parts[key].append(out)
            if rows.stop == iterations:
                out = _joined(parts.pop(key))
                done[key] = out if outcomes else _estimate_from(out)
    return [done[_cell_key(a, g)] for a, g in cells]


def _on_generated(config: ExperimentConfig, cells, outcomes: bool = False) -> list:
    """``_run_cells`` on the instances the config's family draws."""
    batch_of = partial(_build_batch, config.family, config.n, master_seed=config.master_seed)
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

    ``gap_values`` (scalar or per-iteration array) is interpreted in the
    profile's raw units. Arrival times come from one stream derived from
    ``seed``, drawn chunk by chunk in iteration order, so the values do not
    depend on the chunk size. Returns per-iteration arrays, with accepted
    weights both normalized (``ratio``) and in raw units (``accept_weight``).
    """
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    w = normalize(profile).normalized_weights
    m = profile.max_log_weight
    gaps = np.broadcast_to(_rescale_raw(gap_values, m), (iterations,))
    rng = np.random.default_rng([int(seed)])
    parts = []
    for rows in _chunks(w.size, iterations, [algorithm]):
        policy = _policy(algorithm, gaps[rows.start : rows.stop], m)
        times = rng.random((len(rows), w.size))
        parts.append(_threshold_outcomes(np.broadcast_to(w, times.shape), times, policy))
    out = _joined(parts)
    del out["best_index"]
    with np.errstate(over="ignore"):
        out["accept_weight"] = out["ratio"] * np.exp(m)
    return out


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
    if gap_value < 0.0:
        raise ValueError("gap must be non-negative")
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


def _run_l_select_rows(
    weights: np.ndarray, times: np.ndarray, max_log: np.ndarray, tau: float, L: int, gap: GapSpec
) -> dict:
    """Run the multi-selection rule over (R, n) rows of normalized weights, as
    ``run_l_selection_gap`` runs it draw by draw.

    Elements are ranked by (-weight, index), so rank 0 is the first maximum.
    The reference set is an ascending (R, L) array of ranks, seeded with the
    L best pre-``tau`` elements; an empty slot j holds the placeholder rank
    n + j, of weight 0 and counted as pre-``tau``. The walk goes through the
    arrival positions (tied times to the lower index), visiting only those
    where some row may hit. A hit is a post-``tau`` arrival of weight at least
    max(r_L, gap); it is accepted when r_L dates from before ``tau``, and it
    replaces r_L, the last column, before the row is sorted again.

    Returns the accepted elements as an (R, n) mask by element index, their
    total weight, the top-L total ``opt`` and the best element's index. The
    gap is sigma times (L-th minus (L+1)-th largest weight), or sigma times
    the absolute gap rescaled with the raw rows' log maxima ``max_log``.
    """
    R, n = weights.shape
    by_rank = np.argsort(-weights, axis=1, kind="stable")
    best_index = by_rank[:, 0]
    w_ranked = np.take_along_axis(weights, by_rank, axis=1)
    opt = np.sum(w_ranked[:, :L], axis=1)
    if gap.absolute is None:
        base = w_ranked[:, L - 1] - w_ranked[:, L]
    else:
        base = _rescale_raw(gap.absolute, max_log)
    # a NaN gap (sigma 0 times an infinite rescaled one) loses max(r_L, gap)
    # to r_L >= 0 in the scalar runner, so it acts as no gap
    with np.errstate(invalid="ignore"):
        gaps = np.fmax(gap.sigma * base, 0.0)

    index = np.min_scalar_type(n + L)
    pre = times <= tau
    pre_ranked = np.take_along_axis(pre, by_rank, axis=1)
    rank_of = np.empty((R, n), dtype=index)
    np.put_along_axis(rank_of, by_rank, np.arange(n, dtype=index)[None, :], axis=1)
    del by_rank
    # weight and pre-tau flag by rank, placeholders appended
    w_pad = np.zeros((R, n + L))
    w_pad[:, :n] = w_ranked
    pre_pad = np.ones((R, n + L), dtype=bool)
    pre_pad[:, :n] = pre_ranked
    del w_ranked
    first = np.argsort(~pre_ranked, axis=1, kind="stable")[:, :L]
    seeded = np.take_along_axis(pre_ranked, first, axis=1)
    ref = np.where(seeded, first, n + np.arange(L)).astype(index)
    del pre_ranked, first, seeded

    order = np.argsort(times, axis=1, kind="stable").astype(index)
    seq = np.take_along_axis(rank_of, order, axis=1)  # ranks in arrival order
    w_seq = np.take_along_axis(weights, order, axis=1)
    post = ~np.take_along_axis(pre, order, axis=1)
    del rank_of, pre

    offsets = np.arange(R) * (n + L)
    last = offsets + ref[:, -1]
    r_w, r_pre = w_pad.take(last), pre_pad.take(last)
    # r_L never falls, so a row can hit only where it meets the seeded r_L
    may_hit = post & (w_seq >= np.maximum(gaps, r_w)[:, None])
    del post
    accepted = np.zeros((R, n), dtype=bool)  # by arrival position
    for p in np.flatnonzero(may_hit.any(axis=0)):
        hit = may_hit[:, p] & (w_seq[:, p] >= r_w)
        if not hit.any():
            continue
        np.logical_and(hit, r_pre, out=accepted[:, p])
        np.copyto(ref[:, -1], seq[:, p], where=hit)
        ref.sort(axis=1)
        last = offsets + ref[:, -1]
        r_w, r_pre = w_pad.take(last), pre_pad.take(last)
    # accepted weights summed in acceptance order, as the scalar runner sums
    # them; adding a zero leaves a partial sum unchanged
    np.multiply(w_seq, accepted, out=w_seq)
    total = np.cumsum(w_seq, axis=1)[:, -1]
    by_index = np.empty_like(accepted)
    np.put_along_axis(by_index, order, accepted, axis=1)
    return {"accepted": by_index, "total_weight": total, "opt": opt, "best_index": best_index}


def estimate_l_selection(
    config: ExperimentConfig,
    fixed_profile: WeightProfile | None = None,
) -> RatioEstimate:
    """Monte Carlo ratio of the multi-selection rule against the sum of the
    top L weights, L being ``config.algorithm.L``.

    The gap fed per instance is sigma times (L-th minus (L+1)-th largest
    weight), or sigma times the absolute gap, rescaled with the raw
    instance's log maximum, when one is configured. The config is an
    ordinary cell: this is :func:`estimate_ratio`, and with ``fixed_profile``
    the replay of that profile in every iteration, so that only the arrival
    times are random.
    """
    if fixed_profile is None:
        return estimate_ratio(config)
    return batch_ratio_for_profiles(
        [fixed_profile] * config.iterations, config.algorithm, config.gap, config.master_seed
    )
