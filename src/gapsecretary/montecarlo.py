"""The driver layer: experiment cells, the chunked driver, sweeps and the
public estimators. The kernels, the instance batches and the enumeration
oracle are the modules ``kernels``, ``batch`` and ``exact``;
``exact_expectation_small_n`` is re-exported here. Every public entry point
is defined here, ``regenerate_profiles`` included, and each checks its run
with ``_check_run`` (n and iterations integers >= 1, the master seed a
64-bit non-negative integer; neither a bool nor a float is an integer)
before it draws or allocates anything.

Reproducibility contract: the draws for iteration i are a pure function of
(master_seed, i), so results are bit-identical across runs and across chunk
sizes. The engine runs in one thread (numpy does the bulk work), and
reductions happen in iteration order.

Every single-selection rule is one threshold policy, the key ``(tau, gamma,
strict)`` that ``_policy`` gives, and a threshold term beside it, in
normalized units, from ``_threshold_term``: the one place where raw-unit
quantities, a ``GapSpec``'s or raw gap values, are rescaled.

An experiment cell is an ``(AlgorithmSpec, GapSpec)`` pair; ``_check_cell``
validates it for one instance size. ``_run_cells`` is the one driver every
estimate goes through: it takes row chunks from one instance source
(generated or replayed), each with the kernel states its cells read built
as its arrival times were drawn, and evaluates each distinct cell on each
chunk. The single-selection cells of a chunk are grouped by their policy's
``(tau, gamma, strict)``, and each group is one row-kernel pass over the
chunk's state at its tau: a sigma sweep at one tau is one state and one pass
per chunk, and a k-sweep at tuned taus builds one state, at the smallest
tau, and narrows it for each larger tau. An l-select cell is one pass over
the chunk's state at its (tau, L). Both drivers, this one and the
fixed-profile one, take a reducer: the fields a cell keeps, which
``_write_rows`` writes chunk by chunk, and the function of their whole-run
arrays that gives the cell's result once its last chunk is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate

import numpy as np

from .batch import (
    _BLOCK_ELEMENTS,
    _arrival_columns,
    _draw_rows,
    _generated_batch,
    _InstanceBatch,
    _replay_batch,
)
from .bounds import tau_for_k
from .core import WeightProfile, _is_int
from .exact import exact_expectation_small_n
from .generators import InstanceFamily, _is_seed
from .kernels import (
    _fixed_profile_pass,
    _fixed_profile_state,
    _l_select_pass,
    _narrowed_state,
    _threshold_pass,
)

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

# the cell fields each rule reads besides tau, named as their CSV columns:
# a rule reading sigma uses a gap, and l-select's gap reads L, not k
_READS = {
    "classical": (),
    "exact-gap": ("k", "sigma"),
    "robust": ("k", "sigma", "gamma"),
    "bounded": ("k", "sigma", "epsilon"),
    "strict-classical": (),
    "l-select": ("sigma", "L"),
}

ALGORITHM_TAGS = tuple(_READS)

GAP_TAGS = tuple(tag for tag, reads in _READS.items() if "sigma" in reads)

CLASSICAL_BASELINE_TAU = 1.0 / math.e


class ConfigError(ValueError):
    """Invalid experiment configuration or command-line input; the CLI
    prints it and exits 2."""


def _check_run(n, iterations, master_seed) -> None:
    """Reject a run that cannot be drawn: ``n`` instance size and
    ``iterations`` integers >= 1, ``master_seed`` the 64-bit non-negative
    integer ``SeededRng`` takes. The one statement of the rule; every entry
    point calls it before it draws or allocates anything."""
    if not (_is_int(n) and n >= 1):
        raise ConfigError("n must be an integer >= 1")
    if not (_is_int(iterations) and iterations >= 1):
        raise ConfigError("iterations must be an integer >= 1")
    if not _is_seed(master_seed):
        raise ConfigError("master seed must be a 64-bit non-negative integer")


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
        if "gamma" in _READS[self.tag] and not 0.0 <= self.gamma < 1.0 - self.tau:
            raise ConfigError("gamma must lie in [0, 1 - tau)")
        if self.epsilon < 0.0:
            raise ConfigError("epsilon must be non-negative")
        if "L" in _READS[self.tag] and not (_is_int(self.L) and self.L >= 2):
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
        if self.k is not None and not (_is_int(self.k) and self.k >= 2):
            raise ConfigError("gap index k must be an integer >= 2")
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
        _check_run(self.n, self.iterations, self.master_seed)
        _check_cell(self.n, self.algorithm, self.gap)


def _check_cell(n: int, algorithm: AlgorithmSpec, gap: GapSpec) -> None:
    """Reject a (rule, gap) pair that instances of size ``n`` cannot evaluate."""
    if gap.k is not None and gap.k > n:
        raise ConfigError(f"gap index k={gap.k} exceeds n={n}")
    if "L" in _READS[algorithm.tag]:
        # the auto-computed gap, L-th minus (L+1)-th largest weight, is index-free
        if algorithm.L > n:
            raise ConfigError(f"L={algorithm.L} exceeds n={n}")
        if gap.absolute is None and algorithm.L > n - 1:
            raise ConfigError("the auto-computed gap needs L <= n - 1")
    elif "k" in _READS[algorithm.tag] and gap.k is None and gap.absolute is None:
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
# Threshold policies and chunk outcomes


def _policy(algorithm: AlgorithmSpec) -> tuple[float, float, bool]:
    """The threshold policy ``(tau, gamma, strict)`` of a single-selection
    rule: one threshold pass at ``tau`` takes ``gamma`` and ``strict`` once,
    and the threshold terms of every rule sharing them."""
    tag = algorithm.tag
    if tag == "l-select":
        raise ConfigError("l-select is not a threshold policy")
    gamma = algorithm.gamma if "gamma" in _READS[tag] else 0.0
    return algorithm.tau, gamma, tag == "strict-classical"


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
    term of ``algorithm`` reads, the gap being the first minus the second:
    1 and k for an index gap, L and L + 1 for l-select's auto gap, none
    otherwise."""
    if not (algorithm.uses_gap and isinstance(gap, GapSpec) and gap.absolute is None):
        return ()
    return (1, gap.k) if "k" in _READS[algorithm.tag] else (algorithm.L, algorithm.L + 1)


def _threshold_term(algorithm: AlgorithmSpec, gap, max_log, batch: _InstanceBatch | None = None):
    """The term ``algorithm`` adds to best-so-far, per row in normalized
    units: the predicted gap, less epsilon and floored at 0 for ``bounded``,
    and 0 for a rule without a gap. The one place where raw-unit quantities
    are rescaled, with ``max_log``, the raw rows' log maxima.

    ``gap`` is a checked cell's ``GapSpec``, whose index gap, the largest
    minus the k-th largest weight (0 on an all-zero row), or l-select auto
    gap, the L-th minus the (L+1)-th largest, reads ``batch.largest``, or
    raw-unit gap values, a scalar or one per row. Raw-unit values are
    combined before they are rescaled, so no 0 * inf or inf - inf arises:
    sigma 0 is no gap, and an epsilon at or above the gap is the classical
    rule.
    """
    if not algorithm.uses_gap:
        return 0.0
    epsilon = algorithm.epsilon if "epsilon" in _READS[algorithm.tag] else 0.0
    ranks = _gap_ranks(algorithm, gap)
    if ranks:
        above, below = batch.largest(ranks)
        return np.maximum(gap.sigma * (above - below) - _rescale_raw(epsilon, max_log), 0.0)
    raw = gap.sigma * gap.absolute if isinstance(gap, GapSpec) else gap
    return _rescale_raw(np.maximum(raw - epsilon, 0.0), max_log)


def _chunk_outcomes(batch: _InstanceBatch, keys):
    """Yield ``(key, outcomes)`` for every checked cell ``key`` on one chunk:
    per-row ``ratio``, ``select_best`` and ``none``, plus the threshold
    kernel's arrays for a single-selection rule.

    Every rank the cells' gaps read, and every top-L total an l-select cell
    reads, is taken from the batch at once, so a chunk is sorted at most
    once. l-select cells run one by one, each one pass over the batch's
    state at its (tau, L).
    Single-selection cells are grouped by their policy's ``(tau, gamma,
    strict)``, and each group is one pass over a threshold state, whose
    threshold terms are computed as the pass takes them. Groups run in order
    of tau, so the groups at one tau share its state: the batch's own at the
    batch's tau, and each larger tau's narrowed from the state of the one
    before (``kernels._narrowed_state``), which no batch keeps."""
    batch.read_sorted(
        {j for a, g in keys for j in _gap_ranks(a, g)},
        {a.L for a, _ in keys if a.tag == "l-select"},
    )
    groups = {}
    for algorithm, gap in keys:
        if algorithm.tag == "l-select":
            yield (algorithm, gap), _l_select_outcomes(batch, algorithm, gap)
        else:
            groups.setdefault(_policy(algorithm), []).append((algorithm, gap))
    best_index = batch.best_index
    tau, state = batch.tau, batch.state
    for (at, gamma, strict), members in sorted(groups.items(), key=lambda item: item[0][0]):
        if at != tau:
            tau, state = at, _narrowed_state(state, at)
        terms = (_threshold_term(a, g, batch.max_log, batch) for a, g in members)
        outs = _threshold_pass(state, terms, gamma, strict)
        for key, out in zip(members, outs):
            yield key, _threshold_outcomes(out, best_index)


def _l_select_outcomes(batch: _InstanceBatch, algorithm: AlgorithmSpec, gap: GapSpec) -> dict:
    """Per-row ``ratio``, ``select_best`` and ``none`` of a checked l-select
    cell on a batch."""
    tau, L = algorithm.tau, algorithm.L
    opt = batch.top_total(L)
    if (opt <= 0.0).any():
        raise ConfigError("the top-L weights must have positive total")
    gaps = _threshold_term(algorithm, gap, batch.max_log, batch)
    sel = _l_select_pass(batch.l_states[(tau, L)], tau, L, batch.weights.shape[1], gaps)
    accepted = sel["accepted"]
    return {
        "ratio": sel["total_weight"] / opt,
        "select_best": accepted[np.arange(len(accepted)), batch.best_index],
        "none": ~accepted.any(axis=1),
    }


def _threshold_outcomes(out: dict, best_index) -> dict:
    """A threshold kernel's record on normalized weights, ``accept_index``
    and ``ratio`` (the normalized maximum is exactly 1, so the accepted
    weight is the ratio), plus per-row ``select_best`` (accepting
    ``best_index``, one per row or one for all) and ``none``."""
    out["select_best"] = out["accept_index"] == best_index
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
# so no whole-run array is held; a run takes the smallest entry of its cells.
# An l-select chunk is one row block of its batch (327 rows at n = 200), so
# its fixed cost per chunk (the seed hash, the state build and a pass per
# cell) is paid 7 times in a 2000-row run, not 25 times as in chunks of
# 16,384 elements; a whole-run batch with a pass per block was no faster and
# raised the benchmark's lselect peak RSS by over 10%
_CHUNK_ELEMENTS = {"threshold": 5_000_000, "l-select": _BLOCK_ELEMENTS}

# rows per block of a fixed-profile run, fewer when its chunk is smaller:
# the column sweep's temporaries are (rows,) vectors whatever n is, so the
# block is counted in rows. 12 calls of 200,000 draws at n <= 5, none of
# them faulting in its results, took 0.14-0.16 s in blocks of 4,096 rows,
# 0.12 s of 8,192, 0.10 s of 16,384, 0.10-0.11 s of 32,768 and 0.12-0.13 s
# of 65,536 (medians of 11, two runs); blocks of 32,768 rows raised the
# peak RSS of the benchmark's gate workload from 48.8 to 50.1 MB
_FIXED_PROFILE_ROWS = 16_384


def _chunks(n: int, iterations: int, algorithms, max_rows: int | None = None):
    """Row ranges covering ``iterations``, each of at most the smallest
    ``_CHUNK_ELEMENTS`` entry among the algorithms' kernels, in instances
    of size ``n``, and of at most ``max_rows`` rows."""
    kernels = {"l-select" if a.tag == "l-select" else "threshold" for a in algorithms}
    per = min(_CHUNK_ELEMENTS[k] for k in kernels) // n
    per = max(1, per if max_rows is None else min(per, max_rows))
    return (range(lo, min(lo + per, iterations)) for lo in range(0, iterations, per))


# a reducer is (the fields a cell keeps, all when None; its result from their arrays)
_ESTIMATE = (("ratio", "select_best", "none"), _estimate_from)
_KEEP_ALL = (None, dict)


def _write_rows(kept: dict | None, out: dict, fields, rows: range, iterations: int) -> dict:
    """Write one chunk's outcomes ``out`` into the ``rows`` of a cell's
    whole-run arrays ``kept``, one per kept field (every field of ``out``
    when ``fields`` is None), and return them.

    The cell's first chunk (``kept`` None) allocates them as views of one
    buffer: each C-contiguous, ``iterations`` entries of the chunk's dtype,
    at an offset rounded up to 8 bytes. Once freed, one block of a call's
    size raises glibc's mmap and trim thresholds past itself, so the next
    call reuses its heap pages, where separate arrays were trimmed from the
    heap at each free and faulted in again at each call. Whoever keeps any
    field keeps the whole buffer."""
    if kept is None:
        fields = fields or out
        ends = list(accumulate(-(-iterations * out[f].itemsize // 8) * 8 for f in fields))
        buffer = np.empty(ends[-1], np.uint8)
        kept = {f: np.frombuffer(buffer, out[f].dtype, iterations, lo)
                for f, lo in zip(fields, [0, *ends])}
    for f, a in kept.items():
        a[rows.start:rows.stop] = out[f]
    return kept


def _cell_key(algorithm: AlgorithmSpec, gap: GapSpec):
    """What a cell's estimate reads: a rule without a gap ignores the GapSpec,
    and an absolute gap or l-select's index-free one ignores k."""
    if not algorithm.uses_gap:
        return algorithm, None
    if gap.absolute is not None or "k" not in _READS[algorithm.tag]:
        return algorithm, replace(gap, k=None)
    return algorithm, gap


def _run_cells(n: int, iterations: int, batch_of, cells, reducer=_ESTIMATE) -> list:
    """Estimates of (AlgorithmSpec, GapSpec) cells on ``iterations`` instances
    of size ``n``, each cell checked as ``ExperimentConfig`` checks its own.

    ``batch_of(rows, taus, pairs)`` gives the instances of a range of
    iterations, with the states that the cells' threshold ``taus`` and
    l-select (tau, L) ``pairs`` read built as their arrival times are drawn.
    Each chunk of rows is taken from it once and every distinct cell (cells
    that read the same inputs are one) is evaluated on it, single-selection
    cells one kernel pass per threshold policy (``_chunk_outcomes``). A cell's
    kept fields are written before the next cell is evaluated, and a cell is
    reduced by ``reducer`` once its last chunk is done. Each chunk's batch
    is dropped before the next chunk is drawn, so no two are held at once.
    """
    for algorithm, gap in cells:
        _check_cell(n, algorithm, gap)
    keys = dict.fromkeys(_cell_key(a, g) for a, g in cells)
    if not keys:
        return []
    taus = {a.tau for a, _ in keys if a.tag != "l-select"}
    pairs = {(a.tau, a.L) for a, _ in keys if a.tag == "l-select"}
    fields, reduce = reducer
    kept, done = {}, {}
    for rows in _chunks(n, iterations, [a for a, _ in keys]):
        batch = batch_of(rows, taus, pairs)
        for key, out in _chunk_outcomes(batch, keys):
            kept[key] = _write_rows(kept.get(key), out, fields, rows, iterations)
            if rows.stop == iterations:
                done[key] = reduce(kept.pop(key))
        del batch
    return [done[_cell_key(a, g)] for a, g in cells]


def _on_generated(config: ExperimentConfig, cells, reducer=_ESTIMATE) -> list:
    """``_run_cells`` on the instances the config's family draws."""
    batch_of = partial(_generated_batch, config)
    return _run_cells(config.n, config.iterations, batch_of, cells, reducer)


def per_iteration_outcomes(config: ExperimentConfig) -> dict:
    """Raw per-iteration outcomes for one experiment cell (validation
    surface), one array per field: for a single-selection rule
    ``accept_index`` (-1 when nothing is accepted), ``ratio``,
    ``select_best`` and ``none``; for l-select ``ratio``, ``select_best``
    and ``none``."""
    return _on_generated(config, [(config.algorithm, config.gap)], _KEEP_ALL)[0]


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


def _sweep(
    config: ExperimentConfig, ks, sigmas, tau_policy: str, baseline: bool
) -> list[SweepCell]:
    """The configured rule at each gap index in ``ks`` (None is no index)
    and each sigma, tau resolved per k, on one draw of the instances; with
    ``baseline``, the classical rule at ``CLASSICAL_BASELINE_TAU`` after each
    k's rows, unless the configured rule is the classical one."""
    algo = config.algorithm
    classical = AlgorithmSpec("classical", tau=CLASSICAL_BASELINE_TAU)
    gaps = [replace(config.gap, sigma=float(s)) for s in sigmas]
    cells = []
    for k in ks:
        at_k = replace(config.gap, k=k)  # GapSpec checks k before tau_for_k reads it
        tau = _resolve_tau(algo.tau, k, tau_policy)
        cells += [(replace(algo, tau=tau), replace(g, k=k)) for g in gaps]
        if baseline and algo.tag != "classical":
            cells.append((classical, replace(at_k, sigma=0.0)))
    estimates = _on_generated(config, cells)
    return [SweepCell(g.k, g.sigma, a.tag, a.tau, est) for (a, g), est in zip(cells, estimates)]


def sweep_k(
    config: ExperimentConfig,
    ks,
    tau_policy: str = "fixed",
    include_baseline: bool = True,
) -> list[SweepCell]:
    """One estimate per gap index in ``ks`` at the config's sigma, on shared draws.

    The classical baseline ignores k, so it is computed once (at
    ``CLASSICAL_BASELINE_TAU``) and repeated after each k row.
    """
    return _sweep(config, ks, [config.gap.sigma], tau_policy, include_baseline)


def sweep_sigma(
    config: ExperimentConfig, sigmas, ks, tau_policy: str = "fixed"
) -> list[SweepCell]:
    """Full (k, sigma) grid of estimates for the configured algorithm, with
    tau resolved per k as in :func:`sweep_k`.

    At sigma = 0 the predicted gap vanishes, so gap algorithms coincide with
    the classical rule at the same tau draw-for-draw.
    """
    return _sweep(config, ks, sigmas, tau_policy, False)


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
    _check_run(n, len(profiles), master_seed)
    batch_of = partial(_replay_batch, profiles, master_seed)
    return _run_cells(n, len(profiles), batch_of, [(algorithm, gap)])[0]


def regenerate_profiles(
    family: InstanceFamily, n: int, iterations: int, master_seed: int
) -> list[WeightProfile]:
    """The instances an experiment with this (family, n, seed) draws, in
    iteration order, as raw profiles."""
    _check_run(n, iterations, master_seed)
    return [WeightProfile(row) for row in _draw_rows(family, n, range(iterations), master_seed)]


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
    a 64-bit non-negative integer, drawn block by block in iteration order,
    so the values do not depend on the block size. Returns one array per
    field, one entry per iteration: ``accept_index`` (-1 when nothing is
    accepted), the accepted weight normalized (``ratio``) and in raw units
    (``accept_weight``), 0.0 when nothing is accepted, ``select_best`` and
    ``none``.
    """
    return simulate_fixed_profile_rules(profile, [(algorithm, gap_values)], iterations, seed)[0]


def simulate_fixed_profile_rules(
    profile: WeightProfile, rules, iterations: int, seed: int, reducer=_KEEP_ALL
) -> list:
    """:func:`simulate_fixed_profile` of each ``(algorithm, gap_values)``
    pair in ``rules``, on one draw of the arrival times: each rule's arrays
    equal those of its own call with the same seed, bit for bit, or what
    ``reducer`` makes of the fields it keeps (all, by default).

    The times are drawn in blocks of at most ``_FIXED_PROFILE_ROWS`` rows,
    each transposed alone; a block's state is built once per tau (rules run
    in order of tau, so one state is held at a time), and each rule is one
    pass over it. A row that accepts nothing reads 0.0 in ``accept_weight``,
    also when the profile's raw maximum overflows.
    """
    _check_run(profile.n, iterations, seed)
    rules = list(rules)
    w = profile.normalized_weights
    m = profile.max_log_weight
    policies, terms = [], []
    for algorithm, gap_values in rules:
        gap_values = np.asarray(gap_values, dtype=float)
        if gap_values.ndim and gap_values.shape != (iterations,):
            raise ConfigError(
                f"gap_values must be a scalar or hold one value per iteration "
                f"({iterations}), got shape {gap_values.shape}"
            )
        if not (np.isfinite(gap_values).all() and (gap_values >= 0.0).all()):
            raise ConfigError("gap_values must be finite and non-negative")
        policies.append(_policy(algorithm))
        terms.append(np.broadcast_to(_threshold_term(algorithm, gap_values, m), (iterations,)))
    if not rules:
        return []
    by_tau = sorted(range(len(rules)), key=lambda i: policies[i][0])
    best = np.argmax(w)
    # raw weights by accept_index: index -1, no acceptance, reads the
    # appended 0.0, and a zero weight is 0.0 however large exp(m) is
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.append(np.where(w > 0.0, w * np.exp(m), 0.0), 0.0)
    fields, reduce = reducer
    kept = [None] * len(rules)
    blocks = _chunks(w.size, iterations, [a for a, _ in rules], _FIXED_PROFILE_ROWS)
    for rows, cols in _arrival_columns(seed, w.size, blocks):
        block, state = slice(rows.start, rows.stop), {}
        for i in by_tau:
            tau, gamma, strict = policies[i]
            if tau not in state:
                state = {tau: _fixed_profile_state(w, cols, tau)}
            out = _fixed_profile_pass(w, cols, state[tau], terms[i][block], gamma, strict)
            out = _threshold_outcomes(out, best)
            out["accept_weight"] = raw.take(out["accept_index"])
            kept[i] = _write_rows(kept[i], out, fields, rows, iterations)
        # the next block is drawn while these names would still hold this one's
        del state, out
    return [reduce(k) for k in kept]


# ---------------------------------------------------------------------------
# Multi-selection estimation


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
    if fixed_profile.n != config.n:
        raise ConfigError(f"fixed_profile has n={fixed_profile.n}, the config n={config.n}")
    return batch_ratio_for_profiles(
        [fixed_profile] * config.iterations, config.algorithm, config.gap, config.master_seed
    )
