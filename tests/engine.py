"""The tests' one way into the engine's private names: ``kernels``, ``batch``
and ``montecarlo`` are named here and in ``test_layers.py`` alone, which
checks that, so a refactor of the engine edits this module, not the tests.

Crafted batches go through the production builder, ``batch._built_batch``:
``batch_of`` feeds it given arrival times one row block at a time, as
``batch._arrival_rows`` gives drawn ones, and writes the given linear weights
as log-weights, so the builder normalizes them, reads each row's best index
and builds the states of both row kernels and joins them, as it does for
drawn and replayed chunks.
"""

import numpy as np
import pytest

from gapsecretary import batch, kernels, montecarlo
from gapsecretary.generators import SeededRng

# ---------------------------------------------------------------------------
# Batches


def batch_of(weights, times, taus=(), pairs=()):
    """The batch of the linear ``weights`` (rows, n), zeros allowed, arriving
    at ``times``, with the states of the threshold ``taus`` and l-select
    (tau, L) ``pairs``, built by ``batch._built_batch``: its weights and log
    maxima are each row's ``WeightProfile.normalized_weights`` and
    ``max_log_weight``, bit for bit. It leaves the memo as it is."""
    weights, times = np.asarray(weights, dtype=float), np.asarray(times, dtype=float)
    B, n = weights.shape
    arrivals = ((rows, times[rows], ()) for rows in batch._row_blocks(B, n))

    def fill(rows, streams, out):
        with np.errstate(divide="ignore"):
            np.log(weights[rows], out=out)

    return batch._built_batch(n, range(B), arrivals, fill, taus, pairs)


def built(family, n, rows, seed, taus=(), pairs=()):
    """The generated batch of iterations ``rows``, drawn afresh."""
    return batch._build_batch(family, n, rows, seed, taus, pairs)


def replayed(profiles, seed, taus=(), pairs=()):
    """The batch of the replayed ``profiles``, one iteration each."""
    return batch._replay_batch(profiles, seed, range(len(profiles)), taus, pairs)


def generated(config, rows, taus=()):
    """The generated batch of ``config``'s iterations ``rows`` as an
    estimate takes it: from the memo when it serves them."""
    return batch._generated_batch(config, rows, taus)


def times(seed, rows, n) -> np.ndarray:
    """The arrival times of iterations ``rows`` under ``seed``, row i read
    from stream i, as the stream contract states."""
    return np.array([SeededRng(seed).stream(i).random(n) for i in rows])


def held(b) -> list:
    """Every array a batch holds: its instances and the work kept on them."""
    arrays = [b.weights, b.max_log, *b._largest.values(), *b._top_totals.values()]
    for state in [b.state, *b.l_states.values()]:
        arrays += [a for a in state or () if isinstance(a, np.ndarray)]
    return list({id(a): a for a in arrays}.values())


def kept_ranks(b) -> set:
    """The ranks whose column of j-th largest weights a batch keeps."""
    return set(b._largest)


def row_blocks(B: int, n: int) -> list:
    """The row blocks of a batch of B rows of n elements."""
    return batch._row_blocks(B, n)


# ---------------------------------------------------------------------------
# Runs


def outcomes(b, cells) -> list:
    """Each cell's per-row outcomes on the batch ``b``, which holds the
    states the cells read, through ``montecarlo._run_cells``, in one chunk."""
    B, n = b.weights.shape
    return montecarlo._run_cells(n, B, lambda *_: b, cells, montecarlo._KEEP_ALL)


def estimates(config, cells) -> list:
    """The estimates of ``cells`` on one generated run of ``config``, as a
    sweep runs them."""
    return montecarlo._on_generated(config, cells)


def fresh_estimates(config, cells) -> list:
    """The estimates of ``cells`` on ``config``'s instances, each chunk
    drawn afresh: neither read from the memo nor kept in it."""

    def fresh(rows, taus, pairs):
        return batch._build_batch(config.family, config.n, rows, config.master_seed, taus, pairs)

    return montecarlo._run_cells(config.n, config.iterations, fresh, cells)


def policy(algorithm):
    """A single-selection rule's threshold policy ``(tau, gamma, strict)``."""
    return montecarlo._policy(algorithm)


def threshold_term(algorithm, gap, max_log, b=None):
    """The term a rule adds to best-so-far, per row in normalized units."""
    return montecarlo._threshold_term(algorithm, gap, max_log, b)


def reads(tag: str) -> tuple:
    """The cell fields a rule reads besides tau."""
    return montecarlo._READS[tag]


def chunks(n: int, iterations: int, algorithms) -> list:
    """The row ranges a run of ``algorithms`` is chunked into."""
    return list(montecarlo._chunks(n, iterations, algorithms))


# ---------------------------------------------------------------------------
# Kernels


def threshold_state(weights, times, tau):
    """The threshold kernel's state at ``tau``."""
    return kernels._threshold_state(weights, times, tau)


def narrowed_state(state, tau):
    """The threshold state at ``tau`` read off one at a smaller tau."""
    return kernels._narrowed_state(state, tau)


def threshold_pass(state, gaps, gamma=0.0, strict=False):
    """The threshold kernel's pass over ``state``, one result per gap."""
    return kernels._threshold_pass(state, gaps, gamma, strict)


def threshold(weights, times, tau, gaps, gamma=0.0, strict=False):
    """The row kernel's passes of one policy over ``gaps``, its state built
    for this call alone."""
    return threshold_pass(threshold_state(weights, times, tau), gaps, gamma, strict)


def one_gap(weights, times, tau, gap=0.0, gamma=0.0, strict=False) -> dict:
    """The row kernel on a single gap."""
    (out,) = threshold(weights, times, tau, [gap], gamma, strict)
    return out


def l_select_state(weights, times, tau, L):
    """The l-select kernel's state at ``tau`` and ``L``."""
    return kernels._l_select_state(weights, times, tau, L)


def l_select_kept(state, tau, gaps):
    """The entries of an l-select state a pass reads, and the row of each."""
    return kernels._l_select_kept(state, tau, gaps)


def l_select_hits(w_ranked, arrival, pre, gaps, L):
    """The l-select hits, as an (R, n) mask in rank order."""
    return kernels._l_select_hits(w_ranked, arrival, pre, gaps, L)


def l_select(weights, times, tau, L, gaps) -> dict:
    """The l-select kernel's pass over ``gaps``, its state built for this
    call alone."""
    state = l_select_state(weights, times, tau, L)
    return kernels._l_select_pass(state, tau, L, weights.shape[1], gaps)


def fixed_profile(w, times, tau, gap=0.0, gamma=0.0, strict=False) -> dict:
    """The fixed-profile kernel's pass of one policy over (B, n) arrival
    ``times`` of the weight vector ``w``, its state built for this call
    alone."""
    cols = np.ascontiguousarray(times.T)
    state = kernels._fixed_profile_state(w, cols, tau)
    return kernels._fixed_profile_pass(w, cols, state, gap, gamma, strict)


# ---------------------------------------------------------------------------
# The memo


def memo():
    """The memoized whole-run batch, or None."""
    (b,) = batch._last_batch.values() or (None,)
    return b


def clear_memo() -> None:
    batch._last_batch.clear()


# ---------------------------------------------------------------------------
# Structure: patched sizes, counted and forbidden calls


def rechunk(mp, threshold=None, l_select=None, fixed_rows=None) -> None:
    """Cut the run's chunk entries (elements) and the fixed-profile block
    (rows) under the monkeypatch ``mp``; None keeps an entry."""
    table = dict(montecarlo._CHUNK_ELEMENTS)
    for kernel, elements in (("threshold", threshold), ("l-select", l_select)):
        if elements is not None:
            table[kernel] = elements
    mp.setattr(montecarlo, "_CHUNK_ELEMENTS", table)
    if fixed_rows is not None:
        mp.setattr(montecarlo, "_FIXED_PROFILE_ROWS", fixed_rows)


def reblock(mp, elements: int) -> None:
    """Cut the batch's row blocks to ``elements`` elements."""
    mp.setattr(batch, "_BLOCK_ELEMENTS", elements)


def forbid_draws(mp) -> None:
    """Make any arrival draw fail the test."""

    def no_draw(*args):
        raise AssertionError("arrival times were drawn")

    mp.setattr(batch, "_arrival_rows", no_draw)
    mp.setattr(montecarlo, "_arrival_columns", no_draw)


def crafted_runs(mp, weights, times) -> None:
    """Make every generated chunk the rows of the crafted batch of linear
    ``weights`` and ``times`` (``batch_of``), behind an empty memo."""
    mp.setattr(batch, "_last_batch", {})

    def build(family, n, rows, seed, taus=(), pairs=()):
        block = slice(rows.start, rows.stop)
        return batch_of(weights[block], times[block], taus, pairs)

    mp.setattr(batch, "_build_batch", build)


def count_threshold_passes(mp) -> dict:
    """Count the threshold passes of ``montecarlo`` and the gaps they evaluate."""
    calls = {"passes": 0, "gaps": 0}
    kernel = montecarlo._threshold_pass

    def counting(state, gaps, *args):
        calls["passes"] += 1

        def counted():
            for gap in gaps:
                calls["gaps"] += 1
                yield gap

        return kernel(state, counted(), *args)

    mp.setattr(montecarlo, "_threshold_pass", counting)
    return calls


def count_l_select_passes(mp) -> list:
    """One entry per l-select pass ``montecarlo`` runs."""
    calls = []
    kernel = montecarlo._l_select_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    mp.setattr(montecarlo, "_l_select_pass", counting)
    return calls


def count_work(mp) -> dict:
    """Count sorts of the rows and threshold state builds."""
    counts = {"sorts": 0, "states": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        mp.setattr(module, name, counted)

    counting(np, "sort", "sorts")
    counting(batch, "_threshold_state", "states")
    return counts


@pytest.fixture
def draws(monkeypatch) -> list:
    """The (family, n, rows, master_seed) of every generated chunk drawn
    while the test runs, in order: each call of ``batch._build_batch``, the
    one function every generated chunk is drawn through."""
    calls = []
    build = batch._build_batch

    def counting(family, n, rows, master_seed, *policies):
        calls.append((family, n, rows, master_seed))
        return build(family, n, rows, master_seed, *policies)

    monkeypatch.setattr(batch, "_build_batch", counting)
    return calls
