"""The batch layer: the instances of a chunk of iterations, generated or
replayed, normalized once, with the kernel states its run reads and the
gap-independent work done on them, and the memo of the last batch that
covered a whole run.

A batch holds its normalized weights, the one (rows, n) array it keeps, and
small states; no batch keeps its arrival times. One builder,
``_built_batch``, serves drawn and replayed chunks in one loop over row
blocks of ``_BLOCK_ELEMENTS`` elements. For each block it draws the arrival
times into one reused buffer (``_arrival_rows``), draws or replays the
block's weights into the chunk's weights, normalizes them in place, and
reads the block at once into the index of each row's first maximum and
the gap-independent state of every kernel policy the run reads
(``_run_cells`` names them): the threshold state at the run's smallest
threshold ``tau``, which serves every ``gamma`` and strictness at that tau
and is narrowed for a larger one, and the l-select state of each (tau, L).
The block's times are then dropped, and the states of the blocks are joined
field by field, so two full copies of a state are never held. A row is
normalized and read alone, so no result depends on the blocks. The row
blocks are decided here alone: the kernels take whole arrays. An l-select
chunk (``montecarlo._CHUNK_ELEMENTS``) is one block of 65,536 elements, so
an l-select run's states are joined from one part.

The batch also keeps the gap-independent work done on it: the j-th largest
weight of each row for every rank a gap has read and the total of its L
largest weights for every L an l-select cell has read, one (rows,) column
each, taken from one sort per call that needs a new one. The sort runs
over row blocks (``_row_blocks``), each block's result written into its
rows of the kept column, so it makes no float (rows, n) temporary. Beside
the weights and the states, an estimate holds one block's times and
temporaries while it builds the batch, and a kernel pass's temporaries,
which grow with the candidates, while it runs.

Generated instances are a pure function of (family, n, iterations,
master_seed), so the last batch that covered a whole run in one chunk is
memoized under that key in ``_last_batch``, its weights, ``max_log`` and
best index marked read-only. The next estimate with the same key gets the
same batch when the batch holds the states that estimate reads: its tau at
or below the estimate's smallest, and each of its (tau, L). Then it draws,
sorts and prepares nothing an earlier one did, and its arrays are what a
fresh draw gives, bit for bit. Any other estimate draws its batch afresh,
and a whole-run batch replaces the memo.
Every arrival draw is made here, by ``_arrival_rows`` (a stream per row) or
``_arrival_columns`` (one stream for a fixed profile), and each drops the
memo before anything else is made or drawn, so no later draw holds it
beside its own batch, and a run of several chunks leaves nothing behind.
Until the next draw the last whole-run batch stays resident (one
(iterations, n) float array, up to 40 MB for a full chunk, plus its rank
columns and states; the threshold state's three candidate arrays take 17
bytes per candidate at n <= 256: about 0.35 MB at ``tau`` = 0.2, n = 200
and 5000 iterations, 17 MB at ``tau`` = 0), also while other work that
draws nothing runs in the same process.
The module defines no public function: every entry point, including
``regenerate_profiles``, is in ``montecarlo``, which checks the run
(``montecarlo._check_run``) before it calls anything here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import normalize_rows
from .generators import InstanceFamily, SeededRng
from .kernels import _Entries, _joined_state, _l_select_state, _threshold_state

# the elements in one row block of a batch's arrival draw and of each
# gap-independent read of it (``_row_blocks``): each makes its float
# temporaries one block at a time, so none is the size of the batch; 512 KiB
# of float64, where the reads of a 5000×200 batch ran as fast as at 2^14 or
# 2^15 elements and faster than whole or at 2^18
_BLOCK_ELEMENTS = 2**16


def _row_blocks(B: int, n: int) -> list[slice]:
    """Slices of consecutive rows, in order, that cover B rows of n elements,
    each of at most ``_BLOCK_ELEMENTS`` elements or one row."""
    step = max(1, _BLOCK_ELEMENTS // n)
    return [slice(start, min(start + step, B)) for start in range(0, B, step)]


@dataclass(frozen=True)
class _InstanceBatch:
    """A chunk of instances with the index of each row's first maximum and
    the states its run reads, all read as the chunk was built
    (``_built_batch``), and the gap-independent work done on it so far, so
    that a batch used again does none of it again: the j-th largest weight
    of each row for each rank j a gap has read and the total of each row's L
    largest weights for each L an l-select cell has read. The weights are
    the only (rows, n) array kept, and no float one is made: the rank
    columns are read over row blocks (``_row_blocks``)."""

    weights: np.ndarray  # normalized linear weights, (rows, n)
    max_log: np.ndarray  # per-instance log normalization constant, (rows,)
    best_index: np.ndarray  # the index of each row's first maximum, (rows,)
    tau: float | None  # the smallest threshold tau of the run, None for none
    state: _Entries | None  # the threshold state at ``tau``
    l_states: dict  # the l-select state of each (tau, L) of the run
    _largest: dict = field(default_factory=dict, init=False, repr=False)
    _top_totals: dict = field(default_factory=dict, init=False, repr=False)

    def read_sorted(self, ranks=(), tops=()) -> None:
        """Keep the ``ranks``-th largest weight of each row (rank 1 is the
        maximum) and, for each L in ``tops``, the total of each row's L
        largest weights, summed from the largest down. Those not yet kept
        are read from one sort of the rows, a row block at a time."""
        B, n = self.weights.shape
        largest = {j: np.empty(B) for j in set(ranks) - self._largest.keys()}
        totals = {L: np.empty(B) for L in set(tops) - self._top_totals.keys()}
        if largest or totals:
            for rows in _row_blocks(B, n):
                ascending = np.sort(self.weights[rows], axis=1)
                for j, column in largest.items():
                    column[rows] = ascending[:, n - j]
                for L, total in totals.items():
                    # a descending copy, so the sum runs in that order
                    top = np.ascontiguousarray(ascending[:, n - L :][:, ::-1])
                    np.sum(top, axis=1, out=total[rows])
            self._largest.update(largest)
            self._top_totals.update(totals)

    def largest(self, ranks) -> list[np.ndarray]:
        """The ``ranks``-th largest weight of each row, one (rows,) column
        per rank (``read_sorted``)."""
        self.read_sorted(ranks=ranks)
        return [self._largest[j] for j in ranks]

    def top_total(self, L: int) -> np.ndarray:
        """The total of each row's L largest weights (``read_sorted``)."""
        self.read_sorted(tops=(L,))
        return self._top_totals[L]


# the last generated batch that covered a whole run, read-only, with the
# states of that run and the work kept on it, under (family, n, iterations,
# master_seed); at most one entry, dropped before any other instances or
# arrival times are drawn
_last_batch: dict = {}


def _arrival_rows(n: int, master_seed: int, rows: range):
    """Drop the memo and give a generator of the arrival times of ``rows``
    one row block (``_row_blocks``) at a time: per block its slice
    of the rows, its (block rows, n) times, and a generator that draws row
    i's times from stream i, then yields the stream, for the row's weights
    to be drawn from it next. A block's times are drawn once its generator
    is exhausted; every block is drawn into one buffer, made after the drop,
    so they are valid until the next block is taken."""
    _last_batch.clear()
    blocks = _row_blocks(len(rows), n)
    buffer = np.empty((blocks[0].stop, n))

    def taken():
        # taken at the first draw, after ``draw_rows`` checked the size
        yield from SeededRng(master_seed).streams(rows)

    streams = taken()

    def drawn(times):
        for row, rng in zip(times, streams):
            rng.random(out=row)
            yield rng

    def per_block():
        for block in blocks:
            times = buffer[: block.stop - block.start]
            yield block, times, drawn(times)

    return per_block()


def _arrival_columns(seed: int, n: int, blocks):
    """Drop the memo, then yield each range of iterations in ``blocks`` with
    its arrival times as (n, rows) columns, drawn in order from one stream.

    Each block is drawn as (rows, n) and transposed alone, so the values do
    not depend on where the blocks end, and no array of more than one
    block's times is made. The columns of every block are written into one
    buffer, so a block's columns are valid only until the next is drawn."""
    _last_batch.clear()
    rng = np.random.default_rng([int(seed)])
    buffer = np.empty((n, 0))
    for rows in blocks:
        if buffer.shape[1] < len(rows):
            buffer = np.empty((n, len(rows)))
        cols = buffer[:, : len(rows)]
        np.copyto(cols, rng.random((len(rows), n)).T)
        yield rows, cols


def _draw_rows(family: InstanceFamily, n: int, rows: range, master_seed: int) -> np.ndarray:
    """The raw log-weights of the instances in ``rows``, one row each, as a
    (rows, n) array: stream i draws iteration i's arrival times, then its
    weights."""
    arrivals = _arrival_rows(n, master_seed, rows)
    log_weights = np.empty((len(rows), n))
    for block, _, streams in arrivals:
        family.draw_rows(streams, log_weights[block])
    return log_weights


def _built_batch(n: int, rows: range, master_seed: int, fill, taus, pairs) -> _InstanceBatch:
    """The batch of iterations ``rows``, built in one pass over its row
    blocks. Per block, the arrival times are drawn (``_arrival_rows``),
    ``fill(block, streams, out)`` writes the block's raw log-weights into
    ``out``, taking each row's stream after its times, the block is
    normalized in place and read at once into its best index and the states
    that the threshold ``taus`` and l-select (tau, L) ``pairs`` read, and
    its times are dropped. The states of the blocks are joined field by
    field, so two full copies of a state are never held. The one builder of
    drawn and replayed batches, and the one place where batch weights are
    normalized; a row is normalized and read alone, so its bits do not
    depend on the block. ``_arrival_rows`` drops the memo before the
    batch's arrays are made, so the last batch is not held beside them."""
    arrivals = _arrival_rows(n, master_seed, rows)
    weights = np.empty((len(rows), n))
    max_log = np.empty(len(rows))
    best = np.empty(len(rows), dtype=np.intp)
    tau = min(taus, default=None)
    threshold = []
    l_select = {pair: [] for pair in pairs}
    for block, times, streams in arrivals:
        w = weights[block]
        fill(block, streams, w)
        max_log[block] = normalize_rows(w)
        np.exp(w, out=w)
        np.argmax(w, axis=1, out=best[block])
        if tau is not None:
            threshold.append(_threshold_state(w, times, tau))
        for (l_tau, L), parts in l_select.items():
            parts.append(_l_select_state(w, times, l_tau, L))
    state = None if tau is None else _joined_state(threshold)
    l_states = {pair: _joined_state(parts) for pair, parts in l_select.items()}
    return _InstanceBatch(weights, max_log, best, tau, state, l_states)


def _build_batch(
    family: InstanceFamily, n: int, rows: range, master_seed: int, taus=(), pairs=()
) -> _InstanceBatch:
    """The instances of iterations ``rows``, drawn straight into rows and
    normalized once for the whole batch or chunk, with the states of
    ``taus`` and ``pairs`` (``_built_batch``)."""

    def fill(block, streams, out):
        family.draw_rows(streams, out)

    return _built_batch(n, rows, master_seed, fill, taus, pairs)


def _replay_batch(profiles, master_seed: int, rows: range, taus=(), pairs=()) -> _InstanceBatch:
    """The user-supplied instances of iterations ``rows``, with the states
    of ``taus`` and ``pairs`` (``_built_batch``); stream i of the master
    seed provides iteration i's arrival draw."""

    def fill(block, streams, out):
        deque(streams, 0)
        np.stack([profiles[i].log_weights for i in rows[block]], out=out)

    return _built_batch(profiles[rows.start].n, rows, master_seed, fill, taus, pairs)


def _generated_batch(config, rows: range, taus=(), pairs=()) -> _InstanceBatch:
    """The instances the config's family draws for iterations ``rows``, with
    the states of ``taus`` and ``pairs``. A batch of the whole run is kept,
    its arrays read-only, in ``_last_batch``, and the next estimate on the
    same (family, n, iterations, seed) gets it when it serves that run: its
    tau at or below the run's smallest, a larger one being narrowed from its
    state, and every pair held. That estimate draws, sorts and prepares
    nothing an earlier one did; any other is drawn afresh, and a whole run
    replaces the memo."""
    key = (config.family, config.n, config.iterations, config.master_seed)
    whole = len(rows) == config.iterations
    batch = _last_batch.get(key) if whole else None
    if (
        batch is not None
        and (not taus or batch.tau is not None and batch.tau <= min(taus))
        and all(pair in batch.l_states for pair in pairs)
    ):
        return batch
    batch = _build_batch(config.family, config.n, rows, config.master_seed, taus, pairs)
    if whole:
        for a in (batch.weights, batch.max_log, batch.best_index):
            a.setflags(write=False)
        _last_batch[key] = batch
    return batch
