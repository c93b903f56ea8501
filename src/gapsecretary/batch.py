"""The batch layer: the instances of a chunk of iterations, generated or
replayed, normalized once, with the gap-independent work done on them, and
the memo of the last batch that covered a whole run.

Generated instances are a pure function of (family, n, iterations,
master_seed), so the last batch that covered a whole run in one chunk is
memoized under that key in ``_last_batch``, its weights, times and
``max_log`` marked read-only. The batch carries the gap-independent work
done on it: the j-th largest weight of each row for every rank a gap has
read and the total of its L largest weights for every L an l-select cell
has read (one (rows,) column each, taken from one sort per call that needs
a new one), the best index, and the threshold state of the last ``tau``
asked (its candidates and best-so-far), which serves every ``gamma`` and
strictness at that ``tau`` and is narrowed for a larger one. The next
estimate with the same key gets the same batch: it draws, sorts and
prepares nothing an earlier one did, and its arrays are what a fresh draw
gives, bit for bit.
Each of these reads runs over row blocks of ``kernels._BLOCK_ELEMENTS``
elements (``kernels._row_blocks``), each block's result written into its
rows of the kept column, so none makes a float (rows, n) temporary: read
whole, the sort, the best-so-far product and ``np.argmax`` would each make
one, the last because numpy copies a read-only input, such as the memo's
weights, in ``argmax`` and ``argmin``. A row's result does not depend on
the other rows of its block, so the blocked reads equal the whole-array
ones bit for bit, and the engine's peak is the weights, plus the times,
plus one block (and the state's two bool (rows, n) masks).
Every arrival draw is made here, by ``_arrival_rows`` (a stream per row) or
``_arrival_columns`` (one stream for a fixed profile); only they drop the
memo, before anything else is made or drawn, so no later draw holds it
beside its own batch, and a run of several chunks leaves nothing behind.
Until that next draw the last whole-run batch stays resident (two
(iterations, n) float arrays, up to about 80 MB for a full chunk, plus its
rank columns and the three candidate arrays of one ``tau``, 24 bytes per
candidate: about 0.5 MB at ``tau`` = 0.2, n = 200 and 5000 iterations,
24 MB at ``tau`` = 0), also while other work that draws nothing runs in
the same process.
The module defines no public function: every entry point, including
``regenerate_profiles``, is in ``montecarlo``, which checks the run
(``montecarlo._check_run``) before it calls anything here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import normalize_rows
from .generators import InstanceFamily, SeededRng
from .kernels import _narrowed_state, _row_blocks, _threshold_state, _ThresholdState


@dataclass(frozen=True)
class _InstanceBatch:
    """A chunk of instances, with the gap-independent work done on it so far,
    so that a batch used again does none of it again: the j-th largest weight
    of each row for each rank j a gap has read, the total of each row's L
    largest weights for each L an l-select cell has read, the best index,
    and the threshold state of the last ``tau`` asked. All are 1-D: (rows,)
    columns, or one entry per candidate; no (rows, n) array beyond the
    weights and times is kept, and no float one is made: each read runs over
    row blocks (``kernels._row_blocks``), so a read holds at most one block
    beside the weights and times."""

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

    def threshold_state(self, tau: float) -> _ThresholdState:
        """The state of the threshold rules at ``tau``, kept until another
        ``tau`` is asked: the kept state narrowed when it is at a smaller
        tau, else built from the weights and times."""
        if tau not in self._states:
            kept = next(iter(self._states.items()), None)
            if kept is not None and kept[0] < tau:
                state = _narrowed_state(kept[1], tau)
            else:
                state = _threshold_state(self.weights, self.times, tau)
            self._states.clear()
            self._states[tau] = state
        return self._states[tau]

    @cached_property
    def best_index(self) -> np.ndarray:
        """The index of each row's first maximum."""
        B, n = self.weights.shape
        best = np.empty(B, dtype=np.intp)
        for rows in _row_blocks(B, n):
            np.argmax(self.weights[rows], axis=1, out=best[rows])
        return best


# the last generated batch that covered a whole run, read-only, with the
# work kept on it, under (family, n, iterations, master_seed); at most one
# entry, dropped before any other instances or arrival times are drawn
_last_batch: dict = {}


def _arrival_rows(n: int, master_seed: int, rows: range):
    """Drop the memo, then give a (rows, n) array for the arrival times of
    ``rows`` and a generator that draws row i from stream i and yields the
    stream; made after the drop, a new batch reuses the memo's memory."""
    _last_batch.clear()
    times = np.empty((len(rows), n))

    def draws():
        for row, rng in zip(times, SeededRng(master_seed).streams(rows)):
            rng.random(out=row)
            yield rng

    return times, draws()


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


def _draw_rows(
    family: InstanceFamily, n: int, rows: range, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times and raw log-weights of the instances in ``rows``, one
    row each, in two (rows, n) arrays: stream i draws iteration i's arrival
    times, then its weights."""
    times, arrivals = _arrival_rows(n, master_seed, rows)
    log_weights = np.empty_like(times)
    family.draw_rows(arrivals, log_weights)
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
    times, arrivals = _arrival_rows(profiles[rows.start].n, master_seed, rows)
    for _ in arrivals:
        pass
    log_weights = np.stack([profiles[i].log_weights for i in rows])
    return _normalized_batch(times, log_weights)


def _generated_batch(config, rows: range) -> _InstanceBatch:
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
