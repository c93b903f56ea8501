"""The kernels layer: each kernel runs one rule over a chunk of draws and
reads no spec, batch or driver.

Every single-selection rule is one threshold policy ``(tau, gap, gamma,
strict)``: after ``tau``, accept the first arrival at or above max(best-so-far,
gap), or above it when strict, and after time 1 - ``gamma`` at or above
best-so-far alone. ``montecarlo._policy`` gives a rule's ``(tau, gamma,
strict)``, and one of two kernels runs it, its gap beside, on a chunk of
draws. Each kernel is split in two: a state that does not depend on the
gap, built once per ``tau``, and a pass per gap that reads it:

* ``_threshold_state`` takes (rows, n) weights and arrival times, one
  instance per row, and ``_threshold_pass`` takes its state and a sequence
  of gaps and yields one result per gap: the generated and replayed batches
  of every estimate and sweep. Only a post-``tau`` element at or above
  best-so-far can be accepted, under any gap or ``gamma``, so the state
  keeps best-so-far per row and just those candidates (``_Entries``; about
  4 per row at ``tau`` = 0.2, n = 200; every element at ``tau`` = 0), and a
  pass reads nothing else: one comparison with the gap, one with 1 -
  ``gamma``, and a segment minimum of the passing arrival times per row. A
  candidate at a larger ``tau`` is one at a smaller ``tau`` too, so
  ``_narrowed_state`` reads the state at a larger ``tau`` off the
  candidates of one at a smaller ``tau``;
* ``_fixed_profile_state`` and ``_fixed_profile_pass`` take one weight
  vector and the (n, rows) columns of a block of its arrival times, swept
  column by column, so every temporary is a (rows,) vector:
  ``simulate_fixed_profile`` and ``simulate_fixed_profile_rules``, where
  only the arrival order is random and several rules share one draw, run
  them on blocks of at most ``montecarlo._FIXED_PROFILE_ROWS`` rows.

The multi-selection rule is split the same way, into ``_l_select_state``
at one ``tau`` and L and ``_l_select_pass`` per gap. Its reference set holds
the top-L weights seen so far of Q, the pre-``tau`` elements and the
post-``tau`` ones at or above the gap, so its L-th weight r_L starts at
theta, the L-th largest pre-``tau`` weight (0 with fewer than L), and never
falls. A post-``tau`` element of Q enters it, a hit, exactly when fewer
than L strictly heavier elements of Q arrived before it. That reads weights
only, so it holds with ties. Only the pre-``tau`` elements at or above theta
and the post-``tau`` ones at or above max(theta, gap) can be a hit or decide
one (``_l_select_kept``). So the state keeps theta per row and the elements
at or above it, pre-``tau`` and post-``tau`` (``_Entries``), and the pass
cuts each row to its pre-``tau`` elements and those at or above the gap,
padded to the widest row of the chunk: about 10 of 200 per row at L = 2 and
``tau`` = 0.2 (the widest of 327 rows about 40, 31-61 over 20 seeds), and
most of the row at ``tau`` = 0 or a large L. It ranks those alone,
``_l_select_hits`` finds every hit with L running minima over their arrival
positions, and the pass walks the hits alone, every row's r-th hit in round
r. The top-L total, which does not depend on the gap, comes from the batch.
One pass over a 327-row chunk at n = 200 (exp, auto gap, medians of 15
passes in one process on a 2-core x86-64 machine) takes 2.0 ms at L = 2 and
``tau`` = 0.2 (0.9 ms for 81 rows), 10.1 ms at ``tau`` = 0 (3.2 ms) and 93
ms at L = 199 (25 ms). An l-select cell at n = 200 and 2000 iterations took
0.16-0.26 s while the kernel walked every arrival position, and 0.7-0.9 s
one instance at a time.

Every kernel takes whole arrays and knows no blocks. A state built over
consecutive row blocks, one at a time, with the blocks' states joined field
by field (``_joined_state``), equals one built over the whole arrays: a
row's entries do not depend on the other rows.

Both threshold kernels return one record per draw, two (rows,) arrays:
``accept_index``, the accepted element or -1 when none is, and ``ratio``,
its weight in the row's normalized units or 0.0 when none is accepted.

Every kernel takes normalized weights and gaps only. The per-draw runners in
``algorithms`` are the tests' reference for every kernel, and the row kernel
on a broadcast weight vector is the reference for the fixed-profile one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class _Entries(NamedTuple):
    """The state of a row kernel at one ``tau`` over (B, n) weights and
    times: one level per row, and the elements the kernel may read, its
    entries, as flat arrays in row-major order with the count of each
    row's. The threshold kernel's level is best-so-far and its entries the
    candidates; the l-select kernel's level is theta and its entries the
    elements at or above it."""

    level: np.ndarray  # (B,)
    counts: np.ndarray  # (B,) each row's entries in the flat arrays
    # (m,) the entries' indices, ascending within a row, in the smallest
    # unsigned type that holds n - 1: 1 byte, not 8, per entry at n = 200
    index: np.ndarray
    weight: np.ndarray  # (m,)
    time: np.ndarray  # (m,)


def _entries(weights: np.ndarray, times: np.ndarray, keep: np.ndarray, level: np.ndarray) -> _Entries:
    """The state of ``level`` and the elements of (B, n) ``weights`` and
    ``times`` where the (B, n) mask ``keep`` is set."""
    B, n = weights.shape
    position = np.flatnonzero(keep)
    return _Entries(
        level,
        np.bincount(position // n, minlength=B),
        (position % n).astype(np.min_scalar_type(n - 1)),
        weights.take(position),
        times.take(position),
    )


def _joined_state(parts: list) -> _Entries:
    """The state of consecutive row blocks whose states are ``parts``, in
    order, each field's pieces joined. ``parts`` is emptied and each field's
    pieces freed once it is joined, so no two full copies of a field are
    held."""
    fields = [list(pieces) for pieces in zip(*parts)]
    parts.clear()
    joined = []
    for f, pieces in enumerate(fields):
        fields[f] = None
        joined.append(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
    return _Entries(*joined)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows holding an entry, ascending, and where each one's run
    starts in the flat arrays."""
    rows = np.flatnonzero(counts)
    return rows, (np.cumsum(counts) - counts)[rows]


def _threshold_state(weights: np.ndarray, times: np.ndarray, tau: float) -> _Entries:
    """The state of threshold rules at ``tau`` over (B, n) ``weights`` and
    ``times``: best-so-far and the candidates."""
    pre = times <= tau
    # weights are finite and non-negative, so this is max(pre-tau weights, 0)
    bsf = np.max(weights * pre, axis=1)
    candidate = np.greater_equal(weights, bsf[:, None])
    candidate &= np.logical_not(pre, out=pre)
    return _entries(weights, times, candidate, bsf)


def _narrowed_state(state: _Entries, tau: float) -> _Entries:
    """The state at ``tau`` of the chunk whose state at a smaller tau is
    ``state``, equal to a fresh build, read off its candidates alone.

    A candidate at ``tau`` is one at the smaller tau too, and of the elements
    arriving between the two, only a candidate can raise best-so-far: every
    other one lies below it."""
    bsf, counts, index, weight, time = state
    rows, starts = _runs(counts)
    crossed = time <= tau
    bsf = bsf.copy()
    bsf[rows] = np.maximum(bsf[rows], np.maximum.reduceat(weight * crossed, starts))
    keep = weight >= np.repeat(bsf, counts)
    keep &= np.logical_not(crossed, out=crossed)
    counts = np.zeros_like(counts)
    counts[rows] = np.add.reduceat(keep, starts, dtype=counts.dtype)
    return _Entries(bsf, counts, index[keep], weight[keep], time[keep])


def _threshold_pass(state: _Entries, gaps, gamma: float = 0.0, strict: bool = False):
    """Run the threshold rules that share ``state`` over a chunk of draws
    once for each gap in ``gaps``, yielding per gap, in order, a dict of
    (B,) arrays: ``accept_index``, the accepted element or -1, and
    ``ratio``, its weight or 0.0.

    Each gap is a scalar or (B,) array in the units of the chunk's weights.
    Mirrors the per-draw runners in ``algorithms``: threshold max(best-so-far,
    gap) after ``tau``, dropping to best-so-far after time 1 - ``gamma``;
    ``strict`` switches >= to >. The accepted element is the earliest
    candidate to pass, tied times to the lower index.

    Only the candidates of ``state`` are read. Each is at or above
    best-so-far, so it passes when it is at or above the gap, or arrives
    after 1 - ``gamma``. Each row's earliest passing time is a segment
    minimum (``np.minimum.reduceat``), and the first candidate of the row at
    that time, the lowest index, is accepted.
    """
    bsf, counts, index, weight, time = state
    if strict and gamma > 0.0:
        raise ValueError("strict comparison has no late phase")
    B = bsf.size
    rows, starts = _runs(counts)
    sizes = counts[rows]
    late = time > 1.0 - gamma if gamma > 0.0 else None
    for gap in gaps:
        if strict:
            passed = weight > np.repeat(bsf, counts)
        else:
            passed = weight >= (gap if np.ndim(gap) == 0 else np.repeat(gap, counts))
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
        out = {"accept_index": np.full(B, -1, dtype=np.intp), "ratio": np.zeros(B)}
        out["accept_index"][accepted] = index.take(first)
        out["ratio"][accepted] = weight.take(first)
        yield out


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
    arrival-time columns ``cols`` of the weight vector ``w``, as a dict of
    (B,) arrays: ``accept_index``, the accepted element or -1, and
    ``ratio``, its weight in ``w`` or 0.0.

    The first arrival walks the columns in index order and takes a candidate
    only at a strictly earlier time, so tied times go to the lower index, as
    the row kernel gives them; it is kept as index plus one, 0 when none,
    beside its arrival time, which only the sweep reads.
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
        "ratio": np.concatenate(([0.0], w)).take(first),
    }


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


def _l_select_state(weights: np.ndarray, times: np.ndarray, tau: float, L: int) -> _Entries:
    """The state of the multi-selection rule at ``tau`` and ``L`` over (B,
    n) ``weights`` and ``times``: per row theta, the L-th largest pre-``tau``
    weight (0 with fewer than L), and the elements at or above it,
    pre-``tau`` and post-``tau``. Under any gap, the elements
    ``_l_select_kept`` keeps are among them."""
    n = weights.shape[1]
    pre_weights = np.where(times <= tau, weights, -1.0)
    pre_weights.partition(n - L, axis=1)  # in place: no second (B, n) float array
    theta = np.maximum(pre_weights[:, n - L], 0.0)
    return _entries(weights, times, weights >= theta[:, None], theta)


def _l_select_kept(state: _Entries, tau: float, gaps) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``state``, the multi-selection rule's state at
    ``tau``, that can be a hit under ``gaps`` or decide whether another is
    one, ascending, and the row of each.

    The reference set starts with the L best pre-``tau`` elements and with
    placeholders of weight 0 in its empty slots, so its lowest weight r_L
    starts at theta and never falls. A hit is a post-``tau`` arrival of
    weight at least max(r_L, gap), and whether an arrival is one turns on the
    heavier elements of Q that arrived before it (``_l_select_hits``): each
    is pre-``tau``, or post-``tau`` and at or above the gap, and heavier than
    a hit, so above theta. So the pre-``tau`` elements at or above theta and
    the post-``tau`` ones at or above max(theta, gap) hold every hit and
    everything that decides one: of the state's entries, all at or above
    theta, the pre-``tau`` ones and those at or above the gap.
    """
    rows = np.repeat(np.arange(state.counts.size), state.counts)
    keep = state.weight >= (gaps if np.ndim(gaps) == 0 else np.take(gaps, rows))
    keep |= state.time <= tau
    kept = np.flatnonzero(keep)
    return kept, rows[kept]


def _l_select_pass(state: _Entries, tau: float, L: int, n: int, gaps) -> dict:
    """Run the multi-selection rule at ``tau`` and ``L``, whose state is
    ``state``, over its (R, n) rows of normalized weights, as
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

    ``gaps`` is a scalar or (R,) array in the same units as the weights, at
    least 0. Returns the accepted elements as an (R, n) mask by element
    index and their total weight, summed in acceptance order.
    """
    R = state.counts.size
    kept, rows = _l_select_kept(state, tau, gaps)

    # the kept entries padded to (R, m) rows, m at least 1: kept entry j
    # goes to place j - first[row] of its row
    counts = np.bincount(rows, minlength=R)
    first = np.cumsum(counts) - counts
    m = int(counts.max(initial=1))
    dest = np.arange(kept.size) + (np.arange(R) * m - first)[rows]
    w = np.full((R, m), -1.0)
    w.ravel()[dest] = state.weight[kept]
    t = np.full((R, m), np.inf)
    t.ravel()[dest] = state.time[kept]

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
    by_index[rows, state.index[kept[first[rows] + by_rank[rows, ranks]]]] = True
    return {"accepted": by_index, "total_weight": total}
