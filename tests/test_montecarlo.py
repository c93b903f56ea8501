import math
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import engine
from gapsecretary import generators, montecarlo
from gapsecretary.algorithms import (
    PolicySchedule,
    _normalized_view,
    run_bounded_error,
    run_classical,
    run_exact_gap,
    run_l_selection_gap,
    run_robust_consistent,
    run_strict_classical,
)
from gapsecretary.bounds import tau_for_k
from gapsecretary.core import ArrivalDraw, WeightProfile, normalize, true_gap
from gapsecretary.generators import FAMILY_TAGS, InstanceFamily, SeededRng
from gapsecretary.montecarlo import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    GapSpec,
    batch_ratio_for_profiles,
    estimate_l_selection,
    estimate_ratio,
    exact_expectation_small_n,
    per_iteration_outcomes,
    regenerate_profiles,
    simulate_fixed_profile,
    sweep_k,
    sweep_sigma,
)

SEED = 99


def _dense_reference(weights, times, tau, gap=0.0, gamma=0.0, strict=False) -> dict:
    """One threshold policy on one gap over (B, n) rows, every mask built
    afresh: the reference the grouped row kernel must equal bit for bit."""
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
        "ratio": np.where(has, weights[r, first], 0.0),
    }


def _assert_same_arrays(got: dict, ref: dict, where=None):
    assert sorted(got) == sorted(ref), where
    for key in ref:
        assert got[key].dtype == ref[key].dtype, (key, where)
        assert np.array_equal(got[key], ref[key], equal_nan=True), (key, where)


def _scalar_reference(spec: AlgorithmSpec, profile, arrivals, gap):
    if spec.tag == "classical":
        return run_classical(profile, arrivals, spec.tau)
    if spec.tag == "strict-classical":
        return run_strict_classical(profile, arrivals, spec.tau)
    if spec.tag == "exact-gap":
        return run_exact_gap(profile, arrivals, spec.tau, gap)
    if spec.tag == "bounded":
        return run_bounded_error(profile, arrivals, spec.tau, gap, spec.epsilon)
    return run_robust_consistent(
        profile, arrivals, PolicySchedule(spec.tau, spec.gamma), gap
    )


class TestKernelMatchesScalarRunners:
    def test_random_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            B, n = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            W = rng.random((B, n)) * 10
            T = rng.random((B, n))
            tau = float(rng.random() * 0.9)
            gamma = float(rng.random() * (1 - tau) * 0.9)
            gaps = rng.random(B) * 12
            specs = [
                (AlgorithmSpec("classical", tau=tau), dict(gap=0.0)),
                (AlgorithmSpec("strict-classical", tau=tau), dict(gap=0.0, strict=True)),
                (AlgorithmSpec("exact-gap", tau=tau), dict(gap=gaps)),
                (
                    AlgorithmSpec("robust", tau=tau, gamma=gamma),
                    dict(gap=gaps, gamma=gamma),
                ),
            ]
            for spec, kw in specs:
                out = engine.one_gap(W, T, tau, **kw)
                for row in range(B):
                    prof = WeightProfile.from_weights(W[row])
                    ref = _scalar_reference(
                        spec, prof, ArrivalDraw(T[row]), float(gaps[row])
                    )
                    expected = -1 if not ref.accepted else ref.accepted_index
                    assert out["accept_index"][row] == expected, (spec.tag, row)

    def test_policy_tags_match_scalar_runners(self):
        # every single-selection tag through its policy and the kernel; rounded
        # weights and times force ties, and row 0 is all zero
        rng = np.random.default_rng(3)
        for trial in range(60):
            B, n = int(rng.integers(1, 12)), int(rng.integers(1, 7))
            W = rng.integers(0, 4, (B, n)) * 2.5
            W[0] = 0.0
            T = rng.integers(0, 5, (B, n)) / 4
            profiles = [WeightProfile.from_weights(row) for row in W]
            norm = np.array([p.normalized_weights for p in profiles])
            max_log = np.array([p.max_log_weight for p in profiles])
            gaps = rng.random(B) * 8
            tau = float(rng.choice([0.0, 0.25, 0.5, rng.random() * 0.7]))
            specs = [
                AlgorithmSpec("classical", tau=tau),
                AlgorithmSpec("strict-classical", tau=tau),
                AlgorithmSpec("exact-gap", tau=tau),
                AlgorithmSpec("bounded", tau=tau, epsilon=float(rng.random() * 4)),
                AlgorithmSpec("robust", tau=tau, gamma=float(rng.choice([0.0, 0.25]))),
            ]
            for spec in specs:
                p_tau, p_gamma, p_strict = engine.policy(spec)
                term = engine.threshold_term(spec, gaps, max_log)
                out = engine.one_gap(norm, T, p_tau, term, p_gamma, p_strict)
                for row in range(B):
                    ref = _scalar_reference(
                        spec, profiles[row], ArrivalDraw(T[row]), float(gaps[row])
                    )
                    if ref.accepted:
                        assert out["accept_index"][row] == ref.accepted_index
                    else:
                        assert out["accept_index"][row] == -1, (spec.tag, trial, row)
        with pytest.raises(ConfigError):
            engine.policy(AlgorithmSpec("l-select", L=2))

    def test_select_best_accepts_the_first_maximum(self, monkeypatch):
        # per row, select_best of both drivers is the scalar runner accepting
        # sorted_index(1); weights are small integers, so maxima tie. The
        # generated estimate runs on the crafted rows and the replayed one on
        # the profiles, both built by the engine's one builder, which reads
        # each row's best index as it builds the batch
        def selects_best(spec, p, t):
            ref = _scalar_reference(spec, p, ArrivalDraw(t), 5.0)
            return ref.accepted and ref.accepted_index == p.sorted_index(1)

        rng = np.random.default_rng(5)
        W = rng.integers(0, 4, (80, 5)) * 2.5
        W[0] = 0.0
        T = rng.random(W.shape)
        profiles = [WeightProfile.from_weights(row) for row in W]
        engine.crafted_runs(monkeypatch, W, T)
        fixed = WeightProfile.from_weights([2.5, 7.5, 0.0, 7.5, 7.5])
        # one stream from the seed, drawn in iteration order
        fixed_T =np.random.default_rng([SEED]).random((len(W), fixed.n))
        replay_T = engine.times(SEED, range(len(W)), W.shape[1])
        for spec in [
            AlgorithmSpec("classical", tau=0.3),
            AlgorithmSpec("strict-classical", tau=0.3),
            AlgorithmSpec("exact-gap", tau=0.2),
            AlgorithmSpec("bounded", tau=0.2, epsilon=1.0),
            AlgorithmSpec("robust", tau=0.2, gamma=0.3),
        ]:
            cfg = ExperimentConfig(
                InstanceFamily("exponential"), 5, len(W), spec, GapSpec(absolute=5.0)
            )
            generated = per_iteration_outcomes(cfg)["select_best"]
            simulated = simulate_fixed_profile(fixed, spec, len(W), SEED, 5.0)["select_best"]
            for row, prof in enumerate(profiles):
                for got, p, t in ((generated, prof, T), (simulated, fixed, fixed_T)):
                    assert got[row] == selects_best(spec, p, t[row]), (spec.tag, row)
            replayed = batch_ratio_for_profiles(profiles, spec, GapSpec(absolute=5.0), SEED)
            expected = [selects_best(spec, p, t) for p, t in zip(profiles, replay_T)]
            assert replayed.select_best_prob == float(np.mean(expected)), spec.tag

    def test_tied_arrival_times(self):
        W = np.array([[3.0, 5.0, 4.0]])
        T = np.array([[0.6, 0.6, 0.1]])
        ref = run_classical(WeightProfile.from_weights(W[0]), ArrivalDraw(T[0]), 0.2)
        for out in (engine.one_gap(W, T, 0.2), engine.fixed_profile(W[0], T, 0.2, 0.0)):
            assert out["accept_index"][0] == ref.accepted_index


# the rules whose policies share (tau, gamma, strict), by policy kind; gap
# entries take them in turn
_RULES_OF_KIND = {
    "plain": ("classical", "exact-gap", "bounded"),
    "robust": ("robust",),
    "strict": ("strict-classical",),
}


class TestGroupedRowKernel:
    """One kernel pass over several gaps equals one-gap passes and the dense
    reference bit for bit, and the scalar runners row by row, on rows with
    their own weights."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
            lambda shape: st.tuples(
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, 3), min_size=shape[1], max_size=shape[1]),
                        st.lists(st.integers(0, 4), min_size=shape[1], max_size=shape[1]),
                    ),
                    min_size=shape[0],
                    max_size=shape[0],
                ),
                st.lists(
                    st.one_of(
                        st.integers(0, 4),
                        st.lists(st.integers(0, 4), min_size=shape[0], max_size=shape[0]),
                    ),
                    max_size=4,
                ),
            )
        ),
        st.sampled_from(sorted(_RULES_OF_KIND)),
        st.sampled_from([0.0, 0.25, 0.5, 0.7]),
    )
    @example(([([0, 0, 0], [1, 2, 4]), ([2, 3, 3], [0, 2, 2])], [0, [1, 4], 2]), "plain", 0.0)
    @example(([([3, 3, 1], [2, 1, 1]), ([0, 2, 2], [4, 2, 2])], [0, 1]), "strict", 0.25)
    @example(([([1, 3, 3, 2], [1, 3, 3, 2]), ([1, 3, 3, 2], [4, 2, 2, 1])], [[1, 3], 2]), "robust", 0.0)
    @example(([([1, 2], [0, 3])], []), "robust", 0.25)
    @example(([([3, 1], [0, 4]), ([1, 3], [4, 4])], [0, [2, 0]]), "robust", 0.25)
    def test_property(self, case, kind, tau):
        # integer weights, gaps on the same grid and quarter-step times, so
        # weights, gaps and arrival times tie; a gap entry is one value for
        # every row or one per row
        rows, entries = case
        W = np.array([w for w, _ in rows]) * 2.5
        T = np.array([t for _, t in rows]) / 4
        profiles = [WeightProfile.from_weights(row) for row in W]
        norm = np.array([p.normalized_weights for p in profiles])
        max_log = np.array([p.max_log_weight for p in profiles])
        gamma, strict = (0.25 if kind == "robust" else 0.0), kind == "strict"

        # gaps straight in normalized units; a scalar stays a scalar
        gaps = [np.asarray(g) * 0.25 for g in entries]
        got = list(engine.threshold(norm, T, tau, gaps, gamma, strict))
        assert len(got) == len(gaps)
        for gap, out in zip(gaps, got):
            _assert_same_arrays(out, _dense_reference(norm, T, tau, gap, gamma, strict), gap)
            _assert_same_arrays(out, engine.one_gap(norm, T, tau, gap, gamma, strict), gap)

        # raw-unit gaps through each rule's policy, against the scalar runners
        tags = _RULES_OF_KIND[kind]
        specs = [
            AlgorithmSpec(tags[i % len(tags)], tau=tau, gamma=gamma, epsilon=1.25)
            for i in range(len(entries))
        ]
        raw = [np.broadcast_to(np.asarray(g) * 2.5, (len(W),)) for g in entries]
        assert all(engine.policy(s) == (tau, gamma, strict) for s in specs)
        terms = [engine.threshold_term(s, r, max_log) for s, r in zip(specs, raw)]
        got = list(engine.threshold(norm, T, tau, terms, gamma, strict))
        assert len(got) == len(terms)
        for spec, r, out in zip(specs, raw, got):
            for row, prof in enumerate(profiles):
                ref = _scalar_reference(spec, prof, ArrivalDraw(T[row]), float(r[row]))
                where = (spec, row)
                if ref.accepted:
                    assert out["accept_index"][row] == ref.accepted_index, where
                    assert out["ratio"][row] == norm[row, ref.accepted_index], where
                else:
                    assert out["accept_index"][row] == -1, where

    def test_strict_late_phase_rejected(self):
        with pytest.raises(ValueError, match="no late phase"):
            next(engine.threshold(np.ones((1, 2)), np.zeros((1, 2)), 0.2, [0.0], 0.1, True))


def _check_fixed_profile(weights, T, spec: AlgorithmSpec, gaps):
    """``_run_fixed_profile`` on the normalized weight vector against the row
    kernel on that vector broadcast to every row, key by key with dtypes,
    and both against the scalar runners on each row; ``gaps`` are per-row
    raw-unit gaps."""
    prof = WeightProfile.from_weights(weights)
    w, m = prof.normalized_weights, prof.max_log_weight
    tau, gamma, strict = engine.policy(spec)
    term = engine.threshold_term(spec, gaps, m)
    got = engine.fixed_profile(w, T, tau, term, gamma, strict)
    _assert_same_arrays(got, engine.one_gap(np.broadcast_to(w, T.shape), T, tau, term, gamma, strict))
    for row in range(T.shape[0]):
        scalar = _scalar_reference(spec, prof, ArrivalDraw(T[row]), float(gaps[row]))
        where = (spec, row)
        if scalar.accepted:
            assert got["accept_index"][row] == scalar.accepted_index, where
            assert got["ratio"][row] == w[scalar.accepted_index], where
        else:
            assert got["accept_index"][row] == -1, where
            assert got["ratio"][row] == 0.0, where


class TestFixedProfileKernel:
    """The column sweep over one weight vector equals the row kernel on the
    broadcast vector, bit for bit, and the scalar runners row by row."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, 4), min_size=n, max_size=n),
                        st.integers(0, 4),
                    ),
                    min_size=1,
                    max_size=6,
                ),
            )
        ),
        st.sampled_from(["classical", "strict-classical", "exact-gap", "bounded", "robust"]),
        st.sampled_from([0.0, 0.25, 0.5, 0.7]),
        st.sampled_from([0.0, 0.25]),
    )
    @example(([0, 0, 0], [([1, 2, 4], 0), ([0, 3, 3], 2)]), "exact-gap", 0.25, 0.0)
    @example(([3], [([0], 0), ([2], 1), ([4], 4)]), "classical", 0.0, 0.0)
    @example(([1, 3, 3, 2], [([1, 3, 3, 2], 1), ([4, 2, 2, 1], 3)]), "robust", 0.0, 0.25)
    def test_property(self, case, tag, tau, gamma):
        # integer weights, gaps on the same grid and quarter-step times, so
        # weights, gaps and arrival times tie; each row has its own gap
        weights, rows = case
        T = np.array([t for t, _ in rows]) / 4
        gaps = np.array([g for _, g in rows]) * 2.5
        spec = AlgorithmSpec(tag, tau=tau, gamma=gamma, epsilon=1.25)
        _check_fixed_profile(np.array(weights) * 2.5, T, spec, gaps)

    @pytest.mark.parametrize("n", [1, 7, 40, 300])
    def test_continuous_profiles(self, n):
        # n = 300 keeps the per-row codes in 16 bits
        rng = np.random.default_rng(n)
        weights = rng.standard_exponential(n)
        T = rng.random((50, n))
        gaps = rng.random(50) * 2.0
        for spec in (
            AlgorithmSpec("strict-classical", tau=0.3),
            AlgorithmSpec("exact-gap", tau=0.2),
            AlgorithmSpec("robust", tau=0.2, gamma=0.3),
        ):
            _check_fixed_profile(weights, T, spec, gaps)

    def test_strict_late_phase_rejected(self):
        with pytest.raises(ValueError, match="no late phase"):
            engine.fixed_profile(np.ones(2), np.zeros((1, 2)), 0.2, 0.0, 0.1, True)


def _check_l_select_rows(W, T, tau, L, gap: GapSpec):
    """The kernel on raw weight rows ``W``, fed the gaps the engine feeds it,
    against ``run_l_selection_gap`` on each row's normalized profile with the
    gap computed apart: sigma times (L-th minus (L+1)-th largest normalized
    weight), or the raw gap sigma times the absolute one, rescaled by the
    scalar runners' own raw-to-normalized map. The top-L total and the best
    index, which the engine reads off the batch, are checked too."""
    profiles = [WeightProfile.from_weights(row) for row in W]
    norm = np.array([p.normalized_weights for p in profiles])
    max_log = np.array([p.max_log_weight for p in profiles])
    spec = AlgorithmSpec("l-select", tau=tau, L=L)
    batch = engine.batch_of(W, T)
    gaps = engine.threshold_term(spec, gap, max_log, batch)
    out = engine.l_select(norm, T, tau, L, gaps)
    for row, raw in enumerate(profiles):
        prof = normalize(raw)
        ws = np.sort(prof.normalized_weights)[::-1]
        if gap.absolute is None:
            c = gap.sigma * float(ws[L - 1] - ws[L])
        else:
            c = _normalized_view(raw, gap.sigma * gap.absolute)[1]
        ref = run_l_selection_gap(prof, ArrivalDraw(T[row]), tau, c, L)
        where = (row, tau, L, gap)
        assert set(np.flatnonzero(out["accepted"][row])) == set(ref.indices), where
        assert out["total_weight"][row] == ref.total_weight, where
        assert batch.top_total(L)[row] == float(np.sum(ws[:L])), where
        best = int(np.argmax(prof.normalized_weights))
        assert batch.best_index[row] == best, where
        assert out["accepted"][row, best] == (best in ref.indices), where
        assert (not out["accepted"][row].any()) == (not ref.accepted), where


class TestLSelectKernelMatchesScalarRunner:
    def test_tied_rows(self):
        # integer weights and quantized times force ties in both; row 0 is
        # all zero, and the gaps run from 0 to above every weight
        rng = np.random.default_rng(11)
        rows = 0
        for trial in range(300):
            B, n = int(rng.integers(1, 14)), int(rng.integers(2, 8))
            W = rng.integers(0, 4, (B, n)) * 2.5
            W[0] = 0.0
            T = rng.integers(0, 5, (B, n)) / 4
            tau = float(rng.choice([0.0, 0.25, 0.5, rng.random() * 0.9]))
            L = int(rng.integers(2, n + 1))
            gaps = [GapSpec(absolute=0.0), GapSpec(absolute=5.0), GapSpec(absolute=100.0)]
            if L < n:
                gaps += [GapSpec(), GapSpec(sigma=0.0), GapSpec(sigma=1.5)]
            for gap in gaps:
                _check_l_select_rows(W, T, tau, L, gap)
                rows += B
        assert rows > 5000

    def test_continuous_rows(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            B, n = int(rng.integers(1, 40)), int(rng.integers(2, 30))
            W = rng.standard_exponential((B, n)) * 10.0 ** rng.integers(-3, 4)
            T = rng.random((B, n))
            L = int(rng.integers(2, n + 1))
            gap = GapSpec() if L < n else GapSpec(absolute=float(rng.random() * 3))
            _check_l_select_rows(W, T, float(rng.random() * 0.8), L, gap)

    def test_nan_gap_acts_as_no_gap(self):
        # an absolute gap of 1 rescales to inf on weights near e^-800, and
        # sigma 0 times that was NaN; the raw gap, sigma times 1, is 0, so
        # every gap rule runs as its scalar runner runs it, with no gap
        rng = np.random.default_rng(13)
        profiles = [WeightProfile(np.log(rng.random(6)) - 800.0) for _ in range(30)]
        batch = engine.replayed(profiles, SEED, {0.3}, {(0.3, 2)})
        times = engine.times(SEED, range(30), 6)
        for tag in ("exact-gap", "bounded", "robust", "l-select"):
            spec = AlgorithmSpec(tag, tau=0.3, gamma=0.25 * (tag == "robust"), epsilon=0.5, L=2)
            cells = [(spec, GapSpec(absolute=1.0, sigma=0.0)), (spec, GapSpec(absolute=0.0))]
            got, ref = engine.outcomes(batch, cells)
            _assert_same_arrays(got, ref, tag)
            for row, prof in enumerate(profiles):
                arrivals, where = ArrivalDraw(times[row]), (tag, row)
                if tag == "l-select":
                    norm = normalize(prof)
                    scalar = run_l_selection_gap(norm, arrivals, 0.3, 0.0, 2)
                    top = np.sort(norm.normalized_weights)[::-1][:2]
                    assert got["ratio"][row] == scalar.total_weight / np.sum(top), where
                    assert got["none"][row] == (not scalar.accepted), where
                else:
                    scalar = _scalar_reference(spec, prof, arrivals, 0.0)
                    expected = scalar.accepted_index if scalar.accepted else -1
                    assert got["accept_index"][row] == expected, where

    def test_gap_on_huge_scales_matches_scalar_runners(self):
        # log maxima of 700-900 put exp(-m) below the smallest normal double
        # on most rows; the raw gap 1e308 is then about e^-91 in normalized
        # units, near the other weights, and sigma 2 makes it +inf, which
        # accepts nothing
        rng = np.random.default_rng(17)
        profiles = [WeightProfile(np.array([800.0, 0.0, 799.0]))] + [
            WeightProfile(rng.permutation(np.append(0.0, -rng.uniform(85.0, 95.0, 2))) + m)
            for m in rng.uniform(700.0, 900.0, 40)
        ]
        batch = engine.replayed(profiles, SEED, {0.3}, {(0.3, 2)})
        times = engine.times(SEED, range(len(profiles)), 3)
        for tag in ("exact-gap", "bounded", "robust", "l-select"):
            spec = AlgorithmSpec(tag, tau=0.3, gamma=0.25 * (tag == "robust"), epsilon=0.5, L=2)
            for sigma, raw in ((1.0, 1e308), (2.0, math.inf)):
                (got,) = engine.outcomes(batch, [(spec, GapSpec(absolute=1e308, sigma=sigma))])
                for row, prof in enumerate(profiles):
                    arrivals, where = ArrivalDraw(times[row]), (tag, sigma, row)
                    if tag == "l-select":
                        norm = normalize(prof)
                        scalar = run_l_selection_gap(prof, arrivals, 0.3, raw, 2)
                        total = sum(norm.weight(i) for i in scalar.indices)
                        top = np.sort(norm.normalized_weights)[::-1][:2]
                        assert got["ratio"][row] == total / np.sum(top), where
                        assert got["none"][row] == (not scalar.accepted), where
                    else:
                        scalar = _scalar_reference(spec, prof, arrivals, raw)
                        expected = scalar.accepted_index if scalar.accepted else -1
                        assert got["accept_index"][row] == expected, where

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, 3), min_size=n, max_size=n),
                        st.lists(st.integers(0, 4), min_size=n, max_size=n),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                st.integers(2, n),
            )
        ),
        st.sampled_from([0.0, 0.25, 0.5, 0.7]),
        st.sampled_from([None, 0.0, 1.0, 2.5, 10.0]),
    )
    def test_property(self, case, tau, absolute):
        # integer weights and quarter-step times, so ties are common
        rows, L = case
        W = np.array([w for w, _ in rows], dtype=float)
        T = np.array([t for _, t in rows]) / 4
        if absolute is None and L == W.shape[1]:
            absolute = 1.0  # the auto gap needs an (L+1)-th weight
        _check_l_select_rows(W, T, tau, L, GapSpec(absolute=absolute))

    @pytest.mark.parametrize("n", [254, 255, 256, 300])
    def test_index_dtype_widening(self, n):
        # the arrival positions, their sentinel n and the placeholder ranks
        # n + j share the smallest unsigned type that holds n + L - 1: 8 bits
        # up to n = 254 at L = 2, 16 bits beyond; n = 256 has tied times
        rng = np.random.default_rng(n)
        W = rng.standard_exponential((4, n))
        T = rng.integers(0, 5, (4, n)) / 4 if n == 256 else rng.random((4, n))
        above = GapSpec(absolute=2.0 * float(W.max()))
        for L in (2, n - 1, n):
            gaps = [GapSpec(absolute=0.0), above] + [GapSpec()] * (L < n)
            for gap in gaps:
                _check_l_select_rows(W, T, 0.25, L, gap)


class TestLSelectCandidateEdges:
    """The kernel keeps of each row only the pre-tau elements at or above
    theta, the L-th largest pre-tau weight (0 with fewer than L), and the
    post-tau ones at or above max(theta, gap), padded to the widest row of
    the chunk. Each case is one chunk at the edge of that set, checked
    against ``run_l_selection_gap``. Every row's largest weight is 1 or it
    is all zero, so its raw and normalized weights and gaps agree."""

    # (tau, L, weights, times, absolute gaps); the auto gap runs too
    EDGES = {
        # theta = 0.5 is tied by two and three pre-tau elements, and
        # post-tau arrivals equal to it follow
        "pre-tau-tied-at-theta": (
            0.5, 2,
            [[1.0, 0.5, 0.5, 0.5, 0.75, 0.5], [0.5, 0.5, 0.5, 1.0, 0.25, 0.5]],
            [[0.0, 0.25, 0.5, 0.75, 0.875, 0.625], [0.25, 0.375, 0.125, 0.75, 0.5, 0.625]],
            [0.0, 0.5, 0.75],
        ),
        # one, two and no pre-tau elements for L = 3, so theta = 0 and the
        # reference set starts with placeholders
        "fewer-than-L-pre-tau": (
            0.25, 3,
            [[0.5, 1.0, 0.25, 0.75, 0.0, 0.5], [1.0, 0.25, 0.5, 0.75, 0.5, 0.25],
             [0.75, 1.0, 0.5, 0.25, 0.5, 0.0]],
            [[0.0, 0.5, 0.75, 0.375, 0.625, 0.875], [0.5, 0.125, 0.25, 0.75, 0.625, 0.375],
             [0.375, 0.5, 0.625, 0.75, 0.875, 1.0]],
            [0.0, 0.5],
        ),
        # a post-tau arrival of weight theta is a hit; the 0.75 gap equals
        # the second row's theta
        "post-tau-equal-to-theta": (
            0.5, 2,
            [[1.0, 0.5, 0.25, 0.5, 0.75], [0.25, 1.0, 0.75, 0.75, 0.5]],
            [[0.0, 0.25, 0.375, 0.625, 0.75], [0.625, 0.125, 0.25, 0.875, 0.75]],
            [0.0, 0.75],
        ),
        # gaps equal to post-tau candidates' weights, above theta, and to a
        # pre-tau weight
        "gap-on-a-candidate": (
            0.25, 2,
            [[0.25, 1.0, 0.75, 0.5, 0.75], [1.0, 0.5, 0.5, 0.75, 0.25]],
            [[0.0, 0.5, 0.375, 0.125, 0.625], [0.75, 0.5, 0.25, 0.375, 0.125]],
            [0.5, 0.75, 1.0],
        ),
        # nothing arrives by tau = 0 and the gaps lie above every weight, so
        # no row keeps any element
        "no-element-kept": (
            0.0, 2,
            [[1.0, 0.5, 0.25, 0.75], [0.75, 1.0, 0.0, 0.5]],
            [[0.25, 0.5, 0.75, 0.125], [0.5, 0.25, 0.375, 0.625]],
            [1.5, 4.0],
        ),
        # every post-tau element lies below theta in the first row, and the
        # second has none
        "no-post-tau-candidate": (
            0.5, 2,
            [[1.0, 0.75, 0.5, 0.25], [0.5, 0.75, 1.0, 0.25]],
            [[0.0, 0.25, 0.75, 0.875], [0.5, 0.125, 0.25, 0.375]],
            [0.0, 0.5],
        ),
        # an all-zero row beside a wider one: theta = 0, ties at 0, and a
        # zero gap puts every element of it in Q
        "all-zero-row": (
            0.25, 2,
            [[0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.75, 0.25, 0.5]],
            [[0.0, 0.5, 0.25, 0.75, 0.375], [0.5, 0.125, 0.75, 0.625, 0.875]],
            [0.0, 0.5],
        ),
        # tau = 0 and a zero gap keep every element of every row, as does
        # the third row's single pre-tau element for L = 3
        "whole-row-kept": (
            0.0, 3,
            [[1.0, 0.5, 0.25, 0.75, 0.5], [0.25, 0.75, 1.0, 0.5, 0.0], [0.5, 1.0, 0.75, 0.0, 0.25]],
            [[0.5, 0.25, 0.75, 0.125, 0.625], [0.875, 0.5, 0.25, 0.75, 0.375], [0.0, 0.5, 0.25, 0.75, 0.625]],
            [0.0],
        ),
    }

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_edge_matches_scalar_runner(self, edge):
        tau, L, weights, times, absolute = self.EDGES[edge]
        W, T = np.array(weights), np.array(times)
        for gap in [GapSpec(absolute=a) for a in absolute] + [GapSpec(), GapSpec(sigma=3.0)]:
            _check_l_select_rows(W, T, tau, L, gap)

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_kept_set(self, edge):
        # the state holds theta and exactly the elements at or above it; of
        # them the pass keeps the pre-tau ones and the post-tau ones at or
        # above the gap, for scalar and per-row gaps
        tau, L, weights, times, absolute = self.EDGES[edge]
        W, T = np.array(weights), np.array(times)
        state = engine.l_select_state(W, T, tau, L)
        rows = np.repeat(np.arange(len(W)), state.counts)
        for gaps in [*absolute, np.resize(absolute[::-1], len(W))]:
            entries, entry_rows = engine.l_select_kept(state, tau, gaps)
            assert np.array_equal(entry_rows, rows[entries])
            for row, (w, t, gap) in enumerate(zip(W, T, np.broadcast_to(gaps, len(W)))):
                pre = sorted(w[t <= tau], reverse=True)
                theta = pre[L - 1] if len(pre) >= L else 0.0
                assert state.level[row] == theta, (edge, row)
                held = state.index[rows == row].tolist()
                assert held == [i for i, wi in enumerate(w) if wi >= theta], (edge, row)
                expected = [i for i, (wi, ti) in enumerate(zip(w, t))
                            if wi >= theta and (ti <= tau or wi >= gap)]
                assert state.index[entries[entry_rows == row]].tolist() == expected, (edge, row, gaps)


def _rank_view(W, T, tau):
    """Rows of weights and times as the l-select hits take them, in rank
    order (-weight, index): the weights, the arrival positions (tied times
    to the lower index) and the pre-``tau`` flags; plus the ranking."""
    by_rank = np.argsort(-W, axis=1, kind="stable")
    position = np.argsort(np.argsort(T, axis=1, kind="stable"), axis=1)
    arrival = np.take_along_axis(position, by_rank, axis=1).astype(np.min_scalar_type(W.shape[1]))
    pre = np.take_along_axis(T <= tau, by_rank, axis=1)
    return np.take_along_axis(W, by_rank, axis=1), arrival, pre, by_rank


class TestLSelectHits:
    """The hits found in closed form are the arrivals at which the scalar
    runner's reference set changes."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, 3), min_size=n, max_size=n),
                        st.lists(st.integers(0, 4), min_size=n, max_size=n),
                        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                st.integers(2, n),
            )
        ),
        st.sampled_from([0.0, 0.25, 0.5, 0.7]),
    )
    @example(([([2, 2, 1, 2], [2, 1, 3, 4], 0.0)], 2), 0.25)
    @example(([([0, 0, 0], [1, 2, 2], 0.0), ([3, 3, 3], [0, 4, 4], 0.5)], 3), 0.0)
    def test_property(self, case, tau):
        # integer weights and quarter-step times tie weights, times and gaps;
        # each row has its own normalized gap
        rows, L = case
        W = np.array([w for w, _, _ in rows], dtype=float)
        T = np.array([t for _, t, _ in rows]) / 4
        profiles = [normalize(WeightProfile.from_weights(row)) for row in W]
        norm = np.array([p.normalized_weights for p in profiles])
        gaps = np.array([g for _, _, g in rows])
        w_ranked, arrival, pre, by_rank = _rank_view(norm, T, tau)
        hits = engine.l_select_hits(w_ranked, arrival, pre, gaps, L)
        got = np.zeros_like(hits)
        np.put_along_axis(got, by_rank, hits, axis=1)
        for row, (w, prof) in enumerate(zip(norm, profiles)):
            arrivals = ArrivalDraw(T[row])
            out = run_l_selection_gap(prof, arrivals, tau, float(gaps[row]), L, trace=True)
            pre_tau = [i for i in range(len(w)) if T[row, i] <= tau]
            seeded = sorted(pre_tau, key=lambda i: (-w[i], i))
            refs = [tuple(seeded[:L])] + [indices for _, indices in out.reference_trace]
            post = [int(i) for i in arrivals.order if T[row, i] > tau]
            changed = {i for i, a, b in zip(post, refs, refs[1:]) if a != b}
            assert set(np.flatnonzero(got[row])) == changed, (row, L, tau)


class TestSpecsValidation:
    def test_algorithm_spec(self):
        with pytest.raises(ConfigError):
            AlgorithmSpec("nope")
        with pytest.raises(ConfigError):
            AlgorithmSpec("classical", tau=1.0)
        with pytest.raises(ConfigError):
            AlgorithmSpec("robust", tau=0.4, gamma=0.6)
        with pytest.raises(ConfigError):
            AlgorithmSpec("l-select", L=0)

    def test_gap_spec(self):
        with pytest.raises(ConfigError):
            GapSpec(k=1)
        with pytest.raises(ConfigError):
            GapSpec(sigma=-0.1)
        # sigma scales an absolute gap too: a sigma-sweep cell over one is the
        # estimate of the GapSpec that names both
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            30,
            200,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(absolute=3.0),
            master_seed=SEED,
        )
        (cell,) = sweep_sigma(cfg, [2.0], [2])
        scaled = replace(cfg, gap=GapSpec(absolute=3.0, sigma=2.0))
        assert cell.estimate == estimate_ratio(scaled)
        assert cell.estimate != estimate_ratio(cfg)

    def test_config(self):
        fam = InstanceFamily("exponential")
        algo = AlgorithmSpec("exact-gap")
        with pytest.raises(ConfigError):
            ExperimentConfig(fam, 10, 0, algo, GapSpec(k=2))
        with pytest.raises(ConfigError):
            ExperimentConfig(fam, 10, 5, algo, GapSpec(k=11))
        with pytest.raises(ConfigError):
            ExperimentConfig(fam, 10, 5, algo)  # gap algorithms need k or absolute
        # l-select's auto gap is index-free
        ExperimentConfig(fam, 10, 5, AlgorithmSpec("l-select", L=2))

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64], ids=["float", "negative", "65-bit"])
    def test_config_checks_the_master_seed(self, seed):
        # each was accepted here and failed at the first draw, in SeededRng
        with pytest.raises(ConfigError, match="master seed must"):
            ExperimentConfig(InstanceFamily("exponential"), 10, 3, AlgorithmSpec("classical"), master_seed=seed)
        ExperimentConfig(InstanceFamily("exponential"), 10, 3, AlgorithmSpec("classical"), master_seed=2**64 - 1)

    @pytest.mark.parametrize(
        ("make", "match"),
        [
            (lambda fam, algo: ExperimentConfig(fam, 10, 3.0, algo), "iterations must be an integer"),
            (lambda fam, algo: ExperimentConfig(fam, 10.5, 3, algo), "n must be an integer"),
            (lambda fam, algo: ExperimentConfig(fam, np.float64(10), 3, algo), "n must be an integer"),
            (lambda fam, algo: AlgorithmSpec("l-select", L=2.5), "L must be an integer"),
            (lambda fam, algo: AlgorithmSpec("l-select", L=2.0), "L must be an integer"),
            (lambda fam, algo: GapSpec(k=2.5), "k must be an integer"),
            (lambda fam, algo: GapSpec(k=3.0), "k must be an integer"),
        ],
        ids=["iterations", "n", "numpy-float-n", "L", "whole-float-L", "k", "whole-float-k"],
    )
    def test_sizes_must_be_integers(self, make, match):
        # each was accepted and failed later in range() or numpy indexing
        with pytest.raises(ConfigError, match=match):
            make(InstanceFamily("exponential"), AlgorithmSpec("classical"))

    @pytest.mark.parametrize(
        ("make", "error", "match"),
        [
            (lambda fam, algo: ExperimentConfig(fam, 10, True, algo), ConfigError, "iterations must"),
            (lambda fam, algo: ExperimentConfig(fam, True, 3, algo), ConfigError, "n must"),
            (
                lambda fam, algo: simulate_fixed_profile(WeightProfile.from_weights([2.0, 1.0]), algo, True, 1),
                ConfigError,
                "iterations must",
            ),
            (
                lambda fam, algo: simulate_fixed_profile(WeightProfile.from_weights([2.0, 1.0]), algo, 4, True),
                ConfigError,
                "seed must",
            ),
            (
                lambda fam, algo: ExperimentConfig(fam, 10, 3, algo, master_seed=True),
                ConfigError,
                "master seed must",
            ),
            (lambda fam, algo: SeededRng(False), ValueError, "master seed must"),
            (lambda fam, algo: InstanceFamily("chi_squared", df=True), ValueError, "df must"),
        ],
        ids=["iterations", "n", "fixed-iterations", "fixed-seed", "master-seed", "rng-seed", "df"],
    )
    def test_a_bool_is_not_an_integer(self, make, error, match):
        # each ran as 1 or 0 (iterations=True ran one iteration, master_seed=True
        # seed 1), or failed in numpy
        with pytest.raises(error, match=match):
            make(InstanceFamily("exponential"), AlgorithmSpec("classical"))

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"), np.int64(10), np.int32(40),
            AlgorithmSpec("l-select", L=np.int64(2)), GapSpec(k=np.int64(2)), master_seed=SEED,
        )
        plain = ExperimentConfig(
            InstanceFamily("exponential"), 10, 40, AlgorithmSpec("l-select", L=2), GapSpec(k=2),
            master_seed=SEED,
        )
        assert estimate_ratio(cfg) == estimate_ratio(plain)

    def test_estimate_ratio_runs_l_select(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"), 10, 5, AlgorithmSpec("l-select", L=2)
        )
        assert estimate_ratio(cfg) == estimate_l_selection(cfg)


_RUN_PROFILE = WeightProfile.from_weights([3.0, 2.0, 1.0])
_RUN_RULE = AlgorithmSpec("classical", tau=0.3)

# every engine entry point, called with a run's (n, iterations, seed), and
# the arguments of the run it takes; a replay's n and iteration count are
# its profiles' size and number
RUN_ENTRY_POINTS = {
    "ExperimentConfig": (
        lambda n, iterations, seed: ExperimentConfig(
            InstanceFamily("exponential"), n, iterations, _RUN_RULE, master_seed=seed
        ),
        ("n", "iterations", "seed"),
    ),
    "batch_ratio_for_profiles": (
        lambda n, iterations, seed: batch_ratio_for_profiles(
            [_RUN_PROFILE] * iterations, _RUN_RULE, GapSpec(), seed
        ),
        ("seed",),
    ),
    "simulate_fixed_profile": (
        lambda n, iterations, seed: simulate_fixed_profile(_RUN_PROFILE, _RUN_RULE, iterations, seed),
        ("iterations", "seed"),
    ),
    "simulate_fixed_profile_rules": (
        lambda n, iterations, seed: montecarlo.simulate_fixed_profile_rules(
            _RUN_PROFILE, [(_RUN_RULE, 0.0)], iterations, seed
        ),
        ("iterations", "seed"),
    ),
    "regenerate_profiles": (
        lambda n, iterations, seed: regenerate_profiles(
            InstanceFamily("exponential"), n, iterations, seed
        ),
        ("n", "iterations", "seed"),
    ),
}

BAD_SIZES = {"float": 2.0, "bool": True, "zero": 0, "negative": -1}
BAD_SEEDS = {"negative": -1, "float": 1.5, "bool": True, "65-bit": 2**64}
RUN_MESSAGES = {
    "n": "n must be an integer >= 1",
    "iterations": "iterations must be an integer >= 1",
    "seed": "master seed must be a 64-bit non-negative integer",
}


class TestRunCheck:
    """One table of bad runs against every entry point: each is rejected by
    the one run rule with its message before anything is drawn."""

    @pytest.mark.parametrize(
        ("entry", "arg", "value"),
        [
            pytest.param(entry, arg, value, id=f"{entry}-{arg}-{name}")
            for entry, (_, takes) in RUN_ENTRY_POINTS.items()
            for arg in takes
            for name, value in (BAD_SEEDS if arg == "seed" else BAD_SIZES).items()
        ],
    )
    def test_bad_run_rejected_before_any_draw(self, entry, arg, value, monkeypatch):
        # regenerate_profiles raised numpy's TypeError at n = 2.0, and the
        # fixed-profile entry points ran at seed 2**64
        engine.forbid_draws(monkeypatch)
        call, _ = RUN_ENTRY_POINTS[entry]
        run = {"n": 3, "iterations": 4, "seed": 1, arg: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(RUN_MESSAGES[arg])}$"):
            call(**run)

    @pytest.mark.parametrize("entry", RUN_ENTRY_POINTS)
    def test_good_run_accepted(self, entry):
        # the table's calls run when nothing in them is bad, at the edges
        # of the rule
        call, _ = RUN_ENTRY_POINTS[entry]
        call(n=1, iterations=1, seed=2**64 - 1)


class TestEstimateRatio:
    def test_single_element_analytic(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            1,
            20000,
            AlgorithmSpec("exact-gap", tau=0.5),
            GapSpec(absolute=0.0),
            master_seed=SEED,
        )
        est = estimate_ratio(cfg)
        # the single arrival is accepted exactly when it lands after tau
        assert est.mean == pytest.approx(0.5, abs=0.01)
        assert est.none_prob == pytest.approx(0.5, abs=0.01)
        assert est.select_best_prob == pytest.approx(0.5, abs=0.01)

    def test_estimate_fields_consistent(self):
        cfg = ExperimentConfig(
            InstanceFamily("chi_squared"),
            50,
            400,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=10),
            master_seed=SEED,
        )
        est = estimate_ratio(cfg)
        assert 0.0 <= est.mean <= 1.0
        assert est.select_best_prob + est.none_prob <= 1.0
        assert est.iterations == 400
        assert est.stderr > 0

    def test_bit_identical_across_reruns(self):
        cfg = ExperimentConfig(
            family=InstanceFamily("exponential"),
            n=40,
            iterations=300,
            algorithm=AlgorithmSpec("robust", tau=0.2, gamma=0.1),
            gap=GapSpec(k=5, sigma=1.3),
            master_seed=SEED,
        )
        assert estimate_ratio(cfg) == estimate_ratio(cfg)

    def test_sigma_zero_matches_classical_per_draw(self):
        for tag in ("exact-gap", "bounded", "robust"):
            algo = AlgorithmSpec(tag, tau=0.3, gamma=0.1 if tag == "robust" else 0.0)
            gap_cfg = ExperimentConfig(
                InstanceFamily("exponential"),
                30,
                200,
                algo,
                GapSpec(k=7, sigma=0.0),
                master_seed=SEED,
            )
            classical_cfg = ExperimentConfig(
                InstanceFamily("exponential"),
                30,
                200,
                AlgorithmSpec("classical", tau=0.3),
                master_seed=SEED,
            )
            a = per_iteration_outcomes(gap_cfg)
            b = per_iteration_outcomes(classical_cfg)
            assert np.array_equal(a["accept_index"], b["accept_index"])


class TestSweeps:
    def test_sweep_k_shares_draws_and_repeats_baseline(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            60,
            200,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_k(cfg, [2, 10, 30])
        gap_cells = [c for c in cells if c.algo == "exact-gap"]
        base_cells = [c for c in cells if c.algo == "classical"]
        assert [c.k for c in gap_cells] == [2, 10, 30]
        assert len(base_cells) == 3
        assert len({id(c.estimate) for c in base_cells}) == 1
        single = estimate_ratio(
            ExperimentConfig(
                InstanceFamily("exponential"),
                60,
                200,
                AlgorithmSpec("exact-gap", tau=0.2),
                GapSpec(k=10),
                master_seed=SEED,
            )
        )
        assert gap_cells[1].estimate == single

    def test_sweep_k_tau_policies(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            60,
            50,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_k(cfg, [2, 50], tau_policy="from-k", include_baseline=False)
        assert cells[0].tau == pytest.approx(tau_for_k(2))
        cells = sweep_k(cfg, [2, 50], tau_policy="min", include_baseline=False)
        assert cells[0].tau == pytest.approx(min(0.2, tau_for_k(2)))  # capped at 0.2
        assert cells[1].tau == pytest.approx(tau_for_k(50))  # tuned value is smaller

    def test_sweep_k_validates_range(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            10,
            20,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        with pytest.raises(ConfigError):
            sweep_k(cfg, [11])

    def test_sweep_sigma_grid(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            40,
            150,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_sigma(cfg, [0.0, 1.0, 2.0], [2, 10])
        assert len(cells) == 6
        assert {(c.k, c.sigma) for c in cells} == {
            (k, s) for k in (2, 10) for s in (0.0, 1.0, 2.0)
        }

    def test_sweep_sigma_zero_column_equals_classical(self):
        cfg = ExperimentConfig(
            InstanceFamily("exp_superstar"),
            40,
            300,
            AlgorithmSpec("robust", tau=0.25, gamma=0.1),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_sigma(cfg, [0.0], [2])
        classical = estimate_ratio(
            ExperimentConfig(
                InstanceFamily("exp_superstar"),
                40,
                300,
                AlgorithmSpec("classical", tau=0.25),
                master_seed=SEED,
            )
        )
        est = cells[0].estimate
        assert est.mean == classical.mean
        assert est.select_best_prob == classical.select_best_prob
        assert est.none_prob == classical.none_prob

    def test_sweep_sigma_tau_policy(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            40,
            150,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_sigma(cfg, [0.5, 1.0], [2, 10], tau_policy="from-k")
        assert len(cells) == 4
        for c in cells:
            assert c.tau == tau_for_k(c.k)
            single = ExperimentConfig(
                cfg.family,
                40,
                150,
                AlgorithmSpec("exact-gap", tau=tau_for_k(c.k)),
                GapSpec(k=c.k, sigma=c.sigma),
                master_seed=SEED,
            )
            assert c.estimate == estimate_ratio(single)

    @pytest.mark.parametrize("tag", montecarlo.ALGORITHM_TAGS)
    def test_sweep_k_is_sweep_sigma_at_the_config_sigma(self, tag):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            30,
            100,
            AlgorithmSpec(tag, tau=0.3, gamma=0.1, epsilon=0.1, L=2),
            GapSpec(k=2, sigma=0.8),
            master_seed=SEED,
        )
        for policy in ("fixed", "from-k"):
            by_k = sweep_k(cfg, [2, 5, 9], policy, include_baseline=False)
            assert by_k == sweep_sigma(cfg, [0.8], [2, 5, 9], policy)

    def test_sweeps_hold_float_sigma_and_check_k_alike(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            20,
            50,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2, sigma=1),
            master_seed=SEED,
        )
        assert [type(c.sigma) for c in sweep_k(cfg, [2, 3])] == [float] * 4
        assert [type(c.sigma) for c in sweep_sigma(cfg, [0, 1], [2])] == [float] * 2
        # an index gap without its index: sweep_k raised a TypeError from int(None)
        with pytest.raises(ConfigError, match="gap index k"):
            sweep_k(cfg, [None])
        with pytest.raises(ConfigError, match="gap index k"):
            sweep_sigma(cfg, [1.0], [None])
        # a float index is no index, as in GapSpec: both sweeps ran 2.5 as k = 2
        with pytest.raises(ConfigError, match="k must be an integer"):
            sweep_k(cfg, [2.5])
        with pytest.raises(ConfigError, match="k must be an integer"):
            sweep_sigma(cfg, [1.0], [3.0])

    @pytest.mark.parametrize("policy", ["fixed", "from-k", "min"])
    def test_sweeps_check_k_before_tau(self, policy):
        # from-k and min read a float k in bounds.tau_for_k first, which
        # raised its own ValueError rather than a ConfigError
        cfg = ExperimentConfig(
            InstanceFamily("exponential"), 20, 50, AlgorithmSpec("exact-gap", tau=0.2), GapSpec(k=2)
        )
        with pytest.raises(ConfigError, match="k must be an integer >= 2"):
            sweep_k(cfg, [2.5], tau_policy=policy)
        with pytest.raises(ConfigError, match="k must be an integer >= 2"):
            sweep_sigma(cfg, [1.0], [2.5], tau_policy=policy)

    @pytest.mark.parametrize(
        "policy,evaluated", [("fixed", 2), ("from-k", 4)], ids=["fixed", "from-k"]
    )
    def test_cells_reading_the_same_inputs_evaluated_once(self, policy, evaluated, monkeypatch):
        # an absolute gap ignores k and the classical baseline ignores the
        # gap, so under a fixed tau the k rows share one bounded estimate;
        # the tuned tau differs per k. Counted: kernel passes (one per
        # policy) and the gaps each pass evaluates
        calls = engine.count_threshold_passes(monkeypatch)
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            50,
            100,
            AlgorithmSpec("bounded", tau=0.2, epsilon=0.5),
            GapSpec(absolute=3.5),
            master_seed=SEED,
        )
        cells = sweep_k(cfg, [2, 18, 34], tau_policy=policy)
        assert calls == {"passes": evaluated, "gaps": evaluated}
        bounded = [c for c in cells if c.algo == "bounded"]
        assert [c.k for c in bounded] == [2, 18, 34]
        for c in bounded:
            single = replace(cfg, algorithm=replace(cfg.algorithm, tau=c.tau))
            assert c.estimate == estimate_ratio(single)
        calls.update(passes=0, gaps=0)
        cells = sweep_sigma(cfg, [0.0, 1.0], [2, 10, 50])
        assert calls == {"passes": 1, "gaps": 2}
        assert len(cells) == 6
        # the README's sigma sweep shape, one tau and three k, in three
        # chunks: one preparation per chunk, every cell's gap in it
        calls.update(passes=0, gaps=0)
        robust = replace(cfg, algorithm=AlgorithmSpec("robust", tau=0.2, gamma=0.05), gap=GapSpec(k=2))
        engine.rechunk(monkeypatch, threshold=40 * cfg.n)
        cells = sweep_sigma(robust, [0.0, 0.5, 1.0], [2, 10, 50])
        assert calls == {"passes": 3, "gaps": 3 * 9}
        assert len(cells) == 9


class TestRuleFields:
    # a new value for each cell field a rule may read besides tau
    CHANGED = {"k": 5, "sigma": 0.5, "gamma": 0.3, "epsilon": 0.5, "L": 3}

    @pytest.mark.parametrize("tag", montecarlo.ALGORITHM_TAGS)
    def test_a_rule_reads_the_fields_its_table_entry_names(self, tag):
        # the table decides which cells share a key and which CSV columns a
        # rule writes: a field it leaves out must not move the estimate by a
        # bit, and one it names must move it
        base = ExperimentConfig(
            InstanceFamily("exponential"),
            20,
            300,
            AlgorithmSpec(tag, tau=0.2, L=2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        est = estimate_ratio(base)
        for field, value in self.CHANGED.items():
            if field in ("k", "sigma"):
                cfg = replace(base, gap=replace(base.gap, **{field: value}))
            else:
                cfg = replace(base, algorithm=replace(base.algorithm, **{field: value}))
            assert (estimate_ratio(cfg) == est) == (field not in engine.reads(tag)), field


class TestQualitativeSweepBehavior:
    def test_tuned_tau_estimates_increase_with_k_on_pareto(self):
        # larger index means shorter waiting time, hence fewer lost maxima
        cfg = ExperimentConfig(
            InstanceFamily("pareto_power"),
            200,
            500,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_k(cfg, [2, 50, 200], tau_policy="from-k", include_baseline=False)
        means = [c.estimate.mean for c in cells]
        assert means[0] < means[1] < means[2]

    def test_tuned_tau_at_k2_trails_classical_baseline_on_exponential(self):
        # the k=2 tuned waiting time (~0.42) over-waits relative to 1/e
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            200,
            1000,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=2),
            master_seed=SEED,
        )
        cells = sweep_k(cfg, [2], tau_policy="from-k", include_baseline=True)
        by_algo = {c.algo: c.estimate.mean for c in cells}
        assert by_algo["exact-gap"] < by_algo["classical"]

    def test_tie_formula_exact_mode_matches_simulation_at_small_n(self):
        # independent check of the finite-n selection-probability series for
        # the strict rule on a tied-second/third instance
        from gapsecretary.bounds import two_three_tie_prob

        prof = WeightProfile.from_weights([2.0, 1.0, 1.0, 0.9, 0.7])
        tau = 0.359
        out = simulate_fixed_profile(
            prof, AlgorithmSpec("strict-classical", tau=tau), 300_000, SEED
        )
        p = out["select_best"]
        se = p.std(ddof=1) / math.sqrt(p.size)
        assert abs(p.mean() - two_three_tie_prob(tau, n=5)) <= 4 * se

    def test_superstar_underestimates_are_harmless(self):
        cfg = ExperimentConfig(
            InstanceFamily("exp_superstar"),
            200,
            500,
            AlgorithmSpec("exact-gap", tau=0.2),
            GapSpec(k=100),
            master_seed=SEED,
        )
        cells = {c.sigma: c.estimate.mean for c in sweep_sigma(cfg, [0.1, 1.0], [100])}
        assert cells[0.1] >= 0.75
        assert abs(cells[0.1] - cells[1.0]) < 0.05

    def test_guarantee_floor_every_family(self):
        from gapsecretary.bounds import alpha_exact

        for tag in ("pareto_power", "exponential", "chi_squared", "exp_superstar"):
            for k in (2, 100, 200):
                tau = tau_for_k(k)
                est = estimate_ratio(
                    ExperimentConfig(
                        InstanceFamily(tag),
                        200,
                        500,
                        AlgorithmSpec("exact-gap", tau=tau),
                        GapSpec(k=k),
                        master_seed=SEED,
                    )
                )
                floor = alpha_exact(tau, k).alpha
                assert est.mean >= floor - 3 * est.stderr, (tag, k)


class TestEnumerationOracle:
    def test_hand_value(self):
        e = exact_expectation_small_n(
            WeightProfile.from_weights([2.0, 1.0]),
            AlgorithmSpec("exact-gap", tau=0.5),
            0.0,
        )
        assert e == pytest.approx(0.875, abs=1e-12)

    def test_single_element_accept_after_tau(self):
        for tau in (0.0, 0.3, 0.9):
            for w in (0.5, 3.0):
                e = exact_expectation_small_n(
                    WeightProfile.from_weights([w]),
                    AlgorithmSpec("exact-gap", tau=tau),
                    w / 2,
                )
                assert e == pytest.approx((1 - tau) * w, abs=1e-12)

    def test_overshooting_gap_zero_value(self):
        e = exact_expectation_small_n(
            WeightProfile.from_weights([3.0, 2.0, 1.0]),
            AlgorithmSpec("exact-gap", tau=0.3),
            3.5,
        )
        assert e == 0.0

    def test_robust_gamma_zero_matches_exact_gap(self):
        prof = WeightProfile.from_weights([4.0, 2.0, 1.0])
        a = exact_expectation_small_n(
            prof, AlgorithmSpec("robust", tau=0.4, gamma=0.0), 1.5
        )
        b = exact_expectation_small_n(prof, AlgorithmSpec("exact-gap", tau=0.4), 1.5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_strict_below_classical_on_ties(self):
        prof = WeightProfile.from_weights([5.0, 5.0])
        strict = exact_expectation_small_n(prof, AlgorithmSpec("strict-classical", tau=0.5))
        loose = exact_expectation_small_n(prof, AlgorithmSpec("classical", tau=0.5))
        assert strict < loose

    def test_size_capped(self):
        with pytest.raises(ValueError):
            exact_expectation_small_n(
                WeightProfile.from_weights(np.ones(7)), AlgorithmSpec("classical")
            )

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("tag", ["exact-gap", "robust"])
    def test_gap_must_be_finite_and_non_negative(self, tag, gap):
        # a NaN gap used to pass as no gap, and inf as a gap nothing meets
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            exact_expectation_small_n(prof, AlgorithmSpec(tag, tau=0.3), gap)

    def test_monte_carlo_agreement_smoke(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            prof = WeightProfile.from_weights(rng.uniform(0.5, 5.0, n))
            spec = AlgorithmSpec("robust", tau=0.35, gamma=0.25)
            gap = float(rng.uniform(0, 4))
            exact = exact_expectation_small_n(prof, spec, gap)
            sim = simulate_fixed_profile(prof, spec, 200_000, SEED, gap_values=gap)
            vals = sim["accept_weight"]
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - exact) <= 4 * se


class TestOutcomeRecords:
    """The per-draw record each surface returns: the threshold kernels
    ``accept_index`` and ``ratio`` alone, the drivers add ``select_best``
    and ``none``, and the fixed-profile helpers the raw ``accept_weight``."""

    THRESHOLD = {"accept_index", "ratio", "select_best", "none"}

    def test_kernels_return_index_and_ratio(self):
        rng = np.random.default_rng(3)
        weights, times = rng.random((6, 4)), rng.random((6, 4))
        assert set(engine.one_gap(weights, times, 0.3, 0.5)) == {"accept_index", "ratio"}
        assert set(engine.fixed_profile(weights[0], times, 0.3, 0.5)) == {"accept_index", "ratio"}

    @pytest.mark.parametrize(
        ("algo", "fields"),
        [
            (AlgorithmSpec("robust", tau=0.2, gamma=0.1), THRESHOLD),
            (AlgorithmSpec("l-select", tau=0.2, L=2), {"ratio", "select_best", "none"}),
        ],
        ids=["threshold", "l-select"],
    )
    def test_cell_records(self, algo, fields):
        cfg = ExperimentConfig(InstanceFamily("exponential"), 8, 5, algo, GapSpec(k=2), master_seed=1)
        assert set(per_iteration_outcomes(cfg)) == fields

    @pytest.mark.parametrize(
        "log_weights",
        [np.log([4.0, 1.0, 2.5, 3.0, 0.5]), [800.0, 799.0, -np.inf, 799.5], [-np.inf] * 3],
        ids=["normal", "overflowing", "all-zero"],
    )
    def test_fixed_profile_record_holds_the_raw_weight(self, log_weights):
        prof = WeightProfile(np.asarray(log_weights))
        for tag in ("classical", "strict-classical", "exact-gap", "bounded", "robust"):
            spec = AlgorithmSpec(tag, tau=0.3, gamma=0.2 if tag == "robust" else 0.0)
            out = simulate_fixed_profile(prof, spec, 300, 2, gap_values=0.5)
            assert set(out) == self.THRESHOLD | {"accept_weight"}, tag
            ratio = out["ratio"]
            with np.errstate(over="ignore", invalid="ignore"):
                raw = np.where(ratio > 0.0, ratio * np.exp(prof.max_log_weight), 0.0)
            assert np.array_equal(out["accept_weight"], raw), tag

    def test_fixed_profile_holds_26_bytes_per_draw(self):
        prof = WeightProfile.from_weights([4.0, 1.0, 2.5, 3.0, 0.5])
        iters = 200_000
        out = simulate_fixed_profile(prof, AlgorithmSpec("classical", tau=0.3), iters, 1)
        assert sum(a.nbytes for a in out.values()) == 26 * iters


class TestSimulateFixedProfile:
    def test_deterministic(self):
        prof = WeightProfile.from_weights([3.0, 1.0, 2.0])
        spec = AlgorithmSpec("classical", tau=0.3)
        a = simulate_fixed_profile(prof, spec, 500, 7)
        b = simulate_fixed_profile(prof, spec, 500, 7)
        assert np.array_equal(a["accept_index"], b["accept_index"])

    @pytest.mark.parametrize(
        "gap",
        [math.nan, math.inf, -1.0, np.array([0.5, math.nan, 0.5, 0.5])],
        ids=["nan", "inf", "negative", "nan-in-array"],
    )
    def test_gap_must_be_finite_and_non_negative(self, gap):
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        with pytest.raises(ConfigError, match="finite and non-negative"):
            simulate_fixed_profile(prof, AlgorithmSpec("exact-gap", tau=0.3), 4, 0, gap_values=gap)

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_gap_array_needs_one_value_per_iteration(self, length):
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        with pytest.raises(ConfigError, match="one value per iteration"):
            simulate_fixed_profile(
                prof, AlgorithmSpec("exact-gap", tau=0.3), 4, 0, gap_values=np.ones(length)
            )

    @pytest.mark.parametrize(
        ("chunk_rows", "block_rows"),
        [(None, None), (7, None), (None, 1), (None, 3)],
        ids=["one-chunk", "chunks-of-7", "blocks-of-1", "blocks-of-3"],
    )
    def test_rules_on_one_draw_equal_their_own_calls(self, chunk_rows, block_rows, monkeypatch):
        # the acceptance oracle's five rules plus two at other taus, in an
        # order that is not the order of tau; each against its own call
        if chunk_rows is not None:
            engine.rechunk(monkeypatch, threshold=4 * chunk_rows)
        if block_rows is not None:
            engine.rechunk(monkeypatch, fixed_rows=block_rows)
        prof = WeightProfile.from_weights([3.0, 1.0, 3.0, 0.5])
        gaps = np.arange(50) % 4 * 0.9
        rules = [
            (AlgorithmSpec("classical", tau=0.4), 0.0),
            (AlgorithmSpec("exact-gap", tau=0.1), 2.0),
            (AlgorithmSpec("strict-classical", tau=0.4), 0.0),
            (AlgorithmSpec("exact-gap", tau=0.4), gaps),
            (AlgorithmSpec("bounded", tau=0.4, epsilon=0.5), 3.5),
            (AlgorithmSpec("robust", tau=0.4, gamma=0.3), 2.9),
            (AlgorithmSpec("robust", tau=0.6, gamma=0.2), gaps),
        ]
        outs = montecarlo.simulate_fixed_profile_rules(prof, rules, 50, 11)
        assert len(outs) == len(rules)
        for (spec, gap), out in zip(rules, outs):
            assert _same(out, simulate_fixed_profile(prof, spec, 50, 11, gap_values=gap)), spec
        # keeping accept_weight alone gives that field alone, bit for bit
        kept = montecarlo.simulate_fixed_profile_rules(
            prof, rules, 50, 11, (("accept_weight",), dict)
        )
        assert [list(k) for k in kept] == [["accept_weight"]] * len(rules)
        for k, out in zip(kept, outs):
            assert _same(k, {"accept_weight": out["accept_weight"]})

    @pytest.mark.parametrize(
        ("iterations", "seed", "match"),
        [
            (4, 1.5, "master seed must be a 64-bit non-negative integer"),
            (4, 1.0, "master seed must be a 64-bit non-negative integer"),
            (4, -1, "master seed must be a 64-bit non-negative integer"),
            (2.5, 1, "iterations must be an integer"),
            (4.0, 1, "iterations must be an integer"),
        ],
        ids=["float-seed", "whole-float-seed", "negative-seed", "float-iterations", "whole-float-iterations"],
    )
    def test_seed_and_iterations_must_be_integers(self, iterations, seed, match, monkeypatch):
        # a float seed was truncated (seed 1.5 gave seed 1's arrays), a negative
        # one failed in numpy, and float iterations failed in range()
        def no_draw(*args):
            raise AssertionError("arrival times were drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        rules = [(AlgorithmSpec("classical", tau=0.3), 0.0)]
        with pytest.raises(ConfigError, match=match):
            montecarlo.simulate_fixed_profile_rules(prof, rules, iterations, seed)
        with pytest.raises(ConfigError, match=match):
            simulate_fixed_profile(prof, rules[0][0], iterations, seed)

    def test_numpy_integer_seed_and_iterations_are_the_ints(self):
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        spec = AlgorithmSpec("classical", tau=0.3)
        assert _same(
            simulate_fixed_profile(prof, spec, np.int64(40), np.uint64(9)),
            simulate_fixed_profile(prof, spec, 40, 9),
        )

    def test_no_rules_draw_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("arrival times were drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        assert montecarlo.simulate_fixed_profile_rules(prof, [], 4, 0) == []
        with pytest.raises(ConfigError, match="iterations"):
            montecarlo.simulate_fixed_profile_rules(prof, [], 0, 0)

    @pytest.mark.parametrize("tag", ["classical", "strict-classical", "exact-gap", "robust"])
    def test_accept_weight_equals_runner_when_the_maximum_overflows(self, tag):
        # exp(800) is inf: a row that accepts nothing reads 0.0 (it read
        # 0 * inf = nan), an accepted row inf, and a zero weight 0.0, as the
        # per-draw runner gives them
        prof = WeightProfile(np.array([800.0, 799.0, -np.inf, 799.5]))
        spec = AlgorithmSpec(tag, tau=0.5, gamma=0.2 if tag == "robust" else 0.0)
        gap = 0.0 if tag in ("classical", "strict-classical") else 1e300
        iters = 400
        out = simulate_fixed_profile(prof, spec, iters, 1, gap_values=gap)
        times = np.random.default_rng([1]).random((iters, prof.n))
        expected = [_scalar_reference(spec, prof, ArrivalDraw(t), gap) for t in times]
        index = [-1 if o.accepted_index is None else o.accepted_index for o in expected]
        assert np.array_equal(out["accept_index"], index)
        assert np.array_equal(out["accept_weight"], [o.accepted_weight for o in expected])
        assert {-1, 0} <= set(index)
        # the gap rescales to about 4e-48, not to 0, so only the classical
        # rule takes weight 0 when nothing came before tau
        assert (2 in index) == (tag == "classical")

    def test_holds_little_beyond_its_result_arrays(self):
        # one block's times, state and pass, not a whole-run draw, its
        # transpose and per-chunk parts joined at the end: about 1.5 MB here,
        # where drawing all 200,000 rows at once held 12 MB
        prof = WeightProfile.from_weights([4.0, 1.0, 2.5, 3.0, 0.5])
        spec = AlgorithmSpec("robust", tau=0.35, gamma=0.25)
        simulate_fixed_profile(prof, spec, 10, 1, gap_values=1.5)
        tracemalloc.start()
        try:
            out = simulate_fixed_profile(prof, spec, 200_000, 1, gap_values=1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sum(a.nbytes for a in out.values()) < 2 * 2**20

    def test_kept_field_alone_holds_its_own_bytes(self):
        # an accept_weight-only reducer keeps one 8-byte field, not the
        # 5.2 MB buffer of all five
        prof = WeightProfile.from_weights([4.0, 1.0, 2.5, 3.0, 0.5])
        rules = [(AlgorithmSpec("robust", tau=0.35, gamma=0.25), 1.5)]
        iters = 200_000
        montecarlo.simulate_fixed_profile_rules(prof, rules, 10, 1)
        tracemalloc.start()
        try:
            (kept,) = montecarlo.simulate_fixed_profile_rules(
                prof, rules, iters, 1, (("accept_weight",), dict)
            )
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(kept) == ["accept_weight"]
        assert 8 * iters <= held < 8 * iters + 2**14

    def test_rules_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("arrival times were drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        classical = (AlgorithmSpec("classical"), 0.0)
        with pytest.raises(ConfigError, match="not a threshold policy"):
            montecarlo.simulate_fixed_profile_rules(
                prof, [classical, (AlgorithmSpec("l-select", L=2), 0.5)], 4, 0
            )
        with pytest.raises(ConfigError, match="finite and non-negative"):
            montecarlo.simulate_fixed_profile_rules(prof, [classical, (classical[0], -1.0)], 4, 0)

    def test_per_iteration_gaps_respected(self):
        prof = WeightProfile.from_weights([10.0, 4.0])
        gaps = np.array([0.0, 11.0] * 50)
        out = simulate_fixed_profile(
            prof, AlgorithmSpec("exact-gap", tau=0.2), 100, 7, gap_values=gaps
        )
        # overshooting rows never accept anything
        assert not out["ratio"][1::2].any()


FAMILY_CASES = [
    (InstanceFamily("pareto_power"), 2),
    (InstanceFamily("exponential"), 1),
    (InstanceFamily("chi_squared"), 1),
    (InstanceFamily("chi_squared", df=1), 1),
    (InstanceFamily("exp_superstar"), 2),
    (InstanceFamily("exp_superstar", factor=1e6), 2),
]


def _per_instance(family, n, iters, seed):
    """Arrival times and raw profiles drawn one instance at a time: stream i
    draws iteration i's times, then ``family.generate`` its weights."""
    seeds = SeededRng(seed)
    times, profiles = [], []
    for i in range(iters):
        rng = seeds.stream(i)
        times.append(rng.random(n))
        profiles.append(family.generate(n, rng))
    return np.array(times), profiles


class TestBatchBuild:
    @pytest.mark.parametrize("n_index", [0, 1, 2], ids=["smallest", "n7", "n50"])
    @pytest.mark.parametrize(
        "family,smallest",
        FAMILY_CASES,
        ids=["pareto", "exp", "chisq", "chisq-df1", "superstar", "superstar-1e6"],
    )
    def test_matches_per_instance_generation(self, family, smallest, n_index, monkeypatch):
        # the row form draws the same streams as family.generate, bit for bit,
        # in blocks of three rows here; the reference stacks each profile's
        # normalized view, and the states read off each block's arrival
        # times are those of the whole arrays
        n, iters, seed = (smallest, 7, 50)[n_index], 40, 5
        times, profiles = _per_instance(family, n, iters, seed)
        W = np.array([p.normalized_weights for p in profiles])
        max_log = np.array([p.max_log_weight for p in profiles])
        expected = (times, W, max_log, np.sort(W, axis=1)[:, ::-1])
        engine.reblock(monkeypatch, 3 * n)
        policies = ({0.3, 0.5}, {(0.3, n)})
        for batch in (
            engine.built(family, n, range(iters), seed, *policies),
            engine.replayed(profiles, seed, *policies),
        ):
            ranked = np.stack(batch.largest(range(1, n + 1)), axis=1)
            got = (engine.times(seed, range(iters), n), batch.weights, batch.max_log, ranked)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
            assert _same_bits(batch.best_index, np.argmax(W, axis=1))
            assert batch.tau == 0.3 and batch.l_states.keys() == {(0.3, n)}
            assert _same_state(batch.state, engine.threshold_state(W, times, 0.3))
            assert _same_state(batch.l_states[(0.3, n)], engine.l_select_state(W, times, 0.3, n))
        if family.tag == "pareto_power":
            assert not batch.max_log.any()  # pareto profiles come normalized
        # a chunk of rows is the same rows of the whole batch, and its state
        # is read off the same rows of the arrival times
        chunk = engine.built(family, n, range(13, 29), seed, {0.5})
        assert _same_state(chunk.state, engine.threshold_state(W[13:29], times[13:29], 0.5))
        assert np.array_equal(chunk.weights, W[13:29])
        assert np.array_equal(chunk.max_log, max_log[13:29])

    @pytest.mark.parametrize(
        "family,smallest",
        FAMILY_CASES,
        ids=["pareto", "exp", "chisq", "chisq-df1", "superstar", "superstar-1e6"],
    )
    def test_regenerate_profiles_matches_per_instance_generation(self, family, smallest):
        # the dumped profiles are the raw ones family.generate returns
        for n in (smallest, 7):
            _, expected = _per_instance(family, n, 10, 8)
            got = regenerate_profiles(family, n, 10, 8)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert np.array_equal(a.log_weights, b.log_weights)

    def test_replay_keeps_all_zero_rows(self):
        profiles = [
            WeightProfile.from_weights([0.0, 0.0, 0.0]),
            WeightProfile.from_weights([1.0, 4.0, 2.0]),
            WeightProfile.from_weights([0.0, 3.0, 0.0]),
        ]
        batch = engine.replayed(profiles, 3)
        assert np.array_equal(batch.weights, [p.normalized_weights for p in profiles])
        assert np.array_equal(batch.max_log, [p.max_log_weight for p in profiles])

    def test_size_checked_before_any_stream(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a stream was seeded")

        # what seeds a stream, on either path of SeededRng.streams
        monkeypatch.setattr(SeededRng, "stream", no_stream)
        monkeypatch.setattr(generators, "_vectorized_streams", no_stream)
        for tag in ("pareto_power", "exp_superstar"):
            with pytest.raises(ValueError, match="needs n >= 2"):
                engine.built(InstanceFamily(tag), 1, range(5), 0)

    def test_non_finite_weight_rejected(self):
        # the superstar overflows float64 at this factor
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.built(InstanceFamily("exp_superstar", factor=1e308), 5, range(3), 0)


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, as it would in a
    digest."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_state(a, b) -> bool:
    """Two kernel states equal field by field, bit for bit."""
    return all(_same_bits(x, y) for x, y in zip(a, b, strict=True))


class TestRowBlockReads:
    """Every gap-independent read of a batch runs over its row blocks and
    equals its whole-array expression bit for bit, at every block edge and
    on read-only arrays."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(1, 20), st.sampled_from([1, 2, 3, 4, 7, 11])).flatmap(
            lambda shape: st.tuples(
                st.lists(
                    st.lists(
                        st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0)),
                        min_size=shape[0],
                        max_size=shape[0],
                    ),
                    min_size=shape[1],
                    max_size=shape[1],
                ),
                st.lists(
                    st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), min_size=shape[0],
                             max_size=shape[0]),
                    min_size=shape[1],
                    max_size=shape[1],
                ),
                st.integers(0, shape[1]),
            )
        ),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.booleans(),
    )
    def test_blocked_reads_equal_whole_array_expressions(self, case, tau, read_only):
        # read-only times are read into the states as the batch is built,
        # and read-only weights, as the memo holds them, into rank columns
        rows, times, zero_row = case
        W, T = np.array(rows), np.array(times)
        if zero_row < len(W):
            W[zero_row] = 0.0
        B, n = W.shape
        if read_only:
            T.setflags(write=False)
        # three rows a block, so 1, 2, 3, 4, 7 and 11 rows are one block, a
        # block less one row, exactly one, one and a row, and several
        with pytest.MonkeyPatch.context() as mp:
            engine.reblock(mp, 3 * n)
            assert engine.row_blocks(B, n)[0] == slice(0, min(B, 3))
            ranks = range(1, n + 1)
            batch = engine.batch_of(W, T, {tau}, {(tau, L) for L in ranks})
            W = batch.weights
            if read_only:
                W.setflags(write=False)
            ascending = np.sort(W, axis=1)
            assert _same_bits(batch.best_index, np.argmax(W, axis=1))
            for j, column in zip(ranks, batch.largest(ranks)):
                assert _same_bits(column, ascending[:, n - j])
            for L in ranks:
                top = np.ascontiguousarray(ascending[:, n - L :][:, ::-1])
                assert _same_bits(batch.top_total(L), np.sum(top, axis=1))
            # the states joined from the blocks of the arrival times
            joined = batch.state
            l_joined = {L: batch.l_states[(tau, L)] for L in ranks}
        assert _same_bits(joined.level, np.max(W * (T <= tau), axis=1))
        assert _same_state(joined, engine.threshold_state(W, T, tau))
        for L, l_state in l_joined.items():
            assert _same_state(l_state, engine.l_select_state(W, T, tau, L)), L

    def test_rows_wider_than_a_block_are_read_one_at_a_time(self, monkeypatch):
        engine.reblock(monkeypatch, 4)
        assert engine.row_blocks(3, 10) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert engine.row_blocks(0, 10) == []


class TestBatchRatioForProfiles:
    def test_matches_generated_equivalent(self):
        # replaying the regenerated instances under the same seed redraws the
        # same arrival times, so the estimate is the generated one exactly
        gap = GapSpec(k=4, sigma=1.2)
        for tag in FAMILY_TAGS:
            family = InstanceFamily(tag)
            profiles = regenerate_profiles(family, 20, 50, SEED)
            for algo in (
                AlgorithmSpec("classical", tau=0.3),
                AlgorithmSpec("robust", tau=0.3, gamma=0.1),
            ):
                est = batch_ratio_for_profiles(profiles, algo, gap, SEED)
                assert 0.0 <= est.mean <= 1.0
                generated = ExperimentConfig(family, 20, 50, algo, gap, master_seed=SEED)
                assert est == estimate_ratio(generated), (tag, algo.tag)
                assert est == batch_ratio_for_profiles(profiles, algo, gap, SEED)

    def test_all_zero_rows_have_no_index_gap(self):
        # an all-zero row's largest weight is 0, so its gap at index k is 0
        # (``true_gap``), not 1 minus its k-th largest weight
        rng = np.random.default_rng(3)
        zero = WeightProfile.from_weights([0.0] * 4)
        mixed = [zero, *(WeightProfile.from_weights(rng.random(4) * 5) for _ in range(25)), zero]
        for profiles in ([zero] * 50, mixed):
            batch = engine.replayed(profiles, 3, {0.2})
            times = engine.times(3, range(len(profiles)), 4)
            for tag in ("exact-gap", "bounded", "robust"):
                spec = AlgorithmSpec(tag, tau=0.2, gamma=0.25 * (tag == "robust"), epsilon=0.05)
                (got,) = engine.outcomes(batch, [(spec, GapSpec(k=2))])
                for row, prof in enumerate(profiles):
                    arrivals = ArrivalDraw(times[row])
                    scalar = _scalar_reference(spec, prof, arrivals, true_gap(prof, 2))
                    expected = scalar.accepted_index if scalar.accepted else -1
                    assert got["accept_index"][row] == expected, (tag, row)

    def test_size_mismatch_rejected(self):
        profiles = [
            WeightProfile.from_weights([1.0, 2.0]),
            WeightProfile.from_weights([1.0, 2.0, 3.0]),
        ]
        with pytest.raises(ConfigError):
            batch_ratio_for_profiles(profiles, AlgorithmSpec("classical"), GapSpec(), 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2**64], ids=["negative", "float", "bool", "65-bit"])
    def test_master_seed_checked_before_any_draw(self, seed, monkeypatch):
        # each was accepted here and failed at the first chunk, in SeededRng
        engine.forbid_draws(monkeypatch)
        profiles = [WeightProfile.from_weights([1.0, 2.0, 3.0])] * 4
        with pytest.raises(ConfigError, match="master seed must"):
            batch_ratio_for_profiles(profiles, AlgorithmSpec("classical"), GapSpec(), seed)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    @pytest.mark.parametrize("iterations", [0, -1, 2.0, True])
    def test_regenerate_checks_iterations_before_any_draw(self, tag, iterations, monkeypatch):
        # pareto returned [] at 0 iterations; the other families failed inside
        # numpy, on a zero-size reduction
        engine.forbid_draws(monkeypatch)
        with pytest.raises(ConfigError, match="iterations must be an integer >= 1"):
            regenerate_profiles(InstanceFamily(tag), 5, iterations, 1)


class TestLSelectionEstimation:
    def test_fixed_profile_trace_bounds(self):
        prof = WeightProfile.from_weights([10.0, 8.0, 5.0])
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            3,
            400,
            AlgorithmSpec("l-select", tau=0.25, L=2),
            GapSpec(absolute=3.0),
            master_seed=SEED,
        )
        est = estimate_l_selection(cfg, fixed_profile=prof)
        assert 0.0 < est.mean <= 1.0
        # equality is achievable: some draws accept the full optimum
        assert est.select_best_prob > 0.0

    def test_auto_gap_needs_room_for_next_weight(self):
        with pytest.raises(ConfigError, match="L <= n - 1"):
            ExperimentConfig(
                InstanceFamily("exponential"),
                5,
                10,
                AlgorithmSpec("l-select", tau=0.3, L=5),
                master_seed=SEED,
            )

    def test_l_range(self):
        with pytest.raises(ConfigError):
            AlgorithmSpec("l-select", tau=0.3, L=1)
        with pytest.raises(ConfigError, match="exceeds n"):
            ExperimentConfig(
                InstanceFamily("exponential"),
                5,
                10,
                AlgorithmSpec("l-select", tau=0.3, L=6),
                GapSpec(absolute=1.0),
                master_seed=SEED,
            )

    def test_fixed_profile_must_have_the_config_n(self):
        # a 10-weight profile ran at n = 10 under a config of n = 50
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            50,
            10,
            AlgorithmSpec("l-select", tau=0.3, L=2),
            master_seed=SEED,
        )
        prof = WeightProfile.from_weights(np.arange(1.0, 11.0))
        with pytest.raises(ConfigError, match="n=10.*n=50"):
            estimate_l_selection(cfg, fixed_profile=prof)

    def test_all_zero_fixed_profile_rejected(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            4,
            10,
            AlgorithmSpec("l-select", tau=0.3, L=2),
            GapSpec(absolute=1.0),
            master_seed=SEED,
        )
        with pytest.raises(ConfigError, match="positive total"):
            estimate_l_selection(cfg, fixed_profile=WeightProfile.from_weights([0.0] * 4))

    def test_fixed_profile_matches_per_draw_loop(self, monkeypatch):
        # iteration i of a fixed profile runs on stream i's arrival times,
        # as a per-draw loop runs it, across chunk boundaries too
        engine.rechunk(monkeypatch, l_select=5 * 12)
        family = InstanceFamily("chi_squared", df=3)
        (raw,) = regenerate_profiles(family, 12, 1, 4)
        cfg = ExperimentConfig(
            family, 12, 23, AlgorithmSpec("l-select", tau=0.25, L=3), master_seed=4
        )
        seeds = SeededRng(4)
        ratios = []
        for i in range(23):
            prof = normalize(raw)
            ws = np.sort(prof.normalized_weights)[::-1]
            ref = run_l_selection_gap(
                prof, ArrivalDraw(seeds.stream(i).random(12)), 0.25, float(ws[2] - ws[3]), 3
            )
            ratios.append(ref.total_weight / float(np.sum(ws[:3])))
        est = estimate_l_selection(cfg, fixed_profile=raw)
        assert est.mean == float(np.mean(ratios))
        assert est.iterations == 23

    def test_absolute_gap_rescaled_with_raw_max(self):
        # the superstar is 1e6 times the other weights; half its raw weight
        # read as a normalized gap would exceed every weight
        family = InstanceFamily("exp_superstar", factor=1e6)
        (raw,) = regenerate_profiles(family, 20, 1, 11)
        cfg = ExperimentConfig(
            family,
            20,
            1,
            AlgorithmSpec("l-select", tau=0.3, L=2),
            GapSpec(absolute=0.5 * float(np.max(raw.weights))),
            master_seed=11,
        )
        est = estimate_l_selection(cfg)
        assert est.mean == pytest.approx(1.0, abs=1e-5)
        assert est == estimate_l_selection(cfg, fixed_profile=raw)

    def test_generated_instances_deterministic_across_reruns(self):
        cfg = ExperimentConfig(
            family=InstanceFamily("exponential"),
            n=20,
            iterations=120,
            algorithm=AlgorithmSpec("l-select", tau=0.3, L=3),
            gap=GapSpec(),
            master_seed=SEED,
        )
        assert estimate_l_selection(cfg) == estimate_l_selection(cfg)


def _same(a, b):
    """Bitwise equality of estimates, sweep rows or per-row outcome dicts."""
    if not isinstance(a, dict):
        return a == b
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k], equal_nan=True) for k in a
    )


class TestChunkInvariance:
    """Results do not depend on how rows are chunked: each case runs once
    at the default chunking (one chunk at these sizes) and once with the
    chunk table and the fixed-profile block cut to a few rows or a single
    row, with a partial last chunk and block."""

    N, ITERS = 12, 31

    @pytest.fixture(params=[({"threshold": 40, "l-select": 25}, 2), ({"threshold": 1, "l-select": 1}, 1)],
                    ids=["few-rows", "one-row"])
    def rechunked(self, request, monkeypatch):
        table, block_rows = request.param

        def both(run):
            whole = run()
            with monkeypatch.context() as m:
                engine.rechunk(m, table["threshold"], table["l-select"], block_rows)
                assert len(engine.chunks(self.N, self.ITERS, [AlgorithmSpec("classical")])) > 1
                return whole, run()

        return both

    def _config(self, algo, gap=GapSpec(k=3)):
        family = InstanceFamily("chi_squared", df=3)
        return ExperimentConfig(family, self.N, self.ITERS, algo, gap, master_seed=SEED)

    @pytest.mark.parametrize(
        "algo",
        [
            AlgorithmSpec("classical", tau=0.3),
            AlgorithmSpec("strict-classical", tau=0.3),
            AlgorithmSpec("exact-gap", tau=0.2),
            AlgorithmSpec("bounded", tau=0.2, epsilon=0.1),
            AlgorithmSpec("robust", tau=0.2, gamma=0.3),
        ],
        ids=lambda a: a.tag,
    )
    def test_single_selection(self, algo, rechunked):
        cfg = self._config(algo)
        for run in (lambda: estimate_ratio(cfg), lambda: per_iteration_outcomes(cfg)):
            assert _same(*rechunked(run))

    def test_robust_sigma_sweep(self, rechunked):
        cfg = self._config(AlgorithmSpec("robust", tau=0.2, gamma=0.2))
        assert _same(*rechunked(lambda: sweep_sigma(cfg, [0.0, 0.5, 1.5], [2, 5])))

    @pytest.mark.parametrize("gap", [GapSpec(), GapSpec(absolute=0.5, sigma=2.0)], ids=["auto", "absolute"])
    def test_l_select(self, gap, rechunked):
        cfg = self._config(AlgorithmSpec("l-select", tau=0.3, L=3), gap)
        (raw,) = regenerate_profiles(cfg.family, self.N, 1, 5)
        assert _same(*rechunked(lambda: estimate_l_selection(cfg)))
        assert _same(*rechunked(lambda: estimate_l_selection(cfg, fixed_profile=raw)))

    def test_replayed_profiles(self, rechunked):
        profiles = regenerate_profiles(InstanceFamily("exponential"), self.N, self.ITERS, 6)
        algo = AlgorithmSpec("exact-gap", tau=0.25)
        assert _same(*rechunked(lambda: batch_ratio_for_profiles(profiles, algo, GapSpec(k=2), 6)))

    @pytest.mark.parametrize("tag", ["classical", "bounded", "robust"])
    def test_fixed_profile_arrays(self, tag, rechunked):
        (prof,) = regenerate_profiles(InstanceFamily("exponential"), self.N, 1, 7)
        algo = AlgorithmSpec(tag, tau=0.2, gamma=0.3, epsilon=0.2)
        gaps = np.random.default_rng(1).random(self.ITERS) * 3.0
        assert _same(*rechunked(
            lambda: simulate_fixed_profile(prof, algo, self.ITERS, 8, gap_values=gaps)
        ))

    @staticmethod
    def _assert_one_buffer(kept: dict, iterations: int):
        """The kept fields are disjoint, aligned, writeable C-contiguous views
        of one buffer, and a write to one leaves every other as it was."""
        (buffer,) = {id(a.base): a.base for a in kept.values()}.values()
        assert buffer is not None and buffer.base is None
        for a in kept.values():
            assert a.shape == (iterations,)
            assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
            assert a.ctypes.data % 8 == 0
        assert not any(np.shares_memory(kept[f], kept[g]) for f, g in combinations(kept, 2))
        for f, a in kept.items():
            before = {g: b.tobytes() for g, b in kept.items() if g != f}
            a.view(np.uint8)[:] = 0xA5
            assert {g: b.tobytes() for g, b in kept.items() if g != f} == before, f

    def test_fixed_profile_fields_are_views_of_one_buffer(self, rechunked):
        (prof,) = regenerate_profiles(InstanceFamily("exponential"), self.N, 1, 7)
        gaps = np.random.default_rng(1).random(self.ITERS) * 3.0
        rules = [
            (AlgorithmSpec("classical", tau=0.2), 0.0),
            (AlgorithmSpec("bounded", tau=0.2, epsilon=0.2), gaps),
            (AlgorithmSpec("robust", tau=0.4, gamma=0.3), 1.5),
        ]
        weight_only = (("accept_weight",), dict)

        def run():
            return (montecarlo.simulate_fixed_profile_rules(prof, rules, self.ITERS, 8),
                    montecarlo.simulate_fixed_profile_rules(prof, rules, self.ITERS, 8, weight_only))

        for every, weights in rechunked(run):
            for (spec, gap), out, kept in zip(rules, every, weights):
                # each field equals its own call's bit for bit, before any write
                own = simulate_fixed_profile(prof, spec, self.ITERS, 8, gap_values=gap)
                assert _same(out, own), spec
                assert _same(kept, {"accept_weight": own["accept_weight"]}), spec
                assert kept["accept_weight"].base.nbytes == 8 * self.ITERS
                self._assert_one_buffer(out, self.ITERS)
                self._assert_one_buffer(kept, self.ITERS)
            # the rules' buffers are distinct
            assert len({id(out["ratio"].base) for out in every}) == len(rules)

    @pytest.mark.parametrize(
        "algo", [AlgorithmSpec("robust", tau=0.2, gamma=0.3), AlgorithmSpec("l-select", tau=0.3, L=3)],
        ids=lambda a: a.tag,
    )
    def test_kept_cell_fields_are_views_of_one_buffer(self, algo, rechunked):
        # 31 rows: no field but the 8-byte ones ends on a multiple of 8 bytes
        cfg = self._config(algo)
        for out in rechunked(lambda: per_iteration_outcomes(cfg)):
            assert _same(out, per_iteration_outcomes(cfg))
            self._assert_one_buffer(out, self.ITERS)

    def test_mixed_cells_take_the_smallest_entry(self, monkeypatch):
        engine.rechunk(monkeypatch, threshold=40, l_select=25)
        algos = [AlgorithmSpec("classical"), AlgorithmSpec("l-select", L=2)]
        chunks = engine.chunks(self.N, self.ITERS, algos)
        assert [len(r) for r in chunks] == [2] * 15 + [1]
        assert [i for r in chunks for i in r] == list(range(self.ITERS))


class TestLSelectAsCell:
    def _config(self, gap=GapSpec(k=2)):
        family = InstanceFamily("exponential")
        return ExperimentConfig(family, 20, 100, AlgorithmSpec("l-select", tau=0.3, L=3), gap,
                                master_seed=SEED)

    def test_sigma_sweep_rows_equal_estimates(self, monkeypatch):
        # the gap of l-select is index-free, so rows that differ only in k
        # read the same inputs and run the kernel once per sigma
        calls = engine.count_l_select_passes(monkeypatch)
        cfg = self._config()
        cells = sweep_sigma(cfg, [0.0, 0.5, 1.0], [2, 3, 7])
        assert len(cells) == 9 and len(calls) == 3
        for c in cells:
            assert c.algo == "l-select"
            assert c.estimate == estimate_l_selection(replace(cfg, gap=GapSpec(sigma=c.sigma)))

    def test_k_sweep_repeats_one_estimate(self):
        cfg = self._config()
        cells = sweep_k(cfg, [2, 4, 6])
        lsel = [c.estimate for c in cells if c.algo == "l-select"]
        assert lsel == [estimate_l_selection(cfg)] * 3

    def test_replay_equals_generated(self):
        cfg = self._config(GapSpec(absolute=0.4))
        profiles = regenerate_profiles(cfg.family, cfg.n, cfg.iterations, SEED)
        est = batch_ratio_for_profiles(profiles, cfg.algorithm, cfg.gap, SEED)
        assert est == estimate_l_selection(cfg)

    def test_per_iteration_outcomes(self):
        out = per_iteration_outcomes(self._config())
        assert sorted(out) == ["none", "ratio", "select_best"]
        assert out["ratio"].shape == (100,)

    def test_fixed_profile_simulation_rejects_l_select(self):
        prof = WeightProfile.from_weights([3.0, 2.0, 1.0])
        with pytest.raises(ConfigError):
            simulate_fixed_profile(prof, AlgorithmSpec("l-select", L=2), 10, 0)


class TestEmptySweeps:
    def test_no_cells_draw_no_batch(self, monkeypatch):
        engine.forbid_draws(monkeypatch)
        cfg = ExperimentConfig(
            InstanceFamily("exponential"), 20, 50, AlgorithmSpec("exact-gap"), GapSpec(k=2)
        )
        assert sweep_sigma(cfg, [], [2, 3]) == []
        assert sweep_sigma(cfg, [0.5], []) == []
        assert sweep_k(cfg, []) == []


def _tied_times(case) -> np.ndarray:
    """The quarter-step arrival times of a tied batch's case."""
    return np.array([t for _, t in case]) / 4


def _tied_batch(case, taus=(), pairs=()):
    """A batch of integer weights and quarter-step times, so weights, gaps
    and arrival times tie, with the states of ``taus`` and ``pairs``; an
    all-zero row is its own normalized view."""
    return engine.batch_of(np.array([w for w, _ in case]) * 2.5, _tied_times(case), taus, pairs)


class TestBatchMemo:
    """The last whole-run generated batch is kept, its arrays read-only, for
    the next estimate on the same (family, n, iterations, seed) that it
    serves, together with the states of its run and the rank columns
    computed on it."""

    ALGOS = [
        AlgorithmSpec("classical", tau=0.3),
        AlgorithmSpec("strict-classical", tau=0.3),
        AlgorithmSpec("exact-gap", tau=0.2),
        AlgorithmSpec("bounded", tau=0.2, epsilon=0.1),
        AlgorithmSpec("robust", tau=0.2, gamma=0.3),
        AlgorithmSpec("l-select", tau=0.3, L=3),
    ]

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        engine.clear_memo()
        yield
        engine.clear_memo()

    def _config(self, family=InstanceFamily("chi_squared", df=3), n=12, iterations=31, seed=SEED,
                algo=AlgorithmSpec("exact-gap", tau=0.2)):
        return ExperimentConfig(family, n, iterations, algo, GapSpec(k=3), master_seed=seed)

    def test_reads_make_no_whole_batch_temporary(self):
        # numpy copies a read-only input in argmax, np.sort copies its input
        # and weights * pre is a product: read whole, each made a temporary
        # the size of the weights (3.1 MiB here) beside them; the engine reads
        # the best index as it builds a batch, a row block at a time, and what
        # a read returns is held while its memory is taken
        cfg = replace(self._config(), family=InstanceFamily("exponential"), n=200,
                      iterations=2000)
        estimate_ratio(cfg)
        memo = engine.memo()
        assert not memo.weights.flags.writeable
        times = engine.times(cfg.master_seed, range(cfg.iterations), cfg.n)
        reads = {
            "best_index": lambda batch: engine.built(
                cfg.family, cfg.n, range(cfg.iterations), cfg.master_seed
            ),
            "new rank": lambda batch: batch.read_sorted(ranks=(10,)),
            "threshold state": lambda batch: engine.batch_of(batch.weights, times, {0.3}),
        }
        for name, read in reads.items():
            # a batch of the memo's instances, read-only as the memo's
            batch = engine.batch_of(memo.weights, times)
            batch.weights.setflags(write=False)
            tracemalloc.start()
            try:
                held = read(batch)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del held
            assert peak - kept < memo.weights.nbytes / 2, name

    def test_hit_equals_fresh_build(self, draws):
        cfg = self._config()
        rows = range(cfg.iterations)
        first = engine.generated(cfg, rows, {0.2})
        estimate_ratio(cfg)
        hit = engine.generated(cfg, rows, {0.2})
        assert len(draws) == 1
        assert hit is first and engine.kept_ranks(first) and first.tau == 0.2
        fresh = engine.built(cfg.family, cfg.n, rows, cfg.master_seed, {0.2})
        ranks = range(1, cfg.n + 1)
        for a, b in zip((hit.weights, hit.max_log, hit.best_index, *hit.largest(ranks)),
                        (fresh.weights, fresh.max_log, fresh.best_index, *fresh.largest(ranks))):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert _same_state(hit.state, fresh.state)

    def test_memo_serves_only_the_states_it_holds(self, draws):
        # the memo's batch holds the threshold state at tau 0.2 and the
        # l-select state at (0.2, 3). A smaller tau or a new (tau, L) draws
        # the instances again, and its batch, with the states of its run,
        # replaces the memo; a larger tau is narrowed from the kept state,
        # and draws and keeps nothing. Each gives the fresh-build estimate
        # bit for bit
        cfg = self._config()
        held = [(AlgorithmSpec("exact-gap", tau=0.2), cfg.gap),
                (AlgorithmSpec("l-select", tau=0.2, L=3), cfg.gap)]
        # each rule: its draws, and the tau and pairs the memo then holds
        rules = {
            AlgorithmSpec("exact-gap", tau=0.1): (1, 0.1, set()),
            AlgorithmSpec("l-select", tau=0.2, L=4): (1, None, {(0.2, 4)}),
            AlgorithmSpec("exact-gap", tau=0.3): (0, 0.2, {(0.2, 3)}),
            AlgorithmSpec("l-select", tau=0.2, L=3): (0, 0.2, {(0.2, 3)}),
        }
        expected = {algo: engine.fresh_estimates(cfg, [(algo, cfg.gap)])[0] for algo in rules}
        for algo, (drawn, tau, pairs) in rules.items():
            engine.estimates(cfg, held)
            memo = engine.memo()
            del draws[:]
            assert estimate_ratio(replace(cfg, algorithm=algo)) == expected[algo], algo
            assert len(draws) == drawn and (engine.memo() is memo) == (drawn == 0), algo
            assert (engine.memo().tau, engine.memo().l_states.keys()) == (tau, pairs), algo

    def test_estimate_peak_below_one_and_a_half_weights(self):
        # the weights are the one (rows, n) array an estimate holds: each
        # block of arrival times is read into the threshold state and
        # dropped. Holding the times too, an estimate peaked at 2.47 times
        # the weights
        cfg = ExperimentConfig(InstanceFamily("exponential"), 200, 5000,
                               AlgorithmSpec("exact-gap", tau=0.2), GapSpec(k=2), master_seed=SEED)
        tracemalloc.start()
        try:
            estimate_ratio(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * engine.memo().weights.nbytes

    def test_miss_drops_the_memo_before_it_allocates(self):
        # a miss drops the memo's batch before it makes its own arrays, so
        # the two batches are never held at once: across the miss the peak
        # is 1.31 times one batch's weights, and was 2.17 times with the
        # arrays made before the drop
        cfg = ExperimentConfig(InstanceFamily("exponential"), 200, 5000,
                               AlgorithmSpec("exact-gap", tau=0.2), GapSpec(k=2), master_seed=SEED)
        tracemalloc.start()
        try:
            estimate_ratio(cfg)
            assert engine.memo().weights.shape == (5000, 200)
            tracemalloc.reset_peak()
            estimate_ratio(replace(cfg, master_seed=SEED + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * engine.memo().weights.nbytes

    @pytest.mark.parametrize(
        "base,changed",
        [
            ({"family": InstanceFamily("chi_squared", df=3)},
             {"family": InstanceFamily("chi_squared", df=4)}),
            ({"family": InstanceFamily("exp_superstar", factor=100.0)},
             {"family": InstanceFamily("exp_superstar", factor=1e3)}),
            ({"n": 12}, {"n": 13}),
            ({"iterations": 31}, {"iterations": 30}),
            ({"seed": SEED}, {"seed": SEED + 1}),
        ],
        ids=["df", "factor", "n", "iterations", "seed"],
    )
    def test_other_key_misses(self, base, changed, draws):
        first = estimate_ratio(self._config(**base))
        weights = engine.memo().weights
        estimate_ratio(self._config(**{**base, **changed}))
        assert len(draws) == 2
        other = engine.memo().weights
        assert other.shape != weights.shape or not np.array_equal(other, weights)
        # the second run replaced the first one's batch
        assert estimate_ratio(self._config(**base)) == first
        assert len(draws) == 3

    def test_memoized_arrays_read_only(self):
        cfg = self._config()
        cells = [(algo, cfg.gap) for algo in self.ALGOS]
        fresh = engine.fresh_estimates(cfg, cells)
        # one run of every rule, so the memo holds the states each reads
        engine.estimates(cfg, cells)
        batch = engine.memo()
        for a in (batch.weights, batch.max_log, batch.best_index):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        # every rule runs on the read-only arrays and gives the fresh estimates
        for algo, est in zip(self.ALGOS, fresh):
            assert estimate_ratio(replace(cfg, algorithm=algo)) == est, algo.tag
        assert engine.memo() is batch

    @pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.tag)
    def test_outcomes_are_no_view_of_the_memo(self, algo):
        cfg = self._config(algo=algo)
        first = per_iteration_outcomes(cfg)
        batch = engine.memo()
        hit = per_iteration_outcomes(cfg)
        assert engine.memo() is batch
        assert _same(first, hit)
        held = engine.held(batch)
        for out in (first, hit):
            for key, value in out.items():
                assert value.flags.writeable, key
                assert not any(np.shares_memory(value, a) for a in held), key

    # (sorts, states) of a first estimate on a fresh memo
    FIRST_WORK = {
        "classical": (0, 1),
        "strict-classical": (0, 1),
        "exact-gap": (1, 1),
        "bounded": (1, 1),
        "robust": (1, 1),
        "l-select": (1, 0),
    }

    @pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.tag)
    def test_repeated_estimate_does_no_work_again(self, algo, monkeypatch, draws):
        counts = engine.count_work(monkeypatch)
        cfg = self._config(algo=algo)
        first = estimate_ratio(cfg)
        sorts, states = self.FIRST_WORK[algo.tag]
        assert (len(draws), counts) == (1, {"sorts": sorts, "states": states})
        counts.update(sorts=0, states=0)
        del draws[:]
        assert estimate_ratio(cfg) == first
        assert (len(draws), counts) == (0, {"sorts": 0, "states": 0})

    def test_rules_on_one_family_share_the_work(self, monkeypatch, draws):
        # the benchmark's cells shape: five rules at one tau and one k draw,
        # sort and prepare once; the robust late phase builds no state
        counts = engine.count_work(monkeypatch)
        cfg = self._config()
        for algo in (
            AlgorithmSpec("classical", tau=0.2),
            AlgorithmSpec("strict-classical", tau=0.2),
            AlgorithmSpec("exact-gap", tau=0.2),
            AlgorithmSpec("robust", tau=0.2, gamma=0.05),
            AlgorithmSpec("bounded", tau=0.2, epsilon=0.05),
        ):
            estimate_ratio(replace(cfg, algorithm=algo))
        assert (len(draws), counts) == (1, {"sorts": 1, "states": 1})

    def test_memo_holds_no_second_float_matrix(self):
        # after a run of rules at several taus, gammas and gap indices, the
        # memo holds no (rows, n) array beyond the weights, and no arrival
        # times: the threshold state keeps one entry per candidate, the
        # post-tau elements at or above best-so-far, the l-select state one
        # per element at or above theta, and (rows,) columns
        cfg = self._config()
        cells = [(algo, GapSpec(k=k)) for algo in self.ALGOS for k in (2, 3, 12)]
        cells.append((AlgorithmSpec("robust", tau=0.1, gamma=0.5), cfg.gap))
        engine.estimates(cfg, cells)
        batch = engine.memo()
        held = engine.held(batch)
        matrices = [a for a in held if a.ndim != 1]
        assert len(matrices) == 1 and matrices[0] is batch.weights
        times = engine.times(cfg.master_seed, range(cfg.iterations), cfg.n)
        # the state of the smallest tau asked, 0.1: one entry per candidate
        state = batch.state
        assert batch.tau == 0.1
        post = times > 0.1
        bsf = np.max(np.where(post, 0.0, batch.weights), axis=1)
        m = np.count_nonzero(post & (batch.weights >= bsf[:, None]))
        assert 0 < m < batch.weights.size
        candidates = (state.index, state.weight, state.time)
        assert all(a.shape == (m,) for a in candidates)
        # l-select's at tau 0.3 and L = 3: one entry per element at or above theta
        (l_state,) = batch.l_states.values()
        assert l_state.index.shape == (np.count_nonzero(batch.weights >= l_state.level[:, None]),)
        candidates += (l_state.index, l_state.weight, l_state.time)
        # all else are (rows,) columns, the states' levels and counts among them
        rest = [a for a in held[1:] if not any(a is c for c in candidates)]
        assert all(a.ndim == 1 and a.size <= cfg.iterations for a in rest)
        assert all(a.base is None for a in held), "a kept array is a view of a larger array"

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(2, 6), st.integers(1, 5)).flatmap(
            lambda shape: st.tuples(
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, 3), min_size=shape[0], max_size=shape[0]),
                        st.lists(st.integers(0, 4), min_size=shape[0], max_size=shape[0]),
                    ),
                    min_size=shape[1],
                    max_size=shape[1],
                ),
                st.lists(
                    st.tuples(
                        st.sampled_from(montecarlo.ALGORITHM_TAGS),
                        st.sampled_from([0.0, 0.25, 0.5]),
                        st.sampled_from([0.3, 0.45]),
                        st.integers(2, shape[0]),
                        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                    ),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    # a late phase after a rule without one at the same tau
    @example(([([0, 1, 2], [0, 4, 2])], [("exact-gap", 0.25, 0.3, 3, 2.0), ("robust", 0.25, 0.3, 3, 2.0)]))
    def test_carried_state_equals_fresh_batch(self, case):
        # a sequence of cells on one batch that holds the states of them
        # all, as a memo serving each does, each estimate reading the rank
        # columns the earlier ones left and narrowing the batch's threshold
        # state to its tau, against each cell on a fresh batch of the same
        # instances, built for that cell alone, bit for bit
        rows, rules = case
        n = len(rows[0][0])
        cells = [
            (AlgorithmSpec(tag, tau=tau, gamma=gamma if tag == "robust" else 0.0, epsilon=0.25, L=k),
             GapSpec(k=k, sigma=sigma))
            for tag, tau, gamma, k, sigma in rules
            if not (tag == "l-select" and k > n - 1)
        ]
        carried = _tied_batch(rows, {a.tau for a, _ in cells if a.tag != "l-select"},
                              {(a.tau, a.L) for a, _ in cells if a.tag == "l-select"})

        def outcomes(batch, cell):
            # l-select rejects a row whose top-L weights are all 0
            try:
                return engine.outcomes(batch, [cell])[0]
            except ConfigError as exc:
                return str(exc)

        for cell in cells:
            a = cell[0]
            alone = ((), {(a.tau, a.L)}) if a.tag == "l-select" else ({a.tau}, ())
            assert _same(outcomes(carried, cell), outcomes(_tied_batch(rows, *alone), cell)), cell

    # (tau, weights, times, candidates per row): every row's largest raw
    # weight is 1 or it is all zero, so its raw and normalized views agree
    # and gaps read off its weights are exact in both
    EDGES = {
        # one row all before tau, one row's post-tau elements all below it
        "no-candidate": (0.5, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.75]],
                         [[0.25, 0.5, 0.0], [0.75, 0.5, 1.0]], [0, 0]),
        # first, third and last rows without, the third all zero at tau
        "rows-without-candidates": (0.25, [[1.0, 0.5], [0.5, 1.0], [0.0, 0.0], [0.25, 1.0], [1.0, 0.5]],
                                    [[0.0, 0.5], [0.5, 0.75], [0.25, 0.25], [0.25, 0.5], [0.0, 0.5]],
                                    [0, 2, 0, 1, 0]),
        # an arrival at time 0 sets best-so-far; the second row ties
        "tau-zero": (0.0, [[0.5, 1.0, 0.25], [1.0, 0.75, 0.75]],
                     [[0.0, 0.75, 0.5], [0.5, 0.25, 0.25]], [1, 3]),
        # an arrival at tau sets best-so-far; a candidate equal to it comes first
        "time-equals-tau": (0.25, [[1.0, 0.75, 0.75], [0.5, 1.0, 0.5]],
                            [[0.25, 0.5, 0.75], [0.25, 0.75, 0.5]], [0, 2]),
        # candidates equal to best-so-far, at 1 - gamma and after it
        "gap-on-weights": (0.25, [[0.5, 0.5, 0.75, 1.0], [1.0, 0.75, 0.25, 0.75]],
                           [[0.0, 0.5, 0.75, 1.0], [0.5, 0.0, 0.25, 0.75]], [3, 2]),
        # tied candidate times, with the lower index failing in the second row
        "tied-times": (0.25, [[0.25, 1.0, 0.5, 0.75], [0.25, 0.5, 1.0, 0.75]],
                       [[0.0, 0.5, 0.5, 0.5], [0.0, 0.5, 0.5, 0.5]], [3, 3]),
    }

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_candidate_edges_match_scalar_runners(self, edge):
        # the kernel on one carried batch, through every rule kind and gaps
        # on each row's weights and best-so-far, scalar and per row, against
        # the dense reference bit for bit and the scalar runners row by row
        tau, weights, times, per_row = self.EDGES[edge]
        W, T = np.array(weights), np.array(times)
        profiles = [WeightProfile.from_weights(row) for row in W]
        assert all(p.max_log_weight in (0.0, -math.inf) for p in profiles)
        batch = engine.batch_of(W, T, {tau})
        state = batch.state
        assert state.counts.tolist() == per_row
        bsf = state.level.copy()
        gaps = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, bsf]
        gaps += [batch.weights[:, j].copy() for j in range(W.shape[1])]
        kinds = {
            "exact-gap": (AlgorithmSpec("exact-gap", tau=tau), 0.0, False, gaps),
            "robust": (AlgorithmSpec("robust", tau=tau, gamma=0.25), 0.25, False, gaps),
            "strict": (AlgorithmSpec("strict-classical", tau=tau), 0.0, True, [0.0]),
        }
        for kind, (spec, gamma, strict, kind_gaps) in kinds.items():
            outs = engine.threshold_pass(state, kind_gaps, gamma, strict)
            for gap, out in zip(kind_gaps, outs, strict=True):
                where = (kind, gap)
                _assert_same_arrays(out, _dense_reference(batch.weights, T, tau, gap, gamma, strict), where)
                row_gaps = np.broadcast_to(gap, (len(W),))
                for row, prof in enumerate(profiles):
                    ref = _scalar_reference(spec, prof, ArrivalDraw(T[row]), float(row_gaps[row]))
                    expected = ref.accepted_index if ref.accepted else -1
                    assert out["accept_index"][row] == expected, (where, row)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
            lambda shape: st.lists(
                st.tuples(
                    st.lists(st.integers(0, 3), min_size=shape[0], max_size=shape[0]),
                    st.lists(st.integers(0, 4), min_size=shape[0], max_size=shape[0]),
                ),
                min_size=shape[1],
                max_size=shape[1],
            )
        ),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=2, max_size=4, unique=True),
    )
    def test_narrowed_state_equals_fresh_build(self, rows, taus):
        # each state narrowed from the one at the next smaller tau equals a
        # fresh build at its tau, array by array; times land on the taus
        taus = sorted(taus)
        batch = _tied_batch(rows, taus[:1])
        state = batch.state
        for tau in taus[1:]:
            narrowed = engine.narrowed_state(state, tau)
            fresh = engine.threshold_state(batch.weights, _tied_times(rows), tau)
            for field, a, b in zip(fresh._fields, narrowed, fresh):
                assert a.dtype == b.dtype and np.array_equal(a, b), (field, tau)
                assert a.base is None, field
            state = narrowed

    def test_multi_chunk_run_leaves_nothing(self, draws):
        estimate_ratio(self._config())
        assert engine.memo() is not None
        del draws[:]
        # an l-select chunk is one row block of 65,536 elements: 327 rows at n = 200
        cfg = self._config(InstanceFamily("exponential"), 200, 328, algo=AlgorithmSpec("l-select", L=2))
        estimate_ratio(cfg)
        assert [len(rows) for _, _, rows, _ in draws] == [327, 1]
        assert engine.memo() is None
        estimate_ratio(cfg)
        assert len(draws) == 4

    @pytest.mark.parametrize("draw", ["regenerate", "replay", "fixed-profile"])
    def test_other_draws_drop_the_memo(self, draw):
        prof = WeightProfile.from_weights([3.0, 1.0, 2.0])
        classical = AlgorithmSpec("classical")
        draws = {
            "regenerate": lambda: regenerate_profiles(InstanceFamily("exponential"), 5, 3, 2),
            "replay": lambda: batch_ratio_for_profiles([prof] * 3, classical, GapSpec(), 2),
            "fixed-profile": lambda: simulate_fixed_profile(prof, classical, 10, 2),
        }
        estimate_ratio(self._config())
        assert engine.memo() is not None
        draws[draw]()
        assert engine.memo() is None
