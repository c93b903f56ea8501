import math

import numpy as np
import pytest

from gapsecretary.algorithms import (
    MultiSelectionOutcome,
    PolicySchedule,
    run_bounded_error,
    run_classical,
    run_exact_gap,
    run_l_selection_gap,
    run_robust_consistent,
    run_strict_classical,
)
from gapsecretary.core import ArrivalDraw, WeightProfile


def profile(*weights):
    return WeightProfile.from_weights(list(weights))


def draw(*times):
    return ArrivalDraw(list(times))


def random_case(rng, n_max=10):
    n = int(rng.integers(1, n_max + 1))
    p = WeightProfile.from_weights(rng.random(n) * 10)
    a = ArrivalDraw(rng.random(n))
    return p, a


class TestPolicySchedule:
    def test_constraints(self):
        PolicySchedule(0.2, 0.05)
        PolicySchedule(0.0, 0.0)
        with pytest.raises(ValueError):
            PolicySchedule(1.0, 0.0)
        with pytest.raises(ValueError):
            PolicySchedule(0.4, 0.6)  # gamma must stay below 1 - tau


class TestClassical:
    def test_accepts_best_arriving_late(self):
        out = run_classical(profile(10, 4), draw(0.5, 0.1), 1 / math.e)
        assert (out.accepted_index, out.accept_time) == (0, 0.5)

    def test_best_in_waiting_phase_blocks_rest(self):
        out = run_classical(profile(10, 4), draw(0.1, 0.5), 1 / math.e)
        assert not out.accepted

    def test_single_element_empty_prefix(self):
        out = run_classical(profile(7), draw(0.9), 0.5)
        assert out.accepted_index == 0
        assert out.accepted_weight == pytest.approx(7)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            run_classical(profile(1), draw(0.5), 1.0)


class TestExactGap:
    def test_gap_raises_threshold(self):
        out = run_exact_gap(profile(10, 4), draw(0.5, 0.1), 0.2, 6.0)
        assert out.accepted_index == 0

    def test_zero_gap_matches_classical_trace(self):
        out = run_exact_gap(profile(10, 4), draw(0.5, 0.3), 0.2, 0.0)
        assert (out.accepted_index, out.accept_time) == (1, 0.3)

    def test_overshooting_gap_accepts_nothing(self):
        for times in [(0.5, 0.1), (0.3, 0.9), (0.9, 0.95)]:
            out = run_exact_gap(profile(10, 4), draw(*times), 0.2, 11.0)
            assert not out.accepted

    def test_accepted_weight_meets_active_threshold(self):
        from gapsecretary.core import best_so_far

        rng = np.random.default_rng(0)
        for _ in range(300):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.95)
            c = float(rng.random() * 12)
            out = run_exact_gap(p, a, tau, c)
            if out.accepted:
                assert out.accept_time > tau
                thr = max(best_so_far(p, a, tau), c)
                assert out.accepted_weight >= thr * (1 - 1e-12)

    def test_monotone_exclusion_in_gap(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.9)
            lo = float(rng.random() * 8)
            hi = lo + float(rng.random() * 4)
            first = run_exact_gap(p, a, tau, lo)
            second = run_exact_gap(p, a, tau, hi)
            if not first.accepted:
                assert not second.accepted
            elif second.accepted:
                assert second.accepted_weight >= first.accepted_weight - 1e-12

    def test_scale_covariance(self):
        rng = np.random.default_rng(2)
        for lam in (1e-6, 3.0, 1e8):
            for _ in range(100):
                p, a = random_case(rng)
                tau = float(rng.random() * 0.9)
                c = float(rng.random() * 12)
                base = run_exact_gap(p, a, tau, c)
                scaled = run_exact_gap(
                    WeightProfile.from_weights(lam * p.weights), a, tau, lam * c
                )
                assert base.accepted_index == scaled.accepted_index


class TestGapOnHugeScales:
    """Log-weights [800, 0, 799] put exp(-m) below the smallest normal
    double: the gap is still rescaled, not lost to 0 or turned into NaN."""

    PROFILE = WeightProfile(np.array([800.0, 0.0, 799.0]))

    def test_finite_gap_keeps_its_size(self):
        # 1e308 is 3.7e-40 in normalized units: element 1, raw weight 1 and
        # normalized 0, falls short of it, and element 2, e^-1, meets it
        assert run_exact_gap(self.PROFILE, draw(0.9, 0.3, 0.5), 0.2, 1e308).accepted_index == 2

    def test_infinite_gap_accepts_nothing(self):
        arrivals = draw(0.9, 0.5, 0.1)
        assert not run_exact_gap(self.PROFILE, arrivals, 0.2, math.inf).accepted
        assert not run_l_selection_gap(self.PROFILE, arrivals, 0.2, math.inf, 2).accepted


class TestRobustConsistent:
    def test_phase_switch_trace(self):
        out = run_robust_consistent(
            profile(10, 4), draw(0.97, 0.5), PolicySchedule(0.2, 0.05), 100.0
        )
        assert (out.accepted_index, out.accept_time) == (0, 0.97)

    def test_gamma_zero_equals_exact_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.9)
            c = float(rng.random() * 12)
            a1 = run_robust_consistent(p, a, PolicySchedule(tau, 0.0), c)
            a2 = run_exact_gap(p, a, tau, c)
            assert a1 == a2

    def test_zero_prediction_equals_classical(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.6)
            gamma = float(rng.random() * (1 - tau) * 0.9)
            a1 = run_robust_consistent(p, a, PolicySchedule(tau, gamma), 0.0)
            a2 = run_classical(p, a, tau)
            assert a1 == a2


class TestBoundedError:
    def test_zero_error_equals_exact_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.9)
            c = float(rng.random() * 12)
            assert run_bounded_error(p, a, tau, c, 0.0) == run_exact_gap(p, a, tau, c)

    def test_error_lowers_threshold(self):
        out = run_bounded_error(profile(10, 4), draw(0.5, 0.3), 0.2, 7.0, 4.0)
        assert (out.accepted_index, out.accept_time) == (1, 0.3)

    def test_negative_effective_gap_clamps_to_classical(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.9)
            assert run_bounded_error(p, a, tau, 1.0, 5.0) == run_classical(p, a, tau)


class TestStrictClassical:
    def test_tie_with_observed_max_rejected(self):
        assert not run_strict_classical(profile(5, 5), draw(0.1, 0.6), 0.3).accepted

    def test_strictly_larger_accepted(self):
        out = run_strict_classical(profile(10, 5, 5), draw(0.6, 0.1, 0.9), 0.3)
        assert (out.accepted_index, out.accept_time) == (0, 0.6)

    def test_empty_prefix_accepts_positive_weight(self):
        out = run_strict_classical(profile(5, 5), draw(0.4, 0.6), 0.3)
        assert (out.accepted_index, out.accept_time) == (0, 0.4)


class TestLSelection:
    def test_bootstrap_trace(self):
        out = run_l_selection_gap(
            profile(10, 8, 5), draw(0.5, 0.6, 0.1), 0.25, 3.0, 2, trace=True
        )
        assert out.indices == (0, 1)
        assert out.total_weight == pytest.approx(18.0)
        assert [t for t, _ in out.reference_trace] == [0.5, 0.6]
        assert out.reference_trace[-1][1] == (0, 1)

    def test_l1_zero_gap_equals_classical(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            p, a = random_case(rng)
            tau = float(rng.random() * 0.9)
            multi = run_l_selection_gap(p, a, tau, 0.0, 1)
            single = run_classical(p, a, tau)
            got = multi.indices[0] if multi.accepted else None
            assert got == single.accepted_index

    def test_no_post_tau_arrivals(self):
        out = run_l_selection_gap(profile(10, 8, 5), draw(0.1, 0.2, 0.05), 0.25, 3.0, 2)
        assert out.accepted == ()

    def test_invariants_random(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            n = int(rng.integers(2, 12))
            p = WeightProfile.from_weights(rng.random(n) * 10)
            a = ArrivalDraw(rng.random(n))
            tau = float(rng.random() * 0.9)
            L = int(rng.integers(1, n + 1))
            c = float(rng.random() * 8)
            out = run_l_selection_gap(p, a, tau, c, L)
            assert len(out.accepted) <= L
            times = [t for _, _, t in out.accepted]
            assert all(x < y for x, y in zip(times, times[1:]))
            assert all(t > tau for t in times)
            for _, w, _ in out.accepted:
                assert w >= c - 1e-9 * max(1.0, c)

    def test_l_range_checked(self):
        with pytest.raises(ValueError):
            run_l_selection_gap(profile(1, 2), draw(0.5, 0.6), 0.2, 0.0, 3)
        with pytest.raises(ValueError):
            run_l_selection_gap(profile(1, 2), draw(0.5, 0.6), 0.2, 0.0, 0)

    def test_reference_set_tracks_top_qualifying_weights(self):
        # every qualifying arrival displaces r_L, accepted or not, so the set
        # stays the top-L of {pre-tau arrivals} + {qualifying later arrivals}
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            w = rng.random(n) * 10
            p = WeightProfile.from_weights(w)
            a = ArrivalDraw(rng.random(n))
            tau = float(rng.random() * 0.8)
            L = int(rng.integers(1, n + 1))
            out = run_l_selection_gap(p, a, tau, float(rng.random() * 6), L, trace=True)
            if out.reference_trace:
                snapshots = dict(out.reference_trace)
                for t, ref in out.reference_trace:
                    assert len(ref) <= L
                    assert len(set(ref)) == len(ref)
                    ref_weights = [w[i] for i in ref]
                    assert ref_weights == sorted(ref_weights, reverse=True)
                # an accepted element is in the reference set right after
                # its arrival (it displaced the previous r_L)
                for idx, _weight, t in out.accepted:
                    assert idx in snapshots[t]


class TestScaleCovarianceAcrossAlgorithms:
    def test_all_single_selection_rules(self):
        rng = np.random.default_rng(9)
        lam = 7.5e5
        for _ in range(150):
            p, a = random_case(rng)
            scaled = WeightProfile.from_weights(lam * p.weights)
            tau = float(rng.random() * 0.8)
            gamma = float(rng.random() * (1 - tau) * 0.9)
            c = float(rng.random() * 11)
            assert (
                run_classical(p, a, tau).accepted_index
                == run_classical(scaled, a, tau).accepted_index
            )
            assert (
                run_strict_classical(p, a, tau).accepted_index
                == run_strict_classical(scaled, a, tau).accepted_index
            )
            assert (
                run_robust_consistent(p, a, PolicySchedule(tau, gamma), c).accepted_index
                == run_robust_consistent(
                    scaled, a, PolicySchedule(tau, gamma), lam * c
                ).accepted_index
            )
