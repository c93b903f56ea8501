import math
import warnings

import numpy as np
import pytest

from gapsecretary.core import (
    ArrivalDraw,
    SelectionOutcome,
    WeightProfile,
    best_so_far,
    normalize,
    normalize_rows,
    true_gap,
)


def profile(*weights):
    return WeightProfile.from_weights(list(weights))


class TestWeightProfile:
    def test_construction_and_linear_view(self):
        p = profile(10, 4)
        assert p.n == 2
        assert np.allclose(p.weights, [10, 4])
        assert np.allclose(p.normalized_weights, [1.0, 0.4])
        assert p.normalized_weights.max() == 1.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightProfile.from_weights([1.0, -0.5])
        with pytest.raises(ValueError):
            WeightProfile.from_weights([np.inf])
        with pytest.raises(ValueError):
            WeightProfile.from_weights([])
        with pytest.raises(ValueError):
            WeightProfile(np.array([np.nan]))

    def test_zero_weight_is_minus_inf_log(self):
        p = profile(3, 0)
        assert p.log_weights[1] == -math.inf
        assert p.weight(1) == 0.0

    def test_sorted_index_breaks_ties_by_lower_index(self):
        p = profile(5, 9, 5, 9)
        assert [p.sorted_index(j) for j in (1, 2, 3, 4)] == [1, 3, 0, 2]
        ordered = [p.weight(p.sorted_index(j)) for j in range(1, 5)]
        assert ordered == sorted(ordered, reverse=True)

    def test_sorted_index_range_checked(self):
        p = profile(1, 2)
        with pytest.raises(ValueError):
            p.sorted_index(0)
        with pytest.raises(ValueError):
            p.sorted_index(3)

    def test_extreme_logs_normalize_without_overflow(self):
        p = normalize(WeightProfile(np.array([-2000.0, -2828.0])))
        assert p.normalized_weights[0] == 1.0
        assert p.normalized_weights[1] == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(p.normalized_weights).all()

    def test_linear_weight_beyond_float64_is_inf_without_warning(self):
        # exp(800) overflows: weight(i) reads inf as .weights does, and the
        # per-draw runners read weight(i) of what they accept
        p = WeightProfile(np.array([800.0, 799.0, -np.inf, 799.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.weight(0) == math.inf
            assert p.weight(2) == 0.0
            assert list(p.weights) == [math.inf, math.inf, 0.0, math.inf]

    def test_scale_covariance_of_sorted_order(self):
        rng = np.random.default_rng(3)
        w = rng.random(20) * 5
        p1 = WeightProfile.from_weights(w)
        p2 = WeightProfile.from_weights(1e6 * w)
        assert np.array_equal(p1.sorted_indices, p2.sorted_indices)


class TestArrivalDraw:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ArrivalDraw([0.5, 1.2])
        with pytest.raises(ValueError):
            ArrivalDraw([-0.1])

    def test_tie_break_lower_index_first(self):
        a = ArrivalDraw([0.5, 0.5, 0.1])
        assert list(a.order) == [2, 0, 1]


class TestSelectionOutcome:
    def test_consistency(self):
        SelectionOutcome(1, 4.0, 0.7)
        assert SelectionOutcome.nothing().accepted_weight == 0.0
        with pytest.raises(ValueError):
            SelectionOutcome(1, 4.0, None)
        with pytest.raises(ValueError):
            SelectionOutcome(None, 4.0, None)


class TestBestSoFar:
    def test_examples(self):
        p = profile(10, 4)
        assert best_so_far(p, ArrivalDraw([0.5, 0.1]), 0.2) == 4
        assert best_so_far(p, ArrivalDraw([0.5, 0.3]), 0.2) == 0
        assert best_so_far(p, ArrivalDraw([0.5, 0.1]), 1.0) == pytest.approx(10)

    def test_boundary_arrival_counts(self):
        p = profile(10, 4)
        assert best_so_far(p, ArrivalDraw([0.2, 0.9]), 0.2) == pytest.approx(10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            best_so_far(profile(1, 2), ArrivalDraw([0.5]), 0.2)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(7)
        p = WeightProfile.from_weights(rng.random(15))
        a = ArrivalDraw(rng.random(15))
        values = [best_so_far(p, a, t) for t in np.linspace(0, 1, 21)]
        assert all(x <= y for x, y in zip(values, values[1:]))


class TestTrueGap:
    def test_examples(self):
        assert true_gap(profile(10, 4, 1), 2) == pytest.approx(6, rel=1e-12)
        assert true_gap(profile(10, 4, 1), 3) == pytest.approx(9, rel=1e-12)
        assert true_gap(profile(5, 5, 5), 2) == 0.0
        assert true_gap(profile(5, 5, 5), 3) == 0.0

    def test_weights_beyond_float64(self):
        # tied top weights above e^709 give 0, not exp(800) * 0 = nan; a
        # gap that overflows float64 is inf, without a warning (pytest turns
        # warnings into errors)
        assert true_gap(WeightProfile(np.array([800.0, 800.0, 1.0])), 2) == 0.0
        assert true_gap(WeightProfile(np.array([800.0, 799.0, 1.0])), 2) == math.inf
        assert true_gap(WeightProfile(np.array([800.0, -math.inf])), 2) == math.inf

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        p = WeightProfile.from_weights(rng.random(12) * 9)
        gaps = [true_gap(p, k) for k in range(2, 13)]
        assert all(g >= 0 for g in gaps)
        assert all(x <= y for x, y in zip(gaps, gaps[1:]))

    def test_k_range_checked(self):
        p = profile(3, 2, 1)
        with pytest.raises(ValueError):
            true_gap(p, 1)
        with pytest.raises(ValueError):
            true_gap(p, 4)


class TestNormalize:
    def test_examples(self):
        assert np.allclose(normalize(profile(10, 4)).weights, [1.0, 0.4])
        assert np.allclose(normalize(profile(1)).weights, [1.0])

    def test_idempotent(self):
        p = normalize(profile(3, 2, 1))
        again = normalize(p)
        assert np.array_equal(p.log_weights, again.log_weights)

    def test_all_zero_passes_through(self):
        p = profile(0.0, 0.0)
        assert normalize(p) is p

    def test_preserves_sorted_order(self):
        rng = np.random.default_rng(5)
        p = WeightProfile.from_weights(rng.random(30) * 100)
        assert np.array_equal(p.sorted_indices, normalize(p).sorted_indices)

    def test_rows_match_normalize(self):
        rows = [profile(10, 4, 0), profile(0, 0, 0), profile(3, 3, 1)]
        log_w = np.array([p.log_weights for p in rows])
        assert np.array_equal(normalize_rows(log_w), [p.max_log_weight for p in rows])
        assert np.array_equal(log_w, [normalize(p).log_weights for p in rows])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rows_checked_as_profiles(self, bad):
        with pytest.raises(ValueError, match="finite or -inf"):
            normalize_rows(np.array([[0.0, 1.0], [bad, 1.0]]))
