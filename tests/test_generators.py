import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsecretary import generators
from gapsecretary.core import true_gap
from gapsecretary.generators import (
    InstanceFamily,
    SeededRng,
    gen_arrivals,
    gen_chi_squared,
    gen_exp_superstar,
    gen_exponential,
    gen_pareto_power,
    load_profiles,
    save_profiles,
    stream_seeding,
)


def stream(i=0, seed=123):
    return SeededRng(seed).stream(i)


class TestSeededRng:
    def test_streams_reproducible(self):
        a = SeededRng(42).stream(3).random(5)
        b = SeededRng(42).stream(3).random(5)
        assert np.array_equal(a, b)

    def test_streams_independent_of_order(self):
        s = SeededRng(42)
        first = s.stream(1).random(4)
        _ = s.stream(0).random(4)
        again = s.stream(1).random(4)
        assert np.array_equal(first, again)

    def test_distinct_streams_differ(self):
        s = SeededRng(42)
        assert not np.array_equal(s.stream(0).random(4), s.stream(1).random(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(0).stream(-2)


# the draws the four families and the arrival times make
DRAW_METHODS = ("random", "standard_exponential", "standard_normal")


def assert_streams_match(seed, indices):
    seeds = SeededRng(seed)
    taken = 0
    for i, rng in zip(indices, seeds.streams(indices)):
        reference = seeds.stream(i)
        for method in DRAW_METHODS:
            assert np.array_equal(
                getattr(rng, method)(5), getattr(reference, method)(5)
            ), (seed, i, method)
        taken += 1
    assert taken == len(indices)


class TestVectorizedStreams:
    def test_seeding_path_checked_and_taken(self):
        assert stream_seeding() == "vectorized"

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_word_count_boundaries(self, seed):
        indices = [0, 1, 2**32 - 1, *range(2**32 - 2, 2**32 + 2), 2**64 - 1, 2**64]
        assert_streams_match(seed, indices)

    def test_long_range_crosses_blocks(self):
        assert_streams_match(77, range(3, 3 + 2 * generators._SEED_BLOCK + 5))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    )
    def test_matches_stream(self, seed, indices):
        assert_streams_match(seed, indices)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            list(SeededRng(0).streams([3, -1]))

    @pytest.mark.parametrize("breakage", ["different-draws", "seeding-raises"])
    def test_failed_check_falls_back_to_default_rng(self, monkeypatch, breakage):
        # stands for a numpy whose seeding or bit generator changed
        if breakage == "different-draws":
            monkeypatch.setattr(generators, "_INIT_B", generators._INIT_B + 2)
        else:  # the reused bit generator refuses a PCG64 state
            monkeypatch.setattr(np.random, "PCG64", np.random.SFC64)
        monkeypatch.setattr(
            generators, "stream_seeding", functools.cache(stream_seeding.__wrapped__)
        )
        assert generators.stream_seeding() == "default_rng"
        assert_streams_match(2**40 + 3, [0, 1, 2**32, 9])


class TestArrivals:
    def test_validation_and_determinism(self):
        with pytest.raises(ValueError):
            gen_arrivals(0, stream())
        a = gen_arrivals(5, stream())
        b = gen_arrivals(5, stream())
        assert np.array_equal(a.times, b.times)

    def test_mean_matches_uniform(self):
        times = gen_arrivals(10**5, stream()).times
        assert abs(times.mean() - 0.5) < 0.01


class TestParetoPower:
    def test_normalized_and_finite(self):
        prof = gen_pareto_power(200, stream())
        w = prof.normalized_weights
        assert w.max() == 1.0
        assert np.isfinite(w).all()
        assert (w >= 0).all()

    def test_determinism(self):
        a = gen_pareto_power(50, stream(7))
        b = gen_pareto_power(50, stream(7))
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_gap_dominance_sampled(self):
        # the power transform makes the top weight dwarf the rest: in almost
        # every draw the realized gap to the second weight exceeds half the
        # maximum (sampled fraction ~0.95), and in most draws the second
        # weight is below 1e-3 of the maximum (sampled fraction ~0.61)
        seeds = SeededRng(2024)
        half, tiny = 0, 0
        draws = 1000
        for i in range(draws):
            prof = gen_pareto_power(200, seeds.stream(i))
            w2 = np.sort(prof.normalized_weights)[-2]
            half += w2 < 0.5
            tiny += w2 < 1e-3
        assert half / draws > 0.93
        assert 0.55 < tiny / draws < 0.70

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            gen_pareto_power(1, stream())


class TestExponential:
    def test_mean(self):
        w = gen_exponential(10**5, stream()).weights
        assert abs(w.mean() - 1.0) < 0.02

    def test_non_negative_and_deterministic(self):
        a = gen_exponential(100, stream(5))
        b = gen_exponential(100, stream(5))
        assert (a.weights >= 0).all()
        assert np.array_equal(a.log_weights, b.log_weights)


class TestChiSquared:
    def test_mean_matches_df(self):
        w = gen_chi_squared(10**5, 10, stream()).weights
        assert abs(w.mean() - 10.0) < 0.15

    def test_df_one_is_squared_normal(self):
        w = gen_chi_squared(10**5, 1, stream(3)).weights
        assert abs(w.mean() - 1.0) < 0.02
        assert (w >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_chi_squared(10, 0, stream())


class TestExpSuperstar:
    def test_structure(self):
        prof = gen_exp_superstar(200, 100.0, stream(9))
        w = np.sort(prof.weights)[::-1]
        assert w[0] == pytest.approx(100.0 * w[1], rel=1e-12)
        assert true_gap(prof, 2) == pytest.approx(99.0 * w[1], rel=1e-9)

    def test_determinism_and_length(self):
        a = gen_exp_superstar(50, 100.0, stream(1))
        b = gen_exp_superstar(50, 100.0, stream(1))
        assert a.n == 50
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_exp_superstar(1, 100.0, stream())
        with pytest.raises(ValueError):
            gen_exp_superstar(5, 0.0, stream())


class TestInstanceFamily:
    def test_dispatch(self):
        s = SeededRng(11)
        for tag in ("pareto_power", "exponential", "chi_squared", "exp_superstar"):
            prof = InstanceFamily(tag).generate(20, s.stream(0))
            assert prof.n == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceFamily("weibull")
        with pytest.raises(ValueError):
            InstanceFamily("chi_squared", df=0)
        with pytest.raises(ValueError):
            InstanceFamily("exp_superstar", factor=-1.0)


class TestReplayFiles:
    def test_round_trip(self, tmp_path):
        s = SeededRng(77)
        profiles = [gen_exponential(10, s.stream(i)) for i in range(4)]
        path = tmp_path / "instances.txt"
        save_profiles(path, profiles, "exponential", 77)
        loaded, meta = load_profiles(path)
        assert meta["family"] == "exponential"
        assert meta["seed"] == "77"
        assert len(loaded) == 4
        for orig, back in zip(profiles, loaded):
            assert np.array_equal(orig.log_weights, back.log_weights)

    def test_round_trip_with_zero_weight(self, tmp_path):
        from gapsecretary.core import WeightProfile

        prof = WeightProfile.from_weights([2.0, 0.0, 1.0])
        path = tmp_path / "zero.txt"
        save_profiles(path, [prof])
        loaded, _ = load_profiles(path)
        assert np.array_equal(loaded[0].log_weights, prof.log_weights)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# family=none\n")
        with pytest.raises(ValueError):
            load_profiles(path)
