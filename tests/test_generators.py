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
from gapsecretary.montecarlo import AlgorithmSpec, ExperimentConfig, estimate_ratio


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

    @pytest.mark.parametrize("seed", [1.7, 1.0, np.float64(3.0), "3", 2**64])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # a float seed was truncated: SeededRng(1.7) drew what SeededRng(1) draws
        with pytest.raises(ValueError, match="64-bit non-negative integer"):
            SeededRng(seed)

    def test_numpy_integer_seed_is_the_int(self):
        assert np.array_equal(
            SeededRng(np.uint64(7)).stream(2).random(4), SeededRng(7).stream(2).random(4)
        )


# the draws the four families and the arrival times make
DRAW_METHODS = ("random", "standard_exponential", "standard_normal")


def assert_streams_match(seed, indices, streams=None):
    """The draws of each of ``streams`` (by default ``SeededRng.streams``)
    are those of ``SeededRng.stream`` at its index."""
    seeds = SeededRng(seed)
    streams = seeds.streams(indices) if streams is None else streams
    taken = 0
    for i, rng in zip(indices, streams):
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

    # the next two read the vectorized streams whatever stream_seeding() finds

    def test_no_32_bit_draw_carried_to_the_next_stream(self):
        # three uint32 draws leave one half of a 64-bit draw buffered in the
        # reused generator; the next stream starts without it, as default_rng
        for seed in (5, 2**40 + 3):
            for i, rng in enumerate(generators._vectorized_streams(seed, range(40))):
                reference = np.random.default_rng([seed, i])
                draws = [r.integers(0, 2**32, dtype=np.uint32, size=3) for r in (rng, reference)]
                assert np.array_equal(*draws), (seed, i)

    def test_high_indices_cross_blocks(self):
        # two-word seeds and indices; over a thousand rows, PCG64's seeding
        # carries from the low to the high word in both of its 128-bit sums
        top = 2**64 - 1
        for seed, indices in (
            (2**64 - 1, range(top - generators._SEED_BLOCK - 3, top + 1)),
            (2**32 + 9, range(2**63 - 5, 2**63 + generators._SEED_BLOCK)),
        ):
            assert_streams_match(seed, indices, generators._vectorized_streams(seed, indices))

    def test_range_reaching_2_64_matches_stream(self):
        # a range that reaches 2^64 is seeded through stream(i): a third
        # index word changes the hash constants
        for indices in (range(2**64 - 2, 2**64 + 2), range(2**64 - 2, 2**64 + 1)):
            assert_streams_match(2**40 + 3, indices)

    def test_generated_estimate_seeds_its_rows_in_blocks(self, monkeypatch):
        seeded, vectorized = [], generators._vectorized_streams

        def spy(master_seed, indices):
            seeded.append((master_seed, indices))
            return vectorized(master_seed, indices)

        monkeypatch.setattr(generators, "_vectorized_streams", spy)
        seed = 2**63 + 11  # no other test's, so its batch is drawn here
        estimate_ratio(ExperimentConfig(InstanceFamily("exponential"), 10, 30,
                                        AlgorithmSpec("classical"), master_seed=seed))
        assert [call for call in seeded if call[0] == seed] == [(seed, range(30))]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="stream index must be an integer >= 0"):
            list(SeededRng(0).streams([3, -1]))
        with pytest.raises(ValueError, match="stream index must be an integer >= 0"):
            list(SeededRng(0).streams(range(-1, 3)))

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

    @pytest.mark.parametrize("factor", [math.inf, math.nan, 0.0], ids=["inf", "nan", "zero"])
    def test_superstar_factor_must_be_finite_and_positive(self, factor):
        # an infinite factor was accepted here and failed at the first draw,
        # with a message about weights
        with pytest.raises(ValueError, match="superstar factor must be finite and positive"):
            InstanceFamily("exp_superstar", factor=factor)


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

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ("1.0,,2.0", "could not convert string to float"),
            ("1.0,nan,2.0", "log-weights must be finite or -inf"),
            ("1.0,inf,2.0", "log-weights must be finite or -inf"),
        ],
        ids=["empty-field", "nan", "inf"],
    )
    def test_bad_row_names_its_file_and_line(self, row, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"# family=custom\n0.0,1.0,2.0\n\n{row}\n")
        with pytest.raises(ValueError) as info:
            load_profiles(path)
        assert str(info.value).startswith(f"{path}:4: {message}")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# family=none\n")
        with pytest.raises(ValueError):
            load_profiles(path)
