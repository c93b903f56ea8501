"""One table of bad arguments against the reference layer: the per-draw
runners, the closed forms, the index arguments of ``core`` and the instance
generators. Each is refused with a ``ValueError`` naming the argument, and a
generator draws nothing first. The legal edges beside them still run."""

import math

import numpy as np
import pytest

from gapsecretary.algorithms import (
    PolicySchedule,
    run_bounded_error,
    run_classical,
    run_exact_gap,
    run_l_selection_gap,
    run_robust_consistent,
)
from gapsecretary.bounds import two_three_tie_prob
from gapsecretary.core import ArrivalDraw, WeightProfile, true_gap
from gapsecretary.generators import (
    SeededRng,
    gen_arrivals,
    gen_chi_squared,
    gen_exp_superstar,
    gen_exponential,
    gen_pareto_power,
)

PROFILE = WeightProfile.from_weights([3.0, 1.0, 2.0])
ARRIVALS = ArrivalDraw([0.5, 0.1, 0.9])
NAN = math.nan


class NoDraw:
    """A stand-in for a ``numpy.random.Generator`` that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the stream ({name})")


BAD = {
    # a NaN gap ran as the classical rule: every comparison with it is false
    "exact-gap-nan": (lambda: run_exact_gap(PROFILE, ARRIVALS, 0.2, NAN), "gap must be non-negative"),
    "robust-nan": (lambda: run_robust_consistent(PROFILE, ARRIVALS, PolicySchedule(0.2, 0.1), NAN),
                   "gap must be non-negative"),
    "bounded-nan-c-tilde": (lambda: run_bounded_error(PROFILE, ARRIVALS, 0.2, NAN, 0.0),
                            "predicted gap and error bound must be non-negative"),
    "bounded-nan-epsilon": (lambda: run_bounded_error(PROFILE, ARRIVALS, 0.2, 1.0, NAN),
                            "predicted gap and error bound must be non-negative"),
    # inf - inf made the term NaN, refused as "gap must be non-negative, got nan"
    "bounded-inf-c-tilde-and-epsilon": (lambda: run_bounded_error(PROFILE, ARRIVALS, 0.2, math.inf, math.inf),
                                        "c_tilde and epsilon cannot both be inf"),
    "l-select-nan": (lambda: run_l_selection_gap(PROFILE, ARRIVALS, 0.2, NAN, 2), "gap must be non-negative"),
    "classical-tau-nan": (lambda: run_classical(PROFILE, ARRIVALS, NAN), "tau must lie in"),
    # L = True ran as L = 1, and L = 2.0 raised a TypeError
    "l-select-L-true": (lambda: run_l_selection_gap(PROFILE, ARRIVALS, 0.2, 0.0, True),
                        "L must be an integer"),
    "l-select-L-float": (lambda: run_l_selection_gap(PROFILE, ARRIVALS, 0.2, 0.0, 2.0),
                         "L must be an integer"),
    "tie-n-float": (lambda: two_three_tie_prob(0.3, n=3.5), "exact mode n must be an integer"),
    # float indices raised numpy's IndexError
    "true-gap-k-float": (lambda: true_gap(PROFILE, 2.5), "gap index k must be an integer"),
    "sorted-index-j-float": (lambda: PROFILE.sorted_index(1.5), "rank j must be an integer"),
    # stream(2.5) and stream(True) drew streams 2 and 1
    "stream-float": (lambda: SeededRng(7).stream(2.5), "stream index must be an integer"),
    "stream-true": (lambda: SeededRng(7).stream(True), "stream index must be an integer"),
    # streams([2.5]) and streams([True]) drew streams 2 and 1 too
    "streams-float": (lambda: next(SeededRng(7).streams([2.5])), "stream index must be an integer"),
    "streams-true": (lambda: next(SeededRng(7).streams([True])), "stream index must be an integer"),
    "chi-squared-df-float": (lambda: gen_chi_squared(4, 2.5, NoDraw()), "df must be an integer"),
    "chi-squared-df-true": (lambda: gen_chi_squared(4, True, NoDraw()), "df must be an integer"),
    "exponential-n-float": (lambda: gen_exponential(2.0, NoDraw()), "need at least one weight"),
    "arrivals-n-float": (lambda: gen_arrivals(2.5, NoDraw()), "need at least one arrival"),
    "pareto-n-float": (lambda: gen_pareto_power(3.0, NoDraw()), "needs n >= 2"),
    # an infinite factor failed with the weights message, and nan passed
    "superstar-factor-inf": (lambda: gen_exp_superstar(4, math.inf, NoDraw()),
                             "superstar factor must be finite and positive"),
    "superstar-factor-nan": (lambda: gen_exp_superstar(4, NAN, NoDraw()),
                             "superstar factor must be finite and positive"),
}


@pytest.mark.parametrize("case", BAD)
def test_bad_argument_refused_by_name(case):
    call, message = BAD[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestLegalEdges:
    @pytest.mark.parametrize(
        "run",
        [
            lambda c: run_exact_gap(PROFILE, ARRIVALS, 0.2, c),
            lambda c: run_robust_consistent(PROFILE, ARRIVALS, PolicySchedule(0.2, 0.1), c),
            lambda c: run_bounded_error(PROFILE, ARRIVALS, 0.2, c, 1.0),
            lambda c: run_l_selection_gap(PROFILE, ARRIVALS, 0.2, c, 2),
        ],
        ids=["exact-gap", "robust", "bounded", "l-select"],
    )
    def test_infinite_gap_accepts_nothing(self, run):
        # core.true_gap returns inf when the raw weights overflow
        assert not run(math.inf).accepted

    def test_unbounded_error_gives_the_classical_rule(self):
        for times in ([0.5, 0.1, 0.9], [0.1, 0.5, 0.9], [0.9, 0.3, 0.6]):
            arrivals = ArrivalDraw(times)
            assert run_bounded_error(PROFILE, arrivals, 0.2, 1e9, math.inf) == run_classical(
                PROFILE, arrivals, 0.2
            )

    def test_numpy_integer_indices_are_the_int(self):
        assert true_gap(PROFILE, np.int64(2)) == true_gap(PROFILE, 2)
        assert PROFILE.sorted_index(np.int32(2)) == PROFILE.sorted_index(2)
        assert two_three_tie_prob(0.3, n=np.int64(5)) == two_three_tie_prob(0.3, n=5)
        assert run_l_selection_gap(PROFILE, ARRIVALS, 0.2, 0.0, np.int64(2)) == run_l_selection_gap(
            PROFILE, ARRIVALS, 0.2, 0.0, 2
        )
        assert np.array_equal(SeededRng(7).stream(np.uint64(2)).random(3), SeededRng(7).stream(2).random(3))
        rng = SeededRng(7)
        assert np.array_equal(gen_exponential(np.int64(3), rng.stream(0)).log_weights,
                              gen_exponential(3, rng.stream(0)).log_weights)
        assert np.array_equal(gen_chi_squared(3, np.int64(2), rng.stream(0)).log_weights,
                              gen_chi_squared(3, 2, rng.stream(0)).log_weights)

    def test_largest_index_is_n(self):
        assert true_gap(PROFILE, 3) == pytest.approx(2.0)
        assert PROFILE.sorted_index(3) == 1
        assert len(run_l_selection_gap(PROFILE, ARRIVALS, 0.2, 0.0, 3).accepted) == 2

    def test_smallest_sizes_draw(self):
        rng = SeededRng(7)
        assert gen_arrivals(1, rng.stream(0)).n == 1
        assert gen_exponential(1, rng.stream(0)).n == 1
        assert gen_chi_squared(1, 1, rng.stream(0)).n == 1
        assert gen_pareto_power(2, rng.stream(0)).n == 2
        assert gen_exp_superstar(2, 100.0, rng.stream(0)).n == 2
