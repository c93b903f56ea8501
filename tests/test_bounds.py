import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsecretary import bounds
from gapsecretary.bounds import (
    TWO_BEST_UPPER_BOUND,
    FrontierPoint,
    alpha_exact,
    alpha_exact_values,
    consistency,
    frontier,
    guarantee_bounded_error,
    guarantee_exact_gap,
    l_selection_bound,
    robustness,
    tau_for_k,
    two_three_tie_prob,
)


class TestTauForK:
    def test_values(self):
        assert tau_for_k(2) == pytest.approx(1 - 3 ** (-0.5), abs=1e-12)
        assert tau_for_k(7) == pytest.approx(0.2570, abs=2e-4)
        assert tau_for_k(10**6) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_for_k(1)

    @pytest.mark.parametrize("k", [bounds.MAX_INDEX + 1, 10**18, 10**308, 10**400])
    def test_index_above_the_limit_is_rejected(self, k):
        # at 10^18 the tuned tau rounds to 0, past 10^308 k is no float
        for evaluate in (tau_for_k, guarantee_exact_gap, lambda k: alpha_exact(0.2, k),
                         lambda k: consistency(0.2, 0.0, k), lambda k: frontier([0.1], 0.1, k)):
            with pytest.raises(ValueError, match=f"k must be an integer in \\[2, {bounds.MAX_INDEX}\\]"):
                evaluate(k)

    def test_values_at_the_index_limit(self):
        k = bounds.MAX_INDEX
        assert 0.0 < tau_for_k(k) < 1e-14
        report = alpha_exact(0.2, k)
        assert report.alpha == pytest.approx(0.4, abs=1e-12)
        assert all(math.isfinite(v) for v in report.components.values())


class TestAlphaExact:
    def test_corollary_value_at_tau_02(self):
        report = alpha_exact(0.2, 2)
        assert report.alpha == pytest.approx(0.3 * math.log(5) - 0.08, abs=1e-12)
        assert report.binding_term == "alpha4"
        assert report.components["case1"] == pytest.approx(0.8, abs=1e-12)

    def test_first_term_minimized_near_k7(self):
        assert alpha_exact(tau_for_k(7), 7).components["case1"] == pytest.approx(
            0.4334, abs=1e-3
        )
        assert alpha_exact(tau_for_k(7), 7).components["case1"] >= 0.43

    def test_floor_at_tau_02(self):
        ks = np.arange(2, 10**6 + 1)
        assert float(alpha_exact_values(0.2, ks).min()) >= 0.4

    def test_report_composition_consistent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tau = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(2, 500))
            r = alpha_exact(tau, k)
            case1, a3, a4 = (
                r.components["case1"],
                r.components["alpha3"],
                r.components["alpha4"],
            )
            assert r.alpha == pytest.approx(min(case1, max(a3, a4)), abs=1e-15)
            assert r.components[r.binding_term] == pytest.approx(r.alpha, abs=1e-15)

    def test_components_within_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            tau = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(2, 1000))
            r = alpha_exact(tau, k)
            assert 0.0 <= r.components["alpha3"] <= 1.0
            assert 0.0 <= r.components["alpha4"] <= 1.0
            assert 0.0 <= r.alpha <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_exact(0.0, 2)
        with pytest.raises(ValueError):
            alpha_exact(0.5, 1)


class TestGuaranteeExactGap:
    def test_values(self):
        assert guarantee_exact_gap(2) == pytest.approx(0.4)
        assert guarantee_exact_gap(10**6) == pytest.approx(0.499993, abs=1e-5)

    def test_approaches_half(self):
        assert guarantee_exact_gap(10**8) > 0.4999

    def test_never_exceeds_proof_alpha(self):
        ks = np.arange(2, 10**5 + 1)
        taus = 1.0 - np.exp(-np.log(ks + 1.0) / ks)
        alphas = alpha_exact_values(taus, ks)
        stated = np.maximum(0.4, 0.5 * np.exp(-np.log(ks + 1.0) / ks))
        assert np.all(stated <= alphas + 1e-12)


class TestRobustness:
    def test_values(self):
        assert robustness(0.2, 0.6) == pytest.approx(0.18326, abs=5e-6)
        assert robustness(0.3, 0.0) == 0.0
        assert robustness(1 / math.e, 1 - 1 / math.e) == pytest.approx(
            1 / math.e, abs=1e-12
        )

    def test_increasing_in_gamma(self):
        values = [robustness(0.2, g) for g in np.linspace(0, 0.79, 40)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            robustness(0.0, 0.1)
        with pytest.raises(ValueError):
            robustness(0.4, 0.7)


class TestConsistency:
    def test_headline_point(self):
        r = consistency(0.2, 0.6)
        assert r.alpha == pytest.approx(0.3833, abs=1e-4)
        assert r.binding_term == "alpha1"

    def test_classical_recovery_point(self):
        tau = 1 / math.e
        r = consistency(tau, 1 - 1 / math.e)
        assert r.components["alpha1"] == pytest.approx(1 / math.e, abs=1e-12)
        assert r.alpha == pytest.approx(1 / math.e, abs=1e-12)

    def test_alpha4_value_independent_of_gamma_and_k(self):
        expected = 0.3 * math.log(5) - 0.08
        for gamma in (0.0, 0.3, 0.6):
            for agg in ("worst-case", 2, 50):
                r = consistency(0.2, gamma, agg)
                assert r.components["alpha4"] == pytest.approx(expected, abs=1e-12)

    def test_gamma_zero_composes_with_exact_gap_terms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tau = float(rng.uniform(0.05, 0.9))
            k = int(rng.integers(2, 300))
            r = consistency(tau, 0.0, k)
            ref = alpha_exact(tau, k)
            alpha2 = 0.5 * (1 - tau + tau * math.log(1 / tau))
            expected = min(
                min(1 - tau, alpha2),
                max(ref.components["alpha3"], ref.components["alpha4"]),
            )
            assert r.components["alpha1"] == pytest.approx(1 - tau, abs=1e-12)
            assert r.alpha == pytest.approx(expected, abs=1e-12)

    def test_components_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tau = float(rng.uniform(0.01, 0.98))
            gamma = float(rng.uniform(0.0, 1.0) * (1 - tau))
            r = consistency(tau, gamma)
            for name, val in r.components.items():
                assert 0.0 <= val <= 1.0, (name, val)

    def test_worst_case_never_above_specific_k(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tau = float(rng.uniform(0.05, 0.9))
            gamma = float(rng.uniform(0.0, 0.9) * (1 - tau))
            worst = consistency(tau, gamma).alpha
            for k in (2, 3, 10, 100):
                assert worst <= consistency(tau, gamma, k).alpha + 1e-12
            # the worst gap index is k = 2
            assert worst == consistency(tau, gamma, 2).alpha

    @settings(derandomize=True, max_examples=200, deadline=None)
    # subnormal tau is left out: 1/tau overflows there
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False))
    @example(1e-12)
    @example(1.0 - 1e-12)
    def test_alpha4_above_alpha3_at_k_2(self, tau):
        # so max(alpha3(k), alpha4) >= alpha4 = max(alpha3(2), alpha4) for
        # every k, and the worst-case gap term is alpha4
        r = alpha_exact(tau, 2)
        assert r.components["alpha4"] > r.components["alpha3"]


def _whole_grid(grid_step, k_aggregation):
    """The whole (tau, gamma) grid at once: taus, gammas, robustness and
    consistency, with -inf consistency where gamma >= 1 - tau."""
    steps = int(round(1.0 / grid_step))
    taus = np.arange(1, steps) * grid_step
    gammas = np.arange(0, steps) * grid_step
    k = 2 if k_aggregation == "worst-case" else k_aggregation
    _, alpha3, alpha4 = bounds._alpha_terms(taus, k)
    t = taus[:, None]
    g = gammas[None, :]
    rob, cons, alpha2 = bounds._schedule_terms(t, g)
    cons = np.minimum(np.minimum(cons, alpha2), np.maximum(alpha3, alpha4)[:, None])
    cons[g >= (1.0 - t) - 1e-9] = -np.inf
    return taus, gammas, rob, cons


def _three_pass_frontier(targets, grid):
    """The frontier search as three full-grid passes per target (mask,
    where, argmax): the reference for the row search."""
    taus, gammas, rob, cons = grid
    points = []
    for r in targets:
        masked = np.where(rob >= r, cons, -np.inf)
        ti, gi = divmod(int(np.argmax(masked)), gammas.size)
        best = float(masked[ti, gi])
        if best == -math.inf:
            points.append(FrontierPoint(float(r), math.nan, math.nan, math.nan, False))
        else:
            points.append(FrontierPoint(float(r), float(taus[ti]), float(gammas[gi]), best))
    return points


AGGREGATIONS = ["worst-case", 2, 7, 100]


def _flat_gap_case(tau, k):
    """A gap-case term of 0.3 at every tau, in place of ``_alpha_terms``: it
    binds on much of the grid, so points of many rows tie exactly."""
    return None, np.full_like(tau, 0.3), np.full_like(tau, 0.3)


class TestFrontier:
    @pytest.mark.parametrize("grid_step", [0.001, 0.0037, 0.01, 0.1])
    @pytest.mark.parametrize("k_aggregation", AGGREGATIONS)
    def test_matches_three_pass_search(self, k_aggregation, grid_step):
        grid = _whole_grid(grid_step, k_aggregation)
        rob = grid[2]
        # grid values hit the >= boundary exactly; 1/e and above are out of reach
        on_grid = [float(rob[i, j]) for i, j in ((0, 1), (rob.shape[0] // 3, rob.shape[1] // 2))]
        targets = [0.0, 0.05, 0.1, 0.1833, 0.25, 0.3, 0.36, 1 / math.e, 0.5, *on_grid]
        assert repr(frontier(targets, grid_step, k_aggregation)) == repr(
            _three_pass_frontier(targets, grid)
        )

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        st.sampled_from([0.0037, 0.01, 0.05, 0.1]),
        st.sampled_from(AGGREGATIONS),
        st.data(),
    )
    def test_matches_three_pass_search_property(self, grid_step, k_aggregation, data):
        grid = _whole_grid(grid_step, k_aggregation)
        rob = grid[2]
        on_grid = st.integers(0, rob.size - 1).map(lambda i: float(rob.flat[i]))
        target = st.one_of(
            on_grid,
            st.just(0.0),
            st.floats(0.0, 0.4),
            st.floats(0.37, 10.0),  # beyond the grid's reach
            st.just(math.inf),
        )
        targets = data.draw(st.lists(target, min_size=1, max_size=12))
        assert repr(frontier(targets, grid_step, k_aggregation)) == repr(
            _three_pass_frontier(targets, grid)
        )

    def test_ties_go_to_the_first_grid_point(self, monkeypatch):
        monkeypatch.setattr(bounds, "_alpha_terms", _flat_gap_case)
        targets = [0.0, 0.01, 0.05, 0.1, 0.15, 0.2, 0.25]
        points = frontier(targets, grid_step=0.01)
        assert [p.consistency for p in points[:3]] == [0.3] * 3
        assert repr(points) == repr(_three_pass_frontier(targets, _whole_grid(0.01, 2)))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        st.sampled_from([0.001, 0.0037, 0.01, 0.05, 0.1]),
        st.sampled_from([*AGGREGATIONS, "flat"]),
    )
    def test_rows_rise_in_robustness_and_fall_in_consistency(self, grid_step, k_aggregation):
        # the invariant the row search rests on: on a row's valid columns, a
        # prefix, the first column reaching a target holds the row's best
        with pytest.MonkeyPatch.context() as patch:
            if k_aggregation == "flat":
                patch.setattr(bounds, "_alpha_terms", _flat_gap_case)
                k_aggregation = 2
            _, _, rob, cons = _whole_grid(grid_step, k_aggregation)
        valid = cons > -np.inf
        assert valid[:, 0].all() and (valid[:, 1:] <= valid[:, :-1]).all()
        pairs = valid[:, 1:]
        assert (np.diff(rob, axis=1)[pairs] > 0).all()
        with np.errstate(invalid="ignore"):  # -inf - -inf past the valid columns
            assert (np.diff(cons, axis=1)[pairs] <= 0).all()

    def test_traced_memory_at_finest_grid(self):
        # the whole grid at this step took 126 MiB; one row at a time keeps
        # the search under 16 MiB (numpy reports its array allocations to
        # tracemalloc)
        tracemalloc.start()
        try:
            frontier([0.0, 0.1, 0.2, 0.3], grid_step=0.0005)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 16.0

    def test_headline_point_feasible(self):
        r = robustness(0.2, 0.6)
        (pt,) = frontier([r], grid_step=0.005)
        assert pt.feasible
        assert pt.consistency >= 0.383
        assert robustness(pt.tau, pt.gamma) >= r

    def test_infeasible_target_flagged(self):
        (pt,) = frontier([10.0], grid_step=0.01)
        assert not pt.feasible
        assert math.isnan(pt.consistency)

    def test_consistency_non_increasing_in_target(self):
        targets = [0.0, 0.05, 0.1, 0.15, 0.2]
        points = frontier(targets, grid_step=0.01)
        values = [p.consistency for p in points if p.feasible]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_zero_target_peak_recorded(self):
        # documented behavior of the worst-case-k aggregation: the zero-
        # robustness endpoint sits near 0.44, well below the two-best
        # hardness ceiling
        (pt,) = frontier([0.0], grid_step=0.005)
        assert 0.42 <= pt.consistency <= 0.46
        assert pt.consistency < TWO_BEST_UPPER_BOUND

    def test_worst_case_is_k_2_frontier(self):
        targets = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3]
        assert frontier(targets, grid_step=0.01) == frontier(targets, grid_step=0.01, k_aggregation=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            frontier([])
        with pytest.raises(ValueError):
            frontier([0.1], grid_step=0.5)
        with pytest.raises(ValueError):  # 10^12 grid points
            frontier([0.1], grid_step=1e-6)
        with pytest.raises(ValueError):
            frontier([-0.1])
        # NaN passed the r < 0 check and came back an infeasible point
        with pytest.raises(ValueError, match="must be non-negative"):
            frontier([0.1, math.nan])
        assert not frontier([math.inf], grid_step=0.1)[0].feasible


class TestGuaranteeBoundedError:
    def test_matches_exact_alpha_with_penalty_note(self):
        r = guarantee_bounded_error(0.2, 5)
        base = alpha_exact(0.2, 5)
        assert r.alpha == base.alpha
        assert r.alpha >= 0.4
        assert r.penalty_form == "alpha * w1 - 2 * epsilon"

    def test_tuned_tau_floor(self):
        for k in (2, 7, 40):
            assert guarantee_bounded_error(tau_for_k(k), k).alpha >= guarantee_exact_gap(
                k
            ) - 1e-12


class TestTwoThreeTie:
    def test_tuned_value(self):
        val = two_three_tie_prob(0.359)
        assert 0.441 <= val <= 0.443
        assert val > 1 / math.e

    def test_limits(self):
        assert two_three_tie_prob(1e-9) == pytest.approx(0.0, abs=1e-6)
        assert two_three_tie_prob(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_mode_close_to_approximation_at_n200(self):
        approx = two_three_tie_prob(0.359)
        exact = two_three_tie_prob(0.359, n=200)
        assert abs(approx - exact) < 1e-10

    def test_exact_mode_small_n_differs(self):
        assert two_three_tie_prob(0.359, n=5) != pytest.approx(
            two_three_tie_prob(0.359), abs=1e-6
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            two_three_tie_prob(0.0)
        with pytest.raises(ValueError):
            two_three_tie_prob(0.5, n=2)
        with pytest.raises(ValueError):  # one series term per index below n
            two_three_tie_prob(0.5, n=10**13)


class TestReciprocalOfTau:
    @pytest.mark.parametrize(
        "evaluate",
        [lambda tau: alpha_exact(tau, 2), lambda tau: guarantee_bounded_error(tau, 3),
         lambda tau: consistency(tau, 0.5), lambda tau: robustness(tau, 0.5),
         two_three_tie_prob, lambda tau: two_three_tie_prob(tau, n=5)],
        ids=["exact", "bounded", "consistency", "robustness", "tie23", "tie23-exact"],
    )
    def test_tau_whose_reciprocal_overflows_is_rejected(self, evaluate):
        # ln(1/tau) would be inf: alpha read case1 and the tie probability inf
        with pytest.raises(ValueError, match="1/tau must be finite"):
            evaluate(1e-320)

    def test_smallest_taus_give_finite_values(self):
        for tau in (1e-308, 5.6e-309):
            report = alpha_exact(tau, 2)
            assert 0.0 < report.alpha < 1e-300 and report.binding_term == "alpha4"
            assert 0.0 < two_three_tie_prob(tau) < 1e-300
            assert math.isfinite(consistency(tau, 0.5).components["alpha2"])


class TestLSelectionBound:
    def test_values(self):
        assert l_selection_bound(2, 0.0) == pytest.approx(1 / math.e, abs=1e-12)
        assert l_selection_bound(2, 0.3) == pytest.approx(0.39920, abs=1e-5)

    def test_monotone_in_beta(self):
        betas = np.linspace(0, 0.5, 20)
        values = [l_selection_bound(2, float(b)) for b in betas]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(v >= 1 / math.e for v in values)

    def test_domain(self):
        with pytest.raises(ValueError):
            l_selection_bound(1, 0.1)
        with pytest.raises(ValueError):
            l_selection_bound(3, 0.5)  # beta capped at 1/L
        for L in (bounds.MAX_INDEX + 1, 10**400):  # 1/L would not be a float
            with pytest.raises(ValueError, match=f"L must be an integer in \\[2, {bounds.MAX_INDEX}\\]"):
                l_selection_bound(L, 0.0)

    def test_large_L(self):
        # e**L overflows a float above L = 709; the last term vanishes instead
        for L in (710, 1000, 10**6, bounds.MAX_INDEX):
            beta = 0.5 / L
            expected = 1 / math.e + beta / (2 * math.e) * (1 - 1 / L)
            assert l_selection_bound(L, beta) == pytest.approx(expected, rel=1e-15)
