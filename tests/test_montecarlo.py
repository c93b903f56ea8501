import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsecretary import montecarlo
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
from gapsecretary.core import ArrivalDraw, WeightProfile, normalize
from gapsecretary.generators import FAMILY_TAGS, InstanceFamily, SeededRng
from gapsecretary.montecarlo import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    GapSpec,
    _build_batch,
    _policy,
    _replay_batch,
    _rescale_raw,
    _run_l_select_rows,
    _run_threshold_batch,
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
                out = _run_threshold_batch(W, T, tau, **kw)
                for row in range(B):
                    prof = WeightProfile.from_weights(W[row])
                    ref = _scalar_reference(
                        spec, prof, ArrivalDraw(T[row]), float(gaps[row])
                    )
                    expected = -1 if not ref.accepted else ref.accepted_index
                    assert out["accept_index"][row] == expected, (spec.tag, row)

    def test_policy_tags_match_scalar_runners(self):
        # every single-selection tag through _policy and the kernel; rounded
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
                policy = _policy(spec, _rescale_raw(gaps, max_log), max_log)
                out = _run_threshold_batch(norm, T, *policy)
                for row in range(B):
                    ref = _scalar_reference(
                        spec, profiles[row], ArrivalDraw(T[row]), float(gaps[row])
                    )
                    if ref.accepted:
                        assert out["accept_index"][row] == ref.accepted_index
                        assert out["accept_time"][row] == ref.accept_time
                    else:
                        assert out["accept_index"][row] == -1, (spec.tag, trial, row)
        with pytest.raises(ConfigError):
            _policy(AlgorithmSpec("l-select", L=2), 0.0, 0.0)

    def test_tied_arrival_times(self):
        W = np.array([[3.0, 5.0, 4.0]])
        T = np.array([[0.6, 0.6, 0.1]])
        out = _run_threshold_batch(W, T, 0.2, 0.0)
        ref = run_classical(WeightProfile.from_weights(W[0]), ArrivalDraw(T[0]), 0.2)
        assert out["accept_index"][0] == ref.accepted_index


def _check_l_select_rows(W, T, tau, L, gap: GapSpec):
    """The kernel on raw weight rows ``W`` against ``run_l_selection_gap`` on
    each row's normalized profile, with the gap the engine feeds it: sigma
    times (L-th minus (L+1)-th largest normalized weight), or sigma times the
    absolute gap rescaled by the scalar runners' own raw-to-normalized map."""
    profiles = [WeightProfile.from_weights(row) for row in W]
    norm = np.array([p.normalized_weights for p in profiles])
    max_log = np.array([p.max_log_weight for p in profiles])
    out = _run_l_select_rows(norm, T, max_log, tau, L, gap)
    for row, raw in enumerate(profiles):
        prof = normalize(raw)
        ws = np.sort(prof.normalized_weights)[::-1]
        if gap.absolute is None:
            c = gap.sigma * float(ws[L - 1] - ws[L])
        else:
            c = gap.sigma * _normalized_view(raw, gap.absolute)[1]
        ref = run_l_selection_gap(prof, ArrivalDraw(T[row]), tau, c, L)
        where = (row, tau, L, gap)
        assert set(np.flatnonzero(out["accepted"][row])) == set(ref.indices), where
        assert out["total_weight"][row] == ref.total_weight, where
        assert out["opt"][row] == float(np.sum(ws[:L])), where
        best = int(np.argmax(prof.normalized_weights))
        assert out["best_index"][row] == best, where
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
        # sigma 0 times a gap that rescales to inf is NaN; the scalar runner's
        # max(r_L, NaN) keeps r_L, so the NaN gap acts as no gap
        rng = np.random.default_rng(13)
        W, T = rng.random((30, 6)), rng.random((30, 6))
        tiny = np.full(30, -800.0)  # raw log maxima whose rescaling overflows
        got = _run_l_select_rows(W, T, tiny, 0.3, 2, GapSpec(absolute=1.0, sigma=0.0))
        ref = _run_l_select_rows(W, T, tiny, 0.3, 2, GapSpec(absolute=0.0))
        prof = WeightProfile.from_weights(W[0])
        scalar = run_l_selection_gap(prof, ArrivalDraw(T[0]), 0.3, math.nan, 2)
        assert set(np.flatnonzero(got["accepted"][0])) == set(scalar.indices)
        for key in ref:
            assert np.array_equal(got[key], ref[key])

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

    def test_estimate_ratio_runs_l_select(self):
        cfg = ExperimentConfig(
            InstanceFamily("exponential"), 10, 5, AlgorithmSpec("l-select", L=2)
        )
        assert estimate_ratio(cfg) == estimate_l_selection(cfg)


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

    def test_bit_identical_across_threads(self):
        # reruns agree bit for bit; the CLI's output-determinism check covers
        # --threads
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

    @pytest.mark.parametrize(
        "policy,evaluated", [("fixed", 2), ("from-k", 4)], ids=["fixed", "from-k"]
    )
    def test_cells_reading_the_same_inputs_evaluated_once(self, policy, evaluated, monkeypatch):
        # an absolute gap ignores k and the classical baseline ignores the
        # gap, so under a fixed tau the k rows share one bounded estimate;
        # the tuned tau differs per k
        calls = []
        kernel = montecarlo._run_threshold_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_run_threshold_batch", counting)
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            50,
            100,
            AlgorithmSpec("bounded", tau=0.2, epsilon=0.5),
            GapSpec(absolute=3.5),
            master_seed=SEED,
        )
        cells = sweep_k(cfg, [2, 18, 34], tau_policy=policy)
        assert len(calls) == evaluated
        bounded = [c for c in cells if c.algo == "bounded"]
        assert [c.k for c in bounded] == [2, 18, 34]
        for c in bounded:
            single = replace(cfg, algorithm=replace(cfg.algorithm, tau=c.tau))
            assert c.estimate == estimate_ratio(single)
        calls.clear()
        cells = sweep_sigma(cfg, [0.0, 1.0], [2, 10, 50])
        assert len(calls) == 2
        assert len(cells) == 6


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


class TestSimulateFixedProfile:
    def test_deterministic(self):
        prof = WeightProfile.from_weights([3.0, 1.0, 2.0])
        spec = AlgorithmSpec("classical", tau=0.3)
        a = simulate_fixed_profile(prof, spec, 500, 7)
        b = simulate_fixed_profile(prof, spec, 500, 7)
        assert np.array_equal(a["accept_index"], b["accept_index"])

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
    def test_matches_per_instance_generation(self, family, smallest, n_index):
        # the row form draws the same streams as family.generate, bit for bit;
        # the reference stacks each profile's normalized view
        n, iters, seed = (smallest, 7, 50)[n_index], 40, 5
        times, profiles = _per_instance(family, n, iters, seed)
        W = np.array([p.normalized_weights for p in profiles])
        max_log = np.array([p.max_log_weight for p in profiles])
        expected = (times, W, max_log, np.sort(W, axis=1)[:, ::-1])
        for batch in (
            _build_batch(family, n, range(iters), seed),
            _replay_batch(profiles, seed, range(iters)),
        ):
            got = (batch.times, batch.weights, batch.max_log, batch.sorted_weights)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
        if family.tag == "pareto_power":
            assert not batch.max_log.any()  # pareto profiles come normalized
        # a chunk of rows is the same rows of the whole batch
        chunk = _build_batch(family, n, range(13, 29), seed)
        assert np.array_equal(chunk.times, times[13:29])
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
        batch = _replay_batch(profiles, 3, range(len(profiles)))
        assert np.array_equal(batch.weights, [p.normalized_weights for p in profiles])
        assert np.array_equal(batch.max_log, [p.max_log_weight for p in profiles])

    def test_size_checked_before_any_stream(self, monkeypatch):
        def no_stream(self, index):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(SeededRng, "stream", no_stream)
        monkeypatch.setattr(SeededRng, "streams", no_stream)
        for tag in ("pareto_power", "exp_superstar"):
            with pytest.raises(ValueError, match="needs n >= 2"):
                _build_batch(InstanceFamily(tag), 1, range(5), 0)

    def test_non_finite_weight_rejected(self):
        # the superstar overflows float64 at this factor
        with pytest.raises(ValueError, match="finite and non-negative"):
            _build_batch(InstanceFamily("exp_superstar", factor=1e308), 5, range(3), 0)


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

    def test_size_mismatch_rejected(self):
        profiles = [
            WeightProfile.from_weights([1.0, 2.0]),
            WeightProfile.from_weights([1.0, 2.0, 3.0]),
        ]
        with pytest.raises(ConfigError):
            batch_ratio_for_profiles(profiles, AlgorithmSpec("classical"), GapSpec(), 0)


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
        monkeypatch.setitem(montecarlo._CHUNK_ELEMENTS, "l-select", 5 * 12)
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

    def test_generated_instances_deterministic_across_threads(self):
        # reruns agree bit for bit; the CLI's output-determinism check covers
        # --threads
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
    chunk table cut to a few rows or a single row, with a partial last
    chunk."""

    N, ITERS = 12, 31

    @pytest.fixture(params=[{"threshold": 40, "l-select": 25}, {"threshold": 1, "l-select": 1}],
                    ids=["few-rows", "one-row"])
    def rechunked(self, request, monkeypatch):
        def both(run):
            whole = run()
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_CHUNK_ELEMENTS", request.param)
                assert len(list(montecarlo._chunks(self.N, self.ITERS, [AlgorithmSpec("classical")]))) > 1
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

    def test_mixed_cells_take_the_smallest_entry(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", {"threshold": 40, "l-select": 25})
        algos = [AlgorithmSpec("classical"), AlgorithmSpec("l-select", L=2)]
        chunks = list(montecarlo._chunks(self.N, self.ITERS, algos))
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
        calls = []
        kernel = montecarlo._run_l_select_rows

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_run_l_select_rows", counting)
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
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(montecarlo, "_build_batch", no_batch)
        cfg = ExperimentConfig(
            InstanceFamily("exponential"), 20, 50, AlgorithmSpec("exact-gap"), GapSpec(k=2)
        )
        assert sweep_sigma(cfg, [], [2, 3]) == []
        assert sweep_sigma(cfg, [0.5], []) == []
        assert sweep_k(cfg, []) == []
