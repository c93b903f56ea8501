"""Acceptance gate: every release-blocking check with its stated tolerance.

Each ``check_*`` function returns ``(passed, measured, expected)``: the pass
flag, the measured value and the expected band. ``run_check`` times the call
and names the row after the function (``check_pareto_band`` gives
``pareto-band``); ``CHECKS`` gives its suite. The CLI ``verify`` subcommand
and the test suite both run this registry. Tolerances are pinned here, not
tuned at runtime.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BLOCK_POINTS,
    alpha_exact,
    alpha_exact_values,
    consistency,
    l_selection_bound,
    robustness,
    tau_for_k,
    two_three_tie_prob,
)
from .core import WeightProfile, true_gap
from .generators import InstanceFamily
from .montecarlo import (
    AlgorithmSpec,
    ExperimentConfig,
    GapSpec,
    estimate_l_selection,
    exact_expectation_small_n,
    simulate_fixed_profile_rules,
    sweep_k,
    sweep_sigma,
)

__all__ = [
    "CheckResult", "CHECKS", "SUITES", "run_check", "run_checks", "format_results", "ACCEPTANCE_SEED"
]

ACCEPTANCE_SEED = 20250


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    passed: bool
    measured: str
    expected: str
    seconds: float


def _iters(full: int, fast_scale: int, fast: bool) -> int:
    return max(fast_scale, full // 5) if fast else full


# ---------------------------------------------------------------------------
# Closed-form checks


def check_alpha_fixed_tau_floor(fast: bool = False) -> tuple[bool, str, str]:
    """Fixed waiting time 0.2 keeps the exact-gap bound at 0.4 or above for
    every gap index up to 1e6, in under 10 s."""
    t0 = time.perf_counter()
    worst = min(
        float(alpha_exact_values(0.2, np.arange(lo, min(lo + BLOCK_POINTS, 10**6 + 1))).min())
        for lo in range(2, 10**6 + 1, BLOCK_POINTS)
    )
    spot_ok = all(
        abs(alpha_exact(0.2, k).alpha - float(alpha_exact_values(0.2, k))) < 1e-15
        for k in (2, 7, 11, 12, 1000)
    )
    elapsed = time.perf_counter() - t0
    passed = worst >= 0.4 and spot_ok and elapsed < 10.0
    return passed, f"min alpha={worst:.9f}, {elapsed:.2f}s", ">= 0.4 over k in [2, 1e6], < 10 s"


def check_alpha_tuned_tau_guarantee(fast: bool = False) -> tuple[bool, str, str]:
    """At the index-tuned waiting time the bound dominates
    max(0.4, (1/2)(1/(k+1))^(1/k)) for k up to 1e5, and the large-gap term at
    k = 7 sits at 0.433 +- 0.001."""
    t0 = time.perf_counter()
    ks = np.arange(2, 10**5 + 1)
    taus = 1.0 - np.exp(-np.log(ks + 1.0) / ks)
    alphas = alpha_exact_values(taus, ks)
    stated = np.maximum(0.4, 0.5 * np.exp(-np.log(ks + 1.0) / ks))
    dominates = bool(np.all(alphas >= stated - 1e-12))
    first_term_k7 = alpha_exact(tau_for_k(7), 7).components["case1"]
    k7_ok = abs(first_term_k7 - 0.433) <= 0.001
    elapsed = time.perf_counter() - t0
    passed = dominates and k7_ok and elapsed < 5.0
    return (
        passed,
        f"dominates={dominates}, case1(k=7)={first_term_k7:.5f}, {elapsed:.2f}s",
        "alpha >= stated-1e-12 on [2, 1e5]; case1(k=7)=0.433+-0.001; < 5 s",
    )


def check_robust_consistent_point(fast: bool = False) -> tuple[bool, str, str]:
    """The headline trade-off point: 0.383-consistent and 0.1833-robust at
    (tau, gamma) = (0.2, 0.6); the no-trust point recovers 1/e-robustness."""
    cons = consistency(0.2, 0.6).alpha
    rob = robustness(0.2, 0.6)
    rob_e = robustness(1.0 / math.e, 1.0 - 1.0 / math.e)
    passed = (
        abs(cons - 0.383) <= 0.001
        and abs(rob - 0.1833) <= 0.0005
        and abs(rob_e - 1.0 / math.e) <= 1e-12
    )
    return (
        passed,
        f"consistency={cons:.5f}, robustness={rob:.5f}, no-trust={rob_e:.12f}",
        "0.383+-0.001, 0.1833+-0.0005, 1/e+-1e-12",
    )


def check_two_three_tie_formula(fast: bool = False) -> tuple[bool, str, str]:
    """Closed-form selection probability of the strict rule on tied
    second/third weights, evaluated at the tuned waiting time 0.359."""
    val = two_three_tie_prob(0.359)
    exact_n200 = two_three_tie_prob(0.359, n=200)
    passed = 0.441 <= val <= 0.443 and abs(val - exact_n200) < 1e-6
    return (
        passed,
        f"approx={val:.5f}, exact(n=200)={exact_n200:.5f}",
        "in [0.441, 0.443]; approximation matches exact mode at n=200",
    )


# ---------------------------------------------------------------------------
# Simulation checks


def _tie_profile(n: int = 200) -> WeightProfile:
    # strictly decreasing below the tied pair, as the derivation assumes
    tail = np.linspace(0.99, 0.5, n - 3)
    return WeightProfile.from_weights(np.concatenate([[2.0, 1.0, 1.0], tail]))


def _figure_config(family_tag: str, iters: int, algorithm: AlgorithmSpec) -> ExperimentConfig:
    """n = 200 instances of one family under the acceptance seed; the sweeps
    set the gap index and scale of each cell."""
    return ExperimentConfig(
        InstanceFamily(family_tag), 200, iters, algorithm, GapSpec(k=2), master_seed=ACCEPTANCE_SEED
    )


def check_two_three_tie_simulation(fast: bool = False) -> tuple[bool, str, str]:
    """Monte Carlo select-best probability of the strict rule on a tied
    instance matches the closed form within 0.01."""
    iters = _iters(10**5, 20_000, fast)
    rule = (AlgorithmSpec("strict-classical", tau=0.359), 0.0)
    # the rule keeps only its select_best draws, reduced to their mean
    reducer = (("select_best",), lambda out: float(out["select_best"].mean()))
    (p,) = simulate_fixed_profile_rules(_tie_profile(), [rule], iters, ACCEPTANCE_SEED, reducer)
    formula = two_three_tie_prob(0.359)
    passed = abs(p - formula) <= 0.01
    return passed, f"mc={p:.5f} vs formula={formula:.5f} ({iters} draws)", "|mc - formula| <= 0.01"


def check_pareto_band(fast: bool = False) -> tuple[bool, str, str]:
    """Power-transformed uniform instances: the classical rule lands near its
    tight guarantee while the gap rule hits the waiting-time ceiling 0.8."""
    t0 = time.perf_counter()
    iters = _iters(5000, 1000, fast)
    config = _figure_config("pareto_power", iters, AlgorithmSpec("exact-gap", tau=0.2))
    cells = sweep_k(config, (2, 50, 100, 200))  # classical baseline at tau = 1/e
    classical = next(c.estimate.mean for c in cells if c.algo == "classical")
    gaps = {c.k: c.estimate.mean for c in cells if c.algo == "exact-gap"}
    ok = 0.33 <= classical <= 0.41 and all(0.77 <= v <= 0.83 for v in gaps.values())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    gap_str = ", ".join(f"k={k}:{v:.3f}" for k, v in gaps.items())
    return (
        ok,
        f"classical={classical:.4f}; exact-gap {gap_str}; {elapsed:.1f}s",
        "classical in [0.33,0.41]; exact-gap in [0.77,0.83]; < 5 min",
    )


def check_exponential_sigma_bands(fast: bool = False) -> tuple[bool, str, str]:
    """Exponential instances under scaled predictions: underestimates stay
    near 0.65 for both rules; heavy overestimates kill the plain gap rule but
    not the robust one."""
    iters = _iters(5000, 1000, fast)
    under, over = [], {}
    for algo in (AlgorithmSpec("exact-gap", tau=0.2), AlgorithmSpec("robust", tau=0.2, gamma=0.05)):
        config = _figure_config("exponential", iters, algo)
        for c in sweep_sigma(config, (0.3, 2.0), (2, 100, 200)):
            if c.sigma == 0.3:
                under.append(c.estimate.mean)
            elif c.k == 200:
                over[c.algo] = c.estimate.mean
    over_exact, over_robust = over["exact-gap"], over["robust"]
    ok = all(abs(est - 0.65) <= 0.05 for est in under)
    ok = ok and over_exact <= 0.05 and over_robust >= 0.10
    return (
        ok,
        f"sigma=0.3: [{min(under):.3f},{max(under):.3f}]; sigma=2 k=200: exact={over_exact:.4f}, robust={over_robust:.4f}",
        "0.65+-0.05 at sigma=0.3; exact<=0.05 and robust>=0.10 at sigma=2",
    )


def check_exponential_gap_beats_classical(fast: bool = False) -> tuple[bool, str, str]:
    """Exponential instances with accurate gaps (sigma = 1) at k in {100,
    200}: exact-gap and robust beat the classical rule at the same tau by
    more than 3 standard errors of the difference, on the same draws. The
    sigma = 0 cells of the exact-gap sweep are the classical rule, draw for
    draw."""
    iters = _iters(5000, 1000, fast)
    ks = (100, 200)
    exact_algo = AlgorithmSpec("exact-gap", tau=0.2)
    exact = sweep_sigma(_figure_config("exponential", iters, exact_algo), (0.0, 1.0), ks)
    robust_algo = AlgorithmSpec("robust", tau=0.2, gamma=0.05)
    robust = sweep_sigma(_figure_config("exponential", iters, robust_algo), (1.0,), ks)
    classical = next(c.estimate for c in exact if c.sigma == 0.0)
    margins = []
    for c in [c for c in exact if c.sigma == 1.0] + robust:
        diff = c.estimate.mean - classical.mean
        se = math.hypot(c.estimate.stderr, classical.stderr)
        margins.append((c.algo, c.k, c.estimate.mean, diff / se))
    ok = all(z > 3.0 for *_, z in margins)
    cells = ", ".join(f"{a} k={k}: {m:.4f} ({z:.1f} SE)" for a, k, m, z in margins)
    return (
        ok,
        f"classical={classical.mean:.4f}+-{classical.stderr:.4f}; {cells}",
        "exact-gap and robust > classical + 3 SE at sigma=1, k in {100,200}",
    )


def check_superstar_sigma_bands(fast: bool = False) -> tuple[bool, str, str]:
    """Superstar instances: accurate gaps keep the ratio at the 0.8 ceiling;
    a 10% overestimate zeroes the plain rule while the robust rule keeps its
    late-phase floor."""
    iters = _iters(5000, 1000, fast)
    config = _figure_config("exp_superstar", iters, AlgorithmSpec("exact-gap", tau=0.2))
    exact = {(c.k, c.sigma): c.estimate.mean for c in sweep_sigma(config, (1.0, 1.1), (2, 100, 200))}
    at_one = [exact[k, 1.0] for k in (2, 100, 200)]
    over_exact = exact[200, 1.1]
    robust_algo = AlgorithmSpec("robust", tau=0.2, gamma=0.05)
    (robust,) = sweep_sigma(_figure_config("exp_superstar", iters, robust_algo), (1.1,), (200,))
    over_robust = robust.estimate.mean
    ok = all(est >= 0.75 for est in at_one)
    ok = ok and over_exact <= 0.01 and over_robust >= 0.005
    return (
        ok,
        f"sigma=1: [{min(at_one):.3f},{max(at_one):.3f}]; sigma=1.1 k=200: exact={over_exact:.4f}, robust={over_robust:.4f}",
        ">=0.75 at sigma=1; exact<=0.01 and robust>=0.005 at sigma=1.1",
    )


def _mean_and_stderr(out: dict) -> tuple[float, float]:
    """The mean and standard error of one rule's ``accept_weight`` draws."""
    vals = out["accept_weight"]
    return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(vals.size)


# a rule keeps only its accept_weight draws, reduced to their mean and stderr
_ACCEPT_WEIGHT = (("accept_weight",), _mean_and_stderr)


def check_small_instance_oracle(fast: bool = False) -> tuple[bool, str, str]:
    """Monte Carlo agrees with exhaustive enumeration on every small random
    instance and every single-selection rule, within 3 standard errors; the
    hand-checkable two-element case matches to 1e-12."""
    t0 = time.perf_counter()
    iters = _iters(10**6, 10**5, fast)
    hand = exact_expectation_small_n(
        WeightProfile.from_weights([2.0, 1.0]), AlgorithmSpec("exact-gap", tau=0.5), 0.0
    )
    ok = abs(hand - 0.875) <= 1e-12
    worst_z = 0.0
    cells = 0
    for n in (2, 3, 4, 5):
        for rep in range(5):
            rng = np.random.default_rng([ACCEPTANCE_SEED, 8, n, rep])
            prof = WeightProfile.from_weights(rng.uniform(0.1, 10.0, n))
            w1 = float(prof.weights.max())
            tau = float(rng.uniform(0.1, 0.7))
            gamma = float(rng.uniform(0.0, 0.9) * (1.0 - tau))
            eps = float(rng.uniform(0.0, 1.0))
            gap = float(rng.uniform(0.0, 1.2) * w1)
            mc_seed = int(rng.integers(2**63))
            specs = [
                (AlgorithmSpec("classical", tau=tau), 0.0),
                (AlgorithmSpec("strict-classical", tau=tau), 0.0),
                (AlgorithmSpec("exact-gap", tau=tau), gap),
                (AlgorithmSpec("bounded", tau=tau, epsilon=eps), gap),
                (AlgorithmSpec("robust", tau=tau, gamma=gamma), gap),
            ]
            sims = simulate_fixed_profile_rules(prof, specs, iters, mc_seed, _ACCEPT_WEIGHT)
            for (spec, g), (mc, se) in zip(specs, sims):
                exact = exact_expectation_small_n(prof, spec, g)
                cells += 1
                if se == 0.0:
                    ok = ok and abs(mc - exact) <= 1e-12
                else:
                    z = abs(mc - exact) / se
                    worst_z = max(worst_z, z)
                    ok = ok and z <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    return (
        ok,
        f"{cells} cells, worst |z|={worst_z:.2f}, hand={hand:.12f}, {elapsed:.1f}s",
        "all |z| <= 3; hand value 0.875 +- 1e-12; < 2 min",
    )


def check_guarantee_floor_simulation(fast: bool = False) -> tuple[bool, str, str]:
    """Simulated ratios never fall below the proven bound (minus 3 SE) at the
    index-tuned waiting time, on exponential and chi-squared instances."""
    iters = _iters(5000, 1000, fast)
    ok = True
    rows = []
    for tag in ("chi_squared", "exponential"):
        config = _figure_config(tag, iters, AlgorithmSpec("exact-gap", tau=0.2))
        for c in sweep_k(config, (2, 100, 200), tau_policy="from-k", include_baseline=False):
            est = c.estimate
            floor = alpha_exact(c.tau, c.k).alpha
            rows.append(f"{tag[:3]}/k={c.k}:{est.mean:.3f}>={floor:.3f}")
            ok = ok and est.mean >= floor - 3.0 * est.stderr
    return (
        ok,
        "; ".join(rows),
        "mean >= alpha(tau_k, k) - 3 SE for both families, k in {2,100,200}",
    )


def check_bounded_error_guarantee(fast: bool = False) -> tuple[bool, str, str]:
    """Feeding predictions off by +-epsilon still earns alpha*w1 - 2*epsilon
    (within 3 SE) on a fixed instance."""
    iters = _iters(10**5, 20_000, fast)
    rng = np.random.default_rng(42)
    prof = WeightProfile.from_weights(rng.standard_exponential(200))
    w1 = float(prof.weights.max())
    k = 100
    gap = true_gap(prof, k)
    tau = 0.2
    alpha = alpha_exact(tau, k).alpha
    ok = True
    rows = []
    for j, eps in enumerate((0.0, 0.05 * w1, 0.2 * w1)):
        signs = np.random.default_rng([ACCEPTANCE_SEED, 10, j]).integers(0, 2, iters) * 2 - 1
        predicted = np.maximum(gap + signs * eps, 0.0)
        rule = (AlgorithmSpec("bounded", tau=tau, epsilon=eps), predicted)
        seed = ACCEPTANCE_SEED + j
        ((mean, se),) = simulate_fixed_profile_rules(prof, [rule], iters, seed, _ACCEPT_WEIGHT)
        floor = alpha * w1 - 2.0 * eps - 3.0 * se
        rows.append(f"eps={eps:.2f}:{mean:.3f}>={floor:.3f}")
        ok = ok and mean >= floor
    return ok, "; ".join(rows), "E[value] >= alpha*w1 - 2*eps - 3 SE for eps in {0, 0.05, 0.2}*w1"


def check_multi_selection_bound(fast: bool = False) -> tuple[bool, str, str]:
    """Multi-selection ratios beat the closed-form bound (minus 3 SE) on a
    fixed geometric instance for L in {2, 3, 5}."""
    iters = _iters(5000, 1500, fast)
    w = np.array([0.9**i for i in range(1, 51)])
    prof = WeightProfile.from_weights(w)
    ok = True
    rows = []
    for L in (2, 3, 5):
        opt = float(w[:L].sum())
        beta = float(w[L - 1]) / opt
        bound = l_selection_bound(L, beta)
        cfg = ExperimentConfig(
            InstanceFamily("exponential"),
            50,
            iters,
            AlgorithmSpec("l-select", tau=1.0 / math.e, L=L),
            GapSpec(k=2),
            master_seed=ACCEPTANCE_SEED,
        )
        est = estimate_l_selection(cfg, fixed_profile=prof)
        rows.append(f"L={L}:{est.mean:.3f}>={bound:.3f}")
        ok = ok and est.mean >= bound - 3.0 * est.stderr
    return ok, "; ".join(rows), "mean ratio >= bound(L, beta) - 3 SE for L in {2,3,5}"


def check_output_determinism(fast: bool = False) -> tuple[bool, str, str]:
    """Rerunning a command gives a byte-identical CSV, for a single cell and
    for a sweep."""
    import tempfile
    from pathlib import Path

    from . import cli

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = [
            "simulate", "--family", "exp", "--n", "50", "--iters", "400",
            "--algo", "exact-gap", "--tau", "0.2", "--k", "10",
            "--sigma", "1.2", "--seed", "99",
        ]
        a, b, c = tmp / "a.csv", tmp / "b.csv", tmp / "c.csv"
        ok = ok and cli.main(base + ["--out", str(a)]) == 0
        ok = ok and cli.main(base + ["--out", str(b)]) == 0
        ok = ok and cli.main(base + ["--out", str(c)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes() == c.read_bytes()
        sweep = [
            "sweep", "--sweep", "sigma", "--from", "0", "--to", "0.4",
            "--step", "0.2", "--family", "exp", "--n", "40", "--iters", "300",
            "--algo", "robust", "--tau", "0.2", "--gamma", "0.1",
            "--k", "2,10", "--seed", "5",
        ]
        s1, s2 = tmp / "s1.csv", tmp / "s2.csv"
        ok = ok and cli.main(sweep + ["--out", str(s1)]) == 0
        ok = ok and cli.main(sweep + ["--out", str(s2)]) == 0
        ok = ok and s1.read_bytes() == s2.read_bytes()
    return (
        ok,
        "simulate x3 and sweep x2 runs compared byte-for-byte",
        "byte-identical CSV across reruns",
    )


# (suite, check) registry, the one place a check's suite is stated; suite
# membership decides what a partial run covers.
# The checks on the exponential 5000x200 instances run back to back, the one
# reading the smallest tau first (guarantee-floor's tuned taus, down to 0.026,
# with its exponential family last), so the batch memo it leaves holds the
# state every later tau is narrowed from, and the instances are drawn once.
CHECKS = (
    ("bounds", check_alpha_fixed_tau_floor),
    ("bounds", check_alpha_tuned_tau_guarantee),
    ("bounds", check_robust_consistent_point),
    ("bounds", check_two_three_tie_formula),
    ("figures", check_two_three_tie_simulation),
    ("figures", check_pareto_band),
    ("figures", check_guarantee_floor_simulation),
    ("figures", check_exponential_sigma_bands),
    ("figures", check_exponential_gap_beats_classical),
    ("figures", check_superstar_sigma_bands),
    ("oracle", check_small_instance_oracle),
    ("figures", check_bounded_error_guarantee),
    ("figures", check_multi_selection_bound),
    ("figures", check_output_determinism),
)

SUITES = ("bounds", "oracle", "figures", "all")


def run_check(suite: str, check, fast: bool = False) -> CheckResult:
    """Runs one check and times it; the row is named after the function."""
    t0 = time.perf_counter()
    passed, measured, expected = check(fast=fast)
    name = check.__name__.removeprefix("check_").replace("_", "-")
    return CheckResult(name, suite, bool(passed), measured, expected, time.perf_counter() - t0)


def run_checks(suite: str = "all", fast: bool = False) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    return [run_check(s, fn, fast) for s, fn in CHECKS if suite == "all" or s == suite]


def format_results(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{width}}  [{r.suite}]  measured: {r.measured}  "
            f"expected: {r.expected}  ({r.seconds:.1f}s)"
        )
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines)
