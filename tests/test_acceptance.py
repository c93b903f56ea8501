"""Acceptance gate: runs every registered check at full scale and prints one
pass/fail line per check."""

import tracemalloc

import pytest

import engine
from gapsecretary import acceptance
from gapsecretary.acceptance import (
    CHECKS,
    check_alpha_fixed_tau_floor,
    check_exponential_gap_beats_classical,
    check_small_instance_oracle,
    run_check,
    run_checks,
)


@pytest.mark.parametrize(
    "suite,check", CHECKS, ids=[fn.__name__.removeprefix("check_") for _, fn in CHECKS]
)
def test_acceptance(suite, check, capsys):
    result = run_check(suite, check)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(
            f"\n{status}  {result.name} [{result.suite}]  "
            f"measured: {result.measured}  expected: {result.expected}  "
            f"({result.seconds:.1f}s)"
        )
    assert result.passed, (
        f"{result.name}: measured {result.measured}, expected {result.expected}"
    )


def test_check_names_and_suites(monkeypatch):
    # names come from the function names, and `verify --json` and the gate
    # benchmark's verdict digest carry them, so a rename must fail here
    def named(fn):
        def stub(fast):
            return True, "", ""

        stub.__name__ = fn.__name__
        return stub

    monkeypatch.setattr(acceptance, "CHECKS", tuple((s, named(fn)) for s, fn in CHECKS))
    assert [(r.name, r.suite) for r in run_checks("all")] == [
        ("alpha-fixed-tau-floor", "bounds"),
        ("alpha-tuned-tau-guarantee", "bounds"),
        ("robust-consistent-point", "bounds"),
        ("two-three-tie-formula", "bounds"),
        ("two-three-tie-simulation", "figures"),
        ("pareto-band", "figures"),
        ("guarantee-floor-simulation", "figures"),
        ("exponential-sigma-bands", "figures"),
        ("exponential-gap-beats-classical", "figures"),
        ("superstar-sigma-bands", "figures"),
        ("small-instance-oracle", "oracle"),
        ("bounded-error-guarantee", "figures"),
        ("multi-selection-bound", "figures"),
        ("output-determinism", "figures"),
    ]


def test_exponential_batch_drawn_once(draws):
    # the exact-gap and robust sweeps run on the same exponential instances
    engine.clear_memo()
    assert check_exponential_gap_beats_classical(fast=True)[0]
    assert [(c[0].tag, c[1], len(c[2])) for c in draws] == [("exponential", 200, 1000)]


def test_figure_suite_draws_the_exponential_batch_once(draws):
    # every figure check on the exponential 5000x200 instances (1000 rows in
    # fast mode) runs before any other draw replaces the batch memo
    engine.clear_memo()
    run_checks("figures", fast=True)
    drawn = [(c[0].tag, c[1], len(c[2])) for c in draws]
    assert drawn.count(("exponential", 200, 1000)) == 1, drawn


def test_alpha_scan_traced_memory():
    # the scan over 10^6 gap indices at once took 45.8 MiB; blocks of
    # bounds.BLOCK_POINTS indices keep it under 8 MiB (numpy reports its
    # array allocations to tracemalloc)
    tracemalloc.start()
    try:
        assert check_alpha_fixed_tau_floor()[0]
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 8.0


def test_small_instance_oracle_traced_memory():
    # each rule keeps its accept_weight draws alone and is reduced to their
    # mean and stderr: 10.5 MiB at 10^5 draws per profile, where every
    # field of every rule, kept for two profiles at once, took 67.6 MiB
    tracemalloc.start()
    try:
        assert check_small_instance_oracle(fast=True)[0]
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 24.0
