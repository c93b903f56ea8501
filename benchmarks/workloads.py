"""The benchmark's four workloads: their operations and the reference each
operation's output is checked against.

An operation (op) is one call into a public entry point of the package; a
pass is the list of ops a workload issues for one (seed, pass index). Ops
run one after another, each after the previous one returned. References
are computed after timing, from code paths independent of the one measured:
the per-draw runners in ``algorithms`` on instances regenerated from their
documented streams, or the enumeration oracle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from gapsecretary import acceptance, algorithms, bounds, cli, core, generators, montecarlo

N = 200
TAU = 0.2

@dataclass
class Output:
    digest: str  # SHA-256 of the op's CSV bytes, or of its result arrays
    value: object  # what the op's check reads
    written: int = 0  # bytes written through the CLI (CSV plus manifest)


@dataclass
class Op:
    name: str
    draws: int  # instances x arrival orders x rule cells
    run: Callable[[Path], Output]
    check: Callable[[object], "str | None"]  # None when the output matches
    known_defect: str | None = None


class Instances:
    """Instances regenerated draw by draw from the stream contract: stream i
    of the master seed draws iteration i's arrival times, then its weights.

    Keeps only the last set, since ops sharing a seed are checked in a row.
    """

    def __init__(self):
        self._key = None
        self._value = None

    def get(self, flag: str, iters: int, seed: int):
        key = (flag, iters, seed)
        if key != self._key:
            self._key = self._value = None
            family = generators.InstanceFamily(cli.FAMILY_BY_FLAG[flag])
            seeds = generators.SeededRng(seed)
            value = []
            for i in range(iters):
                rng = seeds.stream(i)
                times = rng.random(N)
                value.append((family.generate(N, rng), core.ArrivalDraw(times)))
            self._key, self._value = key, value
        return self._value


def _pass_rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


# ---------------------------------------------------------------------------
# CLI ops and the CSV rows they write


def _cli_op(name, argv, draws, check, known_defect=None) -> Op:
    def run(workdir: Path) -> Output:
        out = workdir / "op.csv"
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        data = out.read_bytes()
        written = len(data) + out.with_name(out.name + ".manifest.json").stat().st_size
        return Output(hashlib.sha256(data).hexdigest(), data, written)

    return Op(name, draws, run, check, known_defect)


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _compare(row: dict, expect: dict, ratios, best, none) -> str | None:
    """Checks one CSV row against per-draw reference outcomes."""
    for key, value in expect.items():
        if row[key] != str(value):
            return f"{key}={row[key]!r}, expected {value!r}"
    iters = len(ratios)
    mean = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1)) / math.sqrt(iters)
    got = float(row["ratio_mean"])
    if not math.isclose(got, mean, rel_tol=1e-9, abs_tol=1e-12):
        return f"ratio_mean {got!r}, reference {mean!r}"
    got = float(row["ratio_stderr"])
    if not math.isclose(got, stderr, rel_tol=1e-6, abs_tol=1e-12):
        return f"ratio_stderr {got!r}, reference {stderr!r}"
    for key, flags in (("select_best_prob", best), ("none_prob", none)):
        if round(float(row[key]) * iters) != sum(flags):
            return f"{key} {row[key]}, reference {sum(flags)}/{iters}"
    return None


class Rule(NamedTuple):
    algo: str
    k: int | None = None
    sigma: float = 1.0
    gamma: float = 0.0
    epsilon: float = 0.0

    def flags(self) -> list[str]:
        out = ["--algo", self.algo, "--tau", str(TAU)]
        if self.k is not None:
            out += ["--k", str(self.k), "--sigma", str(self.sigma)]
        if self.gamma:
            out += ["--gamma", str(self.gamma)]
        if self.epsilon:
            out += ["--epsilon", str(self.epsilon)]
        return out

    def reference(self, instances):
        """Per-draw ratio, select-best and none flags from the scalar runners."""
        schedule = algorithms.PolicySchedule(TAU, self.gamma)
        ratios, best, none = [], [], []
        for prof, arrivals in instances:
            c = self.sigma * core.true_gap(prof, self.k) if self.k is not None else 0.0
            if self.algo == "classical":
                out = algorithms.run_classical(prof, arrivals, TAU)
            elif self.algo == "strict-classical":
                out = algorithms.run_strict_classical(prof, arrivals, TAU)
            elif self.algo == "exact-gap":
                out = algorithms.run_exact_gap(prof, arrivals, TAU, c)
            elif self.algo == "robust":
                out = algorithms.run_robust_consistent(prof, arrivals, schedule, c)
            else:
                out = algorithms.run_bounded_error(prof, arrivals, TAU, c, self.epsilon)
            top = prof.sorted_index(1)
            ratios.append(out.accepted_weight / prof.weight(top))
            best.append(out.accepted_index == top)
            none.append(not out.accepted)
        return ratios, best, none


# ---------------------------------------------------------------------------
# cells: 4 families x 5 single-selection rules through `simulate`


CELL_FAMILIES = ("pareto", "exp", "chisq", "exp-superstar")
CELL_RULES = (
    Rule("classical"),
    Rule("strict-classical"),
    Rule("exact-gap", k=100),
    Rule("robust", k=100, gamma=0.05),
    Rule("bounded", k=100, epsilon=0.05),
)


def cells_ops(seed, pass_index, instances, scale=1.0) -> list[Op]:
    iters = int(5000 * scale)
    family_seeds = _pass_rng(seed, pass_index).integers(2**31, size=len(CELL_FAMILIES))
    ops = []
    for flag, fseed in zip(CELL_FAMILIES, family_seeds.tolist()):
        for rule in CELL_RULES:
            argv = ["simulate", "--family", flag, "--n", str(N), "--iters", str(iters),
                    *rule.flags(), "--seed", str(fseed)]

            def check(data, flag=flag, fseed=fseed, rule=rule):
                rows = _rows(data)
                if len(rows) != 1:
                    return f"{len(rows)} rows, expected 1"
                expect = {"family": flag, "algo": rule.algo, "n": N, "iters": iters, "seed": fseed}
                return _compare(rows[0], expect, *rule.reference(instances.get(flag, iters, fseed)))

            ops.append(_cli_op(f"p{pass_index}/{flag}/{rule.algo}", argv, iters, check))
    return ops


# ---------------------------------------------------------------------------
# sweep: the README's sigma sweep, 31 sigmas x 3 gap indices on one batch


SWEEP_KS = (2, 100, 200)
SWEEP_SIGMAS = 31  # 0, 0.1, ..., 3.0
SWEEP_RULE_GAMMA = 0.05


def sweep_ops(seed, pass_index, instances, scale=1.0) -> list[Op]:
    iters = int(5000 * scale)
    rng = _pass_rng(seed, pass_index)
    sseed = int(rng.integers(2**31))
    # rows recomputed draw by draw: sigma = 0 of the first k, one nonzero sigma per k
    sampled = [(SWEEP_KS[0], 0)] + [(k, int(rng.integers(1, SWEEP_SIGMAS))) for k in SWEEP_KS]
    argv = ["sweep", "--sweep", "sigma", "--from", "0", "--to", "3", "--step", "0.1",
            "--family", "exp", "--n", str(N), "--iters", str(iters), "--algo", "robust",
            "--tau", str(TAU), "--gamma", str(SWEEP_RULE_GAMMA),
            "--k", ",".join(map(str, SWEEP_KS)), "--seed", str(sseed)]

    def check(data):
        rows = _rows(data)
        if len(rows) != len(SWEEP_KS) * SWEEP_SIGMAS:
            return f"{len(rows)} rows, expected {len(SWEEP_KS) * SWEEP_SIGMAS}"
        expect = {"family": "exp", "algo": "robust", "n": N, "iters": iters, "seed": sseed}
        for i, row in enumerate(rows):
            k, j = SWEEP_KS[i // SWEEP_SIGMAS], i % SWEEP_SIGMAS
            if row["k"] != str(k) or abs(float(row["sigma"]) - 0.1 * j) > 1e-9:
                return f"row {i} is (k={row['k']}, sigma={row['sigma']}), expected ({k}, {0.1 * j:.1f})"
            if any(row[key] != str(value) for key, value in expect.items()):
                return f"row {i} does not name the swept cell {expect}"
        # a zero prediction ignores k, so the sigma = 0 rows agree in every estimate
        zero = [{**rows[i * SWEEP_SIGMAS], "k": ""} for i in range(len(SWEEP_KS))]
        if any(z != zero[0] for z in zero):
            return "sigma = 0 rows differ across k"
        insts = instances.get("exp", iters, sseed)
        for k, j in sampled:
            row = rows[SWEEP_KS.index(k) * SWEEP_SIGMAS + j]
            rule = Rule("robust", k=k, sigma=float(row["sigma"]), gamma=SWEEP_RULE_GAMMA)
            reason = _compare(row, {}, *rule.reference(insts))
            if reason:
                return f"k={k}, sigma={row['sigma']}: {reason}"
        return None

    draws = iters * len(SWEEP_KS) * SWEEP_SIGMAS
    return [_cli_op(f"p{pass_index}/sweep", argv, draws, check)]


# ---------------------------------------------------------------------------
# lselect: the multi-selection rule through `simulate --algo l-select`


LSELECT_CELLS = (("exp", 2), ("chisq", 2), ("exp", 5), ("chisq", 5))
LSELECT_GAP_VALUE = 2.0  # absolute predicted gap, in raw weight units
ABSOLUTE_GAP_DEFECT = (
    "l-select on generated instances uses an absolute gap as if it were already "
    "normalized (ROADMAP defect list)"
)


def _lselect_reference(instances, L, absolute=None):
    """Per-draw outcomes of run_l_selection_gap on the raw instance, with the
    gap in raw units: sigma = 1 times (L-th minus (L+1)-th largest weight),
    or the absolute value."""
    ratios, best, none = [], [], []
    for prof, arrivals in instances:
        w = np.sort(prof.weights)[::-1]
        gap = float(w[L - 1] - w[L]) if absolute is None else absolute
        out = algorithms.run_l_selection_gap(prof, arrivals, TAU, gap, L)
        ratios.append(out.total_weight / float(np.sum(w[:L])))
        best.append(prof.sorted_index(1) in out.indices)
        none.append(not out.accepted)
    return ratios, best, none


def lselect_ops(seed, pass_index, instances, scale=1.0) -> list[Op]:
    iters = int(2000 * scale)
    cells = [(flag, L, None) for flag, L in LSELECT_CELLS] + [("exp", 2, LSELECT_GAP_VALUE)]
    op_seeds = _pass_rng(seed, pass_index).integers(2**31, size=len(cells)).tolist()
    ops = []
    for (flag, L, absolute), oseed in zip(cells, op_seeds):
        argv = ["simulate", "--family", flag, "--n", str(N), "--iters", str(iters),
                "--algo", "l-select", "--L", str(L), "--tau", str(TAU), "--seed", str(oseed)]
        if absolute is not None:
            argv += ["--gap-value", str(absolute)]

        def check(data, flag=flag, L=L, absolute=absolute, oseed=oseed):
            rows = _rows(data)
            if len(rows) != 1:
                return f"{len(rows)} rows, expected 1"
            expect = {"family": flag, "algo": "l-select", "L": L, "iters": iters, "seed": oseed}
            insts = instances.get(flag, iters, oseed)
            return _compare(rows[0], expect, *_lselect_reference(insts, L, absolute))

        name = f"p{pass_index}/{flag}/L{L}" + ("/gap-value" if absolute is not None else "")
        defect = ABSOLUTE_GAP_DEFECT if absolute is not None else None
        ops.append(_cli_op(name, argv, iters, check, defect))
    return ops


# ---------------------------------------------------------------------------
# gate: fixed-profile Monte Carlo against enumeration, plus bounds and frontier


GATE_NS = (2, 3, 4, 5)
GATE_PROFILES = 5
GATE_DRAWS = 200_000
GATE_MAX_Z = 5.0  # this benchmark's per-op bound; the acceptance gate keeps 3 SE
FRONTIER_TARGETS = [0.05 * i for i in range(7)]  # `frontier` CLI defaults
FRONTIER_ZERO_ENDPOINT = 0.438245


def _oracle_op(name, prof, spec, gap, draws, mc_seed) -> Op:
    def run(workdir: Path) -> Output:
        sim = montecarlo.simulate_fixed_profile(prof, spec, draws, mc_seed, gap_values=gap)
        exact = montecarlo.exact_expectation_small_n(prof, spec, gap)
        vals = sim["accept_weight"]
        h = hashlib.sha256(sim["accept_index"].tobytes())
        h.update(vals.tobytes())
        se = float(vals.std(ddof=1)) / math.sqrt(draws)
        return Output(h.hexdigest(), (float(vals.mean()), se, exact))

    def check(value):
        mean, se, exact = value
        if se == 0.0:
            return None if abs(mean - exact) <= 1e-12 else f"mean {mean!r} != exact {exact!r}"
        z = abs(mean - exact) / se
        return None if z <= GATE_MAX_Z else f"|z| = {z:.2f} > {GATE_MAX_Z}"

    return Op(name, draws, run, check)


def _bounds_op(name) -> Op:
    def run(workdir: Path) -> Output:
        results = acceptance.run_checks("bounds")
        # `measured` carries run times, so the digest covers the verdicts only
        verdicts = [(r.name, r.passed, r.expected) for r in results]
        digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
        return Output(digest, [r.name for r in results if not r.passed])

    return Op(name, 0, run, lambda failing: f"failing: {failing}" if failing else None)


def _frontier_op(name) -> Op:
    def run(workdir: Path) -> Output:
        points = bounds.frontier(FRONTIER_TARGETS)
        return Output(hashlib.sha256(repr(points).encode()).hexdigest(), points[0])

    def check(zero):
        if zero.robustness_target != 0.0 or not zero.feasible:
            return f"first point {zero} is not the feasible zero-robustness endpoint"
        if abs(zero.consistency - FRONTIER_ZERO_ENDPOINT) > 5e-7:
            return f"zero-robustness consistency {zero.consistency!r}, expected {FRONTIER_ZERO_ENDPOINT}"
        return None

    return Op(name, 0, run, check)


def gate_ops(seed, pass_index, instances, scale=1.0) -> list[Op]:
    draws = int(GATE_DRAWS * scale)
    ops = []
    for n in GATE_NS:
        for rep in range(GATE_PROFILES):
            # the shape of the acceptance oracle check, drawn from this seed
            rng = np.random.default_rng([seed, pass_index, n, rep])
            prof = core.WeightProfile.from_weights(rng.uniform(0.1, 10.0, n))
            w1 = float(prof.weights.max())
            tau = float(rng.uniform(0.1, 0.7))
            gamma = float(rng.uniform(0.0, 0.9) * (1.0 - tau))
            eps = float(rng.uniform(0.0, 1.0))
            gap = float(rng.uniform(0.0, 1.2) * w1)
            mc_seed = int(rng.integers(2**63))
            specs = [
                (montecarlo.AlgorithmSpec("classical", tau=tau), 0.0),
                (montecarlo.AlgorithmSpec("strict-classical", tau=tau), 0.0),
                (montecarlo.AlgorithmSpec("exact-gap", tau=tau), gap),
                (montecarlo.AlgorithmSpec("bounded", tau=tau, epsilon=eps), gap),
                (montecarlo.AlgorithmSpec("robust", tau=tau, gamma=gamma), gap),
            ]
            for spec, g in specs:
                name = f"p{pass_index}/n{n}/r{rep}/{spec.tag}"
                ops.append(_oracle_op(name, prof, spec, g, draws, mc_seed))
    ops.append(_bounds_op(f"p{pass_index}/bounds-checks"))
    ops.append(_frontier_op(f"p{pass_index}/frontier"))
    return ops


WORKLOADS = {"cells": cells_ops, "sweep": sweep_ops, "lselect": lselect_ops, "gate": gate_ops}

# one pass's op time on the 2-core reference machine; a run makes
# max(1, round(seconds / NOMINAL_PASS_S)) passes, so the work a run measures is
# fixed by its arguments and equal on every commit compared
NOMINAL_PASS_S = {"cells": 10.0, "sweep": 8.0, "lselect": 4.0, "gate": 9.0}

WARM_UP_SCALE = 0.04  # warm-up ops make 4% of the draws of the measured ones


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def warm_up_ops(workload: str) -> list[Op]:
    """Pass 0 of seed 0, scaled down: run before timing so that imports and
    lazy set-up are done."""
    return WORKLOADS[workload](0, 0, Instances(), WARM_UP_SCALE)
