"""Command-line front door: simulations, sweeps, bound evaluation, frontier
search, and the verification suite.

Exit codes: 0 success, 1 internal failure, 2 usage or validation failure.
Every file written is accompanied by a ``<file>.manifest.json`` whose argv
replays the run byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    alpha_exact,
    consistency,
    frontier,
    guarantee_bounded_error,
    guarantee_exact_gap,
    l_selection_bound,
    robustness,
    tau_for_k,
    two_three_tie_prob,
)
from .generators import InstanceFamily, load_profiles, save_profiles, stream_seeding
from .montecarlo import (
    GAP_TAGS,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    GapSpec,
    RatioEstimate,
    _resolve_tau,
    batch_ratio_for_profiles,
    estimate_ratio,
    regenerate_profiles,
    sweep_k,
    sweep_sigma,
)

CSV_COLUMNS = (
    "family,algo,n,iters,k,tau,gamma,sigma,epsilon,L,seed,"
    "ratio_mean,ratio_stderr,select_best_prob,none_prob"
).split(",")

FAMILY_BY_FLAG = {
    "pareto": "pareto_power",
    "exp": "exponential",
    "chisq": "chi_squared",
    "exp-superstar": "exp_superstar",
}
FLAG_BY_FAMILY = {tag: flag for flag, tag in FAMILY_BY_FLAG.items()}

SEED_ENV_VAR = "GAPSECRETARY_SEED"


class UsageError(Exception):
    """Flag combination violating a documented precondition."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    return int(raw) if raw else 0


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: str | None, header, rows, manifest: dict | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
        return
    Path(path).write_text(text, encoding="utf-8")
    if manifest is not None:
        manifest_path = Path(str(path) + ".manifest.json")
        manifest_path.write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


# read once at import: ``platform`` caches its first parse, and that
# long-lived allocation, made mid-run between batch arrays, raised the peak
# RSS of a 20-cell benchmark run by 5 MB
_PYTHON_VERSION = platform.python_version()


def _manifest(command: str, args, out: str) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "argv": list(args.raw_argv),
        "master_seed": args.seed,
        "output": str(out),
        "python": _PYTHON_VERSION,
        "numpy": np.__version__,
        "streams": stream_seeding(),
    }


def replay_manifest(path) -> int:
    """Re-run the command recorded in a manifest file."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    return main(list(manifest["argv"]))


# ---------------------------------------------------------------------------
# Shared flag handling


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILY_BY_FLAG), help="instance family")
    p.add_argument("--n", type=int, default=200, help="elements per instance")
    p.add_argument("--iters", type=int, default=5000, help="Monte Carlo iterations")
    p.add_argument(
        "--algo",
        required=True,
        choices=["classical", "exact-gap", "robust", "bounded", "strict-classical", "l-select"],
    )
    p.add_argument("--tau", type=float, default=0.2, help="waiting time in [0, 1)")
    p.add_argument(
        "--tau-policy",
        choices=["fixed", "min", "from-k"],
        default="fixed",
        help="'from-k' uses the index-tuned waiting time 1 - (1/(k+1))^(1/k); "
        "'min' caps tau at it when k is known",
    )
    p.add_argument(
        "--tau-from-k",
        dest="tau_policy",
        action="store_const",
        const="from-k",
        help="alias for --tau-policy from-k",
    )
    p.add_argument("--gamma", type=float, default=0.0, help="late-phase length (robust)")
    p.add_argument("--epsilon", type=float, default=0.0, help="error bound (bounded)")
    p.add_argument("--k", default="unknown", help="gap index (integer) or 'unknown'")
    p.add_argument("--sigma", type=float, default=1.0, help="prediction scale on the true gap")
    p.add_argument("--gap-value", type=float, default=None, help="absolute predicted gap")
    p.add_argument("--L", type=int, default=2, help="selection budget (l-select)")
    p.add_argument("--df", type=int, default=10, help="chi-squared degrees of freedom")
    p.add_argument("--superstar-factor", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=None, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="ignored: the engine runs in one thread; kept so recorded manifests replay",
    )
    p.add_argument("--out", default=None, help="CSV output path (stdout when omitted)")


def _thread_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return value


def _parse_k(raw) -> int | None:
    if raw is None or str(raw).lower() == "unknown":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError("k must be an integer or 'unknown'") from exc


def _parse_k_list(raw) -> list[int]:
    try:
        return [int(tok) for tok in str(raw).split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError("k must be a comma-separated list of integers for sweeps") from exc


def _resolve_seed(args) -> None:
    if args.seed is None:
        args.seed = _default_seed()


def _family(args) -> InstanceFamily:
    if args.family is None:
        raise UsageError("--family is required (or supply --profiles-file)")
    return InstanceFamily(
        FAMILY_BY_FLAG[args.family], df=args.df, factor=args.superstar_factor
    )


def _algorithm(args, tau: float) -> AlgorithmSpec:
    return AlgorithmSpec(
        args.algo, tau=tau, gamma=args.gamma, epsilon=args.epsilon, L=args.L
    )


def _gap(args, k: int | None) -> GapSpec:
    if args.gap_value is not None:
        return GapSpec(k=k, sigma=1.0, absolute=args.gap_value)
    return GapSpec(k=k, sigma=args.sigma)


def _estimate_row(args, est: RatioEstimate, tag: str, tau: float, k, sigma, family_name) -> list:
    """One CSV row. gamma, epsilon and L come from the flags and are written
    only for the rule that uses them, so a classical baseline row leaves them
    empty."""
    uses_gap = tag in GAP_TAGS
    # the gap index is meaningless to l-select (its gap is index-free)
    uses_k = uses_gap and tag != "l-select"
    return [
        family_name,
        tag,
        args.n,
        est.iterations,
        k if uses_k and k is not None else "",
        float(tau),
        float(args.gamma) if tag == "robust" else "",
        float(sigma) if (uses_gap and sigma != "") else "",
        float(args.epsilon) if tag == "bounded" else "",
        int(args.L) if tag == "l-select" else "",
        args.seed,
        est.mean,
        est.stderr,
        est.select_best_prob,
        est.none_prob,
    ]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    _resolve_seed(args)
    k = _parse_k(args.k)
    algo = _algorithm(args, _resolve_tau(args.tau, k, args.tau_policy))
    gap = _gap(args, k)

    if args.profiles_file is not None:
        profiles, meta = load_profiles(args.profiles_file)
        sizes = {p.n for p in profiles}
        if len(sizes) != 1:
            raise UsageError("profiles file must contain instances of one size")
        args.n = sizes.pop()
        if args.iters > len(profiles):
            raise UsageError(
                f"profiles file provides {len(profiles)} instances, fewer than --iters"
            )
        est = batch_ratio_for_profiles(profiles[: args.iters], algo, gap, args.seed)
        # the dump header names the family by tag; the CSV names it by flag
        family_name = meta.get("family", "file")
        family_name = FLAG_BY_FAMILY.get(family_name, family_name)
    else:
        family = _family(args)
        config = ExperimentConfig(family, args.n, args.iters, algo, gap, master_seed=args.seed)
        est = estimate_ratio(config)
        family_name = args.family
        if args.dump_profiles is not None:
            dumped = regenerate_profiles(family, args.n, args.iters, args.seed)
            save_profiles(args.dump_profiles, dumped, family.tag, args.seed)

    sigma = args.sigma if args.gap_value is None else ""
    row = _estimate_row(args, est, algo.tag, algo.tau, k, sigma, family_name)
    _write_rows(args.out, CSV_COLUMNS, [row], _manifest("simulate", args, args.out) if args.out else None)
    return 0


def cmd_sweep(args) -> int:
    _resolve_seed(args)
    bounds = (args.sweep_from, args.sweep_to, args.step)
    if args.step is None or args.step <= 0:
        raise UsageError("step must be positive")
    if not all(math.isfinite(v) for v in bounds):
        raise UsageError("--from, --to and --step must be finite")
    if args.sweep_to < args.sweep_from:
        raise UsageError("--to must be at least --from")
    family = _family(args)

    if args.sweep == "k":
        if not all(float(v).is_integer() for v in bounds):
            raise UsageError("k sweeps need integer --from, --to and --step")
        if args.sweep_from < 2:
            raise UsageError("k sweep must start at 2 or above")
        ks = list(range(int(args.sweep_from), int(args.sweep_to) + 1, int(args.step)))
        algo = _algorithm(args, args.tau)
        gap = _gap(args, ks[0])
        config = ExperimentConfig(family, args.n, args.iters, algo, gap, master_seed=args.seed)
        cells = sweep_k(config, ks, tau_policy=args.tau_policy)
    else:
        count = int(round((args.sweep_to - args.sweep_from) / args.step))
        sigmas = [args.sweep_from + i * args.step for i in range(count + 1)]
        sigmas = [s for s in sigmas if s <= args.sweep_to + 1e-12]
        ks = _parse_k_list(args.k)
        if not ks:
            raise UsageError("sigma sweeps need --k as a comma-separated list of indices")
        algo = _algorithm(args, args.tau)
        gap = _gap(args, ks[0])
        config = ExperimentConfig(family, args.n, args.iters, algo, gap, master_seed=args.seed)
        cells = sweep_sigma(config, sigmas, ks, tau_policy=args.tau_policy)

    rows = [
        _estimate_row(args, c.estimate, c.algo, c.tau, c.k, c.sigma, args.family) for c in cells
    ]
    _write_rows(args.out, CSV_COLUMNS, rows, _manifest("sweep", args, args.out) if args.out else None)
    return 0


def cmd_bounds(args) -> int:
    which = args.which
    if which == "exact":
        k = _parse_k(args.k)
        if k is None:
            raise UsageError("--which exact needs an integer --k")
        report = alpha_exact(args.tau, k)
        payload = {
            "which": "exact",
            "tau": args.tau,
            "k": k,
            "tuned_tau": tau_for_k(k),
            "stated_guarantee": guarantee_exact_gap(k),
            **report.as_dict(),
        }
    elif which == "rc":
        agg = "worst-case" if _parse_k(args.k) is None else _parse_k(args.k)
        report = consistency(args.tau, args.gamma, agg)
        payload = {
            "which": "rc",
            "tau": args.tau,
            "gamma": args.gamma,
            "k_aggregation": agg,
            "consistency": report.as_dict(),
            "robustness": robustness(args.tau, args.gamma),
        }
    elif which == "bounded":
        k = _parse_k(args.k)
        if k is None:
            raise UsageError("--which bounded needs an integer --k")
        report = guarantee_bounded_error(args.tau, k)
        payload = {"which": "bounded", "tau": args.tau, "k": k, **report.as_dict()}
        if args.epsilon:
            payload["epsilon"] = args.epsilon
            payload["additive_loss"] = 2.0 * args.epsilon
    elif which == "tie23":
        payload = {
            "which": "tie23",
            "tau": args.tau,
            "value": two_three_tie_prob(args.tau),
        }
        if args.n is not None:
            payload["exact_value_at_n"] = two_three_tie_prob(args.tau, n=args.n)
            payload["n"] = args.n
    else:  # lselect
        if args.beta is None:
            raise UsageError("--which lselect needs --beta")
        payload = {
            "which": "lselect",
            "L": args.L,
            "beta": args.beta,
            "value": l_selection_bound(args.L, args.beta),
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_frontier(args) -> int:
    _resolve_seed(args)
    if args.r_step <= 0:
        raise UsageError("r-step must be positive")
    if args.r_to < args.r_from:
        raise UsageError("r-to must be at least r-from")
    count = int(round((args.r_to - args.r_from) / args.r_step))
    targets = [args.r_from + i * args.r_step for i in range(count + 1)]
    agg = "worst-case" if _parse_k(args.k_aggregation) is None else _parse_k(args.k_aggregation)
    points = frontier(targets, grid_step=args.grid_step, k_aggregation=agg)
    header = ["robustness_target", "tau", "gamma", "consistency", "robustness", "feasible", "k_aggregation"]
    rows = []
    for pt in points:
        rows.append(
            [
                pt.robustness_target,
                pt.tau if pt.feasible else "",
                pt.gamma if pt.feasible else "",
                pt.consistency if pt.feasible else "",
                robustness(pt.tau, pt.gamma) if pt.feasible else "",
                pt.feasible,
                agg,
            ]
        )
    _write_rows(args.out, header, rows, _manifest("frontier", args, args.out) if args.out else None)
    return 0


def cmd_verify(args) -> int:
    from .acceptance import format_results, run_checks

    results = run_checks(suite=args.suite, fast=args.fast)
    print(format_results(results))
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_replay(args) -> int:
    return replay_manifest(args.manifest)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsecretary",
        description="Secretary-problem algorithms with predicted additive gaps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one Monte Carlo cell")
    _add_common_flags(p_sim)
    p_sim.add_argument("--profiles-file", default=None, help="replay instances from a file")
    p_sim.add_argument("--dump-profiles", default=None, help="write generated instances to a replay file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid of Monte Carlo cells")
    p_sweep.add_argument("--sweep", choices=["k", "sigma"], required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="evaluate a guarantee formula")
    p_bounds.add_argument("--which", choices=["exact", "rc", "bounded", "tie23", "lselect"], required=True)
    p_bounds.add_argument("--tau", type=float, default=0.2)
    p_bounds.add_argument("--gamma", type=float, default=0.0)
    p_bounds.add_argument("--epsilon", type=float, default=0.0)
    p_bounds.add_argument("--k", default=None, help="gap index or 'unknown' (worst-case for rc)")
    p_bounds.add_argument("--L", type=int, default=2)
    p_bounds.add_argument("--beta", type=float, default=None)
    p_bounds.add_argument("--n", type=int, default=None, help="exact finite-n mode for tie23")
    p_bounds.set_defaults(func=cmd_bounds)

    p_frontier = sub.add_parser("frontier", help="robustness-consistency frontier")
    p_frontier.add_argument("--r-from", type=float, default=0.0)
    p_frontier.add_argument("--r-to", type=float, default=0.3)
    p_frontier.add_argument("--r-step", type=float, default=0.05)
    p_frontier.add_argument("--grid-step", type=float, default=0.001)
    p_frontier.add_argument("--k-aggregation", default=None, help="gap index or worst-case")
    p_frontier.add_argument("--seed", type=int, default=None)
    p_frontier.add_argument("--out", default=None)
    p_frontier.set_defaults(func=cmd_frontier)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--suite", choices=["bounds", "oracle", "figures", "all"], default="all")
    p_verify.add_argument("--fast", action="store_true", help="reduced iteration counts")
    p_verify.set_defaults(func=cmd_verify)

    p_replay = sub.add_parser("replay", help="re-run a recorded manifest")
    p_replay.add_argument("manifest")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    args.raw_argv = argv
    try:
        return args.func(args)
    except (UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
