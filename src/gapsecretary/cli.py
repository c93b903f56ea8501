"""Command-line front door: simulations, sweeps, bound evaluation, frontier
search, and the verification suite.

Exit codes: 0 success, 1 internal failure or a failed ``verify`` check, 2
usage or validation failure, or a file named on the command line that
cannot be read or written.
Every file written is accompanied by a ``<file>.manifest.json`` whose argv
replays the run byte-for-byte. It also records the command, the master
seed, the output path, the package, python and numpy versions, and which
stream seeding ran (``generators.stream_seeding``); ``replay`` reads the
argv alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
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
    ALGORITHM_TAGS,
    _READS,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    GapSpec,
    RatioEstimate,
    _check_run,
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

# elements per instance when neither --n nor a profiles file gives the size
DEFAULT_N = 200

# the most values a sigma sweep or frontier range may give, one row each
MAX_RANGE_ROWS = 100_000


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


# read once at import: ``platform`` caches its first parse, and that
# long-lived allocation, made mid-run between batch arrays, raised the peak
# RSS of a 20-cell benchmark run by 5 MB
_PYTHON_VERSION = platform.python_version()


def _write_rows(args, header, rows) -> None:
    """Writes the CSV to stdout, or to ``--out`` with a manifest beside it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text, encoding="utf-8")
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "argv": list(args.raw_argv),
        "master_seed": getattr(args, "seed", None),
        "output": str(args.out),
        "python": _PYTHON_VERSION,
        "numpy": np.__version__,
        "streams": stream_seeding(),
    }
    Path(str(args.out) + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def replay_manifest(path) -> int:
    """Re-run the command recorded in a manifest file. Its argv must be a
    list of strings naming one of the commands that write manifests."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (
        isinstance(argv, list)
        and all(isinstance(a, str) for a in argv)
        and argv
        and argv[0] in ("simulate", "sweep", "frontier")
    ):
        raise ConfigError(
            f"{path}: argv must be a list of strings starting with simulate, sweep or frontier"
        )
    return main(argv)


# ---------------------------------------------------------------------------
# Shared flag handling


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILY_BY_FLAG), help="instance family")
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help=f"elements per instance (default {DEFAULT_N}, or the profiles file's size)",
    )
    p.add_argument("--iters", type=int, default=5000, help="Monte Carlo iterations")
    p.add_argument("--algo", required=True, choices=ALGORITHM_TAGS)
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
    p.add_argument("--out", default=None, help="CSV output path (stdout when omitted)")


def _parse_k(raw) -> int | None:
    if raw is None or str(raw).lower() == "unknown":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError("k must be an integer or 'unknown'") from exc


def _aggregation(raw) -> int | str:
    """The k aggregation of a guarantee: a gap index, or the worst case when
    the index is unknown."""
    if raw is not None and str(raw).lower() == "worst-case":
        return "worst-case"
    k = _parse_k(raw)
    return "worst-case" if k is None else k


def _parse_k_list(raw) -> list[int | None]:
    """A sigma sweep's gap indices; ``[None]`` for a gap that reads no index."""
    if str(raw).lower() == "unknown":
        return [None]
    try:
        return [int(tok) for tok in str(raw).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError("k must be a comma-separated list of integers for sweeps") from exc


def _check_range(lo: float, hi: float, step: float, flags: tuple[str, str, str]) -> None:
    """Usage error, naming ``flags`` (the three range flags), unless the
    values are finite, the step is positive and hi is at least lo."""
    lo_flag, hi_flag, step_flag = flags
    if step <= 0:
        raise ConfigError(f"{step_flag} must be positive")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError(f"{lo_flag}, {hi_flag} and {step_flag} must be finite")
    if hi < lo:
        raise ConfigError(f"{hi_flag} must be at least {lo_flag}")


def _stepped(lo: float, hi: float, step: float, flags: tuple[str, str, str]) -> list[float]:
    """lo, lo + step, ... up to ``hi`` (with 1e-12 for rounding), after
    ``_check_range``. More than ``MAX_RANGE_ROWS`` values, or a count that
    overflows, is a usage error naming ``flags``."""
    _check_range(lo, hi, step, flags)
    steps = (hi - lo) / step
    rows = round(steps) + 1 if math.isfinite(steps) else math.inf
    if rows > MAX_RANGE_ROWS:
        lo_flag, hi_flag, step_flag = flags
        raise ConfigError(
            f"{lo_flag}, {hi_flag} and {step_flag} give more than {MAX_RANGE_ROWS} rows"
        )
    return [v for v in (lo + i * step for i in range(rows)) if v <= hi + 1e-12]


def _family(args) -> InstanceFamily:
    if args.family is None:
        raise ConfigError("--family is required (or supply --profiles-file)")
    return InstanceFamily(
        FAMILY_BY_FLAG[args.family], df=args.df, factor=args.superstar_factor
    )


def _algorithm(args, tau: float) -> AlgorithmSpec:
    return AlgorithmSpec(
        args.algo, tau=tau, gamma=args.gamma, epsilon=args.epsilon, L=args.L
    )


def _gap(args, k: int | None) -> GapSpec:
    if args.gap_value is None:
        return GapSpec(k=k, sigma=args.sigma)
    # only a sigma sweep scales an absolute gap; its range, not --sigma, sets the scale
    if args.sigma != 1.0 and getattr(args, "sweep", None) != "sigma":
        raise ConfigError("--sigma cannot be combined with --gap-value outside --sweep sigma")
    return GapSpec(k=k, sigma=1.0, absolute=args.gap_value)


def _cell_columns(args, tag: str, tau: float, k, sigma) -> list:
    """The columns that tell a row's cell apart (k, tau, gamma, sigma, epsilon
    and L), each written only for a rule that reads it (``_READS``)."""
    reads = _READS[tag]
    return [
        k if "k" in reads and k is not None else "",
        float(tau),
        float(args.gamma) if "gamma" in reads else "",
        float(sigma) if "sigma" in reads and sigma != "" else "",
        float(args.epsilon) if "epsilon" in reads else "",
        int(args.L) if "L" in reads else "",
    ]


def _estimate_row(args, est: RatioEstimate, tag: str, tau: float, k, sigma, family_name) -> list:
    """One CSV row: the cell's columns between the run's and the estimate's."""
    return [
        family_name, tag, args.n, est.iterations,
        *_cell_columns(args, tag, tau, k, sigma),
        args.seed, est.mean, est.stderr, est.select_best_prob, est.none_prob,
    ]


def _check_rows_differ(args, swept) -> None:
    """Usage error when two swept (k, sigma) would write the same cell
    columns: a rule reads no column it leaves empty, so the two rows would
    repeat one estimate."""
    seen = {}
    for k, sigma in swept:
        tau = _resolve_tau(args.tau, k, args.tau_policy)
        columns = tuple(_cell_columns(args, args.algo, tau, k, sigma))
        if columns in seen:
            empty = " and ".join(n for n, i in (("k", 0), ("sigma", 3)) if columns[i] == "")
            raise ConfigError(
                f"{args.algo} rows leave {empty or 'neither k nor sigma'} empty, so (k, sigma) = "
                f"{seen[columns]} and {(k, sigma)} would repeat one estimate"
            )
        seen[columns] = (k, sigma)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    k = _parse_k(args.k)
    algo = _algorithm(args, _resolve_tau(args.tau, k, args.tau_policy))
    gap = _gap(args, k)

    if args.profiles_file is not None:
        if args.dump_profiles is not None:
            raise ConfigError("--dump-profiles cannot be combined with --profiles-file")
        profiles, meta = load_profiles(args.profiles_file)
        sizes = {p.n for p in profiles}
        if len(sizes) != 1:
            raise ConfigError("profiles file must contain instances of one size")
        # the dump header names the family by tag; the CSV names it by flag
        family_name = meta.get("family", "file")
        family_name = FLAG_BY_FAMILY.get(family_name, family_name)
        # flags that name the run must name the file's, or the CSV would
        # name the file's family and size under flags that say otherwise
        if args.family is not None and args.family != family_name:
            raise ConfigError(
                f"--family {args.family} differs from the profiles file's family {family_name}"
            )
        n = sizes.pop()
        if args.n is not None and args.n != n:
            raise ConfigError(f"--n {args.n} differs from the profiles file's size {n}")
        args.n = n
        # before the slice: a negative --iters would count from the end
        _check_run(args.n, args.iters, args.seed)
        if args.iters > len(profiles):
            raise ConfigError(
                f"profiles file provides {len(profiles)} instances, fewer than --iters"
            )
        est = batch_ratio_for_profiles(profiles[: args.iters], algo, gap, args.seed)
    else:
        family = _family(args)
        args.n = DEFAULT_N if args.n is None else args.n
        config = ExperimentConfig(family, args.n, args.iters, algo, gap, master_seed=args.seed)
        est = estimate_ratio(config)
        family_name = args.family
        if args.dump_profiles is not None:
            dumped = regenerate_profiles(family, args.n, args.iters, args.seed)
            save_profiles(args.dump_profiles, dumped, family.tag, args.seed)

    sigma = args.sigma if args.gap_value is None else ""
    row = _estimate_row(args, est, algo.tag, algo.tau, k, sigma, family_name)
    _write_rows(args, CSV_COLUMNS, [row])
    return 0


def cmd_sweep(args) -> int:
    bounds = (args.sweep_from, args.sweep_to, args.step)
    flags = ("--from", "--to", "--step")
    family = _family(args)
    args.n = DEFAULT_N if args.n is None else args.n

    if args.sweep == "k":
        _check_range(*bounds, flags)
        if not all(float(v).is_integer() for v in bounds):
            raise ConfigError("k sweeps need integer --from, --to and --step")
        if args.sweep_from < 2:
            raise ConfigError("k sweep must start at 2 or above")
        lo, hi, step = (int(v) for v in bounds)
        ks, sigmas = range(lo, hi + 1, step), None
        if ks[-1] > args.n:
            raise ConfigError(f"--from, --to and --step reach k={ks[-1]}, above --n={args.n}")
    else:
        sigmas = _stepped(*bounds, flags)
        ks = _parse_k_list(args.k)
        if not ks:
            raise ConfigError("sigma sweeps need --k as a comma-separated list of indices")
    gap = _gap(args, ks[0])  # GapSpec checks k before tau_for_k reads it
    # the rule is checked at the largest tau a cell runs, where gamma's bound
    # 1 - tau is tightest; as the base of _sweep's per-k taus it gives each
    # k the tau simulate gives it, whatever the order of ks
    algo = _algorithm(args, max(_resolve_tau(args.tau, k, args.tau_policy) for k in ks))
    # a k sweep's rows sit at the gap's sigma; its classical baseline rows stay out
    _check_rows_differ(args, [(k, s) for k in ks for s in sigmas or [gap.sigma]])
    config = ExperimentConfig(family, args.n, args.iters, algo, gap, master_seed=args.seed)
    if args.sweep == "k":
        cells = sweep_k(config, ks, tau_policy=args.tau_policy)
    else:
        cells = sweep_sigma(config, sigmas, ks, tau_policy=args.tau_policy)

    rows = [
        _estimate_row(args, c.estimate, c.algo, c.tau, c.k, c.sigma, args.family) for c in cells
    ]
    _write_rows(args, CSV_COLUMNS, rows)
    return 0


def cmd_bounds(args) -> int:
    which = args.which
    if which == "exact":
        k = _parse_k(args.k)
        if k is None:
            raise ConfigError("--which exact needs an integer --k")
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
        agg = _aggregation(args.k)
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
            raise ConfigError("--which bounded needs an integer --k")
        if not (math.isfinite(args.epsilon) and args.epsilon >= 0.0):
            raise ConfigError("--epsilon must be finite and non-negative")
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
            raise ConfigError("--which lselect needs --beta")
        payload = {
            "which": "lselect",
            "L": args.L,
            "beta": args.beta,
            "value": l_selection_bound(args.L, args.beta),
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_frontier(args) -> int:
    flags = ("--r-from", "--r-to", "--r-step")
    targets = _stepped(args.r_from, args.r_to, args.r_step, flags)
    agg = _aggregation(args.k_aggregation)
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
    _write_rows(args, header, rows)
    return 0


def cmd_verify(args) -> int:
    from .acceptance import format_results, run_checks

    results = run_checks(suite=args.suite, fast=args.fast)
    if args.json:
        for r in results:
            print(json.dumps(dataclasses.asdict(r)))
    else:
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

    p_sweep = sub.add_parser("sweep", help="grid of Monte Carlo cells")
    p_sweep.add_argument("--sweep", choices=["k", "sigma"], required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    _add_common_flags(p_sweep)

    p_bounds = sub.add_parser("bounds", help="evaluate a guarantee formula")
    p_bounds.add_argument("--which", choices=["exact", "rc", "bounded", "tie23", "lselect"], required=True)
    p_bounds.add_argument("--tau", type=float, default=0.2)
    p_bounds.add_argument("--gamma", type=float, default=0.0)
    p_bounds.add_argument("--epsilon", type=float, default=0.0)
    p_bounds.add_argument("--k", default=None, help="gap index or 'unknown' (worst-case for rc)")
    p_bounds.add_argument("--L", type=int, default=2)
    p_bounds.add_argument("--beta", type=float, default=None)
    p_bounds.add_argument("--n", type=int, default=None, help="exact finite-n mode for tie23")

    p_frontier = sub.add_parser("frontier", help="robustness-consistency frontier")
    p_frontier.add_argument("--r-from", type=float, default=0.0)
    p_frontier.add_argument("--r-to", type=float, default=0.3)
    p_frontier.add_argument("--r-step", type=float, default=0.05)
    p_frontier.add_argument("--grid-step", type=float, default=0.001)
    p_frontier.add_argument("--k-aggregation", default=None, help="gap index or worst-case")
    p_frontier.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--suite", choices=["bounds", "oracle", "figures", "all"], default="all")
    p_verify.add_argument("--fast", action="store_true", help="reduced iteration counts")
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per check (name, suite, passed, measured, expected, seconds)",
    )

    p_replay = sub.add_parser("replay", help="re-run a recorded manifest")
    p_replay.add_argument("manifest")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _env_seed() -> int:
    """The seed ``$GAPSECRETARY_SEED`` gives, 0 when it is unset or empty."""
    value = os.environ.get(SEED_ENV_VAR) or "0"
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer seed, got {value!r}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    args.raw_argv = argv
    try:
        if getattr(args, "seed", 0) is None:  # a command with --seed, run without it
            args.seed = _env_seed()
            # recorded, so a manifest replays without the variable
            args.raw_argv = argv + ["--seed", str(args.seed)]
        # looked up by name on each call, so the kept parser holds no command
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        # an OSError names a path given by a flag or by replay
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
