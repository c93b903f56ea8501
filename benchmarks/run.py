"""Benchmark for gapsecretary: four Monte Carlo workloads, one thread, closed
loop (each op is issued after the previous one returned).

Run from the root of a checkout:

    python3 benchmarks/run.py --workload cells --seed 1 --seconds 10 --trace 0

It runs as many whole passes of the workload as ``--seconds`` holds at the
workload's nominal pass time, checks every op against its reference after
timing, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is a JSON
record of the environment and the SHA-256 digest of every op's output.
``--trace 1`` runs the same passes again with per-layer spans installed and
reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median

BENCHMARK = ROOT / "BENCHMARK.json"  # names and units of the metrics reported


def load_package():
    """Puts the checkout's own ``src`` first on the path; refuses to run on
    any other copy of the package."""
    init = SRC / "gapsecretary" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a gapsecretary checkout")
    sys.path.insert(0, str(SRC))
    import gapsecretary

    if Path(gapsecretary.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported {gapsecretary.__file__}, not the checkout's {init}")
    return gapsecretary


def environment(package) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gapsecretary": package.__version__,
        "caches": caches,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git``; None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    runs one warm-up op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if probe.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{probe.stderr}")
    return statistics.median(times)


def run_pass(ops, workdir):
    """Runs ops in order; returns [(output, error)] and the summed op time."""
    results, timed = [], 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.run(workdir), None
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        timed += time.perf_counter() - t0
        results.append((out, err))
    return results, timed


def verdict(op, out, err) -> str | None:
    if err is not None:
        return err
    try:
        return op.check(out.value)
    except Exception as exc:  # noqa: BLE001 - a check that breaks fails its op
        return f"check raised {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cells", "sweep", "lselect", "gate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure, in whole passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = load_package()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, package, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def run(args, package, workdir) -> int:
    import workloads

    if args.setup_probe:
        workloads.warm_up_ops(args.workload)[0].run(workdir)
        return 0
    setup_s = None if args.trace else measure_setup(args.workload)
    for op in workloads.warm_up_ops(args.workload):
        op.run(workdir)

    build = workloads.WORKLOADS[args.workload]
    instances = workloads.Instances()
    passes, results, pass_s = [], [], []
    for p in range(workloads.passes(args.workload, args.seconds)):
        ops = build(args.seed, p, instances)
        res, t = run_pass(ops, workdir)
        passes.append(ops)
        results.extend(res)
        pass_s.append(t)
    timed = sum(pass_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = [op for p in passes for op in p]
    # (op, output, reason it failed or None), checked after all timing
    checked = [(op, out, verdict(op, out, err)) for op, (out, err) in zip(ops, results)]
    if args.trace:
        values, traced = trace(passes, checked, timed, workdir)
    else:
        draws = sum(op.draws for op in ops)
        values = {"draws_per_s": draws / timed, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        traced = []
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        sys.exit(f"error: measured metrics {sorted(values)} differ from {BENCHMARK.name}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report(args, package, checked + traced, pass_s, metrics)
    return 0


def trace(passes, checked, untraced_s, workdir):
    """Runs the same passes again with spans installed. A traced op fails
    when its output differs from the untraced run of the same op."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        runs = [run_pass(ops, workdir) for ops in passes]
    finally:
        tracer.uninstall()
    results = [r for res, _ in runs for r in res]
    traced = []
    for (op, first, reason), (out, err) in zip(checked, results):
        if err is None and (first is None or out.digest != first.digest):
            err = "traced output differs from the untraced one"
        traced.append((op, out, err or reason))
    written = sum(out.written for out, _ in results if out is not None)
    return tracer.metrics(len(passes), sum(t for _, t in runs), untraced_s, written), traced


def report(args, package, checked, pass_s, metrics) -> None:
    """Prints failures and metrics to stderr, then the record line and the
    result line to stdout."""
    failed = [(op, reason) for op, _, reason in checked if reason is not None]
    for op, reason in failed:
        known = f" (known defect: {op.known_defect})" if op.known_defect else ""
        print(f"FAIL {op.name}: {reason}{known}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:>28} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_s": pass_s,
        "failed_frac": len(failed) / len(checked),
        "environment": environment(package),
        "ops": [
            {"op": op.name, "draws": op.draws, "sha256": out.digest if out else None,
             "ok": reason is None}
            for op, out, reason in checked
        ],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        # a known defect fails its op but leaves the program's other outputs correct
        "correct": all(op.known_defect is not None for op, _ in failed),
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
