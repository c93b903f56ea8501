"""Hand-made mutants of the engine, and a runner that counts how many the
test suite kills.

Each mutant is one edit, (file, old text, new text), that breaks one
boundary or rule of a kernel, the batch builder, the stream seeding or a
gap's rescaling: an edge a random draw meets with probability about 0, so
only crafted inputs catch it. The old
text occurs exactly once in its file, which ``tests/test_layers.py``
checks, so an engine change that moves it shows up there and the list is
updated with the change.

Run from anywhere::

    python tests/mutants.py [--root DIR] [pytest arguments]

For each mutant the runner copies the repository at ``--root`` (this one
by default) to a temporary directory, applies the mutant to the copy, runs
``pytest -x -q`` there with the given arguments (the whole suite by
default) and reports it killed when the run fails. It first runs the suite
on an unmutated copy, which must pass. It prints one line per mutant and
then killed/total, and exits 0 when every mutant is killed, 1 when any
survives and 2 when the unmutated suite fails. It is not part of Tier-1: it
runs the whole suite once per mutant, a few minutes in all, so CI runs it
as a job of its own.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

KERNELS = "src/gapsecretary/kernels.py"
BATCH = "src/gapsecretary/batch.py"
GENERATORS = "src/gapsecretary/generators.py"
ALGORITHMS = "src/gapsecretary/algorithms.py"
MONTECARLO = "src/gapsecretary/montecarlo.py"

# name: (file, old text, new text)
MUTANTS = {
    "threshold-pass-gt-gap": (
        KERNELS,
        "passed = weight >= (gap if np.ndim(gap) == 0 else np.repeat(gap, counts))",
        "passed = weight > (gap if np.ndim(gap) == 0 else np.repeat(gap, counts))",
    ),
    "l-select-hits-L-minus-2-minima": (
        KERNELS,
        "for _ in range(L - 1):",
        "for _ in range(L - 2):",
    ),
    "fixed-profile-pass-gt-threshold": (
        KERNELS,
        "cand = w[j] > thr if strict else w[j] >= thr",
        "cand = w[j] > thr if strict else w[j] > thr",
    ),
    "threshold-state-t-lt-tau": (
        KERNELS,
        "    pre = times <= tau\n",
        "    pre = times < tau\n",
    ),
    "narrowed-state-t-lt-tau": (
        KERNELS,
        "crossed = time <= tau",
        "crossed = time < tau",
    ),
    "l-select-kept-t-lt-tau": (
        KERNELS,
        "keep |= state.time <= tau",
        "keep |= state.time < tau",
    ),
    "threshold-state-gt-best-so-far": (
        KERNELS,
        "candidate = np.greater_equal(weights, bsf[:, None])",
        "candidate = np.greater(weights, bsf[:, None])",
    ),
    "threshold-pass-late-from-1-minus-gamma": (
        KERNELS,
        "late = time > 1.0 - gamma if gamma > 0.0 else None",
        "late = time >= 1.0 - gamma if gamma > 0.0 else None",
    ),
    "threshold-pass-ties-to-higher-index": (
        KERNELS,
        "firsts = np.diff(run, prepend=-1) != 0",
        "firsts = np.diff(run, append=-1) != 0",
    ),
    "l-select-hits-gt-gap": (
        KERNELS,
        "q = w_ranked >= np.reshape(gaps, (-1, 1))",
        "q = w_ranked > np.reshape(gaps, (-1, 1))",
    ),
    "batch-last-maximum-best-index": (
        BATCH,
        "np.argmax(w, axis=1, out=best[block])",
        "best[block] = w.shape[1] - 1 - np.argmax(w[:, ::-1], axis=1)",
    ),
    "seeding-vectorizes-a-range-reaching-2-64": (
        GENERATORS,
        "return all(0 <= i < 2**64 for i in ends)",
        "return all(0 <= i <= 2**64 for i in ends)",
    ),
    "seeding-falls-back-on-a-range-from-0": (
        GENERATORS,
        "return all(0 <= i < 2**64 for i in ends)",
        "return all(0 < i < 2**64 for i in ends)",
    ),
    "runner-rescale-ignores-underflow": (
        ALGORITHMS,
        "if scale >= sys.float_info.min:",
        "if scale >= 0.0:",
    ),
    "engine-rescale-ignores-underflow": (
        MONTECARLO,
        "subnormal = scale < np.finfo(float).smallest_normal",
        "subnormal = scale < 0.0",
    ),
}

# what a copy of the repository leaves out
_SKIPPED = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_out", ".benchmarks"
)


def mutated(text: str, old: str, new: str) -> str:
    """``text`` with its one occurrence of ``old`` replaced by ``new``."""
    if text.count(old) != 1:
        raise ValueError(f"the mutant's old text occurs {text.count(old)} times: {old!r}")
    return text.replace(old, new)


def _suite_fails(root: Path, mutant, pytest_args) -> bool:
    """Whether ``pytest -x -q`` fails on a copy of ``root`` with ``mutant``
    (None for none) applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=_SKIPPED)
        if mutant is not None:
            file, old, new = mutant
            path = copy / file
            path.write_text(mutated(path.read_text(), old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
        run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=1800)
        return run.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the repository to mutate (default: this one)")
    args, pytest_args = parser.parse_known_args(argv)
    if _suite_fails(args.root, None, pytest_args):
        print("the unmutated suite fails; no mutant can be counted")
        return 2
    killed = 0
    for name, mutant in MUTANTS.items():
        dead = _suite_fails(args.root, mutant, pytest_args)
        killed += dead
        print(f"{'killed' if dead else 'SURVIVED'}  {name}", flush=True)
    print(f"{killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
