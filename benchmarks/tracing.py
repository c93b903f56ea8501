"""Per-layer spans recorded from outside the package.

``Tracer.install()`` wraps the public functions of each gapsecretary layer,
rebinding every name a module imported with ``from .x import y`` so that
calls between layers are seen too; class attributes (``SeededRng.stream``,
``InstanceFamily.generate``, ``WeightProfile.from_weights`` and the
``normalized_weights`` cached property) are patched once on the class.
``uninstall()`` restores every original.

Spans are aggregated as they close: a layer's self time is its span's
duration minus the time covered by the spans opened inside it. Calls count
only spans whose parent belongs to another layer, so a public function
calling another one of its own layer counts once.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

from gapsecretary import acceptance, algorithms, bounds, cli, core, generators, montecarlo

PACKAGE_MODULES = (core, generators, algorithms, bounds, montecarlo, acceptance, cli)

MONTECARLO_ENTRY_POINTS = (
    "estimate_ratio",
    "per_iteration_outcomes",
    "sweep_k",
    "sweep_sigma",
    "batch_ratio_for_profiles",
    "simulate_fixed_profile",
    "estimate_l_selection",
    "regenerate_profiles",
)

# a batch cell reads one float64 weight and one float64 arrival time per
# element; a computed count, not a measured memory traffic
BYTES_PER_ELEMENT = 16


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span key, time covered by children]
        self._instances: set = set()
        self._last_stream = (None, None)  # (generator, (master_seed, index))
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, key, fn, on_outer=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != key
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if outer:
                self.calls[key] += 1
                if on_outer is not None:
                    on_outer(args, kwargs, result)
            return result

        return traced

    def _rebind(self, name, original, wrapper):
        for mod in PACKAGE_MODULES:
            if vars(mod).get(name) is original:
                self._restore.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _patch_class(self, cls, name, value):
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    # -- counters fed from call results ------------------------------------

    def _count_montecarlo(self, args, kwargs, result):
        if isinstance(result, montecarlo.RatioEstimate):
            cells, draws = 1, result.iterations
        elif isinstance(result, dict):
            cells, draws = 1, len(result["ratio"])
        elif result and isinstance(result[0], montecarlo.SweepCell):
            cells, draws = len(result), sum(c.estimate.iterations for c in result)
        else:  # regenerate_profiles returns instances, not draws
            return
        # the first argument is a config, a profile or a list of profiles
        first = kwargs.get("fixed_profile") or (args[0] if args else next(iter(kwargs.values())))
        if isinstance(first, (list, tuple)):
            first = first[0]
        n = first.n
        self.counts["montecarlo.cells"] += cells
        self.counts["montecarlo.draws"] += draws
        self.counts["montecarlo.elements"] += draws * n

    def _count_stream(self, args, kwargs, result):
        seeds, index = args
        self._last_stream = (result, (seeds.master_seed, index))

    def _count_generate(self, args, kwargs, result):
        family, n, rng = args
        stream_rng, stream_key = self._last_stream
        key = stream_key if rng is stream_rng else object()
        self.counts["generators.elements"] += n
        self._instances.add((family, n, key))

    def _count_profile(self, args, kwargs, result):
        self.counts["core.profiles"] += 1

    def _count_accepted(self, args, kwargs, result):
        self.counts["algorithms.accepted"] += len(result.accepted)

    def _count_frontier(self, args, kwargs, result):
        call = inspect.signature(bounds.frontier).bind(*args, **kwargs)
        call.apply_defaults()
        steps = int(round(1.0 / call.arguments["grid_step"]))
        self.counts["bounds.grid_points"] += (steps - 1) * steps

    def _count_checks(self, args, kwargs, result):
        self.counts["acceptance.checks"] += len(result)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        def functions(module, names, key, on_outer=None):
            for name in names:
                original = getattr(module, name)
                self._rebind(name, original, self._wrap(key, original, on_outer))

        functions(cli, ["main"], "cli")
        functions(montecarlo, MONTECARLO_ENTRY_POINTS, "montecarlo", self._count_montecarlo)
        functions(montecarlo, ["exact_expectation_small_n"], "montecarlo.oracle")
        functions(algorithms, ["run_l_selection_gap"], "algorithms", self._count_accepted)
        functions(bounds, ["frontier"], "bounds", self._count_frontier)
        functions(
            bounds,
            [
                n
                for n in bounds.__all__
                if n != "frontier" and inspect.isfunction(getattr(bounds, n))
            ],
            "bounds",
        )
        functions(acceptance, ["run_checks"], "acceptance", self._count_checks)
        functions(core, ["normalize"], "core", self._count_profile)

        G, P = generators, core.WeightProfile
        self._patch_class(
            G.SeededRng, "stream", self._wrap("generators.stream", G.SeededRng.stream, self._count_stream)
        )
        self._patch_class(
            G.InstanceFamily,
            "generate",
            self._wrap("generators.generate", G.InstanceFamily.generate, self._count_generate),
        )
        from_weights = P.__dict__["from_weights"].__func__
        self._patch_class(
            P, "from_weights", classmethod(self._wrap("core", from_weights, self._count_profile))
        )
        cached = functools.cached_property(self._wrap("core", P.__dict__["normalized_weights"].func))
        cached.__set_name__(P, "normalized_weights")
        self._patch_class(P, "normalized_weights", cached)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- report ----------------------------------------------------------------

    def metrics(self, passes: int, traced_s: float, untraced_s: float, bytes_written: int) -> dict:
        """Per-layer figures per traced pass, by metric name."""
        s, c = self.self_s, self.calls
        values = {
            "generators.stream_calls": c["generators.stream"],
            "generators.stream_s": s["generators.stream"],
            "generators.generate_calls": c["generators.generate"],
            "generators.generate_s": s["generators.generate"],
            "generators.elements": self.counts["generators.elements"],
            "core.profiles": self.counts["core.profiles"],
            "core.profile_s": s["core"],
            "montecarlo.calls": c["montecarlo"],
            "montecarlo.self_s": s["montecarlo"],
            "montecarlo.cells": self.counts["montecarlo.cells"],
            "montecarlo.draws": self.counts["montecarlo.draws"],
            "montecarlo.elements": self.counts["montecarlo.elements"],
            "montecarlo.bytes_computed": BYTES_PER_ELEMENT * self.counts["montecarlo.elements"],
            "montecarlo.oracle_calls": c["montecarlo.oracle"],
            "montecarlo.oracle_s": s["montecarlo.oracle"],
            "algorithms.calls": c["algorithms"],
            "algorithms.self_s": s["algorithms"],
            "algorithms.accepted": self.counts["algorithms.accepted"],
            "bounds.calls": c["bounds"],
            "bounds.self_s": s["bounds"],
            "bounds.grid_points": self.counts["bounds.grid_points"],
            "acceptance.checks": self.counts["acceptance.checks"],
            "acceptance.self_s": s["acceptance"],
            "cli.calls": c["cli"],
            "cli.self_s": s["cli"],
            "cli.bytes_written": bytes_written,
            "harness.self_s": traced_s - sum(s.values()),
            "trace.overhead_s": traced_s - untraced_s,
        }
        out = {name: value / passes for name, value in values.items()}
        # a ratio, so not divided by the pass count; 0 when nothing was generated
        generated = c["generators.generate"]
        out["generators.distinct_frac"] = len(self._instances) / generated if generated else 0.0
        return out
