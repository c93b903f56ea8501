"""The oracle layer: the exact expected accepted weight of a
single-selection rule on a small instance, by enumeration.

The oracle restates each rule inline on plain floats and imports none of
``kernels``, ``batch`` or ``montecarlo``, so the acceptance gate's exact
check of the Monte Carlo engine shares no code with what it checks.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from .core import WeightProfile

_SINGLE_SELECTION = ("classical", "exact-gap", "robust", "bounded", "strict-classical")


def exact_expectation_small_n(profile: WeightProfile, algorithm, gap_value: float = 0.0) -> float:
    """Exact expected accepted weight by enumerating arrival configurations.

    For two-phase rules the enumeration runs over (pre-tau subset S, ordering
    of the rest) with probability tau^|S| (1-tau)^(n-|S|) / (n-|S|)!; the
    robust rule adds the split of the post-tau ordering between the gap phase
    and the late phase. The enumerated probabilities are asserted to sum to 1.

    Kept deliberately independent of the simulation kernels: the acceptance
    rule is restated inline on plain floats.
    """
    n = profile.n
    if n > 6:
        raise ValueError("enumeration oracle limited to n <= 6")
    if not (math.isfinite(gap_value) and gap_value >= 0.0):
        raise ValueError("gap must be finite and non-negative")
    tag = algorithm.tag
    if tag not in _SINGLE_SELECTION:
        raise ValueError("oracle covers the single-selection rules only")
    tau = algorithm.tau
    gamma = algorithm.gamma if tag == "robust" else 0.0
    w = [float(x) for x in profile.weights]
    elements = tuple(range(n))

    if tag in ("classical", "strict-classical"):
        term = 0.0
    elif tag == "bounded":
        term = max(gap_value - algorithm.epsilon, 0.0)
    else:  # exact-gap and robust
        term = gap_value
    strict = tag == "strict-classical"

    def first_hit(seq, threshold, strict_cmp):
        for i in seq:
            if (w[i] > threshold) if strict_cmp else (w[i] >= threshold):
                return w[i]
        return None

    total_p = 0.0
    total_val = 0.0
    for s_size in range(n + 1):
        for S in combinations(elements, s_size):
            bsf = max((w[i] for i in S), default=0.0)
            thr = max(bsf, term)
            rest = [i for i in elements if i not in S]
            m = len(rest)
            # (j, probability): the first j post-tau arrivals fall in the gap
            # phase, the rest in the late one; without a late phase, all m
            splits = []
            for j in range(m + 1) if gamma > 0.0 else (m,):
                p = (
                    tau**s_size
                    * (1.0 - gamma - tau) ** j
                    / math.factorial(j)
                    * gamma ** (m - j)
                    / math.factorial(m - j)
                )
                if p != 0.0:
                    splits.append((j, p))
            for perm in permutations(rest):
                for j, p in splits:
                    val = first_hit(perm[:j], thr, strict)
                    if val is None:
                        val = first_hit(perm[j:], bsf, False)
                    total_p += p
                    total_val += p * (val or 0.0)
    assert abs(total_p - 1.0) < 1e-9, "enumeration probabilities must sum to 1"
    return total_val
