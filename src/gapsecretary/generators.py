"""Seeded generation of the benchmark instance families and arrival draws.

Each generator is a pure function of its random stream, and streams are
derived from a master seed so parallel experiments reproduce bit-identically
regardless of scheduling.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np

from .core import ArrivalDraw, WeightProfile, normalize, normalize_rows

__all__ = [
    "FAMILY_TAGS",
    "InstanceFamily",
    "SeededRng",
    "stream_seeding",
    "gen_arrivals",
    "gen_pareto_power",
    "gen_exponential",
    "gen_chi_squared",
    "gen_exp_superstar",
    "save_profiles",
    "load_profiles",
]

FAMILY_TAGS = ("pareto_power", "exponential", "chi_squared", "exp_superstar")


@dataclass(frozen=True)
class SeededRng:
    """Derives reproducible random streams from one 64-bit master seed.

    ``stream(i)`` is ``default_rng([master_seed, i])``, a pure function of
    (master_seed, i): the draws for work item i never depend on thread count
    or evaluation order. It stays the readable reference. ``streams(indices)``
    gives the same draws for many indices, seeded in one vectorized pass.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master seed must be a 64-bit non-negative integer")

    def stream(self, index: int) -> np.random.Generator:
        if index < 0:
            raise ValueError("stream index must be non-negative")
        return np.random.default_rng([int(self.master_seed), int(index)])

    def streams(self, indices: Iterable[int]) -> Iterator[np.random.Generator]:
        """Yield stream i for each i of ``indices`` in turn, bit for bit the
        draws of ``stream(i)``.

        numpy's ``SeedSequence`` hash and PCG64's seeding are computed for a
        block of indices at once, and one reused ``Generator`` is set to each
        index's state in turn, so no ``SeedSequence``, ``PCG64`` or
        ``Generator`` is built per index. A yielded generator is valid only
        until the next one is taken. Where ``stream_seeding()`` finds that
        this does not reproduce ``default_rng``, the streams come from
        ``stream(i)``: the same draws, only slower. A negative index raises
        ``ValueError`` when its block of indices is reached.
        """
        if stream_seeding() == "vectorized":
            yield from _vectorized_streams(int(self.master_seed), indices)
        else:
            yield from map(self.stream, indices)


# numpy's SeedSequence: O'Neill's seed_seq hash over uint32 words, pool size 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_SEED_BLOCK = 1024  # indices hashed per vectorized pass


def _seed_sequence_words(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(4, np.uint64)`` for
    each i of ``indices``, as the rows of a ``(len(indices), 4)`` uint64 array.

    The entropy words are those of numpy's ``_coerce_to_uint32_array``: the
    seed's one or two uint32 words (one below 2^32), then the index's, zero
    padded to the pool size. A one-word index equals its two-word form with a
    zero high word, and with at most four entropy words the hash constants
    are the same for every entry, so the hash runs on whole columns: uint64
    arithmetic masked to 32 bits.
    """
    seed_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = [np.full(indices.shape, w, dtype=np.uint64) for w in seed_words]
    entropy += [indices & _MASK32, indices >> np.uint64(32)]
    entropy += [np.zeros(indices.shape, dtype=np.uint64)] * (4 - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(w) for w in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    hash_const = _INIT_B
    state = np.empty((indices.size, 8), dtype=np.uint64)
    for i_dst in range(8):
        value = pool[i_dst % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state[:, i_dst] = value ^ value >> _XSHIFT
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _vectorized_streams(
    master_seed: int, indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """One ``Generator`` set in turn to the state of ``default_rng([master_seed,
    i])`` for each i, following PCG64's ``set_seed``: initstate is seed words
    0-1, inc = (initseq, words 2-3) << 1 | 1, and two LCG steps from state 0
    give state = (inc + initstate) * mult + inc."""
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    indices = iter(indices)
    while block := list(islice(indices, _SEED_BLOCK)):
        if min(block) < 0:
            raise ValueError("stream index must be non-negative")
        if max(block) >= 2**64:  # a third index word changes the hash constants
            yield from (np.random.default_rng([master_seed, i]) for i in block)
            continue
        for words in _seed_sequence_words(master_seed, np.array(block, dtype=np.uint64)):
            s_hi, s_lo, q_hi, q_lo = words.tolist()  # one row at a time
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {
                    "state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128,
                    "inc": inc,
                },
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator


@cache
def stream_seeding() -> str:
    """``"vectorized"`` when ``SeededRng.streams`` seeds its streams in one
    vectorized pass, ``"default_rng"`` when it falls back to ``stream(i)``.

    Checked once per process: the vectorized streams of a few indices under
    a one-word and a two-word seed must draw what ``default_rng`` draws. A
    numpy that changed its default bit generator or its seeding fails it.
    """
    indices = [0, 1, 2**32 - 1, 2**32]
    for seed in (0, 2**64 - 1):
        try:
            for i, rng in zip(indices, _vectorized_streams(seed, indices)):
                if not np.array_equal(rng.random(4), np.random.default_rng([seed, i]).random(4)):
                    return "default_rng"
        except (TypeError, ValueError, KeyError):
            return "default_rng"
    return "vectorized"


@dataclass(frozen=True)
class InstanceFamily:
    """One of the benchmark weight distributions plus its parameters."""

    tag: str
    df: int = 10  # chi-squared degrees of freedom
    factor: float = 100.0  # superstar multiplier

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if not (isinstance(self.df, (int, np.integer)) and self.df >= 1):
            raise ValueError("chi-squared df must be an integer >= 1")
        if not self.factor > 0:
            raise ValueError("superstar factor must be positive")

    def generate(self, n: int, rng: np.random.Generator) -> WeightProfile:
        if self.tag == "pareto_power":
            return gen_pareto_power(n, rng)
        if self.tag == "exponential":
            return gen_exponential(n, rng)
        if self.tag == "chi_squared":
            return gen_chi_squared(n, self.df, rng)
        return gen_exp_superstar(n, self.factor, rng)

    def draw_rows(self, streams, out: np.ndarray) -> None:
        """Draw one instance per stream into the rows of ``out`` as raw
        log-weights, the batch form of ``generate``.

        Row i's draws come from stream i in the order ``generate`` makes them:
        pareto's theta before its n uniforms, chi-squared's (n, df) normals,
        the superstar's n - 1 exponentials. The transforms after the draws,
        and ``from_weights``'s checks, run once over the whole array and in
        place. Pareto rows come out normalized, as ``gen_pareto_power``
        returns its profiles. The ``gen_*`` functions stay the readable
        per-instance reference, and the tests require both forms to give the
        same bits.
        """
        rows, n = out.shape
        # the gen_* functions' size checks, made before any stream is drawn
        if self.tag == "pareto_power" and n < 2:
            raise ValueError("pareto-power family needs n >= 2")
        if self.tag == "exp_superstar" and n < 2:
            raise ValueError("superstar family needs n >= 2")
        if n < 1:
            raise ValueError("need at least one weight")
        if self.tag == "pareto_power":
            u = np.empty(rows)

            def draw(i, rng):
                u[i] = rng.random()
                rng.random(out=out[i])

        elif self.tag == "exponential":

            def draw(i, rng):
                rng.standard_exponential(out=out[i])

        elif self.tag == "chi_squared":
            z = np.empty((n, self.df))

            def draw(i, rng):
                rng.standard_normal(out=z)
                np.multiply(z, z, out=z)
                np.add.reduce(z, axis=1, out=out[i])

        else:

            def draw(i, rng):
                rng.standard_exponential(out=out[i, :-1])

        for i, rng in enumerate(streams):
            draw(i, rng)

        with np.errstate(divide="ignore", over="ignore"):
            if self.tag == "pareto_power":
                np.log(out, out=out)
                out += (np.log(5.0 / n) - np.log(1.0 - u))[:, None]
                out *= n**1.5
                normalize_rows(out)
                return
            if self.tag == "exp_superstar":
                out[:, -1] = self.factor * np.max(out[:, :-1], axis=1)
            if not (out.min() >= 0.0 and out.max() < math.inf):
                raise ValueError("weights must be finite and non-negative")
            np.log(out, out=out)


def gen_arrivals(n: int, rng: np.random.Generator) -> ArrivalDraw:
    """n i.i.d. Uniform[0, 1] arrival times."""
    if n < 1:
        raise ValueError("need at least one arrival")
    return ArrivalDraw(rng.random(n))


def gen_pareto_power(n: int, rng: np.random.Generator) -> WeightProfile:
    """Uniforms on [0, theta] raised to the power n^1.5, theta Pareto-drawn
    with scale 5/n and shape 1.

    The construction stays in log space throughout (the exponent is ~2828 at
    n = 200, far beyond float64 in linear form) and the profile comes back
    normalized.
    """
    if n < 2:
        raise ValueError("pareto-power family needs n >= 2")
    u = 1.0 - rng.random()  # Uniform(0, 1], keeps theta finite
    log_theta = np.log(5.0 / n) - np.log(u)
    y = rng.random(n)  # w_i = (theta * y_i)^(n^1.5), in logs
    with np.errstate(divide="ignore"):
        log_w = n**1.5 * (log_theta + np.log(y))
    return normalize(WeightProfile(log_w))


def gen_exponential(n: int, rng: np.random.Generator) -> WeightProfile:
    """n i.i.d. Exp(1) weights."""
    if n < 1:
        raise ValueError("need at least one weight")
    return WeightProfile.from_weights(rng.standard_exponential(n))


def gen_chi_squared(n: int, df: int, rng: np.random.Generator) -> WeightProfile:
    """Each weight is an explicit sum of ``df`` squared standard normals."""
    if n < 1:
        raise ValueError("need at least one weight")
    if df < 1:
        raise ValueError("df must be >= 1")
    z = rng.standard_normal((n, df))
    return WeightProfile.from_weights(np.sum(z * z, axis=1))


def gen_exp_superstar(
    n: int, factor: float, rng: np.random.Generator
) -> WeightProfile:
    """n - 1 Exp(1) weights plus one element at ``factor`` times their maximum."""
    if n < 2:
        raise ValueError("superstar family needs n >= 2")
    if factor <= 0:
        raise ValueError("factor must be positive")
    base = rng.standard_exponential(n - 1)
    star = factor * float(np.max(base))
    return WeightProfile.from_weights(np.append(base, star))


def save_profiles(
    path, profiles, family_tag: str = "custom", master_seed: int | None = None
) -> None:
    """Write profiles as replay text: one comma-separated row of log-weights
    per instance, after a header naming family and seed."""
    path = Path(path)
    seed_part = "" if master_seed is None else f" seed={master_seed}"
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# family={family_tag}{seed_part}\n")
        for prof in profiles:
            f.write(",".join(repr(float(v)) for v in prof.log_weights) + "\n")


def load_profiles(path) -> tuple[list[WeightProfile], dict]:
    """Read a replay file written by :func:`save_profiles`.

    Returns the profiles plus the parsed header metadata.
    """
    path = Path(path)
    meta: dict = {}
    profiles: list[WeightProfile] = []
    with path.open("r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line.lstrip("#").split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                continue
            profiles.append(
                WeightProfile(np.array([float(v) for v in line.split(",")]))
            )
    if not profiles:
        raise ValueError(f"no profiles found in {path}")
    return profiles, meta
