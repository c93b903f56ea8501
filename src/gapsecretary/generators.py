"""Seeded generation of the benchmark instance families and arrival draws.

Each generator is a pure function of its random stream, and streams are
derived from a master seed so parallel experiments reproduce bit-identically
regardless of scheduling.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np

from .core import ArrivalDraw, WeightProfile, _check_index, _is_int, normalize, normalize_rows

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


def _is_seed(seed) -> bool:
    """A master seed ``SeededRng`` takes: a 64-bit non-negative integer."""
    return _is_int(seed) and 0 <= seed < 2**64


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
        if not _is_seed(self.master_seed):
            raise ValueError("master seed must be a 64-bit non-negative integer")

    def stream(self, index: int) -> np.random.Generator:
        _check_index(index, "stream index", 0)
        return np.random.default_rng([int(self.master_seed), int(index)])

    def streams(self, indices: Iterable[int]) -> Iterator[np.random.Generator]:
        """Yield stream i for each i of ``indices`` in turn, bit for bit the
        draws of ``stream(i)``.

        numpy's ``SeedSequence`` hash and PCG64's seeding are computed for a
        block of indices at once, and each index's state is written in turn
        into one reused ``Generator``'s PCG64 (``_vectorized_streams``), so no
        ``SeedSequence``, ``PCG64``, ``Generator`` or state dict is built per
        index. A yielded generator is valid only until the next one is
        taken. Where ``stream_seeding()`` finds that
        this does not reproduce ``default_rng``, the streams come from
        ``stream(i)``: the same draws, only slower. An index that ``stream``
        refuses raises its ``ValueError`` when its block of indices is
        reached; a ``range`` holds only integers, so only its least index is
        checked.
        """
        if stream_seeding() == "vectorized":
            if not isinstance(indices, range):
                indices = _checked_indices(indices)
            yield from _vectorized_streams(int(self.master_seed), indices)
        else:
            yield from map(self.stream, indices)


def _checked_indices(indices: Iterable[int]) -> Iterator[int]:
    """Each of ``indices`` in turn, once ``SeededRng.stream``'s index rule
    (``core._check_index``) holds for it."""
    for index in indices:
        _check_index(index, "stream index", 0)
        yield index


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


# PCG64's 128-bit LCG multiplier, as its high and low 64-bit words
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK64 = 2**64 - 1
_U64 = np.uint64


def _mul_hi(x: np.ndarray, y: int) -> np.ndarray:
    """The high 64 bits of each 128-bit product x * y, x uint64, y < 2^64,
    from the four products of their 32-bit halves."""
    x0, x1 = x & _U64(_MASK32), x >> _U64(32)
    y0, y1 = _U64(y & _MASK32), _U64(y >> 32)
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> _U64(32)) + (p01 & _U64(_MASK32)) + (p10 & _U64(_MASK32))
    return x1 * y1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _pcg64_set_seed(words: np.ndarray) -> np.ndarray:
    """PCG64's ``set_seed`` for each row of ``_seed_sequence_words``: initstate
    is words 0-1 and initseq words 2-3 (high word first), inc = initseq << 1 |
    1, and two LCG steps from state 0 give state = (inc + initstate) * mult +
    inc, all mod 2^128. Returns rows of ``pcg64_random_t``'s words in memory
    order, (state low, state high, inc low, inc high), computed in uint64
    column arithmetic, each 128-bit value as two words with explicit carries."""
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_lo = q_lo << _U64(1) | _U64(1)
    inc_hi = q_hi << _U64(1) | q_lo >> _U64(63)
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < inc_lo)
    b_lo = a_lo * _U64(_PCG64_MULT_LO)
    b_hi = _mul_hi(a_lo, _PCG64_MULT_LO) + a_lo * _U64(_PCG64_MULT_HI) + a_hi * _U64(_PCG64_MULT_LO)
    state_lo = b_lo + inc_lo
    state_hi = b_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _pcg64_fields(bit_generator) -> tuple[np.ndarray, ctypes.c_uint64]:
    """Writable views of a PCG64 bit generator's C state: its
    ``pcg64_random_t`` as four uint64 words (state low and high, inc low and
    high), and the 32-bit draw buffer beside the pointer to it, ``has_uint32``
    and ``uinteger``, as one 64-bit word.

    No pointer is read before the public state names PCG64, and each view is
    checked against the public state before it is returned: a set state and
    a buffered 32-bit draw must read back through them. Any other bit
    generator or layout raises ``ValueError``. The views hold no reference
    to ``bit_generator``: they are valid only while the caller keeps it.
    """
    if bit_generator.state["bit_generator"] != "PCG64":
        raise ValueError("the reused bit generator is not PCG64")
    state, inc, uinteger = 3 << 100 | 5, 7 << 90 | 9, 0x9E3779B9
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 1,
        "uinteger": uinteger,
    }
    address = bit_generator.ctypes.state_address
    pcg = np.ctypeslib.as_array(
        (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
    )
    buffered = ctypes.c_uint64.from_address(address + 8)
    words = [state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]
    held = np.frombuffer(buffered, dtype=np.uint32)
    if pcg.tolist() != words or held.tolist() != [1, uinteger]:
        raise ValueError("PCG64's state layout is not the one expected")
    return pcg, buffered


def _vectorized_streams(
    master_seed: int, indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """One ``Generator`` set in turn to the state of ``default_rng([master_seed,
    i])`` for each i. The seed words and PCG64's seeding are computed for a
    block of indices at once (``_seed_sequence_words``, ``_pcg64_set_seed``);
    each index then costs one write of its four state words into the reused
    PCG64 and a zeroed 32-bit buffer (``_pcg64_fields``), as PCG64's own
    state setter leaves it. An index of 2^64 or more is seeded by
    ``default_rng``: a third index word changes the hash constants."""
    generator = np.random.Generator(np.random.PCG64(0))
    pcg, buffered = _pcg64_fields(generator.bit_generator)
    indices = iter(indices)
    while block := list(islice(indices, _SEED_BLOCK)):
        _check_index(min(block), "stream index", 0)
        if max(block) >= 2**64:
            yield from (np.random.default_rng([master_seed, i]) for i in block)
            continue
        words = _seed_sequence_words(master_seed, np.array(block, dtype=np.uint64))
        for row in _pcg64_set_seed(words):
            pcg[:] = row
            buffered.value = 0
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


# the size rule of each family, and of an arrival draw (tag None): n is an
# integer, at least 2 where one weight is drawn against the others (pareto's
# theta and uniforms, the superstar and its base), at least 1 otherwise
_SIZE_RULES = {
    None: (1, "need at least one arrival (n an integer >= 1)"),
    "pareto_power": (2, "pareto-power family needs n >= 2 (an integer)"),
    "exp_superstar": (2, "superstar family needs n >= 2 (an integer)"),
}
_WEIGHTS_RULE = (1, "need at least one weight (n an integer >= 1)")


def _check_size(n, tag: str | None) -> None:
    """Refuse an instance size the family ``tag`` cannot draw (an arrival
    draw's when ``tag`` is None); the one statement of the size rule."""
    least, message = _SIZE_RULES.get(tag, _WEIGHTS_RULE)
    if not (_is_int(n) and n >= least):
        raise ValueError(message)


@dataclass(frozen=True)
class InstanceFamily:
    """One of the benchmark weight distributions plus its parameters."""

    tag: str
    df: int = 10  # chi-squared degrees of freedom
    factor: float = 100.0  # superstar multiplier

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if not (_is_int(self.df) and self.df >= 1):
            raise ValueError("chi-squared df must be an integer >= 1")
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise ValueError("superstar factor must be finite and positive")

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
        same bits. Both read one size rule, ``_check_size``, before any
        stream is drawn.
        """
        rows, n = out.shape
        _check_size(n, self.tag)
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
    _check_size(n, None)
    return ArrivalDraw(rng.random(n))


def gen_pareto_power(n: int, rng: np.random.Generator) -> WeightProfile:
    """Uniforms on [0, theta] raised to the power n^1.5, theta Pareto-drawn
    with scale 5/n and shape 1.

    The construction stays in log space throughout (the exponent is ~2828 at
    n = 200, far beyond float64 in linear form) and the profile comes back
    normalized.
    """
    _check_size(n, "pareto_power")
    u = 1.0 - rng.random()  # Uniform(0, 1], keeps theta finite
    log_theta = np.log(5.0 / n) - np.log(u)
    y = rng.random(n)  # w_i = (theta * y_i)^(n^1.5), in logs
    with np.errstate(divide="ignore"):
        log_w = n**1.5 * (log_theta + np.log(y))
    return normalize(WeightProfile(log_w))


def gen_exponential(n: int, rng: np.random.Generator) -> WeightProfile:
    """n i.i.d. Exp(1) weights."""
    _check_size(n, "exponential")
    return WeightProfile.from_weights(rng.standard_exponential(n))


def gen_chi_squared(n: int, df: int, rng: np.random.Generator) -> WeightProfile:
    """Each weight is an explicit sum of ``df`` squared standard normals."""
    InstanceFamily("chi_squared", df=df)  # df's rule
    _check_size(n, "chi_squared")
    z = rng.standard_normal((n, df))
    return WeightProfile.from_weights(np.sum(z * z, axis=1))


def gen_exp_superstar(
    n: int, factor: float, rng: np.random.Generator
) -> WeightProfile:
    """n - 1 Exp(1) weights plus one element at ``factor`` times their maximum."""
    InstanceFamily("exp_superstar", factor=factor)  # the factor's rule
    _check_size(n, "exp_superstar")
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

    Returns the profiles plus the parsed header metadata. A row that is not
    a profile raises ``ValueError`` prefixed with ``<path>:<line>:``.
    """
    path = Path(path)
    meta: dict = {}
    profiles: list[WeightProfile] = []
    with path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line.lstrip("#").split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                continue
            try:
                profiles.append(WeightProfile(np.array([float(v) for v in line.split(",")])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not profiles:
        raise ValueError(f"no profiles found in {path}")
    return profiles, meta
