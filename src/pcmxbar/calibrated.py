"""The shipped operating point and the seed streams every run hangs off.

The calibrated staircase is fitted to the measured epochs-to-recall ladder
(target medians 11 / 9 / 5 / 1 at 60 / 40 / 24 / 9 percent variation); over
seeds 0..49 it gives 9 / 6 / 5 / 1. Its shape is a large first step, three
tiny bracket rungs, one mid jump, then a uniform tail:

- the first step sets how far the stored cells move in epoch one, which pins
  the one-epoch recall at the 9 percent level;
- the bracket rungs hold epochs 2..4 just short of the 24 percent threshold
  band so that level needs five epochs;
- the mid jump clears that band at epoch five;
- the dense tail walks the remaining levels across the 40 and 60 percent
  bands, spreading their recalls out over several epochs while keeping each
  recall close to the threshold (small bias margins).

One integer seed keys three independent streams: ``(seed, 0)`` builds the
array, ``(seed, 1)`` drives training, ``(seed, 2)`` drives single-cell
characterization. Epoch k of a run draws from the training root's k-th
spawned child, ``SeedSequence((seed, 1), spawn_key=(k - 1,))``.

Single runs derive their streams through ``SeedSequence``. Cohorts hash the
same seed words for many seeds and spawn indices at once with
``stream_words``, which reproduces NumPy's ``SeedSequence`` mixing (NEP 19)
on ``uint32`` arrays, and seed each ``PCG64`` from them with
``word_generator``; the draws are the same bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .device import DeviceParams, VariationSpec
from .errors import ParameterError

__all__ = [
    "CALIBRATED_DECAY_SCHEDULE",
    "CALIBRATED_SIGMA_C2C",
    "CALIBRATED_DEVICE_SHARE",
    "VARIATION_LEVELS",
    "build_decay_schedule",
    "calibrated_device_params",
    "calibrated_variation",
    "BUILD",
    "TRAINING",
    "CHARACTERIZATION",
    "seed_sequence",
    "build_stream",
    "training_stream",
    "characterization_stream",
    "stream_words",
    "word_generator",
]

# staircase-shape constants shared by the shipped schedule and the calibrator
_BRACKET_RUNG = 0.00175
_MID_JUMP = 0.0202

CALIBRATED_SIGMA_C2C = 0.03
CALIBRATED_DEVICE_SHARE = 0.8
VARIATION_LEVELS = (0.60, 0.40, 0.24, 0.09)


def build_decay_schedule(first_fraction: float, tail_fraction: float) -> tuple[float, ...]:
    """Nine-entry staircase schedule from its two free parameters.

    Entries are fractions of the full RESET-to-floor log swing; pulses past
    the ninth keep using the tail entry.
    """
    if first_fraction <= 0.0 or tail_fraction <= 0.0:
        raise ParameterError("schedule fractions must be positive")
    return (
        first_fraction,
        _BRACKET_RUNG,
        _BRACKET_RUNG,
        _BRACKET_RUNG,
        _MID_JUMP,
        tail_fraction,
        tail_fraction,
        tail_fraction,
        tail_fraction,
    )


CALIBRATED_DECAY_SCHEDULE = build_decay_schedule(0.163, 0.0114)


def calibrated_device_params(**overrides) -> DeviceParams:
    """Device parameters with the calibrated staircase and programming noise."""
    kw = dict(sigma_c2c=CALIBRATED_SIGMA_C2C, decay_schedule=CALIBRATED_DECAY_SCHEDULE)
    kw.update(overrides)
    return DeviceParams(**kw)


def calibrated_variation(cv: float) -> VariationSpec:
    return VariationSpec(cv=cv, device_share=CALIBRATED_DEVICE_SHARE)


# stream keys: the second entry of each stream's (seed, key) entropy
BUILD, TRAINING, CHARACTERIZATION = 0, 1, 2


def seed_sequence(seed: int, stream: int, spawn_key=()) -> np.random.SeedSequence:
    """Root ``SeedSequence`` of one stream of ``seed``, or its child at ``spawn_key``."""
    return np.random.SeedSequence((seed, stream), spawn_key=spawn_key)


def build_stream(seed: int) -> np.random.Generator:
    """Array build: device factors, then cycle draws."""
    return np.random.default_rng(seed_sequence(seed, BUILD))


def training_stream(seed: int) -> np.random.Generator:
    """Training root: each epoch spawns its own child from it."""
    return np.random.default_rng(seed_sequence(seed, TRAINING))


def characterization_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, CHARACTERIZATION))


# SeedSequence's 32-bit hash (NEP 19), with NumPy's constants: the hash
# constant advances by one multiply per word hashed, so its whole sequence is
# fixed and precomputed
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_POOL = 4


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """Row 0: the constant each step xors in; row 1: the one it multiplies by."""
    steps = [init]
    for _ in range(n):
        steps.append(steps[-1] * mult & _MASK32)
    return np.array([steps[:-1], steps[1:]], dtype=np.uint32)


# entropy mixing: 4 pool words, 12 cross-mixes, then 4 for one spawn-key word;
# the state: 8 uint32 words, two per uint64
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL**2 + _POOL)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, const):
    value = (value ^ const[0]) * const[1]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_words(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of pools held lane-first, words on the last axis."""
    const = _STATE_HASH.reshape(2, 2, _POOL, *[1] * (pool.ndim - 1))
    state = _hashmix(pool, const).reshape(2 * _POOL, *pool.shape[1:]).astype(np.uint64)
    # copied so every row of four words is contiguous, as word_generator needs
    return np.moveaxis(state[0::2] | state[1::2] << 32, 0, -1).copy()


def stream_words(seeds, stream: int, spawn_keys=()) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 seed words of each seed's ``stream`` children and root, for many seeds at once.

    Returns ``(children, roots)``: ``children[i, j]`` is
    ``SeedSequence((seeds[i], stream), spawn_key=(spawn_keys[j],)).generate_state(4,
    np.uint64)`` and ``roots[i]`` the same without the spawn key. A child
    differs from its root only in the last four hash steps, so each seed's
    pool is mixed once for all its keys. Seeds (or keys) of 2**32 and above
    take more than one entropy word and go through ``SeedSequence`` itself.
    """
    seeds = [int(s) for s in seeds]
    keys = [int(k) for k in spawn_keys]
    if any(s < 0 for s in seeds):
        raise ParameterError("seeds must be >= 0")
    entropy = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    entropy[0], entropy[1] = [s & _MASK32 for s in seeds], stream
    pool = _hashmix(entropy, _ENTROPY_HASH[:, :_POOL, None])
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        const = _ENTROPY_HASH[:, _POOL + 3 * src : _POOL + 3 * src + 3, None]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    key = np.array([k & _MASK32 for k in keys], dtype=np.uint32)
    key = _hashmix(key, _ENTROPY_HASH[:, -_POOL:, None])
    children = _pcg64_words(_mix(pool[:, :, None], key[:, None, :]))
    roots = _pcg64_words(pool)
    wide_keys = max(keys, default=0) > _MASK32
    for i, s in enumerate(seeds):
        if s > _MASK32 or wide_keys:
            roots[i] = seed_sequence(s, stream).generate_state(4, np.uint64)
            for j, k in enumerate(keys):
                children[i, j] = seed_sequence(s, stream, (k,)).generate_state(4, np.uint64)
    return children, roots


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 precomputed state words.

    Built on first use: ``np.random`` loads lazily, and importing the
    package should not load it.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def word_generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``default_rng`` builds from the seed sequence whose state is ``words``."""
    # PCG64 reads the four words through their data pointer, ignoring strides
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))
