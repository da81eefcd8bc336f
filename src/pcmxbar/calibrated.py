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
characterization. Epoch k of a run draws from the training root's child
``SeedSequence((seed, 1), spawn_key=(k - 1,))``; a run that starts at a
stream offset reads its children from that index on.

Every stream is seeded through one state hash, ``_pcg64_words``: NumPy's
``SeedSequence.generate_state`` (NEP 19) on ``uint32`` arrays of mixed
pools. A root hashes its ``SeedSequence`` pool, child k that pool with its
hashed key word mixed in (``_children``). A run reads its epoch children by
index (``_training_children``), from cached blocks of 16 hashed keys;
cohorts mix many seeds' pools at once (``_pools``) and hash their children
in the same blocks (``_stream_children``). The draws are the same bit for
bit.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

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
    "characterization_stream",
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
    if seed < 0 or min(spawn_key, default=0) < 0:
        raise ParameterError(f"seeds and spawn keys must be >= 0, got {seed} and {spawn_key}")
    return np.random.SeedSequence((seed, stream), spawn_key=spawn_key)


def build_stream(seed: int) -> np.random.Generator:
    """Array build: device factors, then cycle draws."""
    return word_generator(_pcg64_words(seed_sequence(seed, BUILD).pool))


def characterization_stream(seed: int) -> np.random.Generator:
    return word_generator(_pcg64_words(seed_sequence(seed, CHARACTERIZATION).pool))


# SeedSequence's 32-bit hash (NEP 19), with NumPy's constants: the hash
# constant advances by one multiply per word hashed, so its whole sequence is
# fixed and precomputed
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
# uint32 scalars: a Python int operand costs the ufunc a conversion per call
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL = 4
# children hashed at a time: a run's cached block, a cohort's epoch block
_EPOCH_BLOCK = 16
# a root of a seed below 2**96 has at most four entropy words, which NumPy pads
# with zeros to the pool before it appends a child's spawn key
_WIDE_SEED = 2**96


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """Row 0: the constant each step xors in; row 1: the one it multiplies by."""
    steps = [init]
    for _ in range(n):
        steps.append(steps[-1] * mult & _MASK32)
    return np.array([steps[:-1], steps[1:]], dtype=np.uint32)


# entropy mixing: 4 pool words, 12 cross-mixes, then 4 for one spawn-key word;
# the state: 8 uint32 words, word j hashed from pool word j % 4, two per uint64
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL**2 + _POOL)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, const):
    value = (value ^ const[0]) * const[1]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_words(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each mixed pool ``pool[..., 4]``: ``[..., 4]`` words."""
    state = _hashmix(np.concatenate((pool, pool), axis=-1), _STATE_HASH)
    # each pair of little-endian uint32 words is one uint64, as generate_state reads them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _pools(seeds: list[int], stream: int) -> np.ndarray:
    """Mixed pool of each seed's ``stream`` root, ``(len(seeds), 4)``, as ``SeedSequence.pool``.

    NumPy's entropy for ``(seed, stream)`` is the seed's little-endian 32-bit
    words, then the stream word, zero-padded to the pool. A seed below
    ``_WIDE_SEED`` has at most three words, so its row mixes here with all
    the others at once; a wider seed's pool is its ``SeedSequence``'s own.
    """
    if any(s < 0 for s in seeds):
        raise ParameterError("seeds must be >= 0")
    entropy = np.zeros((len(seeds), _POOL), dtype=np.uint32)
    entropy[:, 0], entropy[:, 1] = [s & _MASK32 for s in seeds], stream
    wide, rows, words = [], [], []
    for i, s in enumerate(seeds) if max(seeds, default=0) > _MASK32 else ():
        if s >= _WIDE_SEED:
            wide.append(i)
        elif s > _MASK32:
            rows.append(i)
            words.append([s & _MASK32, s >> 32 & _MASK32, s >> 64 & _MASK32, 0])
            words[-1][(s.bit_length() + 31) // 32] = stream
    if rows:
        entropy[rows] = words
    pool = _hashmix(entropy, _ENTROPY_HASH[:, :_POOL])
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        const = _ENTROPY_HASH[:, _POOL + 3 * src : _POOL + 3 * src + 3]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], const))
    for i in wide:
        pool[i] = seed_sequence(seeds[i], stream).pool
    return pool


@functools.lru_cache(maxsize=64)
def _key_words(keys) -> np.ndarray:
    """The hashed spawn-key word of each of ``keys`` (all below 2**32), one row of four per key."""
    words = _hashmix(np.array(keys, dtype=np.uint32)[:, None], _ENTROPY_HASH[:, -_POOL:])
    words.flags.writeable = False
    return words


def _children(pool: np.ndarray, keys) -> np.ndarray:
    """PCG64 seed words of the children ``keys`` of each root whose mixed pool is ``pool[..., 4]``.

    Returns ``[..., len(keys), 4]``. Exact for a seed below 2**96 and keys
    below 2**32: such a child's pool is its root's with one spawn-key word
    mixed in.
    """
    return _pcg64_words(_mix(pool[..., None, :], _key_words(keys)))


def _stream_children(seeds: list[int], stream: int, pool: np.ndarray, keys) -> np.ndarray:
    """``_children`` of each seed's ``stream`` root, whose mixed pools are ``pool``.

    Seeds of 2**96 and above, and keys of 2**32 and above, go through
    ``SeedSequence`` itself, and no block is hashed when every row does;
    negative keys raise ``ParameterError``.
    """
    if min(keys, default=0) < 0:
        raise ParameterError("spawn keys must be >= 0")
    wide_keys = max(keys, default=0) > _MASK32
    wide = [i for i, s in enumerate(seeds) if wide_keys or s >= _WIDE_SEED]
    children = (np.empty((len(seeds), len(keys), _POOL), np.uint64) if len(wide) == len(seeds)
                else _children(pool, keys))
    for i in wide:
        for j, k in enumerate(keys):
            children[i, j] = seed_sequence(seeds[i], stream, (k,)).generate_state(4, np.uint64)
    return children


@functools.lru_cache(maxsize=4)
def _training_block(seed: int, start: int) -> np.ndarray:
    """Read-only PCG64 seed words of children ``start .. start + 15`` of ``seed``'s training root.

    The last four blocks are cached, so both runs of a two-pattern protocol
    read one block when their epochs fit in it.
    """
    root = seed_sequence(seed, TRAINING)
    keys = range(start, start + _EPOCH_BLOCK)
    words = _stream_children([seed], TRAINING, root.pool[None], keys)[0]
    words.flags.writeable = False
    return words


def _training_children(seed: int, first: int) -> Iterator[np.random.Generator]:
    """Generators of children ``first``, ``first + 1``, ... of ``seed``'s training root.

    Child k draws what ``SeedSequence((seed, 1), spawn_key=(k,))``'s
    generator draws. Children are read from blocks of ``_EPOCH_BLOCK`` keys
    aligned to multiples of the block size, each hashed when first reached.
    """
    if first < 0:
        raise ParameterError(f"stream offsets must be >= 0, got {first}")
    start = first - first % _EPOCH_BLOCK
    blocks = (_training_block(seed, s) for s in itertools.count(start, _EPOCH_BLOCK))
    words = itertools.islice(itertools.chain.from_iterable(blocks), first - start, None)
    return map(word_generator, words)


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
