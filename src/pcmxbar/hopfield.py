"""Recurrent Hopfield network mapped onto the crossbar.

Neuron i owns wordline i and bitline i; the synapse from i to j is the cell
at (wordline i, bitline j). Training is purely Hebbian with the teacher
clamped: every epoch, all neurons of the stored pattern fire together and
every cell at their intersections takes one gradual SET pulse. Recall drives
the partial cue's wordlines at the read bias and compares the column currents
on the silent bitlines against a fixed threshold.

The threshold is computed once from the as-built (all RESET) resistance map:
C times the worst-case column current that the cue could draw through fully
unprogrammed cells. Anything strictly above it must therefore have been
programmed, which is what makes false firing structurally impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calibrated import BUILD, CALIBRATED_DEVICE_SHARE, TRAINING, stream_words, word_generator
from .crossbar import (
    ArrayGeometry,
    CrossbarState,
    apply_update_phase,
    as_built_resistance,
    build_draws,
    read_recall_currents,
    resistance_map,
)
from .device import DeviceParams, VariationSpec, decay_log_steps
from .errors import ParameterError, ProtocolError

__all__ = [
    "Pattern",
    "PATTERN_ONE",
    "PATTERN_TWO",
    "MISSING_PIXEL_ONE",
    "MISSING_PIXEL_TWO",
    "NetworkConfig",
    "EpochResult",
    "LearningTrace",
    "compute_threshold",
    "train_epoch",
    "run_learning",
    "CohortOutcome",
    "run_cohort",
    "run_two_pattern_protocol",
    "recall_only",
]


@dataclass(frozen=True)
class Pattern:
    """Binary pixel pattern; pixel indices are 1-based like the neurons."""

    pixels: tuple[int, ...]

    def __post_init__(self):
        if len(self.pixels) == 0:
            raise ParameterError("pattern must have at least one pixel")
        if any(p not in (0, 1) for p in self.pixels):
            raise ParameterError("pattern pixels must be 0 or 1")
        object.__setattr__(self, "pixels", tuple(int(p) for p in self.pixels))

    @classmethod
    def from_on(cls, on, n: int) -> "Pattern":
        on = set(on)
        for i in on:
            if not 1 <= i <= n:
                raise ParameterError(f"pixel index {i} outside 1..{n}")
        return cls(pixels=tuple(1 if i in on else 0 for i in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.pixels)

    @cached_property
    def on(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.pixels, start=1) if p)


# the two stored images: 5 pixels each, disjoint, cued with one pixel hidden
PATTERN_ONE = Pattern(pixels=(1, 1, 1, 1, 0, 1, 0, 0, 0, 0))
PATTERN_TWO = Pattern(pixels=(0, 0, 0, 0, 1, 0, 1, 1, 1, 1))
MISSING_PIXEL_ONE = 6
MISSING_PIXEL_TWO = 5


@dataclass(frozen=True)
class NetworkConfig:
    """Recall-side knobs: threshold margin, read bias, cue size, epoch budget."""

    c_factor: float = 2.0
    v_read: float = 0.1
    recall_on_count: int = 4
    max_epochs: int = 100
    read_duration: float = 300e-9

    def __post_init__(self):
        if not math.isfinite(self.c_factor) or self.c_factor <= 0.0:
            raise ParameterError("c_factor must be finite and positive")
        if not math.isfinite(self.v_read) or self.v_read < 0.0:
            raise ParameterError("v_read must be finite and >= 0")
        if self.recall_on_count < 1:
            raise ParameterError("recall_on_count must be >= 1")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")
        if not math.isfinite(self.read_duration) or self.read_duration <= 0.0:
            raise ParameterError("read_duration must be finite and positive")
        if not math.isfinite(self.v_read * self.v_read * self.read_duration):
            raise ParameterError("v_read**2 * read_duration (the read energy scale) overflows")


def compute_threshold(initial_resistance: np.ndarray, config: NetworkConfig):
    """Firing threshold from the as-built resistance map, or from a stack of them.

    For every bitline, take the ``recall_on_count`` largest conductances among
    the other wordlines (a neuron never cues itself); the worst column times
    the read bias is the largest current any cue could push through fully
    unprogrammed cells. The threshold is ``c_factor`` times that.

    ``initial_resistance`` is one ``(n, n)`` map, which returns a Python
    float, or a stack ``(..., n, n)``, which returns an array of the leading
    shape. Ties among conductances pick the lower wordline, and the selected
    conductances accumulate in ascending wordline order, so the result is
    bit-identical to an exhaustive subset search that sums the same way.
    """
    R = np.asarray(initial_resistance, dtype=float)
    if R.ndim < 2 or R.shape[-2] != R.shape[-1]:
        raise ParameterError(f"initial resistance map must be square, got {R.shape[-2:]}")
    n = R.shape[-1]
    k = config.recall_on_count
    if k > n - 1:
        raise ParameterError(
            f"recall_on_count {k} needs at least {k + 1} neurons, map has {n}"
        )
    g = 1.0 / R
    diagonal = np.arange(n)
    g[..., diagonal, diagonal] = -np.inf  # a neuron's own wordline sorts last
    top = np.argsort(-g, axis=-2, kind="stable")[..., :k, :]
    top.sort(axis=-2)
    picked = np.take_along_axis(g, top, axis=-2)
    column = picked[..., 0, :]
    for i in range(1, k):
        column = column + picked[..., i, :]
    threshold = config.c_factor * config.v_read * column.max(axis=-1)
    return float(threshold) if R.ndim == 2 else threshold


@dataclass
class EpochResult:
    """Everything one training epoch produced."""

    epoch_index: int
    program_event_count: int
    recall_currents: dict[int, float]
    fired: frozenset[int]
    recalled: bool
    false_firings: frozenset[int]
    program_energy: float
    read_energy: float
    epoch_energy: float

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch_index,
            "program_event_count": self.program_event_count,
            "recall_currents_amps": {str(b): i for b, i in sorted(self.recall_currents.items())},
            "fired": sorted(self.fired),
            "recalled": self.recalled,
            "false_firings": sorted(self.false_firings),
            "program_energy_joules": self.program_energy,
            "read_energy_joules": self.read_energy,
            "epoch_energy_joules": self.epoch_energy,
        }


@dataclass
class LearningTrace:
    """Full record of one learning run on one array."""

    pattern: Pattern
    missing_pixel: int
    threshold: float
    variation_cv: float
    seed: int
    epochs: list[EpochResult]
    converged: bool
    epochs_to_recall: int | None
    normalized_maps: list[np.ndarray] = field(repr=False)
    program_event_count: int = 0
    program_energy: float = 0.0
    read_energy: float = 0.0
    total_energy: float = 0.0

    def to_dict(self) -> dict:
        return {
            "pattern": list(self.pattern.pixels),
            "missing_pixel": self.missing_pixel,
            "threshold_amps": self.threshold,
            "variation_cv": self.variation_cv,
            "seed": self.seed,
            "converged": self.converged,
            "epochs_to_recall": self.epochs_to_recall,
            "program_event_count": self.program_event_count,
            "program_energy_joules": self.program_energy,
            "read_energy_joules": self.read_energy,
            "total_energy_joules": self.total_energy,
            "epochs": [ep.to_dict() for ep in self.epochs],
        }


def _check_patterns(geometry: ArrayGeometry, pattern: Pattern, partial: Pattern, config):
    n = geometry.rows
    if geometry.cols != n:
        raise ProtocolError("recurrent network needs a square array")
    if pattern.n != n or partial.n != n:
        raise ProtocolError(
            f"pattern size {pattern.n}/{partial.n} does not match the {n}x{n} array"
        )
    if not partial.on < pattern.on:
        raise ProtocolError("partial cue must be a proper subset of the stored pattern")
    if len(partial.on) != config.recall_on_count:
        raise ProtocolError(
            f"cue has {len(partial.on)} pixels, recall expects {config.recall_on_count}"
        )


def _read_energy(array: CrossbarState, cue, config: NetworkConfig) -> float:
    # every sensed column dissipates v^2/R in the cue cells for the read window
    rows = np.array(sorted(cue), dtype=np.intp) - 1
    cols = np.array([b - 1 for b in range(1, array.geometry.cols + 1) if b not in cue], dtype=np.intp)
    g = 1.0 / array.resistance[np.ix_(rows, cols)]
    return config.v_read**2 * config.read_duration * float(g.sum())


def train_epoch(
    array: CrossbarState,
    pattern: Pattern,
    partial: Pattern,
    threshold: float,
    config: NetworkConfig,
    rng: np.random.Generator,
    epoch_index: int = 1,
) -> EpochResult:
    """One update phase with the teacher clamped, then one recall read.

    Firing is strict: a bitline fires only when its current exceeds the
    threshold, never at equality. The membrane has no memory between epochs;
    each recall is a fresh read.
    """
    _check_patterns(array.geometry, pattern, partial, config)
    cells, program_energy = apply_update_phase(array, pattern.on, rng)
    currents = read_recall_currents(array, partial.on, config.v_read)
    fired = frozenset(b for b, i in currents.items() if i > threshold)
    missing = pattern.on - partial.on
    read_energy = _read_energy(array, partial.on, config)
    return EpochResult(
        epoch_index=epoch_index,
        program_event_count=len(cells),
        recall_currents=currents,
        fired=fired,
        recalled=missing <= fired,
        false_firings=fired - pattern.on,
        program_energy=program_energy,
        read_energy=read_energy,
        epoch_energy=program_energy + read_energy,
    )


def run_learning(
    array: CrossbarState,
    pattern: Pattern,
    missing_pixel: int,
    config: NetworkConfig,
    rng: np.random.Generator,
    *,
    threshold: float | None = None,
    record_maps: bool = True,
    continue_after_recall: bool = False,
) -> LearningTrace:
    """Train until the missing pixel recalls or the epoch budget runs out.

    Each epoch draws from its own spawned child stream, so traces replay
    exactly from the same root generator regardless of where they stop.
    ``continue_after_recall`` keeps training through ``max_epochs`` anyway,
    which records the full current trajectory for the fig6 tables.
    Non-convergence is a reported outcome, not an error.
    """
    if missing_pixel not in pattern.on:
        raise ProtocolError(f"missing pixel {missing_pixel} is not part of the pattern")
    partial = Pattern.from_on(pattern.on - {missing_pixel}, pattern.n)
    if threshold is None:
        threshold = compute_threshold(array.initial_resistance, config)
    maps = [resistance_map(array)] if record_maps else []
    epochs: list[EpochResult] = []
    epochs_to_recall = None
    for epoch in range(1, config.max_epochs + 1):
        child = rng.spawn(1)[0]
        result = train_epoch(array, pattern, partial, threshold, config, child, epoch)
        epochs.append(result)
        if record_maps:
            maps.append(resistance_map(array))
        if result.recalled and epochs_to_recall is None:
            epochs_to_recall = epoch
        if result.recalled and not continue_after_recall:
            break
    count = sum(ep.program_event_count for ep in epochs)
    # explicit left-to-right float sum: from Python 3.12 on, sum() compensates
    # float rounding and would move the last bits; run_cohort adds in this order
    read_energy = 0.0
    for ep in epochs:
        read_energy += ep.read_energy
    program_energy = count * array.params.e_prog  # exact count * e_prog identity
    return LearningTrace(
        pattern=pattern,
        missing_pixel=missing_pixel,
        threshold=threshold,
        variation_cv=array.variation.cv,
        seed=array.seed,
        epochs=epochs,
        converged=epochs_to_recall is not None,
        epochs_to_recall=epochs_to_recall,
        normalized_maps=maps,
        program_event_count=count,
        program_energy=program_energy,
        read_energy=read_energy,
        total_energy=program_energy + read_energy,
    )


@dataclass(frozen=True)
class CohortOutcome:
    """Outcomes of a cohort of runs: row i is ``cvs[i]``, column j is ``seeds[j]``.

    ``epochs`` counts the epochs trained: the recall epoch for a converged
    run, ``max_epochs`` for one that never recalled. The energies are the
    ``read_energy`` and ``total_energy`` of the run's ``LearningTrace``.
    """

    cvs: tuple[float, ...]
    seeds: tuple[int, ...]
    epochs: np.ndarray
    converged: np.ndarray
    read_energy: np.ndarray
    total_energy: np.ndarray


# training epochs whose child words run_cohort hashes at a time
_EPOCH_BLOCK = 16


def run_cohort(
    cvs,
    seeds,
    params: DeviceParams,
    config: NetworkConfig,
    *,
    device_share: float = CALIBRATED_DEVICE_SHARE,
    geometry: ArrayGeometry | None = None,
    pattern: Pattern = PATTERN_ONE,
    missing_pixel: int = MISSING_PIXEL_ONE,
) -> CohortOutcome:
    """Early-stop single-pattern runs on fresh arrays, every (cv, seed) pair at once.

    Each pair gives the outcome of ``run_learning`` on ``build_array(geometry,
    params, VariationSpec(cv, device_share), seed)`` with the seed's training
    stream, bit for bit, but records no per-epoch trace.
    A seed's build draws do not depend on the cv, and its epoch-k training
    child depends only on the seed and k, so each seed draws once for all
    cvs. Its build root and, while any of its cvs still trains, its epoch
    children are seeded from words that ``stream_words`` hashes for many seeds
    at once: the build roots up front, the children in blocks of
    ``_EPOCH_BLOCK`` epochs for the seeds still training, so memory does not
    grow with ``max_epochs``. Every epoch updates, reads and threshold-tests
    all active arrays in one stack of shape ``(runs, rows, cols)``, with the
    scalar path's elementwise operations in the scalar path's order. Repeated
    seeds are simulated once. Bad patterns raise the same errors as ``run_learning``.
    """
    geometry = geometry or ArrayGeometry()
    variations = [VariationSpec(cv=float(cv), device_share=device_share) for cv in cvs]
    seeds = tuple(int(s) for s in seeds)
    if missing_pixel not in pattern.on:
        raise ProtocolError(f"missing pixel {missing_pixel} is not part of the pattern")
    partial = Pattern.from_on(pattern.on - {missing_pixel}, pattern.n)

    unique = sorted(set(seeds))
    shape = (geometry.rows, geometry.cols)
    z_dev, z_cyc = np.empty((2, len(unique), *shape))
    for u, words in enumerate(stream_words(unique, BUILD)[1]):
        z_dev[u], z_cyc[u] = build_draws(word_generator(words), shape)
    # run r is cv r // len(unique) on seed unique[r % len(unique)]
    resistance = np.empty((len(variations) * len(unique), *shape))
    thresholds = np.empty(len(resistance))
    for i, v in enumerate(variations):
        rows = slice(i * len(unique), (i + 1) * len(unique))
        resistance[rows] = as_built_resistance(
            params, v.sigma_device, v.sigma_cycle, z_dev, z_cyc
        )
        thresholds[rows] = compute_threshold(resistance[rows], config)
    del z_dev, z_cyc
    _check_patterns(geometry, pattern, partial, config)

    on = np.array(sorted(pattern.on), dtype=np.intp) - 1
    cue = sorted(partial.on)
    sensed = [b for b in range(1, geometry.cols + 1) if b not in cue]
    read_block = (np.array(cue, dtype=np.intp) - 1, np.array(sensed, dtype=np.intp) - 1)
    missing = sensed.index(missing_pixel)
    read_cost = config.v_read**2 * config.read_duration

    epochs = np.zeros(len(resistance), dtype=np.int64)
    converged = np.zeros(len(resistance), dtype=bool)
    read_energy = np.zeros(len(resistance))
    active = np.arange(len(resistance))
    for epoch in range(1, config.max_epochs + 1):
        if not active.size:
            break
        # one child per seed still training: spawn index epoch - 1 of its root
        seed_index = active % len(unique)
        live = np.unique(seed_index)
        offset = (epoch - 1) % _EPOCH_BLOCK
        if offset == 0:
            block_seeds = live
            block_words = stream_words(
                [unique[u] for u in live], TRAINING, range(epoch - 1, epoch - 1 + _EPOCH_BLOCK)
            )[0]
        words = block_words[np.searchsorted(block_seeds, live), offset]
        z = np.array([word_generator(w).standard_normal(on.size**2) for w in words])
        # on a fresh array every stored cell has taken epoch - 1 pulses
        gain = np.exp(-decay_log_steps(params, epoch - 1) + params.sigma_c2c * z)
        gain = gain[np.searchsorted(live, seed_index)].reshape(-1, on.size, on.size)
        block = np.ix_(active, on, on)
        resistance[block] = np.maximum(params.r_set_floor, resistance[block] * gain)

        # each run's block sums like the scalar (cue, sensed) block: one flat reduce
        g = 1.0 / resistance[np.ix_(active, *read_block)]
        read_energy[active] += read_cost * g.reshape(len(active), -1).sum(axis=1)
        recalled = config.v_read * g.sum(axis=1)[:, missing] > thresholds[active]
        epochs[active] = epoch
        converged[active] = recalled
        active = active[~recalled]

    total_energy = (on.size**2 * epochs) * params.e_prog + read_energy
    columns = np.searchsorted(unique, seeds)
    grid = (len(variations), len(unique))
    return CohortOutcome(
        cvs=tuple(v.cv for v in variations),
        seeds=seeds,
        epochs=epochs.reshape(grid)[:, columns],
        converged=converged.reshape(grid)[:, columns],
        read_energy=read_energy.reshape(grid)[:, columns],
        total_energy=total_energy.reshape(grid)[:, columns],
    )


def run_two_pattern_protocol(
    array: CrossbarState, config: NetworkConfig, rng: np.random.Generator
) -> tuple[LearningTrace, LearningTrace]:
    """Store both patterns back to back on one array, no reset in between.

    The threshold comes from the as-built map and is shared by both runs;
    the training stream simply continues from the first run into the second.
    """
    threshold = compute_threshold(array.initial_resistance, config)
    first = run_learning(
        array, PATTERN_ONE, MISSING_PIXEL_ONE, config, rng, threshold=threshold
    )
    second = run_learning(
        array, PATTERN_TWO, MISSING_PIXEL_TWO, config, rng, threshold=threshold
    )
    return first, second


def recall_only(
    array: CrossbarState, partial: Pattern, threshold: float, config: NetworkConfig
) -> Pattern:
    """Read-only recall: return the cue completed by whatever fires."""
    if partial.n != array.geometry.cols:
        raise ProtocolError(
            f"cue size {partial.n} does not match the {array.geometry.cols}-column array"
        )
    currents = read_recall_currents(array, partial.on, config.v_read)
    fired = frozenset(b for b, i in currents.items() if i > threshold)
    return Pattern.from_on(partial.on | fired, partial.n)
