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
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .calibrated import BUILD, CALIBRATED_DEVICE_SHARE, TRAINING, word_generator
from .calibrated import _EPOCH_BLOCK, _pcg64_words, _pools, _stream_children, _training_children
from .crossbar import (
    ArrayGeometry,
    CrossbarState,
    as_built_resistance,
    build_draws,
    firing_plan,
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
    "check_shipped_patterns",
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
    """Full record of one learning run on one array, its epochs held as columns.

    Row k of ``currents`` holds epoch k + 1's recall current on each sensed
    bitline, in ascending bitline order, and ``read_sums[k]`` that epoch's
    read-block conductance sum. ``epochs`` builds each epoch's
    ``EpochResult`` from its row on first read, and ``to_dict`` goes through
    it; a caller that needs one bitline's trajectory reads
    ``bitline_currents`` and builds none.
    """

    pattern: Pattern
    missing_pixel: int
    threshold: float
    variation_cv: float
    seed: int
    converged: bool
    epochs_to_recall: int | None
    currents: np.ndarray = field(repr=False)  # (epochs, sensed bitlines), amps
    read_sums: list[float] = field(repr=False)
    # what ``_result`` takes besides the columns: (run plan, network config, device params)
    _context: tuple = field(repr=False, compare=False)
    normalized_maps: list[np.ndarray] = field(repr=False)
    program_event_count: int = 0
    program_energy: float = 0.0
    read_energy: float = 0.0
    total_energy: float = 0.0

    @cached_property
    def epochs(self) -> list[EpochResult]:
        plan, config, params = self._context
        return [
            _result(k, currents, read_sum, plan, self.pattern, self.threshold, config, params)
            for k, (currents, read_sum) in enumerate(
                zip(self.currents.tolist(), self.read_sums), start=1
            )
        ]

    def bitline_currents(self, bitline: int) -> list[float]:
        """The recall current on the sensed ``bitline`` in each epoch, in amps."""
        return self.currents[:, self._context[0].sensed.index(bitline)].tolist()

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


def _check_patterns(geometry: ArrayGeometry, pattern: Pattern, partial: Pattern,
                    recall_on_count: int):
    n = geometry.rows
    if geometry.cols != n:
        raise ProtocolError("recurrent network needs a square array")
    if pattern.n != n or partial.n != n:
        raise ProtocolError(
            f"pattern size {pattern.n}/{partial.n} does not match the {n}x{n} array"
        )
    if not partial.on < pattern.on:
        raise ProtocolError("partial cue must be a proper subset of the stored pattern")
    if len(partial.on) != recall_on_count:
        raise ProtocolError(
            f"cue has {len(partial.on)} pixels, recall expects {recall_on_count}"
        )


def _cue(geometry: ArrayGeometry, pattern: Pattern, missing_pixel: int,
         recall_on_count: int) -> Pattern:
    """The partial cue of ``pattern`` without ``missing_pixel``, checked for a run on ``geometry``."""
    if missing_pixel not in pattern.on:
        raise ProtocolError(f"missing pixel {missing_pixel} is not part of the pattern")
    partial = Pattern.from_on(pattern.on - {missing_pixel}, pattern.n)
    _check_patterns(geometry, pattern, partial, recall_on_count)
    return partial


def check_shipped_patterns(config: NetworkConfig) -> None:
    """Raise the error training either shipped pattern under ``config`` would raise.

    Lets a command that trains them reject its network settings before it
    creates any output directory.
    """
    _run_plan(ArrayGeometry(), PATTERN_ONE, MISSING_PIXEL_ONE, config.recall_on_count)
    _run_plan(ArrayGeometry(), PATTERN_TWO, MISSING_PIXEL_TWO, config.recall_on_count)


class _RunPlan(NamedTuple):
    """The indices a run needs, fixed by its geometry, pattern and cue; arrays are read-only."""

    flat: np.ndarray  # C-order flat index of each stored (pattern x pattern) cell, row-major
    read_block: tuple[np.ndarray, np.ndarray]  # np.ix_(cue rows, sensed columns)
    sensed: tuple[int, ...]  # the bitlines read, ascending
    # columns of the pattern's sensed bitlines in the read block: a slice (so the
    # refresh assigns through a view) when consecutive, as one column always is
    hidden: slice | np.ndarray
    refresh: np.ndarray  # (cue, hidden): index among the stored cells of each such read cell
    missing: frozenset  # the pattern's pixels outside the cue


def _plan(geometry: ArrayGeometry, pattern: Pattern, partial: Pattern) -> _RunPlan:
    update = firing_plan(pattern.on, geometry.rows, geometry.cols)
    read = firing_plan(partial.on, geometry.rows, geometry.cols)
    on, n = update.neurons, len(update.neurons)
    hidden = [b for b in read.sensed if b in pattern.on]
    columns = [read.sensed.index(b) for b in hidden]
    refresh = np.array(
        [[on.index(c) * n + on.index(b) for b in hidden] for c in read.neurons], dtype=np.intp
    )
    refresh.flags.writeable = False
    if columns == list(range(columns[0], columns[-1] + 1)):
        columns = slice(columns[0], columns[-1] + 1)
    else:
        columns = np.array(columns, dtype=np.intp)
        columns.flags.writeable = False
    return _RunPlan(update.flat, read.read_block, read.sensed, columns, refresh,
                    pattern.on - partial.on)


@lru_cache(maxsize=16)
def _run_plan(geometry: ArrayGeometry, pattern: Pattern, missing_pixel: int,
              recall_on_count: int) -> _RunPlan:
    """``_plan`` of the cue ``_cue`` checks, built once per key."""
    return _plan(geometry, pattern, _cue(geometry, pattern, missing_pixel, recall_on_count))


def _gather(array: CrossbarState, plan: _RunPlan):
    """The stored cells, their pulse counts and the read block's conductances, as new arrays."""
    return (
        array.resistance.take(plan.flat),
        array.pulses_applied.take(plan.flat),
        1.0 / array.resistance[plan.read_block],
    )


def _pulse(stored, read, z, steps, plan: _RunPlan, params: DeviceParams) -> None:
    """One Hebbian update of the stored cells, then a refresh of the read block's stored cells.

    ``stored`` and ``read`` are one run's stored cells and read-block
    conductances, or a stack of runs' on a leading axis; ``z`` holds a
    run's (or each run's) normal draws and is consumed, ``steps`` the log
    steps of the pulses about to be taken. Elementwise, every value is the
    one ``apply_update_phase`` and ``read_recall_currents`` compute:
    ``max(R * exp(-step + sigma_c2c * z), floor)`` and ``1 / R``.
    """
    z *= params.sigma_c2c
    z -= steps
    np.exp(z, out=z)
    stored *= z
    np.maximum(stored, params.r_set_floor, out=stored)
    read[..., plan.hidden] = 1.0 / stored.take(plan.refresh, axis=-1)


def _result(epoch_index, currents, read_sum, plan, pattern, threshold, config, params):
    """The ``EpochResult`` of an epoch with these sensed currents and read-block conductance sum."""
    currents = dict(zip(plan.sensed, currents))
    fired = frozenset(b for b, i in currents.items() if i > threshold)
    program_energy = plan.flat.size * params.e_prog
    # every sensed column dissipates v^2/R in the cue cells for the read window
    read_energy = config.v_read**2 * config.read_duration * read_sum
    return EpochResult(
        epoch_index=epoch_index,
        program_event_count=plan.flat.size,
        recall_currents=currents,
        fired=fired,
        recalled=plan.missing <= fired,
        false_firings=fired - pattern.on,
        program_energy=program_energy,
        read_energy=read_energy,
        epoch_energy=program_energy + read_energy,
    )


def _budget(stored, pulses, read, plan, params, children, m):
    """``m`` epochs of ``_pulse`` in one pass: the stored cells and read block after each.

    Returns ``(m, stored)`` rows and ``(m, cue, sensed)`` blocks, with every
    value ``_pulse`` gives epoch by epoch, as new arrays. Each epoch's factors
    ``exp(sigma_c2c * z - step)`` are taken at once, and the rows are their
    running product from ``stored``, in ``stored *= z``'s order. The floor
    is applied as each epoch's ``np.maximum`` applies it: the first row with
    a cell below it is clamped, the rows after it are recomputed from the
    clamped row and their kept factors, and so on until no row has one.
    One epoch is ``_pulse`` itself on copies, which costs half the pass.
    """
    if m == 1:
        stored, read = stored.copy(), read.copy()
        _pulse(stored, read, next(children).standard_normal(len(stored)),
               decay_log_steps(params, pulses), plan, params)
        return stored[None], read[None]
    z = np.empty((m, len(stored)))
    for row, rng in zip(z, children):  # rows first, so no block past the last is hashed
        rng.standard_normal(out=row)
    z *= params.sigma_c2c
    z -= decay_log_steps(params, pulses + np.arange(m)[:, None])
    np.exp(z, out=z)
    rows = np.empty((m + 1, len(stored)))  # row k: the stored cells after epoch k
    rows[0] = stored
    k = 0
    while True:
        rows[k + 1:] = z[k:]
        np.multiply.accumulate(rows[k:], axis=0, out=rows[k:])
        low = (rows[k + 1:] < params.r_set_floor).any(axis=1)
        if not low.any():
            break
        k += 1 + int(low.argmax())
        np.maximum(rows[k], params.r_set_floor, out=rows[k])
    reads = np.empty((m, *read.shape))  # C-contiguous, so each block reduces as ``read`` does
    reads[:] = read
    reads[..., plan.hidden] = 1.0 / rows[1:].take(plan.refresh, axis=-1)
    return rows[1:], reads


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
    each recall is a fresh read. This is ``run_learning``'s epoch on state
    gathered from ``array`` and written back to it: the pattern's stored
    cells and their pulse counts, and the cue's read block, of which only
    the (cue, pattern minus cue) cells change.
    """
    _check_patterns(array.geometry, pattern, partial, config.recall_on_count)
    plan = _plan(array.geometry, pattern, partial)
    stored, pulses, read = _gather(array, plan)
    params = array.params
    _pulse(stored, read, rng.standard_normal(len(stored)), decay_log_steps(params, pulses),
           plan, params)
    array.resistance.put(plan.flat, stored)
    array.pulses_applied.put(plan.flat, pulses + 1)
    return _result(epoch_index, (config.v_read * read.sum(axis=0)).tolist(), float(read.sum()),
                   plan, pattern, threshold, config, params)


def run_learning(
    array: CrossbarState,
    pattern: Pattern,
    missing_pixel: int,
    config: NetworkConfig,
    *,
    stream_offset: int = 0,
    threshold: float | None = None,
    record_maps: bool = True,
) -> LearningTrace:
    """Train until the missing pixel recalls or the epoch budget runs out.

    Epoch k draws from child ``stream_offset + k - 1`` of the training root
    of ``array.seed``, read by index, so a trace replays exactly from its
    seed and offset regardless of where it stops. A negative offset raises
    ``ParameterError``.
    ``threshold`` defaults to ``compute_threshold`` of the as-built map;
    ``math.inf`` never recalls, so the run trains through ``max_epochs`` and
    records the full current trajectory, as the fig6 tables do.
    Non-convergence is a reported outcome, not an error.

    The run gathers its state once: the pattern's stored cells with their
    pulse counts, and the cue's read-block conductances. Its indices and
    cue are looked up once per (geometry, pattern, missing pixel, cue size).
    It then trains in chunks of epochs, each in one pass (``_budget``) with
    ``train_epoch``'s arithmetic: every epoch updates the stored cells and
    refreshes only the read block's (cue, missing) cells. A chunk's recall
    test is one compare of its missing-pixel column; the run keeps the
    epochs up to the first recall and goes on from the last one kept. At
    ``math.inf`` the whole budget is one chunk. At a finite threshold the
    first epoch is a chunk of its own, since most runs at low variation
    recall there; the next chunk runs to the end of the ``_EPOCH_BLOCK``
    block of children that holds the next child, and later chunks are whole
    blocks, each capped at the budget left. Epochs trained past the recall
    are dropped; their children were hashed with the recall epoch's block,
    and no block past it is hashed.
    The stored cells are written back to ``array.resistance`` before each
    recorded map and at the end, and the pulse counts at the end. The trace
    keeps each epoch's currents and read-block sum as columns.
    """
    plan = _run_plan(array.geometry, pattern, missing_pixel, config.recall_on_count)
    children = _training_children(array.seed, stream_offset)
    if threshold is None:
        threshold = compute_threshold(array.initial_resistance, config)
    maps = [resistance_map(array)] if record_maps else []
    stored, pulses, read = _gather(array, plan)
    params = array.params
    m = config.max_epochs
    column = plan.sensed.index(missing_pixel)  # the run's one hidden column
    currents, read_sums = [], []
    done, epochs_to_recall = 0, None
    while done < m and epochs_to_recall is None:
        if threshold == math.inf:  # no epoch can recall, so none waits on the one before
            n = m
        elif not done:
            n = 1
        else:
            n = min(_EPOCH_BLOCK - (stream_offset + done) % _EPOCH_BLOCK, m - done)
        rows, reads = _budget(stored, pulses, read, plan, params, children, n)
        chunk = config.v_read * reads.sum(axis=1)
        recalled = chunk[:, column] > threshold
        first = int(recalled.argmax())
        if recalled[first]:
            n = first + 1
            epochs_to_recall = done + n
        if record_maps:
            for cells in rows[:n]:
                array.resistance.put(plan.flat, cells)
                maps.append(resistance_map(array))
        currents.append(chunk[:n])
        read_sums += reads[:n].reshape(n, -1).sum(axis=1).tolist()
        stored, read = rows[n - 1], reads[n - 1]
        pulses += n
        done += n
    array.resistance.put(plan.flat, stored)
    array.pulses_applied.put(plan.flat, pulses)
    count = plan.flat.size * done
    # each epoch's read energy as _result takes it, added left to right: from
    # Python 3.12 on, sum() compensates float rounding and would move the last
    # bits; run_cohort adds in this order
    read_cost = config.v_read**2 * config.read_duration
    read_energy = 0.0
    for read_sum in read_sums:
        read_energy += read_cost * read_sum
    program_energy = count * params.e_prog  # exact count * e_prog identity
    return LearningTrace(
        pattern=pattern,
        missing_pixel=missing_pixel,
        threshold=threshold,
        variation_cv=array.variation.cv,
        seed=array.seed,
        converged=epochs_to_recall is not None,
        epochs_to_recall=epochs_to_recall,
        currents=currents[0] if len(currents) == 1 else np.concatenate(currents),
        read_sums=read_sums,
        _context=(plan, config, params),
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
    cvs. Each seed's build and training pools are mixed once per cohort,
    for all seeds at once (``_pools``). The build roots are
    hashed from their pools up front; while any of a seed's cvs still
    trains, its epoch children are hashed from its training pool in blocks
    of ``_EPOCH_BLOCK`` epochs, for the seeds still training only, so memory
    does not grow with ``max_epochs``. Seeds are simulated in the order
    given, and a repeated seed is simulated again, so it repeats its column.
    Bad patterns raise the same errors as ``run_learning``, before any
    stream is hashed or any array is built.

    The epoch loop holds only what the live runs need, in small contiguous
    arrays: each run's stored (pattern x pattern) cells, the only ones a
    Hebbian update touches; its read-block conductances, whose columns off
    the pattern never change and are computed once from the as-built map;
    its threshold, its read energy so far and its row among the live seeds.
    Every epoch gathers each live run's draws by its seed row, then updates
    the stored cells and refreshes the read block's (cue, missing) cells
    through the step ``run_learning`` takes, and reads all live runs with
    the scalar path's elementwise operations in its order. Runs that
    recall are dropped by one mask, and the live seeds, their child words
    and the run-to-seed map are rebuilt only then. The read block stays
    C-contiguous, so each run's block sums as one flat pairwise reduction,
    as the scalar ``(cue, sensed)`` block does; a strided block would sum in
    another order and move the read energy by an ULP.
    """
    geometry = geometry or ArrayGeometry()
    variations = [VariationSpec(cv=float(cv), device_share=device_share) for cv in cvs]
    seeds = tuple(int(s) for s in seeds)
    plan = _run_plan(geometry, pattern, missing_pixel, config.recall_on_count)

    shape = (geometry.rows, geometry.cols)
    z_dev, z_cyc = np.empty((2, len(seeds), *shape))
    for u, words in enumerate(_pcg64_words(_pools(seeds, BUILD))):
        z_dev[u], z_cyc[u] = build_draws(word_generator(words), shape)
    pools = _pools(seeds, TRAINING)
    # run r is cv r // len(seeds) on seed seeds[r % len(seeds)]
    resistance = np.empty((len(variations) * len(seeds), *shape))
    threshold = np.empty(len(resistance))
    for i, v in enumerate(variations):
        rows = slice(i * len(seeds), (i + 1) * len(seeds))
        resistance[rows] = as_built_resistance(
            params, v.sigma_device, v.sigma_cycle, z_dev, z_cyc
        )
        threshold[rows] = compute_threshold(resistance[rows], config)
    del z_dev, z_cyc

    stored = resistance.reshape(len(resistance), shape[0] * shape[1]).take(plan.flat, axis=1)
    cue_rows, sensed_cols = plan.read_block
    read = np.empty((len(resistance), cue_rows.size, sensed_cols.size))  # C-contiguous, see above
    np.divide(1.0, resistance[:, cue_rows, sensed_cols], out=read)
    del resistance
    read_cost = config.v_read**2 * config.read_duration

    epochs = np.full(len(stored), config.max_epochs, dtype=np.int64)
    converged = np.zeros(len(stored), dtype=bool)
    read_energy = np.zeros(len(stored))
    run = np.arange(len(stored))  # the live runs' global indices
    energy = np.zeros(len(stored))  # the live runs' read energy so far
    live = np.arange(len(seeds))  # the live seeds, as indices into seeds
    seed_row = np.tile(live, len(variations))  # each live run's row among the live seeds
    draws = np.empty((len(seeds), plan.flat.size))
    for epoch in range(1, config.max_epochs + 1):
        if not run.size:
            break
        offset = (epoch - 1) % _EPOCH_BLOCK
        if offset == 0:  # epoch k draws from child k - 1 of each live seed's training root
            keys = range(epoch - 1, epoch - 1 + _EPOCH_BLOCK)
            words = _stream_children([seeds[u] for u in live], TRAINING, pools[live], keys)
        z = draws[: live.size]
        for w, row in zip(words[:, offset], z):
            word_generator(w).standard_normal(out=row)
        # on a fresh array every stored cell has taken epoch - 1 pulses
        _pulse(stored, read, z.take(seed_row, axis=0), decay_log_steps(params, epoch - 1),
               plan, params)

        energy += read_cost * read.reshape(run.size, -1).sum(axis=1)
        current = read.sum(axis=1)[:, plan.hidden].ravel()  # the one missing pixel's column
        recalled = config.v_read * current > threshold
        if not recalled.any():
            continue
        done = run[recalled]
        epochs[done], converged[done], read_energy[done] = epoch, True, energy[recalled]
        run, stored, read, threshold, energy, seed_row = (
            a[~recalled] for a in (run, stored, read, threshold, energy, seed_row)
        )
        still = np.zeros(live.size, dtype=bool)
        still[seed_row] = True
        live, words = live[still], words[still]
        seed_row = (np.cumsum(still) - 1)[seed_row]
    read_energy[run] = energy

    total_energy = (plan.flat.size * epochs) * params.e_prog + read_energy
    grid = (len(variations), len(seeds))
    return CohortOutcome(
        cvs=tuple(v.cv for v in variations),
        seeds=seeds,
        epochs=epochs.reshape(grid),
        converged=converged.reshape(grid),
        read_energy=read_energy.reshape(grid),
        total_energy=total_energy.reshape(grid),
    )


def run_two_pattern_protocol(
    array: CrossbarState, config: NetworkConfig
) -> tuple[LearningTrace, LearningTrace]:
    """Store both patterns back to back on one array, no reset in between.

    The threshold comes from the as-built map and is shared by both runs;
    the training stream continues from the first run into the second, whose
    first epoch reads child ``e1`` of the root after the first run's ``e1``
    epochs.
    """
    threshold = compute_threshold(array.initial_resistance, config)
    first = run_learning(array, PATTERN_ONE, MISSING_PIXEL_ONE, config, threshold=threshold)
    second = run_learning(
        array, PATTERN_TWO, MISSING_PIXEL_TWO, config, stream_offset=len(first.read_sums),
        threshold=threshold,
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
