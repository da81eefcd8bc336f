"""Crossbar array: build, parallel gradual updates, recall-phase reads.

State lives in dense numpy arrays (one entry per cell) rather than objects,
which keeps the 25-cell update phase and the column-sum reads vectorized.
The indices an update or a read needs depend only on the firing set and the
geometry, so ``firing_plan`` builds them once per set and caches them:
``apply_update_phase`` gathers and scatters its cells by flat index and
``read_recall_currents`` reads its block without building an index array.
Training in ``hopfield`` takes the same indices once per run, gathers the
stored cells and the read block once, and writes the cells back only when
it records a map and when the run ends.

Indexing convention: wordlines and bitlines are 1-based in every public
signature, matching how the neurons are numbered. Array storage is 0-based
with wordlines as rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import device
from .calibrated import build_stream
from .device import DeviceParams, VariationSpec
from .errors import ParameterError

__all__ = [
    "ArrayGeometry",
    "CrossbarState",
    "build_draws",
    "as_built_resistance",
    "build_array",
    "FiringPlan",
    "firing_plan",
    "apply_update_phase",
    "read_recall_currents",
    "resistance_map",
]


@dataclass(frozen=True)
class ArrayGeometry:
    rows: int = 10
    cols: int = 10

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(f"geometry must be at least 1x1, got {self.rows}x{self.cols}")


@dataclass
class CrossbarState:
    """Dense per-cell state for one array plus its build inputs."""

    geometry: ArrayGeometry
    params: DeviceParams
    variation: VariationSpec
    seed: int
    resistance: np.ndarray
    initial_resistance: np.ndarray = field(repr=False)
    pulses_applied: np.ndarray = field(repr=False)


def build_draws(rng: np.random.Generator, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A build stream's normal draws for one array: device block, then cycle block.

    Both come from one ``(2, *shape)`` draw. They depend only on the stream
    and ``shape``, never on the variation level, so one pair serves the same
    seed's array at every cv.
    """
    z = rng.standard_normal((2, *shape))
    return z[0], z[1]  # indexing is cheaper than unpacking through the iterator


def as_built_resistance(params: DeviceParams, sigma_device, sigma_cycle, z_dev, z_cyc):
    """The clamped as-built RESET map from the build draws.

    Elementwise, so draws stacked on a leading seed axis give every array
    the values ``build_array`` gives it alone.
    """
    resistance = params.r_reset_median * np.exp(sigma_device * z_dev) * np.exp(sigma_cycle * z_cyc)
    np.maximum(resistance, params.r_set_floor, out=resistance)
    return resistance


def build_array(
    geometry: ArrayGeometry,
    params: DeviceParams,
    variation: VariationSpec,
    seed: int,
) -> CrossbarState:
    """RESET every cell once and freeze those values as the initial map.

    Uses the dedicated build stream of ``seed`` and consumes exactly two
    rows*cols blocks of normal draws: device factors first, then the cycle
    draws, both in row-major cell order.
    """
    shape = (geometry.rows, geometry.cols)
    z_dev, z_cyc = build_draws(build_stream(seed), shape)
    resistance = as_built_resistance(
        params, variation.sigma_device, variation.sigma_cycle, z_dev, z_cyc
    )
    return CrossbarState(
        geometry=geometry,
        params=params,
        variation=variation,
        seed=seed,
        resistance=resistance,
        initial_resistance=resistance.copy(),
        pulses_applied=np.zeros(shape, dtype=np.int64),
    )


class FiringPlan(NamedTuple):
    """The cells and read block of one firing set on one geometry; arrays are read-only."""

    neurons: tuple[int, ...]  # sorted, 1-based
    cells: tuple[tuple[int, int], ...]  # (wordline, bitline), row-major
    flat: np.ndarray  # C-order flat index of each cell
    sensed: tuple[int, ...]  # the bitlines of the non-firing neurons
    read_block: tuple[np.ndarray, np.ndarray]  # np.ix_(firing rows, sensed columns)


@functools.lru_cache(maxsize=128)
def firing_plan(firing: frozenset, rows: int, cols: int) -> FiringPlan:
    """Validate ``firing`` against a ``rows`` x ``cols`` array and build its indices once."""
    neurons = tuple(sorted(firing))
    limit = min(rows, cols)
    for n in neurons:
        if not 1 <= n <= limit:
            raise ParameterError(f"firing neuron {n} outside 1..{limit}")
    cells = tuple((w, b) for w in neurons for b in neurons)
    flat = np.array([(w - 1) * cols + (b - 1) for w, b in cells], dtype=np.intp)
    sensed = tuple(b for b in range(1, cols + 1) if b not in firing)
    block = np.ix_(np.array(neurons, dtype=np.intp) - 1, np.array(sensed, dtype=np.intp) - 1)
    for a in (flat, *block):
        a.flags.writeable = False
    return FiringPlan(neurons, cells, flat, sensed, block)


def apply_update_phase(
    array: CrossbarState, firing, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], float]:
    """One Hebbian update phase: a gradual SET pulse at every (firing, firing) cell.

    Cells are pulsed in row-major order over the sorted firing set, each
    advancing one step down its own staircase; the update consumes one
    normal draw per cell. The cells come from ``firing_plan`` and are
    gathered and scattered by their flat indices, which ``take`` and ``put``
    read in C order whatever the arrays' memory layout. Returns the pulsed
    (wordline, bitline) pairs and the programming energy, counted as
    pulses * e_prog.
    """
    plan = firing_plan(frozenset(firing), array.geometry.rows, array.geometry.cols)
    if not plan.cells:
        return [], 0.0
    params = array.params
    pulses = array.pulses_applied.take(plan.flat)
    steps = device.decay_log_steps(params, pulses)
    eps = params.sigma_c2c * rng.standard_normal(len(plan.cells))
    r_new = array.resistance.take(plan.flat) * np.exp(-steps + eps)
    array.resistance.put(plan.flat, np.maximum(params.r_set_floor, r_new))
    array.pulses_applied.put(plan.flat, pulses + 1)
    return list(plan.cells), len(plan.cells) * params.e_prog


def read_recall_currents(array: CrossbarState, firing, v_read: float) -> dict[int, float]:
    """Column currents on the non-firing bitlines with the firing wordlines driven.

    Each sensed bitline integrates ``v_read / R`` over the firing wordlines
    (Kirchhoff sum down the column), read through the ``firing_plan``
    block. Firing neurons' own bitlines are not sensed. Pure: no cell state
    changes. An empty firing set reads all zeros.
    """
    if v_read < 0.0:
        raise ParameterError(f"v_read must be >= 0, got {v_read}")
    plan = firing_plan(frozenset(firing), array.geometry.rows, array.geometry.cols)
    if not plan.neurons:
        return dict.fromkeys(plan.sensed, 0.0)
    totals = v_read * (1.0 / array.resistance[plan.read_block]).sum(axis=0)
    return dict(zip(plan.sensed, totals.tolist()))


def resistance_map(array: CrossbarState, normalized: bool = True) -> np.ndarray:
    """Copy of the resistance matrix, divided by the initial map when normalized.

    A fresh array is exactly 1.0 everywhere; untouched cells stay exactly 1.0
    forever, which makes programmed regions easy to spot.
    """
    if normalized:
        return array.resistance / array.initial_resistance
    return array.resistance.copy()
