"""Crossbar array: build, parallel gradual updates, recall-phase reads.

State lives in dense numpy arrays (one entry per cell) rather than objects,
which keeps the 25-cell update phase and the column-sum reads vectorized.

Indexing convention: wordlines and bitlines are 1-based in every public
signature, matching how the neurons are numbered. Array storage is 0-based
with wordlines as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    device_factor: np.ndarray
    initial_resistance: np.ndarray = field(repr=False)
    pulses_applied: np.ndarray = field(repr=False)


def build_draws(seed: int, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The build stream's normal draws for one array: device block, then cycle block.

    They depend only on ``seed`` and ``shape``, never on the variation level,
    so one pair serves the same seed's array at every cv.
    """
    rng = build_stream(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def as_built_resistance(params: DeviceParams, sigma_device, sigma_cycle, z_dev, z_cyc):
    """Device factors and the clamped as-built RESET map from the build draws.

    Elementwise, so draws stacked on a leading seed axis give every array
    the values ``build_array`` gives it alone.
    """
    factor = np.exp(sigma_device * z_dev)
    resistance = params.r_reset_median * factor * np.exp(sigma_cycle * z_cyc)
    np.maximum(resistance, params.r_set_floor, out=resistance)
    return factor, resistance


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
    z_dev, z_cyc = build_draws(seed, shape)
    factor, resistance = as_built_resistance(
        params, variation.sigma_device, variation.sigma_cycle, z_dev, z_cyc
    )
    return CrossbarState(
        geometry=geometry,
        params=params,
        variation=variation,
        seed=seed,
        resistance=resistance,
        device_factor=factor,
        initial_resistance=resistance.copy(),
        pulses_applied=np.zeros(shape, dtype=np.int64),
    )


def _check_firing(array: CrossbarState, firing) -> list[int]:
    neurons = sorted(set(firing))
    limit = min(array.geometry.rows, array.geometry.cols)
    for n in neurons:
        if not 1 <= n <= limit:
            raise ParameterError(f"firing neuron {n} outside 1..{limit}")
    return neurons


def apply_update_phase(
    array: CrossbarState, firing, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], float]:
    """One Hebbian update phase: a gradual SET pulse at every (firing, firing) cell.

    Cells are pulsed in row-major order over the sorted firing set, each
    advancing one step down its own staircase; the update consumes one
    normal draw per cell. Returns the pulsed (wordline, bitline) pairs and
    the programming energy, counted as pulses * e_prog.
    """
    neurons = _check_firing(array, firing)
    cells = [(w, b) for w in neurons for b in neurons]
    if not cells:
        return [], 0.0
    params = array.params
    wl = np.array([w - 1 for w, _ in cells], dtype=np.intp)
    bl = np.array([b - 1 for _, b in cells], dtype=np.intp)
    steps = device.decay_log_steps(params, array.pulses_applied[wl, bl])
    eps = params.sigma_c2c * rng.standard_normal(len(cells))
    r_new = array.resistance[wl, bl] * np.exp(-steps + eps)
    array.resistance[wl, bl] = np.maximum(params.r_set_floor, r_new)
    array.pulses_applied[wl, bl] += 1
    return cells, len(cells) * params.e_prog


def read_recall_currents(array: CrossbarState, firing, v_read: float) -> dict[int, float]:
    """Column currents on the non-firing bitlines with the firing wordlines driven.

    Each sensed bitline integrates ``v_read / R`` over the firing wordlines
    (Kirchhoff sum down the column). Firing neurons' own bitlines are not
    sensed. Pure: no cell state changes. An empty firing set reads all zeros.
    """
    if v_read < 0.0:
        raise ParameterError(f"v_read must be >= 0, got {v_read}")
    neurons = _check_firing(array, firing)
    sensed = [b for b in range(1, array.geometry.cols + 1) if b not in set(neurons)]
    if not neurons:
        return {b: 0.0 for b in sensed}
    rows = np.array([n - 1 for n in neurons], dtype=np.intp)
    cols = np.array([b - 1 for b in sensed], dtype=np.intp)
    conductance = 1.0 / array.resistance[np.ix_(rows, cols)]
    totals = v_read * conductance.sum(axis=0)
    return {b: float(i) for b, i in zip(sensed, totals)}


def resistance_map(array: CrossbarState, normalized: bool = True) -> np.ndarray:
    """Copy of the resistance matrix, divided by the initial map when normalized.

    A fresh array is exactly 1.0 everywhere; untouched cells stay exactly 1.0
    forever, which makes programmed regions easy to spot.
    """
    if normalized:
        return array.resistance / array.initial_resistance
    return array.resistance.copy()
