"""Single phase-change cell: pulse shapes, stochastic states, programming ops.

The cell is a two-terminal GST mushroom device behind a select transistor.
Only resistance matters to the network model, so the state is one float plus
bookkeeping. Three stochastic ingredients:

- device-to-device spread: a per-cell lognormal factor, fixed at fabrication
- cycle-to-cycle spread: a fresh lognormal draw on every RESET
- programming noise: lognormal jitter on every gradual SET step

All randomness flows through a caller-supplied numpy Generator, and every
sampling helper consumes a fixed number of draws, so any run can be replayed
exactly by re-seeding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "Pulse",
    "SET_PULSE",
    "RESET_PULSE",
    "GRADUAL_SET_PULSE",
    "lognormal_sigma",
    "VariationSpec",
    "DeviceParams",
    "CellState",
    "sample_device_factor",
    "sample_reset_resistance",
    "gradual_step_fraction",
    "decay_log_steps",
    "apply_gradual_set",
    "apply_full_set",
    "apply_full_reset",
]


@dataclass(frozen=True)
class Pulse:
    """Trapezoidal voltage pulse: amplitude plus rise/plateau/fall times."""

    amplitude_v: float
    rise_s: float
    width_s: float
    fall_s: float

    def __post_init__(self):
        if self.amplitude_v <= 0.0:
            raise ParameterError(f"pulse amplitude must be positive, got {self.amplitude_v}")
        for name in ("rise_s", "width_s", "fall_s"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"pulse {name} must be >= 0")


SET_PULSE = Pulse(amplitude_v=1.0, rise_s=50e-9, width_s=300e-9, fall_s=1e-6)
# RESET needs an abrupt trailing edge so the molten dome quenches amorphous
RESET_PULSE = Pulse(amplitude_v=1.5, rise_s=5e-9, width_s=50e-9, fall_s=5e-9)
GRADUAL_SET_PULSE = Pulse(amplitude_v=0.85, rise_s=50e-9, width_s=300e-9, fall_s=1e-6)

# exp(x) overflows above this, so a lognormal's spread sqrt(exp(sigma**2) - 1)
# overflows once sigma**2 passes it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def lognormal_sigma(cv: float) -> float:
    """Log-space sigma giving a lognormal the requested coefficient of variation."""
    if cv < 0.0:
        raise ParameterError(f"coefficient of variation must be >= 0, got {cv}")
    return math.sqrt(math.log1p(cv * cv))


@dataclass(frozen=True)
class VariationSpec:
    """How much resistance spread to simulate and how it splits across sources.

    ``cv`` is the coefficient of variation of the pooled RESET distribution.
    ``device_share`` is the fraction of the log-space variance pinned to the
    device (fixed per cell); the rest refreshes on every RESET.
    """

    cv: float
    device_share: float = 0.8

    def __post_init__(self):
        if not math.isfinite(self.cv) or self.cv < 0.0:
            raise ParameterError(f"cv must be finite and >= 0, got {self.cv}")
        if not math.isfinite(lognormal_sigma(self.cv)):
            raise ParameterError(f"cv {self.cv} is too large: its log-space sigma overflows")
        if not 0.0 <= self.device_share <= 1.0:
            raise ParameterError(f"device_share must be in [0, 1], got {self.device_share}")

    @property
    def sigma_total(self) -> float:
        return lognormal_sigma(self.cv)

    @property
    def sigma_device(self) -> float:
        return math.sqrt(self.device_share) * self.sigma_total

    @property
    def sigma_cycle(self) -> float:
        return math.sqrt(1.0 - self.device_share) * self.sigma_total


@dataclass(frozen=True)
class DeviceParams:
    """Nominal cell parameters.

    ``decay_schedule`` controls the gradual SET staircase: entry k is the
    fraction of the full RESET-to-floor log swing removed by pulse k. When
    None, the swing splits uniformly over ``gradual_levels`` pulses. Pulses
    past the end of the schedule keep applying the last entry, so a cell can
    always be driven to the floor eventually.
    """

    r_reset_median: float = 3.0e6
    r_set_floor: float = 1.0e4
    gradual_levels: int = 9
    sigma_c2c: float = 0.10
    e_prog: float = 1.92e-10
    e_reset: float | None = None
    pcm_energy_fraction: float = 0.10
    v_read_default: float = 0.1
    decay_schedule: tuple[float, ...] | None = None
    set_pulse: Pulse = SET_PULSE
    reset_pulse: Pulse = RESET_PULSE
    gradual_set_pulse: Pulse = GRADUAL_SET_PULSE

    def __post_init__(self):
        if not math.isfinite(self.r_set_floor) or self.r_set_floor <= 0.0:
            raise ParameterError("r_set_floor must be finite and positive")
        if not math.isfinite(1.0 / self.r_set_floor):
            raise ParameterError(
                f"r_set_floor {self.r_set_floor} is too small: its conductance overflows"
            )
        if not math.isfinite(self.r_reset_median) or self.r_reset_median <= self.r_set_floor:
            raise ParameterError(
                f"r_reset_median ({self.r_reset_median}) must exceed "
                f"r_set_floor ({self.r_set_floor})"
            )
        if self.gradual_levels < 1:
            raise ParameterError("gradual_levels must be >= 1")
        if not math.isfinite(self.sigma_c2c) or self.sigma_c2c < 0.0:
            raise ParameterError("sigma_c2c must be finite and >= 0")
        if self.sigma_c2c * self.sigma_c2c >= _LOG_FLOAT_MAX:
            raise ParameterError(
                f"sigma_c2c {self.sigma_c2c} is too large: its lognormal spread overflows"
            )
        if not math.isfinite(self.e_prog) or self.e_prog <= 0.0:
            raise ParameterError("e_prog must be finite and positive")
        if self.e_reset is not None and (not math.isfinite(self.e_reset) or self.e_reset <= 0.0):
            raise ParameterError("e_reset must be finite and positive when given")
        if not 0.0 <= self.pcm_energy_fraction <= 1.0:
            raise ParameterError("pcm_energy_fraction must be in [0, 1]")
        if not math.isfinite(self.v_read_default) or self.v_read_default < 0.0:
            raise ParameterError("v_read_default must be finite and >= 0")
        if self.decay_schedule is not None:
            if len(self.decay_schedule) == 0:
                raise ParameterError("decay_schedule must not be empty")
            if any(not math.isfinite(f) or f <= 0.0 for f in self.decay_schedule):
                raise ParameterError("decay_schedule entries must be finite and positive")
            object.__setattr__(self, "decay_schedule", tuple(self.decay_schedule))

    @property
    def reset_energy(self) -> float:
        """Per-RESET energy; falls back to the programming energy."""
        return self.e_prog if self.e_reset is None else self.e_reset

    @property
    def log_swing(self) -> float:
        """Full log-space distance from the RESET median down to the SET floor."""
        return math.log(self.r_reset_median / self.r_set_floor)


@dataclass
class CellState:
    """Mutable state of one cell.

    ``initial_reset_resistance`` freezes the very first RESET value; the
    recall threshold is derived from those, never from later states.
    ``pulses_applied`` counts gradual SET pulses since the last RESET and
    selects the next staircase step.
    """

    resistance: float
    device_factor: float = 1.0
    initial_reset_resistance: float | None = field(default=None)
    pulses_applied: int = 0


def sample_device_factor(variation: VariationSpec, rng: np.random.Generator) -> float:
    """Draw the fixed per-device lognormal factor. Consumes one normal draw."""
    return math.exp(variation.sigma_device * rng.standard_normal())


def sample_reset_resistance(
    params: DeviceParams,
    variation: VariationSpec,
    device_factor: float,
    rng: np.random.Generator,
) -> float:
    """Draw one RESET resistance. Consumes exactly one normal draw.

    Pooled over fresh device factors this gives a lognormal with median
    ``r_reset_median`` and coefficient of variation ``variation.cv``.
    """
    if device_factor <= 0.0:
        raise ParameterError("device_factor must be positive")
    z = rng.standard_normal()
    r = params.r_reset_median * device_factor * math.exp(variation.sigma_cycle * z)
    return max(params.r_set_floor, r)


def gradual_step_fraction(params: DeviceParams, pulse_index: int) -> float:
    """Fraction of the log swing removed by gradual SET pulse ``pulse_index`` (1-based)."""
    if pulse_index < 1:
        raise ParameterError(f"pulse_index must be >= 1, got {pulse_index}")
    sched = params.decay_schedule
    if sched is None:
        return 1.0 / params.gradual_levels
    return sched[min(pulse_index, len(sched)) - 1]


def decay_log_steps(params: DeviceParams, pulses_applied: np.ndarray) -> np.ndarray:
    """Vectorized log-space step sizes for cells with the given pulse counts.

    ``pulses_applied`` holds pulses already seen, so cell i is about to take
    pulse ``pulses_applied[i] + 1``. Shared by the scalar cell op and the
    array update kernel so both walk the identical staircase.
    """
    if params.decay_schedule is None:
        sched = np.full(params.gradual_levels, 1.0 / params.gradual_levels)
    else:
        sched = np.asarray(params.decay_schedule, dtype=float)
    idx = np.minimum(np.asarray(pulses_applied, dtype=np.intp), len(sched) - 1)
    return sched[idx] * params.log_swing


def apply_gradual_set(
    cell: CellState, params: DeviceParams, rng: np.random.Generator
) -> tuple[CellState, float]:
    """Apply one gradual SET pulse. Consumes one draw; returns (cell, energy).

    The resistance contracts by the scheduled log step plus lognormal jitter,
    clamped at the SET floor. The cell object is mutated and returned.
    """
    step = gradual_step_fraction(params, cell.pulses_applied + 1) * params.log_swing
    eps = params.sigma_c2c * rng.standard_normal()
    cell.resistance = max(params.r_set_floor, cell.resistance * math.exp(-step + eps))
    cell.pulses_applied += 1
    return cell, params.e_prog


def apply_full_set(
    cell: CellState, params: DeviceParams, rng: np.random.Generator
) -> tuple[CellState, float]:
    """One full SET pulse: crystallize straight to the floor (plus jitter)."""
    z = rng.standard_normal()
    cell.resistance = max(
        params.r_set_floor, params.r_set_floor * math.exp(params.sigma_c2c * z)
    )
    cell.pulses_applied = params.gradual_levels
    return cell, params.e_prog


def apply_full_reset(
    cell: CellState,
    params: DeviceParams,
    variation: VariationSpec,
    rng: np.random.Generator,
) -> tuple[CellState, float]:
    """One RESET pulse: re-amorphize with a fresh cycle draw.

    The first RESET a cell ever sees is recorded as its initial resistance;
    later RESETs leave that record alone.
    """
    cell.resistance = sample_reset_resistance(params, variation, cell.device_factor, rng)
    if cell.initial_reset_resistance is None:
        cell.initial_reset_resistance = cell.resistance
    cell.pulses_applied = 0
    return cell, params.reset_energy
