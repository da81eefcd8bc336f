"""Read-bias sensitivity and variation sweeps.

Recall currents are exactly linear in the read bias and nothing else in a
run depends on it. So against the fixed threshold ``T``, a bias raised by
``d`` recalls sooner iff ``(1 + d) * M > T`` for the largest current ``M``
before the recall epoch, and one lowered by ``d`` recalls later or never iff
``(1 - d) * I_b <= T`` for the current ``I_b`` at it. IEEE rounding is
monotone, so these two products decide for every epoch of the run.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .calibrated import CALIBRATED_DEVICE_SHARE
from .crossbar import ArrayGeometry, build_array
from .device import DeviceParams, VariationSpec
from .errors import ParameterError, ProtocolError
from .hopfield import (
    MISSING_PIXEL_ONE,
    PATTERN_ONE,
    CohortOutcome,
    NetworkConfig,
    run_cohort,
    run_learning,
)

__all__ = [
    "SensitivityResult",
    "DEFAULT_PERTURBATION_GRID",
    "read_voltage_sensitivity",
    "variation_sweep",
    "sweep_rows",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]

# relative bias perturbations scanned for the flip point: 1% .. 50%
DEFAULT_PERTURBATION_GRID = tuple(round(k / 100.0, 2) for k in range(1, 51))

SWEEP_COLUMNS = ("cv", "median_epochs", "median_energy_joules", "n_seeds", "n_nonconverged")


@dataclass(frozen=True)
class SensitivityResult:
    """Smallest relative read-bias change that alters the epochs-to-recall."""

    cv: float
    seed: int
    v_read: float
    threshold: float
    base_epochs: int
    grid: tuple[float, ...]
    min_relative_perturbation: float | None
    flip_direction: str | None  # "up", "down", or "both"

    @property
    def flipped(self) -> bool:
        return self.min_relative_perturbation is not None

    def to_dict(self) -> dict:
        return {
            "cv": self.cv,
            "seed": self.seed,
            "v_read": self.v_read,
            "threshold_amps": self.threshold,
            "base_epochs": self.base_epochs,
            "grid": list(self.grid),
            "min_relative_perturbation": self.min_relative_perturbation,
            "flip_direction": self.flip_direction,
            "flipped": self.flipped,
        }


@functools.lru_cache(maxsize=8)
def _checked_grid(grid: tuple) -> tuple[float, ...]:
    """``grid`` as floats; raise unless it ascends strictly within (0, 1).

    Numpy scalars and 0-d arrays are read as floats; any other entry that
    is not a real number raises ``ParameterError``. Each distinct hashable
    grid is checked once.
    """
    values = [0.0]
    for d in grid:
        if isinstance(d, np.ndarray) and d.ndim == 0:
            d = d[()]
        if not isinstance(d, numbers.Real):
            raise ParameterError(f"perturbation grid entries must be real numbers, got {d!r}")
        d = float(d)
        if not 0.0 < d < 1.0 or d <= values[-1]:
            raise ParameterError("perturbation grid must be ascending within (0, 1)")
        values.append(d)
    return tuple(values[1:])


def read_voltage_sensitivity(
    params: DeviceParams,
    variation: VariationSpec,
    network: NetworkConfig,
    seed: int,
    *,
    grid: tuple[float, ...] = DEFAULT_PERTURBATION_GRID,
) -> SensitivityResult:
    """The smallest grid step that changes the epochs-to-recall, up or down.

    Builds the default 10x10 array for ``seed`` and trains pattern one with
    its missing pixel as the target up to the recall epoch ``b``. A bias
    scaled by ``1 + d`` recalls before ``b`` iff ``(1 + d) * M > T`` for the
    largest current ``M`` before ``b``, since rounding is monotone, and
    ``(1 + d) * I_b >= I_b > T`` still recalls by ``b``. A bias scaled by
    ``1 - d`` cannot recall before ``b``, as ``(1 - d) * I_e <= I_e <= T``,
    so it changes the outcome iff ``(1 - d) * I_b <= T``. A run that recalls
    in epoch one has no ``M``, so only a lowered bias can flip it. Returns
    the sentinel (None) when no grid entry flips. Raises ProtocolError when
    the unperturbed run never recalls: there is no baseline to compare with.
    ``grid`` may be any iterable of real numbers; it is read once, into a
    tuple of floats.
    """
    grid = tuple(grid)
    try:
        grid = _checked_grid(grid)
    except TypeError:  # an unhashable entry, such as a 0-d array: checked uncached
        grid = _checked_grid.__wrapped__(grid)
    arr = build_array(ArrayGeometry(), params, variation, seed)
    trace = run_learning(arr, PATTERN_ONE, MISSING_PIXEL_ONE, network, record_maps=False)
    if not trace.converged:
        raise ProtocolError(
            f"baseline run (cv={variation.cv}, seed={seed}) never recalled; "
            "sensitivity is undefined without a baseline"
        )
    *earlier, recall = trace.bitline_currents(MISSING_PIXEL_ONE)
    peak = max(earlier) if earlier else None
    threshold = trace.threshold
    min_delta = None
    direction = None
    for d in grid:
        up_flip = peak is not None and (1.0 + d) * peak > threshold
        down_flip = (1.0 - d) * recall <= threshold
        if up_flip or down_flip:
            min_delta = d
            direction = "both" if (up_flip and down_flip) else ("up" if up_flip else "down")
            break
    return SensitivityResult(
        cv=variation.cv,
        seed=seed,
        v_read=network.v_read,
        threshold=threshold,
        base_epochs=trace.epochs_to_recall,
        grid=grid,
        min_relative_perturbation=min_delta,
        flip_direction=direction,
    )


def variation_sweep(
    cvs,
    seeds,
    params: DeviceParams,
    network: NetworkConfig,
    *,
    device_share: float = CALIBRATED_DEVICE_SHARE,
) -> list[dict]:
    """Median epochs and energy per variation level, widest distribution first.

    ``seeds`` is either a count (runs seeds 0..n-1; numpy integers count too)
    or an explicit iterable.
    Every (cv, seed) run stores pattern one on a default 10x10 array through
    the batched ``run_cohort`` engine, which matches ``run_learning`` bit for
    bit; ``sweep_rows`` turns its outcomes into the table.
    """
    try:
        seed_list = list(range(operator.index(seeds)))
    except TypeError:  # not an integral count: the seeds themselves
        seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise ParameterError("sweep needs at least one seed")
    levels = sorted(set(float(c) for c in cvs), reverse=True)
    return sweep_rows(run_cohort(levels, seed_list, params, network, device_share=device_share))


def sweep_rows(cohort: CohortOutcome) -> list[dict]:
    """One table row per cv of the cohort, in the cohort's cv order.

    Medians are taken over converged runs; non-converged ones are counted
    separately, never silently dropped.
    """
    rows = []
    for cv, epochs, converged, energies in zip(
        cohort.cvs, cohort.epochs, cohort.converged, cohort.total_energy
    ):
        done = converged.any()
        rows.append(
            {
                "cv": cv,
                "median_epochs": float(np.median(epochs[converged])) if done else None,
                "median_energy_joules": float(np.median(energies[converged])) if done else None,
                "n_seeds": len(cohort.seeds),
                "n_nonconverged": int((~converged).sum()),
            }
        )
    return rows


def write_sweep_csv(rows, path, provenance: dict | None = None) -> None:
    data = [[row[col] for col in SWEEP_COLUMNS] for row in rows]
    write_csv(path, SWEEP_COLUMNS, data, provenance=provenance)

