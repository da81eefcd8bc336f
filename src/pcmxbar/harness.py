"""Device characterization, epoch calibration, and figure-data scripts.

``calibrate_epochs`` re-runs the search behind the shipped staircase (see
``pcmxbar.calibrated``): it scans schedule candidates of the same shape
(plus noise settings) and keeps the first one whose simulated medians sit
closest to the targets. At its default 25 seeds that is first step 0.155,
which ties the shipped 0.163 at residual 2.0.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._io import ensure_out_dir, write_csv, write_map_csv
from .calibrated import (
    CALIBRATED_DEVICE_SHARE,
    CALIBRATED_SIGMA_C2C,
    VARIATION_LEVELS,
    build_decay_schedule,
    calibrated_device_params,
    calibrated_variation,
    characterization_stream,
    training_stream,
)
from .crossbar import ArrayGeometry, build_array, resistance_map
from .device import (
    CellState,
    DeviceParams,
    VariationSpec,
    apply_full_reset,
    apply_full_set,
    apply_gradual_set,
    sample_device_factor,
)
from .errors import ConfigError, ParameterError, ProtocolError
from .hopfield import (
    MISSING_PIXEL_ONE,
    PATTERN_ONE,
    CohortOutcome,
    NetworkConfig,
    compute_threshold,
    run_cohort,
    run_learning,
    run_two_pattern_protocol,
)
from .metrics import sweep_rows, write_sweep_csv

__all__ = [
    "CALIBRATION_TARGETS",
    "params_fingerprint",
    "characterize_device",
    "CalibrationResult",
    "calibrate_epochs",
    "sweep_figures",
    "reproduce_figures",
]

CALIBRATION_TARGETS = {0.60: 11, 0.40: 9, 0.24: 5, 0.09: 1}


def params_fingerprint(params: DeviceParams, network: NetworkConfig) -> str:
    """Short stable hash of the physics and recall settings, for provenance lines."""
    # keyed by repr as well: 0.0 == -0.0 and 1 == 1.0, but their JSON differs
    return _fingerprint(repr((params, network)), params, network)


@functools.lru_cache(maxsize=16)
def _fingerprint(key: str, params: DeviceParams, network: NetworkConfig) -> str:
    blob = json.dumps({"device": asdict(params), "network": asdict(network)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# device characterization


def characterize_device(
    params: DeviceParams,
    variation: VariationSpec,
    cycles: int,
    seed: int,
    out_dir=None,
    network: NetworkConfig | None = None,
) -> dict:
    """Single-cell characterization tables: cycling, spread, staircases.

    - binary_cycling: one device alternating full SET / full RESET
    - distribution: 100 independent devices, one RESET and one SET each
    - staircases: one device re-RESET ``cycles`` times, nine gradual pulses
      after each, recorded as pulse 0 (fresh RESET) through 9

    Returns the tables; with ``out_dir`` also writes fig2b/fig2c/fig2d.csv,
    whose ``params_hash`` covers ``network`` (default ``NetworkConfig()``).
    """
    if cycles < 1:
        raise ParameterError("cycles must be >= 1")
    rng = characterization_stream(seed)

    cycling = []
    cell = CellState(resistance=params.r_reset_median,
                     device_factor=sample_device_factor(variation, rng))
    apply_full_reset(cell, params, variation, rng)
    for cycle in range(1, cycles + 1):
        apply_full_set(cell, params, rng)
        cycling.append((cycle, "set", cell.resistance))
        apply_full_reset(cell, params, variation, rng)
        cycling.append((cycle, "reset", cell.resistance))

    distribution = []
    for idx in range(1, 101):
        dev = CellState(resistance=params.r_reset_median,
                        device_factor=sample_device_factor(variation, rng))
        apply_full_reset(dev, params, variation, rng)
        r_reset = dev.resistance
        apply_full_set(dev, params, rng)
        distribution.append((idx, r_reset, dev.resistance))

    staircases = []
    probe = CellState(resistance=params.r_reset_median,
                      device_factor=sample_device_factor(variation, rng))
    for cycle in range(1, cycles + 1):
        apply_full_reset(probe, params, variation, rng)
        staircases.append((cycle, 0, probe.resistance))
        for k in range(1, params.gradual_levels + 1):
            apply_gradual_set(probe, params, rng)
            staircases.append((cycle, k, probe.resistance))

    tables = {
        "binary_cycling": cycling,
        "distribution": distribution,
        "staircases": staircases,
    }
    if out_dir is not None:
        out = ensure_out_dir(out_dir)
        prov = {
            "seed": seed,
            "version": __version__,
            "params_hash": params_fingerprint(params, network or NetworkConfig()),
        }
        write_csv(out / "fig2b.csv", ("cycle", "operation", "resistance_ohms"),
                  cycling, provenance=prov)
        write_csv(out / "fig2c.csv", ("cell", "reset_ohms", "set_ohms"),
                  distribution, provenance=prov)
        write_csv(out / "fig2d.csv", ("cycle", "pulse_index", "resistance_ohms"),
                  staircases, provenance=prov)
        tables["paths"] = [out / "fig2b.csv", out / "fig2c.csv", out / "fig2d.csv"]
    return tables


# ---------------------------------------------------------------------------
# epoch calibration


@dataclass(frozen=True)
class CalibrationResult:
    params: DeviceParams
    decay_schedule: tuple[float, ...]
    sigma_c2c: float
    device_share: float
    medians: dict
    targets: dict
    residual: float
    candidates_evaluated: int
    seeds: int

    def to_dict(self) -> dict:
        """JSON form; a cv that never recalls has median (and so residual) null, not inf."""
        return {
            "decay_schedule": list(self.decay_schedule),
            "sigma_c2c": self.sigma_c2c,
            "device_share": self.device_share,
            "medians": {f"{cv:.2f}": _finite_or_none(m)
                        for cv, m in sorted(self.medians.items(), reverse=True)},
            "targets": {f"{cv:.2f}": t for cv, t in sorted(self.targets.items(), reverse=True)},
            "residual": _finite_or_none(self.residual),
            "candidates_evaluated": self.candidates_evaluated,
            "seeds": self.seeds,
        }


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _median_epochs(params, cvs, seeds, network) -> dict:
    """Median epochs-to-recall per cv over seeds 0..seeds-1, inf when none recalls."""
    cohort = run_cohort(
        cvs, range(seeds), params, network, device_share=CALIBRATED_DEVICE_SHARE
    )
    return {
        cv: float(np.median(epochs[done])) if done.any() else float("inf")
        for cv, epochs, done in zip(cvs, cohort.epochs, cohort.converged)
    }


def calibrate_epochs(
    targets: dict | None = None,
    *,
    seeds: int = 25,
    first_fraction_grid=(0.155, 0.163, 0.171),
    tail_fraction_grid=(0.0100, 0.0114, 0.0130),
    sigma_grid=(CALIBRATED_SIGMA_C2C,),
    network: NetworkConfig | None = None,
) -> CalibrationResult:
    """Grid search over staircase candidates against the epoch targets.

    Candidates share the shipped schedule shape and differ in the first step,
    the tail step, and the programming noise. Each is scored by the summed
    absolute gap between its simulated median epochs and the targets; the
    first minimal candidate wins, so reruns are deterministic.
    """
    if seeds < 1:
        raise ParameterError("seeds must be >= 1")
    targets = dict(targets) if targets is not None else dict(CALIBRATION_TARGETS)
    network = network or NetworkConfig()
    best = None
    evaluated = 0
    for sigma in sigma_grid:
        for first in first_fraction_grid:
            for tail in tail_fraction_grid:
                params = DeviceParams(
                    sigma_c2c=sigma, decay_schedule=build_decay_schedule(first, tail)
                )
                medians = _median_epochs(params, list(targets), seeds, network)
                residual = sum(abs(medians[cv] - targets[cv]) for cv in targets)
                evaluated += 1
                if best is None or residual < best[0]:
                    best = (residual, params, medians)
    residual, params, medians = best
    return CalibrationResult(
        params=params,
        decay_schedule=params.decay_schedule,
        sigma_c2c=params.sigma_c2c,
        device_share=CALIBRATED_DEVICE_SHARE,
        medians=medians,
        targets=targets,
        residual=residual,
        candidates_evaluated=evaluated,
        seeds=seeds,
    )


# ---------------------------------------------------------------------------
# figure data


def _representative_seed(cohort: CohortOutcome, i: int) -> int:
    """First seed of cv row ``i`` whose epoch count sits closest to the row's median."""
    epochs = {
        seed: int(e)
        for seed, e, done in zip(cohort.seeds, cohort.epochs[i], cohort.converged[i])
        if done
    }
    if not epochs:
        raise ProtocolError(
            f"no run converged at cv={cohort.cvs[i]}; cannot pick a representative"
        )
    med = float(np.median(list(epochs.values())))
    return min(epochs, key=lambda s: (abs(epochs[s] - med), s))


def sweep_figures(
    out_dir,
    *,
    params: DeviceParams | None = None,
    network: NetworkConfig | None = None,
    cvs=VARIATION_LEVELS,
    seed: int = 0,
    sweep_seeds: int = 50,
    trajectory_epochs: int = 30,
    device_share: float = CALIBRATED_DEVICE_SHARE,
    provenance: dict | None = None,
) -> tuple[list[Path], dict[float, int]]:
    """The variation comparison: fig7.csv plus one fig6 trajectory per level.

    fig7 is the sweep table over seeds ``seed .. seed+sweep_seeds-1``, from
    one ``run_cohort`` call. Each fig6_CV.csv replays the cohort's most
    typical seed (epoch count closest to the median, picked from the same
    cohort outcomes) past recall for ``trajectory_epochs`` epochs and
    tabulates the missing pixel's current against both threshold choices.
    Returns the written paths and the representative seed of each cv.
    Raises ConfigError, before writing anything, when two distinct cvs
    round to the same two-decimal file tag.
    """
    levels = sorted(set(float(c) for c in cvs), reverse=True)
    tags = [f"{cv:.2f}" for cv in levels]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"cvs {levels} share a two-decimal fig6 file tag: {tags}")
    out = ensure_out_dir(out_dir)
    params = params or calibrated_device_params()
    network = network or NetworkConfig()
    base_prov = {
        "seed": seed,
        "version": __version__,
        "params_hash": params_fingerprint(params, network),
        **(provenance or {}),
    }
    seed_range = range(seed, seed + sweep_seeds)
    paths: list[Path] = []

    if not seed_range:
        raise ParameterError("sweep needs at least one seed")
    traj_cfg = replace(network, max_epochs=trajectory_epochs)
    cohort = run_cohort(levels, seed_range, params, network, device_share=device_share)
    fig7 = out / "fig7.csv"
    write_sweep_csv(
        sweep_rows(cohort), fig7,
        provenance={**base_prov, "seeds": f"{seed_range.start}..{seed_range.stop - 1}"},
    )
    paths.append(fig7)

    representatives = {}
    for i, cv in enumerate(cohort.cvs):
        rep = representatives[cv] = _representative_seed(cohort, i)
        tag = f"{cv:.2f}"
        arr = build_array(
            ArrayGeometry(), params, VariationSpec(cv=cv, device_share=device_share), rep
        )
        trace = run_learning(
            arr, PATTERN_ONE, MISSING_PIXEL_ONE, traj_cfg, training_stream(rep),
            record_maps=False, continue_after_recall=True,
        )
        thr_15 = compute_threshold(arr.initial_resistance, replace(network, c_factor=1.5))
        p = out / f"fig6_{tag}.csv"
        write_csv(
            p,
            ("epoch", "current_amps", "threshold_c15_amps", "threshold_c2_amps"),
            [
                (ep.epoch_index, ep.recall_currents[MISSING_PIXEL_ONE], thr_15, trace.threshold)
                for ep in trace.epochs
            ],
            provenance={**base_prov, "cv": tag, "representative_seed": rep},
        )
        paths.append(p)
    return paths, representatives


def reproduce_figures(
    out_dir,
    *,
    seed: int = 0,
    sweep_seeds: int = 50,
    characterize_cycles: int = 10,
    trajectory_epochs: int = 30,
    cvs=VARIATION_LEVELS,
) -> list[Path]:
    """Write every figure-backing dataset to ``out_dir`` and return the paths.

    - fig2b/c/d: single-cell characterization at nominal device parameters
    - fig4_epochNN: per-epoch normalized maps of a two-pattern run at cv=0.60
    - fig5_CV + _hist: trained raw map and as-built histogram per variation
    - fig6_CV: recall-current trajectory against both threshold choices
    - fig7: the variation sweep table

    Per-variation runs use the seed whose epoch count is the cohort's median,
    so the single illustrated run is typical by construction. Everything is
    keyed off ``seed`` and reruns byte-identically.
    """
    out = ensure_out_dir(out_dir)
    params = calibrated_device_params()
    network = NetworkConfig()
    prov = {
        "seed": seed,
        "version": __version__,
        "params_hash": params_fingerprint(params, network),
    }
    paths: list[Path] = []

    tables = characterize_device(
        DeviceParams(), VariationSpec(cv=0.24), characterize_cycles, seed, out_dir=out
    )
    paths.extend(tables["paths"])

    sweep_paths, representatives = sweep_figures(
        out,
        params=params,
        network=network,
        cvs=cvs,
        seed=seed,
        sweep_seeds=sweep_seeds,
        trajectory_epochs=trajectory_epochs,
    )
    paths.extend(sweep_paths)

    for cv, rep in representatives.items():
        tag = f"{cv:.2f}"
        cv_prov = {**prov, "cv": tag, "representative_seed": rep}

        arr = build_array(ArrayGeometry(), params, calibrated_variation(cv), rep)
        first, second = run_two_pattern_protocol(arr, network, training_stream(rep))
        if cv == 0.60:
            maps = first.normalized_maps + second.normalized_maps[1:]
            for k, m in enumerate(maps):
                p = out / f"fig4_epoch{k:02d}.csv"
                write_map_csv(p, m, provenance={**cv_prov, "epoch": k})
                paths.append(p)
        p = out / f"fig5_{tag}.csv"
        write_map_csv(p, resistance_map(arr, normalized=False), provenance=cv_prov)
        paths.append(p)
        counts, edges = np.histogram(np.log10(arr.initial_resistance), bins=24)
        p = out / f"fig5_{tag}_hist.csv"
        write_csv(
            p,
            ("bin_left_ohms", "bin_right_ohms", "count"),
            [(10.0 ** edges[i], 10.0 ** edges[i + 1], int(c)) for i, c in enumerate(counts)],
            provenance=cv_prov,
        )
        paths.append(p)

    return sorted(paths)
