"""Teach the 10-neuron array one pattern and watch it complete the cue.

Each epoch Hebbian-programs the 25 cells between co-firing neurons, then
probes with four of the five pattern pixels. The missing pixel's column
current creeps up one staircase step per epoch until it clears the firing
threshold.
"""

import argparse

from pcmxbar.calibrated import calibrated_device_params, calibrated_variation
from pcmxbar.crossbar import ArrayGeometry, build_array
from pcmxbar.hopfield import (
    MISSING_PIXEL_ONE,
    PATTERN_ONE,
    NetworkConfig,
    Pattern,
    compute_threshold,
    recall_only,
    run_learning,
)

parser = argparse.ArgumentParser()
parser.add_argument("--cv", type=float, default=0.24)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

params = calibrated_device_params()
network = NetworkConfig()
arr = build_array(ArrayGeometry(), params, calibrated_variation(args.cv), args.seed)

threshold = compute_threshold(arr.initial_resistance, network)
print(f"pattern on-pixels {sorted(PATTERN_ONE.on)}, cue misses pixel {MISSING_PIXEL_ONE}")
print(f"firing threshold {threshold:.3e} A (cv={args.cv}, seed={args.seed})\n")

trace = run_learning(arr, PATTERN_ONE, MISSING_PIXEL_ONE, network)
for ep in trace.epochs:
    current = ep.recall_currents[MISSING_PIXEL_ONE]
    mark = "fired" if MISSING_PIXEL_ONE in ep.fired else "quiet"
    print(f"epoch {ep.epoch_index:2d}: I({MISSING_PIXEL_ONE}) = {current:.3e} A  {mark}")

if trace.converged:
    print(f"\nrecalled after {trace.epochs_to_recall} epochs,"
          f" {trace.total_energy * 1e9:.2f} nJ total")
    cue = Pattern.from_on(PATTERN_ONE.on - {MISSING_PIXEL_ONE}, PATTERN_ONE.n)
    completed = recall_only(arr, cue, threshold, network)
    print(f"read-only probe completes the cue to {sorted(completed.on)}")
else:
    print(f"\nno recall within {network.max_epochs} epochs")
