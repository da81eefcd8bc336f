"""Cell-to-cell variation costs epochs, energy and read-bias margin.

Median learning effort across seeds at each variation level, then the bias
margin: how far the read voltage can drift before the learned outcome
changes. Tight distributions learn in one epoch and clear the threshold by
about a tenth; wide ones grind for ~10 epochs and recall only a few percent
above it, so a small bias drift moves their recall epoch.
"""

import numpy as np

from pcmxbar.calibrated import VARIATION_LEVELS, calibrated_device_params, calibrated_variation
from pcmxbar.hopfield import NetworkConfig
from pcmxbar.metrics import read_voltage_sensitivity, variation_sweep

params = calibrated_device_params()
network = NetworkConfig()
seeds = range(30)

print("cv      median epochs   median energy")
for row in variation_sweep(VARIATION_LEVELS, seeds, params, network):
    print(f"{row['cv']:.2f}    {row['median_epochs']:6.1f}      "
          f"{row['median_energy_joules'] * 1e9:8.2f} nJ")

print("\nread-bias margin before the outcome flips (median of 20 seeds):")
for cv in (0.60, 0.09):
    flips = []
    for seed in range(20):
        r = read_voltage_sensitivity(params, calibrated_variation(cv), network, seed)
        flips.append(r.min_relative_perturbation)
    print(f"  cv={cv:.2f}: {float(np.median(flips)):.2f} relative")

print("\nMore spread means more pulses to lift the signal over the threshold;")
print("the small late steps land it just above, so the margin stays narrow.")
