"""Walk one cell down its resistance staircase.

A full RESET puts the cell near 3 MOhm; each gradual SET pulse then
multiplies the resistance down by a fixed log step until the 10 kOhm floor.
Run twice to see that the noise-free ladder is identical while the noisy
one is not.
"""

import numpy as np

from pcmxbar.calibrated import calibrated_device_params
from pcmxbar.device import CellState, DeviceParams, apply_gradual_set, apply_full_reset
from pcmxbar.device import VariationSpec

nominal = DeviceParams(sigma_c2c=0.0)


def ladder(params, rng, label):
    cell = CellState(resistance=0.0)
    apply_full_reset(cell, params, VariationSpec(cv=0.0), rng)
    print(f"\n{label} (start {cell.resistance:.3e} Ohm)")
    for pulse in range(1, params.gradual_levels + 1):
        apply_gradual_set(cell, params, rng)
        print(f"  pulse {pulse}: {cell.resistance:12.4e} Ohm")
    return cell.resistance


rng = np.random.default_rng(11)
ladder(nominal, rng, "uniform steps, no pulse noise")

noisy = DeviceParams()  # sigma_c2c=0.10 by default
ladder(noisy, rng, "uniform steps, 10% pulse noise")

# the shipped schedule front-loads the first pulse and is much quieter
cal = calibrated_device_params()
ladder(cal, rng, "calibrated schedule, 3% pulse noise")

print("\nNine uniform pulses land exactly on the floor when noise is off,")
print("and their big steps stay one-way down even with 10% noise. The")
print("calibrated ladder's near-flat rungs can wobble inside the noise;")
print("only the long-run trend is downhill.")
