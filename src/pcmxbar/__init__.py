"""Stochastic phase-change-memory crossbar simulator for on-chip associative learning.

The package models a 10x10 one-transistor/one-resistor PCM array wired as a
recurrent Hopfield network, from single-cell programming physics up to
multi-seed variation sweeps:

- :mod:`pcmxbar.device`     -- single-cell resistance states, pulses, variation
- :mod:`pcmxbar.calibrated` -- the shipped operating point and the (seed, k) streams
- :mod:`pcmxbar.crossbar`   -- array construction, parallel updates, recall reads
- :mod:`pcmxbar.hopfield`   -- patterns, threshold rule, epoch loop, protocols
- :mod:`pcmxbar.metrics`    -- read-bias sensitivity, variation sweeps
- :mod:`pcmxbar.harness`    -- characterization, calibration and figure-data scripts
- :mod:`pcmxbar.cli`        -- command-line entry points
"""

__version__ = "0.1.0"

from .errors import ConfigError, OutputError, ParameterError, PcmxbarError, ProtocolError

__all__ = [
    "__version__",
    "PcmxbarError",
    "ParameterError",
    "ProtocolError",
    "ConfigError",
    "OutputError",
]
