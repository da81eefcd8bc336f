"""Layered run configuration: defaults, INI file, environment, CLI flags.

Precedence, lowest to highest: built-in defaults (the calibrated setup),
config file, ``PCMXBAR_*`` environment variables, command-line flags.
Every layer sets a ``[section] key`` through ``apply_setting``, so a value
parses and validates the same way wherever it comes from; ``_SCHEMA`` is
the one list of keys and their parsers. Unknown sections or keys are
rejected loudly; silently ignoring a typo in a config file is how wrong
results get published.

Environment variables name the section and key: ``PCMXBAR_DEVICE_SIGMA_C2C``,
``PCMXBAR_NETWORK_MAX_EPOCHS``, ``PCMXBAR_RUN_SEED``. The bare shorthands
``PCMXBAR_SEED``, ``PCMXBAR_OUT`` and ``PCMXBAR_QUIET`` map into [run].
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .calibrated import CALIBRATED_DEVICE_SHARE, VARIATION_LEVELS, calibrated_device_params
from .device import DeviceParams, VariationSpec
from .errors import ConfigError
from .hopfield import NetworkConfig

__all__ = [
    "RunConfig",
    "default_run_config",
    "apply_setting",
    "apply_config_file",
    "apply_env",
    "config_render",
    "config_hash",
]

ENV_PREFIX = "PCMXBAR_"


@dataclass
class RunConfig:
    device: DeviceParams
    network: NetworkConfig
    cv: float = 0.60
    cvs: tuple[float, ...] = VARIATION_LEVELS
    device_share: float = CALIBRATED_DEVICE_SHARE
    seed: int = 0
    out: Path = Path("out")
    quiet: bool = False
    cycles: int = 10
    sweep_seeds: int = 50
    calib_seeds: int = 25
    trajectory_epochs: int = 30

    def variation(self, cv: float | None = None) -> VariationSpec:
        return VariationSpec(cv=self.cv if cv is None else cv, device_share=self.device_share)


def default_run_config() -> RunConfig:
    return RunConfig(device=calibrated_device_params(), network=NetworkConfig())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_schedule(text: str):
    lowered = text.strip().lower()
    if lowered in ("uniform", "none", ""):
        return None
    return tuple(float(part) for part in text.split(","))


def _parse_cv(text: str) -> float:
    return VariationSpec(cv=float(text)).cv


def _parse_cvs(text: str) -> tuple[float, ...]:
    return tuple(_parse_cv(part) for part in text.split(","))


def _parse_device_share(text: str) -> float:
    return VariationSpec(cv=0.0, device_share=float(text)).device_share


def _parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"must be >= 1, got {count}")
    return count


# section -> key -> parser; a [device] or [network] key rebuilds that
# dataclass, any other key sets the RunConfig field of the same name
_SCHEMA = {
    "device": {
        "r_reset_median": float,
        "r_set_floor": float,
        "gradual_levels": int,
        "sigma_c2c": float,
        "e_prog": float,
        "e_reset": float,
        "pcm_energy_fraction": float,
        "v_read_default": float,
        "decay_schedule": _parse_schedule,
    },
    "variation": {
        "cv": _parse_cv,
        "cvs": _parse_cvs,
        "device_share": _parse_device_share,
    },
    "network": {
        "c_factor": float,
        "v_read": float,
        "recall_on_count": int,
        "max_epochs": int,
        "read_duration": float,
    },
    "run": {
        "seed": _parse_seed,
        "out": Path,
        "quiet": _parse_bool,
        "cycles": _parse_count,
        "sweep_seeds": _parse_count,
        "calib_seeds": _parse_count,
        "trajectory_epochs": _parse_count,
    },
}


def apply_setting(cfg: RunConfig, section: str, key: str, raw: str, origin: str) -> None:
    """Parse ``raw`` for ``[section] key`` and set it; any failure is a ConfigError."""
    keys = _SCHEMA.get(section)
    if keys is None:
        raise ConfigError(f"unknown section [{section}] in {origin}")
    parser = keys.get(key)
    if parser is None:
        raise ConfigError(f"unknown key {key!r} in [{section}] in {origin}")
    try:
        value = parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {section}.{key} in {origin}: {exc}") from exc
    try:
        if section in ("device", "network"):
            setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **{key: value}))
        else:
            setattr(cfg, key, value)
    except Exception as exc:
        raise ConfigError(f"invalid {section}.{key} from {origin}: {exc}") from exc


def apply_config_file(cfg: RunConfig, path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    for section in parser.sections():
        for key, raw in parser.items(section):
            apply_setting(cfg, section.lower(), key.lower(), raw, str(path))
    return cfg


# bare shorthands, all landing in [run]
_ENV_SHORTHAND = {"SEED": "seed", "OUT": "out", "QUIET": "quiet", "CONFIG": None}


def apply_env(cfg: RunConfig, environ) -> RunConfig:
    for name in sorted(name for name in environ if name.startswith(ENV_PREFIX)):
        rest = name[len(ENV_PREFIX):]
        if rest in _ENV_SHORTHAND:
            key = _ENV_SHORTHAND[rest]
            if key is not None:  # PCMXBAR_CONFIG is consumed by the CLI itself
                apply_setting(cfg, "run", key, environ[name], f"${name}")
            continue
        section, _, key = rest.partition("_")
        section = section.lower()
        if section not in _SCHEMA:
            raise ConfigError(f"unrecognized environment variable {name}")
        apply_setting(cfg, section, key.lower(), environ[name], f"${name}")
    return cfg


def config_render(cfg: RunConfig) -> str:
    """Canonical text form of a configuration; hashed for provenance."""
    dev = dataclasses.asdict(cfg.device)
    net = dataclasses.asdict(cfg.network)
    lines = ["[device]"]
    lines += [f"{k} = {dev[k]!r}" for k in sorted(dev)]
    lines.append("[network]")
    lines += [f"{k} = {net[k]!r}" for k in sorted(net)]
    for section in ("variation", "run"):
        lines.append(f"[{section}]")
        lines += [f"{k} = {getattr(cfg, k)!r}" for k in _SCHEMA[section]]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(config_render(cfg).encode()).hexdigest()[:12]
