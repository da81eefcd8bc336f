"""Command-line front end.

Subcommands:

- characterize: single-cell tables (cycling, spread, staircases)
- learn:        the two-pattern protocol at one variation setting
- sweep:        the variation comparison (fig6 trajectories + fig7 table)
- calibrate:    re-run the staircase fit against the epoch targets

Flags follow the subcommand (``pcmxbar learn --seed 5``). Each is one row of
``_RUN_FLAGS`` or ``_COMMANDS`` naming the ``[section] key`` it sets, and its
text goes to ``config.apply_setting`` exactly as the same key from an INI
file or a ``PCMXBAR_*`` variable does: one parser and one check per setting,
and a bad value names the flag as typed.

Exit codes: 0 success, 2 configuration or usage problem, 3 a learning run
failed to recall within its epoch budget (for calibrate: no seed recalled at
some cv), 4 output could not be written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import __version__
from ._io import ensure_out_dir, write_json, write_map_csv
from .calibrated import training_stream
from .config import (
    RunConfig,
    apply_config_file,
    apply_env,
    apply_setting,
    config_hash,
    default_run_config,
)
from .crossbar import ArrayGeometry, build_array, resistance_map
from .errors import ConfigError, OutputError, ParameterError, ProtocolError
from .harness import (
    calibrate_epochs,
    characterize_device,
    params_fingerprint,
    sweep_figures,
)
from .hopfield import run_two_pattern_protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RECALL = 3
EXIT_IO = 4


def _version_string() -> str:
    return f"pcmxbar {__version__} (default config {config_hash(default_run_config())})"


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmxbar",
        description="stochastic PCM crossbar simulator for associative learning",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="INI config file")
        for flag, _, key, flag_help in _flags(name):
            if key == "quiet":  # a switch: present means "true" to the [run] quiet parser
                p.add_argument(flag, dest=key, action="store_const", const="true", help=flag_help)
            else:  # dest is the config key, so name the value as argparse would from the flag
                metavar = "DIR" if key == "out" else flag[2:].upper().replace("-", "_")
                p.add_argument(flag, dest=key, metavar=metavar, help=flag_help)
    return parser


def _assemble_config(args) -> RunConfig:
    cfg = default_run_config()
    file_path = args.config or os.environ.get("PCMXBAR_CONFIG")
    if file_path:
        apply_config_file(cfg, file_path)
    apply_env(cfg, os.environ)
    for flag, section, key, _ in _flags(args.command):
        raw = getattr(args, key)
        if raw is not None:
            apply_setting(cfg, section, key, raw, flag)
    return cfg


def _say(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


def _provenance(cfg: RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "version": __version__,
        "params_hash": params_fingerprint(cfg.device, cfg.network),
    }


def cmd_characterize(cfg: RunConfig) -> int:
    out = ensure_out_dir(cfg.out)
    tables = characterize_device(
        cfg.device, cfg.variation(), cfg.cycles, cfg.seed, out_dir=out, network=cfg.network
    )
    for path in tables["paths"]:
        _say(cfg, f"wrote {path}")
    return EXIT_OK


def cmd_learn(cfg: RunConfig) -> int:
    out = ensure_out_dir(cfg.out)
    arr = build_array(ArrayGeometry(), cfg.device, cfg.variation(), cfg.seed)
    first, second = run_two_pattern_protocol(arr, cfg.network, training_stream(cfg.seed))
    prov = {**_provenance(cfg), "cv": f"{cfg.cv:.2f}"}

    for tag, trace in (("1", first), ("2", second)):
        path = out / f"trace{tag}.json"
        write_json(path, trace.to_dict(), provenance=prov)
        _say(cfg, f"wrote {path}")

    maps = first.normalized_maps + second.normalized_maps[1:]
    for k, m in enumerate(maps):
        write_map_csv(out / f"map_epoch{k:02d}.csv", m, provenance={**prov, "epoch": k})
    _say(cfg, f"wrote {len(maps)} map_epochNN.csv files")
    path = out / "map_final.csv"
    write_map_csv(path, resistance_map(arr, normalized=False), provenance=prov)
    _say(cfg, f"wrote {path}")

    ok = True
    for tag, trace in (("1", first), ("2", second)):
        if trace.converged:
            _say(cfg, f"pattern {tag}: recalled in {trace.epochs_to_recall} epochs")
        else:
            ok = False
            _say(cfg, f"pattern {tag}: no recall within {cfg.network.max_epochs} epochs")
    return EXIT_OK if ok else EXIT_NO_RECALL


def cmd_sweep(cfg: RunConfig) -> int:
    paths, _ = sweep_figures(
        cfg.out,
        params=cfg.device,
        network=cfg.network,
        cvs=cfg.cvs,
        seed=cfg.seed,
        sweep_seeds=cfg.sweep_seeds,
        trajectory_epochs=cfg.trajectory_epochs,
        device_share=cfg.device_share,
    )
    for path in paths:
        _say(cfg, f"wrote {path}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig) -> int:
    out = ensure_out_dir(cfg.out)
    result = calibrate_epochs(seeds=cfg.calib_seeds, network=cfg.network)
    path = out / "calibration.json"
    write_json(path, result.to_dict(), provenance=_provenance(cfg))
    _say(cfg, f"wrote {path}")
    _say(cfg, f"best residual {result.residual} over {result.candidates_evaluated} candidates")
    ok = True
    for cv in sorted(result.medians, reverse=True):
        median = result.medians[cv]
        if math.isinf(median):
            ok = False
            _say(cfg, f"  cv={cv:.2f}: no recall within {cfg.network.max_epochs} epochs "
                      f"in any of {result.seeds} seeds")
        else:
            _say(cfg, f"  cv={cv:.2f}: median {median} epochs")
    return EXIT_OK if ok else EXIT_NO_RECALL


# every subcommand takes --config and these
_RUN_FLAGS = (
    ("--seed", "run", "seed", "root random seed"),
    ("--out", "run", "out", "output directory"),
    ("--quiet", "run", "quiet", "suppress progress output"),
)

# subcommand -> (handler, help, flags), each flag row (flag, section, key, help)
_COMMANDS = {
    "characterize": (cmd_characterize, "single-cell cycling, spread, and staircase tables", (
        ("--cycles", "run", "cycles", "SET/RESET and staircase repetitions"),
        ("--cv", "variation", "cv", "resistance spread for the sampled cells"),
    )),
    "learn": (cmd_learn, "run the two-pattern protocol on one array", (
        ("--cv", "variation", "cv", "resistance spread (coefficient of variation)"),
        ("--max-epochs", "network", "max_epochs", "epoch budget per pattern"),
    )),
    "sweep": (cmd_sweep, "compare variation levels: fig6 trajectories and fig7 table", (
        ("--cvs", "variation", "cvs", "comma-separated variation levels"),
        ("--seeds", "run", "sweep_seeds", "seeds per variation level"),
        ("--trajectory-epochs", "run", "trajectory_epochs",
         "epochs recorded in each fig6 trajectory"),
    )),
    "calibrate": (cmd_calibrate, "fit the staircase schedule to the epoch targets", (
        ("--seeds", "run", "calib_seeds", "seeds per candidate and variation level"),
    )),
}


def _flags(command: str) -> tuple:
    return _RUN_FLAGS + _COMMANDS[command][2]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    try:
        cfg = _assemble_config(args)
        return _COMMANDS[args.command][0](cfg)
    except (ConfigError, ParameterError, ProtocolError) as exc:
        print(f"pcmxbar: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"pcmxbar: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
