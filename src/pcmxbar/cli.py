"""Command-line front end.

Subcommands:

- characterize: single-cell tables (cycling, spread, staircases)
- learn:        the two-pattern protocol at one variation setting
- sweep:        the variation comparison (fig6 trajectories + fig7 table)
- calibrate:    re-run the staircase fit against the epoch targets

Exit codes: 0 success, 2 configuration or usage problem, 3 a learning run
failed to recall within its epoch budget, 4 output could not be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI config file")
    common.add_argument("--seed", help="root random seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--quiet", action="store_true", default=None,
                        help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="pcmxbar",
        description="stochastic PCM crossbar simulator for associative learning",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", parents=[common],
                       help="single-cell cycling, spread, and staircase tables")
    p.add_argument("--cycles", type=int, help="SET/RESET and staircase repetitions")
    p.add_argument("--cv", type=float, help="resistance spread for the sampled cells")

    p = sub.add_parser("learn", parents=[common],
                       help="run the two-pattern protocol on one array")
    p.add_argument("--cv", type=float, help="resistance spread (coefficient of variation)")
    p.add_argument("--max-epochs", type=int, dest="max_epochs", help="epoch budget per pattern")

    p = sub.add_parser("sweep", parents=[common],
                       help="compare variation levels: fig6 trajectories and fig7 table")
    p.add_argument("--cvs", help="comma-separated variation levels")
    p.add_argument("--seeds", type=int, help="seeds per variation level")
    p.add_argument("--trajectory-epochs", type=int, dest="trajectory_epochs",
                   help="epochs recorded in each fig6 trajectory")

    p = sub.add_parser("calibrate", parents=[common],
                       help="fit the staircase schedule to the epoch targets")
    p.add_argument("--seeds", type=int, help="seeds per candidate and variation level")
    return parser


def _assemble_config(args) -> RunConfig:
    cfg = default_run_config()
    file_path = args.config or os.environ.get("PCMXBAR_CONFIG")
    if file_path:
        apply_config_file(cfg, file_path)
    apply_env(cfg, os.environ)
    if args.seed is not None:
        apply_setting(cfg, "run", "seed", args.seed, "--seed")
    if args.out is not None:
        cfg.out = Path(args.out)
    if args.quiet is not None:
        cfg.quiet = args.quiet
    if getattr(args, "cv", None) is not None:
        cfg.cv = args.cv
    if getattr(args, "cvs", None) is not None:
        apply_setting(cfg, "variation", "cvs", args.cvs, "--cvs")
    if getattr(args, "cycles", None) is not None:
        cfg.cycles = args.cycles
    if getattr(args, "seeds", None) is not None:
        if args.command == "calibrate":
            cfg.calib_seeds = args.seeds
        else:
            cfg.sweep_seeds = args.seeds
    if getattr(args, "trajectory_epochs", None) is not None:
        cfg.trajectory_epochs = args.trajectory_epochs
    if getattr(args, "max_epochs", None) is not None:
        cfg.network = dataclasses.replace(cfg.network, max_epochs=args.max_epochs)
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
    for cv in sorted(result.medians, reverse=True):
        _say(cfg, f"  cv={cv:.2f}: median {result.medians[cv]} epochs")
    return EXIT_OK


_COMMANDS = {
    "characterize": cmd_characterize,
    "learn": cmd_learn,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    try:
        cfg = _assemble_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ParameterError, ProtocolError) as exc:
        print(f"pcmxbar: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"pcmxbar: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
