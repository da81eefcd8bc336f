"""The three workloads: the inputs each feeds pcmxbar and how its outputs are digested.

A workload seed ``n`` selects the window of consecutive seeds that starts
at ``n % WINDOWS``. Windows overlap, so the work in a pass stays nearly the
same from seed to seed and the spread between runs measures the host, not
the inputs; every op any seed can run has a reference digest recorded in
``references.json``. An op is one call into the package's public API: one
CLI invocation (``sweep``, ``learn``) or one ``read_voltage_sensitivity``
call (``sensitivity``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pcmxbar import cli, config, metrics

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

WINDOWS = 8
SWEEP_CVS = "0.60,0.40,0.24,0.09"
SWEEP_COHORT = 50  # the CLI's default --seeds
SWEEP_COHORTS = 4
SENSITIVITY_CVS = (0.60, 0.09)
SENSITIVITY_SEEDS = 100
LEARN_SEEDS = 70
LEARN_COMMANDS = (("learn", "--cv", "0.60"), ("learn", "--cv", "0.09"), ("characterize",))


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call into the package
    # digest of the outputs and the invariant violations visible in them
    outcome: Callable[[object], tuple[str, list[str]]]
    reset: Callable[[], None] = lambda: None  # untimed clean-up before the call


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def invariant_problems(where: str, program_energy: float, pulses: int, epochs, e_prog: float) -> list[str]:
    """Breaks of program_energy == pulses * e_prog, and false firings, in one run.

    ``epochs`` yields (index, program energy, pulses, false firings) per epoch.
    """
    problems = []
    if program_energy != pulses * e_prog:
        problems.append(f"{where}: program energy is not pulses * e_prog")
    epochs = list(epochs)
    bad_energy = [i for i, energy, count, _ in epochs if energy != count * e_prog]
    false_firing = [i for i, _, _, fired in epochs if fired]
    if bad_energy:
        problems.append(f"{where}: energy is not pulses * e_prog in epochs {bad_energy}")
    if false_firing:
        problems.append(f"{where}: false firings in epochs {false_firing}")
    return problems


def _cli_op(argv: list[str], work: Path, e_prog: float) -> Op:
    """One ``pcmxbar`` invocation writing under ``work``; digests exit code, stdout and files.

    The op's output directory, named after its arguments, belongs to it
    alone and is kept between passes. The untimed reset empties the files of
    the last pass instead of deleting them, so the op rewrites existing files
    rather than creating new ones (file creation was the noisiest part of an
    op on the host the benchmark was tuned on), and a file the op no longer
    writes shows up empty in the digest.
    """
    label = " ".join(argv)
    out = work / label.replace(" ", "_")
    stdout = io.StringIO()
    full = [*argv, "--out", str(out)]

    def reset():
        for path in out.iterdir() if out.is_dir() else ():
            if path.is_file():
                os.truncate(path, 0)
        stdout.seek(0)
        stdout.truncate()

    def run():
        with contextlib.redirect_stdout(stdout):
            return cli.main(full)

    def outcome(code):
        problems = [] if code == 0 else [f"exit code {code}"]
        parts = [str(code).encode(), stdout.getvalue().replace(str(out), "OUT").encode()]
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            parts += [path.name.encode(), data]
            if path.name.startswith("trace"):
                doc = json.loads(data)
                problems += invariant_problems(
                    path.name, doc["program_energy_joules"], doc["program_event_count"],
                    ((ep["epoch"], ep["program_energy_joules"], ep["program_event_count"],
                      ep["false_firings"]) for ep in doc["epochs"]),
                    e_prog,
                )
        return _digest(*parts), problems

    return Op(label, run, outcome, reset)


def _sensitivity_op(seed: int, cv: float, cfg) -> Op:
    variation = cfg.variation(cv)

    def run():
        return metrics.read_voltage_sensitivity(cfg.device, variation, cfg.network, seed)

    def outcome(result):
        return _digest(json.dumps(result.to_dict(), sort_keys=True).encode()), []

    return Op(f"sensitivity --cv {cv:.2f} --seed {seed}", run, outcome)


def _sweep(start: int, cfg, work: Path) -> list[Op]:
    return [
        _cli_op(["sweep", "--cvs", SWEEP_CVS, "--seeds", str(SWEEP_COHORT), "--seed", str(first)],
                work, cfg.device.e_prog)
        for first in range(start, start + SWEEP_COHORTS * SWEEP_COHORT, SWEEP_COHORT)
    ]


def _sensitivity(start: int, cfg, work: Path) -> list[Op]:
    return [
        _sensitivity_op(seed, cv, cfg)
        for seed in range(start, start + SENSITIVITY_SEEDS)
        for cv in SENSITIVITY_CVS
    ]


def _learn(start: int, cfg, work: Path) -> list[Op]:
    return [
        _cli_op([*command, "--seed", str(seed)], work, cfg.device.e_prog)
        for seed in range(start, start + LEARN_SEEDS)
        for command in LEARN_COMMANDS
    ]


WORKLOADS = {"sweep": _sweep, "sensitivity": _sensitivity, "learn": _learn}


def prepare(workload: str, seed: int, work: Path) -> tuple[int, list[Op]]:
    """Assemble the default configuration and the ops of the seed's window."""
    start = seed % WINDOWS
    return start, WORKLOADS[workload](start, config.default_run_config(), work)


def load_references(ops: list[Op]) -> tuple[list[str | None], int]:
    """Recorded digest of each op, and the training epochs the pass's answer needs."""
    with open(REFERENCES, encoding="utf-8") as fh:
        recorded = json.load(fh)["ops"]
    refs = [recorded.get(op.label) for op in ops]
    return [r and r["digest"] for r in refs], sum(r["epochs"] for r in refs if r)
