"""Module layout guards: one home for the seed streams, epoch streams read by
index, one home for the provenance header and for deleting outputs, a light
config import, and every function the benchmark traces still defined."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_config_does_not_import_harness():
    code = "import sys, pcmxbar.config; print('pcmxbar.harness' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_seed_streams_derived_in_one_module():
    owners = sorted(
        path.name
        for path in (SRC / "pcmxbar").glob("*.py")
        if "SeedSequence(" in path.read_text()
    )
    assert owners == ["calibrated.py"]


def test_epoch_streams_read_by_index():
    # every epoch stream is read by (seed, index) in calibrated; no module spawns one
    spawners = sorted(
        path.name for path in (SRC / "pcmxbar").glob("*.py") if ".spawn(" in path.read_text()
    )
    assert spawners == []


def test_provenance_header_built_in_one_module():
    owners = sorted(
        path.name
        for path in (SRC / "pcmxbar").glob("*.py")
        if '"params_hash"' in path.read_text()
    )
    assert owners == ["harness.py"]


def test_outputs_deleted_in_one_module():
    # _io.remove_stale is the one rule for which earlier outputs go
    owners = sorted(
        path.name
        for path in (SRC / "pcmxbar").glob("*.py")
        if any(call in path.read_text() for call in ("os.unlink", ".unlink(", "os.remove("))
    )
    assert owners == ["_io.py"]


def test_benchmark_call_targets_are_defined():
    # the benchmark's tracer silently drops the metrics of a target the
    # package no longer defines, which leaves its result line malformed
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    targets = [m["name"][: -len(".calls")] for m in layers if m["name"].endswith(".calls")]
    assert len(targets) == 21
    for target in targets:
        module, fn = target.split(".")
        package_module = importlib.import_module(f"pcmxbar.{'_io' if module == 'io' else module}")
        assert callable(getattr(package_module, fn, None)), target
