"""Module layout guards: one home for the seed streams, a light config import."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
