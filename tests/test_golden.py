"""Golden outputs: the sha256 of every file default ``sweep`` and ``calibrate`` write.

The digests were taken before the cohort engine's streams moved to
``stream_words``; any change to what these commands simulate or how they
format it shows up here as a changed digest.
"""

import hashlib
import os

import pytest

from pcmxbar.cli import main

GOLDEN = {
    ("sweep", "--seed", "0"): {
        "fig6_0.09.csv": "85eea50a60a294b3e76143e8b08302f0ac7a766cd38b2f017fd254a28f45b776",
        "fig6_0.24.csv": "008fef247d88e51f4843e95abe0d76db07be3a86cda66320028035c17814b32a",
        "fig6_0.40.csv": "4f4eaae8a80fad47754fcdcbda1434c17201b9d4d43914245c4b62cccaa93f8c",
        "fig6_0.60.csv": "64ba99dd2f317d509051e0db72eb28e2dea9669f6208c0089739e8373fbeb596",
        "fig7.csv": "5304108900b0df18e8da0ad83d274f31260773c63a8b6380d8e91710c50f8063",
    },
    ("calibrate",): {
        "calibration.json": "dbd80d912fec004c981a4eb6b6e9ef76eda3fdce0283c1900a7866901fcac528",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
def test_default_outputs_match_golden_digests(tmp_path, monkeypatch, argv):
    for name in [k for k in os.environ if k.startswith("PCMXBAR_")]:
        monkeypatch.delenv(name)
    assert main([*argv, "--quiet", "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN[argv]
