"""Golden outputs: the sha256 of every file default ``sweep`` and ``calibrate`` write,
and one digest over all the files of ``learn``, ``characterize`` and
``reproduce_figures`` at seed 0, of ``learn --cv 0.60`` at two seeds wider
than one 32-bit word, and of three small ``sweep`` windows.

The ``sweep`` and ``calibrate`` digests were taken before the cohort
engine hashed its streams from mixed pools, the seed-0 directory digests
before one function built every provenance header, the wide-seed ones
before runs read their epoch streams by index, and the ``sweep`` windows
before threshold-infinity runs trained their budget in one pass; any
change to what these commands simulate or how they format it shows up
here as a changed digest.
"""

import hashlib
import os

import pytest

from pcmxbar.cli import main
from pcmxbar.harness import reproduce_figures

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


# file count and sha256 of the directory listing in ``sha256sum`` form, one
# "<sha256>  <name>" line per file in name order
GOLDEN_DIRS = {
    ("learn", "--cv", "0.60"):
        (26, "d7f34d42c55531ac8b586e15d5f5c7911f45df3f189c1a94a765d93d7f268e28"),
    ("learn", "--cv", "0.09"):
        (6, "effa2683997a989c1dfb5024dab47afa15f636b352c7ff9721d21f1a8f9f5668"),
    ("characterize",):
        (3, "260076b5095e2db2ee2e07e58c6b67a0495da9dfd1f65ff3cb0ee3c5512c2287"),
}
# seeds of two and of four entropy words: the first hashes with the one-word seeds,
# the second's streams go through SeedSequence itself
GOLDEN_WIDE_SEEDS = {
    4294967301: (33, "6720448b6b945eff425b57e55deb9b678c9f077d4bf8b4ee043165b76dc96dd9"),
    2**96 + 1: (19, "d4261f95b92a93ae9dbebe13d8e7623c43d0b0e12dae04404cedf8c1ad6a918a"),
}
# sweep windows whose fig6 replays end at and past the 16- and 32-child block
# edges, and one whose seeds cross 2**64, recorded before threshold-infinity
# runs trained their whole budget in one pass
GOLDEN_SWEEPS = {
    ("--seed", "5", "--trajectory-epochs", "17"):
        (5, "b84c8ad78b695038caad8bf77fcdc23c97cbcc613b001a0708d0b10ad47d0d07"),
    ("--seed", "5", "--trajectory-epochs", "40"):
        (5, "ab11af21c67a99ff734884df683096dd8f5213f103babed4cfe630a183c3d2f2"),
    ("--seed", str(2**64 - 6)):
        (5, "dc02c5acd1affcf9cfa98f4b7907931a8cd5c91a3532d9cda6a18a5db54860fe"),
}
GOLDEN_REPRODUCE = (39, "5dd73a8448d5a9c8542ee78b993f0ec3b894f5b4c6062a1864cc7e210678c3d6")


def _directory_digest(path):
    files = sorted(path.iterdir())
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in files)
    return len(files), hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
def test_default_outputs_match_golden_digests(tmp_path, monkeypatch, argv):
    for name in [k for k in os.environ if k.startswith("PCMXBAR_")]:
        monkeypatch.delenv(name)
    assert main([*argv, "--quiet", "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_DIRS), ids=lambda argv: "-".join(argv[::2]))
def test_seed_zero_outputs_match_golden_directory_digests(tmp_path, monkeypatch, argv):
    for name in [k for k in os.environ if k.startswith("PCMXBAR_")]:
        monkeypatch.delenv(name)
    assert main([*argv, "--seed", "0", "--quiet", "--out", str(tmp_path)]) == 0
    assert _directory_digest(tmp_path) == GOLDEN_DIRS[argv]


@pytest.mark.parametrize("seed", list(GOLDEN_WIDE_SEEDS), ids=["2**32+5", "2**96+1"])
def test_wide_seed_learn_outputs_match_golden_directory_digests(tmp_path, monkeypatch, seed):
    for name in [k for k in os.environ if k.startswith("PCMXBAR_")]:
        monkeypatch.delenv(name)
    argv = ["learn", "--cv", "0.60", "--seed", str(seed), "--quiet", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _directory_digest(tmp_path) == GOLDEN_WIDE_SEEDS[seed]


@pytest.mark.parametrize("argv", list(GOLDEN_SWEEPS), ids=["epochs-17", "epochs-40", "2**64-6"])
def test_sweep_windows_match_golden_directory_digests(tmp_path, monkeypatch, argv):
    for name in [k for k in os.environ if k.startswith("PCMXBAR_")]:
        monkeypatch.delenv(name)
    assert main(["sweep", *argv, "--seeds", "12", "--quiet", "--out", str(tmp_path)]) == 0
    assert _directory_digest(tmp_path) == GOLDEN_SWEEPS[argv]


def test_reproduce_figures_matches_golden_directory_digest(tmp_path):
    reproduce_figures(tmp_path, seed=0, sweep_seeds=6, characterize_cycles=3, trajectory_epochs=15)
    assert _directory_digest(tmp_path) == GOLDEN_REPRODUCE
