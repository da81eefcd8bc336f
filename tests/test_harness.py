"""Calibrated configuration, device characterization, figure-data scripts."""

import math

import numpy as np
import pytest

from pcmxbar.calibrated import (
    CALIBRATED_DECAY_SCHEDULE,
    CALIBRATED_DEVICE_SHARE,
    CALIBRATED_SIGMA_C2C,
    VARIATION_LEVELS,
    build_decay_schedule,
    calibrated_device_params,
    calibrated_variation,
    training_stream,
)
from pcmxbar.device import DeviceParams, VariationSpec
from pcmxbar.errors import ParameterError
from pcmxbar.harness import (
    CALIBRATION_TARGETS,
    calibrate_epochs,
    characterize_device,
    reproduce_figures,
    sweep_figures,
)
from pcmxbar.hopfield import PATTERN_ONE, NetworkConfig, run_learning

ALPHA = (1.0e4 / 3.0e6) ** (1.0 / 9.0)


def read_csv(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


# ---------------------------------------------------------------------------
# calibrated constants


def test_calibrated_constants_frozen():
    assert CALIBRATED_DECAY_SCHEDULE == (
        0.163,
        0.00175,
        0.00175,
        0.00175,
        0.0202,
        0.0114,
        0.0114,
        0.0114,
        0.0114,
    )
    assert CALIBRATED_SIGMA_C2C == 0.03
    assert CALIBRATED_DEVICE_SHARE == 0.8
    assert CALIBRATION_TARGETS == {0.60: 11, 0.40: 9, 0.24: 5, 0.09: 1}
    assert VARIATION_LEVELS == (0.60, 0.40, 0.24, 0.09)
    # the big first step plus a dense tail never exhausts the full swing in
    # nine pulses; the tail keeps walking cells down afterwards
    assert sum(CALIBRATED_DECAY_SCHEDULE) < 1.0


def test_calibrated_params_factory():
    p = calibrated_device_params()
    assert p.decay_schedule == CALIBRATED_DECAY_SCHEDULE
    assert p.sigma_c2c == CALIBRATED_SIGMA_C2C
    assert p.r_reset_median == 3.0e6  # physics stays at nominal
    assert p.e_prog == 1.92e-10
    q = calibrated_device_params(e_prog=1.0e-10)
    assert q.e_prog == 1.0e-10
    v = calibrated_variation(0.40)
    assert v.cv == 0.40
    assert v.device_share == CALIBRATED_DEVICE_SHARE


def test_build_decay_schedule():
    assert build_decay_schedule(0.163, 0.0114) == CALIBRATED_DECAY_SCHEDULE
    other = build_decay_schedule(0.20, 0.02)
    assert other[0] == 0.20
    assert other[5:] == (0.02, 0.02, 0.02, 0.02)
    assert other[1:4] == CALIBRATED_DECAY_SCHEDULE[1:4]  # bracket rungs fixed
    with pytest.raises(ParameterError):
        build_decay_schedule(0.0, 0.01)
    with pytest.raises(ParameterError):
        build_decay_schedule(0.1, -0.01)


def test_calibrated_medians_near_targets():
    # fast spot check; the full 101-seed comparison lives in the acceptance set
    params = calibrated_device_params()
    cfg = NetworkConfig()
    medians = {}
    for cv, target in CALIBRATION_TARGETS.items():
        epochs = []
        for seed in range(25):
            from pcmxbar.crossbar import ArrayGeometry, build_array

            arr = build_array(ArrayGeometry(), params, calibrated_variation(cv), seed)
            trace = run_learning(
                arr, PATTERN_ONE, 6, cfg, training_stream(seed), record_maps=False
            )
            assert trace.converged
            epochs.append(trace.epochs_to_recall)
        medians[cv] = float(np.median(epochs))
        assert abs(medians[cv] - target) <= 2.0, (cv, medians[cv])
    ordered = [medians[cv] for cv in (0.60, 0.40, 0.24, 0.09)]
    assert ordered == sorted(ordered, reverse=True)


def test_training_stream_keying():
    direct = np.random.default_rng(np.random.SeedSequence((9, 1))).standard_normal(3)
    assert np.array_equal(training_stream(9).standard_normal(3), direct)


# ---------------------------------------------------------------------------
# device characterization


def test_characterize_structure_and_files(tmp_path):
    out = characterize_device(
        DeviceParams(), VariationSpec(cv=0.24), cycles=5, seed=3, out_dir=tmp_path
    )
    for name in ("fig2b.csv", "fig2c.csv", "fig2d.csv"):
        assert (tmp_path / name).exists()

    header, rows = read_csv(tmp_path / "fig2b.csv")
    assert header == ["cycle", "operation", "resistance_ohms"]
    assert len(rows) == 10  # set + reset per cycle
    by_cycle = {}
    for cycle, op, r in rows:
        by_cycle.setdefault(int(cycle), {})[op] = float(r)
    for cycle, ops in by_cycle.items():
        assert ops["reset"] / ops["set"] > 30.0

    header, rows = read_csv(tmp_path / "fig2c.csv")
    assert header == ["cell", "reset_ohms", "set_ohms"]
    assert len(rows) == 100
    resets = np.array([float(r[1]) for r in rows])
    sets = np.array([float(r[2]) for r in rows])
    assert abs(np.median(resets) - 3.0e6) / 3.0e6 < 0.3
    assert np.all(sets < 3.0e4)

    header, rows = read_csv(tmp_path / "fig2d.csv")
    assert header == ["cycle", "pulse_index", "resistance_ohms"]
    assert len(rows) == 5 * 10  # pulses 0..9 per cycle
    traces = {}
    for cycle, k, r in rows:
        traces.setdefault(int(cycle), []).append(float(r))
    vals = list(traces.values())
    for i in range(len(vals)):
        assert vals[i][0] > 10 * vals[i][-1]  # each staircase actually descends
        for j in range(i + 1, len(vals)):
            assert vals[i] != vals[j]  # stochasticity separates the cycles

    comments = [
        ln
        for ln in (tmp_path / "fig2b.csv").read_text().splitlines()
        if ln.startswith("#")
    ]
    assert any("seed=3" in c for c in comments)


def test_characterize_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    characterize_device(DeviceParams(), VariationSpec(cv=0.24), cycles=3, seed=7, out_dir=a)
    characterize_device(DeviceParams(), VariationSpec(cv=0.24), cycles=3, seed=7, out_dir=b)
    for name in ("fig2b.csv", "fig2c.csv", "fig2d.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_characterize_zero_noise_values(tmp_path):
    characterize_device(
        DeviceParams(sigma_c2c=0.0),
        VariationSpec(cv=0.0),
        cycles=2,
        seed=1,
        out_dir=tmp_path,
    )
    _, rows = read_csv(tmp_path / "fig2b.csv")
    for _, op, r in rows:
        assert float(r) == {"set": 1.0e4, "reset": 3.0e6}[op]
    _, rows = read_csv(tmp_path / "fig2d.csv")
    for _, k, r in rows:
        assert float(r) == pytest.approx(3.0e6 * ALPHA ** int(k), rel=1e-6)


def test_characterize_returns_tables_without_out_dir():
    out = characterize_device(DeviceParams(), VariationSpec(cv=0.24), cycles=2, seed=1)
    assert set(out) >= {"binary_cycling", "distribution", "staircases"}
    assert len(out["distribution"]) == 100
    with pytest.raises(ParameterError):
        characterize_device(DeviceParams(), VariationSpec(cv=0.24), cycles=0, seed=1)


# ---------------------------------------------------------------------------
# calibration search


def test_calibrate_epochs_prefers_shipped_schedule():
    result = calibrate_epochs(
        seeds=15,
        first_fraction_grid=(0.163, 0.30),
        tail_fraction_grid=(0.0114,),
        sigma_grid=(0.03,),
    )
    assert result.decay_schedule == CALIBRATED_DECAY_SCHEDULE
    assert result.sigma_c2c == 0.03
    assert result.candidates_evaluated == 2
    assert result.residual <= 8.0
    assert set(result.medians) == set(CALIBRATION_TARGETS)
    again = calibrate_epochs(
        seeds=15,
        first_fraction_grid=(0.163, 0.30),
        tail_fraction_grid=(0.0114,),
        sigma_grid=(0.03,),
    )
    assert again.residual == result.residual
    assert again.decay_schedule == result.decay_schedule


# ---------------------------------------------------------------------------
# figure data


def test_reproduce_figures_small(tmp_path):
    paths = reproduce_figures(
        tmp_path, seed=0, sweep_seeds=6, characterize_cycles=3, trajectory_epochs=15
    )
    names = {p.name for p in paths}
    assert {"fig2b.csv", "fig2c.csv", "fig2d.csv", "fig7.csv"} <= names
    for cv in ("0.60", "0.40", "0.24", "0.09"):
        assert f"fig5_{cv}.csv" in names
        assert f"fig5_{cv}_hist.csv" in names
        assert f"fig6_{cv}.csv" in names
    assert "fig4_epoch00.csv" in names

    # epoch zero map is the clean slate
    _, rows = read_csv(tmp_path / "fig4_epoch00.csv")
    for row in rows:
        assert all(float(x) == 1.0 for x in row[1:])

    # the tightest distribution recalls inside one epoch: its first-epoch
    # current already clears the conservative threshold line
    header, rows = read_csv(tmp_path / "fig6_0.09.csv")
    assert header == ["epoch", "current_amps", "threshold_c15_amps", "threshold_c2_amps"]
    assert len(rows) == 15
    first = rows[0]
    assert float(first[1]) > float(first[3])

    header, rows = read_csv(tmp_path / "fig7.csv")
    assert header == ["cv", "median_epochs", "median_energy_joules", "n_seeds", "n_nonconverged"]
    assert [float(r[0]) for r in rows] == [0.60, 0.40, 0.24, 0.09]
    assert all(int(r[4]) == 0 for r in rows)


def test_fig6_c15_threshold_uses_configured_read_bias(tmp_path):
    # both threshold columns scale with v_read, so their ratio is 1.5 / 2
    sweep_figures(
        tmp_path, network=NetworkConfig(v_read=0.2), cvs=(0.24,),
        sweep_seeds=3, trajectory_epochs=3,
    )
    _, rows = read_csv(tmp_path / "fig6_0.24.csv")
    for row in rows:
        assert float(row[2]) / float(row[3]) == pytest.approx(0.75, rel=1e-9)


def test_reproduce_figures_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    pa = reproduce_figures(a, seed=2, sweep_seeds=4, characterize_cycles=2, trajectory_epochs=8)
    pb = reproduce_figures(b, seed=2, sweep_seeds=4, characterize_cycles=2, trajectory_epochs=8)
    assert [p.name for p in pa] == [p.name for p in pb]
    for x, y in zip(pa, pb):
        assert x.read_bytes() == y.read_bytes()
