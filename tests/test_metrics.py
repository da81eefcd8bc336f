"""Energy accounting, read-bias sensitivity, variation sweeps."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmxbar._io import write_json
from pcmxbar.calibrated import CALIBRATED_DECAY_SCHEDULE
from pcmxbar.config import default_run_config
from pcmxbar.crossbar import ArrayGeometry, build_array
from pcmxbar.device import DeviceParams, VariationSpec
from pcmxbar.errors import OutputError, ParameterError, ProtocolError
from pcmxbar.hopfield import (
    MISSING_PIXEL_ONE,
    PATTERN_ONE,
    NetworkConfig,
    compute_threshold,
    run_learning,
)
from pcmxbar.metrics import (
    DEFAULT_PERTURBATION_GRID,
    SensitivityResult,
    read_voltage_sensitivity,
    variation_sweep,
    write_sweep_csv,
)

ALPHA = (1.0e4 / 3.0e6) ** (1.0 / 9.0)

# the shipped staircase shape, restated here so these tests stand alone
CAL_SCHEDULE = (0.163, 0.00175, 0.00175, 0.00175, 0.0202, 0.0114, 0.0114, 0.0114, 0.0114)
CAL_PARAMS = DeviceParams(sigma_c2c=0.03, decay_schedule=CAL_SCHEDULE)


def zero_trace():
    arr = build_array(
        ArrayGeometry(), DeviceParams(sigma_c2c=0.0), VariationSpec(cv=0.0), seed=1
    )
    return run_learning(arr, PATTERN_ONE, 6, NetworkConfig()), arr


# ---------------------------------------------------------------------------
# energy accounting


def test_ledger_exact_identities():
    trace, _ = zero_trace()
    assert trace.program_event_count == 50  # 25 cells x 2 epochs
    assert trace.program_energy == 50 * 1.92e-10
    assert trace.total_energy == trace.program_energy + trace.read_energy


def test_epoch_energy_scale():
    trace, arr = zero_trace()
    first = trace.epochs[0]
    assert first.program_energy == pytest.approx(4.8e-9, rel=1e-12)
    # reads are six orders of magnitude below programming
    assert first.read_energy / first.program_energy < 1e-4


def test_ledger_matches_trace_totals():
    arr = build_array(ArrayGeometry(), CAL_PARAMS, VariationSpec(cv=0.40), seed=11)
    trace = run_learning(arr, PATTERN_ONE, 6, NetworkConfig())
    assert trace.program_event_count == 25 * len(trace.epochs)
    assert trace.program_energy == trace.program_event_count * arr.params.e_prog
    read_energy = 0.0
    for ep in trace.epochs:
        read_energy += ep.read_energy
    assert trace.read_energy == read_energy
    assert trace.total_energy == trace.program_energy + trace.read_energy


# ---------------------------------------------------------------------------
# read-bias sensitivity


def test_sensitivity_zero_variation_flip_point():
    params = DeviceParams(sigma_c2c=0.0)
    res = read_voltage_sensitivity(params, VariationSpec(cv=0.0), NetworkConfig(), seed=1)
    assert res.base_epochs == 2
    # independent flip point: the bias raise that lifts the epoch-1 current
    # just over the threshold, rounded up to the scan grid
    thr = 2.0 * 0.1 * 4 / 3.0e6
    i1 = 0.1 * 4 / (3.0e6 * ALPHA)
    need = thr / i1 - 1.0
    expected = math.ceil(need * 100.0) / 100.0
    assert expected == 0.07
    assert res.min_relative_perturbation == pytest.approx(expected)
    assert res.flip_direction == "up"
    assert res.flipped


def test_sensitivity_prediction_matches_full_rerun():
    # the scan works on one recorded trajectory; changing the bias in a real
    # rerun (threshold pinned) must land on the same epoch counts
    params = DeviceParams(sigma_c2c=0.0)
    res = read_voltage_sensitivity(params, VariationSpec(cv=0.0), NetworkConfig(), seed=1)
    delta = res.min_relative_perturbation

    def epochs_with_bias(v):
        arr = build_array(ArrayGeometry(), params, VariationSpec(cv=0.0), seed=1)
        cfg = NetworkConfig(v_read=v)
        trace = run_learning(arr, PATTERN_ONE, 6, cfg, threshold=res.threshold)
        return trace.epochs_to_recall

    base_v = 0.1
    assert epochs_with_bias(base_v) == res.base_epochs
    assert epochs_with_bias(base_v * (1 + delta)) != res.base_epochs
    assert epochs_with_bias(base_v * (1 + delta - 0.01)) == res.base_epochs


def test_sensitivity_grid_exhausted_is_sentinel():
    params = DeviceParams(sigma_c2c=0.0)
    res = read_voltage_sensitivity(
        params, VariationSpec(cv=0.0), NetworkConfig(), seed=1, grid=(0.01, 0.02)
    )
    assert res.base_epochs == 2
    assert res.min_relative_perturbation is None
    assert not res.flipped
    assert res.flip_direction is None


def test_sensitivity_reads_a_one_shot_grid_once():
    params = DeviceParams(sigma_c2c=0.0)

    def run(grid):
        return read_voltage_sensitivity(
            params, VariationSpec(cv=0.0), NetworkConfig(), seed=1, grid=grid
        )

    grid = DEFAULT_PERTURBATION_GRID[:20]
    res = run(d for d in grid)
    assert res == run(grid)
    assert res.grid == grid and res.flipped
    # a bad grid raises on every call, however it is given
    for bad in ((0.2, 0.1), [0.2, 0.1], iter((0.2, 0.1)), (d for d in (0.1, 1.0))):
        with pytest.raises(ParameterError):
            run(bad)
    with pytest.raises(ParameterError):
        run((0.2, 0.1))


@pytest.mark.parametrize(
    "bad",
    [["a"], [None], ["0.5"], [0.1, "0.2"], [1j], [np.array([0.1])], [np.array("a")], [[0.1]]],
    ids=["str", "none", "numeric-str", "str-after-float", "complex", "1d-array", "0d-str",
         "list"],
)
def test_sensitivity_grid_entries_must_be_real_numbers(bad):
    with pytest.raises(ParameterError, match="real numbers"):
        read_voltage_sensitivity(
            DeviceParams(sigma_c2c=0.0), VariationSpec(cv=0.0), NetworkConfig(), seed=1, grid=bad
        )


def test_sensitivity_reads_numpy_grid_entries_as_floats():
    params = DeviceParams(sigma_c2c=0.0)

    def run(grid):
        return read_voltage_sensitivity(
            params, VariationSpec(cv=0.0), NetworkConfig(), seed=1, grid=grid
        )

    want = run(DEFAULT_PERTURBATION_GRID)
    assert want.grid == DEFAULT_PERTURBATION_GRID
    for grid in (
        np.array(DEFAULT_PERTURBATION_GRID),
        [np.float64(d) for d in DEFAULT_PERTURBATION_GRID],
        [np.array(d) for d in DEFAULT_PERTURBATION_GRID],
    ):
        got = run(grid)
        assert got == want
        assert all(type(d) is float for d in got.grid)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    # a 0-d array entry is unhashable; it is read uncached, as often as it is given
    with pytest.raises(ParameterError, match="ascending"):
        run([np.array(0.2), np.array(0.1)])


def test_sensitivity_requires_converged_base():
    params = DeviceParams(sigma_c2c=0.0)
    with pytest.raises(ProtocolError):
        read_voltage_sensitivity(
            params, VariationSpec(cv=0.0), NetworkConfig(max_epochs=1), seed=1
        )


def test_sensitivity_deterministic():
    a = read_voltage_sensitivity(CAL_PARAMS, VariationSpec(cv=0.60), NetworkConfig(), seed=3)
    b = read_voltage_sensitivity(CAL_PARAMS, VariationSpec(cv=0.60), NetworkConfig(), seed=3)
    assert a == b
    assert a.min_relative_perturbation in DEFAULT_PERTURBATION_GRID


def test_sensitivity_tighter_distribution_has_wider_margin():
    # spot check of the headline ordering on a few paired seeds
    wider = 0
    for seed in range(10):
        d60 = read_voltage_sensitivity(
            CAL_PARAMS, VariationSpec(cv=0.60), NetworkConfig(), seed=seed
        ).min_relative_perturbation
        d09 = read_voltage_sensitivity(
            CAL_PARAMS, VariationSpec(cv=0.09), NetworkConfig(), seed=seed
        ).min_relative_perturbation
        if d60 is not None and d09 is not None and d09 > d60:
            wider += 1
    assert wider >= 7


def test_sensitivity_first_epoch_margin_is_threshold_gap():
    # a run that recalls in epoch one flips at the smallest grid step that
    # pulls the epoch-one current down to the threshold; C6's cap rests on it
    grid = DEFAULT_PERTURBATION_GRID
    checked = 0
    for seed in range(50):
        res = read_voltage_sensitivity(
            CAL_PARAMS, VariationSpec(cv=0.09), NetworkConfig(), seed=seed
        )
        if res.base_epochs != 1:
            continue
        arr = build_array(ArrayGeometry(), CAL_PARAMS, VariationSpec(cv=0.09), seed)
        trace = run_learning(arr, PATTERN_ONE, 6, NetworkConfig())
        assert trace.epochs_to_recall == 1
        assert trace.threshold == res.threshold
        i1 = trace.epochs[0].recall_currents[6]
        expected = next((d for d in grid if (1.0 - d) * i1 <= trace.threshold), None)
        assert res.min_relative_perturbation == expected
        assert res.flip_direction == "down"
        checked += 1
    assert checked >= 40


def full_trajectory_sensitivity(params, variation, network, seed, *, grid=DEFAULT_PERTURBATION_GRID):
    """Brute-force reference: train through the whole budget, scan every epoch."""
    arr = build_array(ArrayGeometry(), params, variation, seed)
    threshold = compute_threshold(arr.initial_resistance, network)
    trace = run_learning(
        arr, PATTERN_ONE, MISSING_PIXEL_ONE, network, threshold=math.inf, record_maps=False
    )
    currents = [ep.recall_currents[MISSING_PIXEL_ONE] for ep in trace.epochs]

    def first_crossing(scaled):
        return next((e for e, i in enumerate(scaled, start=1) if i > threshold), None)

    base = first_crossing(currents)
    if base is None:
        raise ProtocolError(
            f"baseline run (cv={variation.cv}, seed={seed}) never recalled; "
            "sensitivity is undefined without a baseline"
        )
    min_delta = direction = None
    for d in grid:
        up_flip = first_crossing([(1.0 + d) * i for i in currents]) != base
        down_flip = first_crossing([(1.0 - d) * i for i in currents]) != base
        if up_flip or down_flip:
            min_delta = d
            direction = "both" if (up_flip and down_flip) else ("up" if up_flip else "down")
            break
    return SensitivityResult(
        cv=variation.cv, seed=seed, v_read=network.v_read, threshold=threshold,
        base_epochs=base, grid=tuple(grid),
        min_relative_perturbation=min_delta, flip_direction=direction,
    )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_dict()
    except ProtocolError as exc:
        return ("ProtocolError", str(exc))


# a step so small that 1.0 + d == 1.0 and 1.0 - d == 1.0 in double precision
TINY_STEP = 2.0**-60

grids = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    | st.just(TINY_STEP),
    max_size=8,
    unique=True,
).map(lambda ds: tuple(sorted(ds)))


@settings(max_examples=200, deadline=None)
@given(
    grid=grids,
    cv=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32),
    c_factor=st.floats(min_value=0.5, max_value=3.0),
    sigma_c2c=st.sampled_from((0.0, 0.03, 0.1)) | st.floats(min_value=0.0, max_value=0.3),
    v_read=st.floats(min_value=0.0, max_value=0.5),
    max_epochs=st.integers(min_value=1, max_value=30),
)
@example(  # tight spread: flips downward at the first recall epoch
    grid=DEFAULT_PERTURBATION_GRID, cv=0.09, seed=0, c_factor=2.0, sigma_c2c=0.03,
    v_read=0.1, max_epochs=100,
)
@example(  # wide spread over the full budget
    grid=DEFAULT_PERTURBATION_GRID, cv=0.60, seed=3, c_factor=2.0, sigma_c2c=0.03,
    v_read=0.1, max_epochs=100,
)
@example(  # a step too small to move any current, then a real one
    grid=(TINY_STEP, 0.3), cv=0.40, seed=5, c_factor=2.0, sigma_c2c=0.03,
    v_read=0.1, max_epochs=100,
)
@example(  # the baseline never recalls within the budget
    grid=DEFAULT_PERTURBATION_GRID, cv=0.60, seed=0, c_factor=2.0, sigma_c2c=0.03,
    v_read=0.1, max_epochs=1,
)
@example(  # no read bias, no current: never recalls
    grid=DEFAULT_PERTURBATION_GRID, cv=0.24, seed=1, c_factor=2.0, sigma_c2c=0.03,
    v_read=0.0, max_epochs=5,
)
def test_sensitivity_matches_full_trajectory_oracle(
    grid, cv, seed, c_factor, sigma_c2c, v_read, max_epochs
):
    params = DeviceParams(sigma_c2c=sigma_c2c, decay_schedule=CALIBRATED_DECAY_SCHEDULE)
    variation = VariationSpec(cv=cv)
    network = NetworkConfig(c_factor=c_factor, v_read=v_read, max_epochs=max_epochs)
    expected = _outcome(full_trajectory_sensitivity, params, variation, network, seed, grid=grid)
    got = _outcome(read_voltage_sensitivity, params, variation, network, seed, grid=grid)
    assert got == expected


# ---------------------------------------------------------------------------
# variation sweep


def test_variation_sweep_rows():
    rows = variation_sweep((0.09, 0.60), seeds=5, params=CAL_PARAMS, network=NetworkConfig())
    assert [r["cv"] for r in rows] == [0.60, 0.09]  # descending, widest first
    for r in rows:
        assert set(r) == {
            "cv",
            "median_epochs",
            "median_energy_joules",
            "n_seeds",
            "n_nonconverged",
        }
        assert r["n_seeds"] == 5
        assert r["n_nonconverged"] == 0
    tight = rows[-1]
    assert tight["median_epochs"] == 1
    assert tight["median_energy_joules"] == pytest.approx(4.8e-9, rel=1e-3)
    assert rows[0]["median_epochs"] > tight["median_epochs"]
    assert rows[0]["median_energy_joules"] > tight["median_energy_joules"]


def test_variation_sweep_deterministic():
    kw = dict(seeds=4, params=CAL_PARAMS, network=NetworkConfig())
    assert variation_sweep((0.24,), **kw) == variation_sweep((0.24,), **kw)


def test_variation_sweep_takes_a_numpy_integer_count():
    kw = dict(params=CAL_PARAMS, network=NetworkConfig())
    rows = variation_sweep((0.60,), np.int64(3), **kw)
    assert rows == variation_sweep((0.60,), 3, **kw) == variation_sweep((0.60,), [0, 1, 2], **kw)


def test_readme_sweep_table_matches_quick_start_sweep():
    # the README table is what `pcmxbar sweep` writes with the default config
    cfg = default_run_config()
    rows = variation_sweep(
        cfg.cvs,
        range(cfg.seed, cfg.seed + cfg.sweep_seeds),
        cfg.device,
        cfg.network,
        device_share=cfg.device_share,
    )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("cv      median epochs   median energy\n", 1)[1].split("```", 1)[0]
    assert table == "".join(
        f"{r['cv']:.2f}{r['median_epochs']:10.1f}{r['median_energy_joules'] * 1e9:14.2f} nJ\n"
        for r in rows
    )


def test_sweep_csv_golden_header(tmp_path):
    rows = variation_sweep((0.09,), seeds=3, params=CAL_PARAMS, network=NetworkConfig())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path, provenance={"seed_count": 3})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed_count=3"
    assert lines[1] == "cv,median_epochs,median_energy_joules,n_seeds,n_nonconverged"
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert float(fields[0]) == 0.09
    assert float(fields[1]) == 1.0
    assert int(fields[3]) == 3


def test_sensitivity_json(tmp_path):
    res = read_voltage_sensitivity(
        DeviceParams(sigma_c2c=0.0), VariationSpec(cv=0.0), NetworkConfig(), seed=1
    )
    path = tmp_path / "sens.json"
    write_json(path, res.to_dict(), provenance={"seed": 1})
    data = json.loads(path.read_text())
    assert data["base_epochs"] == 2
    assert data["min_relative_perturbation"] == pytest.approx(0.07)
    assert data["flip_direction"] == "up"
    assert data["provenance"]["seed"] == 1


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_write_json_rejects_non_finite(tmp_path, value):
    path = tmp_path / "bad.json"
    with pytest.raises(OutputError, match="bad.json"):
        write_json(path, {"threshold_amps": value}, provenance={"seed": 1})
    assert not path.exists()
