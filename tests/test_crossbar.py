"""Array construction, parallel gradual updates, recall reads, map export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmxbar._io import write_map_csv
from pcmxbar.crossbar import (
    ArrayGeometry,
    build_array,
    apply_update_phase,
    read_recall_currents,
    resistance_map,
)
from pcmxbar.device import DeviceParams, VariationSpec
from pcmxbar.errors import ParameterError

ZERO_VAR = VariationSpec(cv=0.0)


def quiet_params(**kw):
    kw.setdefault("sigma_c2c", 0.0)
    return DeviceParams(**kw)


def test_geometry_defaults_and_validation():
    g = ArrayGeometry()
    assert (g.rows, g.cols) == (10, 10)
    with pytest.raises(ParameterError):
        ArrayGeometry(rows=0, cols=5)
    with pytest.raises(ParameterError):
        ArrayGeometry(rows=5, cols=-1)


def test_build_zero_cv_is_uniform():
    arr = build_array(ArrayGeometry(), DeviceParams(), ZERO_VAR, seed=1)
    assert np.all(arr.resistance == 3.0e6)
    assert np.all(arr.initial_resistance == 3.0e6)
    assert np.all(arr.device_factor == 1.0)
    assert np.all(arr.pulses_applied == 0)
    assert arr.seed == 1


def test_build_deterministic_in_seed():
    a = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=42)
    b = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=42)
    c = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=43)
    assert np.array_equal(a.resistance, b.resistance)
    assert np.array_equal(a.device_factor, b.device_factor)
    assert not np.array_equal(a.resistance, c.resistance)


def test_build_pooled_spread():
    vals = np.concatenate(
        [
            build_array(
                ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=s
            ).resistance.ravel()
            for s in range(50)
        ]
    )
    assert abs(np.median(vals) - 3.0e6) / 3.0e6 < 0.10
    cv = vals.std() / vals.mean()
    assert 0.54 < cv < 0.66


def test_update_empty_firing_is_noop():
    arr = build_array(ArrayGeometry(), quiet_params(), ZERO_VAR, seed=1)
    before = arr.resistance.copy()
    cells, energy = apply_update_phase(arr, frozenset(), np.random.default_rng(0))
    assert cells == []
    assert energy == 0.0
    assert np.array_equal(arr.resistance, before)


def test_update_cell_order_and_energy():
    arr = build_array(ArrayGeometry(), quiet_params(), ZERO_VAR, seed=1)
    firing = {6, 1, 3, 2, 4}
    cells, energy = apply_update_phase(arr, firing, np.random.default_rng(0))
    fs = sorted(firing)
    assert cells == [(w, b) for w in fs for b in fs]  # row-major, 25 cells
    assert energy == 25 * arr.params.e_prog
    mask = np.zeros((10, 10), dtype=bool)
    for w, b in cells:
        mask[w - 1, b - 1] = True
    assert np.all(arr.pulses_applied[mask] == 1)
    assert np.all(arr.pulses_applied[~mask] == 0)


def test_update_touches_only_selected_cells():
    arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=8)
    before = arr.resistance.copy()
    cells, _ = apply_update_phase(arr, {2, 9}, np.random.default_rng(1))
    assert len(cells) == 4
    mask = np.zeros((10, 10), dtype=bool)
    for w, b in cells:
        mask[w - 1, b - 1] = True
    assert np.array_equal(arr.resistance[~mask], before[~mask])
    # one 0.63 log step dwarfs the 0.10 jitter, so every cell drops
    assert np.all(arr.resistance[mask] < before[mask])


def test_update_rejects_out_of_range_neurons():
    arr = build_array(ArrayGeometry(), DeviceParams(), ZERO_VAR, seed=1)
    with pytest.raises(ParameterError):
        apply_update_phase(arr, {0, 1}, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        apply_update_phase(arr, {11}, np.random.default_rng(0))


def test_update_deterministic():
    def run():
        arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.40), seed=5)
        apply_update_phase(arr, {1, 2, 3, 4, 6}, np.random.default_rng(99))
        return arr.resistance

    assert np.array_equal(run(), run())


def test_read_uniform_array_currents():
    arr = build_array(ArrayGeometry(), DeviceParams(), ZERO_VAR, seed=1)
    currents = read_recall_currents(arr, {1, 2, 3, 4}, 0.1)
    assert sorted(currents) == [5, 6, 7, 8, 9, 10]
    for i in currents:
        assert currents[i] == pytest.approx(0.1 * 4 / 3.0e6, rel=1e-12)


def test_read_brute_force_oracle_rectangular():
    geom = ArrayGeometry(rows=5, cols=7)
    arr = build_array(geom, DeviceParams(), VariationSpec(cv=0.60), seed=17)
    firing = {1, 3, 4}
    currents = read_recall_currents(arr, firing, 0.1)
    assert sorted(currents) == [2, 5, 6, 7]
    for b in currents:
        expected = 0.0
        for w in sorted(firing):
            expected += 0.1 / arr.resistance[w - 1, b - 1]
        assert currents[b] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_superposition_on_disjoint_sets(data):
    arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=23)
    pool = list(range(1, 11))
    f1 = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    rest = [n for n in pool if n not in f1]
    f2 = data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=4))
    joint = read_recall_currents(arr, f1 | f2, 0.1)
    i1 = read_recall_currents(arr, f1, 0.1)
    i2 = read_recall_currents(arr, f2, 0.1)
    for b in joint:
        assert joint[b] == pytest.approx(i1[b] + i2[b], rel=1e-12)


def test_read_scales_exactly_with_voltage():
    arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.40), seed=31)
    lo = read_recall_currents(arr, {1, 2, 5}, 0.1)
    hi = read_recall_currents(arr, {1, 2, 5}, 0.2)
    for b in lo:
        assert hi[b] == 2.0 * lo[b]  # doubling the bias is exact in floats


def test_read_is_pure_and_validates():
    arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.24), seed=2)
    before = arr.resistance.copy()
    read_recall_currents(arr, {1, 2}, 0.1)
    assert np.array_equal(arr.resistance, before)
    with pytest.raises(ParameterError):
        read_recall_currents(arr, {1}, -0.1)
    with pytest.raises(ParameterError):
        read_recall_currents(arr, {0}, 0.1)
    empty = read_recall_currents(arr, frozenset(), 0.1)
    assert sorted(empty) == list(range(1, 11))
    assert all(v == 0.0 for v in empty.values())


def test_resistance_map_fresh_is_unity():
    arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed=12)
    m = resistance_map(arr)
    assert m.shape == (10, 10)
    assert np.all(m == 1.0)
    raw = resistance_map(arr, normalized=False)
    assert np.array_equal(raw, arr.resistance)
    raw[0, 0] = -1.0  # the export is a copy
    assert arr.resistance[0, 0] != -1.0


def test_resistance_map_after_one_update():
    arr = build_array(ArrayGeometry(), quiet_params(), ZERO_VAR, seed=1)
    cells, _ = apply_update_phase(arr, {1, 2, 3, 4, 6}, np.random.default_rng(0))
    m = resistance_map(arr)
    expected = math.exp(-math.log(300.0) / 9.0)
    mask = np.zeros((10, 10), dtype=bool)
    for w, b in cells:
        mask[w - 1, b - 1] = True
    assert np.allclose(m[mask], expected, rtol=1e-12)
    assert np.all(m[~mask] == 1.0)


def test_export_resistance_map_csv(tmp_path):
    arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.40), seed=9)
    apply_update_phase(arr, {1, 2, 3}, np.random.default_rng(4))
    path = tmp_path / "map.csv"
    write_map_csv(path, resistance_map(arr), provenance={"seed": 9})
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("seed=9" in ln for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "wordline," + ",".join(f"bitline_{b}" for b in range(1, 11))
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 10  # one row per wordline
    m = resistance_map(arr)
    for r, ln in enumerate(data):
        fields = ln.split(",")
        assert int(fields[0]) == r + 1
        vals = [float(x) for x in fields[1:]]
        assert len(vals) == 10
        assert vals == pytest.approx(m[r], rel=1e-5)  # 6 significant digits
    # the header and the row labels follow the matrix's own shape
    write_map_csv(tmp_path / "rect.csv", np.full((2, 3), 0.5))
    assert (tmp_path / "rect.csv").read_text() == (
        "wordline,bitline_1,bitline_2,bitline_3\n1,0.5,0.5,0.5\n2,0.5,0.5,0.5\n"
    )
