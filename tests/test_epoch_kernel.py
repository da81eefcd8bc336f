"""The scalar epoch kernel, bit for bit against the index-building kernel it replaced.

The oracle below is the update, read, read-energy and staircase code as it
stood before firing plans and the step table: it builds its cell list, index
arrays and ``np.ix_`` block on every call and multiplies the schedule by the
swing after indexing. The kernel must give the same state, cells, currents,
energies and errors on every geometry, firing set, pulse history, schedule
and memory layout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmxbar import crossbar, device, hopfield
from pcmxbar.calibrated import calibrated_device_params, calibrated_variation, training_stream
from pcmxbar.crossbar import ArrayGeometry, CrossbarState, build_array, firing_plan
from pcmxbar.device import DeviceParams, VariationSpec
from pcmxbar.errors import ParameterError
from pcmxbar.hopfield import MISSING_PIXEL_ONE, PATTERN_ONE, NetworkConfig, run_learning

# -- oracle -------------------------------------------------------------------


def oracle_decay_log_steps(params, pulses_applied):
    if params.decay_schedule is None:
        sched = np.full(params.gradual_levels, 1.0 / params.gradual_levels)
    else:
        sched = np.asarray(params.decay_schedule, dtype=float)
    idx = np.minimum(np.asarray(pulses_applied, dtype=np.intp), len(sched) - 1)
    return sched[idx] * params.log_swing


def _oracle_check_firing(array, firing):
    neurons = sorted(set(firing))
    limit = min(array.geometry.rows, array.geometry.cols)
    for n in neurons:
        if not 1 <= n <= limit:
            raise ParameterError(f"firing neuron {n} outside 1..{limit}")
    return neurons


def oracle_apply_update_phase(array, firing, rng):
    neurons = _oracle_check_firing(array, firing)
    cells = [(w, b) for w in neurons for b in neurons]
    if not cells:
        return [], 0.0
    params = array.params
    wl = np.array([w - 1 for w, _ in cells], dtype=np.intp)
    bl = np.array([b - 1 for _, b in cells], dtype=np.intp)
    steps = oracle_decay_log_steps(params, array.pulses_applied[wl, bl])
    eps = params.sigma_c2c * rng.standard_normal(len(cells))
    r_new = array.resistance[wl, bl] * np.exp(-steps + eps)
    array.resistance[wl, bl] = np.maximum(params.r_set_floor, r_new)
    array.pulses_applied[wl, bl] += 1
    return cells, len(cells) * params.e_prog


def oracle_read_recall_currents(array, firing, v_read):
    if v_read < 0.0:
        raise ParameterError(f"v_read must be >= 0, got {v_read}")
    neurons = _oracle_check_firing(array, firing)
    sensed = [b for b in range(1, array.geometry.cols + 1) if b not in set(neurons)]
    if not neurons:
        return {b: 0.0 for b in sensed}
    rows = np.array([n - 1 for n in neurons], dtype=np.intp)
    cols = np.array([b - 1 for b in sensed], dtype=np.intp)
    conductance = 1.0 / array.resistance[np.ix_(rows, cols)]
    totals = v_read * conductance.sum(axis=0)
    return {b: float(i) for b, i in zip(sensed, totals)}


def oracle_read_energy(array, cue, config):
    rows = np.array(sorted(cue), dtype=np.intp) - 1
    cols = np.array([b - 1 for b in range(1, array.geometry.cols + 1) if b not in cue], dtype=np.intp)
    g = 1.0 / array.resistance[np.ix_(rows, cols)]
    return config.v_read**2 * config.read_duration * float(g.sum())


# -- cases --------------------------------------------------------------------

SCHEDULES = {
    "nominal": DeviceParams(),
    "calibrated": calibrated_device_params(),
    "uniform 4": DeviceParams(gradual_levels=4, sigma_c2c=0.2),
    "three steps": DeviceParams(decay_schedule=(0.3, 0.01, 0.05), sigma_c2c=0.05),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def _layout(values: np.ndarray, layout: str) -> np.ndarray:
    """``values`` held C-ordered, Fortran-ordered, or as a strided view of a larger buffer."""
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    rows, cols = values.shape
    base = np.zeros((2 * rows + 1, 3 * cols), dtype=values.dtype)
    view = base[1::2, ::3]
    view[...] = values
    return view


def _arrays(params, rows, cols, seed, max_pulses, layout):
    """Two identical arrays, one per kernel, with their state in ``layout``."""
    rng = np.random.default_rng(seed)
    resistance = np.maximum(
        params.r_set_floor, params.r_reset_median * np.exp(rng.normal(0.0, 1.5, (rows, cols)))
    )
    pulses = rng.integers(0, max_pulses + 1, (rows, cols))
    return [
        CrossbarState(
            geometry=ArrayGeometry(rows, cols), params=params, variation=VariationSpec(cv=0.3),
            seed=seed, resistance=_layout(resistance, layout),
            initial_resistance=resistance.copy(), pulses_applied=_layout(pulses, layout),
        )
        for _ in range(2)
    ]


def _state(array):
    """The arrays' whole buffers, so a write outside a strided view shows too."""
    return [a if a.base is None else a.base for a in (array.resistance, array.pulses_applied)]


@settings(max_examples=150, deadline=None)
@given(
    schedule=st.sampled_from(sorted(SCHEDULES)),
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    max_pulses=st.sampled_from([0, 3, 30]),
    layout=st.sampled_from(["C", "F", "strided"]),
    phases=st.lists(st.lists(st.integers(-1, 9), max_size=9), min_size=1, max_size=4),
    v_read=st.floats(0.0, 1.0),
)
def test_kernel_matches_the_oracle(schedule, rows, cols, seed, max_pulses, layout, phases, v_read):
    params = SCHEDULES[schedule]
    new, old = _arrays(params, rows, cols, seed, max_pulses, layout)
    config = NetworkConfig(v_read=v_read)
    limit = min(rows, cols)
    for k, firing in enumerate(phases):  # lists: duplicates and any order
        got = _outcome(crossbar.apply_update_phase, new, firing, np.random.default_rng(k))
        want = _outcome(oracle_apply_update_phase, old, firing, np.random.default_rng(k))
        assert got == want
        for a, b in zip(_state(new), _state(old)):
            assert np.array_equal(a, b)
        got = _outcome(crossbar.read_recall_currents, new, firing, v_read)
        want = _outcome(oracle_read_recall_currents, old, firing, v_read)
        assert got == want
        if isinstance(got, dict):
            assert list(got) == list(want)
        if all(1 <= n <= limit for n in firing):
            cue = frozenset(firing)
            assert hopfield._read_energy(new, cue, config) == oracle_read_energy(old, cue, config)
            plan = firing_plan(cue, rows, cols)
            arrays = (plan.flat, *plan.read_block)
            assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ParameterError):
        crossbar.read_recall_currents(new, [1], -v_read - 1.0)


@settings(max_examples=100, deadline=None)
@given(
    schedule=st.sampled_from(sorted(SCHEDULES)),
    pulses=st.one_of(
        st.integers(0, 40),
        st.lists(st.integers(0, 40), max_size=12).map(np.array),
        st.lists(st.integers(0, 40), min_size=6, max_size=6).map(lambda p: np.reshape(p, (2, 3))),
    ),
)
def test_step_table_matches_the_oracle(schedule, pulses):
    params = SCHEDULES[schedule]
    got = device.decay_log_steps(params, pulses)
    want = oracle_decay_log_steps(params, pulses)
    assert type(got) is type(want)
    assert np.array_equal(got, want)
    assert not params.log_step_table.flags.writeable


def test_epoch_loop_builds_no_indices():
    # one warm run fills the plan cache; a second run through every epoch
    # must find each firing set's plan and the step table already built
    params = calibrated_device_params()
    config = NetworkConfig(max_epochs=30)

    def run():
        arr = build_array(ArrayGeometry(), params, calibrated_variation(0.60), 4)
        return run_learning(arr, PATTERN_ONE, MISSING_PIXEL_ONE, config, training_stream(4),
                            threshold=math.inf).to_dict()

    warm = run()
    before = firing_plan.cache_info()
    table = params.log_step_table
    again = run()
    after = firing_plan.cache_info()
    assert after.misses == before.misses
    # each epoch looks its plans up three times: update, currents, read energy
    assert after.hits == before.hits + 3 * config.max_epochs
    assert params.log_step_table is table
    assert again == warm
    assert len(again["epochs"]) == 30


def test_cohort_loop_does_no_per_epoch_index_work(monkeypatch):
    # at c_factor 1e6 no run ever recalls, so both cohorts train every run
    # through their whole budget: no count may grow with it
    calls = dict.fromkeys(("ix_", "unique", "searchsorted"), 0)

    def counting(name, real):
        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    params = calibrated_device_params()
    counts = []
    for max_epochs in (10, 30):
        calls.update(dict.fromkeys(calls, 0))
        config = NetworkConfig(c_factor=1e6, max_epochs=max_epochs)
        cohort = hopfield.run_cohort((0.60, 0.09), (3, 4, 3), params, config)
        assert not cohort.converged.any() and (cohort.epochs == max_epochs).all()
        counts.append(dict(calls))
    assert counts[0]["ix_"] == 0
    assert counts[0] == counts[1]
