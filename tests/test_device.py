"""Single-cell model: pulses, reset/set sampling, gradual staircase, reads."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmxbar.calibrated import calibrated_device_params
from pcmxbar.device import (
    GRADUAL_SET_PULSE,
    RESET_PULSE,
    SET_PULSE,
    CellState,
    DeviceParams,
    Pulse,
    VariationSpec,
    apply_full_reset,
    apply_full_set,
    apply_gradual_set,
    decay_log_steps,
    lognormal_sigma,
    sample_device_factor,
    sample_reset_resistance,
)
from pcmxbar.errors import ParameterError

# Closed-form per-pulse ratio for the default uniform 9-level staircase:
# (r_set_floor / r_reset_median) ** (1/9).  The implementation works in
# log space step by step; the tests check it against this geometric form.
ALPHA = (1.0e4 / 3.0e6) ** (1.0 / 9.0)


def fresh_cell(resistance=3.0e6, device_factor=1.0):
    return CellState(
        resistance=resistance,
        device_factor=device_factor,
        initial_reset_resistance=resistance,
    )


# ---------------------------------------------------------------------------
# pulses


def test_pulse_fields_and_validation():
    p = Pulse(amplitude_v=1.0, rise_s=50e-9, width_s=300e-9, fall_s=1e-6)
    assert p.amplitude_v == 1.0
    with pytest.raises(ParameterError):
        Pulse(amplitude_v=0.0, rise_s=50e-9, width_s=300e-9, fall_s=1e-6)
    with pytest.raises(ParameterError):
        Pulse(amplitude_v=1.0, rise_s=-1e-9, width_s=300e-9, fall_s=1e-6)


def test_default_pulse_shapes():
    assert SET_PULSE == Pulse(1.0, 50e-9, 300e-9, 1e-6)
    # fast trailing edge is what quenches the melt into the amorphous phase
    assert RESET_PULSE == Pulse(1.5, 5e-9, 50e-9, 5e-9)
    assert GRADUAL_SET_PULSE.amplitude_v == 0.85
    assert GRADUAL_SET_PULSE.width_s == SET_PULSE.width_s


# ---------------------------------------------------------------------------
# parameters and variation


def test_device_params_defaults():
    p = DeviceParams()
    assert p.r_reset_median == 3.0e6
    assert p.r_set_floor == 1.0e4
    assert p.gradual_levels == 9
    assert p.sigma_c2c == 0.10
    assert p.e_prog == 1.92e-10
    assert p.reset_energy == p.e_prog  # defaults to the programming energy
    assert p.pcm_energy_fraction == 0.10
    assert p.v_read_default == 0.1
    assert p.decay_schedule is None
    assert p.log_swing == pytest.approx(math.log(300.0), rel=1e-15)


def test_device_params_validation():
    with pytest.raises(ParameterError):
        DeviceParams(r_set_floor=4.0e6)  # floor above median
    with pytest.raises(ParameterError):
        DeviceParams(gradual_levels=0)
    with pytest.raises(ParameterError):
        DeviceParams(sigma_c2c=-0.1)
    with pytest.raises(ParameterError):
        DeviceParams(e_prog=0.0)
    with pytest.raises(ParameterError):
        DeviceParams(pcm_energy_fraction=1.5)
    with pytest.raises(ParameterError):
        DeviceParams(decay_schedule=(0.1, 0.0))
    for floor in (1e-310, 5e-324):  # finite and positive, but 1 / floor overflows
        with pytest.raises(ParameterError, match="conductance"):
            DeviceParams(r_set_floor=floor)
    p = DeviceParams(e_reset=5.0e-10)
    assert p.reset_energy == 5.0e-10


def test_lognormal_sigma():
    assert lognormal_sigma(0.0) == 0.0
    assert lognormal_sigma(0.60) == pytest.approx(
        math.sqrt(math.log(1.0 + 0.36)), rel=1e-15
    )
    assert lognormal_sigma(0.24) < lognormal_sigma(0.40) < lognormal_sigma(0.60)


def test_variation_spec_split():
    v = VariationSpec(cv=0.60)
    assert v.device_share == 0.8
    total2 = v.sigma_total**2
    assert v.sigma_device**2 == pytest.approx(0.8 * total2, rel=1e-12)
    assert v.sigma_cycle**2 == pytest.approx(0.2 * total2, rel=1e-12)
    assert v.sigma_device**2 + v.sigma_cycle**2 == pytest.approx(total2, rel=1e-12)
    # each sigma is read once per spec and kept, at the value of the formula
    for cv in (0.0, 0.09, 0.24, 0.40, 0.60, 3.0):
        for share in (0.0, 0.3, 0.8, 1.0):
            v = VariationSpec(cv=cv, device_share=share)
            assert v.sigma_total == lognormal_sigma(cv)
            assert v.sigma_device == math.sqrt(share) * lognormal_sigma(cv)
            assert v.sigma_cycle == math.sqrt(1.0 - share) * lognormal_sigma(cv)


def test_a_spec_whose_sigmas_were_read_is_still_the_same_value():
    read, fresh = VariationSpec(cv=0.60), VariationSpec(cv=0.60)
    assert read.sigma_total + read.sigma_device + read.sigma_cycle > 0.0
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert dataclasses.asdict(read) == dataclasses.asdict(fresh) == {"cv": 0.6, "device_share": 0.8}
    other = dataclasses.replace(read, cv=0.4)
    assert other.sigma_total == lognormal_sigma(0.4)
    assert other.sigma_device == math.sqrt(0.8) * lognormal_sigma(0.4)
    assert other.sigma_cycle == math.sqrt(1.0 - 0.8) * lognormal_sigma(0.4)


def test_variation_spec_validation():
    with pytest.raises(ParameterError):
        VariationSpec(cv=-0.1)
    with pytest.raises(ParameterError):
        VariationSpec(cv=0.6, device_share=1.2)
    with pytest.raises(ParameterError):  # finite, but cv * cv overflows
        VariationSpec(cv=1e200)


def test_sigma_c2c_whose_lognormal_spread_overflows_is_rejected():
    assert DeviceParams(sigma_c2c=26.0).sigma_c2c == 26.0
    for sigma in (27.0, 1e200):
        with pytest.raises(ParameterError):
            DeviceParams(sigma_c2c=sigma)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "field", ("r_reset_median", "r_set_floor", "sigma_c2c", "e_prog", "e_reset", "v_read_default")
)
def test_device_params_reject_non_finite(field, value):
    with pytest.raises(ParameterError):
        DeviceParams(**{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_variation_and_schedule_rejected(value):
    with pytest.raises(ParameterError):
        VariationSpec(cv=value)
    with pytest.raises(ParameterError):
        VariationSpec(cv=0.24, device_share=value)
    with pytest.raises(ParameterError):
        DeviceParams(decay_schedule=(0.1, value))


# ---------------------------------------------------------------------------
# reset sampling


def test_reset_zero_cv_is_exact_median():
    params = DeviceParams()
    var = VariationSpec(cv=0.0)
    rng = np.random.default_rng(0)
    r = sample_reset_resistance(params, var, 1.0, rng)
    assert r == 3.0e6  # no spread at all, exactly the median


def test_reset_consumes_one_draw():
    # replay depends on a fixed draw budget per operation
    params = DeviceParams()
    var = VariationSpec(cv=0.0)
    rng = np.random.default_rng(5)
    sample_reset_resistance(params, var, 1.0, rng)
    after = rng.standard_normal()
    ref = np.random.default_rng(5)
    ref.standard_normal()
    assert after == ref.standard_normal()


def test_pooled_reset_median_and_cv():
    params = DeviceParams()
    var = VariationSpec(cv=0.60)
    rng = np.random.default_rng(123)
    draws = np.empty(10_000)
    for i in range(draws.size):
        df = sample_device_factor(var, rng)
        draws[i] = sample_reset_resistance(params, var, df, rng)
    med = np.median(draws)
    cv = draws.std() / draws.mean()
    assert abs(med - 3.0e6) / 3.0e6 < 0.10
    assert abs(cv - 0.60) / 0.60 < 0.10


def test_reset_never_below_floor():
    params = DeviceParams()
    var = VariationSpec(cv=3.0)  # absurdly wide on purpose
    rng = np.random.default_rng(9)
    for _ in range(2000):
        df = sample_device_factor(var, rng)
        assert sample_reset_resistance(params, var, df, rng) >= params.r_set_floor


def test_tight_distribution_tail_stays_high():
    # at cv=0.09 the worst cell out of 100 should essentially never fall
    # below 2 MOhm (lognormal puts that ~4.5 sigma out)
    params = DeviceParams()
    var = VariationSpec(cv=0.09)
    good = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        lo = min(
            sample_reset_resistance(params, var, sample_device_factor(var, rng), rng)
            for _ in range(100)
        )
        good += lo > 2.0e6
    assert good >= 297  # >= 99 percent of seeds


def test_wide_distribution_has_lower_minima():
    params = DeviceParams()
    wide, tight = VariationSpec(cv=0.60), VariationSpec(cv=0.09)
    lower = 0
    for seed in range(50):
        rw = np.random.default_rng((seed, 60))
        rt = np.random.default_rng((seed, 9))
        lo_w = min(
            sample_reset_resistance(params, wide, sample_device_factor(wide, rw), rw)
            for _ in range(100)
        )
        lo_t = min(
            sample_reset_resistance(params, tight, sample_device_factor(tight, rt), rt)
            for _ in range(100)
        )
        lower += lo_w < lo_t
    assert lower >= 45


# ---------------------------------------------------------------------------
# gradual SET staircase


def test_staircase_zero_noise_matches_geometric_form():
    params = DeviceParams(sigma_c2c=0.0)
    rng = np.random.default_rng(1)
    cell = fresh_cell()
    for k in range(1, 10):
        cell, energy = apply_gradual_set(cell, params, rng)
        assert energy == params.e_prog
        assert cell.resistance == pytest.approx(3.0e6 * ALPHA**k, rel=1e-9)
        assert cell.pulses_applied == k
    # nine pulses land within 10 percent of the floor, eight do not
    assert cell.resistance <= 1.1 * params.r_set_floor
    assert cell.resistance >= params.r_set_floor
    assert 3.0e6 * ALPHA**8 > 1.1 * params.r_set_floor


def test_staircase_floor_is_fixed_point():
    params = DeviceParams(sigma_c2c=0.0)
    rng = np.random.default_rng(1)
    cell = fresh_cell(resistance=params.r_set_floor)
    cell, _ = apply_gradual_set(cell, params, rng)
    assert cell.resistance == params.r_set_floor


# a draw source whose every normal is zero: a gradual SET takes its bare step
ZERO_NOISE = SimpleNamespace(standard_normal=lambda: 0.0)


def test_log_step_table_default_and_tail():
    params = DeviceParams()
    table = params.log_step_table
    assert table.tolist() == [1.0 / 9.0 * params.log_swing] * 9
    # pulses past the schedule keep using the last entry
    assert decay_log_steps(params, 14) == table[-1]
    cell = fresh_cell()
    cell.pulses_applied = 14
    cell, _ = apply_gradual_set(cell, params, ZERO_NOISE)
    assert cell.resistance == 3.0e6 * math.exp(-table[-1])
    assert cell.pulses_applied == 15


def test_gradual_set_rejects_a_negative_pulse_count():
    cell = CellState(resistance=1e6, pulses_applied=-1)
    with pytest.raises(ParameterError, match="pulses_applied"):
        apply_gradual_set(cell, calibrated_device_params(sigma_c2c=0.0), ZERO_NOISE)
    assert cell.resistance == 1e6 and cell.pulses_applied == -1


def test_log_step_table_custom_schedule():
    params = DeviceParams(decay_schedule=(0.5, 0.25))
    L = params.log_swing
    assert params.log_step_table.tolist() == [0.5 * L, 0.25 * L]
    for pulses, fraction in ((0, 0.5), (1, 0.25), (6, 0.25)):
        cell = fresh_cell()
        cell.pulses_applied = pulses
        cell, _ = apply_gradual_set(cell, params, ZERO_NOISE)
        assert cell.resistance == 3.0e6 * math.exp(-(fraction * L))


@settings(max_examples=100, deadline=None)
@given(
    params=st.one_of(
        st.integers(1, 30).map(lambda levels: DeviceParams(gradual_levels=levels)),
        st.sampled_from((DeviceParams(), calibrated_device_params())),
        st.lists(st.floats(min_value=1e-12, max_value=10.0), min_size=1, max_size=12).map(
            lambda schedule: DeviceParams(decay_schedule=schedule)
        ),
    )
)
def test_scalar_step_matches_the_array_step(params):
    # apply_gradual_set and the array kernels must walk the same staircase
    length = len(params.decay_schedule or ()) or params.gradual_levels
    ks = np.arange(3 * length + 1)
    steps = decay_log_steps(params, ks)
    for k in ks:
        cell = fresh_cell()
        cell.pulses_applied = int(k)
        cell, _ = apply_gradual_set(cell, params, ZERO_NOISE)
        assert cell.resistance == max(params.r_set_floor, 3.0e6 * math.exp(-steps[k]))
        assert steps[k] == decay_log_steps(params, int(k))


def test_custom_schedule_steps_zero_noise():
    params = DeviceParams(sigma_c2c=0.0, decay_schedule=(0.5, 0.25))
    rng = np.random.default_rng(2)
    L = math.log(300.0)
    cell = fresh_cell()
    cell, _ = apply_gradual_set(cell, params, rng)
    assert cell.resistance == pytest.approx(3.0e6 * math.exp(-0.5 * L), rel=1e-12)
    cell, _ = apply_gradual_set(cell, params, rng)
    assert cell.resistance == pytest.approx(3.0e6 * math.exp(-0.75 * L), rel=1e-12)
    cell, _ = apply_gradual_set(cell, params, rng)
    assert cell.resistance == pytest.approx(3.0e6 * math.exp(-1.0 * L), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    start=st.floats(min_value=1.0e4, max_value=1.0e9),
    pulses=st.integers(min_value=1, max_value=30),
)
def test_staircase_monotone_and_floored(start, pulses):
    params = DeviceParams(sigma_c2c=0.0)
    rng = np.random.default_rng(3)
    cell = fresh_cell(resistance=start)
    prev = start
    for _ in range(pulses):
        cell, _ = apply_gradual_set(cell, params, rng)
        assert cell.resistance >= params.r_set_floor
        if prev > params.r_set_floor:
            assert cell.resistance < prev
        else:
            assert cell.resistance == params.r_set_floor
        prev = cell.resistance


def test_noisy_staircases_distinct_but_reproducible():
    params = DeviceParams()  # sigma_c2c=0.10
    run = []
    for seed in (10, 10, 11):
        rng = np.random.default_rng(seed)
        cell = fresh_cell()
        trace = []
        for _ in range(9):
            cell, _ = apply_gradual_set(cell, params, rng)
            trace.append(cell.resistance)
        run.append(trace)
    assert run[0] == run[1]  # same seed, same staircase, bit for bit
    assert run[0] != run[2]


# ---------------------------------------------------------------------------
# full SET / full RESET


def test_full_set_reaches_floor():
    params = DeviceParams(sigma_c2c=0.0)
    rng = np.random.default_rng(4)
    cell, energy = apply_full_set(fresh_cell(), params, rng)
    assert cell.resistance == params.r_set_floor
    assert energy == params.e_prog
    noisy, _ = apply_full_set(fresh_cell(), DeviceParams(), np.random.default_rng(4))
    assert noisy.resistance >= 1.0e4
    assert noisy.resistance < 3.0e4


def test_full_reset_records_first_reset_only():
    params = DeviceParams()
    var = VariationSpec(cv=0.24)
    rng = np.random.default_rng(6)
    df = sample_device_factor(var, rng)
    cell = CellState(resistance=1.0e4, device_factor=df)
    cell, energy = apply_full_reset(cell, params, var, rng)
    assert energy == params.reset_energy
    first = cell.initial_reset_resistance
    assert first == cell.resistance
    cell, _ = apply_full_set(cell, params, rng)
    cell, _ = apply_full_reset(cell, params, var, rng)
    assert cell.initial_reset_resistance == first  # later resets do not move it
    assert cell.device_factor == df
    assert cell.pulses_applied == 0


def test_binary_cycling_keeps_contrast():
    params = DeviceParams()
    var = VariationSpec(cv=0.24)
    rng = np.random.default_rng(7)
    cell = CellState(resistance=3.0e6, device_factor=sample_device_factor(var, rng))
    for _ in range(20):
        cell, _ = apply_full_set(cell, params, rng)
        r_set = cell.resistance
        cell, _ = apply_full_reset(cell, params, var, rng)
        assert cell.resistance / r_set > 30.0
