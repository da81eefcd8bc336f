"""Patterns, threshold rule, epoch loop, recall protocols."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmxbar.crossbar import ArrayGeometry, build_array, resistance_map
from pcmxbar.device import DeviceParams, VariationSpec
from pcmxbar.errors import ParameterError, PcmxbarError, ProtocolError
from pcmxbar.calibrated import (
    CALIBRATED_DECAY_SCHEDULE,
    CALIBRATED_DEVICE_SHARE,
    calibrated_device_params,
)
from pcmxbar import hopfield
from pcmxbar.hopfield import (
    MISSING_PIXEL_ONE,
    MISSING_PIXEL_TWO,
    PATTERN_ONE,
    PATTERN_TWO,
    NetworkConfig,
    Pattern,
    check_shipped_patterns,
    compute_threshold,
    recall_only,
    run_cohort,
    run_learning,
    run_two_pattern_protocol,
    train_epoch,
)
from test_epoch_kernel import reference_epoch

ALPHA = (1.0e4 / 3.0e6) ** (1.0 / 9.0)
ZERO_VAR = VariationSpec(cv=0.0)


def zero_array(seed=1):
    return build_array(ArrayGeometry(), DeviceParams(sigma_c2c=0.0), ZERO_VAR, seed)


def training_rng(seed):
    return np.random.default_rng(np.random.SeedSequence((seed, 1)))


def brute_threshold(R, config):
    """Exhaustive reference: best k-subset column sum over all columns.

    Mirrors the production summation order (ascending wordline index) so the
    comparison can demand exact float equality.
    """
    n = R.shape[0]
    k = config.recall_on_count
    best = -math.inf
    for col in range(n):
        rows = [r for r in range(n) if r != col]
        for combo in itertools.combinations(rows, k):
            s = 0.0
            for r in combo:
                s += 1.0 / R[r, col]
            best = max(best, s)
    return config.c_factor * config.v_read * best


# ---------------------------------------------------------------------------
# patterns


def test_pattern_construction():
    p = Pattern(pixels=(1, 1, 0, 0, 1))
    assert p.n == 5
    assert p.on == frozenset({1, 2, 5})
    assert p.on is p.on  # built once per pattern
    q = Pattern.from_on({1, 2, 5}, n=5)
    assert q == p


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("field", ("c_factor", "v_read", "read_duration"))
def test_network_config_rejects_non_finite(field, value):
    with pytest.raises(ParameterError):
        NetworkConfig(**{field: value})


def test_network_config_rejects_an_overflowing_read_energy_scale():
    assert NetworkConfig(v_read=1e100).v_read == 1e100
    for fields in ({"v_read": 1e200}, {"v_read": 1e5, "read_duration": 1e300}):
        with pytest.raises(ParameterError):
            NetworkConfig(**fields)


def test_pattern_validation():
    with pytest.raises(ParameterError):
        Pattern(pixels=(1, 2, 0))
    with pytest.raises(ParameterError):
        Pattern(pixels=())
    with pytest.raises(ParameterError):
        Pattern.from_on({0, 1}, n=5)
    with pytest.raises(ParameterError):
        Pattern.from_on({6}, n=5)


def test_builtin_patterns():
    assert PATTERN_ONE.on == frozenset({1, 2, 3, 4, 6})
    assert PATTERN_TWO.on == frozenset({5, 7, 8, 9, 10})
    assert PATTERN_ONE.n == PATTERN_TWO.n == 10
    assert not PATTERN_ONE.on & PATTERN_TWO.on  # disjoint pair


def test_network_config():
    cfg = NetworkConfig()
    assert cfg.c_factor == 2.0
    assert cfg.v_read == 0.1
    assert cfg.recall_on_count == 4
    assert cfg.max_epochs == 100
    with pytest.raises(ParameterError):
        NetworkConfig(c_factor=0.0)
    with pytest.raises(ParameterError):
        NetworkConfig(recall_on_count=0)
    with pytest.raises(ParameterError):
        NetworkConfig(max_epochs=0)


# ---------------------------------------------------------------------------
# threshold


def test_threshold_uniform_array():
    arr = zero_array()
    thr = compute_threshold(arr.initial_resistance, NetworkConfig())
    assert thr == pytest.approx(2.0 * 0.1 * 4 / 3.0e6, rel=1e-12)
    lower = compute_threshold(arr.initial_resistance, NetworkConfig(c_factor=1.5))
    assert lower == pytest.approx(2.0e-7, rel=1e-12)


def test_threshold_matches_exhaustive_search():
    cfg = NetworkConfig(recall_on_count=3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        R = rng.lognormal(mean=math.log(3.0e6), sigma=0.7, size=(6, 6))
        assert compute_threshold(R, cfg) == brute_threshold(R, cfg)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_threshold_exhaustive_property(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    k = data.draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    R = rng.lognormal(mean=math.log(3.0e6), sigma=0.7, size=(n, n))
    cfg = NetworkConfig(recall_on_count=k)
    assert compute_threshold(R, cfg) == brute_threshold(R, cfg)


def test_threshold_excludes_own_wordline():
    R = np.full((5, 5), 3.0e6)
    R[2, 2] = 1.0e3  # a leaky diagonal cell must not set the threshold
    cfg = NetworkConfig(recall_on_count=2)
    thr = compute_threshold(R, cfg)
    assert thr == pytest.approx(2.0 * 0.1 * 2 / 3.0e6, rel=1e-12)
    assert thr < 0.2 / 1.0e3


def test_threshold_validation():
    cfg = NetworkConfig()
    with pytest.raises(ParameterError):
        compute_threshold(np.full((3, 4), 3.0e6), cfg)
    with pytest.raises(ParameterError):
        compute_threshold(np.full((4, 4), 3.0e6), cfg)  # k=4 needs >= 5 neurons


# ---------------------------------------------------------------------------
# single-epoch behaviour, zero variation


def test_first_epoch_matches_hand_calculation():
    arr = zero_array()
    cfg = NetworkConfig()
    thr = compute_threshold(arr.initial_resistance, cfg)
    partial = Pattern.from_on({1, 2, 3, 4}, n=10)
    res = train_epoch(arr, PATTERN_ONE, partial, thr, cfg, training_rng(1))
    # one pulse moved the stored cells one staircase level down
    assert res.recall_currents[6] == pytest.approx(0.1 * 4 / (3.0e6 * ALPHA), rel=1e-9)
    for b in (5, 7, 8, 9, 10):
        assert res.recall_currents[b] == pytest.approx(0.1 * 4 / 3.0e6, rel=1e-12)
    assert res.recall_currents[6] < thr  # epoch 1 falls short at zero variation
    assert res.fired == frozenset()
    assert not res.recalled
    assert res.false_firings == frozenset()
    assert res.program_event_count == 25
    assert res.program_energy == 25 * arr.params.e_prog
    assert 0.0 < res.read_energy < 1e-12
    assert res.epoch_energy == res.program_energy + res.read_energy


def test_zero_variation_recalls_on_second_epoch():
    arr = zero_array()
    cfg = NetworkConfig()
    trace = run_learning(arr, PATTERN_ONE, 6, cfg)
    assert trace.converged
    assert trace.epochs_to_recall == 2
    assert len(trace.epochs) == 2
    second = trace.epochs[-1]
    assert second.recall_currents[6] == pytest.approx(
        0.1 * 4 / (3.0e6 * ALPHA**2), rel=1e-9
    )
    assert second.fired == frozenset({6})
    assert trace.program_event_count == 50
    assert trace.program_energy == 50 * arr.params.e_prog
    assert trace.total_energy == trace.program_energy + trace.read_energy
    assert len(trace.normalized_maps) == 3  # initial snapshot plus one per epoch
    assert np.all(trace.normalized_maps[0] == 1.0)


def test_no_false_firings_across_random_runs():
    for seed in range(15):
        cv = 0.60 if seed % 2 else 0.09
        arr = build_array(ArrayGeometry(), DeviceParams(), VariationSpec(cv=cv), seed)
        trace = run_learning(arr, PATTERN_ONE, 6, NetworkConfig())
        assert trace.converged
        for ep in trace.epochs:
            assert ep.false_firings == frozenset()
            assert ep.fired <= PATTERN_ONE.on


def test_runs_replay_exactly_from_seed():
    def currents(seed):
        arr = build_array(
            ArrayGeometry(), DeviceParams(), VariationSpec(cv=0.60), seed
        )
        trace = run_learning(arr, PATTERN_ONE, 6, NetworkConfig())
        return [ep.recall_currents for ep in trace.epochs]

    assert currents(7) == currents(7)
    assert currents(7) != currents(8)


def test_threshold_override_and_nonconvergence():
    arr = zero_array()
    cfg = NetworkConfig(max_epochs=5)
    trace = run_learning(arr, PATTERN_ONE, 6, cfg, threshold=math.inf)
    assert not trace.converged
    assert trace.epochs_to_recall is None
    assert len(trace.epochs) == 5  # ran the full budget, reported honestly


def test_trajectory_after_recall():
    # threshold infinity never recalls, so the run records every epoch of the budget
    arr = zero_array()
    cfg = NetworkConfig(max_epochs=12)
    trace = run_learning(arr, PATTERN_ONE, 6, cfg, threshold=math.inf)
    assert trace.epochs_to_recall is None
    assert len(trace.epochs) == 12
    assert len(trace.normalized_maps) == 13
    seq = [ep.recall_currents[6] for ep in trace.epochs]
    threshold = compute_threshold(arr.initial_resistance, cfg)
    assert next(e for e, i in enumerate(seq, start=1) if i > threshold) == 2
    for i in range(8):  # strict rise down the staircase
        assert seq[i] < seq[i + 1]
    assert seq[9] >= seq[8]
    assert seq[10] == seq[11]  # cells pinned at the floor


def train_through_budget(arr, pattern, missing, config, rng):
    """Reference: ``reference_epoch`` on every epoch of the budget against the real threshold."""
    partial = Pattern.from_on(pattern.on - {missing}, pattern.n)
    threshold = compute_threshold(arr.initial_resistance, config)
    return [
        reference_epoch(arr, pattern, partial, threshold, config, rng.spawn(1)[0], epoch)
        for epoch in range(1, config.max_epochs + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(
    cv=st.sampled_from((0.0, 0.09, 0.24, 0.40, 0.60)) | st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**33),
    max_epochs=st.integers(min_value=1, max_value=30),
    c_factor=st.floats(min_value=0.5, max_value=3.0),
    v_read=st.floats(min_value=0.0, max_value=0.5),
)
@example(cv=0.60, seed=3, max_epochs=30, c_factor=2.0, v_read=0.1)
@example(cv=0.09, seed=0, max_epochs=30, c_factor=2.0, v_read=0.1)
def test_infinite_threshold_trains_through_the_budget(cv, seed, max_epochs, c_factor, v_read):
    params = DeviceParams(sigma_c2c=0.03, decay_schedule=CALIBRATED_DECAY_SCHEDULE)
    cfg = NetworkConfig(c_factor=c_factor, v_read=v_read, max_epochs=max_epochs)
    variation = VariationSpec(cv=cv)
    arr = build_array(ArrayGeometry(), params, variation, seed)
    trace = run_learning(
        arr, PATTERN_ONE, MISSING_PIXEL_ONE, cfg, threshold=math.inf, record_maps=False
    )
    arr = build_array(ArrayGeometry(), params, variation, seed)
    expected = train_through_budget(arr, PATTERN_ONE, MISSING_PIXEL_ONE, cfg, training_rng(seed))
    assert not trace.converged
    assert len(trace.epochs) == len(expected) == max_epochs
    for got, want in zip(trace.epochs, expected):
        assert got.epoch_index == want.epoch_index
        assert got.recall_currents == want.recall_currents
        assert list(got.recall_currents) == list(want.recall_currents)
        assert got.program_event_count == want.program_event_count
        assert got.program_energy == want.program_energy
        assert got.read_energy == want.read_energy
        assert got.epoch_energy == want.epoch_energy
        assert not got.fired


def test_two_pattern_protocol_shares_threshold():
    arr = zero_array()
    t1, t2 = run_two_pattern_protocol(arr, NetworkConfig())
    assert t1.threshold == t2.threshold
    assert t1.epochs_to_recall == 2
    assert t2.epochs_to_recall == 2
    assert t1.missing_pixel == 6
    assert t2.missing_pixel == 5
    m = resistance_map(arr)
    on1 = sorted(PATTERN_ONE.on)
    on2 = sorted(PATTERN_TWO.on)
    for w in on1:
        for b in on2:
            assert m[w - 1, b - 1] == 1.0  # cross block never touched
            assert m[b - 1, w - 1] == 1.0
    for w in on1:
        for b in on1:
            assert m[w - 1, b - 1] < 1.0
    for w in on2:
        for b in on2:
            assert m[w - 1, b - 1] < 1.0


def test_recall_only():
    arr = zero_array()
    cfg = NetworkConfig()
    thr = compute_threshold(arr.initial_resistance, cfg)
    partial = Pattern.from_on({1, 2, 3, 4}, n=10)
    fresh = recall_only(arr, partial, thr, cfg)
    assert fresh.on == partial.on  # nothing stored yet
    run_learning(arr, PATTERN_ONE, 6, cfg)
    completed = recall_only(arr, partial, thr, cfg)
    assert completed.on == PATTERN_ONE.on


def test_protocol_validation():
    arr = zero_array()
    cfg = NetworkConfig()
    thr = 1.0
    rng = training_rng(1)
    with pytest.raises(ProtocolError):
        train_epoch(arr, PATTERN_ONE, Pattern.from_on({1, 2, 3}, 10), thr, cfg, rng)
    with pytest.raises(ProtocolError):
        train_epoch(arr, PATTERN_ONE, Pattern.from_on({1, 2, 3, 5}, 10), thr, cfg, rng)
    with pytest.raises(ProtocolError):
        train_epoch(
            arr,
            Pattern.from_on({1, 2, 3, 4, 6}, 8),
            Pattern.from_on({1, 2, 3, 4}, 8),
            thr,
            cfg,
            rng,
        )
    with pytest.raises(ProtocolError):
        run_learning(arr, PATTERN_ONE, 5, cfg)  # 5 is not part of pattern one


def test_shipped_pattern_check_reads_the_plan_cache(monkeypatch):
    bad = NetworkConfig(recall_on_count=3)
    messages = []
    for _ in range(2):  # a failed check is not cached, so it raises every time
        with pytest.raises(ProtocolError, match="recall expects 3") as info:
            check_shipped_patterns(bad)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    good = NetworkConfig()
    check_shipped_patterns(good)
    cues = []
    cue = hopfield._cue
    monkeypatch.setattr(hopfield, "_cue", lambda *args: cues.append(args) or cue(*args))
    check_shipped_patterns(good)
    assert cues == []
    with pytest.raises(ProtocolError, match="recall expects 3"):
        check_shipped_patterns(bad)
    assert len(cues) == 1


def test_trace_serializes_to_json():
    arr = zero_array()
    trace = run_learning(arr, PATTERN_ONE, 6, NetworkConfig())
    d = trace.to_dict()
    blob = json.dumps(d, sort_keys=True)
    back = json.loads(blob)
    assert back["epochs_to_recall"] == 2
    assert back["converged"] is True
    assert back["missing_pixel"] == 6
    assert back["threshold_amps"] == pytest.approx(2.6667e-7, rel=1e-4)
    assert len(back["epochs"]) == 2
    assert back["epochs"][0]["recall_currents_amps"]["6"] > 0


# ---------------------------------------------------------------------------
# batched cohort engine against the scalar path


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=2**20) | st.sampled_from((2**32 - 1, 2**32, 2**64)),
        min_size=1,
        max_size=5,
    ),
    cvs=st.lists(
        st.sampled_from((0.0, 0.09, 0.24, 0.40, 0.60))
        | st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
        min_size=1,
        max_size=3,
    ),
    max_epochs=st.integers(min_value=1, max_value=30),
    c_factor=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
    sigma_c2c=st.sampled_from((0.0, 0.03, 0.1, 0.3)),
    device_share=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    schedule=st.sampled_from((None, CALIBRATED_DECAY_SCHEDULE)),
    stored=st.sampled_from(((PATTERN_ONE, MISSING_PIXEL_ONE), (PATTERN_TWO, MISSING_PIXEL_TWO))),
)
@example(  # repeated seeds, zero spread, and runs that stop unconverged at the budget
    seeds=[4, 0, 4],
    cvs=[0.60, 0.0, 0.60],
    max_epochs=3,
    c_factor=2.0,
    sigma_c2c=0.03,
    device_share=0.8,
    schedule=CALIBRATED_DECAY_SCHEDULE,
    stored=(PATTERN_ONE, MISSING_PIXEL_ONE),
)
@example(  # one cohort on each side of 2**32, where the stream words fall back
    seeds=[2**32 - 1, 2**32, 7, 2**64],
    cvs=[0.60, 0.09],
    max_epochs=20,
    c_factor=2.0,
    sigma_c2c=0.03,
    device_share=0.8,
    schedule=CALIBRATED_DECAY_SCHEDULE,
    stored=(PATTERN_ONE, MISSING_PIXEL_ONE),
)
@example(  # no run ever recalls: every one stops unconverged at the budget
    seeds=[2, 7, 2, 11],
    cvs=[0.60, 0.24, 0.09],
    max_epochs=20,
    c_factor=1e6,
    sigma_c2c=0.03,
    device_share=0.8,
    schedule=CALIBRATED_DECAY_SCHEDULE,
    stored=(PATTERN_ONE, MISSING_PIXEL_ONE),
)
@example(  # every cv 0.09 run recalls in epoch 1, so the tail has one seed per run
    seeds=[0, 1, 2, 3, 4, 5],
    cvs=[0.60, 0.09],
    max_epochs=100,
    c_factor=2.0,
    sigma_c2c=0.03,
    device_share=0.8,
    schedule=CALIBRATED_DECAY_SCHEDULE,
    stored=(PATTERN_ONE, MISSING_PIXEL_ONE),
)
def test_run_cohort_matches_run_learning(
    seeds, cvs, max_epochs, c_factor, sigma_c2c, device_share, schedule, stored
):
    params = DeviceParams(sigma_c2c=sigma_c2c, decay_schedule=schedule)
    cfg = NetworkConfig(c_factor=c_factor, max_epochs=max_epochs)
    _assert_cohort_matches_run_learning(cvs, seeds, params, cfg, device_share, *stored)


def _assert_cohort_matches_run_learning(
    cvs,
    seeds,
    params,
    cfg,
    device_share=CALIBRATED_DEVICE_SHARE,
    pattern=PATTERN_ONE,
    missing=MISSING_PIXEL_ONE,
):
    """Check ``run_cohort`` with ``==`` against ``run_learning`` on every pair; return it."""
    cohort = run_cohort(
        cvs, seeds, params, cfg, device_share=device_share, pattern=pattern, missing_pixel=missing
    )
    assert cohort.cvs == tuple(cvs)
    assert cohort.seeds == tuple(seeds)
    maps, thresholds = [], []
    for i, cv in enumerate(cvs):
        for j, seed in enumerate(seeds):
            arr = build_array(ArrayGeometry(), params, VariationSpec(cv, device_share), seed)
            trace = run_learning(arr, pattern, missing, cfg, record_maps=False)
            assert cohort.converged[i, j] == trace.converged
            assert cohort.epochs[i, j] == len(trace.epochs)
            if trace.converged:
                assert cohort.epochs[i, j] == trace.epochs_to_recall
            assert cohort.read_energy[i, j] == trace.read_energy
            assert cohort.total_energy[i, j] == trace.total_energy
            maps.append(arr.initial_resistance)
            thresholds.append(trace.threshold)
    assert compute_threshold(np.array(maps), cfg).tolist() == thresholds
    return cohort


def test_run_cohort_memory_does_not_grow_with_the_budget():
    # the child words are hashed in blocks, for live seeds only, so a budget
    # of 10**9 epochs costs no more than one of 100 when every run recalls early
    params = DeviceParams(sigma_c2c=0.03, decay_schedule=CALIBRATED_DECAY_SCHEDULE)
    short = run_cohort((0.09,), (0, 1, 2), params, NetworkConfig(max_epochs=100))
    tracemalloc.start()
    try:
        long = run_cohort((0.09,), (0, 1, 2), params, NetworkConfig(max_epochs=10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert short.epochs.tolist() == long.epochs.tolist() == [[1, 1, 1]]
    assert short.converged.all() and long.converged.all()
    assert np.array_equal(short.read_energy, long.read_energy)
    assert np.array_equal(short.total_energy, long.total_energy)
    assert peak < 2 * 2**20


@pytest.mark.parametrize("cvs, seeds", [((0.60,), (4,)), ((0.60,), (4, 9)), ((0.60, 0.40), (4,))])
def test_one_and_two_run_cohorts_match_run_learning_at_every_budget(cvs, seeds):
    params = calibrated_device_params()
    for max_epochs in range(1, 31):
        cfg = NetworkConfig(max_epochs=max_epochs)
        cohort = _assert_cohort_matches_run_learning(cvs, seeds, params, cfg)
    # every run recalls within 30 epochs but not in the first, so the smaller
    # budgets stop it unconverged and the larger ones after its recall
    assert cohort.converged.all() and (cohort.epochs > 1).all()


@pytest.mark.parametrize("cvs, seeds", [((0.60, 0.09), ()), ((), (3, 4, 3)), ((), ())])
def test_empty_cohorts(cvs, seeds):
    cohort = run_cohort(cvs, seeds, calibrated_device_params(), NetworkConfig())
    assert cohort.cvs == cvs and cohort.seeds == seeds
    for values, dtype in (
        (cohort.epochs, np.int64),
        (cohort.converged, bool),
        (cohort.read_energy, float),
        (cohort.total_energy, float),
    ):
        assert values.shape == (len(cvs), len(seeds))
        assert values.dtype == dtype


COHORT_FIELDS = ("epochs", "converged", "read_energy", "total_energy")


def test_a_repeated_seed_repeats_its_column():
    params, cfg, cvs = calibrated_device_params(), NetworkConfig(), (0.60, 0.24, 0.09)
    cohort = run_cohort(cvs, (4, 0, 4), params, cfg)
    alone = {seed: run_cohort(cvs, (seed,), params, cfg) for seed in (4, 0)}
    for name in COHORT_FIELDS:
        for j, seed in enumerate((4, 0, 4)):
            column = getattr(alone[seed], name)[:, 0]
            assert getattr(cohort, name)[:, j].tolist() == column.tolist()


def test_permuting_the_seeds_permutes_the_columns():
    params, cfg, cvs = calibrated_device_params(), NetworkConfig(), (0.60, 0.09)
    seeds = (3, 8, 1, 5)
    base = run_cohort(cvs, seeds, params, cfg)
    for order in itertools.permutations(range(len(seeds))):
        cohort = run_cohort(cvs, [seeds[j] for j in order], params, cfg)
        assert cohort.seeds == tuple(seeds[j] for j in order)
        for name in COHORT_FIELDS:
            assert getattr(cohort, name).tolist() == getattr(base, name)[:, order].tolist()


def test_threshold_stack_shape_and_type():
    cfg = NetworkConfig()
    R = np.random.default_rng(3).lognormal(math.log(3.0e6), 0.5, size=(2, 3, 10, 10))
    stacked = compute_threshold(R, cfg)
    assert stacked.shape == (2, 3)
    assert type(compute_threshold(R[1, 2], cfg)) is float
    assert stacked[1, 2] == compute_threshold(R[1, 2], cfg)
    with pytest.raises(ParameterError):
        compute_threshold(np.full((2, 4, 5), 3.0e6), cfg)


def _failure(call):
    try:
        call()
    except PcmxbarError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "geometry, pattern, missing, cfg",
    [
        (ArrayGeometry(), PATTERN_ONE, 5, NetworkConfig()),  # not a stored pixel
        (ArrayGeometry(), Pattern.from_on({1, 2, 3, 4, 6}, 8), 6, NetworkConfig()),  # size
        (ArrayGeometry(), PATTERN_ONE, 6, NetworkConfig(recall_on_count=3)),  # cue size
        (ArrayGeometry(10, 12), PATTERN_ONE, 6, NetworkConfig()),  # not square
        (ArrayGeometry(4, 4), Pattern.from_on({1, 2, 3}, 4), 3, NetworkConfig()),  # k > n-1
    ],
)
def test_run_cohort_rejects_what_run_learning_rejects(geometry, pattern, missing, cfg):
    params = DeviceParams()
    arr = build_array(geometry, params, VariationSpec(cv=0.24), 1)
    scalar = _failure(lambda: run_learning(arr, pattern, missing, cfg))
    batched = _failure(
        lambda: run_cohort(
            (0.24,), (1,), params, cfg, geometry=geometry, pattern=pattern, missing_pixel=missing
        )
    )
    assert scalar is not None
    assert batched == scalar


def test_run_cohort_rejects_a_bad_cue_before_any_work(monkeypatch):
    def no_streams(*args, **kwargs):
        raise AssertionError("a stream's pools were mixed before the patterns were checked")

    monkeypatch.setattr("pcmxbar.hopfield._pools", no_streams)
    with pytest.raises(ProtocolError, match="recall expects 3"):
        run_cohort((0.24,), (1,), DeviceParams(), NetworkConfig(recall_on_count=3))
