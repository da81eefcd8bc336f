"""The scalar epoch kernel, bit for bit against the index-building kernel it replaced.

The oracle below is the update, read, read-energy and staircase code as it
stood before firing plans and the step table: it builds its cell list, index
arrays and ``np.ix_`` block on every call and multiplies the schedule by the
swing after indexing. The kernel must give the same state, cells, currents,
energies and errors on every geometry, firing set, pulse history, schedule
and memory layout.

``reference_epoch`` is the scalar epoch as it was composed before
``run_learning`` gathered its run's state: ``apply_update_phase`` on the
array, then ``read_recall_currents``, then the read block's energy. Runs,
two-pattern protocols and ``train_epoch`` loops must match it with ``==``,
each reference epoch drawing from a child spawned by NumPy's own
``SeedSequence`` training root.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmxbar import _io, calibrated, crossbar, device, hopfield
from pcmxbar.calibrated import (
    BUILD,
    TRAINING,
    calibrated_device_params,
    calibrated_variation,
)
from pcmxbar.crossbar import (
    ArrayGeometry,
    CrossbarState,
    build_array,
    firing_plan,
    resistance_map,
)
from pcmxbar.device import DeviceParams, VariationSpec
from pcmxbar.errors import ParameterError
from pcmxbar.hopfield import (
    MISSING_PIXEL_ONE,
    MISSING_PIXEL_TWO,
    PATTERN_ONE,
    PATTERN_TWO,
    EpochResult,
    LearningTrace,
    NetworkConfig,
    Pattern,
    compute_threshold,
    run_learning,
    run_two_pattern_protocol,
    train_epoch,
)

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


def oracle_read_sum(array, cue):
    rows = np.array(sorted(cue), dtype=np.intp) - 1
    cols = np.array([b - 1 for b in range(1, array.geometry.cols + 1) if b not in cue], dtype=np.intp)
    g = 1.0 / array.resistance[np.ix_(rows, cols)]
    return float(g.sum())


def oracle_read_energy(array, cue, config):
    return config.v_read**2 * config.read_duration * oracle_read_sum(array, cue)


def reference_epoch(array, pattern, partial, threshold, config, rng, epoch_index=1):
    """One epoch through the array primitives: update, read the cue, sum the read energy."""
    cells, program_energy = crossbar.apply_update_phase(array, pattern.on, rng)
    currents = crossbar.read_recall_currents(array, partial.on, config.v_read)
    fired = frozenset(b for b, i in currents.items() if i > threshold)
    read_energy = oracle_read_energy(array, partial.on, config)
    return EpochResult(
        epoch_index=epoch_index,
        program_event_count=len(cells),
        recall_currents=currents,
        fired=fired,
        recalled=pattern.on - partial.on <= fired,
        false_firings=fired - pattern.on,
        program_energy=program_energy,
        read_energy=read_energy,
        epoch_energy=program_energy + read_energy,
    )


def seed_sequence_root(seed):
    """The training root of ``seed`` as NumPy builds it, spawning through ``SeedSequence``."""
    return np.random.default_rng(np.random.SeedSequence((seed, TRAINING)))


def reference_run(array, pattern, missing, config, rng, *, threshold=None, record_maps=True):
    """``run_learning`` over ``reference_epoch``: one spawned child per epoch, stop at recall.

    The trace holds each epoch's currents and read-block sum as the array
    primitives read them, and the epochs it builds from them must equal the
    reference epochs.
    """
    partial = Pattern.from_on(pattern.on - {missing}, pattern.n)
    if threshold is None:
        threshold = compute_threshold(array.initial_resistance, config)
    maps = [resistance_map(array)] if record_maps else []
    epochs, read_sums = [], []
    for epoch in range(1, config.max_epochs + 1):
        epochs.append(reference_epoch(array, pattern, partial, threshold, config,
                                      rng.spawn(1)[0], epoch))
        read_sums.append(oracle_read_sum(array, partial.on))
        if record_maps:
            maps.append(resistance_map(array))
        if epochs[-1].recalled:
            break
    count = sum(ep.program_event_count for ep in epochs)
    read_energy = 0.0
    for ep in epochs:
        read_energy += ep.read_energy
    program_energy = count * array.params.e_prog
    recalled = epochs[-1].recalled
    plan = hopfield._run_plan(array.geometry, pattern, missing, config.recall_on_count)
    trace = LearningTrace(
        pattern=pattern, missing_pixel=missing, threshold=threshold,
        variation_cv=array.variation.cv, seed=array.seed,
        converged=recalled, epochs_to_recall=len(epochs) if recalled else None,
        currents=np.array([list(ep.recall_currents.values()) for ep in epochs]),
        read_sums=read_sums, _context=(plan, config, array.params),
        normalized_maps=maps, program_event_count=count, program_energy=program_energy,
        read_energy=read_energy, total_energy=program_energy + read_energy,
    )
    assert trace.epochs == epochs
    return trace


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
        return np.array(values, order="C")  # a copy, so two arrays never share a buffer
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
    extra=st.sets(st.integers(1, 7), min_size=1, max_size=3),
)
def test_kernel_matches_the_oracle(
    schedule, rows, cols, seed, max_pulses, layout, phases, v_read, extra
):
    params = SCHEDULES[schedule]
    new, old = _arrays(params, rows, cols, seed, max_pulses, layout)
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
            plan = firing_plan(frozenset(firing), rows, cols)
            arrays = (plan.flat, *plan.read_block)
            assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ParameterError):
        crossbar.read_recall_currents(new, [1], -v_read - 1.0)

    # train_epoch on a square array of the same draws, each cue inside a pattern
    # of it and ``extra``: its currents and read energy against the oracle's
    new, old = _arrays(params, rows, rows, seed, max_pulses, layout)
    for k, firing in enumerate(phases):
        cue = set(firing)
        on = cue | {n for n in extra if n <= rows}
        if not cue or not all(1 <= n <= rows for n in cue) or on == cue:
            continue
        pattern, partial = Pattern.from_on(on, rows), Pattern.from_on(cue, rows)
        config = NetworkConfig(v_read=v_read, recall_on_count=len(cue))
        got = train_epoch(new, pattern, partial, 0.0, config, np.random.default_rng(k), k)
        oracle_apply_update_phase(old, on, np.random.default_rng(k))
        want = oracle_read_recall_currents(old, cue, v_read)
        assert got.recall_currents == want
        assert list(got.recall_currents) == list(want)
        assert got.read_energy == oracle_read_energy(old, cue, config)
        for a, b in zip(_state(new), _state(old)):
            assert np.array_equal(a, b)


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


def _programmed(params, cv, seed, max_pulses, layout):
    """Two equal as-built arrays of ``seed``, each cell already past 0..``max_pulses`` pulses."""
    arrays = []
    for _ in range(2):
        arr = build_array(ArrayGeometry(), params, calibrated_variation(cv), seed)
        pulses = np.random.default_rng(seed).integers(0, max_pulses + 1, arr.pulses_applied.shape)
        arr.resistance = _layout(arr.resistance, layout)
        arr.pulses_applied = _layout(pulses, layout)
        arrays.append(arr)
    return arrays


def _epochs(epoch, array, pattern, partial, threshold, config, rng):
    """``epoch`` on one spawned child per epoch until the pattern recalls or the budget ends."""
    epochs = []
    for k in range(1, config.max_epochs + 1):
        epochs.append(epoch(array, pattern, partial, threshold, config, rng.spawn(1)[0], k))
        if epochs[-1].recalled:
            break
    return [ep.to_dict() for ep in epochs]


@settings(max_examples=100, deadline=None)
@given(
    schedule=st.sampled_from(sorted(SCHEDULES)),
    cv=st.sampled_from((0.0, 0.09, 0.24, 0.60)),
    seed=st.integers(0, 2**32 - 1),
    max_pulses=st.integers(0, 30),
    layout=st.sampled_from(["C", "F", "strided"]),
    threshold=st.sampled_from([None, math.inf]),
    record_maps=st.booleans(),
    max_epochs=st.integers(1, 30),
    protocol=st.sampled_from(["run_learning", "run_two_pattern_protocol"])
    | st.integers(1, 4).map(lambda cue: ("train_epoch", cue)),
)
@example(  # a 3-pixel cue leaves pixels 4 and 6 sensed: 6 fires from epoch 9, 4 only in 11
    schedule="calibrated", cv=0.60, seed=0, max_pulses=0, layout="C", threshold=None,
    record_maps=True, max_epochs=30, protocol=("train_epoch", 3),
)
def test_scalar_runs_match_the_reference(
    schedule, cv, seed, max_pulses, layout, threshold, record_maps, max_epochs, protocol
):
    # ("train_epoch", k) trains pattern one from its first k pixels, with the
    # threshold of a k-pixel cue; the two-pattern protocol records maps at its threshold
    params = SCHEDULES[schedule]
    new, old = _programmed(params, cv, seed, max_pulses, layout)
    config = NetworkConfig(max_epochs=max_epochs)
    if protocol == "run_learning":
        got = [run_learning(new, PATTERN_ONE, MISSING_PIXEL_ONE, config,
                            threshold=threshold, record_maps=record_maps)]
        want = [reference_run(old, PATTERN_ONE, MISSING_PIXEL_ONE, config, seed_sequence_root(seed),
                              threshold=threshold, record_maps=record_maps)]
    elif protocol == "run_two_pattern_protocol":
        got = run_two_pattern_protocol(new, config)
        rng = seed_sequence_root(seed)  # pattern two spawns on from pattern one's last child
        want = [reference_run(old, pattern, missing, config, rng,
                              threshold=compute_threshold(old.initial_resistance, config))
                for pattern, missing in ((PATTERN_ONE, MISSING_PIXEL_ONE),
                                         (PATTERN_TWO, MISSING_PIXEL_TWO))]
    else:
        config = NetworkConfig(max_epochs=max_epochs, recall_on_count=protocol[1])
        partial = Pattern.from_on(sorted(PATTERN_ONE.on)[: protocol[1]], PATTERN_ONE.n)
        if threshold is None:
            threshold = compute_threshold(old.initial_resistance, config)
        got, want = (
            _epochs(epoch, arr, PATTERN_ONE, partial, threshold, config, seed_sequence_root(seed))
            for epoch, arr in ((train_epoch, new), (reference_epoch, old))
        )
        assert got == want
        got, want = [], []
    for g, w in zip(got, want, strict=True):
        assert g.to_dict() == w.to_dict()
        assert len(g.normalized_maps) == len(w.normalized_maps)
        for a, b in zip(g.normalized_maps, w.normalized_maps):
            assert np.array_equal(a, b)
    for a, b in zip(_state(new), _state(old)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("offset", [1, 5, 16, 31])
def test_stream_offset_starts_the_run_at_that_child(offset):
    # a run at offset s trains as a reference run on a root that already spawned s children
    params = calibrated_device_params()
    new, old = (build_array(ArrayGeometry(), params, calibrated_variation(0.60), 3) for _ in "ab")
    config = NetworkConfig(max_epochs=20)
    rng = seed_sequence_root(3)
    rng.spawn(offset)
    got = run_learning(new, PATTERN_ONE, MISSING_PIXEL_ONE, config, stream_offset=offset)
    want = reference_run(old, PATTERN_ONE, MISSING_PIXEL_ONE, config, rng)
    assert got.to_dict() == want.to_dict()
    assert got.to_dict() != run_learning(
        build_array(ArrayGeometry(), params, calibrated_variation(0.60), 3),
        PATTERN_ONE, MISSING_PIXEL_ONE, config,
    ).to_dict()


def test_epoch_loop_builds_no_indices(monkeypatch):
    # one warm run fills the caches; a warm run then looks up no firing plan
    # and calls no np.ix_ inside its epoch loop, so 30 epochs cost 10's lookups
    ix_calls = []
    real_ix = np.ix_

    def counting_ix(*args):
        ix_calls.append(args)
        return real_ix(*args)

    monkeypatch.setattr(np, "ix_", counting_ix)
    params = calibrated_device_params()

    def run(max_epochs):
        arr = build_array(ArrayGeometry(), params, calibrated_variation(0.60), 4)
        config = NetworkConfig(max_epochs=max_epochs)
        return run_learning(arr, PATTERN_ONE, MISSING_PIXEL_ONE, config,
                            threshold=math.inf).to_dict()

    lookups = []
    for max_epochs in (10, 30):
        warm = run(max_epochs)
        table = params.log_step_table
        before, ix_before = firing_plan.cache_info(), len(ix_calls)
        again = run(max_epochs)
        after = firing_plan.cache_info()
        lookups.append((after.hits + after.misses - before.hits - before.misses,
                        len(ix_calls) - ix_before))
        assert params.log_step_table is table
        assert again == warm
        assert len(again["epochs"]) == max_epochs
    assert lookups[0] == lookups[1] == (0, 0)


# -- threshold infinity: the whole budget in one pass ------------------------


def offset_root(seed, offset):
    """``seed``'s training root after it has spawned ``offset`` children."""
    rng = seed_sequence_root(seed)
    rng.spawn(offset)
    return rng


@settings(max_examples=100, deadline=None)
@given(
    schedule=st.sampled_from(sorted(SCHEDULES)),
    cv=st.sampled_from((0.0, 0.09, 0.24, 0.60)),
    seed=st.integers(0, 2**32 - 1),
    max_pulses=st.integers(0, 30),
    layout=st.sampled_from(["C", "F", "strided"]),
    on=st.sets(st.integers(1, 10), min_size=2, max_size=10),
    pick=st.integers(0, 9),
    max_epochs=st.integers(1, 40),
    offset=st.integers(0, 40),
    record_maps=st.booleans(),
)
# a cue of 9 senses the missing pixel alone; 40 epochs from child 40 span three blocks
@example(schedule="calibrated", cv=0.60, seed=3, max_pulses=0, layout="C",
         on=frozenset(range(1, 11)), pick=4, max_epochs=40, offset=40, record_maps=True)
@example(schedule="calibrated", cv=0.09, seed=8, max_pulses=5, layout="strided",
         on=frozenset({2, 9}), pick=1, max_epochs=17, offset=15, record_maps=False)
def test_infinite_threshold_runs_match_the_reference_on_every_cue(
    schedule, cv, seed, max_pulses, layout, on, pick, max_epochs, offset, record_maps
):
    # the cue is the pattern less its missing pixel, so it holds 1 to 9 pixels
    # and the sensed set runs from 9 bitlines down to the missing one alone
    params = SCHEDULES[schedule]
    pattern = Pattern.from_on(on, 10)
    missing = sorted(on)[pick % len(on)]
    config = NetworkConfig(max_epochs=max_epochs, recall_on_count=len(on) - 1)
    new, old = _programmed(params, cv, seed, max_pulses, layout)
    got = run_learning(new, pattern, missing, config, stream_offset=offset,
                       threshold=math.inf, record_maps=record_maps)
    want = reference_run(old, pattern, missing, config, offset_root(seed, offset),
                         threshold=math.inf, record_maps=record_maps)
    assert got.to_dict() == want.to_dict()
    assert len(got.normalized_maps) == len(want.normalized_maps)
    for a, b in zip(got.normalized_maps, want.normalized_maps):
        assert np.array_equal(a, b)
    for a, b in zip(_state(new), _state(old)):
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.sampled_from(sorted(SCHEDULES)),
    seed=st.integers(0, 2**32 - 1),
    max_pulses=st.integers(0, 30),
    layout=st.sampled_from(["C", "F", "strided"]),
    order=st.permutations(range(1, 11)),
    size=st.integers(2, 10),
    cue_size=st.integers(1, 9),
    max_epochs=st.integers(1, 40),
    offset=st.integers(0, 40),
)
def test_one_pass_refreshes_every_hidden_column_layout(
    schedule, seed, max_pulses, layout, order, size, cue_size, max_epochs, offset
):
    # cues that leave several pattern pixels sensed, in consecutive columns (a
    # slice) or not (an index array): each row of the pass is train_epoch's epoch
    params = SCHEDULES[schedule]
    pattern = Pattern.from_on(order[:size], 10)
    partial = Pattern.from_on(order[: min(cue_size, size - 1)], 10)
    config = NetworkConfig(max_epochs=max_epochs, recall_on_count=len(partial.on))
    new, old = _programmed(params, 0.60, seed, max_pulses, layout)
    plan = hopfield._plan(new.geometry, pattern, partial)
    stored, pulses, read = hopfield._gather(new, plan)
    rows, reads = hopfield._budget(stored, pulses, read, plan, params,
                                   calibrated._training_children(seed, offset), max_epochs)
    currents = (config.v_read * reads.sum(axis=1)).tolist()
    read_sums = reads.reshape(max_epochs, -1).sum(axis=1).tolist()
    children = itertools.islice(calibrated._training_children(seed, offset), max_epochs)
    for k, rng in enumerate(children):
        want = train_epoch(old, pattern, partial, math.inf, config, rng, k + 1)
        got = hopfield._result(k + 1, currents[k], read_sums[k], plan, pattern, math.inf,
                               config, params)
        assert got.to_dict() == want.to_dict()
        assert np.array_equal(rows[k], old.resistance.take(plan.flat))
        assert np.array_equal(reads[k], 1.0 / old.resistance[plan.read_block])


def test_stacked_read_sums_reduce_as_one_block_does():
    # the pass sums a stack of (cue, sensed) blocks down the cue axis and over
    # each flat block; both give each block's own sums, also at cues of 8 or
    # more, where a one-column block sums pairwise
    rng = np.random.default_rng(0)
    for cue in range(1, 11):
        for sensed in range(1, 10):
            reads = 1.0 / rng.lognormal(13.0, 1.5, (8, cue, sensed))
            columns, totals = reads.sum(axis=1), reads.reshape(8, -1).sum(axis=1)
            for k, block in enumerate(reads):
                assert columns[k].tolist() == block.sum(axis=0).tolist()
                assert totals[k] == block.sum()


def test_infinite_threshold_runs_apply_the_floor_as_each_epoch_does():
    # two half-swing steps take stored cells to the floor by their second pulse,
    # and the noise lifts some off it again over the small tail step
    params = DeviceParams(decay_schedule=(0.5, 0.5, 0.01), sigma_c2c=0.1)
    config = NetworkConfig(max_epochs=40)
    partial = Pattern.from_on(PATTERN_ONE.on - {MISSING_PIXEL_ONE}, 10)
    lifted = 0
    for seed in range(20):
        new, old = (build_array(ArrayGeometry(), params, calibrated_variation(0.60), seed)
                    for _ in "ab")
        got = run_learning(new, PATTERN_ONE, MISSING_PIXEL_ONE, config, threshold=math.inf)
        rng = seed_sequence_root(seed)
        was_floor = np.zeros(old.resistance.shape, dtype=bool)
        for k, ep in enumerate(got.epochs, start=1):
            want = reference_epoch(old, PATTERN_ONE, partial, math.inf, config,
                                   rng.spawn(1)[0], k)
            assert ep.to_dict() == want.to_dict()
            assert np.array_equal(got.normalized_maps[k], resistance_map(old))
            floor = old.resistance == params.r_set_floor
            lifted += np.count_nonzero(was_floor & ~floor)
            was_floor |= floor
        assert np.array_equal(new.resistance, old.resistance)
    assert lifted > 0


def test_infinite_threshold_runs_take_one_exp_pass(monkeypatch):
    # a warm run at threshold infinity takes every epoch's factors in one np.exp
    # call, across block edges and from an offset; a finite run that never
    # recalls takes one per chunk: its first epoch, the rest of that child's
    # block, then whole blocks
    calls = []
    real_exp = np.exp

    def counting_exp(*args, **kwargs):
        calls.append(args[0].shape)
        return real_exp(*args, **kwargs)

    params = calibrated_device_params()

    def exp_calls(max_epochs, offset, threshold):
        counts = []
        for _ in "warm", "counted":
            arr = build_array(ArrayGeometry(), params, calibrated_variation(0.60), 4)
            calls.clear()
            monkeypatch.setattr(np, "exp", counting_exp)
            trace = run_learning(arr, PATTERN_ONE, MISSING_PIXEL_ONE,
                                 NetworkConfig(max_epochs=max_epochs), stream_offset=offset,
                                 threshold=threshold)
            monkeypatch.setattr(np, "exp", real_exp)
            assert len(trace.epochs) == max_epochs
            counts.append(len(calls))
        return counts[-1]

    for max_epochs, offset in ((10, 0), (16, 0), (17, 0), (40, 0), (30, 5)):
        assert exp_calls(max_epochs, offset, math.inf) == 1
    # 1 + 9 epochs; 1 + 15 + 1; and from child 14: 1 + 1 (child 15) + 16 + 2
    for max_epochs, offset, chunks in ((10, 0, 2), (17, 0, 3), (20, 14, 4)):
        assert exp_calls(max_epochs, offset, 1e3) == chunks


# -- finite thresholds: block-aligned chunks -----------------------------------

# two half-swing steps take stored cells to the floor by their second pulse
FLOOR = DeviceParams(decay_schedule=(0.5, 0.5, 0.01), sigma_c2c=0.1)


def recall_threshold(trajectory, recall_at):
    """A threshold at which a run of this missing-pixel ``trajectory`` recalls at ``recall_at``.

    The largest current before that epoch, so the run recalls there when its
    current is larger and later otherwise; below the first current for epoch
    one; past the budget, the largest current of all, which never recalls.
    """
    if recall_at == 1:
        return trajectory[0] / 2
    return max(trajectory[: recall_at - 1])


def reference_trajectory(array, pattern, missing, config, seed, offset):
    """The missing pixel's current in each epoch of a reference run at threshold infinity."""
    trace = reference_run(array, pattern, missing, config, offset_root(seed, offset),
                          threshold=math.inf, record_maps=False)
    return [ep.recall_currents[missing] for ep in trace.epochs]


@settings(max_examples=100, deadline=None)
@given(
    schedule=st.sampled_from(sorted(SCHEDULES) + ["floor"]),
    cv=st.sampled_from((0.0, 0.09, 0.24, 0.60)),
    seed=st.integers(0, 2**32 - 1),
    max_pulses=st.integers(0, 30),
    layout=st.sampled_from(["C", "F", "strided"]),
    on=st.sets(st.integers(1, 10), min_size=2, max_size=10),
    pick=st.integers(0, 9),
    max_epochs=st.integers(1, 40),
    offset=st.integers(0, 40),
    recall_at=st.integers(1, 41),
    record_maps=st.booleans(),
)
# from offset 5: recall at epoch 1, mid-block, on the block's last child (15),
# on the next block's first (16) and in it, and never, across three blocks
@example(schedule="calibrated", cv=0.09, seed=3, max_pulses=0, layout="C",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=5, recall_at=1, record_maps=True)
@example(schedule="calibrated", cv=0.60, seed=3, max_pulses=0, layout="C",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=5, recall_at=7, record_maps=True)
@example(schedule="calibrated", cv=0.60, seed=3, max_pulses=0, layout="F",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=5, recall_at=11, record_maps=False)
@example(schedule="calibrated", cv=0.60, seed=3, max_pulses=0, layout="strided",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=5, recall_at=12, record_maps=True)
@example(schedule="calibrated", cv=0.60, seed=3, max_pulses=0, layout="C",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=5, recall_at=20, record_maps=True)
@example(schedule="calibrated", cv=0.60, seed=3, max_pulses=0, layout="C",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=5, recall_at=41, record_maps=True)
# the floor schedule from child 14: recall at child 34, two blocks on
@example(schedule="floor", cv=0.60, seed=2, max_pulses=0, layout="C",
         on=PATTERN_ONE.on, pick=4, max_epochs=40, offset=14, recall_at=21, record_maps=True)
def test_finite_threshold_runs_match_the_reference_in_chunks(
    schedule, cv, seed, max_pulses, layout, on, pick, max_epochs, offset, recall_at, record_maps
):
    # the threshold is taken from a reference trajectory, so the run recalls
    # at ``recall_at`` when the current rises there, or later, or never
    params = FLOOR if schedule == "floor" else SCHEDULES[schedule]
    pattern = Pattern.from_on(on, 10)
    missing = sorted(on)[pick % len(on)]
    config = NetworkConfig(max_epochs=max_epochs, recall_on_count=len(on) - 1)
    new, old = _programmed(params, cv, seed, max_pulses, layout)
    probe, _ = _programmed(params, cv, seed, max_pulses, layout)
    trajectory = reference_trajectory(probe, pattern, missing, config, seed, offset)
    threshold = recall_threshold(trajectory, min(recall_at, max_epochs + 1))
    got = run_learning(new, pattern, missing, config, stream_offset=offset,
                       threshold=threshold, record_maps=record_maps)
    want = reference_run(old, pattern, missing, config, offset_root(seed, offset),
                         threshold=threshold, record_maps=record_maps)
    assert got.to_dict() == want.to_dict()
    assert len(got.normalized_maps) == len(want.normalized_maps)
    for a, b in zip(got.normalized_maps, want.normalized_maps):
        assert np.array_equal(a, b)
    for a, b in zip(_state(new), _state(old)):
        assert np.array_equal(a, b)
    if recall_at <= max_epochs and trajectory[recall_at - 1] > threshold:
        assert got.epochs_to_recall == recall_at


@pytest.mark.parametrize(
    ("offset", "recall_at"),
    # children 0, 7, 15 (a block's last), 16 (the next block's first), 24;
    # 14 and 15 from child 14; 32 from 30; 56 from 40; never, from 0 and 14
    [(0, 1), (0, 8), (5, 11), (5, 12), (5, 20), (14, 1), (14, 2), (30, 3), (40, 17),
     (0, None), (14, None)],
)
def test_a_recall_hashes_no_block_past_its_own(monkeypatch, offset, recall_at):
    params = calibrated_device_params()
    config = NetworkConfig(max_epochs=30)
    arrays = [build_array(ArrayGeometry(), params, calibrated_variation(0.60), 3) for _ in "ab"]
    trajectory = reference_trajectory(arrays[0], PATTERN_ONE, MISSING_PIXEL_ONE, config, 3, offset)
    threshold = recall_threshold(trajectory, recall_at or config.max_epochs + 1)
    hashed = []
    real = calibrated._training_block

    def counting(seed, start):
        hashed.append(start)
        return real(seed, start)

    monkeypatch.setattr(calibrated, "_training_block", counting)
    trace = run_learning(arrays[1], PATTERN_ONE, MISSING_PIXEL_ONE, config,
                         stream_offset=offset, threshold=threshold, record_maps=False)
    assert trace.epochs_to_recall == recall_at
    last = offset + len(trace.read_sums) - 1  # the last child the run trained on
    block = calibrated._EPOCH_BLOCK
    assert hashed == list(range(offset - offset % block, last - last % block + 1, block))


def _assert_exact_json_types(obj):
    kind = type(obj)
    if kind is dict:
        for key, value in obj.items():
            assert type(key) is str
            _assert_exact_json_types(value)
    elif kind is list:
        for value in obj:
            _assert_exact_json_types(value)
    else:
        assert obj is None or kind in (int, float, bool, str), kind


def test_traces_build_their_epochs_once_with_exact_json_types(monkeypatch):
    # a run builds no EpochResult; the first read of ``epochs`` builds each
    # epoch once, equal to the epoch the per-epoch loop returns, and to_dict
    # hands the JSON writer exact Python types only
    built = []
    real = hopfield._result

    def counting(epoch_index, *args):
        built.append(epoch_index)
        return real(epoch_index, *args)

    monkeypatch.setattr(hopfield, "_result", counting)
    params = calibrated_device_params()
    for cv, threshold, max_epochs in ((0.60, None, 100), (0.09, None, 100), (0.60, 1e3, 20),
                                      (0.24, math.inf, 30)):
        new, old = (build_array(ArrayGeometry(), params, calibrated_variation(cv), 3)
                    for _ in "ab")
        config = NetworkConfig(max_epochs=max_epochs)
        built.clear()
        trace = run_learning(new, PATTERN_ONE, MISSING_PIXEL_ONE, config, threshold=threshold)
        assert built == []
        epochs = trace.epochs
        doc = trace.to_dict()
        assert trace.epochs is epochs
        assert built == list(range(1, len(epochs) + 1))
        assert len(epochs) == (trace.epochs_to_recall or max_epochs)
        assert trace.bitline_currents(MISSING_PIXEL_ONE) == [
            ep.recall_currents[MISSING_PIXEL_ONE] for ep in epochs
        ]
        partial = Pattern.from_on(PATTERN_ONE.on - {MISSING_PIXEL_ONE}, 10)
        children = calibrated._training_children(3, 0)
        assert epochs == [
            train_epoch(old, PATTERN_ONE, partial, trace.threshold, config, rng, k)
            for k, rng in zip(range(1, len(epochs) + 1), children)
        ]
        _assert_exact_json_types(doc)
        if threshold != math.inf:  # infinity is no JSON number, so the writer leaves it to json
            assert _io._json_text(doc)
    arr = build_array(ArrayGeometry(), params, calibrated_variation(0.60), 3)
    for trace in run_two_pattern_protocol(arr, NetworkConfig()):
        _assert_exact_json_types(trace.to_dict())


def test_refreshed_columns_are_a_slice_when_consecutive():
    geometry = ArrayGeometry()
    # one missing pixel is one column, so a run refreshes its read block through a view
    for pattern, missing in ((PATTERN_ONE, MISSING_PIXEL_ONE), (PATTERN_TWO, MISSING_PIXEL_TWO)):
        plan = hopfield._run_plan(geometry, pattern, missing, 4)
        column = plan.sensed.index(missing)
        assert plan.hidden == slice(column, column + 1)
    # the cue {1, 2, 6} senses pixels 3 and 4 in columns 0 and 1: consecutive
    plan = hopfield._plan(geometry, PATTERN_ONE, Pattern.from_on({1, 2, 6}, 10))
    assert plan.hidden == slice(0, 2)
    # the cue {1, 2, 3} senses pixels 4 and 6 in columns 0 and 2: an index array
    plan = hopfield._plan(geometry, PATTERN_ONE, Pattern.from_on({1, 2, 3}, 10))
    assert isinstance(plan.hidden, np.ndarray) and plan.hidden.tolist() == [0, 2]
    assert not plan.hidden.flags.writeable and not plan.refresh.flags.writeable


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
    # one uncounted cohort fills the plan caches, as a run alone would find them cold
    hopfield.run_cohort((0.60,), (3,), params, NetworkConfig(c_factor=1e6, max_epochs=1))
    counts = []
    for max_epochs in (10, 30):
        calls.update(dict.fromkeys(calls, 0))
        config = NetworkConfig(c_factor=1e6, max_epochs=max_epochs)
        cohort = hopfield.run_cohort((0.60, 0.09), (3, 4, 3), params, config)
        assert not cohort.converged.any() and (cohort.epochs == max_epochs).all()
        counts.append(dict(calls))
    # the seeds are simulated in the order given, with no sort to map back through
    assert counts[0]["ix_"] == counts[0]["searchsorted"] == 0
    assert counts[0] == counts[1]


def test_cohort_mixes_each_streams_pools_once(monkeypatch):
    # no run recalls at c_factor 1e6, so 40 epochs take three 16-epoch blocks
    # of training children, all hashed from the pools mixed up front
    mixed = []
    real = hopfield._pools

    def counting(seeds, stream):
        mixed.append(stream)
        return real(seeds, stream)

    monkeypatch.setattr(hopfield, "_pools", counting)
    config = NetworkConfig(c_factor=1e6, max_epochs=40)
    cohort = hopfield.run_cohort((0.60, 0.09), (3, 4, 3), calibrated_device_params(), config)
    assert not cohort.converged.any() and (cohort.epochs == 40).all()
    assert sorted(mixed) == [BUILD, TRAINING]
