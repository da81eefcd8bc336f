"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Every check prints one verdict line ([C1]..[C9], PASS or FAIL, measured
numbers) so a piped log always shows the full scorecard. Tolerances and
targets are restated literally here on purpose; loosening one is a behavior
change, not a test fix.

One bound is computed rather than restated: C6's cap on the cv=0.09 flip
margin. It is a property of the as-built maps of the seeds C4 and C6 use,
the largest margin any schedule can give while C4's cv=0.24 median stays
above one epoch, so a literal copy would only go stale if the build stream
changed. Every other tolerance, C6's cv=0.60 window and ordering included,
stays literal.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pcmxbar.cli import main
from pcmxbar.crossbar import ArrayGeometry, build_array, read_recall_currents, resistance_map
from pcmxbar.device import CellState, DeviceParams, apply_gradual_set
from pcmxbar.calibrated import (
    VARIATION_LEVELS,
    calibrated_device_params,
    calibrated_variation,
)
from pcmxbar.hopfield import (
    MISSING_PIXEL_ONE,
    PATTERN_ONE,
    PATTERN_TWO,
    NetworkConfig,
    compute_threshold,
    run_learning,
    run_two_pattern_protocol,
)
from pcmxbar.metrics import DEFAULT_PERTURBATION_GRID, read_voltage_sensitivity

CAL_PARAMS = calibrated_device_params()
NETWORK = NetworkConfig()

EPOCH_TARGETS = {0.60: 11, 0.40: 9, 0.24: 5, 0.09: 1}
EPOCH_TOLERANCE = 2


@pytest.fixture
def verdict(capsys):
    """Print one scorecard line outside capture so piped logs always show it."""

    def emit(cid, ok, detail):
        with capsys.disabled():
            print(f"\n[{cid}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)

    return emit


@pytest.fixture(scope="module")
def family():
    """Two-pattern training runs, 200 seeds per variation level, plus wall time."""
    t0 = time.perf_counter()
    runs = {}
    for cv in VARIATION_LEVELS:
        var = calibrated_variation(cv)
        pairs = []
        for seed in range(200):
            arr = build_array(ArrayGeometry(), CAL_PARAMS, var, seed)
            pairs.append(run_two_pattern_protocol(arr, NETWORK))
        runs[cv] = pairs
    return runs, time.perf_counter() - t0


def test_c1_recall_currents_match_brute_force(verdict):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        rows = int(rng.integers(2, 11))
        cols = int(rng.integers(2, 11))
        arr = build_array(
            ArrayGeometry(rows, cols), CAL_PARAMS, calibrated_variation(0.40), 0
        )
        arr.resistance[:] = np.exp(
            rng.uniform(np.log(1e4), np.log(3e7), size=(rows, cols))
        )
        limit = min(rows, cols)
        n_fire = int(rng.integers(0, limit + 1))
        firing = set(
            int(n)
            for n in rng.choice(np.arange(1, limit + 1), size=n_fire, replace=False)
        )
        v = float(rng.uniform(0.05, 0.3))
        got = read_recall_currents(arr, firing, v)
        assert set(got) == {b for b in range(1, cols + 1) if b not in firing}
        for b, current in got.items():
            expect = 0.0
            for w in sorted(firing):
                expect += v / float(arr.resistance[w - 1, b - 1])
            err = abs(current - expect) / expect if expect else abs(current)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict("C1", ok, f"worst relative error {worst:.2e} over 200 arrays in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_c2_threshold_matches_exhaustive_search(verdict):
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    checked = 0
    for k in (2, 3, 4):
        for n in range(k + 1, 9):
            for _ in range(12):
                R = np.exp(rng.uniform(np.log(1e4), np.log(3e7), size=(n, n)))
                config = NetworkConfig(
                    c_factor=float(rng.choice([1.5, 2.0])), recall_on_count=k
                )
                best = -math.inf
                for col in range(n):
                    others = [r for r in range(n) if r != col]
                    for combo in itertools.combinations(others, k):
                        s = 0.0
                        for r in combo:
                            s += 1.0 / float(R[r, col])
                        best = max(best, s)
                expect = config.c_factor * config.v_read * best
                assert compute_threshold(R, config) == expect
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    verdict("C2", ok, f"{checked} exact matches against subset enumeration in {elapsed:.2f}s")
    assert elapsed < 5.0


def test_c3_no_false_firings(family, verdict):
    runs, _ = family
    epochs_seen = 0
    violations = 0
    for cv in VARIATION_LEVELS:
        for t1, t2 in runs[cv]:
            for trace in (t1, t2):
                for ep in trace.epochs:
                    epochs_seen += 1
                    violations += len(ep.false_firings)
    ok = violations == 0
    verdict(
        "C3",
        ok,
        f"0 false firings required, got {violations} across {epochs_seen} epochs "
        f"(200 seeds x {len(VARIATION_LEVELS)} variation levels, both patterns)",
    )
    assert violations == 0


def test_c4_epoch_medians_track_variation(family, verdict):
    runs, elapsed = family
    medians = {}
    nonconverged = 0
    for cv in VARIATION_LEVELS:
        epochs = []
        for t1, _ in runs[cv][:101]:
            if t1.converged:
                epochs.append(t1.epochs_to_recall)
            else:
                nonconverged += 1
        medians[cv] = float(np.median(epochs))
    within = all(
        abs(medians[cv] - EPOCH_TARGETS[cv]) <= EPOCH_TOLERANCE
        for cv in VARIATION_LEVELS
    )
    ordered = all(
        medians[a] >= medians[b]
        for a, b in zip(VARIATION_LEVELS, VARIATION_LEVELS[1:])
    )
    ok = within and ordered and nonconverged == 0 and elapsed < 30.0
    shown = {cv: medians[cv] for cv in VARIATION_LEVELS}
    verdict(
        "C4",
        ok,
        f"median epochs {shown} vs targets {EPOCH_TARGETS} (tolerance +/-{EPOCH_TOLERANCE}), "
        f"{nonconverged} non-converged, family built in {elapsed:.1f}s",
    )
    assert nonconverged == 0
    for cv in VARIATION_LEVELS:
        assert abs(medians[cv] - EPOCH_TARGETS[cv]) <= EPOCH_TOLERANCE, (
            f"cv={cv}: median {medians[cv]} vs target {EPOCH_TARGETS[cv]}"
        )
    assert ordered
    assert elapsed < 30.0


def test_c5_energy_budget(family, verdict):
    runs, _ = family
    eleven = [t1 for t1, _ in runs[0.60] if t1.epochs_to_recall == 11]
    one = [t1 for t1, _ in runs[0.09] if t1.epochs_to_recall == 1]
    assert eleven, "no 11-epoch run at cv=0.60 in 200 seeds"
    assert one, "no 1-epoch run at cv=0.09 in 200 seeds"
    e60 = eleven[0].total_energy
    e09 = one[0].total_energy
    ok60 = abs(e60 - 52.8e-9) <= 0.2 * 52.8e-9
    ok09 = abs(e09 - 4.8e-9) <= 0.2 * 4.8e-9
    exact = True
    for cv in VARIATION_LEVELS:
        for pair in runs[cv]:
            for t in pair:
                if t.program_event_count != 25 * len(t.epochs):
                    exact = False
                if t.program_energy != t.program_event_count * CAL_PARAMS.e_prog:
                    exact = False
    ok = ok60 and ok09 and exact
    verdict(
        "C5",
        ok,
        f"11-epoch run {e60 * 1e9:.2f} nJ (target 52.8 +/-20%), "
        f"1-epoch run {e09 * 1e9:.2f} nJ (target 4.8 +/-20%), "
        f"ledger identity exact for all {sum(len(runs[cv]) for cv in runs) * 2} traces: {exact}",
    )
    assert ok60, f"11-epoch energy {e60} outside 52.8 nJ +/-20%"
    assert ok09, f"1-epoch energy {e09} outside 4.8 nJ +/-20%"
    assert exact


def _cue_ratio(cv, seed):
    """As-built cue-column conductance over the worst column's top-k sum.

    This is ``c_factor * I0 / T``: the zero-pulse recall current on the
    missing pixel against the threshold, with ``c_factor`` taken out. Epoch
    one multiplies every cue-column conductance by the first-step gain ``F``
    (up to pulse noise), so that epoch recalls when ``F * ratio / c > 1``.
    """
    arr = build_array(ArrayGeometry(), CAL_PARAMS, calibrated_variation(cv), seed)
    cue = PATTERN_ONE.on - {MISSING_PIXEL_ONE}
    i0 = read_recall_currents(arr, cue, NETWORK.v_read)[MISSING_PIXEL_ONE]
    return NETWORK.c_factor * i0 / compute_threshold(arr.initial_resistance, NETWORK)


def test_c6_bias_margin_ordering(verdict):
    """Read-bias flip margins: small for wide spread, larger and capped for tight.

    The cv=0.60 window and the paired ordering are literal. The cv=0.09
    window is derived. A cv=0.09 run that recalls in epoch one flips at the
    smallest grid step ``d`` with ``(1 - d) * I1 <= T`` (pinned in
    test_metrics), where ``I1 / T = F * X09 / c``. C4 needs the median
    cv=0.24 array (its 101 seeds) to take three or more epochs, so at least
    to miss epoch one: ``F * X24 / c <= 1``. Together they cap the cv=0.09
    median margin at ``1 - median X24 / median X09``, rounded up to the
    grid and computed here from the as-built maps; neither the schedule nor
    the pulse noise enters it. The lower bound, strictly above the cv=0.60
    window's 0.05 upper edge, asks that a tight array clear the threshold by
    more than a wide array's whole window. No document fixes this lower end.
    """
    deltas = {0.60: [], 0.09: []}
    for seed in range(50):
        for cv in (0.60, 0.09):
            r = read_voltage_sensitivity(
                CAL_PARAMS, calibrated_variation(cv), NETWORK, seed
            )
            assert r.min_relative_perturbation is not None
            deltas[cv].append(r.min_relative_perturbation)
    med60 = float(np.median(deltas[0.60]))
    med09 = float(np.median(deltas[0.09]))
    ordering = sum(
        1 for a, b in zip(deltas[0.09], deltas[0.60]) if a > b
    ) / len(deltas[0.60])
    x24 = float(np.median([_cue_ratio(0.24, seed) for seed in range(101)]))
    x09 = float(np.median([_cue_ratio(0.09, seed) for seed in range(50)]))
    cap = min(d for d in DEFAULT_PERTURBATION_GRID if d >= 1.0 - x24 / x09)
    ok60 = 0.01 <= med60 <= 0.05
    ok_order = ordering >= 0.90
    ok_low = med09 > 0.05
    ok_cap = med09 <= cap
    verdict(
        "C6",
        ok60 and ok_order and ok_low and ok_cap,
        f"flip margin medians: cv=0.60 {med60:.2f} (window 0.01..0.05), "
        f"cv=0.09 {med09:.2f} (window >0.05..{cap:.2f}, cap from as-built maps), "
        f"low-variation margin larger in {ordering:.0%} of 50 paired seeds (need >=90%)",
    )
    assert ok60, f"cv=0.60 median flip margin {med60} outside 0.01..0.05"
    assert ok_low, (
        f"cv=0.09 median flip margin {med09:.2f} does not clear the cv=0.60 "
        "window's 0.05 upper edge"
    )
    assert ok_cap, (
        f"cv=0.09 median flip margin {med09:.2f} exceeds the cap {cap:.2f} = "
        f"1 - {x24:.3f}/{x09:.3f} rounded up to the grid, where {x24:.3f} and "
        f"{x09:.3f} are the median as-built cue-to-threshold-column ratios at "
        "cv=0.24 (101 seeds) and cv=0.09 (50 seeds); a first step that large "
        "makes the median cv=0.24 array recall in epoch one, against C4"
    )
    assert ok_order, f"ordering held in only {ordering:.0%} of paired seeds"


def test_c7_staircase_level_count_and_spread(verdict):
    nominal = DeviceParams()
    quiet = replace(nominal, sigma_c2c=0.0)
    rng = np.random.default_rng(0)
    cell = CellState(resistance=quiet.r_reset_median)
    within_after = None
    for pulse in range(1, 10):
        apply_gradual_set(cell, quiet, rng)
        if within_after is None and abs(cell.resistance - 1.0e4) <= 1.0e3:
            within_after = pulse
    ok_exact = within_after == 9

    rng = np.random.default_rng(7)
    stairs = []
    monotone = 0
    steps = 0
    for _ in range(100):
        cell = CellState(resistance=nominal.r_reset_median)
        seq = []
        prev = nominal.r_reset_median
        for _ in range(9):
            apply_gradual_set(cell, nominal, rng)
            seq.append(cell.resistance)
            steps += 1
            monotone += cell.resistance <= prev
            prev = cell.resistance
        stairs.append(tuple(seq))
    distinct = len(set(stairs)) == 100
    mono_frac = monotone / steps
    ok = ok_exact and distinct and mono_frac >= 0.95
    verdict(
        "C7",
        ok,
        f"noise-free staircase within 10% of 10 kOhm after pulse {within_after} "
        f"(need exactly 9); 100 noisy staircases distinct={distinct}, "
        f"monotone steps {mono_frac:.1%} (need >=95%)",
    )
    assert within_after == 9
    assert distinct
    assert mono_frac >= 0.95


def test_c8_normalized_map_initialization(verdict):
    fresh_ok = True
    for cv in VARIATION_LEVELS:
        for seed in range(25):
            arr = build_array(
                ArrayGeometry(), CAL_PARAMS, calibrated_variation(cv), seed
            )
            if not np.all(resistance_map(arr) == 1.0):
                fresh_ok = False

    idle = [i - 1 for i in sorted(PATTERN_TWO.on)]
    trained = [i - 1 for i in sorted(PATTERN_ONE.on)]
    block_ok = True
    for seed in range(10):
        arr = build_array(
            ArrayGeometry(), CAL_PARAMS, calibrated_variation(0.24), seed
        )
        run_learning(arr, PATTERN_ONE, MISSING_PIXEL_ONE, NETWORK)
        m = resistance_map(arr)
        if not np.all(m[np.ix_(idle, idle)] == 1.0):
            block_ok = False
        if not np.all(m[np.ix_(trained, trained)] < 1.0):
            block_ok = False
    ok = fresh_ok and block_ok
    verdict(
        "C8",
        ok,
        f"fresh maps exactly 1.0 (100 builds): {fresh_ok}; untouched second-pattern "
        f"block still exactly 1.0 after first-pattern training (10 seeds): {block_ok}",
    )
    assert fresh_ok
    assert block_ok


def _tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_c9_byte_determinism(tmp_path, capsys, verdict):
    commands = {
        "characterize": ["characterize", "--cycles", "3", "--seed", "2"],
        "learn": ["learn", "--cv", "0.24", "--seed", "3"],
        "sweep": ["sweep", "--cvs", "0.24", "--seeds", "3", "--seed", "4"],
        "calibrate": ["calibrate", "--seeds", "2"],
    }
    stable = True
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        rc_a = main(argv + ["--quiet", "--out", str(a)])
        rc_b = main(argv + ["--quiet", "--out", str(b)])
        assert rc_a == rc_b
        assert rc_a in (0, 3)
        if _tree(a) != _tree(b):
            stable = False

    base = _tree(tmp_path / "learn_a")
    other_dir = tmp_path / "learn_c"
    main(commands["learn"][:-1] + ["5", "--quiet", "--out", str(other_dir)])
    differs = _tree(other_dir)["trace1.json"] != base["trace1.json"]
    capsys.readouterr()
    ok = stable and differs
    verdict(
        "C9",
        ok,
        f"four subcommands byte-identical on rerun: {stable}; "
        f"different seed changes the outputs: {differs}",
    )
    assert stable
    assert differs
