"""Command-line interface: subcommands, config layering, exit codes."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from pcmxbar import cli
from pcmxbar.cli import main
from pcmxbar.config import _SCHEMA, config_hash, config_render, default_run_config
from pcmxbar.harness import reproduce_figures
from test_golden import _directory_digest

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_shows_config_hash(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert "pcmxbar 0.1.0" in out
    match = re.search(r"default config ([0-9a-f]{12})", out)
    assert match
    assert match.group(1) == config_hash(default_run_config())


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process, so no parse may leave state for
    # the next: a plain learn after other commands writes what a fresh process does
    assert main(["learn", "--cv", "0.3", "--seed", "5", "--quiet", "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--seeds", "2", "--cvs", "0.6,0.09", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert main(["learn", "--out", str(tmp_path / "here")]) == 0
    here = capsys.readouterr().out
    assert main(["--version"]) == 0
    assert "default config d2d8a8af8cb5" in capsys.readouterr().out
    assert cli._build_parser.cache_info().misses == 1

    fresh = subprocess.run(
        [sys.executable, "-m", "pcmxbar", "learn", "--out", str(tmp_path / "fresh")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.replace(str(tmp_path / "fresh"), str(tmp_path / "here")) == here
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "here").iterdir())
    for name in names:
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_no_command_is_usage_error(capsys):
    rc, _, _ = run(capsys)
    assert rc == 2


def test_characterize(tmp_path, capsys):
    out = tmp_path / "o"
    rc, stdout, _ = run(
        capsys, "characterize", "--out", str(out), "--cycles", "2", "--seed", "4"
    )
    assert rc == 0
    for name in ("fig2b.csv", "fig2c.csv", "fig2d.csv"):
        assert (out / name).exists()
        assert name in stdout


def test_characterize_bad_cycles(tmp_path, capsys):
    rc, _, err = run(
        capsys, "characterize", "--out", str(tmp_path), "--cycles", "0"
    )
    assert rc == 2
    assert "cycles" in err


def test_learn_writes_traces_and_maps(tmp_path, capsys):
    out = tmp_path / "learn"
    rc, stdout, _ = run(
        capsys, "learn", "--cv", "0", "--seed", "1", "--out", str(out)
    )
    assert rc == 0
    t1 = json.loads((out / "trace1.json").read_text())
    t2 = json.loads((out / "trace2.json").read_text())
    # calibrated staircase at zero spread: the big first step recalls at once
    assert t1["converged"] and t1["epochs_to_recall"] == 1
    assert t2["converged"] and t2["epochs_to_recall"] == 1
    assert t1["seed"] == 1
    assert t1["missing_pixel"] == 6
    assert t2["missing_pixel"] == 5
    assert (out / "map_epoch00.csv").exists()
    assert (out / "map_epoch02.csv").exists()  # initial + one epoch per pattern
    assert (out / "map_final.csv").exists()
    assert "recalled in 1 epochs" in stdout


def test_learn_into_a_reused_directory_leaves_no_stale_maps(tmp_path, capsys):
    # cv 0.60 writes 27 maps at seed 3, cv 0.09 writes 3: the rerun removes the other 24
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["learn", "--cv", "0.60", "--seed", "3", "--out", str(reused)]) == 0
    assert len(list(reused.glob("map_epoch*.csv"))) > 3
    assert main(["learn", "--cv", "0.09", "--seed", "3", "--out", str(reused)]) == 0
    assert main(["learn", "--cv", "0.09", "--seed", "3", "--out", str(fresh)]) == 0
    assert "wrote 3 map_epochNN.csv files" in capsys.readouterr().out
    assert _directory_digest(reused) == _directory_digest(fresh)


def test_reproduce_figures_into_a_reused_directory_leaves_no_stale_maps(tmp_path):
    small = dict(sweep_seeds=6, characterize_cycles=3, trajectory_epochs=15)
    reproduce_figures(tmp_path / "reused", seed=1, **small)
    reproduce_figures(tmp_path / "reused", seed=0, **small)
    reproduce_figures(tmp_path / "fresh", seed=0, **small)
    assert _directory_digest(tmp_path / "reused") == _directory_digest(tmp_path / "fresh")


# per command, two argument sets whose outputs differ in which files they write
REUSED_RUNS = {
    "learn": (("learn", "--cv", "0.60", "--seed", "3"),
              ("learn", "--cv", "0.09", "--seed", "3")),
    "sweep": (("sweep", "--cvs", "0.6,0.09", "--seeds", "3"),
              ("sweep", "--cvs", "0.4", "--seeds", "3")),
    "characterize": (("characterize", "--cycles", "3"),
                     ("characterize", "--cycles", "2", "--seed", "1")),
    "calibrate": (("calibrate", "--seeds", "2"), ("calibrate", "--seeds", "1")),
}


@pytest.mark.parametrize("command", list(REUSED_RUNS))
def test_a_reused_directory_holds_only_the_last_run_and_user_files(tmp_path, capsys, command):
    first, last = REUSED_RUNS[command]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for out in (reused, fresh):
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    assert main([*first, "--quiet", "--out", str(reused)]) == 0
    assert main([*last, "--quiet", "--out", str(reused)]) == 0
    assert main([*last, "--quiet", "--out", str(fresh)]) == 0
    assert _directory_digest(reused) == _directory_digest(fresh)


def test_reproduce_figures_into_a_reused_directory_keeps_only_its_last_cvs(tmp_path):
    small = dict(sweep_seeds=6, characterize_cycles=3, trajectory_epochs=15)
    for out in (tmp_path / "reused", tmp_path / "fresh"):
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    reproduce_figures(tmp_path / "reused", seed=1, cvs=(0.60, 0.30), **small)
    assert (tmp_path / "reused" / "fig6_0.30.csv").exists()
    reproduce_figures(tmp_path / "reused", seed=0, **small)
    reproduce_figures(tmp_path / "fresh", seed=0, **small)
    assert _directory_digest(tmp_path / "reused") == _directory_digest(tmp_path / "fresh")


def test_learn_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "capped"
    rc, stdout, _ = run(
        capsys,
        "learn", "--cv", "0.60", "--max-epochs", "3", "--seed", "0", "--out", str(out),
    )
    assert rc == 3
    assert "no recall within 3 epochs" in stdout
    t1 = json.loads((out / "trace1.json").read_text())  # outputs still written
    assert t1["converged"] is False
    assert t1["epochs_to_recall"] is None
    assert len(t1["epochs"]) == 3


def test_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc, stdout, _ = run(
        capsys, "sweep", "--cvs", "0.09", "--seeds", "3", "--out", str(out)
    )
    assert rc == 0
    fig7 = (out / "fig7.csv").read_text().splitlines()
    header = next(ln for ln in fig7 if not ln.startswith("#"))
    assert header == "cv,median_epochs,median_energy_joules,n_seeds,n_nonconverged"
    assert (out / "fig6_0.09.csv").exists()


def test_sweep_determinism_and_seed_dependence(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ["sweep", "--cvs", "0.24", "--seeds", "4", "--quiet"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert main(args + ["--out", str(c), "--seed", "1"]) == 0
    capsys.readouterr()
    assert (a / "fig7.csv").read_bytes() == (b / "fig7.csv").read_bytes()
    assert (a / "fig6_0.24.csv").read_bytes() == (b / "fig6_0.24.csv").read_bytes()
    assert (a / "fig7.csv").read_bytes() != (c / "fig7.csv").read_bytes()


def test_calibrate(tmp_path, capsys):
    out = tmp_path / "cal"
    rc, stdout, _ = run(capsys, "calibrate", "--seeds", "5", "--out", str(out))
    assert rc == 0
    data = json.loads((out / "calibration.json").read_text())
    assert len(data["decay_schedule"]) == 9
    assert "residual" in data
    assert set(data["medians"]) == {"0.60", "0.40", "0.24", "0.09"}
    assert "residual" in stdout


# settings under which some cv never recalls: every cv, or all but cv 0.09
NO_RECALL_CALIBRATIONS = [
    {"PCMXBAR_NETWORK_C_FACTOR": "1e200"},
    {"PCMXBAR_NETWORK_V_READ": "5e-324"},
    {"PCMXBAR_NETWORK_MAX_EPOCHS": "2"},
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("env", NO_RECALL_CALIBRATIONS,
                         ids=[" ".join(f"{k}={v}" for k, v in e.items())
                              for e in NO_RECALL_CALIBRATIONS])
def test_calibrate_reports_a_cv_that_never_recalls(tmp_path, capsys, monkeypatch, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "cal"
    rc, stdout, err = run(capsys, "calibrate", "--seeds", "1", "--out", str(out))
    assert rc == 3
    assert err == ""
    data = _strict_json((out / "calibration.json").read_text())
    never = sorted(cv for cv, median in data["medians"].items() if median is None)
    assert never
    assert data["residual"] is None
    assert sorted(re.findall(r"cv=([0-9.]+): no recall within", stdout)) == never


def test_calibrate_hashes_the_device_it_searches(tmp_path, capsys, monkeypatch):
    # calibrate_epochs builds its candidates around calibrated_device_params(),
    # never from [device], so [device] settings leave calibration.json as it was
    assert main(["calibrate", "--seeds", "1", "--out", str(tmp_path / "default")]) == 0
    monkeypatch.setenv("PCMXBAR_DEVICE_SIGMA_C2C", "0.2")
    monkeypatch.setenv("PCMXBAR_DEVICE_R_RESET_MEDIAN", "6e6")
    assert main(["calibrate", "--seeds", "1", "--out", str(tmp_path / "device")]) == 0
    capsys.readouterr()
    written = [(tmp_path / d / "calibration.json").read_bytes() for d in ("default", "device")]
    assert written[0] == written[1]


@pytest.mark.parametrize("command", [("learn",), ("sweep", "--seeds", "2"),
                                     ("calibrate", "--seeds", "1")], ids=lambda c: c[0])
@pytest.mark.parametrize("count", [1, 3, 5, 9])
def test_recall_on_count_that_misfits_the_cues_fails_before_any_output(
    tmp_path, capsys, monkeypatch, command, count
):
    monkeypatch.setenv("PCMXBAR_NETWORK_RECALL_ON_COUNT", str(count))
    out = tmp_path / "D"
    rc, stdout, err = run(capsys, *command, "--out", str(out))
    assert rc == 2
    assert err == f"pcmxbar: cue has 4 pixels, recall expects {count}\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [("characterize", "--cycles", "1"), ("learn",),
                                     ("sweep", "--seeds", "2"), ("calibrate", "--seeds", "1")],
                         ids=lambda c: c[0])
def test_an_output_directory_under_a_file_exits_4_and_writes_nothing(tmp_path, capsys, command):
    (tmp_path / "file").write_text("mine\n")
    out = tmp_path / "file" / "D"
    rc, stdout, err = run(capsys, *command, "--out", str(out))
    assert rc == cli.EXIT_IO == 4
    assert err.startswith(f"pcmxbar: cannot create output directory {out}: ")
    assert err.count("\n") == 1
    assert stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "mine\n"


BAD_COUNTS_AND_SPREADS = [
    (("sweep", "--seeds", "0"), {}, "--seeds"),
    (("sweep", "--seeds", "-3"), {}, "--seeds"),
    (("sweep", "--trajectory-epochs", "0"), {}, "--trajectory-epochs"),
    (("calibrate", "--seeds", "0"), {}, "--seeds"),
    (("characterize", "--cycles", "0"), {}, "--cycles"),
    (("learn", "--cv", "-1"), {}, "--cv"),
    (("sweep", "--cvs", "0.6,-1"), {}, "--cvs"),
    (("learn",), {"PCMXBAR_VARIATION_DEVICE_SHARE": "2"}, "$PCMXBAR_VARIATION_DEVICE_SHARE"),
]


@pytest.mark.parametrize("argv,env,origin", BAD_COUNTS_AND_SPREADS,
                         ids=[" ".join(a) + "".join(f" {k}={v}" for k, v in e.items())
                              for a, e, _ in BAD_COUNTS_AND_SPREADS])
def test_bad_run_count_or_variation_fails_before_any_output(
    tmp_path, capsys, monkeypatch, argv, env, origin
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "D"
    rc, stdout, err = run(capsys, *argv, "--out", str(out))
    assert rc == 2
    assert err.startswith("pcmxbar: ") and f" in {origin}: " in err
    assert stdout == ""
    assert not out.exists()


def test_config_file_env_flag_precedence(tmp_path, capsys, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 5\n[network]\nmax_epochs = 60\n")

    out1 = tmp_path / "o1"
    rc, _, _ = run(
        capsys, "learn", "--cv", "0", "--config", str(ini), "--out", str(out1)
    )
    assert rc == 0
    assert json.loads((out1 / "trace1.json").read_text())["seed"] == 5

    monkeypatch.setenv("PCMXBAR_RUN_SEED", "6")
    out2 = tmp_path / "o2"
    rc, _, _ = run(
        capsys, "learn", "--cv", "0", "--config", str(ini), "--out", str(out2)
    )
    assert rc == 0
    assert json.loads((out2 / "trace1.json").read_text())["seed"] == 6

    out3 = tmp_path / "o3"
    rc, _, _ = run(
        capsys,
        "learn", "--cv", "0", "--config", str(ini), "--seed", "7", "--out", str(out3),
    )
    assert rc == 0
    assert json.loads((out3 / "trace1.json").read_text())["seed"] == 7


def test_unknown_config_key_rejected(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[device]\nbogus = 1\n")
    rc, _, err = run(
        capsys, "learn", "--config", str(ini), "--out", str(tmp_path / "x")
    )
    assert rc == 2
    assert "bogus" in err


def test_missing_config_file(tmp_path, capsys):
    rc, _, err = run(
        capsys, "learn", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)
    )
    assert rc == 2
    assert "not found" in err


def test_env_quiet_silences_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PCMXBAR_QUIET", "1")
    rc, stdout, _ = run(
        capsys, "characterize", "--cycles", "1", "--out", str(tmp_path / "q")
    )
    assert rc == 0
    assert stdout == ""


def test_device_env_override_changes_physics(tmp_path, capsys, monkeypatch):
    # uniform staircase at zero spread needs two epochs instead of one
    monkeypatch.setenv("PCMXBAR_DEVICE_DECAY_SCHEDULE", "uniform")
    monkeypatch.setenv("PCMXBAR_DEVICE_SIGMA_C2C", "0")
    out = tmp_path / "env"
    rc, _, _ = run(capsys, "learn", "--cv", "0", "--seed", "1", "--out", str(out))
    assert rc == 0
    assert json.loads((out / "trace1.json").read_text())["epochs_to_recall"] == 2


BAD_INPUTS = [
    (("learn", "--cv", "nan"), {}),
    (("learn", "--cv", "inf"), {}),
    (("learn", "--seed", "-1"), {}),
    (("learn",), {"PCMXBAR_SEED": "-1"}),
    (("learn",), {"PCMXBAR_RUN_SEED": "-1"}),
    (("sweep", "--cvs", ","), {}),
    (("sweep", "--cvs", "0.24,nan"), {}),
    (("learn",), {"PCMXBAR_NETWORK_C_FACTOR": "nan"}),
    (("learn",), {"PCMXBAR_NETWORK_V_READ": "inf"}),
    (("learn",), {"PCMXBAR_DEVICE_R_SET_FLOOR": "nan"}),
    (("learn",), {"PCMXBAR_DEVICE_SIGMA_C2C": "nan"}),
    (("learn",), {"PCMXBAR_DEVICE_DECAY_SCHEDULE": "0.2,nan"}),
    # finite values whose square overflows
    (("learn", "--cv", "1e200"), {}),
    (("sweep", "--cvs", "1e200", "--seeds", "2"), {}),
    (("learn",), {"PCMXBAR_NETWORK_V_READ": "1e200"}),
    # a trajectory budget below one
    (("sweep", "--trajectory-epochs", "0", "--seeds", "2"), {}),
]


@pytest.mark.parametrize(
    "argv,env", BAD_INPUTS, ids=[" ".join(a) + "".join(f" {k}={v}" for k, v in e.items())
                                 for a, e in BAD_INPUTS]
)
def test_bad_input_is_config_error(tmp_path, capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "bad"
    rc, _, err = run(capsys, *argv, "--out", str(out))
    assert rc == 2
    assert err.startswith("pcmxbar: ")
    assert "Traceback" not in err
    assert not list(out.glob("*.json")) and not list(out.glob("*.csv"))


def _assembled(*argv):
    return config_render(cli._assemble_config(cli._build_parser().parse_args(list(argv))))


# a non-default value for each key a flag sets
FLAG_VALUES = {
    "seed": "5", "out": "elsewhere", "quiet": "true", "cycles": "3", "cv": "0.3",
    "max_epochs": "7", "cvs": "0.4,0.2", "sweep_seeds": "4", "trajectory_epochs": "9",
    "calib_seeds": "3",
}
FLAG_ROWS = [(command, row) for command in cli._COMMANDS for row in cli._flags(command)]


@pytest.mark.parametrize(
    "command,row", FLAG_ROWS, ids=[f"{command} {row[0]}" for command, row in FLAG_ROWS]
)
def test_flag_env_and_ini_set_the_same_config(tmp_path, monkeypatch, command, row):
    flag, section, key, _ = row
    value = FLAG_VALUES[key]
    from_flag = _assembled(command, flag, *([] if key == "quiet" else [value]))
    monkeypatch.setenv(f"PCMXBAR_{section.upper()}_{key.upper()}", value)
    from_env = _assembled(command)
    monkeypatch.delenv(f"PCMXBAR_{section.upper()}_{key.upper()}")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    from_ini = _assembled(command, "--config", str(ini))
    assert from_flag == from_env == from_ini
    assert from_flag != _assembled(command)


@pytest.mark.parametrize("argv", [("--seed", "5"), ("--out", "D"), ("--quiet",)])
def test_flags_before_the_subcommand_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # only the subcommand declares these, so a value given before it cannot
    # be taken and then silently replaced by the subcommand's default
    monkeypatch.chdir(tmp_path)
    rc, stdout, _ = run(capsys, *argv, "learn")
    assert rc == 2
    assert stdout == ""
    assert not list(tmp_path.iterdir())


GRID_VALUES = ("nan", "inf", "-1", "0", "", "abc", "1e200")
# a huge budget is slow, not invalid: characterize loops gradual_levels times
BUDGET_VALUES = ("-1", "0", "1", "2", "", "abc", "nan", "1.5")
BUDGET_KEYS = {"gradual_levels", "max_epochs", "recall_on_count", "cycles", "sweep_seeds",
               "calib_seeds", "trajectory_epochs"}
# the subcommands that read each key, kept small; learn reads every other key
READERS = {"cycles": [("characterize",)], "cvs": [("sweep", "--seeds", "2")],
           "trajectory_epochs": [("sweep", "--seeds", "2")], "sweep_seeds": [("sweep",)],
           "calib_seeds": [("calibrate",)],
           **{key: [("learn",), ("characterize",)] for key in _SCHEMA["device"]}}
SMALL = {"sweep": ("--seeds", "2"), "calibrate": ("--seeds", "1")}


def _grid_values(key):
    if key == "out":
        return GRID_VALUES  # joined onto tmp_path below
    values = BUDGET_VALUES if key in BUDGET_KEYS else GRID_VALUES
    return values + (str(2**64),) if key == "seed" else values


def _grid_case(layer, argv, section, key, value):
    return pytest.param(layer, argv, section, key, value,
                        id=f"{layer} {' '.join(argv)} {section}.{key}={value!r}")


GRID = [
    _grid_case("env", argv, section, key, value)
    for section, keys in _SCHEMA.items() for key in keys
    for argv in READERS.get(key, [("learn",)]) for value in _grid_values(key)
] + [
    _grid_case("ini", ("learn",), section, key, value)
    for section, key in (("device", "sigma_c2c"), ("variation", "cv"), ("network", "v_read"),
                         ("run", "seed"))
    for value in GRID_VALUES
] + [
    _grid_case("flag", (command, flag) + (() if flag == "--seeds" else SMALL.get(command, ())),
               section, key, value)
    for command in cli._COMMANDS
    for flag, section, key, _ in cli._flags(command) for value in _grid_values(key)
]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow is a bug, not output
@pytest.mark.parametrize("layer,argv,section,key,value", GRID)
def test_input_grid(tmp_path, capsys, monkeypatch, layer, argv, section, key, value):
    monkeypatch.chdir(tmp_path)
    if key == "out":
        value = str(tmp_path / value)
    if layer == "env":
        monkeypatch.setenv(f"PCMXBAR_{section.upper()}_{key.upper()}", value)
    elif layer == "ini":
        (tmp_path / "run.ini").write_text(f"[{section}]\n{key} = {value}\n")
        argv = (*argv, "--config", "run.ini")
    else:
        argv = (*argv[:2], value, *argv[2:])
    rc, _, err = run(capsys, *argv)
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
    if key != "out" and value in ("nan", "inf"):
        assert rc == 2
    for path in tmp_path.rglob("*.json"):
        _strict_json(path.read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("floor", ["1e-310", "5e-324"])
def test_subnormal_set_floor_is_a_config_error(tmp_path, capsys, monkeypatch, floor):
    # finite and positive, but a cell at the floor conducts 1 / floor = inf
    monkeypatch.setenv("PCMXBAR_DEVICE_R_SET_FLOOR", floor)
    rc, stdout, err = run(capsys, "learn", "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "Traceback" not in err
    assert "r_set_floor" in err
    assert stdout == ""
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_cvs_sharing_a_file_tag(tmp_path, capsys):
    out = tmp_path / "clash"
    rc, stdout, err = run(
        capsys, "sweep", "--cvs", "0.241,0.244", "--seeds", "3", "--out", str(out)
    )
    assert rc == 2
    assert "fig6" in err
    assert stdout == ""
    assert not out.exists() or not list(out.iterdir())


def _params_hash(path):
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("# params_hash="))
    return line.split("=", 1)[1]


def test_characterize_hashes_the_configured_network(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PCMXBAR_NETWORK_V_READ", "0.2")
    assert main(["characterize", "--cycles", "1", "--out", str(tmp_path / "c")]) == 0
    assert main(["learn", "--out", str(tmp_path / "l")]) == 0
    capsys.readouterr()
    learned = json.loads((tmp_path / "l" / "trace1.json").read_text())["provenance"]
    characterized = _params_hash(tmp_path / "c" / "fig2b.csv")
    assert characterized == learned["params_hash"]
    monkeypatch.delenv("PCMXBAR_NETWORK_V_READ")
    assert main(["characterize", "--cycles", "1", "--out", str(tmp_path / "d")]) == 0
    assert _params_hash(tmp_path / "d" / "fig2b.csv") != characterized


def test_redirected_calls_leave_stdout_to_the_caller(tmp_path):
    # a caller that redirects sys.stdout around each call, and prints its own
    # result line last, must find that line last: the package prints nothing
    # past the redirect, to stderr, or at interpreter exit
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import pcmxbar
        from pcmxbar import cli, config, metrics

        out = sys.argv[1]
        for argv in (["learn"], ["characterize"], ["sweep", "--seeds", "3"],
                     ["calibrate", "--seeds", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", f"{out}/{argv[0]}"])
            if code != 0:
                sys.exit(f"{argv[0]} exited {code}")
        cfg = config.default_run_config()
        metrics.read_voltage_sensitivity(cfg.device, cfg.variation(0.60), cfg.network, 0)
        print("SENTINEL")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.stdout == "SENTINEL\n"
    assert result.stderr == ""
    assert result.returncode == 0
