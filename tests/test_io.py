"""Deterministic writers: the cached row and table formats give the per-cell
text, the JSON encoder gives json.dumps's bytes, and each file is one write."""

import builtins
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcmxbar import _io
from pcmxbar._io import provenance_lines, write_csv, write_json, write_map_csv
from pcmxbar.cli import main
from pcmxbar.errors import OutputError


def format_value(value, float_fmt: str) -> str:
    """The per-cell formatting that the row formats replace."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return float_fmt % value
    return str(value)


def reference_csv(header, rows, provenance=None, float_fmt="%.10g") -> bytes:
    lines = provenance_lines(provenance)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v, float_fmt) for v in row))
    return ("\n".join(lines) + "\n").encode()


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300)
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
CELLS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS,
    FLOATS.map(np.float64),
    st.none(),
    st.text(st.characters(blacklist_categories=("Cs",))),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(CELLS, max_size=6), max_size=6),
    provenance=st.none() | st.dictionaries(st.sampled_from(("seed", "cv")), st.integers()),
)
def test_write_csv_matches_per_cell_formatting(tmp_path_factory, rows, provenance):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = ("a", "b")
    write_csv(path, header, rows, provenance=provenance)
    assert path.read_bytes() == reference_csv(header, rows, provenance)


@settings(max_examples=100, deadline=None)
@given(matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                         elements=FLOATS))
@example(matrix=np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0))
@example(matrix=(np.arange(12.0).reshape(3, 4) * 1.5e5 + 0.125).T)
@example(matrix=np.linspace(-1.0, 1.0, 6).reshape(1, 6) / 3.0)
@example(matrix=np.linspace(-1.0, 1.0, 6).reshape(6, 1) / 3.0)
@example(matrix=np.ones((10, 10)))
def test_write_map_csv_matches_per_cell_formatting(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("map") / "m.csv"
    write_map_csv(path, matrix, provenance={"epoch": 3})
    header = ["wordline"] + [f"bitline_{b}" for b in range(1, matrix.shape[1] + 1)]
    rows = [[w, *row] for w, row in enumerate(matrix, 1)]
    assert path.read_bytes() == reference_csv(header, rows, {"epoch": 3}, "%.6g")


def test_map_format_is_built_once_per_shape(tmp_path):
    _io._map_format.cache_clear()
    for k in range(30):
        write_map_csv(tmp_path / "m.csv", np.full((10, 10), k / 7.0), provenance={"epoch": k})
    assert _io._map_format.cache_info().misses == 1


# tables of one row signature: bool, np.bool_, int, float and str columns, at least
# two rows, the shape the one-format-per-table path takes
UNIFORM_COLUMNS = st.lists(
    st.sampled_from(("bool", "np_bool", "float", "np_float", "int", "str")), min_size=1, max_size=5
)
COLUMN_CELLS = {
    "bool": st.booleans(),
    "np_bool": st.booleans().map(np.bool_),
    "float": FLOATS,
    "np_float": FLOATS.map(np.float64),
    "int": st.integers(),
    "str": st.text(st.sampled_from("ab%,% d\n")),
}


@st.composite
def uniform_tables(draw):
    columns = draw(UNIFORM_COLUMNS)
    n = draw(st.integers(2, 12))
    return [tuple(draw(COLUMN_CELLS[c]) for c in columns) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(rows=uniform_tables(), as_lists=st.booleans())
def test_uniform_tables_match_per_cell_formatting(tmp_path_factory, rows, as_lists):
    path = tmp_path_factory.mktemp("uniform") / "t.csv"
    header = ("a", "b")
    write_csv(path, header, [list(r) for r in rows] if as_lists else rows, provenance={"seed": 1})
    assert path.read_bytes() == reference_csv(header, rows, {"seed": 1})


def test_rows_of_one_type_tuple_but_unequal_lengths_are_formatted_per_row(tmp_path):
    # six floats in rows of 2, 1 and 3: the cell types alone would pass for
    # three rows of two
    rows = [(0.5, 1.5), (2.5,), (3.5, 4.5, 5.5)]
    write_csv(tmp_path / "t.csv", ("a", "b"), rows)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(("a", "b"), rows)


def test_write_csv_takes_rows_from_any_iterable(tmp_path):
    rows = [(1, 0.25, "x"), (2, 0.5, "y")]
    write_csv(tmp_path / "t.csv", ("a", "b", "c"), (iter(r) for r in rows))
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(("a", "b", "c"), rows)


# ---------------------------------------------------------------------------
# JSON: the indented encoder against json.dumps


def stdlib_json(obj):
    """What write_json wrote before it had its own encoder: text, or the exception type and message."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        return OutputError, f"cannot write P: {exc}"
    except Exception as exc:  # noqa: BLE001 - the stdlib's own error passes through
        return type(exc), None


def written_json(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "t.json"
    try:
        write_json(path, obj)
    except OutputError as exc:
        return OutputError, str(exc).replace(str(path), "P")
    except Exception as exc:  # noqa: BLE001
        return type(exc), None
    return path.read_bytes().decode()


TEXT = st.text(st.one_of(
    st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\n\t\x00\x1f\x7f é😀'),
), max_size=8)
KEYS = st.text(st.sampled_from('ab"\\\n\x01é😀'), max_size=3)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64), min_value=-(2**200)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 1e-7)),
    TEXT,
)
# values outside the encoder's own path: json.dumps decides them
FOREIGN = st.one_of(
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.just(frozenset()),
)


def json_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(KEYS, children, max_size=4),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(obj=st.dictionaries(KEYS, json_values(JSON_SCALARS), max_size=5))
def test_json_encoder_matches_json_dumps(tmp_path_factory, obj):
    assert written_json(tmp_path_factory, obj) == stdlib_json(obj)


@settings(max_examples=150, deadline=None)
@given(
    obj=st.dictionaries(KEYS, json_values(JSON_SCALARS | FOREIGN), max_size=5)
    | st.dictionaries(st.integers(0, 20), json_values(JSON_SCALARS), min_size=1, max_size=4)
    | st.dictionaries(st.integers(0, 3) | KEYS, json_values(JSON_SCALARS), min_size=2, max_size=4),
)
def test_values_outside_the_encoder_get_the_stdlib_result(tmp_path_factory, obj):
    # numpy scalars, non-finite floats, int and mixed keys: the same bytes as
    # json.dumps, or the same exception (OutputError with today's message for a ValueError)
    assert written_json(tmp_path_factory, obj) == stdlib_json(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_anywhere_is_an_output_error(tmp_path, value):
    for obj in ({"a": value}, {"a": [1.0, {"b": (value,)}]}, {"z": [], "a": {"x": [[value]]}}):
        with pytest.raises(OutputError, match="Out of range float values are not JSON compliant"):
            write_json(tmp_path / "t.json", obj)


def test_circular_and_overdeep_objects_get_the_stdlib_result(tmp_path_factory):
    loop = {"a": []}
    loop["a"].append(loop)
    assert written_json(tmp_path_factory, loop) == stdlib_json(loop) == (
        OutputError, "cannot write P: Circular reference detected"
    )
    deep = {"a": []}
    cur = deep["a"]
    for _ in range(5000):
        cur.append([])
        cur = cur[0]
    assert written_json(tmp_path_factory, deep) == stdlib_json(deep)


# ---------------------------------------------------------------------------
# one write per file


def test_learn_into_an_existing_directory_opens_each_file_once(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["learn", "--seed", "0", "--quiet", "--out", str(out)]
    assert main(argv) == 0
    opened, mkdirs = [], []
    real_open, real_io_open, real_mkdir = os.open, io.open, os.mkdir

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return real_open(path, *args, **kwargs)

    def counting_io_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return real_io_open(path, *args, **kwargs)

    def counting_mkdir(path, *args, **kwargs):
        mkdirs.append(Path(path))
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_io_open)
    monkeypatch.setattr(builtins, "open", counting_io_open)
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    assert main(argv) == 0
    monkeypatch.undo()
    files = sorted(p.name for p in out.iterdir())
    assert sorted(opened) == files
    assert mkdirs == [out]  # ensure_out_dir's, which finds it there


def test_a_file_in_a_missing_directory_is_still_written(tmp_path):
    write_csv(tmp_path / "a" / "b" / "t.csv", ("x",), [(1,), (2,)])
    write_json(tmp_path / "c" / "t.json", {"x": 1})
    assert (tmp_path / "a" / "b" / "t.csv").read_text() == "x\n1\n2\n"
    assert (tmp_path / "c" / "t.json").read_text() == '{\n  "x": 1\n}\n'


def test_unwritable_path_is_an_output_error(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(OutputError, match="cannot write"):
        write_csv(tmp_path / "file" / "t.csv", ("x",), [])
