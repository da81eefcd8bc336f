"""Shared deterministic file writers.

Every output file is reproducible byte for byte: no timestamps, fixed float
formats, sorted JSON keys, LF line endings.

A CSV row is formatted by one ``%``-format, built on first use for its tuple
of cell types and then cached: ``%d`` for a bool, ``%.10g`` for any float
(``np.float64`` included), ``%s`` (that is, ``str``) for anything else. It
gives the same text as formatting each cell on its own.
When all rows share one length and one tuple of cell types, as figure
tables do, one cached format covers the whole body and takes the flattened
cells in one ``%``. A resistance map does not pass through ``write_csv``:
``write_map_csv`` takes a cached format per map shape, with the header and
each wordline number written in, and fills it from the float cells in one
``%``.

JSON text comes from ``_json_text``, a recursive encoder for the exact types
that ``json`` maps to JSON. It gives ``json.dumps(obj, sort_keys=True,
indent=2)``, whose ``indent`` would select the stdlib's slower pure-Python
encoder. It raises on anything else (numpy scalars, int keys, NaN or
infinity, a cycle), and ``write_json`` then leaves that object to
``json.dumps``, so the stdlib decides the text or the error.
``tests/test_io.py`` pins every CSV path to per-cell formatting and the
encoder to ``json.dumps``, byte for byte, with hypothesis.

A file is written with one open, one write and one close; its parent
directory is made only when the open finds it missing. ``remove_stale`` is
the one place that deletes outputs.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import json
import os
from pathlib import Path

from .errors import OutputError


def provenance_lines(provenance: dict | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={provenance[key]}" for key in provenance]


@functools.lru_cache(maxsize=256)
def _row_format(types: tuple) -> str:
    return ",".join(
        "%d" if t is bool else "%.10g" if issubclass(t, float) else "%s"
        for t in types
    )


@functools.lru_cache(maxsize=64)
def _table_format(types: tuple, rows: int) -> str:
    return "\n".join([_row_format(types)] * rows)


def write_csv(path, header, rows, provenance=None) -> None:
    """Write one CSV: '#' provenance comments, a header row, then data rows."""
    lines = provenance_lines(provenance)
    lines.append(",".join(header))
    rows = list(map(tuple, rows))
    if rows:
        types = tuple(map(type, rows[0]))
        cells = tuple(itertools.chain.from_iterable(rows))
        if len(set(map(len, rows))) == 1 and tuple(map(type, cells)) == types * len(rows):
            lines.append(_table_format(types, len(rows)) % cells)
        else:
            lines.extend(_row_format(tuple(map(type, row))) % row for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=16)
def _map_format(rows: int, cols: int) -> str:
    """The header line and one ``%``-format line per wordline, its number written in."""
    lines = ["wordline" + "".join(f",bitline_{b}" for b in range(1, cols + 1))]
    lines.extend(f"{w}" + ",%.6g" * cols for w in range(1, rows + 1))
    return "\n".join(lines) + "\n"


def write_map_csv(path, matrix, provenance=None) -> None:
    """Write a resistance map: one row per wordline, 6 significant digits.

    The text is ``write_csv``'s for the rows ``(wordline, *cells)``, with
    ``%.6g`` for the float cells, taken through one cached format per shape
    and one ``%`` over the flattened cells.
    """
    lines = provenance_lines(provenance)
    lines.append(_map_format(*matrix.shape) % tuple(matrix.ravel().tolist()))
    _write_text(path, "\n".join(lines))


def _json_text(obj, indent: str = "\n", _quote=json.encoder.encode_basestring_ascii) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` for exact JSON types.

    ``indent`` is the newline and indentation that precede ``obj``'s closing
    bracket. A finite float, the commonest value, is formatted in line
    rather than by a call. Raises TypeError, ValueError or RecursionError on
    whatever it does not encode itself.
    """
    kind = type(obj)
    if kind is float:
        if obj - obj == 0.0:  # NaN and infinity give NaN
            return float.__repr__(obj)
        raise ValueError("non-finite float")
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        # keys sort as json's sort_keys does; _quote raises on a non-str key
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": "
            + (float.__repr__(v) if type(v) is float and v - v == 0.0 else _json_text(v, inner))
            for k, v in sorted(obj.items())
        ]) + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([
            float.__repr__(v) if type(v) is float and v - v == 0.0 else _json_text(v, inner)
            for v in obj
        ]) + indent + "]"
    raise TypeError(f"{kind.__name__} is left to json.dumps")


def write_json(path, obj, provenance=None) -> None:
    """Write strict JSON; a NaN or infinity raises OutputError, never a bare token."""
    if provenance:
        obj = {"provenance": dict(provenance), **obj}
    try:
        try:
            text = _json_text(obj)
        except (TypeError, ValueError, RecursionError):
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    _write_text(path, text + "\n")


def _write_text(path, text: str) -> None:
    data = text.encode()
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        try:
            fd = os.open(path, flags, 0o666)
        except FileNotFoundError:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, flags, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def remove_stale(out_dir, patterns, written) -> None:
    """Delete each file in ``out_dir`` that matches one of ``patterns`` and is not in ``written``.

    A command calls this after writing, with the ``fnmatch`` name patterns of
    the files it owns and the ``Path``s it wrote, so that the directory holds
    only the series of its last run. The files it wrote are rewritten in
    place, never deleted and recreated.
    """
    try:
        names = os.listdir(out_dir)
    except OSError as exc:
        raise OutputError(f"cannot list {out_dir}: {exc}") from exc
    keep = {path.name for path in written}
    for pattern in patterns:
        for name in fnmatch.filter(names, pattern):
            if name in keep:
                continue
            path = os.path.join(out_dir, name)
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise OutputError(f"cannot remove {path}: {exc}") from exc


def ensure_out_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise OutputError(f"output directory {out} is not writable")
    return out
