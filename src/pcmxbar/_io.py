"""Shared deterministic file writers.

Every output file is reproducible byte for byte: no timestamps, fixed float
formats, sorted JSON keys, LF line endings.

A CSV row is formatted by one ``%``-format, built once per tuple of cell
types and float format and then cached: ``%d`` for a bool, the float format
for any float (``np.float64`` included), ``%s`` (that is, ``str``) for
anything else. It gives the same text as formatting each cell on its own.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

from .errors import OutputError


def provenance_lines(provenance: dict | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={provenance[key]}" for key in provenance]


@functools.lru_cache(maxsize=256)
def _row_format(types: tuple, float_fmt: str) -> str:
    return ",".join(
        "%d" if t is bool else float_fmt if issubclass(t, float) else "%s"
        for t in types
    )


def write_csv(path, header, rows, provenance=None, float_fmt: str = "%.10g") -> None:
    """Write one CSV: '#' provenance comments, a header row, then data rows."""
    path = Path(path)
    lines = provenance_lines(provenance)
    lines.append(",".join(header))
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row)), float_fmt) % row)
    _write_text(path, "\n".join(lines) + "\n")


def write_map_csv(path, matrix, provenance=None) -> None:
    """Write a resistance map: one row per wordline, 6 significant digits."""
    header = ["wordline"] + [f"bitline_{b}" for b in range(1, matrix.shape[1] + 1)]
    rows = [[w, *row] for w, row in enumerate(matrix.tolist(), start=1)]
    write_csv(path, header, rows, provenance=provenance, float_fmt="%.6g")


def write_json(path, obj, provenance=None) -> None:
    """Write strict JSON; a NaN or infinity raises OutputError, never a bare token."""
    if provenance:
        obj = {"provenance": dict(provenance), **obj}
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    _write_text(Path(path), text + "\n")


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def ensure_out_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise OutputError(f"output directory {out} is not writable")
    return out
