"""Module layout guards: one home for the seed streams, epoch streams read by
index, one home for the provenance header and for deleting outputs, a light
config import, every function the benchmark traces still defined, and no
public name that only tests use."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_config_does_not_import_harness():
    code = "import sys, pcmxbar.config; print('pcmxbar.harness' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_seed_streams_derived_in_one_module():
    owners = sorted(
        path.name
        for path in (SRC / "pcmxbar").glob("*.py")
        if "SeedSequence(" in path.read_text()
    )
    assert owners == ["calibrated.py"]


def test_epoch_streams_read_by_index():
    # every epoch stream is read by (seed, index) in calibrated; no module spawns one
    spawners = sorted(
        path.name for path in (SRC / "pcmxbar").glob("*.py") if ".spawn(" in path.read_text()
    )
    assert spawners == []


def test_provenance_header_built_in_one_module():
    owners = sorted(
        path.name
        for path in (SRC / "pcmxbar").glob("*.py")
        if '"params_hash"' in path.read_text()
    )
    assert owners == ["harness.py"]


def test_outputs_deleted_in_one_module():
    # _io.remove_stale is the one rule for which earlier outputs go
    owners = sorted(
        path.name
        for path in (SRC / "pcmxbar").glob("*.py")
        if any(call in path.read_text() for call in ("os.unlink", ".unlink(", "os.remove("))
    )
    assert owners == ["_io.py"]


def test_benchmark_call_targets_are_defined():
    # the benchmark's tracer silently drops the metrics of a target the
    # package no longer defines, which leaves its result line malformed
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    targets = [m["name"][: -len(".calls")] for m in layers if m["name"].endswith(".calls")]
    assert len(targets) == 21
    for target in targets:
        module, fn = target.split(".")
        package_module = importlib.import_module(f"pcmxbar.{'_io' if module == 'io' else module}")
        assert callable(getattr(package_module, fn, None)), target


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _referenced(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names ``tree`` loads, reads as attributes or imports, outside a definition of ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_public_names_have_a_caller_outside_tests():
    # an exported name that only its own tests reach is surface to delete
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "pcmxbar").glob("*.py")}
    docs = [ROOT / "README.md", *(ROOT / "demos").rglob("*"), *(ROOT / "bench").rglob("*")]
    outside = "\n".join(path.read_text() for path in docs if path.suffix in (".py", ".md"))
    unused = []
    for module, tree in sorted(trees.items()):
        others = set().union(*(_referenced(t) for m, t in trees.items() if m != module))
        for name in _exported(tree):
            if name in others or name in _referenced(tree, skip=name):
                continue
            if not re.search(rf"\b{re.escape(name)}\b", outside):
                unused.append(f"{module}.{name}")
    assert unused == []
