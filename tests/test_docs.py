"""The README's library snippet and the demos run against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = _run(["-c", snippet])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = _run([str(demo)])
    assert result.returncode == 0, result.stderr
