"""The documented examples run: every script in ``demos/`` and README's
Quick start block, each in a fresh interpreter, must exit 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start() -> str:
    """The first Python block under README's "Quick start" heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


@pytest.mark.parametrize(
    "argv", [[str(path)] for path in DEMOS] + [["-c", quick_start()]],
    ids=[path.stem for path in DEMOS] + ["readme_quick_start"],
)
def test_documented_example_exits_0(argv, tmp_path):
    # run from an empty directory, with temporary files kept under it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
