"""The demos run clean: exit 0, nothing on stderr, and no RuntimeWarning
(numpy's overflow and invalid-arithmetic reports are made errors)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cbindex

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-4]_*.py"))


def test_the_four_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    src = str(Path(cbindex.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
