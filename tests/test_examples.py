"""Every example runs: each ``examples/*.py`` exits 0 in a fresh process."""

import glob
import os
import subprocess
import sys

import pytest

import repro

from .conftest import EXAMPLES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(EXAMPLES, "*.py"))), ids=os.path.basename)
def test_example_exits_zero(path, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
