"""Every demo script runs to exit 0 against the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # TMPDIR keeps the scratch directory a demo makes with mkdtemp inside
    # the test's own directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_every_demo_is_collected():
    assert [demo.stem[:2] for demo in DEMOS] == [f"{i:02d}" for i in range(1, 8)]
