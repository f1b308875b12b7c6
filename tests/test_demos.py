"""Every demo script runs to completion (exit 0) against the package in src/."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0(path, tmp_path):
    # cwd and TMPDIR keep whatever a demo writes (06 calls mkdtemp) in tmp_path
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_demo_03_freezes_only_with_the_flag(tmp_path):
    # without --freeze the threshold is 0, so the sphere (frozen at t ~ 1.37
    # at the metric's mass) runs to t_max unfrozen
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    path = os.path.join(ROOT, "demos", "03_levelset_vs_ode.py")
    outputs = {}
    for flags in ((), ("--freeze",)):
        done = subprocess.run(
            [sys.executable, path, "--t-max", "1.5", *flags],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        outputs[flags] = done.stdout
    assert "all components frozen at" not in outputs[()]
    assert "all components frozen at" in outputs[("--freeze",)]
