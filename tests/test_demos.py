"""Smoke test: every narrative demo runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)  # demo 05 replays into a fresh temp dir
    return subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    proc = run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if path.stem == "04_corroborative_labeling":
        assert re.search(r"austin-politics\s+-> label 0 from news-election", proc.stdout)
    if path.stem == "05_end_to_end_replay":
        assert "knowledgebase:" in proc.stdout
        assert not list(tmp_path.glob("driftstream-demo-*"))
