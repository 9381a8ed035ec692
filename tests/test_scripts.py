"""The example scripts under ``scripts/`` run end to end on tiny arguments."""

import subprocess
import sys
from pathlib import Path

from rirshape.kvtext import load_kv
from conftest import fresh_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=fresh_env(),
                          capture_output=True, text=True, timeout=300, check=False)


def test_make_demo_dataset(tmp_path):
    done = run_script("make_demo_dataset.py", "--out-dir", "demo", "--entries", "4",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    summary = load_kv(tmp_path / "demo" / "examples" / "summary.txt")
    assert (summary["entries"], summary["failed"]) == ("4", "0")
    assert "failed=0" in done.stdout.splitlines()


def test_room_shrinking_sweep(tmp_path):
    done = run_script("room_shrinking_sweep.py", "--seeds", "1", "--rt60s", "0.3",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("worst deviation: ")
