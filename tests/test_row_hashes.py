import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "row_hashes.py"


def run_row_hashes() -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_smoke_hashes_repeat():
    first = run_row_hashes()
    lines = first.splitlines()
    workloads = ("hd-borehole", "checkmark3-grid", "relu-density")
    assert [line.split()[:2] for line in lines] == [
        [name, f"seed={seed}"] for name in workloads for seed in (7, 11)
    ]
    assert all(len(line.rpartition(" sha256=")[2]) == 64 for line in lines)
    assert run_row_hashes() == first
