import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "row_hashes.py"
WORKLOADS = ("hd-borehole", "checkmark3-grid", "relu-density")


def run_row_hashes(*flags) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_smoke_hashes_repeat():
    first = run_row_hashes()
    lines = first.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [name, f"seed={seed}"] for name in WORKLOADS for seed in (7, 11)
    ]
    assert all(len(line.rpartition(" sha256=")[2]) == 64 for line in lines)
    assert run_row_hashes() == first


def test_smoke_row_hashes_repeat_one_line_per_cell():
    first = run_row_hashes("--rows")
    lines = first.splitlines()
    # samplers x N values of each workload, one replicate, at seeds 7 and 11
    cells = {"hd-borehole": 3 * 2, "checkmark3-grid": 4 * 4, "relu-density": 3 * 2}
    keys = [tuple(line.split()[:5]) for line in lines]
    assert len(set(keys)) == len(keys) == 2 * sum(cells.values())
    for name in WORKLOADS:
        for seed in (7, 11):
            assert sum(k[:2] == (name, f"seed={seed}") for k in keys) == cells[name]
    assert all(k[4] == "replicate=0" for k in keys)
    assert all(len(line.rpartition(" sha256=")[2]) == 64 for line in lines)
    assert run_row_hashes("--rows") == first
