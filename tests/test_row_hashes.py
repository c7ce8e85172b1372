import json
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


def test_config_hashes_repeat_one_line_per_seed(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "benchmark": "gauss1d", "d": 1, "K": 1000, "sampling": "grid",
        "samplers": ["uniform", {"kind": "residual"}], "n_grid": [8, 16],
        "replicates": 20, "output_dir": str(tmp_path / "out"),
    }))
    first = run_row_hashes("--config", str(config), "--seeds", "3", "5")
    lines = first.splitlines()
    # samplers x N values x the 2 replicates the script sets
    assert [line.split()[:3] for line in lines] == [
        ["tiny", f"seed={seed}", "rows=8"] for seed in (3, 5)
    ]
    assert all(len(line.rpartition(" sha256=")[2]) == 64 for line in lines)
    assert lines[0].rpartition(" ")[2] != lines[1].rpartition(" ")[2]
    assert run_row_hashes("--config", str(config), "--seeds", "3", "5") == first
