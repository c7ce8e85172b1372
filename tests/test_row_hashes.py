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


DUMP_HEADER = ("grid,seed,benchmark,d,sampler,N,replicate,alpha,train_rmse,val_rmse,"
               "test_rmse,accept_rate,status")


def write_dump(path, rows):
    path.write_text("\n".join([DUMP_HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def run_compare(old, new) -> list:
    done = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_config_dump_compares_equal_to_itself(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "benchmark": "gauss1d", "d": 1, "K": 1000, "sampling": "grid",
        "samplers": ["uniform", {"kind": "residual"}], "n_grid": [8, 16],
        "output_dir": str(tmp_path / "out"),
    }))
    dump = tmp_path / "dump.csv"
    dump.write_text(run_row_hashes("--dump", "--config", str(config), "--seeds", "3"))
    lines = dump.read_text().splitlines()
    assert lines[0] == DUMP_HEADER
    # samplers x N values x the 2 replicates the script sets, without wall_ms
    assert len(lines) == 1 + 8
    assert all(line.startswith("tiny,3,gauss1d,1,") and line.count(",") == 12 for line in lines[1:])
    assert run_compare(dump, dump)[0] == "rows compared 8, moved 0"


def test_compare_counts_moved_rows_and_names_changed_decisions(tmp_path):
    old = write_dump(tmp_path / "old.csv", [
        "g,7,gauss1d,1,uniform,8,0,1e-06,0.5,0.6,0.7,,ok",
        "g,7,gauss1d,1,local-gradient,8,0,1e-06,0.25,0.5,0.5,,ok",
        "g,7,gauss1d,1,integral-density,16,0,0.001,1.0,2.0,4.0,0.5,ok",
        "g,7,gauss1d,1,residual,16,0,,,,,,failed",
        "h,11,gauss1d,1,uniform,8,0,1e-06,0.5,0.6,0.7,,ok",
    ])
    new = write_dump(tmp_path / "new.csv", [
        "g,7,gauss1d,1,uniform,8,0,1e-06,0.5,0.6,0.7,,ok",
        "g,7,gauss1d,1,local-gradient,8,0,1e-06,0.2500001,0.5,0.5000000002,,ok",
        "g,7,gauss1d,1,integral-density,32,0,0.0001,1.0,2.5,4.0,0.25,ok",
        "g,7,gauss1d,1,residual,16,0,1e-06,0.5,0.5,0.5,,ok",
        "k,3,gauss1d,1,uniform,8,0,1e-06,0.5,0.6,0.7,,ok",
    ])
    assert run_compare(old, new) == [
        "rows compared 4, moved 3",
        "largest relative change train_rmse inf at g seed=7 sampler=residual N=16 replicate=0",
        "largest relative change val_rmse inf at g seed=7 sampler=residual N=16 replicate=0",
        "largest relative change test_rmse inf at g seed=7 sampler=residual N=16 replicate=0",
        "g seed=7 sampler=integral-density N=32 replicate=0: alpha 0.001 -> 0.0001",
        "g seed=7 sampler=integral-density N=32 replicate=0: accept_rate 0.5 -> 0.25",
        "g seed=7 sampler=integral-density N=32 replicate=0: N 16 -> 32",
        "g seed=7 sampler=residual N=16 replicate=0: alpha  -> 1e-06",
        "g seed=7 sampler=residual N=16 replicate=0: status failed -> ok",
        "h seed=11: only in OLD",
        "k seed=3: only in NEW",
    ]


def test_compare_gives_the_largest_relative_rmse_change(tmp_path):
    old = write_dump(tmp_path / "old.csv", [
        "g,7,gauss1d,1,uniform,8,0,1e-06,0.5,0.6,0.7,,ok",
        "g,7,gauss1d,1,local-gradient,8,0,1e-06,0.25,0.5,0.5,,ok",
        "g,7,gauss1d,1,local-gradient,16,0,1e-06,0.25,0.5,0.5,,ok",
    ])
    new = write_dump(tmp_path / "new.csv", [
        "g,7,gauss1d,1,uniform,8,0,1e-06,0.5,0.6,0.7,,ok",
        "g,7,gauss1d,1,local-gradient,8,0,1e-06,0.2500001,0.5,0.5000000002,,ok",
        "g,7,gauss1d,1,local-gradient,16,0,1e-06,0.25000001,0.5,0.5,,ok",
        "g,7,gauss1d,1,residual,16,0,1e-06,0.5,0.5,0.5,,ok",
    ])
    assert run_compare(old, new) == [
        "rows compared 3, moved 2",
        "largest relative change train_rmse 4e-07 at g seed=7 sampler=local-gradient N=8 replicate=0",
        "largest relative change val_rmse 0",
        "largest relative change test_rmse 4e-10 at g seed=7 sampler=local-gradient N=8 replicate=0",
        "g seed=7: 3 rows in OLD, 4 in NEW",
    ]
