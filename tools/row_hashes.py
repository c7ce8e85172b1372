"""Row hashes of the perfbench workloads, to show that a change keeps results.

Usage, from the root of a checkout::

    python3 tools/row_hashes.py                  # seeds 7 and 11
    python3 tools/row_hashes.py --seeds 7 --smoke
    python3 tools/row_hashes.py --rows           # one line per row
    python3 tools/row_hashes.py --config configs/corner_max.json
    python3 tools/row_hashes.py --dump > new.csv  # the rows themselves
    python3 tools/row_hashes.py --compare old.csv new.csv

For each workload of ``perfbench/workloads.py`` and each seed it runs the
workload's grid (at the workload's own ``workers``) with the ``gradfeat`` in
the ``src/`` of the checkout that holds this script, and prints one line: the
row count and the sha256 of the results CSV that ``write_results_csv`` writes,
without its ``wall_ms`` column.  Equal lines at two commits mean equal rows.
To hash an older commit, copy this script into its checkout and run it there.
``--smoke`` runs the smoke sizes of ``perfbench/smoke.py`` instead.
``--rows`` prints one line per row instead: workload, seed, sampler, N,
replicate and the sha256 of that row's CSV line without ``wall_ms``, so that
``diff`` of the output at two commits names the rows that moved.
``--config PATH`` hashes the grid of that experiment config instead, named
by the file's stem, with ``replicates`` 2 and the master seed set to each of
``--seeds``; ``--smoke`` puts the smoke ``K`` and ``test_size`` on it.
``--dump`` prints the rows themselves instead, as one CSV: the columns
``grid`` and ``seed``, then those of the results CSV without ``wall_ms``.
``--compare OLD NEW`` reads two such dumps, runs nothing, and prints how many
rows moved, the largest relative change of ``train_rmse``, ``val_rmse`` and
``test_rmse``, and every row whose ``alpha``, ``status``, ``accept_rate`` or
``N`` differs.  The i-th row of a grid and seed in OLD is compared with the
i-th in NEW, and a grid or seed that only one of them has is named.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gradfeat.cli import CSV_COLUMNS, ExperimentConfig, run_experiment, write_results_csv  # noqa: E402
from workloads import SMOKE, WORKLOADS, config_dict  # noqa: E402


def csv_lines(rows: list) -> list:
    """The lines of the results CSV of ``rows``, header first, with the
    ``wall_ms`` column removed."""
    skip = CSV_COLUMNS.index("wall_ms")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_results_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
    return [",".join(f for i, f in enumerate(line.split(",")) if i != skip) for line in lines]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


RMSE_COLUMNS = ("train_rmse", "val_rmse", "test_rmse")
DECISION_COLUMNS = ("alpha", "status", "accept_rate", "N")


def read_dump(path: Path) -> dict:
    """The rows of a ``--dump`` file, as lists of dicts keyed by ``(grid, seed)``."""
    grids = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            grids.setdefault((row["grid"], row["seed"]), []).append(row)
    return grids


def relative_change(old: str, new: str) -> float:
    """``|new - old| / |old|`` of two CSV fields; 0 when both are equal (also
    both empty), ``inf`` when only one is empty or ``old`` is 0."""
    if old == new:
        return 0.0
    if not old or not new:
        return math.inf
    a, b = float(old), float(new)
    return abs(b - a) / abs(a) if a else math.inf


def compare(old_path: Path, new_path: Path) -> list:
    """The report lines of ``--compare``."""
    old, new = read_dump(old_path), read_dump(new_path)
    lines, moved, total = [], 0, 0
    worst = {c: (0.0, None) for c in RMSE_COLUMNS}
    for key in sorted(old.keys() | new.keys()):
        name = f"{key[0]} seed={key[1]}"
        if key not in old or key not in new:
            lines.append(f"{name}: only in {'NEW' if key in new else 'OLD'}")
            continue
        if len(old[key]) != len(new[key]):
            lines.append(f"{name}: {len(old[key])} rows in OLD, {len(new[key])} in NEW")
        for a, b in zip(old[key], new[key]):
            total += 1
            moved += a != b
            cell = f"{name} sampler={b['sampler']} N={b['N']} replicate={b['replicate']}"
            for c in RMSE_COLUMNS:
                change = relative_change(a[c], b[c])
                if change > worst[c][0]:
                    worst[c] = (change, cell)
            for c in DECISION_COLUMNS:
                if a[c] != b[c]:
                    lines.append(f"{cell}: {c} {a[c]} -> {b[c]}")
    head = [f"rows compared {total}, moved {moved}"]
    head += [f"largest relative change {c} {change:.3g}" + (f" at {cell}" if cell else "")
             for c, (change, cell) in worst.items()]
    return head + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--smoke", action="store_true", help="the smoke sizes (small K)")
    parser.add_argument("--rows", action="store_true", help="one line per row, not per grid")
    parser.add_argument("--config", type=Path, help="hash this config's grid, not the workloads")
    parser.add_argument("--dump", action="store_true", help="print the rows, not their hashes")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --dump files and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.config is None:
        grids = {name: lambda seed, name=name: config_dict(name, seed, args.smoke)
                 for name in WORKLOADS}
    else:
        base = json.loads(args.config.read_text(encoding="utf-8"))
        base["replicates"] = 2
        if args.smoke:
            base.update(SMOKE)
        grids = {args.config.stem: lambda seed: dict(base, master_seed=seed)}
    if args.dump:
        print("grid,seed," + csv_lines([])[0])
    for name, grid in grids.items():
        for seed in args.seeds:
            config = ExperimentConfig.from_dict(grid(seed))
            rows = run_experiment(config)
            lines = csv_lines(rows)
            if args.dump:
                for line in lines[1:]:
                    print(f"{name},{seed},{line}", flush=True)
            elif args.rows:
                for row, line in zip(rows, lines[1:]):
                    print(f"{name} seed={seed} sampler={row['sampler']} N={row['N']} "
                          f"replicate={row['replicate']} sha256={sha256(line)}", flush=True)
            else:
                digest = sha256("\n".join(lines))
                print(f"{name} seed={seed} rows={len(rows)} sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
