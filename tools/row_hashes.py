"""Row hashes of the perfbench workloads, to show that a change keeps results.

Usage, from the root of a checkout::

    python3 tools/row_hashes.py                  # seeds 7 and 11
    python3 tools/row_hashes.py --seeds 7 --smoke
    python3 tools/row_hashes.py --rows           # one line per row
    python3 tools/row_hashes.py --config configs/corner_max.json

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--smoke", action="store_true", help="the smoke sizes (small K)")
    parser.add_argument("--rows", action="store_true", help="one line per row, not per grid")
    parser.add_argument("--config", type=Path, help="hash this config's grid, not the workloads")
    args = parser.parse_args(argv)
    if args.config is None:
        grids = {name: lambda seed, name=name: config_dict(name, seed, args.smoke)
                 for name in WORKLOADS}
    else:
        base = json.loads(args.config.read_text(encoding="utf-8"))
        base["replicates"] = 2
        if args.smoke:
            base.update(SMOKE)
        grids = {args.config.stem: lambda seed: dict(base, master_seed=seed)}
    for name, grid in grids.items():
        for seed in args.seeds:
            config = ExperimentConfig.from_dict(grid(seed))
            rows = run_experiment(config)
            lines = csv_lines(rows)
            if args.rows:
                for row, line in zip(rows, lines[1:]):
                    print(f"{name} seed={seed} sampler={row['sampler']} N={row['N']} "
                          f"replicate={row['replicate']} sha256={sha256(line)}", flush=True)
            else:
                digest = sha256("\n".join(lines))
                print(f"{name} seed={seed} rows={len(rows)} sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
