"""Sampler-grid benchmark for gradfeat.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hd-borehole --seed 7 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the median
wall time of ``gradfeat.cli.run_experiment`` over grids run one per fresh
process within ``--seconds`` (at least two), the median peak RSS of those
processes, and the set-up time of a fresh process (median of several).  It also prints, outside the
result, the geometric mean over (sampler, N) groups of the median test RMSE.

``--trace 1`` gives the per-layer metrics: for the inherited BLAS setting and
again with one BLAS thread (suffix ``.blas1``) it times the grid untraced, then
reruns it serially with a span around each layer call.  The result holds the
per-layer metrics that every workload has; the ones only some workloads have
(per-sampler draw times, psi table, rejection and residual counters, parallel
speed-up) are printed as ``detail`` lines.  Spans, the replay's results and
``detail.json`` are written under ``.perfbench/<workload>-seed<seed>/``.

Both modes check the outputs: every cell ``ok`` with finite fields, repeated
grids and the traced replay bit-identical to the first grid, and the
workload's sampler orderings at the top N.  Human-readable lines come first;
the last line of standard output is the JSON result, and the exit code is 3
when a check fails.  ``--smoke`` runs the same samplers and N grid on a small
K (orderings not checked).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYER_UNITS, unit
from workloads import ORDERINGS, WORKLOADS

SETUP_RUNS = 5
MIN_GRID_RUNS = 2
TIME_LIMIT_S = 170.0
BLAS1 = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "grid_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, for both BLAS settings."""
    return {name + suffix: u for name, u in LAYER_UNITS.items() for suffix in ("", ".blas1")}


class BenchError(RuntimeError):
    """A child process failed; no result can be reported."""


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    var = next((v for v in BLAS_THREAD_VARS if os.environ.get(v)), None)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = dirty = None
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ[var]) if var else os.cpu_count(),
        "blas_threads_from": var or "default (one per core)",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


class Runner:
    """Starts child measurements from the checkout root within one time limit."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.base = {"workload": workload, "seed": seed, "smoke": smoke}
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def child(self, mode: str, extra_env=None, **params) -> tuple[dict, float]:
        """Run ``child.py mode`` in a fresh process; returns (result, wall seconds)."""
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"), mode,
               json.dumps(dict(self.base, **params))]
        env = dict(self.env, **(extra_env or {}))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} did not finish within the time limit") from exc
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def _cell(row) -> tuple:
    return (row["sampler"], row["N"], row["replicate"])


def _outputs(row) -> tuple:
    return (row["status"], row["alpha"], row["test_rmse"])


def _finite(row) -> bool:
    values = [row[k] for k in ("alpha", "train_rmse", "val_rmse", "test_rmse")]
    if row.get("accept_rate") is not None:
        values.append(row["accept_rate"])
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def ordering_failures(workload: str, summary: list, smoke: bool) -> tuple[set, list]:
    """Cells of the first sampler of every violated ordering, and messages."""
    if smoke:
        return set(), []
    med = {(s["sampler"], s["N"]): s["median_test_rmse"] for s in summary}
    top = max(s["N"] for s in summary)
    bad, msgs = set(), []
    for better, worse in ORDERINGS[workload]:
        a, b = med.get((better, top)), med.get((worse, top))
        if a is None or b is None or not a < b:
            bad.add((better, top))
            msgs.append(f"ordering {better} < {worse} at N={top} fails: {a} vs {b}")
    return bad, msgs


def count_failures(runs: list, reference: list, bad_groups: set) -> tuple[int, int]:
    """(attempted, failed) cells: status, finiteness, agreement with ``reference``."""
    ref = {_cell(r): _outputs(r) for r in reference}
    attempted = failed = 0
    for rows in runs:
        attempted += len(ref)
        seen = {_cell(r): r for r in rows}
        for cell, expected in ref.items():
            row = seen.get(cell)
            failed += (
                row is None
                or row["status"] != "ok"
                or not _finite(row)
                or _outputs(row) != expected
                or cell[:2] in bad_groups
            )
    return attempted, failed


def grid_runs(runner: Runner, seconds: int) -> list:
    """Untraced grids, each in a fresh process: at least ``MIN_GRID_RUNS``, and
    another only while it should end within ``seconds`` of the first start."""
    start = time.monotonic()
    grids, walls = [], []
    while len(grids) < MIN_GRID_RUNS or (
        time.monotonic() - start + statistics.median(walls) <= seconds
    ):
        grid, wall = runner.child("grid")
        grids.append(grid)
        walls.append(wall)
    return grids


def untraced(runner: Runner, seconds: int) -> tuple[dict, int, int, list]:
    # Half the set-up runs go after the grids, so that they sample the host
    # over the whole run rather than over its first seconds.
    setup = [runner.child("setup")[1] for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    grids = grid_runs(runner, seconds)
    setup = sorted(setup + [runner.child("setup")[1] for _ in range(SETUP_RUNS // 2)])
    bad, msgs = ordering_failures(runner.base["workload"], grids[0]["summary"], runner.base["smoke"])
    runs = [g["rows"] for g in grids]
    attempted, failed = count_failures(runs, runs[0], bad)
    times = [g["grid_s"] for g in grids]
    rss = [g["peak_rss_mb"] for g in grids]
    metrics = {
        "grid_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"grid_s runs={len(times)} min={min(times):.4f} max={max(times):.4f} s")
    print(f"setup_s runs={len(setup)} min={setup[0]:.4f} max={setup[-1]:.4f} s")
    print(f"peak_rss_mb runs={len(rss)} min={min(rss):.1f} max={max(rss):.1f} MB")
    # Accuracy is printed but not a bounded metric: on relu-density it varies
    # with the seed by more than any allowed bound (see README.md).
    medians = [s["median_test_rmse"] for s in grids[0]["summary"]]
    if all(medians):
        gmean = math.exp(statistics.fmean(math.log(v) for v in medians))
        print(f"test_rmse_gmean {gmean:.6g} rmse over {len(medians)} (sampler, N) groups")
    return metrics, attempted, failed, msgs


def traced(runner: Runner) -> tuple[dict, int, int, list]:
    workload, seed, smoke = (runner.base[k] for k in ("workload", "seed", "smoke"))
    parallel = WORKLOADS[workload]["workers"] > 1
    out_dir = Path(".perfbench") / f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
    metrics, detail, attempted, failed, msgs = {}, {}, 0, 0, []
    for suffix, extra_env in (("", None), (".blas1", BLAS1)):
        grid, _ = runner.child("grid", extra_env)
        serial = runner.child("grid", extra_env, overrides={"workers": 1})[0] if parallel else grid
        replay, _ = runner.child("replay", extra_env, out_dir=str(out_dir), suffix=suffix)
        bad, ordering_msgs = ordering_failures(workload, grid["summary"], smoke)
        reference = grid["rows"]
        runs = [grid["rows"]] + ([serial["rows"]] if parallel else [])
        a, f = count_failures(runs, reference, bad)
        replay_a, replay_f = count_failures([replay["rows"]], reference, set())
        attempted, failed = attempted + a + replay_a, failed + f + replay_f
        if replay_f:
            msgs.append(f"traced replay{suffix}: {replay_f} cells differ from the grid")
        msgs += ordering_msgs
        grid_s, serial_s = grid["grid_s"], serial["grid_s"]
        layer = dict(replay["metrics"], **{"cli.trace_overhead": replay["replay_s"] / serial_s})
        extra = dict(replay["detail"])
        if parallel:
            extra["cli.parallel_speedup"] = serial_s / grid_s
        metrics.update({name + suffix: value for name, value in layer.items()})
        detail.update({name + suffix: value for name, value in extra.items()})
        print(f"trace{suffix or ' inherited'}: grid_s={grid_s:.4f} serial_grid_s={serial_s:.4f} "
              f"replay_s={replay['replay_s']:.4f}")
    detail = {name: {"value": value, "unit": unit(name)} for name, value in detail.items()}
    (out_dir / "detail.json").write_text(json.dumps(detail, indent=1))
    for name, m in detail.items():
        print(f"detail {name} {m['value']:.6g} {m['unit']}")
    print(f"spans, replay results and detail.json in {out_dir}")
    return metrics, attempted, failed, msgs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small K; orderings not checked")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "gradfeat" / "__init__.py").is_file():
        print(f"no gradfeat sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.smoke)
    print("env " + json.dumps(environment(root)))
    try:
        if args.trace:
            metrics, attempted, failed, msgs = traced(runner)
            units = per_layer_units()
        else:
            metrics, attempted, failed, msgs = untraced(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} cells)")
    for msg in msgs:
        print(f"CHECK FAILED: {msg}")
    result = {
        "correct": failed == 0 and not msgs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
