"""Smoke run of the benchmark harness on small grids.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --smoke`` with
tracing off and on, and checks that the result is correct and that exactly the
declared end-to-end or per-layer metrics are emitted, each with its declared
unit and a finite value.  For the traced run it also checks that
``detail.json`` holds exactly the workload's own detail metrics: a draw time
per sampler label and N, plus ``EXTRA_DETAIL``.  It then checks that the harness refuses to run
(non-zero exit, no result line) in a directory holding only ``BENCHMARK.json``
and the benchmark's own files.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import config_dict  # noqa: E402

# Detail metrics besides the draw times, by workload: the work they measure
# occurs only there.
EXTRA_DETAIL = {
    "hd-borehole": [],
    "checkmark3-grid": [
        "samplers.residual.inner_fits",
        "samplers.residual.inner_fit_ms",
        "samplers.residual.self_ms",
        "cli.parallel_speedup",
    ],
    "relu-density": [
        "activation.make_psi_table_ms",
        "activation.psi_table_points",
        "samplers.integral-density.accept_rate",
        "samplers.integral-density.proposals",
        "samplers.integral-density.envelope_restarts",
    ],
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_metrics(workload: str, trace: int, declared: list) -> list:
    proc = run_bench(Path.cwd(), workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        errors.append("result not correct")
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(expected) | set(got)):
        if expected.get(name) != got.get(name):
            errors.append(f"{name}: declared unit {expected.get(name)}, emitted {got.get(name)}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name}: value {m['value']!r}")
    if trace:
        errors += check_detail(workload)
    return [f"{workload} trace={trace}: {e}" for e in errors]


def check_detail(workload: str) -> list:
    from gradfeat.cli import ExperimentConfig, parse_sampler_entry

    config = ExperimentConfig.from_dict(config_dict(workload, 1, smoke=True))
    labels = [parse_sampler_entry(e, config).label for e in config.samplers]
    names = [f"samplers.draw_ms.{lb}.n{n}" for lb in labels for n in config.n_grid]
    names += EXTRA_DETAIL[workload]
    expected = {name + suffix for name in names for suffix in ("", ".blas1")}
    path = Path(".perfbench") / f"{workload}-seed1-smoke" / "detail.json"
    got = json.loads(path.read_text())
    errors = [f"detail {name} missing" for name in sorted(expected - set(got))]
    errors += [f"detail {name} not expected" for name in sorted(set(got) - expected)]
    for name, m in got.items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) and m["unit"]):
            errors.append(f"detail {name}: {m!r}")
    return errors


def check_refuses_bare_directory(workload: str) -> list:
    scratch = Path(".perfbench")
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, workload, 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["bare directory: the harness did not refuse to run"]
    return []


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errors += check_metrics(workload, trace, spec[key])
            print(f"{workload} trace={trace} checked", flush=True)
    errors += check_refuses_bare_directory(spec["workloads"][0]["name"])
    for err in errors:
        print(f"SMOKE FAILED: {err}")
    print("smoke ok" if not errors else f"{len(errors)} smoke failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
