"""perfbench's child process still runs against this source tree.

``perfbench/child.py`` imports gradfeat's functions by name and rebinds them
to trace a replay, so a renamed function or a changed signature breaks the
benchmark although no gradfeat test sees it.  Each workload of
``BENCHMARK.json`` runs its ``setup`` and ``replay`` modes at smoke sizes, each
in a fresh process from the checkout root, as ``perfbench/run.py`` starts them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("mode", ["setup", "replay"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_runs_at_smoke_size(tmp_path, workload, mode):
    params = {"workload": workload, "seed": 1, "smoke": True, "out_dir": str(tmp_path)}
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", mode, json.dumps(params)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=pythonpath),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads(proc.stdout.strip().splitlines()[-1]), dict)
