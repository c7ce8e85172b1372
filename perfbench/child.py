"""One measurement in a fresh process: set-up, an untraced grid, or a traced replay.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py setup  '{"workload": "hd-borehole", "seed": 1}'
    python3 perfbench/child.py grid   '{"workload": ..., "seed": ...}'
    python3 perfbench/child.py replay '{"workload": ..., "seed": ..., "out_dir": ".perfbench/x"}'

Optional keys: ``"smoke": true`` (reduced grid), ``"overrides": {...}``
(config fields, e.g. ``{"workers": 1}``) and, for ``replay``, ``"suffix"``
(appended to the names of the files it writes).  The last line of standard
output is one JSON object.

``grid`` times one ``gradfeat.cli.run_experiment`` with tracing off and
reports the process's peak RSS.
``replay`` runs the same ``run_experiment`` serially with every function of
``SPANNED`` wrapped to record one span per call (see ``Tracer``).  It touches
nothing in the package; it only rebinds module attributes for the lifetime of
the process.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import config_dict

# Functions of each layer that get one span per call in the traced replay.
SPANNED = {
    "benchmarks": ("make_benchmark", "generate_dataset"),
    "activation": ("make_psi_table", "eval_activation", "eval_psi"),
    "samplers": ("draw",),
    "regression": ("cross_validate", "feature_matrix", "eval_model"),
    "cli": ("_run_cell", "write_results_csv", "summarize"),
}
LAYERS = tuple(SPANNED)
MODULES = LAYERS + ("geometry", "kernels")

# Per-layer metrics whose work occurs on every workload; the traced run
# reports each of them, with the unit given here.
LAYER_UNITS = {
    "benchmarks.make_benchmark_ms": "ms",
    "benchmarks.generate_dataset_ms": "ms",
    "samplers.draw_ms.nmin": "ms",
    "samplers.draw_ms.nmax": "ms",
    "samplers.draw_ms.nonlocal.nmin": "ms",
    "samplers.draw_ms.nonlocal.nmax": "ms",
    "regression.feature_matrix_ms": "ms",
    "regression.cross_validate_ms": "ms",
    "regression.alpha_solves": "count",
    "regression.eval_model_ms": "ms",
    "regression.alpha_at_edge_frac": "ratio",
    "cli.cell_ms_p50": "ms",
    "cli.cell_ms_p90": "ms",
    "cli.cell_samples": "count",
    "cli.write_results_csv_ms": "ms",
    "cli.summarize_ms": "ms",
    "cli.trace_overhead": "ratio",
    **{f"{layer}.{kind}": "ms" for layer in LAYERS for kind in ("span_ms", "self_ms")},
}

# Metrics whose work occurs only on some workloads.  They are printed and
# written to detail.json, not reported in the result.
DETAIL_UNITS = {
    "activation.make_psi_table_ms": "ms",
    "activation.psi_table_points": "count",
    "samplers.integral-density.accept_rate": "ratio",
    "samplers.integral-density.proposals": "count",
    "samplers.integral-density.envelope_restarts": "count",
    "samplers.residual.inner_fits": "count",
    "samplers.residual.inner_fit_ms": "ms",
    "samplers.residual.self_ms": "ms",
    "cli.parallel_speedup": "ratio",
}


def unit(name: str) -> str:
    """Unit of a per-layer or detail metric (``.blas1`` twins included)."""
    base = name.removesuffix(".blas1")
    if base.startswith("samplers.draw_ms.") and base not in LAYER_UNITS:
        return "ms"
    return LAYER_UNITS.get(base) or DETAIL_UNITS[base]


def _load_config(params: dict, **overrides):
    from gradfeat.cli import ExperimentConfig

    data = config_dict(
        params["workload"], params["seed"], params.get("smoke", False),
        **dict(params.get("overrides", {}), **overrides),
    )
    return ExperimentConfig.from_dict(data)


def run_setup(params: dict) -> dict:
    """The grid's own set-up: benchmark, one dataset per replicate, psi table."""
    from gradfeat.activation import make_psi_table
    from gradfeat.benchmarks import generate_dataset, make_benchmark
    from gradfeat.cli import parse_sampler_entry
    from gradfeat.geometry import RngStream

    config = _load_config(params)
    kinds = {parse_sampler_entry(e, config).kind for e in config.samplers}
    bench = make_benchmark(config.benchmark, config.d)
    master = RngStream(config.master_seed)
    for rep in range(config.replicates):
        generate_dataset(
            bench,
            config.K,
            sampling=config.sampling,
            noise_sigma=config.noise_sigma,
            rng=master.child("dataset", config.benchmark, rep).generator(),
            test_size=config.test_size,
            with_hessians="nonlocal-hessian" in kinds,
        )
    if "integral-density" in kinds:
        make_psi_table(config.s - 1, config.d, config.delta, radius=1.0)
    return {}


def run_grid(params: dict) -> dict:
    from gradfeat.cli import run_experiment, summarize

    config = _load_config(params)
    t0 = time.perf_counter()
    rows = run_experiment(config)
    grid_s = time.perf_counter() - t0
    return {
        "grid_s": grid_s,
        "rows": rows,
        "summary": summarize(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class Tracer:
    """In-memory spans: name, start, end, parent span and call attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def spanned(self, fn, name: str, call_attrs=None, result_attrs=None):
        """``fn`` wrapped to record one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = call_attrs(*args, **kwargs) if call_attrs else {}
            with self.span(name, **extra) as rec:
                out = fn(*args, **kwargs)
                if result_attrs:
                    rec.update(result_attrs(out))
                return out

        return traced

    def counted(self, fn, name: str, size=None):
        """``fn`` wrapped to add ``size(...)`` (default 1) to a count per call."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.count(name, size(*args, **kwargs) if size else 1)
            return fn(*args, **kwargs)

        return counting


def rebind(old, new) -> None:
    """Point every gradfeat module attribute that holds ``old`` at ``new``.

    The modules bind each other's functions with from-imports (``cli`` calls
    its own ``draw``, ``regression`` its own ``eval_activation``), so a
    wrapper has to replace every binding to see every call.
    """
    for name in MODULES:
        module = importlib.import_module(f"gradfeat.{name}")
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class _RestartCounter(logging.Handler):
    """Counts the rejection-envelope doublings the samplers module logs."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "envelope violated" in record.getMessage():
            self.tracer.count("samplers.integral-density.envelope_restarts")


CALL_ATTRS = {
    "samplers.draw": lambda spec, ds, n, *a, **k: {"label": spec.label, "n": int(n)},
    "cli._run_cell": lambda config, label, spec, ds, n, rep, *a, **k: {
        "label": label, "n": int(n), "rep": int(rep)
    },
}
RESULT_ATTRS = {
    "activation.make_psi_table": lambda table: {"points": int(table.grid.size)},
}


def _proposal_count(ds, psi, a, *args, **kwargs) -> int:
    return len(a) if getattr(a, "ndim", 1) == 2 else 1


def instrument(tracer: Tracer) -> None:
    """Wrap the functions of ``SPANNED`` and the counted ones everywhere they are bound."""
    for layer, attrs in SPANNED.items():
        module = importlib.import_module(f"gradfeat.{layer}")
        for attr in attrs:
            name = f"{layer}.{attr}"
            fn = getattr(module, attr)
            rebind(fn, tracer.spanned(fn, name, CALL_ATTRS.get(name), RESULT_ATTRS.get(name)))
    regression = importlib.import_module("gradfeat.regression")
    samplers = importlib.import_module("gradfeat.samplers")
    fn = regression.ridge_solve
    rebind(fn, tracer.counted(fn, "regression.alpha_solves"))
    fn = samplers.eval_integral_density
    rebind(fn, tracer.counted(fn, "samplers.integral-density.proposals", _proposal_count))
    logging.getLogger(samplers.__name__).addHandler(_RestartCounter(tracer))


def run_replay(params: dict) -> dict:
    from gradfeat import cli, regression

    config = _load_config(params, workers=1)
    tracer = Tracer()
    instrument(tracer)
    t0 = time.perf_counter()
    rows = cli.run_experiment(config)
    replay_s = time.perf_counter() - t0
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = params.get("suffix", "")
    cli.write_results_csv(rows, out_dir / f"replay_results{suffix}.csv")
    cli.summarize(rows)
    (out_dir / f"spans{suffix}.json").write_text(json.dumps(tracer.spans))
    grid = regression.DEFAULT_ALPHA_GRID if config.alpha_grid is None else config.alpha_grid
    metrics, detail = layer_metrics(tracer, rows, float(min(grid)))
    return {"rows": rows, "replay_s": replay_s, "metrics": metrics, "detail": detail}


def layer_metrics(tracer: Tracer, rows: list, smallest_alpha: float) -> tuple[dict, dict]:
    """Per-layer totals, counts and self times from one replay's spans.

    Returns the metrics of ``LAYER_UNITS`` (all but ``cli.trace_overhead``,
    which needs the untraced grid time) and the detail metrics whose work
    occurred in this replay.
    """
    import numpy as np

    spans = tracer.spans
    ms = [(s["end"] - s["start"]) * 1e3 for s in spans]
    layer = [s["name"].split(".")[0] for s in spans]
    children_ms = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children_ms[s["parent"]] += ms[i]

    def total(name):
        return sum(t for s, t in zip(spans, ms) if s["name"] == name)

    m = {
        "benchmarks.make_benchmark_ms": total("benchmarks.make_benchmark"),
        "benchmarks.generate_dataset_ms": total("benchmarks.generate_dataset"),
    }
    detail = {}
    draws = [(s, t) for s, t in zip(spans, ms) if s["name"] == "samplers.draw"]
    for s, t in draws:
        key = f"samplers.draw_ms.{s['label']}.n{s['n']}"
        detail[key] = detail.get(key, 0.0) + t
    n_min, n_max = min(s["n"] for s, _ in draws), max(s["n"] for s, _ in draws)
    for tag, n in (("nmin", n_min), ("nmax", n_max)):
        m[f"samplers.draw_ms.{tag}"] = sum(t for s, t in draws if s["n"] == n)
        m[f"samplers.draw_ms.nonlocal.{tag}"] = sum(
            t for s, t in draws if s["n"] == n and s["label"].startswith("nonlocal-")
        )
    for name in ("feature_matrix", "cross_validate", "eval_model"):
        m[f"regression.{name}_ms"] = total(f"regression.{name}")
    m["regression.alpha_solves"] = tracer.counts.get("regression.alpha_solves", 0)
    m["regression.alpha_at_edge_frac"] = float(
        np.mean([r["alpha"] == smallest_alpha for r in rows])
    )
    cells = [t for s, t in zip(spans, ms) if s["name"] == "cli._run_cell"]
    m["cli.cell_ms_p50"], m["cli.cell_ms_p90"] = (float(v) for v in np.percentile(cells, [50, 90]))
    m["cli.cell_samples"] = len(cells)
    m["cli.write_results_csv_ms"] = total("cli.write_results_csv")
    m["cli.summarize_ms"] = total("cli.summarize")
    for name in LAYERS:
        m[f"{name}.span_ms"] = sum(
            t for i, t in enumerate(ms)
            if layer[i] == name and (spans[i]["parent"] is None or layer[spans[i]["parent"]] != name)
        )
        m[f"{name}.self_ms"] = sum(
            t - children_ms[i] for i, t in enumerate(ms) if layer[i] == name
        )

    psi = [s for s in spans if s["name"] == "activation.make_psi_table"]
    if psi:
        detail["activation.make_psi_table_ms"] = total("activation.make_psi_table")
        detail["activation.psi_table_points"] = sum(s["points"] for s in psi)
    rates = [r["accept_rate"] for r in rows if r["sampler"] == "integral-density"]
    if rates:
        prefix = "samplers.integral-density."
        detail[prefix + "accept_rate"] = float(np.mean(rates))
        for name in ("proposals", "envelope_restarts"):
            detail[prefix + name] = tracer.counts.get(prefix + name, 0)
    residual = {
        i for i, s in enumerate(spans)
        if s["name"] == "samplers.draw" and s["label"].startswith("residual-")
    }
    if residual:
        inner = [
            t for s, t in zip(spans, ms)
            if s["name"] == "regression.cross_validate" and s["parent"] in residual
        ]
        detail["samplers.residual.inner_fits"] = len(inner)
        detail["samplers.residual.inner_fit_ms"] = sum(inner)
        detail["samplers.residual.self_ms"] = sum(ms[i] for i in residual) - sum(inner)
    return m, detail


def _check_import_root() -> None:
    import gradfeat

    src = (Path.cwd() / "src").resolve()
    if src not in Path(gradfeat.__file__).resolve().parents:
        raise SystemExit(f"gradfeat was imported from {gradfeat.__file__}, not from {src}")


MODES = {"setup": run_setup, "grid": run_grid, "replay": run_replay}

if __name__ == "__main__":
    mode, params = sys.argv[1], json.loads(sys.argv[2])
    _check_import_root()
    print(json.dumps(MODES[mode](params)))
