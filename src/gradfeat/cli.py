"""Experiment harness: benchmark x sampler x N-grid x replicates -> CSV.

Within a replicate every sampler sees the same train/val/test data, so error
comparisons are paired.  Cell randomness is keyed by a stable hash of
(benchmark, sampler, N, replicate) under one master seed; rerunning with the
same seed reproduces every result field bit for bit (the wall_ms column is
measurement metadata and exempt from the determinism contract).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .activation import ActivationSpec, GridResolutionError, make_psi_table
from .benchmarks import (
    GridSizeError,
    UnknownBenchmarkError,
    generate_dataset,
    make_benchmark,
    supported_benchmarks,
)
from .geometry import RngStream
from .regression import (
    NonsmoothModelError,
    cross_validate,
    eval_model,
    rmse,
)
from .samplers import (
    AcceptanceCollapseError,
    AllZeroGradientsError,
    DeltaZeroError,
    MissingGradientsError,
    MissingHessiansError,
    SamplerSpec,
    ZeroTraceError,
    draw,
    export_weights_text,
)

CSV_COLUMNS = (
    "benchmark",
    "d",
    "sampler",
    "N",
    "replicate",
    "alpha",
    "train_rmse",
    "val_rmse",
    "test_rmse",
    "accept_rate",
    "wall_ms",
    "status",
)

_CELL_ERRORS = {
    MissingGradientsError: "missing-gradients",
    MissingHessiansError: "missing-hessians",
    AllZeroGradientsError: "all-zero-gradients",
    ZeroTraceError: "zero-trace",
    DeltaZeroError: "delta-zero",
    AcceptanceCollapseError: "acceptance-collapse",
    NonsmoothModelError: "nonsmooth-model",
    GridResolutionError: "grid-resolution",
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    benchmark: str
    d: int
    n_grid: list = field(default_factory=lambda: [25, 50, 100])
    K: int = 1000
    samplers: list = field(default_factory=lambda: ["uniform", "local-gradient"])
    replicates: int = 20
    s: int = 1
    delta: float | None = None  # default 1/80 in 1-d, 1/40 otherwise
    delta_w: float | None = None  # default 2 * delta
    alpha_grid: list | None = None
    noise_sigma: float | None = None
    sampling: str = "uniform-random"
    test_size: int = 5000
    master_seed: int = 12345
    output_dir: str = "results"
    workers: int = 1
    include_poly: bool = True

    def __post_init__(self) -> None:
        if self.delta is None:
            self.delta = 1.0 / 80.0 if self.d == 1 else 1.0 / 40.0
        if self.delta_w is None:
            self.delta_w = 2.0 * self.delta
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not self.n_grid or list(self.n_grid) != sorted(self.n_grid):
            raise ConfigError("n_grid must be nonempty and ascending")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        act = data.pop("activation", None)
        if act is not None:
            if not isinstance(act, dict) or set(act) - {"s", "delta"}:
                raise ConfigError(f"activation takes only 's' and 'delta', got {act!r}")
            both = sorted(set(act) & set(data))
            if both:
                raise ConfigError(f"{both} given both at top level and under activation")
            data.update(act)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def activation(self) -> ActivationSpec:
        return ActivationSpec(s=self.s, delta=self.delta)


def parse_sampler_entry(entry, config: ExperimentConfig) -> SamplerSpec:
    """Build a SamplerSpec from a config entry (string shorthand or mapping)."""
    if isinstance(entry, str):
        entry = {"kind": entry}
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"bad sampler entry {entry!r}")
    entry = dict(entry)
    kind = entry.pop("kind")
    try:
        if kind in ("nonlocal-gradient", "nonlocal-hessian"):
            entry.setdefault("delta_w", config.delta_w)
            return SamplerSpec(kind=kind, **entry)
        if kind == "integral-density":
            entry.setdefault("order_m", config.s - 1)
            return SamplerSpec(kind=kind, **entry)
        if kind == "residual":
            base = entry.pop("base", "local-gradient")
            return SamplerSpec(
                kind=kind, base=parse_sampler_entry(base, config), **entry
            )
        return SamplerSpec(kind=kind, **entry)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad sampler entry {entry!r}: {exc}") from exc


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_results_csv(rows: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")


def read_results_csv(path) -> list:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(header, parts))
            for key in ("d", "N", "replicate"):
                row[key] = int(row[key])
            for key in ("alpha", "train_rmse", "val_rmse", "test_rmse", "accept_rate", "wall_ms"):
                row[key] = float(row[key]) if row.get(key) else None
            rows.append(row)
    return rows


def _prepare(config: ExperimentConfig, specs: list, reps) -> tuple:
    """What the cells of a run share, keyed as ``run_experiment`` keys it.

    Returns the master stream, the psi table (``None`` unless an
    integral-density sampler needs one) and, per replicate, its
    ``(train, test, fit)``: the datasets and the cross-validated fit on
    (train, val), ``neurons -> (model, report)``.
    """
    bench = make_benchmark(config.benchmark, config.d)
    master = RngStream(config.master_seed)
    with_hessians = any(s.kind == "nonlocal-hessian" for s in specs)

    def replicate(rep):
        train, val, test = generate_dataset(
            bench,
            config.K,
            sampling=config.sampling,
            noise_sigma=config.noise_sigma,
            rng=master.child("dataset", config.benchmark, rep).generator(),
            test_size=config.test_size,
            with_hessians=with_hessians,
        )

        def fit(neurons):
            return cross_validate(
                train, val, neurons, config.activation, config.alpha_grid,
                include_poly=config.include_poly,
            )

        return train, test, fit

    datasets = {rep: replicate(rep) for rep in reps}
    psi_table = None
    if any(s.kind == "integral-density" for s in specs):
        psi_table = make_psi_table(config.s - 1, config.d, config.delta, radius=1.0)
    return master, psi_table, datasets


def _draw_cell(config, label, spec, datasets, n, rep, psi_table, master: RngStream):
    """The neurons of cell (label, n, rep), drawn from the cell's own stream."""
    train, _, fit = datasets[rep]
    rng = master.child("cell", config.benchmark, label, n, rep).generator()
    return draw(spec, train, n, rng, psi_table=psi_table, fit_callback=lambda nn: fit(nn)[0])


def _run_cell(config, label, spec, datasets, n, rep, psi_table, master: RngStream) -> dict:
    row = {
        "benchmark": config.benchmark,
        "d": config.d,
        "sampler": label,
        "N": n,
        "replicate": rep,
        "alpha": None,
        "train_rmse": None,
        "val_rmse": None,
        "test_rmse": None,
        "accept_rate": None,
        "wall_ms": None,
        "status": "ok",
    }
    _, test, fit = datasets[rep]
    t0 = time.perf_counter()
    try:
        result = _draw_cell(config, label, spec, datasets, n, rep, psi_table, master)
        model, report = fit(result.neurons)
        row["alpha"] = report.alpha
        row["train_rmse"] = float(report.train_rmse[report.chosen_index])
        row["val_rmse"] = float(report.val_rmse[report.chosen_index])
        row["test_rmse"] = rmse(eval_model(model, test.X), test.y)
        row["accept_rate"] = result.accept_rate
    except tuple(_CELL_ERRORS) as exc:
        row["status"] = _CELL_ERRORS[type(exc)]
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def run_experiment(config: ExperimentConfig) -> list:
    """Run the full grid; returns one row dict per (sampler, N, replicate) cell."""
    specs = [parse_sampler_entry(e, config) for e in config.samplers]
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ConfigError("sampler labels collide; use distinct kinds")
    master, psi_table, datasets = _prepare(config, specs, range(config.replicates))

    cells = [
        (label, spec, n, rep)
        for label, spec in zip(labels, specs)
        for n in config.n_grid
        for rep in range(config.replicates)
    ]

    def job(cell):
        label, spec, n, rep = cell
        return _run_cell(config, label, spec, datasets, n, rep, psi_table, master)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(job, cells))
    else:
        rows = [job(c) for c in cells]
    rows.sort(key=lambda r: (r["sampler"], r["N"], r["replicate"]))
    return rows


def summarize(rows: list) -> list:
    """Per-(sampler, N) medians and quartiles of the test error over ok cells."""
    keys = []
    seen = set()
    for row in rows:
        key = (row["benchmark"], row["sampler"], row["N"])
        if key not in seen:
            seen.add(key)
            keys.append(key)
    out = []
    for bench, sampler, n in sorted(keys):
        group = [r for r in rows if (r["benchmark"], r["sampler"], r["N"]) == (bench, sampler, n)]
        ok = [r["test_rmse"] for r in group if r["status"] == "ok"]
        entry = {
            "benchmark": bench,
            "sampler": sampler,
            "N": n,
            "n_ok": len(ok),
            "n_cells": len(group),
            "median_test_rmse": float(np.median(ok)) if ok else None,
            "q1_test_rmse": float(np.percentile(ok, 25)) if ok else None,
            "q3_test_rmse": float(np.percentile(ok, 75)) if ok else None,
        }
        out.append(entry)
    return out


SUMMARY_COLUMNS = (
    "benchmark",
    "sampler",
    "N",
    "n_ok",
    "n_cells",
    "median_test_rmse",
    "q1_test_rmse",
    "q3_test_rmse",
)


def write_summary_csv(summary: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in summary:
            fh.write(",".join(_fmt(row[c]) for c in SUMMARY_COLUMNS) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def write_convergence_svg(summary: list, path) -> None:
    """Log-log median test error vs N, one polyline per sampler."""
    points = [(r["sampler"], r["N"], r["median_test_rmse"]) for r in summary if r["median_test_rmse"]]
    if not points:
        return
    samplers = sorted({p[0] for p in points})
    xs = np.log10([p[1] for p in points])
    ys = np.log10([p[2] for p in points])
    x0, x1 = xs.min(), max(xs.max(), xs.min() + 1e-9)
    y0, y1 = ys.min(), max(ys.max(), ys.min() + 1e-9)
    W, H, pad = 640, 440, 60

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - y0) / (y1 - y0) * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{W-2*pad}" height="{H-2*pad}" '
        'fill="none" stroke="#888"/>',
        f'<text x="{W/2}" y="{H-12}" text-anchor="middle" font-size="13">'
        "N (log10)</text>",
        f'<text x="16" y="{H/2}" font-size="13" transform="rotate(-90 16 {H/2})" '
        'text-anchor="middle">median test RMSE (log10)</text>',
    ]
    for i, sampler in enumerate(samplers):
        pts = sorted((p[1], p[2]) for p in points if p[0] == sampler)
        coords = " ".join(f"{sx(np.log10(n)):.1f},{sy(np.log10(v)):.1f}" for n, v in pts)
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{W-pad+4}" y="{pad+16*(i+1)}" font-size="11" fill="{color}" '
            f'text-anchor="end">{sampler}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def export_weights(config: ExperimentConfig, sampler, n: int, seed: int) -> Path:
    """Write the neurons that replicate ``seed`` of a run draws for ``sampler`` at N=n."""
    spec = parse_sampler_entry(sampler, config)
    master, psi_table, datasets = _prepare(config, [spec], [seed])
    result = _draw_cell(config, spec.label, spec, datasets, n, seed, psi_table, master)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"weights_{spec.label}_N{n}_seed{seed}.txt"
    export_weights_text(result.neurons, path)
    return path


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

_OVERRIDE_FLAGS = (
    "benchmark",
    "d",
    "K",
    "samplers",
    "n_grid",
    "replicates",
    "activation.s",
    "activation.delta",
    "delta_w",
    "alpha_grid",
    "noise_sigma",
    "sampling",
    "test_size",
    "master_seed",
    "output_dir",
    "workers",
    "include_poly",
)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for name in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{name}", dest=name.replace(".", "__"), default=None)


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path, args=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if args is not None:
        for name in _OVERRIDE_FLAGS:
            value = getattr(args, name.replace(".", "__"), None)
            if value is None:
                continue
            target = data
            *parents, leaf = name.split(".")
            for p in parents:
                target = target.setdefault(p, {})
            target[leaf] = _coerce(value)
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gradfeat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid and write results.csv")
    p_run.add_argument("config")
    _add_override_flags(p_run)

    p_sum = sub.add_parser("summarize", help="aggregate a results.csv into medians")
    p_sum.add_argument("results")
    p_sum.add_argument("--output", default=None)
    p_sum.add_argument("--svg", action="store_true", help="also emit a convergence chart")

    p_exp = sub.add_parser("export-weights", help="dump sampled weights as plain text")
    p_exp.add_argument("config")
    p_exp.add_argument("--sampler", required=True)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=0)
    _add_override_flags(p_exp)

    sub.add_parser("list-benchmarks", help="show supported benchmark names")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config, args)
            rows = run_experiment(config)
            outdir = Path(config.output_dir)
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / "results.csv"
            write_results_csv(rows, path)
            failed = sum(r["status"] != "ok" for r in rows)
            print(f"wrote {path} ({len(rows)} cells, {failed} failed)")
            return 2 if failed else 0
        if args.command == "summarize":
            rows = read_results_csv(args.results)
            summary = summarize(rows)
            out = Path(args.output) if args.output else Path(args.results).with_name("summary.csv")
            write_summary_csv(summary, out)
            print(f"wrote {out} ({len(summary)} rows)")
            if args.svg:
                svg = out.with_suffix(".svg")
                write_convergence_svg(summary, svg)
                print(f"wrote {svg}")
            return 0
        if args.command == "export-weights":
            config = load_config(args.config, args)
            path = export_weights(config, args.sampler, args.n, args.seed)
            print(f"wrote {path}")
            return 0
        if args.command == "list-benchmarks":
            for name, dims in supported_benchmarks().items():
                print(f"{name}: d in {list(dims)}")
            return 0
    except (ConfigError, UnknownBenchmarkError, GridSizeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
