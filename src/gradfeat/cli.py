"""Experiment harness: benchmark x sampler x N-grid x replicates -> CSV.

Within a replicate every sampler sees the same train/val/test data, so error
comparisons are paired.  Cell randomness is keyed by a stable hash of
(benchmark, sampler, N, replicate) under one master seed; rerunning with the
same seed reproduces every result field bit for bit (the wall_ms column is
measurement metadata and exempt from the determinism contract).  A run holds
numpy's OpenBLAS at one thread, so the bits do not depend on the host's core
count or on ``workers`` where that library is found.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _blas
from .activation import ActivationSpec, GridResolutionError, make_psi_table
from .benchmarks import (
    benchmark_dim,
    generate_dataset,
    grid_side,
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
    KIND_FIELDS,
    SamplerSpec,
    ZeroTraceError,
    _is_int,
    _is_number,
    _is_positive,
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
    AllZeroGradientsError: "all-zero-gradients",
    ZeroTraceError: "zero-trace",
    NonsmoothModelError: "delta-zero",
    AcceptanceCollapseError: "acceptance-collapse",
}

# The largest noise_sigma a config takes: the noisy targets then stay below
# about 1e101 (a normal draw past 10 standard deviations has probability below
# 1e-23), so their squares, summed over any array numpy can hold (fewer than
# 2**63 entries), stay far below the largest double.
MAX_NOISE_SIGMA = 1e100


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment grid.  Building it decides whether it can run: every field, the
    benchmark at ``d``, a grid ``K`` and the sampler entries, resolved into ``specs``
    with distinct labels.  Each failure is a ConfigError."""

    benchmark: str
    d: int
    n_grid: list = field(default_factory=lambda: [25, 50, 100])
    K: int = 1000
    samplers: list = field(default_factory=lambda: ["uniform", "local-gradient"])
    replicates: int = 20
    s: int = 1
    delta: float | None = None  # default 1/80 in 1-d, 1/40 otherwise
    alpha_grid: list | None = None
    noise_sigma: float | None = None
    sampling: str = "uniform-random"
    test_size: int = 5000
    master_seed: int = 12345
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.benchmark, str):
            raise ConfigError(f"benchmark must be a string, got {self.benchmark!r}")
        if not isinstance(self.output_dir, (str, Path)):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        for name in ("d", "K", "s", "replicates", "test_size", "master_seed", "workers"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.delta is None:
            self.delta = 1.0 / 80.0 if self.d == 1 else 1.0 / 40.0
        elif not _is_number(self.delta):
            raise ConfigError(f"delta must be a number, got {self.delta!r}")
        try:
            self.activation = ActivationSpec(s=self.s, delta=self.delta)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad activation: {exc}") from exc
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        grid = self.n_grid
        if not isinstance(grid, list) or not all(map(_is_int, grid)) or np.any(np.diff(grid) <= 0):
            raise ConfigError(f"n_grid must be a list of strictly ascending integers, got {grid!r}")
        if not grid or grid[0] < 1:
            raise ConfigError(f"n_grid must be a nonempty list of values >= 1, got {grid!r}")
        if self.K < 10:
            raise ConfigError(f"K must be >= 10, got {self.K}")
        if self.alpha_grid is not None:
            alphas = self.alpha_grid
            if not isinstance(alphas, list) or not alphas or not all(map(_is_positive, alphas)):
                raise ConfigError(
                    f"alpha_grid must be a nonempty list of finite numbers > 0, got {alphas!r}"
                )
            if np.any(np.diff(alphas) >= 0):
                raise ConfigError(f"alpha_grid must be strictly descending, got {self.alpha_grid}")
        if self.sampling not in ("grid", "uniform-random"):
            raise ConfigError(f"sampling must be grid or uniform-random, got {self.sampling!r}")
        if self.test_size < 1:
            raise ConfigError(f"test_size must be >= 1, got {self.test_size}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        sigma = self.noise_sigma
        if sigma is not None and not (_is_number(sigma) and 0.0 <= sigma <= MAX_NOISE_SIGMA):
            raise ConfigError(
                f"noise_sigma must be a number in [0, {MAX_NOISE_SIGMA:g}], got {self.noise_sigma!r}"
            )
        if not isinstance(self.samplers, list) or not self.samplers:
            raise ConfigError(f"samplers must be a nonempty list, got {self.samplers!r}")
        try:
            benchmark_dim(self.benchmark, self.d)
            points = np.iinfo(np.intp).max // (8 * self.d)  # rows of a float64 (n, d) array
            for name in ("K", "test_size"):
                if getattr(self, name) > points:
                    raise ConfigError(
                        f"{name} must be at most {points}, the most d={self.d} points a numpy "
                        f"array can hold, got {getattr(self, name)}"
                    )
            if self.sampling == "grid":
                grid_side(self.K, self.d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.specs = [parse_sampler_entry(e, self) for e in self.samplers]
        labels = [s.label for s in self.specs]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"sampler labels collide: {labels}; use distinct kinds")

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


def parse_sampler_entry(entry, config: ExperimentConfig) -> SamplerSpec:
    """Build a SamplerSpec from a config entry: a kind name, or a mapping with
    ``kind`` and any of the fields that kind reads (``KIND_FIELDS``).

    A field the entry leaves out takes its default: ``delta_w`` twice the
    activation's ``delta`` and ``base`` ``"local-gradient"``.  A ``base`` is
    itself an entry.  The psi table sets the order, so ``order_m`` is checked,
    not stored.  Any other key, even one at its default, an ``order_m`` other
    than the integer ``s - 1``, ``integral-density`` with activation ``delta``
    0 and a bool where a number belongs are config errors.
    """
    if isinstance(entry, str):
        entry = {"kind": entry}
    if not isinstance(entry, dict) or not isinstance(entry.get("kind"), str):
        raise ConfigError(f"bad sampler entry {entry!r}")
    kind = entry["kind"]
    if kind not in KIND_FIELDS:
        raise ConfigError(f"unknown sampler kind {kind!r}")
    reads = KIND_FIELDS[kind]
    extra = sorted(set(entry) - {"kind", *reads})
    if extra:
        raise ConfigError(f"sampler {kind!r} takes only {list(reads)}, got {extra}")
    defaults = {"delta_w": 2.0 * config.delta, "base": "local-gradient"}
    fields = {f: defaults[f] for f in reads if f in defaults}
    fields.update((k, v) for k, v in entry.items() if k != "kind")
    order = fields.pop("order_m", config.s - 1)
    if not _is_int(order) or order != config.s - 1:
        raise ConfigError(f"integral-density order_m must be the integer s - 1 = {config.s - 1}")
    if kind == "integral-density" and config.delta == 0.0:
        raise ConfigError("integral-density needs activation delta > 0, got 0")
    if "base" in fields:
        fields["base"] = parse_sampler_entry(fields["base"], config)
    try:
        return SamplerSpec(kind=kind, **fields)
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


def _write_csv(rows: list, columns: tuple, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_results_csv(rows: list, path) -> None:
    _write_csv(rows, CSV_COLUMNS, path)


def read_results_csv(path) -> list:
    """The rows of a results CSV; a file that cannot be read or parsed is a ConfigError."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"no columns {missing}")
            for line in fh:
                parts = line.rstrip("\n").split(",")
                if len(parts) != len(header):
                    raise ValueError(f"a row has {len(parts)} fields, the header {len(header)}")
                row = dict(zip(header, parts))
                for key in ("d", "N", "replicate"):
                    row[key] = int(row[key])
                for key in ("alpha", "train_rmse", "val_rmse", "test_rmse", "accept_rate", "wall_ms"):
                    row[key] = float(row[key]) if row[key] else None
                if row["status"] == "ok" and row["test_rmse"] is None:
                    raise ValueError("an ok row has no test_rmse")
                rows.append(row)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read results {path}: {exc}") from exc
    return rows


def _prepare(config: ExperimentConfig, reps) -> dict:
    """Per replicate of ``reps``, the 4-tuple ``(train, test, fit, draw_cell)``:
    the datasets, the cross-validated fit on (train, val), ``neurons -> (model,
    report)``, and ``draw_cell(spec, n)``, which draws cell ``(spec.label, n,
    rep)`` from its own stream, with the run's psi table.  The training set
    keeps the nonlocal source-point weights that its first nonlocal draw computes.
    """
    bench = make_benchmark(config.benchmark, config.d)
    master = RngStream(config.master_seed)
    kinds = {s.kind for s in config.specs}

    def replicate(rep):
        train, val, test = generate_dataset(
            bench,
            config.K,
            sampling=config.sampling,
            noise_sigma=config.noise_sigma,
            rng=master.child("dataset", config.benchmark, rep).generator(),
            test_size=config.test_size,
            with_hessians="nonlocal-hessian" in kinds,
        )

        def fit(neurons):
            return cross_validate(train, val, neurons, config.activation, config.alpha_grid)

        def draw_cell(spec, n):
            rng = master.child("cell", config.benchmark, spec.label, n, rep).generator()
            return draw(spec, train, n, rng, psi_table=psi_table,
                        fit_callback=lambda nn: fit(nn)[0])

        return train, test, fit, draw_cell

    datasets = {rep: replicate(rep) for rep in reps}
    psi_table = None
    if "integral-density" in kinds:
        psi_table = make_psi_table(config.s - 1, config.d, config.delta, radius=1.0)
    return datasets


def _run_cell(config, label, spec, datasets, n, rep) -> dict:
    row = dict(dict.fromkeys(CSV_COLUMNS), benchmark=config.benchmark, d=config.d,
               sampler=label, N=n, replicate=rep, status="ok")
    _, test, fit, draw_cell = datasets[rep]
    t0 = time.perf_counter()
    try:
        neurons, accept_rate = draw_cell(spec, n)
        model, report = fit(neurons)
        row["alpha"] = report.alpha
        row["train_rmse"] = float(report.train_rmse[report.chosen_index])
        row["val_rmse"] = float(report.val_rmse[report.chosen_index])
        row["test_rmse"] = rmse(eval_model(model, test.X), test.y)
        row["accept_rate"] = accept_rate
    except tuple(_CELL_ERRORS) as exc:
        row["status"] = _CELL_ERRORS[type(exc)]
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def run_experiment(config: ExperimentConfig, before_cells=lambda: None) -> list:
    """Run the full grid; returns one row dict per (sampler, N, replicate) cell.

    ``before_cells()`` runs once the set-up succeeds (``gradfeat run`` makes
    ``output_dir`` there, so that a failed set-up leaves none).  Cells run on
    a pool of ``workers`` threads, the largest N first, so that the last cells
    to finish are small ones.  Once a cell raises, no further cell starts; an
    interrupt cancels the cells not yet started.  The whole run, set-up and
    cells, holds numpy's OpenBLAS at one thread (``_blas.one_thread``), so that
    a cell's bits do not depend on the host's core count and ``workers`` alone
    sets the parallelism.  The count is process-wide; it is restored when the
    last of the runs in flight returns.
    """
    cells = sorted(
        itertools.product(config.specs, config.n_grid, range(config.replicates)),
        key=lambda cell: -cell[1],
    )
    with _blas.one_thread():
        datasets = _prepare(config, range(config.replicates))
        before_cells()

        stop = threading.Event()  # a worker can take a cell before map cancels it

        def job(cell):
            if stop.is_set():
                return None
            spec, n, rep = cell
            try:
                return _run_cell(config, spec.label, spec, datasets, n, rep)
            except BaseException:
                stop.set()
                raise

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(job, cells))
    rows.sort(key=lambda r: (r["sampler"], r["N"], r["replicate"]))
    return rows


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


def summarize(rows: list) -> list:
    """Per-(sampler, N) medians and quartiles of the test error over ok cells."""
    out = []
    for key in sorted({(r["benchmark"], r["sampler"], r["N"]) for r in rows}):
        group = [r for r in rows if (r["benchmark"], r["sampler"], r["N"]) == key]
        ok = [r["test_rmse"] for r in group if r["status"] == "ok"]
        stats = [float(np.median(ok)), *np.percentile(ok, [25, 75]).tolist()] if ok else [None] * 3
        out.append(dict(zip(SUMMARY_COLUMNS, (*key, len(ok), len(group), *stats))))
    return out


def write_summary_csv(summary: list, path) -> None:
    _write_csv(summary, SUMMARY_COLUMNS, path)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def write_convergence_svg(summary: list, path) -> bool:
    """Log-log median test error vs N, one polyline per sampler; False if none is > 0."""
    points = [(r["sampler"], r["N"], r["median_test_rmse"]) for r in summary if r["median_test_rmse"]]
    if not points:
        return False
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
    return True


def export_weights(config: ExperimentConfig, sampler, n: int, seed: int) -> Path:
    """Write the neurons that replicate ``seed`` of a run draws for ``sampler`` at N=n;
    a draw raises the ``_CELL_ERRORS`` that a run's cell records."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    config = replace(config, samplers=[sampler])
    (spec,) = config.specs
    outdir = Path(config.output_dir)
    with _blas.one_thread():  # as in run_experiment: the draws read BLAS results
        *_, draw_cell = _prepare(config, [seed])[seed]
        outdir.mkdir(parents=True, exist_ok=True)  # after the set-up, before the draw
        neurons, _ = draw_cell(spec, n)
    path = outdir / f"weights_{spec.label}_N{n}_seed{seed}.txt"
    export_weights_text(neurons, path)
    return path


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

# One flag per config field; the activation's own fields sit under its block.
_OVERRIDE_FLAGS = tuple(
    f"activation.{name}" if name in ("s", "delta") else name
    for name in ExperimentConfig.__dataclass_fields__
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
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(data).__name__}")
    if args is not None:
        for name in _OVERRIDE_FLAGS:
            value = getattr(args, name.replace(".", "__"), None)
            if value is None:
                continue
            target = data
            *parents, leaf = name.split(".")
            for p in parents:
                target = target.setdefault(p, {})
                if not isinstance(target, dict):
                    raise ConfigError(f"{p} must be a JSON object, got {target!r}")
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
    p_exp.add_argument("--sampler", type=_coerce, required=True, help="a config sampler entry")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=0)
    _add_override_flags(p_exp)

    sub.add_parser("list-benchmarks", help="show supported benchmark names")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, as config errors do; 2 means failed cells
        return 1 if exc.code else 0
    try:
        if args.command == "run":
            config = load_config(args.config, args)
            outdir = Path(config.output_dir)
            rows = run_experiment(config, lambda: outdir.mkdir(parents=True, exist_ok=True))
            path = outdir / "results.csv"
            write_results_csv(rows, path)
            failed = sum(r["status"] != "ok" for r in rows)
            if _blas.threads() is None:
                blas = "BLAS threads not pinned (no OpenBLAS found)"
            else:
                blas = "1 BLAS thread per cell"
            print(f"wrote {path} ({len(rows)} cells, {failed} failed; {blas})")
            return 2 if failed else 0
        if args.command == "summarize":
            rows = read_results_csv(args.results)
            summary = summarize(rows)
            out = Path(args.output) if args.output else Path(args.results).with_name("summary.csv")
            write_summary_csv(summary, out)
            print(f"wrote {out} ({len(summary)} rows)")
            if args.svg:
                svg = out.with_suffix(".svg")
                if write_convergence_svg(summary, svg):
                    print(f"wrote {svg}")
                else:
                    print(f"no chart written to {svg}: no group has an ok median test_rmse > 0")
            return 0
        if args.command == "export-weights":
            config = load_config(args.config, args)
            try:
                path = export_weights(config, args.sampler, args.n, args.seed)
            except tuple(_CELL_ERRORS) as exc:  # what run records as a failed cell
                print(f"draw failed: {_CELL_ERRORS[type(exc)]}: {exc}", file=sys.stderr)
                return 2
            print(f"wrote {path}")
            return 0
        if args.command == "list-benchmarks":
            for name, dims in supported_benchmarks().items():
                print(f"{name}: d in {list(dims)}")
            return 0
    except (ConfigError, GridResolutionError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the readers raise ConfigError, so a named path is an output
        if exc.filename is None:
            raise
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
