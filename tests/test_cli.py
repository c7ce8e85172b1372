import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import gradfeat
from gradfeat import _blas, cli
from gradfeat.cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    export_weights,
    load_config,
    main,
    parse_sampler_entry,
    read_results_csv,
    run_experiment,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from gradfeat.samplers import KIND_FIELDS, SamplerSpec


def small_config(tmp_path, **overrides):
    data = {
        "benchmark": "gauss1d",
        "d": 1,
        "K": 120,
        "samplers": ["uniform", "local-gradient"],
        "n_grid": [8, 16],
        "replicates": 2,
        "sampling": "grid",
        "test_size": 60,
        "master_seed": 424242,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

# Each entry carries a key its kind does not read, an order_m the activation
# does not have, or a value out of range or not a number; the second member is
# what the error names.  safety, kappa and n0 are no kind's keys: the envelope
# factor and the residual schedule are module constants.
BAD_SAMPLER_ENTRIES = [
    ({"kind": "residual", "base": "nonlocal-gradient", "delta_w": 0.01}, "delta_w"),
    ({"kind": "uniform", "safety": 3}, "safety"),
    ({"kind": "uniform", "safety": 1.5}, "safety"),  # the default is rejected too
    ({"kind": "integral-density", "order_m": 5}, "order_m"),
    ({"kind": "nonlocal-gradient", "delta_w": float("inf")}, "delta_w"),
    ({"kind": "integral-density", "safety": float("nan")}, "safety"),
    ({"kind": "residual", "kappa": float("inf")}, "kappa"),
    ({"kind": "residual", "n0": 2.5}, "n0"),
    ({"kind": "residual", "n0": True}, "n0"),
    ({"kind": "integral-density", "safety": 1.5}, "safety"),  # the fixed values too
    ({"kind": "residual", "kappa": 2.0}, "kappa"),
    ({"kind": "residual", "n0": 8}, "n0"),
    ({"kind": "integral-density", "order_m": True}, "order_m"),  # True == s - 1 at s=2
    ({"kind": "nonlocal-gradient", "delta_w": True}, "delta_w"),
    ({"kind": "residual", "base": {"kind": "nonlocal-gradient", "delta_w": True}}, "delta_w"),
]
# Entries that no JSON config can hold, so only the parser test takes them.
BAD_PARSED_ENTRIES = [
    ({"kind": "integral-density", "order_m": Fraction(1, 1)}, "order_m"),  # == s - 1 at s=2
]


# Each holds one value that only the benchmark table, the grid-size rule or the
# sampler entries can reject; the second member is what the error names.
CONFIG_ERRORS_BEFORE_OUTPUT = [
    ({"benchmark": "nope"}, "unknown benchmark 'nope'"),
    ({"benchmark": "planar_wave", "d": 3}, "supports d in (2,), got 3"),
    ({"benchmark": "planar_wave", "d": 2, "K": 1001}, "nearest [961, 1024]"),
    ({"samplers": ["uniform", "uniform"]}, "labels collide"),
    ({"samplers": ["uniform", {"kind": "uniform", "safety": 3}]}, "safety"),
    ({"sampling": "uniform-random", "K": 10**26}, "K must be at most 1152921504606846975"),
    ({"sampling": "grid", "K": 10**26}, "K must be at most 1152921504606846975"),
    ({"test_size": 10**26}, "test_size must be at most 1152921504606846975"),
    ({"noise_sigma": 1e300}, "noise_sigma must be a number in [0, 1e+100]"),
]

# The CLI fuzz: a small valid grid with one field or one sampler entry replaced
# by a random JSON value.  The leaves stay small, so that a grid the value
# leaves valid stays tiny.  No integral-density entry: a delta that stops its
# psi table from decaying is only found once the table is built.
FUZZ_BASE = {
    "benchmark": "checkmark",
    "d": 3,
    "K": 40,
    "n_grid": [4, 8],
    "replicates": 1,
    "samplers": ["uniform", "nonlocal-gradient", {"kind": "residual", "base": "local-gradient"}],
    "test_size": 20,
}
FUZZ_LEAVES = (
    st.integers(-2, 64) | st.floats() | st.text(max_size=4) | st.booleans() | st.none()
    | st.sampled_from(sorted(KIND_FIELDS))  # so that a sampler entry can be valid
)
# a bare leaf as often as a nested value, or few values would leave a grid valid
FUZZ_VALUES = FUZZ_LEAVES | st.recursive(
    FUZZ_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
FUZZ_TARGETS = [f for f in ExperimentConfig.__dataclass_fields__ if f != "output_dir"]
FUZZ_TARGETS += list(range(len(FUZZ_BASE["samplers"])))


def strip_wall_ms(text: str) -> str:
    lines = text.splitlines()
    idx = CSV_COLUMNS.index("wall_ms")
    out = []
    for line in lines:
        parts = line.split(",")
        parts[idx] = ""
        out.append(",".join(parts))
    return "\n".join(out)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(benchmark="gauss1d", d=1, n_grid=[10])
        assert cfg.delta == pytest.approx(1.0 / 80.0)
        cfg2 = ExperimentConfig(benchmark="planar_wave", d=2, n_grid=[10])
        assert cfg2.delta == pytest.approx(1.0 / 40.0)

    def test_activation_nesting(self):
        cfg = ExperimentConfig.from_dict(
            {"benchmark": "gauss1d", "d": 1, "n_grid": [5],
             "activation": {"s": 2, "delta": 0.01}}
        )
        assert cfg.s == 2 and cfg.delta == 0.01

    def test_unknown_activation_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"benchmark": "gauss1d", "d": 1, "n_grid": [5],
                 "activation": {"s": 2, "detla": 0.5}}
            )

    def test_activation_key_at_both_levels_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"benchmark": "gauss1d", "d": 1, "n_grid": [5], "s": 1,
                 "activation": {"s": 2}}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"benchmark": "gauss1d", "d": 1, "n_grid": [5], "oops": 1})

    def test_n_grid_must_ascend(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(benchmark="gauss1d", d=1, n_grid=[20, 10])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"activation": {"s": 3}},
            {"activation": {"delta": -1.0}},
            {"activation": {"delta": float("inf")}},
            {"n_grid": [0]},
            {"K": 9},
            {"alpha_grid": []},
            {"alpha_grid": [1e-3, 0.0]},
            {"alpha_grid": [float("inf")]},
            {"sampling": "bogus"},
            {"test_size": 0},
            {"alpha_grid": [1e-6, 1e-3, 1.0]},
            {"alpha_grid": [1.0, 1.0]},
            {"d": 1.0},
            {"K": 1e3},
            {"replicates": 1.5},
            {"test_size": 2.5},
            {"master_seed": 1.0},
            {"master_seed": -1},
            {"workers": 0},
            {"workers": True},
            {"n_grid": [5.0]},
            {"n_grid": [10, 10]},
            {"include_poly": "false"},
            {"noise_sigma": -0.1},
            {"noise_sigma": float("nan")},
            {"samplers": []},
            {"activation": {"s": True}},
            {"activation": {"s": 1.0}},
            {"activation": {"delta": True}},
            {"delta": "abc"},
            {"delta_w": True},
            {"delta_w": "abc"},
            {"delta_w": 0.0},
            {"alpha_grid": [True]},
            {"alpha_grid": [1.0, "0.1"]},
            {"samplers": "uniform"},
            {"n_grid": 5},
            {"benchmark": ["gauss1d"]},
            {"output_dir": 5},
        ],
        ids=[
            "s", "delta", "delta_inf", "n_grid", "K", "alpha_grid_empty", "alpha_grid_zero",
            "alpha_grid_inf", "sampling", "test_size", "alpha_grid_ascending",
            "alpha_grid_repeated", "d_float", "K_float", "replicates_float",
            "test_size_float", "master_seed_float", "master_seed_negative", "workers_zero",
            "workers_bool", "n_grid_float", "n_grid_repeated", "include_poly_string",
            "noise_sigma_negative", "noise_sigma_nan", "samplers_empty", "s_bool", "s_float",
            "delta_bool", "delta_string", "delta_w_bool", "delta_w_string", "delta_w_zero",
            "alpha_grid_bool",
            "alpha_grid_string", "samplers_string", "n_grid_int", "benchmark_list",
            "output_dir_int",
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        data = {"benchmark": "gauss1d", "d": 1, "n_grid": [5], **overrides}
        # the error names the field, or for an activation field either name
        ((key, value),) = overrides.items()
        names = [key, *value] if key == "activation" else [key]
        with pytest.raises(ConfigError, match=rf"\b({'|'.join(names)})\b"):
            ExperimentConfig.from_dict(data)


    def test_every_field_has_an_override_flag(self):
        parser = argparse.ArgumentParser()
        cli._add_override_flags(parser)
        dests = set(vars(parser.parse_args([])))
        assert {"activation__s", "activation__delta"} <= dests
        assert {d.rpartition("__")[2] for d in dests} == set(ExperimentConfig.__dataclass_fields__)

    def test_committed_configs_parse(self):
        assert CONFIGS
        for path in CONFIGS:
            cfg = load_config(path)
            assert len(cfg.specs) == len(cfg.samplers)

    @pytest.mark.parametrize("entry, key", BAD_SAMPLER_ENTRIES + BAD_PARSED_ENTRIES)
    def test_sampler_entry_keys_checked(self, entry, key):
        cfg = ExperimentConfig(benchmark="planar_wave", d=2, n_grid=[5], s=2)
        with pytest.raises(ConfigError, match=key):
            parse_sampler_entry(entry, cfg)

    def test_integral_density_needs_positive_delta(self):
        # a zero-width kernel has no psi table, as a top-level entry or a base
        cfg = ExperimentConfig(benchmark="gauss1d", d=1, n_grid=[5], delta=0.0)
        for entry in ("integral-density", {"kind": "residual", "base": "integral-density"}):
            with pytest.raises(ConfigError, match=r"\bdelta\b"):
                parse_sampler_entry(entry, cfg)
        assert parse_sampler_entry("uniform", cfg).kind == "uniform"

    def test_residual_base_takes_its_own_width(self):
        cfg = ExperimentConfig(benchmark="checkmark", d=3, n_grid=[5])
        entry = {"kind": "residual", "base": {"kind": "nonlocal-gradient", "delta_w": 0.01}}
        spec = parse_sampler_entry(entry, cfg)
        assert spec.base.kind == "nonlocal-gradient" and spec.base.delta_w == 0.01
        assert parse_sampler_entry("residual", cfg).base.kind == "local-gradient"

    def test_integral_density_order_from_activation(self):
        # the psi table sets the order, so an order_m of s - 1 is checked and dropped
        cfg = ExperimentConfig(benchmark="planar_wave", d=2, n_grid=[5], s=2)
        spec = parse_sampler_entry("integral-density", cfg)
        assert spec == SamplerSpec(kind="integral-density")
        for order in (1, np.int64(1)):
            assert parse_sampler_entry({"kind": "integral-density", "order_m": order}, cfg) == spec

    def test_sampler_entries(self):
        cfg = ExperimentConfig(benchmark="gauss1d", d=1, n_grid=[5])
        spec = parse_sampler_entry("nonlocal-gradient", cfg)
        assert spec.delta_w == 2 * cfg.delta
        spec = parse_sampler_entry({"kind": "residual", "base": "nonlocal-gradient"}, cfg)
        assert spec.label == "residual-nonlocal-gradient"
        with pytest.raises(ConfigError):
            parse_sampler_entry({"kind": "martingale"}, cfg)


class TestRunExperiment:
    def test_grid_product_row_count(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 2
        assert all(r["status"] == "ok" for r in rows)
        assert {r["sampler"] for r in rows} == {"uniform", "local-gradient"}

    def test_rerun_bit_identical_modulo_wall_ms(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(run_experiment(cfg), a)
        write_results_csv(run_experiment(cfg), b)
        assert strip_wall_ms(a.read_text()) == strip_wall_ms(b.read_text())

    def test_csv_schema(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        path = tmp_path / "results.csv"
        write_results_csv(run_experiment(cfg), path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "benchmark,d,sampler,N,replicate,alpha,train_rmse,val_rmse,"
            "test_rmse,accept_rate,wall_ms,status"
        )

    def test_failed_cell_recorded_not_raised(self, tmp_path):
        # residual sampling with delta = 0 fails per cell with delta-zero,
        # whatever the base draws from
        cfg = load_config(
            small_config(
                tmp_path,
                samplers=[
                    "uniform",
                    {"kind": "residual"},
                    # the default width, 2 * delta, is 0 here, so the base sets its own
                    {"kind": "residual", "base": {"kind": "nonlocal-gradient", "delta_w": 0.025}},
                ],
                activation={"s": 1, "delta": 0.0},
                n_grid=[12],
                replicates=1,
            )
        )
        rows = run_experiment(cfg)
        by_sampler = {r["sampler"]: r for r in rows}
        assert by_sampler["uniform"]["status"] == "ok"
        for label in ("residual-local-gradient", "residual-nonlocal-gradient"):
            assert by_sampler[label]["status"] == "delta-zero"
            assert by_sampler[label]["test_rmse"] is None

    def test_pool_starts_the_largest_cells_first(self, tmp_path, monkeypatch):
        # cells go to the pool by N, descending, and otherwise in grid order;
        # the rows come back in grid order all the same
        calls = []
        real = cli._run_cell

        def recorded(config, label, spec, datasets, n, rep):
            calls.append((label, n, rep))
            return real(config, label, spec, datasets, n, rep)

        monkeypatch.setattr(cli, "_run_cell", recorded)
        rows = run_experiment(load_config(small_config(tmp_path, n_grid=[8, 16, 24])))
        assert calls == [
            (label, n, rep)
            for n in (24, 16, 8)
            for label in ("uniform", "local-gradient")
            for rep in (0, 1)
        ]
        assert [(r["sampler"], r["N"], r["replicate"]) for r in rows] == sorted(calls)

    def test_each_cell_error_has_its_own_status(self):
        assert len(set(cli._CELL_ERRORS.values())) == len(cli._CELL_ERRORS)

    def test_worker_pool_preserves_determinism(self, tmp_path):
        for sampler_list in (
            ["uniform", "local-gradient", "integral-density"],
            ["nonlocal-gradient", {"kind": "residual", "base": "nonlocal-gradient"}],
        ):
            cfg1 = load_config(small_config(tmp_path, samplers=sampler_list))
            cfg2 = load_config(small_config(tmp_path, samplers=sampler_list, workers=3))
            rows1 = run_experiment(cfg1)
            rows2 = run_experiment(cfg2)
            assert len(rows1) == len(rows2)
            for r1, r2 in zip(rows1, rows2):
                assert {k: r1[k] for k in CSV_COLUMNS if k != "wall_ms"} == {
                    k: r2[k] for k in CSV_COLUMNS if k != "wall_ms"
                }

    def test_paired_datasets_across_samplers(self, tmp_path):
        # same replicate => same data: a deterministic sampler fitted on the
        # same dataset twice gives identical rows across two single-sampler runs
        cfg1 = load_config(small_config(tmp_path, samplers=["local-gradient"]))
        cfg2 = load_config(
            small_config(tmp_path, samplers=["local-gradient", "uniform"])
        )
        rows1 = [r for r in run_experiment(cfg1) if r["sampler"] == "local-gradient"]
        rows2 = [r for r in run_experiment(cfg2) if r["sampler"] == "local-gradient"]
        assert len(rows1) == len(rows2)
        for r1, r2 in zip(rows1, rows2):
            assert r1["test_rmse"] == r2["test_rmse"]

    def test_pool_computes_source_weights_once_per_replicate(
        self, tmp_path, source_weight_passes
    ):
        # the cells of a replicate share its training set's K x K pass, also
        # when two of them run side by side
        rows = {}
        for workers in (1, 2):
            source_weight_passes.clear()
            path = small_config(tmp_path, samplers=["nonlocal-gradient"], workers=workers)
            cfg = load_config(path)
            rows[workers] = [{k: r[k] for k in CSV_COLUMNS if k != "wall_ms"}
                             for r in run_experiment(cfg)]
            assert len(source_weight_passes) == 2
        assert len(rows[1]) == 4 and all(r["status"] == "ok" for r in rows[1])
        assert rows[1] == rows[2]

    def test_residual_nonlocal_rows_ignore_shared_source_weights(self, tmp_path):
        # residual stages compute their own source weights from the residual
        # gradients; a nonlocal-gradient sampler at the same delta_w beside
        # them must not change their rows
        residual = {"kind": "residual", "base": "nonlocal-gradient"}
        cfg1 = load_config(small_config(tmp_path, samplers=[residual]))
        cfg2 = load_config(small_config(tmp_path, samplers=["nonlocal-gradient", residual]))
        rows1 = run_experiment(cfg1)
        rows2 = [r for r in run_experiment(cfg2) if r["sampler"] == "residual-nonlocal-gradient"]
        assert len(rows1) == len(rows2) == 4
        for r1, r2 in zip(rows1, rows2):
            assert r1["status"] == "ok"
            assert {k: r1[k] for k in CSV_COLUMNS if k != "wall_ms"} == {
                k: r2[k] for k in CSV_COLUMNS if k != "wall_ms"
            }


def run_script(code: str, cwd=None, **env) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports this
    gradfeat, with ``env`` added to the environment."""
    src = str(Path(gradfeat.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# A checkmark grid whose N=150 rows moved with the BLAS thread count before
# every run held OpenBLAS at one thread.
PIN_GRID = dict(
    benchmark="checkmark", d=3, K=2000, n_grid=[150],
    samplers=["local-gradient", "nonlocal-gradient"], replicates=1, master_seed=7,
)
PIN_GRID_SCRIPT = f"""
from gradfeat.cli import ExperimentConfig, run_experiment
for row in run_experiment(ExperimentConfig(**{PIN_GRID!r})):
    row.pop("wall_ms")
    print(repr(row))
"""


class TestBlasPin:
    def test_rows_do_not_depend_on_blas_threads(self, tmp_path):
        one, two = (
            run_script(PIN_GRID_SCRIPT, tmp_path, OPENBLAS_NUM_THREADS=str(n)) for n in (1, 2)
        )
        assert len(one.splitlines()) == 2
        assert one == two

    def test_workers_give_identical_rows(self):
        rows = [run_experiment(ExperimentConfig(**PIN_GRID, workers=w)) for w in (1, 2)]
        assert all(r["status"] == "ok" for r in rows[0])
        rows = [[{k: r[k] for k in CSV_COLUMNS if k != "wall_ms"} for r in rs] for rs in rows]
        assert rows[0] == rows[1]

    def test_thread_count_restored(self, tmp_path, monkeypatch):
        before = _blas.threads()
        cfg = load_config(small_config(tmp_path, replicates=1, n_grid=[8]))
        run_experiment(cfg)
        assert _blas.threads() == before
        seen = []

        def failing_cell(*args):
            seen.append(_blas.threads())
            raise RuntimeError("cell failed")

        monkeypatch.setattr(cli, "_run_cell", failing_cell)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_experiment(cfg)
        assert _blas.threads() == before
        assert seen == [None if before is None else 1]

    def test_overlapping_pins_restore_once(self, monkeypatch):
        # two runs on two threads: the first in saves the count and pins it,
        # and the first out leaves the pin to the last
        calls = []
        monkeypatch.setattr(_blas, "_openblas", lambda: (lambda: 4, calls.append))
        both_in, first_out = threading.Barrier(2, timeout=10), threading.Event()

        def first():
            with _blas.one_thread():
                both_in.wait()
            first_out.set()

        def last():
            with _blas.one_thread():
                both_in.wait()
                assert first_out.wait(10)
                return list(calls)

        with ThreadPoolExecutor(2) as pool:
            jobs = [pool.submit(first), pool.submit(last)]
            assert jobs[0].result() is None and jobs[1].result() == [1]
        assert calls == [1, 4]

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps")
    def test_numpy_wheel_openblas_found(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip(f"numpy is built against {blas.get('name')}")
        before = _blas.threads()
        assert before is not None and before >= 1
        with _blas.one_thread():
            assert _blas.threads() == 1
        assert _blas.threads() == before


# Runs, in a fresh interpreter, a sigmoid grid with the constant column and a
# residual sampler, and a softplus grid with the affine block, nonlocal-hessian
# and integral-density; prints the scipy modules loaded.
NO_SCIPY_SCRIPT = """
import sys
import gradfeat, gradfeat.cli
from gradfeat.cli import ExperimentConfig, run_experiment
common = dict(n_grid=[12], replicates=1, test_size=40, master_seed=5)
configs = [
    ExperimentConfig(benchmark="gauss1d", d=1, K=120, s=1,
                     samplers=["uniform", {"kind": "residual"}], **common),
    ExperimentConfig(benchmark="planar_wave", d=2, K=100, s=2,
                     samplers=["nonlocal-hessian", "integral-density"], **common),
]
for config in configs:
    assert config.delta > 0.0
    rows = run_experiment(config)
    assert len(rows) == 2 and all(r["status"] == "ok" for r in rows), rows
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestRunImports:
    def test_run_imports_no_scipy(self):
        # a subprocess, because this test process imports scipy itself
        assert run_script(NO_SCIPY_SCRIPT).strip() == "[]"

    def test_run_imports_no_numpy_ma(self):
        # np.median's NaN check imports numpy.ma: about 10 ms and 0.6 MB a process
        out = run_script(NO_SCIPY_SCRIPT + 'print("numpy.ma" in sys.modules)\n')
        assert out.splitlines()[-1] == "False"


FLOAT_COLUMNS = ("alpha", "train_rmse", "val_rmse", "test_rmse", "accept_rate", "wall_ms")


class TestResultsCsv:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "benchmark": st.sampled_from(["gauss1d", "borehole"]),
                    "d": st.integers(1, 10),
                    "sampler": st.sampled_from(["uniform", "residual-local-gradient"]),
                    "N": st.integers(1, 10**4),
                    "replicate": st.integers(0, 100),
                    "status": st.sampled_from(["ok", *cli._CELL_ERRORS.values()]),
                    **{c: st.none() | st.floats(allow_nan=False, allow_infinity=False)
                       for c in FLOAT_COLUMNS},
                }
            ).filter(lambda row: row["status"] != "ok" or row["test_rmse"] is not None),
            max_size=8,
        )
    )
    def test_round_trip_at_17_digits(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results.csv"
            write_results_csv(rows, path)
            assert read_results_csv(path) == rows


class TestSummarize:
    def test_single_row(self):
        row = {
            "benchmark": "gauss1d", "sampler": "uniform", "N": 10, "replicate": 0,
            "test_rmse": 0.5, "status": "ok",
        }
        out = summarize([row])
        assert out[0]["median_test_rmse"] == 0.5
        assert out[0]["n_ok"] == 1

    def test_median_is_middle_order_statistic(self):
        rows = [
            {"benchmark": "b", "sampler": "u", "N": 5, "replicate": i,
             "test_rmse": v, "status": "ok"}
            for i, v in enumerate([0.3, 0.9, 0.1])
        ]
        assert summarize(rows)[0]["median_test_rmse"] == 0.3

    def test_row_count_is_grid_size(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        rows = run_experiment(cfg)
        assert len(summarize(rows)) == 2 * 2  # samplers x N values

    def test_summary_csv_bytes(self, tmp_path):
        # the median of {0.226, 0.888} is 0.557 to the last bit, and a group
        # without an ok cell has blank statistics
        cells = [("uniform", 0.888, "ok"), ("uniform", None, "zero-trace"),
                 ("uniform", 0.226, "ok"), ("integral-density", None, "acceptance-collapse"),
                 ("integral-density", None, "acceptance-collapse")]
        rows = [{"benchmark": "gauss1d", "sampler": sampler, "N": 10, "replicate": i,
                 "test_rmse": err, "status": status}
                for i, (sampler, err, status) in enumerate(cells)]
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize(rows), path)
        assert path.read_bytes() == (
            b"benchmark,sampler,N,n_ok,n_cells,median_test_rmse,q1_test_rmse,q3_test_rmse\n"
            b"gauss1d,integral-density,10,0,2,,,\n"
            b"gauss1d,uniform,10,2,3,0.55700000000000005,0.39150000000000001,0.72250000000000003\n"
        )


class TestMain:
    def test_run_and_summarize_roundtrip(self, tmp_path, capsys):
        config_path = small_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        results = tmp_path / "out" / "results.csv"
        assert results.exists()
        assert main(["summarize", str(results), "--svg"]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {tmp_path / 'out' / 'summary.svg'}\n")
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "summary.svg").exists()
        rows = read_results_csv(results)
        assert len(rows) == 8

    def test_override_flags(self, tmp_path):
        config_path = small_config(tmp_path)
        out2 = tmp_path / "out2"
        assert (
            main(
                [
                    "run",
                    str(config_path),
                    "--replicates",
                    "1",
                    "--n_grid",
                    "[8]",
                    "--output_dir",
                    str(out2),
                ]
            )
            == 0
        )
        rows = read_results_csv(out2 / "results.csv")
        assert len(rows) == 2

    def test_output_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before the grid, so no cell runs in vain
        out = tmp_path / "out"
        out.write_text("")
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("grid ran"))
        assert main(["run", str(small_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: cannot write {out}: ")

    def test_summarize_into_missing_dir(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        write_results_csv([], results)
        out = tmp_path / "missing" / "s.csv"
        assert main(["summarize", str(results), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: cannot write {out}: ")

    def test_export_weights_into_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        argv = ["export-weights", str(small_config(tmp_path)), "--sampler", "uniform", "--n", "5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_committed_config_runs(self, tmp_path, path):
        # every shipped config, every sampler kind in it, end to end at a small K
        argv = ["run", str(path), "--K", "300", "--replicates", "1", "--test_size", "200",
                "--output_dir", str(tmp_path)]
        assert main(argv) == 0
        rows = read_results_csv(tmp_path / "results.csv")
        cfg = load_config(path)
        assert all(r["status"] == "ok" for r in rows)
        assert sorted((r["sampler"], r["N"]) for r in rows) == sorted(
            (spec.label, n) for spec in cfg.specs for n in cfg.n_grid
        )

    def test_config_error_exit_code(self, tmp_path):
        config_path = small_config(tmp_path, benchmark="not-a-benchmark")
        assert main(["run", str(config_path)]) == 1

    def test_include_poly_is_an_unknown_field(self, tmp_path, capsys):
        # every model carries its polynomial block; the old switch is rejected
        assert main(["run", str(small_config(tmp_path, include_poly=True))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown config fields" in err and "include_poly" in err

    def test_psi_table_resolution_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the table is built before any cell starts, so no cell can record it
        monkeypatch.setattr("gradfeat.activation.END_DECAY_TOL", -1.0)
        monkeypatch.setattr("gradfeat.activation.MAX_TABLE_POINTS", 2**12)
        assert main(["run", str(small_config(tmp_path, samplers=["integral-density"]))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: psi table") and "does not decay" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "CONFIG", "--include_poly", "true"],
            ["run", "CONFIG", "--bogus", "1"],
            ["frobnicate"],
            [],
            ["export-weights", "CONFIG", "--sampler", "uniform"],
            ["export-weights", "CONFIG", "--sampler", "uniform", "--n", "ten"],
        ],
        ids=["include_poly_flag", "unknown_flag", "unknown_command", "no_command",
             "export_without_n", "export_n_not_int"],
    )
    def test_usage_error_exit_code(self, tmp_path, argv):
        # 2 is left to mean that a run finished with failed cells
        config_path = str(small_config(tmp_path))
        assert main([config_path if a == "CONFIG" else a for a in argv]) == 1

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, names",
        [(None, "No such file"), ("benchmark,sampler\ngauss1d,uniform\n", "'d'"),
         (",".join(CSV_COLUMNS) + "\ngauss1d,1,uniform\n", "3 fields"),
         (",".join(CSV_COLUMNS) + "\n" + ",".join(["x"] * len(CSV_COLUMNS)) + "\n", "'x'"),
         (",".join(CSV_COLUMNS) + "\ngauss1d,1,uniform,8,0,0.1,0.2,0.3,,,1.5,ok\n",
          "an ok row has no test_rmse")],
        ids=["missing", "no_d_column", "short_row", "bad_int", "ok_without_test_rmse"],
    )
    def test_summarize_unreadable_results(self, tmp_path, capsys, content, names):
        path = tmp_path / "results.csv"
        if content is not None:
            path.write_text(content)
        assert main(["summarize", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: cannot read results {path}") and names in err

    @pytest.mark.parametrize(
        "flags, names",
        [
            (["--activation.s", "3"], "activation"),
            (["--activation.delta", "-1"], "activation"),
            (["--activation.delta", "1e400"], "activation"),
            (["--delta_w", "1e400", "--samplers", '["nonlocal-gradient"]'], "delta_w"),
            (["--n_grid", "[0]"], "n_grid"),
            (["--K", "0"], "K"),
            (["--alpha_grid", "[]"], "alpha_grid"),
            (["--alpha_grid", "[0]"], "alpha_grid"),
            (["--alpha_grid", "[NaN]"], "alpha_grid"),
            (["--sampling", "bogus"], "sampling"),
            (["--test_size", "0"], "test_size"),
            (["--alpha_grid", "[1e-6,1e-3,1]"], "alpha_grid"),
            (["--alpha_grid", "[1,1]"], "alpha_grid"),
            (["--K", "1e3"], "K"),
            (["--replicates", "1.5"], "replicates"),
            (["--test_size", "2.5"], "test_size"),
            (["--master_seed", "-1"], "master_seed"),
            (["--n_grid", "[10,10]"], "n_grid"),
            (["--workers", "0"], "workers"),
            (["--include_poly", '"false"'], "include_poly"),
            (["--noise_sigma", "-0.1"], "noise_sigma"),
            (["--noise_sigma", "NaN"], "noise_sigma"),
            (["--samplers", "[]"], "samplers"),
            (["--activation.s", "true"], "s must be an integer"),
            (["--activation.s", "1.0"], "s must be an integer"),
            (["--activation.delta", "true"], "delta must be a number"),
            (["--activation.delta", "abc"], "delta must be a number, got 'abc'"),
            (["--delta_w", "true"], "delta_w"),
            (["--delta_w", "abc"], "delta_w"),
            (["--alpha_grid", "[true]"], "alpha_grid"),
            (["--samplers", "uniform"], "samplers"),
            (["--samplers", '[{"kind": "integral-density", "order_m": true}]',
              "--activation.s", "2"], "order_m"),
            (["--samplers", '[{"kind": "nonlocal-gradient", "delta_w": true}]'], "delta_w"),
            (["--samplers", '[{"kind": "integral-density", "safety": 1.5}]'], "safety"),
            (["--samplers", '[{"kind": "residual", "kappa": 2.0}]'], "kappa"),
            (["--samplers", '[{"kind": "residual", "n0": 8}]'], "n0"),
            (["--n_grid", "5"], "n_grid must be a list"),
            (["--benchmark", '["gauss1d"]'], "benchmark must be a string"),
            (["--output_dir", "5"], "output_dir must be a string"),
            (["--activation.delta", "0", "--samplers", '["integral-density"]'], "delta"),
            (["--activation.delta", "1e-300", "--samplers", '["integral-density"]'],
             "does not decay within"),
        ],
        ids=[
            "s", "delta", "delta_inf", "delta_w_inf", "n_grid", "K", "alpha_grid_empty",
            "alpha_grid_zero", "alpha_grid_nan", "sampling", "test_size", "alpha_grid_ascending",
            "alpha_grid_repeated", "K_float", "replicates_float", "test_size_float",
            "master_seed_negative", "n_grid_repeated", "workers_zero",
            "include_poly_string", "noise_sigma_negative", "noise_sigma_nan", "samplers_empty",
            "s_bool", "s_float", "delta_bool", "delta_string", "delta_w_bool", "delta_w_string",
            "alpha_grid_bool",
            "samplers_string", "order_m_bool", "nonlocal_delta_w_bool", "safety", "kappa", "n0",
            "n_grid_int", "benchmark_list", "output_dir_int", "integral_density_delta_zero",
            "psi_table_past_cap",
        ],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, flags, names):
        assert main(["run", str(small_config(tmp_path)), *flags]) == 1
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("activation", [None, [2, 0.01]], ids=["null", "list"])
    @pytest.mark.parametrize("flag", ["--activation.s", "--activation.delta"])
    def test_non_object_activation_with_flag(self, tmp_path, capsys, activation, flag):
        config_path = small_config(tmp_path, activation=activation)
        assert main(["run", str(config_path), flag, "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: activation must be a JSON object, got {activation!r}")

    @pytest.mark.parametrize("status", [None, "all-zero-gradients"], ids=["header_only", "failed"])
    def test_summarize_svg_without_ok_medians(self, tmp_path, capsys, status):
        # neither a header-only file nor one of failed cells has a median to plot
        rows = [] if status is None else [dict(
            dict.fromkeys(CSV_COLUMNS), benchmark="gauss1d", d=1, sampler="uniform", N=8,
            replicate=0, status=status,
        )]
        results = tmp_path / "results.csv"
        write_results_csv(rows, results)
        assert main(["summarize", str(results), "--svg"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert not (tmp_path / "summary.svg").exists()
        assert out[0] == f"wrote {tmp_path / 'summary.csv'} ({len(rows)} rows)"
        assert out[1].startswith(f"no chart written to {tmp_path / 'summary.svg'}: ")
        assert len(out) == 2

    @pytest.mark.parametrize("flags", [[], ["--K", "100"]], ids=["plain", "override"])
    @pytest.mark.parametrize("content", ["[1, 2]", '"x"'], ids=["list", "string"])
    def test_non_object_config_exit_code(self, tmp_path, capsys, content, flags):
        path = tmp_path / "config.json"
        path.write_text(content)
        assert main(["run", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: config {path} must hold a JSON object")

    @pytest.mark.parametrize("entry, key", BAD_SAMPLER_ENTRIES)
    def test_bad_sampler_entry_exit_code(self, tmp_path, capsys, entry, key):
        config_path = small_config(tmp_path, samplers=[entry], activation={"s": 2})
        assert main(["run", str(config_path)]) == 1
        assert key in capsys.readouterr().err

    def test_grid_size_exit_code(self, tmp_path):
        config_path = small_config(tmp_path, benchmark="planar_wave", d=2, K=1000)
        assert main(["run", str(config_path)]) == 1

    @pytest.mark.parametrize("command", ["run", "export-weights"])
    @pytest.mark.parametrize(
        "overrides, names",
        CONFIG_ERRORS_BEFORE_OUTPUT,
        ids=["unknown_benchmark", "unsupported_d", "grid_K", "colliding_labels", "bad_entry",
             "K_past_numpy", "grid_K_past_numpy", "test_size_past_numpy", "noise_sigma_past_bound"],
    )
    def test_config_error_before_output_dir(self, tmp_path, capsys, command, overrides, names):
        # the config decides all of these when it loads, so no directory is left behind
        argv = [command, str(small_config(tmp_path, **overrides))]
        if command == "export-weights":
            argv += ["--sampler", "uniform", "--n", "5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and names in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, flags, names",
        [
            ("gauss1d", ["--sampling", "uniform-random", "--K", str(10**26)], "K must be at most"),
            ("checkmark3", ["--K", "40", "--noise_sigma", "1e300"], "noise_sigma must be"),
            ("checkmark3", ["--K", "40", "--noise_sigma", "1e300",
                            "--samplers", '["uniform", "local-gradient"]'], "noise_sigma must be"),
        ],
        ids=["huge_K", "huge_noise", "huge_noise_two_samplers"],
    )
    def test_huge_size_or_noise_on_shipped_config(self, tmp_path, capsys, config, flags, names):
        # each once made a directory, then a traceback or rows of infinite errors
        path = CONFIGS[[p.stem for p in CONFIGS].index(config)]
        out = tmp_path / "out"
        argv = ["run", str(path), "--replicates", "1", "--output_dir", str(out), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and names in err
        assert not out.exists()

    def test_unallocatable_K_is_a_config_error(self, tmp_path, capsys):
        # numpy can index this K, but no machine can hold it, so its first array
        # fails at once; only the allocation decides this, after output_dir exists
        path = CONFIGS[[p.stem for p in CONFIGS].index("gauss1d")]
        argv = ["run", str(path), "--sampling", "uniform-random", "--K", "576460752303423488",
                "--replicates", "1", "--output_dir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and "allocate" in err

    def test_noise_sigma_at_its_bound_gives_finite_rows(self, tmp_path):
        # every sampler kind of the checkmark grid, residual fits included, on
        # targets of order 1e100: the squares of the errors stay finite
        path = CONFIGS[[p.stem for p in CONFIGS].index("checkmark3")]
        argv = ["run", str(path), "--K", "40", "--replicates", "1", "--n_grid", "[25]",
                "--test_size", "40", "--noise_sigma", str(cli.MAX_NOISE_SIGMA),
                "--output_dir", str(tmp_path)]
        assert main(argv) == 0
        rows = read_results_csv(tmp_path / "results.csv")
        assert len(rows) == 5 and all(r["status"] == "ok" for r in rows)
        for r in rows:
            assert all(np.isfinite(r[c]) for c in ("alpha", "train_rmse", "val_rmse", "test_rmse"))

    def test_fuzzed_config(self):
        # a fuzzed sampler entry also goes to export-weights, on the base config
        export_codes = []

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(target=st.sampled_from(FUZZ_TARGETS), value=FUZZ_VALUES)
        def fuzz(target, value):
            data = json.loads(json.dumps(FUZZ_BASE))
            if isinstance(target, int):
                data["samplers"][target] = value
            else:
                data[target] = value
            runs = [("run", data, [])]
            if isinstance(target, int):  # "=", as a value may start with "-"
                flags = [f"--sampler={json.dumps(value)}", "--n", "4"]
                runs.append(("export-weights", FUZZ_BASE, flags))
            with tempfile.TemporaryDirectory() as tmp:
                for command, config, flags in runs:
                    out = Path(tmp) / command
                    path = Path(tmp) / f"{command}.json"
                    path.write_text(json.dumps(dict(config, output_dir=str(out))))
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main([command, str(path), *flags])
                    assert code in (0, 1, 2)
                    if code == 1:
                        assert err.getvalue().count("\n") == 1
                        assert err.getvalue().startswith("config error: ")
                        assert not out.exists()
                    if command == "export-weights":
                        export_codes.append(code)
                        if code == 2:
                            assert err.getvalue().count("\n") == 1

        fuzz()
        assert 0 in export_codes  # the export leg leaves the config-error path

    def test_failed_cells_exit_code(self, tmp_path):
        config_path = small_config(
            tmp_path,
            samplers=[{"kind": "residual"}],
            activation={"s": 1, "delta": 0.0},
            n_grid=[12],
            replicates=1,
        )
        assert main(["run", str(config_path)]) == 2

    def test_run_line_says_whether_blas_is_pinned(self, tmp_path, capsys, monkeypatch):
        config_path = small_config(tmp_path, replicates=1)
        assert main(["run", str(config_path)]) == 0
        out = capsys.readouterr().out
        if _blas.threads() is not None:
            assert out.rstrip().endswith("(4 cells, 0 failed; 1 BLAS thread per cell)")
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        assert main(["run", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith(
            "(4 cells, 0 failed; BLAS threads not pinned (no OpenBLAS found))"
        )

    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "gauss1d" in out and "borehole" in out


class TestExportWeights:
    def test_line_count_and_determinism(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        path = export_weights(cfg, "uniform", 100, seed=0)
        lines = path.read_text().splitlines()
        assert len(lines) == 100
        again = export_weights(cfg, "uniform", 100, seed=0)
        assert path.read_text() == again.read_text()

    def test_planar_wave_gradient_directions(self, tmp_path):
        config_path = small_config(
            tmp_path, benchmark="planar_wave", d=2, sampling="uniform-random", K=200
        )
        cfg = load_config(config_path)
        path = export_weights(cfg, "local-gradient", 300, seed=1)
        rows = np.loadtxt(path)
        v = np.array([1.0, -np.sqrt(2.0)]) / np.sqrt(3.0)
        assert np.max(np.abs(np.abs(rows[:, :2] @ v) - 1.0)) < 1e-10

    def test_uniform_offsets_flat(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        path = export_weights(cfg, "uniform", 4000, seed=2)
        rows = np.loadtxt(path)
        counts, _ = np.histogram(rows[:, -1], bins=np.linspace(-1.0, 1.0, 11))
        assert chisquare(counts).pvalue > 0.01

    def test_residual_weights_are_the_runs(self, tmp_path, monkeypatch):
        # gauss1d is noisy, and its train noise is drawn after the test points:
        # the residual stages match the run only if the dataset does in full
        sampler = {"kind": "residual"}
        cfg = load_config(small_config(tmp_path, samplers=[sampler], n_grid=[20]))
        drawn = []
        run_draw = cli.draw

        def recording_draw(*args, **kwargs):
            neurons, rate = run_draw(*args, **kwargs)
            drawn.append(neurons)
            return neurons, rate

        monkeypatch.setattr(cli, "draw", recording_draw)
        run_experiment(cfg)  # serial: one draw per replicate, in order
        monkeypatch.undo()
        rows = np.loadtxt(export_weights(cfg, sampler, 20, seed=1))
        assert np.array_equal(rows[:, :1], drawn[1].a)
        assert np.array_equal(rows[:, 1], drawn[1].b)

    def test_residual_weights_do_not_depend_on_blas_threads(self, tmp_path):
        # residual stages fit the model, so their neurons read BLAS results
        config_path = small_config(
            tmp_path, benchmark="checkmark", d=3, K=2000, sampling="uniform-random",
            output_dir="out",
        )
        code = (
            "from gradfeat.cli import main; "
            f"raise SystemExit(main(['export-weights', {str(config_path)!r}, "
            "'--sampler', 'residual', '--n', '150', '--seed', '0']))"
        )
        texts = []
        for n in (1, 2):
            cwd = tmp_path / str(n)
            cwd.mkdir()
            run_script(code, cwd, OPENBLAS_NUM_THREADS=str(n))
            texts.append((cwd / "out" / "weights_residual-local-gradient_N150_seed0.txt").read_bytes())
        assert len(texts[0].splitlines()) == 150
        assert texts[0] == texts[1]

    def test_takes_a_json_sampler_entry(self, tmp_path):
        # as a config's sampler list does, e.g. corner_max's residual on nonlocal-gradient
        config_path = small_config(tmp_path)
        entry = '{"kind": "residual", "base": "nonlocal-gradient"}'
        argv = ["export-weights", str(config_path), "--sampler", entry, "--n", "20"]
        assert main(argv) == 0
        text = (tmp_path / "out" / "weights_residual-nonlocal-gradient_N20_seed0.txt").read_text()
        assert len(text.splitlines()) == 20
        sampler = {"kind": "residual", "base": "nonlocal-gradient"}
        again = export_weights(load_config(config_path), sampler, 20, seed=0)
        assert again.read_text() == text
        assert main(argv[:3] + ['"uniform"', "--n", "5"]) == 0

    def test_cell_error_exits_2_without_weights(self, tmp_path, capsys):
        # the draw that run records as a delta-zero cell: one line and exit 2,
        # as run exits, and no weight file
        config_path = small_config(
            tmp_path, benchmark="corner_max", d=2, K=300, sampling="uniform-random",
            samplers=["uniform"], activation={"s": 1, "delta": 0.0},
        )
        argv = ["export-weights", str(config_path), "--sampler", '"residual"', "--n", "20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("draw failed: delta-zero: ")
        assert list((tmp_path / "out").iterdir()) == []
        assert main(["run", str(config_path), "--samplers", '["residual"]', "--n_grid", "[20]",
                     "--replicates", "1"]) == 2
        assert read_results_csv(tmp_path / "out" / "results.csv")[0]["status"] == "delta-zero"

    @pytest.mark.parametrize("n, seed, names", [(0, 0, "n must be"), (5, -1, "seed must be")])
    def test_bad_n_or_seed_rejected(self, tmp_path, capsys, n, seed, names):
        config_path = small_config(tmp_path)
        with pytest.raises(ConfigError, match=names):
            export_weights(load_config(config_path), "uniform", n, seed)
        argv = ["export-weights", str(config_path), "--sampler", "uniform",
                "--n", str(n), "--seed", str(seed)]
        assert main(argv) == 1
        assert names in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_via_main(self, tmp_path):
        config_path = small_config(tmp_path)
        assert (
            main(
                ["export-weights", str(config_path), "--sampler", "local-gradient",
                 "--n", "50", "--seed", "3"]
            )
            == 0
        )
        out = tmp_path / "out" / "weights_local-gradient_N50_seed3.txt"
        assert out.exists()
        assert len(out.read_text().splitlines()) == 50
