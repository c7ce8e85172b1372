import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gradfeat import cli
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
)


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
        assert cfg.delta_w == pytest.approx(2.0 / 80.0)
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

    def test_sampler_entries(self):
        cfg = ExperimentConfig(benchmark="gauss1d", d=1, n_grid=[5])
        spec = parse_sampler_entry("nonlocal-gradient", cfg)
        assert spec.delta_w == cfg.delta_w
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
        # residual sampling with delta = 0 fails per cell with delta-zero
        cfg = load_config(
            small_config(
                tmp_path,
                samplers=["uniform", {"kind": "residual", "n0": 4}],
                activation={"s": 1, "delta": 0.0},
                n_grid=[12],
                replicates=1,
            )
        )
        rows = run_experiment(cfg)
        by_sampler = {r["sampler"]: r for r in rows}
        assert by_sampler["uniform"]["status"] == "ok"
        assert by_sampler["residual-local-gradient"]["status"] == "delta-zero"
        assert by_sampler["residual-local-gradient"]["test_rmse"] is None

    def test_worker_pool_preserves_determinism(self, tmp_path):
        cfg1 = load_config(small_config(tmp_path))
        cfg2 = load_config(small_config(tmp_path, workers=3))
        rows1 = run_experiment(cfg1)
        rows2 = run_experiment(cfg2)
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
        for r1, r2 in zip(rows1, rows2):
            assert r1["test_rmse"] == r2["test_rmse"]


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
            ),
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


class TestMain:
    def test_run_and_summarize_roundtrip(self, tmp_path):
        config_path = small_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        results = tmp_path / "out" / "results.csv"
        assert results.exists()
        assert main(["summarize", str(results), "--svg"]) == 0
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

    def test_config_error_exit_code(self, tmp_path):
        config_path = small_config(tmp_path, benchmark="not-a-benchmark")
        assert main(["run", str(config_path)]) == 1

    def test_grid_size_exit_code(self, tmp_path):
        config_path = small_config(tmp_path, benchmark="planar_wave", d=2, K=1000)
        assert main(["run", str(config_path)]) == 1

    def test_failed_cells_exit_code(self, tmp_path):
        config_path = small_config(
            tmp_path,
            samplers=[{"kind": "residual", "n0": 4}],
            activation={"s": 1, "delta": 0.0},
            n_grid=[12],
            replicates=1,
        )
        assert main(["run", str(config_path)]) == 2

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
        sampler = {"kind": "residual", "n0": 4}
        cfg = load_config(small_config(tmp_path, samplers=[sampler], n_grid=[20]))
        drawn = []
        run_draw = cli.draw

        def recording_draw(*args, **kwargs):
            result = run_draw(*args, **kwargs)
            drawn.append(result.neurons)
            return result

        monkeypatch.setattr(cli, "draw", recording_draw)
        run_experiment(cfg)  # serial: one draw per replicate, in order
        monkeypatch.undo()
        rows = np.loadtxt(export_weights(cfg, sampler, 20, seed=1))
        assert np.array_equal(rows[:, :1], drawn[1].a)
        assert np.array_equal(rows[:, 1], drawn[1].b)

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
