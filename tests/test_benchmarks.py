import numpy as np
import pytest

from gradfeat.benchmarks import (
    GridSizeError,
    UnknownBenchmarkError,
    generate_dataset,
    huber,
    huber_prime,
    make_benchmark,
    supported_benchmarks,
)


class TestHuber:
    def test_branches(self):
        assert huber(0.3) == pytest.approx(0.09)
        assert huber(2.0) == pytest.approx(1.75)
        assert huber(-2.0) == pytest.approx(1.75)

    def test_c1_glue_at_half(self):
        eps = 1e-9
        assert huber(0.5 - eps) == pytest.approx(huber(0.5 + eps), abs=1e-8)
        assert huber_prime(0.5 - eps) == pytest.approx(huber_prime(0.5 + eps), abs=1e-8)


class TestValues:
    def test_gauss1d_peak(self):
        bench = make_benchmark("gauss1d")
        assert bench.f(np.array([[0.0]]))[0] == 1.0
        assert bench.noise_sigma == 0.05

    def test_corner_peak_origin(self):
        bench = make_benchmark("corner_peak", 3)
        assert bench.f(np.zeros((1, 3)))[0] == pytest.approx(10.0)

    def test_planar_wave_formula(self):
        bench = make_benchmark("planar_wave")
        x = np.array([[0.3, -0.1]])
        z = 0.3 + np.sqrt(2.0) * 0.1
        assert bench.f(x)[0] == pytest.approx(np.sin(5.0 * z))

    def test_corner_max_values(self):
        bench = make_benchmark("corner_max")
        X = np.array([[-0.3, -0.2], [0.4, 0.1], [0.1, 0.5]])
        assert np.allclose(bench.f(X), [0.0, 0.4, 0.5])

    def test_robot_arm_known_configs(self):
        bench = make_benchmark("robot_arm", 6)
        straight = np.array([[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
        assert bench.f(straight)[0] == pytest.approx(3.0)
        folded = np.array([[1.0, 0.0, 1.0, np.pi, 1.0, 0.0]])
        assert bench.f(folded)[0] == pytest.approx(1.0)

    def test_borehole_against_direct_formula(self):
        bench = make_benchmark("borehole")
        x = np.array([[0.1, 25050.0, 89335.0, 1050.0, 89.55, 760.0, 1400.0, 10950.0]])
        rw, r, Tu, Hu, Tl, Hl, L, Kw = x[0]
        ln = np.log(r / rw)
        expect = (
            2.0 * np.pi * Tu * (Hu - Hl)
            / (ln * (1.0 + 2.0 * L * Tu / (ln * rw**2 * Kw) + Tu / Tl))
        )
        assert bench.f(x)[0] == pytest.approx(expect, rel=1e-12)

    def test_checkmark_peak_on_manifold(self):
        # along x2 = 0 the ridge of the checkmark sits at x1 = H(0) = -1/3
        bench = make_benchmark("checkmark", 2)
        assert bench.f(np.array([[-1.0 / 3.0, 0.0]]))[0] == pytest.approx(1.0)


def test_all_benchmarks_pass_fd_validation():
    # make_benchmark runs the central-difference check on construction
    for name, dims in supported_benchmarks().items():
        for d in dims[:2]:
            make_benchmark(name, d)


def test_unknown_benchmark():
    with pytest.raises(UnknownBenchmarkError):
        make_benchmark("nope")
    with pytest.raises(UnknownBenchmarkError):
        make_benchmark("gauss1d", 2)


class TestGradientStructure:
    def test_planar_wave_rank_one(self):
        bench = make_benchmark("planar_wave")
        rng = np.random.default_rng(0)
        X = rng.uniform(bench.box[:, 0], bench.box[:, 1], (500, 2))
        s = np.linalg.svd(bench.grad(X), compute_uv=False)
        assert s[1] / s[0] <= 1e-12

    def test_checkmark_no_global_anisotropy(self):
        bench = make_benchmark("checkmark", 2)
        rng = np.random.default_rng(1)
        X = rng.uniform(bench.box[:, 0], bench.box[:, 1], (2000, 2))
        s = np.linalg.svd(bench.grad(X), compute_uv=False)
        assert s[-1] / s[0] >= 0.05

    def test_corner_max_three_gradients(self):
        bench = make_benchmark("corner_max")
        rng = np.random.default_rng(2)
        X = rng.uniform(bench.box[:, 0], bench.box[:, 1], (1000, 2))
        X = X[bench.smooth_mask(X)]
        G = bench.grad(X)
        uniq = np.unique(G, axis=0)
        allowed = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        assert {tuple(row) for row in uniq} <= allowed


class TestGenerateDataset:
    def test_grid_abscissas_1d(self):
        bench = make_benchmark("gauss1d")
        rng = np.random.default_rng(3)
        # raw abscissas {-1, -0.5, 0, 0.5, 1} map to themselves (box is the cube)
        train, _, _ = generate_dataset(bench, 10, "grid", rng=rng, test_size=10)
        assert train.X.shape == (10, 1)
        train5, _, _ = generate_dataset(bench, 10, "grid", noise_sigma=0.0, rng=rng, test_size=10)
        # check with K=10 via direct spacing; the 5-point case:
        from gradfeat.benchmarks import _grid_points

        pts = _grid_points(np.array([[-1.0, 1.0]]), 5).ravel()
        assert np.allclose(pts, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_grid_needs_exact_power(self):
        bench = make_benchmark("planar_wave")
        with pytest.raises(GridSizeError, match=r"\[961, 1024\]"):
            generate_dataset(bench, 1000, "grid", rng=np.random.default_rng(3), test_size=10)
        train, val, _ = generate_dataset(
            bench, 1024, "grid", rng=np.random.default_rng(3), test_size=10
        )
        assert train.n_points == val.n_points == 1024

    def test_noise_free_targets(self):
        bench = make_benchmark("planar_wave")
        rng = np.random.default_rng(4)
        train, val, test = generate_dataset(bench, 50, noise_sigma=0.0, rng=rng, test_size=30)
        # identity standardization for the side-sqrt(2) box
        assert np.allclose(train.y, bench.f(train.X))
        assert np.allclose(test.y, bench.f(test.X))
        assert test.n_points == 30

    def test_noise_on_train_and_val_only(self):
        bench = make_benchmark("gauss1d")
        rng = np.random.default_rng(5)
        train, val, test = generate_dataset(bench, 100, "grid", rng=rng, test_size=50)
        assert not np.allclose(train.y, bench.f(train.X))
        f_test = bench.f(test.X * 1.0)  # identity transform in 1-d
        assert np.allclose(test.y, f_test)

    def test_gradient_chain_rule(self):
        # stored gradients differentiate the standardized function
        bench = make_benchmark("corner_peak", 3)
        rng = np.random.default_rng(6)
        train, _, _ = generate_dataset(bench, 50, noise_sigma=0.0, rng=rng, test_size=10)
        from gradfeat.geometry import standardize

        _, tf = standardize(np.zeros((1, 3)), bench.box)
        h = 1e-6
        for j in range(3):
            Zp, Zm = train.X.copy(), train.X.copy()
            Zp[:, j] += h
            Zm[:, j] -= h
            fd = (bench.f(tf.inverse(Zp)) - bench.f(tf.inverse(Zm))) / (2.0 * h)
            scale = np.maximum(np.abs(train.G[:, j]), np.median(np.abs(train.G)))
            assert np.max(np.abs(fd - train.G[:, j]) / scale) < 1e-5

    def test_hessians_on_request(self):
        bench = make_benchmark("checkmark", 2)
        rng = np.random.default_rng(7)
        train, _, _ = generate_dataset(
            bench, 40, noise_sigma=0.0, rng=rng, test_size=10, with_hessians=True
        )
        assert train.H.shape == (40, 2, 2)
        assert np.max(np.abs(train.H - np.transpose(train.H, (0, 2, 1)))) <= 1e-10

    def test_points_inside_unit_ball(self):
        for name, d in [("borehole", 8), ("robot_arm", 6), ("corner_peak", 4)]:
            bench = make_benchmark(name, d)
            rng = np.random.default_rng(8)
            train, _, _ = generate_dataset(bench, 100, rng=rng, test_size=10)
            assert np.max(np.linalg.norm(train.X, axis=1)) <= 1.0 + 1e-9
            assert train.R == 1.0

    def test_rho_is_uniform_density(self):
        bench = make_benchmark("planar_wave")
        rng = np.random.default_rng(9)
        train, _, _ = generate_dataset(bench, 30, rng=rng, test_size=10)
        side = np.sqrt(2.0)
        assert np.allclose(train.rho, 1.0 / side**2)
