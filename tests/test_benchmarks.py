import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfeat.benchmarks import (
    Benchmark,
    GridSizeError,
    UnknownBenchmarkError,
    generate_dataset,
    grid_side,
    huber,
    huber_prime,
    make_benchmark,
    supported_benchmarks,
)

EPS = np.finfo(float).eps


def raw_points(bench, Z):
    """The raw coordinates of standardized points: the inverse of
    ``z = (x - center) * scale`` with ``scale = (2 / sqrt(d)) / width``."""
    lo, hi = bench.box[:, 0], bench.box[:, 1]
    return Z * (hi - lo) * (np.sqrt(bench.dim) / 2.0) + 0.5 * (lo + hi)


def fd_jacobian(grad, X, h):
    """Central differences of ``grad`` at the rows of ``X``: ``J[:, i, j] = d grad_i / d x_j``."""
    J = np.empty(X.shape + (X.shape[1],))
    for j in range(X.shape[1]):
        step = np.zeros(X.shape[1])
        step[j] = h[j]
        J[:, :, j] = (grad(X + step) - grad(X - step)) / (2.0 * h[j])
    return J


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
    def test_rng_is_required(self):
        # an unseeded fallback would make the draw irreproducible
        with pytest.raises(TypeError, match="rng"):
            generate_dataset(make_benchmark("gauss1d"), 10, test_size=10)

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

    def test_grid_points_1d_are_linspace(self):
        # one axis through the d-dimensional meshgrid path keeps its bits
        from gradfeat.benchmarks import _grid_points

        half = np.sqrt(2.0) / 2.0
        for lo, hi in [(-1.0, 1.0), (0.05, 0.15), (-half, half)]:
            for K in (10, 11, 100, 1000, 4097):
                pts = _grid_points(np.array([[lo, hi]]), K)
                assert pts.shape == (K, 1)
                ref = np.linspace(lo, hi, K)
                assert np.array_equal(pts[:, 0].view(np.int64), ref.view(np.int64))

    def test_grid_needs_exact_power(self):
        bench = make_benchmark("planar_wave")
        with pytest.raises(GridSizeError, match=r"\[961, 1024\]"):
            generate_dataset(bench, 1000, "grid", rng=np.random.default_rng(3), test_size=10)
        train, val, _ = generate_dataset(
            bench, 1024, "grid", rng=np.random.default_rng(3), test_size=10
        )
        assert len(train.X) == len(val.X) == 1024

    @pytest.mark.parametrize(
        "K, d, m",
        [
            (2**53 + 1, 1, 2**53 + 1),  # a float root rounds this to 2**53
            (10**26, 1, 10**26),
            ((2**53 + 1) ** 2, 2, 2**53 + 1),
            (3**40, 20, 9),
            (10**400, 2, 10**200),  # past the largest double
        ],
        ids=["1d_past_2_53", "1d_1e26", "2d_root_past_2_53", "20d", "past_float_range"],
    )
    def test_grid_side_exact_past_2_53(self, K, d, m):
        assert grid_side(K, d) == m

    def test_grid_side_nearest_counts_past_2_53(self):
        m = 2**53 + 1
        nearest = rf"\[{m**2}, {(m + 1) ** 2}\]"
        with pytest.raises(GridSizeError, match=nearest):
            grid_side(m**2 + 1, 2)
        with pytest.raises(GridSizeError, match=rf"\[{(m - 1) ** 2}, {m**2}\]"):
            grid_side(m**2 - 1, 2)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 10**6), st.integers(1, 6))
    def test_grid_side_is_the_exact_root(self, m, d):
        assert grid_side(m**d, d) == m
        if d > 1:
            with pytest.raises(GridSizeError, match=rf"\[{m**d}, {(m + 1) ** d}\]"):
                grid_side(m**d + 1, d)

    def test_noise_free_targets(self):
        bench = make_benchmark("planar_wave")
        rng = np.random.default_rng(4)
        train, val, test = generate_dataset(bench, 50, noise_sigma=0.0, rng=rng, test_size=30)
        # identity standardization for the side-sqrt(2) box
        assert np.allclose(train.y, bench.f(train.X))
        assert np.allclose(test.y, bench.f(test.X))
        assert len(test.X) == 30

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
        h = 1e-6
        for j in range(3):
            Zp, Zm = train.X.copy(), train.X.copy()
            Zp[:, j] += h
            Zm[:, j] -= h
            fd = (bench.f(raw_points(bench, Zp)) - bench.f(raw_points(bench, Zm))) / (2.0 * h)
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

    @pytest.mark.parametrize("name, d", [("corner_peak", 3), ("checkmark", 2)])
    def test_stored_hessians_match_gradient_differences(self, name, d):
        # corner_peak stores its analytic hess, checkmark the finite-difference
        # fallback; both are divided by outer(scale, scale) and must match
        # central differences of the stored (standardized) gradient
        bench = make_benchmark(name, d)
        train, _, _ = generate_dataset(
            bench, 60, noise_sigma=0.0, rng=np.random.default_rng(9), test_size=10,
            with_hessians=True,
        )
        scale = (2.0 / np.sqrt(d)) / (bench.box[:, 1] - bench.box[:, 0])
        keep = np.ones(60, bool)
        if bench.smooth_mask is not None:
            keep = bench.smooth_mask(raw_points(bench, train.X))
        Z, H = train.X[keep], train.H[keep]
        assert Z.shape[0] >= 50

        def grad_std(Z):
            return bench.grad(raw_points(bench, Z)) / scale

        J = fd_jacobian(grad_std, Z, np.full(d, 1e-6))
        assert np.max(np.abs(J - H)) <= 1e-5 * np.max(np.abs(H))


@pytest.mark.parametrize("name, d", [("gauss1d", 1), ("planar_wave", 2), ("corner_peak", 3)])
def test_analytic_hessians_match_gradient_differences(name, d):
    bench = make_benchmark(name, d)
    lo, hi = bench.box[:, 0], bench.box[:, 1]
    X = np.random.default_rng(10).uniform(lo, hi, (200, d))
    H = bench.hess(X)
    J = fd_jacobian(bench.grad, X, 1e-6 * (hi - lo))
    assert np.max(np.abs(J - H)) <= 1e-6 * np.max(np.abs(H))


class TestStandardize:
    """``generate_dataset`` maps the box onto the centered cube of side 2/sqrt(d)."""

    def test_midpoint_to_origin(self):
        bench = make_benchmark("corner_peak", 1)  # box [0, 1]
        train, _, _ = generate_dataset(bench, 11, "grid", rng=np.random.default_rng(0), test_size=1)
        assert train.X[5, 0] == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(train.X[[0, -1], 0], [-1.0, 1.0])

    def test_corner_on_unit_sphere(self):
        bench = make_benchmark("corner_peak", 4)  # box [0, 1]^4; the 3^4 grid holds its corners
        train, _, _ = generate_dataset(bench, 81, "grid", rng=np.random.default_rng(0), test_size=1)
        norms = np.linalg.norm(train.X, axis=1)
        corners = np.all(np.abs(train.X) == 0.5, axis=1)
        assert corners.sum() == 16
        assert np.allclose(norms[corners], 1.0, rtol=0.0, atol=1e-12)
        assert np.max(norms) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        lo=st.floats(-1e3, 1e3),
        log_width=st.floats(-3.0, 3.0),
    )
    def test_gradient_chain_rule_property(self, seed, d, lo, log_width):
        # f(x) = w.x is linear, so f(x(z)) is linear in z with the stored
        # gradient, and differences of targets are exact up to rounding
        rng = np.random.default_rng(seed)
        lows = lo + rng.uniform(-1.0, 1.0, d)
        box = np.stack([lows, lows + 10.0**log_width * rng.uniform(0.5, 2.0, d)], axis=1)
        w = rng.standard_normal(d)
        bench = Benchmark("linear", d, box, lambda X: X @ w, lambda X: np.tile(w, (len(X), 1)))
        train, _, _ = generate_dataset(bench, 10, rng=rng, test_size=10)
        assert np.max(np.linalg.norm(train.X, axis=1)) <= 1.0 + 1e-12
        dz = train.X[1:] - train.X[0]
        dy = train.y[1:] - train.y[0]
        scale = np.abs(w) @ np.abs(box).sum(axis=1)
        assert np.all(np.abs(dy - np.sum(train.G[1:] * dz, axis=1)) <= 16 * EPS * scale)

    @pytest.mark.parametrize(
        "box",
        [[[0.0, 1.0], [2.0, 2.0]], [[0.0, 1.0], [3.0, 2.0]], [[0.0, 1.0], [0.0, np.inf]],
         [[0.0, np.nan], [0.0, 1.0]], [[0.0, 1.0]], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]],
        ids=["empty", "inverted", "inf", "nan", "one_row", "three_columns"],
    )
    def test_bad_box_rejected(self, box):
        with pytest.raises(ValueError, match="lopsided: box must be 2 finite rows"):
            Benchmark("lopsided", 2, np.array(box), lambda X: X[:, 0], lambda X: X)
