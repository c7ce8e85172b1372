import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradfeat import _blas, regression
from gradfeat.activation import ActivationSpec, eval_activation
from gradfeat.benchmarks import generate_dataset, make_benchmark
from gradfeat.geometry import NeuronSet
from gradfeat.regression import (
    DEFAULT_ALPHA_GRID,
    NonsmoothModelError,
    RidgeModel,
    _ridge_path,
    cross_validate,
    eval_model,
    eval_model_gradient,
    feature_matrix,
    poly_width,
    ridge_solve,
    rmse,
)
from gradfeat.samplers import DataSet, sample_local_gradient, sample_uniform

HEAVISIDE = ActivationSpec(1, 0.0)
SIGMOID = ActivationSpec(1, 1.0 / 80.0)
RELU = ActivationSpec(2, 0.0)
SOFTPLUS = ActivationSpec(2, 1.0 / 40.0)


def random_problem(rng, K=200, N=50, d=3, activation=SIGMOID):
    ds = DataSet(X=rng.uniform(-0.5, 0.5, (K, d)), y=rng.standard_normal(K))
    neurons = sample_uniform(ds, N, rng)
    return ds, neurons


class TestFeatureMatrix:
    def test_heaviside_entries_binary(self):
        rng = np.random.default_rng(0)
        ds, neurons = random_problem(rng, activation=HEAVISIDE)
        phi = feature_matrix(ds.X, neurons, HEAVISIDE)[:, :len(neurons)]
        assert set(np.unique(phi)) <= {0.0, 1.0}

    def test_relu_single_neuron(self):
        neurons = NeuronSet(np.array([[1.0, 0.0]]), np.array([0.0]))
        phi = feature_matrix(np.array([[2.0, 5.0]]), neurons, RELU)[:, :1]
        assert phi[0, 0] == 2.0

    def test_columns_match_activation(self):
        rng = np.random.default_rng(1)
        ds, neurons = random_problem(rng)
        phi = feature_matrix(ds.X, neurons, SIGMOID)[:, :len(neurons)]
        n = 7
        from gradfeat.activation import eval_activation

        expect = eval_activation(SIGMOID, ds.X @ neurons.a[n] + neurons.b[n])
        assert np.allclose(phi[:, n], expect)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 40),
        N=st.integers(1, 30),
        d=st.integers(1, 4),
        activation=st.sampled_from([HEAVISIDE, SIGMOID, RELU, SOFTPLUS]),
    )
    def test_matches_stacked_columns_bits(self, seed, K, N, d, activation):
        # the activations and polynomial columns built in place are the bits
        # of the pre-activation sum, activation and column stack built apart
        rng = np.random.default_rng(seed)
        ds, neurons = random_problem(rng, K=K, N=N, d=d)
        phi = feature_matrix(ds.X, neurons, activation)
        ref = np.hstack([
            eval_activation(activation, ds.X @ neurons.a.T + neurons.b),
            _poly_block(ds.X, poly_width(activation, d)),
        ])
        assert phi.shape == ref.shape
        assert np.array_equal(phi.view(np.int64), ref.view(np.int64))

    def test_poly_block_widths(self):
        assert poly_width(HEAVISIDE, 3) == 1
        assert poly_width(RELU, 3) == 4


class TestRidgeSolve:
    def test_scalar_instance(self):
        # objective (c-2)^2/2 + c^2/2 is stationary at c = 1
        c = ridge_solve(np.array([[1.0]]), np.array([2.0]), 1.0)
        assert c[0] == pytest.approx(1.0, rel=1e-12)

    def test_large_alpha_shrinks(self):
        rng = np.random.default_rng(2)
        phi = rng.standard_normal((50, 10))
        y = rng.standard_normal(50)
        alpha = 1e8
        c = ridge_solve(phi, y, alpha)
        bound = np.linalg.norm(phi.T @ y) / (alpha * 10 * 50)
        assert np.linalg.norm(c) <= bound

    @pytest.mark.parametrize("N", [50, 400])
    def test_primal_dual_agree(self, N):
        rng = np.random.default_rng(3)
        K = 200
        phi = rng.standard_normal((K, N))
        y = rng.standard_normal(K)
        c_primal = ridge_solve(phi[:, :N], y, 1e-3)
        # the N x N (primal) and K x K (dual) normal equations give one answer
        F = phi
        A = (F.T @ F) / K + 1e-3 * N * np.eye(N)
        c_ref = np.linalg.solve(A, F.T @ y / K)
        assert np.allclose(c_primal, c_ref, rtol=1e-8, atol=1e-12)
        B = (F @ F.T) / N + 1e-3 * K * np.eye(K)
        c_dual = F.T @ np.linalg.solve(B, y) / N
        assert np.allclose(c_primal, c_dual, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("N", [40, 100])
    def test_poly_block_matches_normal_equations(self, N):
        # with N below and above K, the solve must agree with the dense block
        # system in which only the neuron coefficients are penalized
        rng = np.random.default_rng(4)
        K, p = 60, 3
        alpha = 1e-4
        F = rng.standard_normal((K, N))
        P = np.hstack([np.ones((K, 1)), rng.standard_normal((K, p - 1))])
        y = rng.standard_normal(K)
        c = ridge_solve(np.hstack([F, P]), y, alpha, n_poly=p)
        reg = np.zeros((N + p, N + p))
        reg[:N, :N] = alpha * N * np.eye(N)
        phi = np.hstack([F, P])
        ref = np.linalg.solve(phi.T @ phi / K + reg, phi.T @ y / K)
        assert np.allclose(c, ref, rtol=1e-7, atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.array([[np.nan]]), np.array([1.0]), 1.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.array([[1.0]]), np.array([1.0]), 0.0)

    def test_objective_stationarity(self):
        # finite-difference gradient of the ridge objective vanishes at the fit
        rng = np.random.default_rng(5)
        K, N = 80, 30
        phi = rng.standard_normal((K, N))
        y = rng.standard_normal(K)
        alpha = 1e-4
        c = ridge_solve(phi, y, alpha)

        def objective(coef):
            r = phi @ coef - y
            return float(r @ r) / (2 * K) + 0.5 * alpha * N * float(coef @ coef)

        base = objective(c)
        h = 1e-6
        for n in range(0, N, 7):
            e = np.zeros(N)
            e[n] = h
            fd = (objective(c + e) - objective(c - e)) / (2 * h)
            assert abs(fd) <= 1e-6 * max(base, 1.0)

    def test_train_error_monotone_in_alpha(self):
        rng = np.random.default_rng(6)
        K, N = 100, 40
        phi = rng.standard_normal((K, N))
        y = rng.standard_normal(K)
        errors = [
            rmse(phi @ ridge_solve(phi, y, a), y) for a in sorted(DEFAULT_ALPHA_GRID)
        ]
        assert np.all(np.diff(errors) >= -1e-10)

    def test_kernel_ridge_equivalence(self):
        # predictions via the N x N solve equal kernel ridge with (1/N) Phi Phi^T
        rng = np.random.default_rng(7)
        ds, neurons = random_problem(rng, K=150, N=60)
        alpha = 1e-5
        phi = feature_matrix(ds.X, neurons, SIGMOID)[:, :len(neurons)]
        c = ridge_solve(phi, ds.y, alpha)
        X_test = rng.uniform(-0.5, 0.5, (30, 3))
        phi_test = feature_matrix(X_test, neurons, SIGMOID)[:, :len(neurons)]
        direct = phi_test @ c
        N = len(neurons)
        gram = phi @ phi.T / N
        u = np.linalg.solve(gram + alpha * len(ds.y) * np.eye(len(ds.y)), ds.y)
        via_kernel = (phi_test @ phi.T / N) @ u
        assert np.allclose(direct, via_kernel, rtol=1e-8, atol=1e-10)

    def test_polynomial_exactness_for_affine_targets(self):
        rng = np.random.default_rng(8)
        K, d = 120, 3
        X = rng.uniform(-0.5, 0.5, (K, d))
        y = 0.7 - 2.0 * X[:, 0] + 0.25 * X[:, 2]
        ds = DataSet(X=X, y=y)
        act = ActivationSpec(2, 1.0 / 40.0)
        neurons = sample_uniform(ds, 25, rng)
        phi = feature_matrix(X, neurons, act)
        c = ridge_solve(phi, y, 1e-10, n_poly=d + 1)
        X_new = rng.uniform(-0.5, 0.5, (200, d))
        y_new = 0.7 - 2.0 * X_new[:, 0] + 0.25 * X_new[:, 2]
        model = RidgeModel(neurons=neurons, c=c[:25], poly=c[25:], activation=act)
        assert rmse(eval_model(model, X_new), y_new) <= 1e-8


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _poly_block(X: np.ndarray, n_poly: int) -> np.ndarray:
    return np.hstack([np.ones((X.shape[0], 1)), X])[:, :n_poly]


class TestRidgeProperties:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(6, 40),
        N=st.integers(1, 80),
        d=st.integers(1, 4),
        poly=st.sampled_from(["none", "constant", "affine"]),
        log_alpha=st.floats(-6.0, 0.0),
    )
    def test_matches_projected_normal_equations(self, seed, K, N, d, poly, log_alpha):
        rng = np.random.default_rng(seed)
        n_poly = {"none": 0, "constant": 1, "affine": d + 1}[poly]
        alpha = 10.0**log_alpha
        F = rng.standard_normal((K, N))
        P = _poly_block(rng.uniform(-0.5, 0.5, (K, d)), n_poly)
        y = rng.standard_normal(K)
        coef = ridge_solve(np.hstack([F, P]), y, alpha, n_poly)

        Q = np.linalg.qr(P)[0]
        F_perp = F - Q @ (Q.T @ F)
        y_perp = y - Q @ (Q.T @ y)
        A = F_perp.T @ F_perp / K + alpha * N * np.eye(N)
        c_ref = np.linalg.solve(A, F_perp.T @ y_perp / K)
        np.testing.assert_allclose(coef[:N], c_ref, rtol=1e-8, atol=1e-12)
        if n_poly:
            q_ref = np.linalg.lstsq(P, y - F @ coef[:N], rcond=None)[0]
            np.testing.assert_allclose(coef[N:], q_ref, rtol=1e-8, atol=1e-12)

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(6, 40),
        N=st.integers(1, 60),
        d=st.integers(1, 4),
        poly=st.sampled_from(["none", "constant", "affine"]),
    )
    def test_polynomial_solve_matches_solve_triangular_bits(self, seed, K, N, d, poly):
        # np.linalg.solve on the upper-triangular R_pp is back substitution:
        # with exact zeros below the diagonal partial pivoting swaps no rows
        rng = np.random.default_rng(seed)
        p = {"none": 0, "constant": 1, "affine": d + 1}[poly]
        F = rng.standard_normal((K, N))
        P = _poly_block(rng.uniform(-0.5, 0.5, (K, d)), p)
        y = rng.standard_normal(K)
        coefs, _ = _ridge_path(np.hstack([F, P]), y, DEFAULT_ALPHA_GRID, p)

        R = np.linalg.qr(np.hstack([P, F, y[:, None]]), mode="r")
        R_pp = R[:p, :p]
        assert np.all(np.tril(R_pp, -1) == 0.0)
        ref = scipy.linalg.solve_triangular(R_pp, R[:p, -1:] - R[:p, p:-1] @ coefs[:N])
        assert ref.shape == coefs[N:].shape == (p, 25)
        assert np.array_equal(coefs[N:].view(np.int64), ref.view(np.int64))

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(6, 60),
        N=st.integers(1, 80),
        d=st.integers(1, 4),
        poly=st.sampled_from(["none", "constant", "affine"]),
    )
    def test_memory_order_does_not_change_bits(self, seed, K, N, d, poly):
        rng = np.random.default_rng(seed)
        p = {"none": 0, "constant": 1, "affine": d + 1}[poly]
        P = _poly_block(rng.uniform(-0.5, 0.5, (K, d)), p)
        phi = np.hstack([rng.standard_normal((K, N)), P])
        y = rng.standard_normal(K)
        coefs, sse = _ridge_path(np.ascontiguousarray(phi), y, DEFAULT_ALPHA_GRID, p)
        f_coefs, f_sse = _ridge_path(np.asfortranarray(phi), y, DEFAULT_ALPHA_GRID, p)
        assert np.array_equal(coefs.view(np.int64), f_coefs.view(np.int64))
        assert np.array_equal(sse.view(np.int64), f_sse.view(np.int64))

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(8, 60),
        N=st.integers(1, 80),
        d=st.integers(1, 3),
        activation=st.sampled_from([SIGMOID, RELU]),
    )
    def test_cross_validate_errors_match_single_solves(self, seed, K, N, d, activation):
        rng = np.random.default_rng(seed)
        train = DataSet(X=rng.uniform(-0.5, 0.5, (K, d)), y=rng.standard_normal(K))
        val = DataSet(X=rng.uniform(-0.5, 0.5, (K // 2, d)), y=rng.standard_normal(K // 2))
        neurons = sample_uniform(train, N, rng)
        _, report = cross_validate(train, val, neurons, activation)

        n_poly = poly_width(activation, d)
        phi_train = feature_matrix(train.X, neurons, activation)
        phi_val = feature_matrix(val.X, neurons, activation)
        phi_union = np.vstack([phi_train, phi_val])
        y_union = np.concatenate([train.y, val.y])
        for i, alpha in enumerate(report.alpha_grid):
            coef = ridge_solve(phi_train, train.y, alpha, n_poly)
            for phi, y, got in (
                (phi_train, train.y, report.train_rmse[i]),
                (phi_union, y_union, report.val_rmse[i]),
            ):
                # near alpha = 1e-12 the coefficients grow large and the
                # prediction is a cancelling sum, so two summation orders of
                # the same product may differ by a few ulps of its terms
                terms = rmse(np.abs(phi) @ np.abs(coef), 0.0)
                assert got == pytest.approx(rmse(phi @ coef, y), rel=1e-12, abs=1e-13 * terms)


def single_qr_path(phi, y, alphas, p):
    """The ridge path from one QR of the whole ``[P | F | y]``, without row blocks."""
    K, n = phi.shape[0], phi.shape[1] - p
    R = np.linalg.qr(np.hstack([phi[:, n:], phi[:, :n], y[:, None]]), mode="r")
    R_ff, r_fy = R[p:, p:-1], R[p:, -1]
    U, sv, Vt = np.linalg.svd(R_ff, full_matrices=False)
    filt = sv[:, None] / (sv[:, None] ** 2 + K * n * alphas)
    C = Vt.T @ (filt * (U.T @ r_fy)[:, None])
    sse = np.sum((r_fy[:, None] - R_ff @ C) ** 2, axis=0)
    q = np.linalg.solve(R[:p, :p], R[:p, -1:] - R[:p, p:-1] @ C)
    return np.vstack([C, q]), sse


def cube_problem(rng, K, N, d):
    """A random training set on the cube inscribed in the unit ball, and neurons."""
    ds = DataSet(X=rng.uniform(-1.0, 1.0, (K, d)) / np.sqrt(d), y=rng.standard_normal(K))
    return ds, sample_uniform(ds, N, rng)


class TestRowBlocks:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.sampled_from([20, 37, 49, 50, 51, 75, 99, 100, 101, 130, 149, 150, 151]),
        N=st.integers(1, 40),
        d=st.integers(1, 4),
        poly=st.sampled_from(["none", "constant", "affine"]),
    )
    def test_blocked_path_matches_single_qr(self, seed, K, N, d, poly):
        # one, two or three blocks of at most 50 rows against one QR of all rows
        rng = np.random.default_rng(seed)
        p = {"none": 0, "constant": 1, "affine": d + 1}[poly]
        phi = np.hstack([rng.standard_normal((K, N)), _poly_block(rng.uniform(-0.5, 0.5, (K, d)), p)])
        y = rng.standard_normal(K)
        assert len(regression._row_blocks(K, 50)) == -(-K // 50)
        with mock.patch.object(regression, "ROW_BLOCK", 50):
            coefs, sse = _ridge_path(phi, y, DEFAULT_ALPHA_GRID, p)
        ref, ref_sse = single_qr_path(phi, y, DEFAULT_ALPHA_GRID, p)
        if K <= 50:
            assert np.array_equal(coefs.view(np.int64), ref.view(np.int64))
            assert np.array_equal(sse.view(np.int64), ref_sse.view(np.int64))
        else:
            err = np.linalg.norm(coefs - ref, axis=0)
            assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=0))
            assert np.all(np.abs(sse - ref_sse) <= 1e-10 * (y @ y))

    def test_row_blocks_near_equal(self):
        assert regression._row_blocks(0, 50) == [(0, 0)]
        assert regression._row_blocks(50, 50) == [(0, 50)]
        assert regression._row_blocks(51, 50) == [(0, 25), (25, 51)]
        assert regression._row_blocks(101, 50) == [(0, 33), (33, 67), (67, 101)]

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 400), size=st.integers(2, 60))
    def test_row_blocks_partition(self, n, size):
        blocks = regression._row_blocks(n, size)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        heights = [hi - lo for lo, hi in blocks]
        assert max(heights) - min(heights) <= 1
        if n >= 2:
            assert min(heights) >= 2
        if size >= 3:
            assert max(heights) <= size
        k = -(-n // size)
        if n >= 1 and n // k >= 2:  # ceil(n / size) near-equal blocks hold 2 rows or more
            assert len(blocks) == k

    def test_nan_in_last_block_raises(self, monkeypatch):
        monkeypatch.setattr(regression, "ROW_BLOCK", 50)
        rng = np.random.default_rng(41)
        ds, neurons = random_problem(rng, K=120, N=10)
        phi = feature_matrix(ds.X, neurons, SIGMOID)
        phi[-1, 0] = np.nan
        with pytest.raises(ValueError, match="^non-finite inputs to ridge solve$"):
            ridge_solve(phi, ds.y, 1e-3, n_poly=1)
        y = ds.y.copy()
        y[-1] = np.nan
        with pytest.raises(ValueError, match="^non-finite inputs to ridge solve$"):
            cross_validate(DataSet(X=ds.X, y=y), ds, neurons, SIGMOID)

    def test_blocked_cross_validate_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(42)
        train, neurons = random_problem(rng, K=130, N=20)
        val, _ = random_problem(rng, K=120, N=1)
        whole_model, whole = cross_validate(train, val, neurons, RELU)
        monkeypatch.setattr(regression, "ROW_BLOCK", 50)
        model, report = cross_validate(train, val, neurons, RELU)
        assert report.chosen_index == whole.chosen_index
        # two R factors that agree to rounding; near alpha = 1e-12 the ReLU
        # features' condition number magnifies that to about 1e-9
        np.testing.assert_allclose(report.train_rmse, whole.train_rmse, rtol=1e-8)
        np.testing.assert_allclose(report.val_rmse, whole.val_rmse, rtol=1e-8)
        np.testing.assert_allclose(model.c, whole_model.c, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("act", [SIGMOID, RELU])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("N", [1, 25, 150, 192])
    def test_blocked_predictions_keep_bits(self, act, d, N):
        # on the one BLAS thread of a run, OpenBLAS rounds X @ a^T and the
        # product with the weights alike for any row count up to 192 neurons
        rng = np.random.default_rng(43)
        ds, neurons = cube_problem(rng, 5000, N, d)
        model = RidgeModel(neurons, rng.standard_normal(N),
                           rng.standard_normal(poly_width(act, d)), act)
        assert len(regression._row_blocks(5000, regression.ROW_BLOCK)) == 2
        with _blas.one_thread():
            whole = feature_matrix(ds.X, neurons, act) @ np.concatenate([model.c, model.poly])
            blocked = eval_model(model, ds.X)
        assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))

    def test_cross_validate_memory_bounded_by_blocks(self):
        # K=5000, d=8, N=300: whole feature matrices peaked at 49 MB
        rng = np.random.default_rng(44)
        train, neurons = cube_problem(rng, 5000, 300, 8)
        val, _ = cube_problem(rng, 5000, 1, 8)
        tracemalloc.start()
        try:
            cross_validate(train, val, neurons, SIGMOID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


def parent_stacked_r(rows, K, n_poly):
    """``R`` of the stacked block Rs as ``np.linalg.qr`` gave it before the
    in-place QR: numpy's copies of each design, and C-ordered stacked Rs."""
    Rs = [
        np.linalg.qr(regression._design_block(*rows(lo, hi), n_poly), mode="r")
        for lo, hi in regression._row_blocks(K, regression.ROW_BLOCK)
    ]
    return Rs[0] if len(Rs) == 1 else np.linalg.qr(np.vstack(Rs), mode="r")


class TestInPlaceQR:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 60),
        n=st.integers(0, 60),
        log_scale=st.integers(-600, 600),
        c_order=st.booleans(),
    )
    @example(seed=1, m=1, n=5, log_scale=0, c_order=False)
    @example(seed=2, m=7, n=0, log_scale=0, c_order=True)
    @example(seed=3, m=1, n=1, log_scale=-1000, c_order=False)
    @example(seed=4, m=400, n=302, log_scale=0, c_order=False)
    @example(seed=5, m=200, n=302, log_scale=0, c_order=True)
    def test_matches_numpy_qr_bytes(self, seed, m, n, log_scale, c_order):
        # m >= n and m < n, scales 2**k down to the subnormals' edge, C-ordered
        # input as np.linalg.qr got the stacked block Rs, and widths past the
        # 128 columns where LAPACK's dgeqrf starts to block by its workspace
        A = np.random.default_rng(seed).standard_normal((m, n)) * 2.0**log_scale
        A = np.ascontiguousarray(A) if c_order else np.asfortranarray(A)
        ref = np.linalg.qr(A, mode="r")
        R = regression._qr_r(A.copy(order="F"))
        assert R.shape == ref.shape and R.flags.c_contiguous == ref.flags.c_contiguous
        assert R.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("K", [120, 5000])
    def test_stacked_r_and_its_fallback_match_numpy_qr_bytes(self, monkeypatch, K):
        # one block, and two blocks whose Rs are stacked and factored again;
        # then with the binding gone, as where no OpenBLAS is found
        rng = np.random.default_rng(45)
        train, neurons = cube_problem(rng, K, 40, 3)
        n_poly = poly_width(SOFTPLUS, 3)

        def rows(lo, hi):
            return feature_matrix(train.X[lo:hi], neurons, SOFTPLUS), train.y[lo:hi]

        R = regression._stacked_r(rows, K, n_poly)
        assert R.tobytes() == parent_stacked_r(rows, K, n_poly).tobytes()
        monkeypatch.setattr(_blas, "geqrf", lambda: None)  # the one-line fallback
        assert regression._stacked_r(rows, K, n_poly).tobytes() == R.tobytes()

    def test_binding_found_wherever_openblas_is(self):
        # a wheel that drops dgeqrf fails here rather than taking numpy's copies
        assert _blas.threads() is None or _blas.geqrf() is not None

    def test_factoring_a_block_allocates_less_than_half_of_it(self):
        # np.linalg.qr copies the block first, so it allocates at least its size
        if _blas.geqrf() is None:
            pytest.skip("no OpenBLAS dgeqrf found")
        A = np.asfortranarray(np.random.default_rng(47).standard_normal((2500, 302)))
        tracemalloc.start()
        try:
            regression._qr_r(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 2

    def test_binding_refuses_arrays_it_cannot_factor_in_place(self):
        if _blas.geqrf() is None:
            pytest.skip("no OpenBLAS dgeqrf found")
        for A in (np.ones((4, 3)), np.ones((4, 3), dtype=np.float32, order="F")):
            with pytest.raises(ValueError, match="Fortran-ordered float64"):
                _blas.geqrf()(A)


class TestCrossValidate:
    def test_flat_curve_picks_largest_alpha(self):
        rng = np.random.default_rng(9)
        ds, neurons = random_problem(rng, K=50, N=10)
        zero = DataSet(X=ds.X, y=np.zeros(50))
        model, report = cross_validate(zero, zero, neurons, SIGMOID)
        assert report.chosen_index == 0
        assert report.alpha == DEFAULT_ALPHA_GRID[0]

    def test_single_element_grid(self):
        rng = np.random.default_rng(10)
        ds, neurons = random_problem(rng, K=50, N=10)
        model, report = cross_validate(ds, ds, neurons, SIGMOID, alpha_grid=[1e-3])
        assert report.alpha == 1e-3

    def test_grid_must_descend(self):
        rng = np.random.default_rng(11)
        ds, neurons = random_problem(rng, K=30, N=5)
        with pytest.raises(ValueError):
            cross_validate(ds, ds, neurons, SIGMOID, alpha_grid=[1e-6, 1e-3])

    def test_five_percent_rule(self):
        rng = np.random.default_rng(12)
        ds, neurons = random_problem(rng, K=100, N=20)
        model, report = cross_validate(ds, ds, neurons, SIGMOID)
        vmin = report.val_rmse.min()
        assert report.val_rmse[report.chosen_index] <= 1.05 * vmin
        # nothing at a larger alpha is also within the band
        assert np.all(report.val_rmse[: report.chosen_index] > 1.05 * vmin)

    def test_interior_alpha_on_noisy_bump(self):
        # pilot-derived check: the default grid brackets the optimum for the
        # 1-d noisy bump fitted from gradient-sampled features
        bench = make_benchmark("gauss1d")
        chosen = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            train, val, test = generate_dataset(
                bench, 1000, "grid", rng=rng, test_size=100
            )
            neurons = sample_local_gradient(train, 30, rng)
            _, report = cross_validate(train, val, neurons, SIGMOID)
            chosen.append(report.chosen_index)
        med = np.median(chosen)
        assert 0 < med < len(DEFAULT_ALPHA_GRID) - 1


class TestEvalModel:
    def make_model(self, rng, N=10, d=2, act=SIGMOID):
        ds = DataSet(X=rng.uniform(-0.5, 0.5, (40, d)), y=rng.standard_normal(40))
        neurons = sample_uniform(ds, N, rng)
        c = rng.standard_normal(N)
        p = rng.standard_normal(poly_width(act, d))
        return RidgeModel(neurons=neurons, c=c, poly=p, activation=act), ds

    def test_zero_model(self):
        rng = np.random.default_rng(13)
        model, ds = self.make_model(rng)
        zero = RidgeModel(model.neurons, np.zeros(10), np.zeros(1), model.activation)
        assert np.all(eval_model(zero, ds.X) == 0.0)

    def test_single_neuron_matches_activation(self):
        from gradfeat.activation import eval_activation

        neurons = NeuronSet(np.array([[0.6, 0.8]]), np.array([0.1]))
        model = RidgeModel(neurons, np.array([1.0]), np.zeros(poly_width(SIGMOID, 2)), SIGMOID)
        X = np.array([[0.2, -0.3]])
        assert eval_model(model, X)[0] == pytest.approx(
            eval_activation(SIGMOID, X[0] @ neurons.a[0] + 0.1)
        )

    def test_linear_in_outer_weights(self):
        rng = np.random.default_rng(14)
        model, ds = self.make_model(rng)
        c2 = rng.standard_normal(10)
        zero_poly = np.zeros(poly_width(model.activation, 2))
        m2 = RidgeModel(model.neurons, c2, zero_poly, model.activation)
        m1 = RidgeModel(model.neurons, model.c, zero_poly, model.activation)
        msum = RidgeModel(model.neurons, model.c + c2, zero_poly, model.activation)
        lhs = eval_model(msum, ds.X)
        rhs = eval_model(m1, ds.X) + eval_model(m2, ds.X)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEvalModelGradient:
    def test_zero_weights(self):
        rng = np.random.default_rng(15)
        ds = DataSet(X=rng.uniform(-0.5, 0.5, (20, 2)), y=np.zeros(20))
        neurons = sample_uniform(ds, 5, rng)
        model = RidgeModel(neurons, np.zeros(5), np.zeros(1), SIGMOID)
        assert np.all(eval_model_gradient(model, ds.X) == 0.0)

    def test_bump_on_hyperplane(self):
        delta = 1.0 / 80.0
        neurons = NeuronSet(np.array([[1.0, 0.0]]), np.array([-0.25]))
        act = ActivationSpec(1, delta)
        model = RidgeModel(neurons, np.array([2.0]), np.zeros(poly_width(act, 2)), act)
        g = eval_model_gradient(model, np.array([[0.25, 0.7]]))
        assert np.allclose(g[0], 2.0 * (0.25 / delta) * np.array([1.0, 0.0]))

    @pytest.mark.parametrize("act", [SIGMOID, ActivationSpec(2, 1.0 / 40.0), RELU])
    def test_matches_finite_differences(self, act):
        rng = np.random.default_rng(16)
        ds = DataSet(X=rng.uniform(-0.4, 0.4, (50, 3)), y=np.zeros(50))
        neurons = sample_uniform(ds, 20, rng)
        n_poly = poly_width(act, 3)
        model = RidgeModel(
            neurons, rng.standard_normal(20), rng.standard_normal(n_poly), act
        )
        G = eval_model_gradient(model, ds.X)
        h = 1e-6
        for j in range(3):
            Xp, Xm = ds.X.copy(), ds.X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            fd = (eval_model(model, Xp) - eval_model(model, Xm)) / (2 * h)
            scale = np.maximum(np.abs(G[:, j]), np.median(np.abs(G)) + 1e-12)
            assert np.max(np.abs(fd - G[:, j]) / scale) < 1e-5

    def test_heaviside_has_no_gradient(self):
        neurons = NeuronSet(np.array([[1.0]]), np.array([0.0]))
        model = RidgeModel(neurons, np.array([1.0]), np.zeros(poly_width(HEAVISIDE, 1)), HEAVISIDE)
        with pytest.raises(NonsmoothModelError):
            eval_model_gradient(model, np.array([[0.5]]))
