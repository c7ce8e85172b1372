import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from gradfeat.geometry import (
    EmptyBoxError,
    GaussianFactor,
    NeuronSet,
    RngStream,
    ZeroCovarianceError,
    sample_acg,
    standardize,
    unit_rows,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps


class TestUnitRows:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        d=st.integers(1, 5),
        rounds=st.integers(1, 3),
    )
    def test_redraws_only_degenerate_rows(self, seed, n, d, rounds):
        # the first `rounds` calls return zero rows at random positions
        rng = np.random.default_rng(seed)
        calls, zeroed = [], []

        def draw(idx):
            calls.append(idx.copy())
            Z = rng.standard_normal((idx.size, d))
            if len(calls) <= rounds:
                zero = idx[rng.random(idx.size) < 0.5] if len(calls) > 1 else idx[::2]
                Z[np.isin(idx, zero)] = 0.0
                zeroed.append(zero)
            return Z

        A = unit_rows(draw, n)
        assert np.array_equal(calls[0], np.arange(n))
        for passed, zero in zip(calls[1:], zeroed):
            assert np.array_equal(passed, zero)
        assert len(calls) == len(zeroed) + (zeroed[-1].size > 0)
        assert np.allclose(np.linalg.norm(A, axis=1), 1.0, rtol=0.0, atol=4 * EPS)

    def test_nan_row_is_not_redrawn(self):
        calls = []

        def draw(idx):
            calls.append(idx)
            return np.array([[np.nan, 0.0], [3.0, 4.0]])[idx]

        A = unit_rows(draw, 2)
        assert len(calls) == 1
        assert np.all(np.isnan(A[0])) and np.array_equal(A[1], [0.6, 0.8])


class TestSampleACG:
    def test_identity_factor_uniform_on_sphere(self):
        # for uniform law on S^2 each coordinate is U(-1, 1)
        rng = np.random.default_rng(0)
        a = sample_acg(GaussianFactor(np.eye(3)), rng, size=10**5)
        assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12
        assert kstest(a[:, 2], "uniform", args=(-1.0, 2.0)).pvalue > 0.01

    def test_antipodal_symmetry(self):
        rng = np.random.default_rng(1)
        a = sample_acg(GaussianFactor(np.eye(3)), rng, size=10**5)
        assert np.linalg.norm(a.mean(axis=0)) <= 4.0 / np.sqrt(10**5)

    def test_rank_one_degenerate(self):
        rng = np.random.default_rng(2)
        a = sample_acg(GaussianFactor(np.array([[1.0], [0.0]])), rng, size=4000)
        assert np.allclose(np.abs(a[:, 0]), 1.0)
        frac = np.mean(a[:, 0] > 0)
        assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(4000)

    def test_anisotropic_arc_probability(self):
        # quadrature oracle for P(|a1| > |a2|) under C = diag(4, 1)
        def density(theta):
            q = np.cos(theta) ** 2 / 4.0 + np.sin(theta) ** 2
            return 0.5 / (2.0 * np.pi * q)

        expect = 2.0 * quad(density, -np.pi / 4.0, np.pi / 4.0)[0]
        rng = np.random.default_rng(3)
        a = sample_acg(GaussianFactor(np.diag([2.0, 1.0])), rng, size=10**5)
        emp = np.mean(np.abs(a[:, 0]) > np.abs(a[:, 1]))
        assert abs(emp - expect) < 4.0 * np.sqrt(expect * (1.0 - expect) / 10**5)

    def test_range_membership(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((5, 2))
        a = sample_acg(GaussianFactor(F), rng, size=500)
        Q, _ = np.linalg.qr(F)
        residual = a - (a @ Q) @ Q.T
        assert np.max(np.linalg.norm(residual, axis=1)) < 1e-10

    def test_zero_covariance(self):
        with pytest.raises(ZeroCovarianceError):
            sample_acg(GaussianFactor(np.zeros((3, 2))), np.random.default_rng(0))

    def test_wide_factor_reduction_preserves_covariance(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((3, 50))
        factor = GaussianFactor.from_matrix(G)
        assert factor.columns.shape == (3, 3)
        assert np.allclose(factor.columns @ factor.columns.T, G @ G.T, atol=1e-10)


class TestStandardize:
    def test_midpoint_to_origin(self):
        X, tf = standardize(np.array([[0.5]]), [[0.0, 1.0]])
        assert X[0, 0] == pytest.approx(0.0)
        corners, _ = standardize(np.array([[0.0], [1.0]]), [[0.0, 1.0]])
        assert np.allclose(corners.ravel(), [-1.0, 1.0])

    def test_corner_on_unit_sphere(self):
        box = [[0.0, 1.0]] * 4
        X, _ = standardize(np.array([[1.0, 1.0, 1.0, 1.0]]), box)
        assert np.linalg.norm(X[0]) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        box = np.array([[-2.0, 5.0], [1.0, 1.5], [0.0, 100.0]])
        X = rng.uniform(box[:, 0], box[:, 1], size=(40, 3))
        Z, tf = standardize(X, box)
        assert np.max(np.abs(tf.inverse(Z) - X)) < 1e-12

    def test_gradient_chain_rule(self):
        # f(x) = sin(x0) + x1^2 on a box; standardized gradient must match FD
        box = np.array([[0.0, 2.0], [-1.0, 3.0]])
        x = np.array([[0.7, 1.2]])
        _, tf = standardize(x, box)
        g_raw = np.array([[np.cos(0.7), 2.4]])
        g_std = tf.push_gradient(g_raw)
        z = tf(x)
        h = 1e-6
        for j in range(2):
            zp, zm = z.copy(), z.copy()
            zp[0, j] += h
            zm[0, j] -= h
            xp, xm = tf.inverse(zp), tf.inverse(zm)
            f = lambda p: np.sin(p[0, 0]) + p[0, 1] ** 2
            fd = (f(xp) - f(xm)) / (2.0 * h)
            assert fd == pytest.approx(g_std[0, j], rel=1e-6)

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        lo=st.floats(-1e3, 1e3),
        log_width=st.floats(-3.0, 3.0),
    )
    def test_round_trip_property(self, seed, d, lo, log_width):
        rng = np.random.default_rng(seed)
        lows = lo + rng.uniform(-1.0, 1.0, d)
        box = np.stack([lows, lows + 10.0**log_width * rng.uniform(0.5, 2.0, d)], axis=1)
        X = rng.uniform(box[:, 0], box[:, 1], size=(20, d))
        Z, tf = standardize(X, box)
        assert np.max(np.linalg.norm(Z, axis=1)) <= 1.0 + 1e-12
        scale = np.abs(box).sum(axis=1)
        assert np.all(np.abs(tf.inverse(Z) - X) <= 4 * EPS * scale)

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        lo=st.floats(-1e3, 1e3),
        log_width=st.floats(-3.0, 3.0),
    )
    def test_push_gradient_chain_rule(self, seed, d, lo, log_width):
        # f(x) = w.x + c is affine, so f(x(z)) is affine in z with gradient
        # push_gradient(w) and differences are exact up to rounding
        rng = np.random.default_rng(seed)
        lows = lo + rng.uniform(-1.0, 1.0, d)
        box = np.stack([lows, lows + 10.0**log_width * rng.uniform(0.5, 2.0, d)], axis=1)
        w = rng.standard_normal(d)
        _, tf = standardize(box.T, box)
        z1, z2 = rng.uniform(-1.0, 1.0, (2, 5, d)) / np.sqrt(d)
        g = tf.push_gradient(np.tile(w, (5, 1)))
        df = tf.inverse(z2) @ w - tf.inverse(z1) @ w
        scale = np.abs(w) @ np.abs(box).sum(axis=1)
        assert np.all(np.abs(df - np.sum(g * (z2 - z1), axis=1)) <= 16 * EPS * scale)

    def test_empty_box(self):
        with pytest.raises(EmptyBoxError):
            standardize(np.zeros((1, 2)), [[0.0, 1.0], [2.0, 2.0]])


class TestRngStream:
    def test_replay_identical(self):
        s1 = RngStream(seed=42, stream_id=7)
        s2 = RngStream(seed=42, stream_id=7)
        assert np.array_equal(
            s1.generator().standard_normal(100), s2.generator().standard_normal(100)
        )

    def test_child_is_stable_and_distinct(self):
        root = RngStream(seed=1)
        a = root.child("cell", "gauss1d", 30, 0)
        b = root.child("cell", "gauss1d", 30, 0)
        c = root.child("cell", "gauss1d", 30, 1)
        assert a == b
        assert a != c
        assert not np.array_equal(
            a.generator().standard_normal(8), c.generator().standard_normal(8)
        )


class TestNeuronSet:
    def test_sequence_protocol(self):
        ns = NeuronSet(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5]))
        assert len(ns) == 2
        both = ns.concat(ns)
        assert len(both) == 4

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            NeuronSet(np.zeros((3, 2)), np.zeros(2))
