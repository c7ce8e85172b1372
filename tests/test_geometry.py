import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from gradfeat.benchmarks import Benchmark, generate_dataset
from gradfeat.geometry import NeuronSet, RngStream, ZeroCovarianceError, sample_acg, unit_rows

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
        a = sample_acg(np.eye(3), rng, 10**5)
        assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12
        assert kstest(a[:, 2], "uniform", args=(-1.0, 2.0)).pvalue > 0.01

    def test_antipodal_symmetry(self):
        rng = np.random.default_rng(1)
        a = sample_acg(np.eye(3), rng, 10**5)
        assert np.linalg.norm(a.mean(axis=0)) <= 4.0 / np.sqrt(10**5)

    def test_rank_one_degenerate(self):
        rng = np.random.default_rng(2)
        a = sample_acg(np.array([[1.0], [0.0]]), rng, 4000)
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
        a = sample_acg(np.diag([2.0, 1.0]), rng, 10**5)
        emp = np.mean(np.abs(a[:, 0]) > np.abs(a[:, 1]))
        assert abs(emp - expect) < 4.0 * np.sqrt(expect * (1.0 - expect) / 10**5)

    def test_range_membership(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((5, 2))
        a = sample_acg(F, rng, 500)
        Q, _ = np.linalg.qr(F)
        residual = a - (a @ Q) @ Q.T
        assert np.max(np.linalg.norm(residual, axis=1)) < 1e-10

    def test_zero_covariance(self):
        with pytest.raises(ZeroCovarianceError):
            sample_acg(np.zeros((3, 2)), np.random.default_rng(0), 1)

    @pytest.mark.parametrize(
        "F", [np.ones(3), np.ones((1, 3, 2)), np.array([[1.0, np.nan]]), np.array([[np.inf]])],
        ids=["1d", "3d", "nan", "inf"],
    )
    def test_rejects_bad_factor(self, F):
        with pytest.raises(ValueError, match="2-d array of finite entries"):
            sample_acg(F, np.random.default_rng(0), 1)

    def test_wide_factor_reduction_preserves_covariance(self):
        # a wide factor is drawn through its thin-SVD reduction U s, whose
        # covariance is G G^T; r <= d factors are drawn as given
        rng = np.random.default_rng(5)
        G = rng.standard_normal((3, 50))
        U, s, _ = np.linalg.svd(G, full_matrices=False)
        assert np.allclose((U * s) @ (U * s).T, G @ G.T, atol=1e-10)
        a = sample_acg(G, np.random.default_rng(6), 200)
        assert np.array_equal(a, sample_acg(U * s, np.random.default_rng(6), 200))
        tall = G[:, :2]
        b = sample_acg(tall, np.random.default_rng(7), 200)
        xi = np.random.default_rng(7).standard_normal((200, 2)) @ tall.T
        assert np.array_equal(b, xi / np.linalg.norm(xi, axis=1)[:, None])


class TestStandardize:
    """The box standardization ``z = (x - center) * scale`` applied by ``generate_dataset``."""

    def test_gradient_chain_rule(self):
        # f(x) = sin(x0) + x1^2 on a box; standardized gradient must match FD
        box = np.array([[0.0, 2.0], [-1.0, 3.0]])
        bench = Benchmark(
            "sin_sq", 2, box,
            lambda X: np.sin(X[:, 0]) + X[:, 1] ** 2,
            lambda X: np.stack([np.cos(X[:, 0]), 2.0 * X[:, 1]], axis=1),
        )
        train, _, _ = generate_dataset(
            bench, 10, noise_sigma=0.0, rng=np.random.default_rng(0), test_size=10
        )
        scale = (2.0 / np.sqrt(2)) / (box[:, 1] - box[:, 0])
        center = box.mean(axis=1)
        h = 1e-6
        for j in range(2):
            zp, zm = train.X.copy(), train.X.copy()
            zp[:, j] += h
            zm[:, j] -= h
            fd = (bench.f(zp / scale + center) - bench.f(zm / scale + center)) / (2.0 * h)
            assert fd == pytest.approx(train.G[:, j], rel=1e-6)


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
