import dataclasses
import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare, ks_2samp

from gradfeat.activation import ActivationSpec, PsiTable, eval_bump, make_psi_table
from gradfeat.benchmarks import generate_dataset, make_benchmark
from gradfeat.geometry import NeuronSet
from gradfeat import cli, samplers
from gradfeat.cli import ExperimentConfig
from gradfeat.regression import NonsmoothModelError, RidgeModel, eval_model_gradient, poly_width
from gradfeat.samplers import (
    AcceptanceCollapseError,
    AllZeroGradientsError,
    DataSet,
    MissingGradientsError,
    MissingHessiansError,
    SamplerSpec,
    ZeroTraceError,
    draw,
    eval_integral_density,
    export_weights_text,
    residual_schedule,
    sample_active_subspace,
    sample_integral_density,
    sample_local_gradient,
    sample_nonlocal,
    sample_residual,
    sample_uniform,
)


def gradient_dataset(rng, K=60, d=2):
    X = rng.uniform(-0.5, 0.5, (K, d))
    G = rng.standard_normal((K, d))
    return DataSet(X=X, y=np.zeros(K), G=G)


def planar_wave_dataset(K=300, seed=0):
    bench = make_benchmark("planar_wave")
    train, _, _ = generate_dataset(bench, K, "uniform-random", rng=np.random.default_rng(seed))
    return train


class TestDataSet:
    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            DataSet(X=np.array([[1.5, 0.0]]), y=np.array([0.0]))

    def test_rejects_asymmetric_hessian(self):
        H = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError):
            DataSet(X=np.zeros((1, 2)), y=np.zeros(1), H=H)

    def test_with_gradients_keeps_no_source_weights(self):
        rng = np.random.default_rng(45)
        ds = gradient_dataset(rng)
        draw(SamplerSpec(kind="nonlocal-gradient", delta_w=0.1), ds, 5, rng)
        assert list(ds._memo) == [("nonlocal-gradient", 0.1)]
        assert ds.with_gradients(-ds.G)._memo == {}

    def test_with_gradients_replaces_block(self):
        ds = DataSet(X=np.zeros((2, 2)), y=np.zeros(2))
        ds2 = ds.with_gradients(np.ones((2, 2)))
        assert ds.G is None and np.all(ds2.G == 1.0)


class TestUniform:
    def test_support(self):
        rng = np.random.default_rng(0)
        ds = DataSet(X=np.zeros((1, 2)), y=np.zeros(1))
        ns = sample_uniform(ds, 500, rng)
        assert np.max(np.abs(np.linalg.norm(ns.a, axis=1) - 1.0)) < 1e-12
        assert np.all(np.abs(ns.b) <= 1.0)

    def test_offset_symmetry(self):
        rng = np.random.default_rng(1)
        ds = DataSet(X=np.zeros((1, 3)), y=np.zeros(1))
        ns = sample_uniform(ds, 10**5, rng)
        assert abs(np.mean(ns.b)) <= 4.0 / np.sqrt(3 * 10**5)


class TestActiveSubspace:
    def test_rank_one_range(self):
        rng = np.random.default_rng(2)
        v = np.array([1.0, -np.sqrt(2.0)])
        X = rng.uniform(-0.4, 0.4, (30, 2))
        G = np.outer(rng.standard_normal(30), v)
        ds = DataSet(X=X, y=np.zeros(30), G=G)
        ns = sample_active_subspace(ds, 200, rng)
        vhat = v / np.linalg.norm(v)
        assert np.max(np.abs(np.abs(ns.a @ vhat) - 1.0)) < 1e-12

    def test_isotropic_when_columns_balanced(self):
        rng = np.random.default_rng(3)
        ds = DataSet(X=np.zeros((3, 3)), y=np.zeros(3), G=np.eye(3) * 2.5)
        ns = sample_active_subspace(ds, 4 * 10**4, rng)
        from scipy.stats import kstest

        assert kstest(ns.a[:, 2], "uniform", args=(-1.0, 2.0)).pvalue > 0.01

    def test_planar_wave_identifies_subspace(self):
        ds = planar_wave_dataset()
        ns = sample_active_subspace(ds, 300, np.random.default_rng(4))
        orth = np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0)
        assert np.max(np.abs(ns.a @ orth)) < 1e-10

    def test_requires_gradients(self):
        ds = DataSet(X=np.zeros((2, 2)), y=np.zeros(2))
        with pytest.raises(MissingGradientsError):
            sample_active_subspace(ds, 3, np.random.default_rng(0))
        zero = ds.with_gradients(np.zeros((2, 2)))
        with pytest.raises(AllZeroGradientsError):
            sample_active_subspace(zero, 3, np.random.default_rng(0))


class TestLocalGradient:
    def test_single_point_atoms(self):
        ds = DataSet(
            X=np.array([[0.0, 0.0]]), y=np.zeros(1), G=np.array([[0.0, 1.0]])
        )
        ns = sample_local_gradient(ds, 10**4, np.random.default_rng(5))
        assert np.allclose(np.abs(ns.a[:, 1]), 1.0)
        assert np.allclose(ns.b, 0.0)
        frac = np.mean(ns.a[:, 1] > 0)
        assert abs(frac - 0.5) <= 3.0 * 0.5 / np.sqrt(10**4)

    def test_categorical_weights(self):
        ds = DataSet(
            X=np.array([[0.2, 0.0], [-0.2, 0.0]]),
            y=np.zeros(2),
            G=np.array([[2.0, 0.0], [0.0, 1.0]]),
        )
        ns = sample_local_gradient(ds, 10**4, np.random.default_rng(6))
        from_point_one = np.abs(ns.a[:, 0]) > 0.5
        frac = np.mean(from_point_one)
        assert abs(frac - 2.0 / 3.0) <= 3.0 * np.sqrt(2.0 / 9.0 / 10**4)

    def test_passes_through_source_point(self):
        rng = np.random.default_rng(7)
        ds = gradient_dataset(rng)
        ns = sample_local_gradient(ds, 200, rng)
        dist = np.abs(ns.a @ ds.X.T + ns.b[:, None])
        assert np.max(dist.min(axis=1)) < 1e-12

    def test_zero_gradient_points_excluded(self):
        ds = DataSet(
            X=np.array([[0.3, 0.0], [0.0, 0.3]]),
            y=np.zeros(2),
            G=np.array([[0.0, 0.0], [0.0, 1.0]]),
        )
        ns = sample_local_gradient(ds, 500, np.random.default_rng(8))
        assert np.allclose(np.abs(ns.a[:, 1]), 1.0)  # only point 2 selected

    def test_antipodal_pairing(self):
        rng = np.random.default_rng(9)
        ds = gradient_dataset(rng, K=5)
        ns = sample_local_gradient(ds, 2 * 10**4, rng)
        # frequencies of (a,b) and (-a,-b) agree within binomial tolerance
        keys = np.round(np.hstack([ns.a, ns.b[:, None]]), 9)
        uniq, counts = np.unique(keys, axis=0, return_counts=True)
        for row, count in zip(uniq, counts):
            mirror = np.where((np.abs(uniq + row) < 1e-8).all(axis=1))[0]
            assert mirror.size == 1
            other = counts[mirror[0]]
            p = (count + other) / len(ns)
            tol = 4.0 * np.sqrt(len(ns) * p * 0.5)
            assert abs(count - other) <= max(tol, 30)


class TestNonlocalGradient:
    def test_small_width_reduces_to_local_atoms(self):
        rng = np.random.default_rng(10)
        ds = gradient_dataset(rng, K=8)
        ns = sample_nonlocal(ds, 300, 1e-12, np.random.default_rng(11), kind="nonlocal-gradient")
        norms = np.linalg.norm(ds.G, axis=1)
        atoms_a = ds.G / norms[:, None]
        atoms_b = -np.sum(atoms_a * ds.X, axis=1)
        atoms = np.vstack(
            [
                np.hstack([atoms_a, atoms_b[:, None]]),
                np.hstack([-atoms_a, -atoms_b[:, None]]),
            ]
        )
        samples = np.hstack([ns.a, ns.b[:, None]])
        dist = np.linalg.norm(samples[:, None, :] - atoms[None, :, :], axis=2)
        assert np.max(dist.min(axis=1)) < 1e-9

    def test_huge_width_matches_active_subspace_law(self):
        ds = planar_wave_dataset(K=200, seed=12)
        n = 3000
        ns = sample_nonlocal(ds, n, 1e9, np.random.default_rng(13), kind="nonlocal-gradient")
        ref = sample_active_subspace(ds, n, np.random.default_rng(14))
        # directions live on a rank-1 subspace here; compare sign-invariant law
        v = np.array([1.0, -np.sqrt(2.0)]) / np.sqrt(3.0)
        assert np.max(np.abs(np.abs(ns.a @ v) - 1.0)) < 1e-10
        assert np.max(np.abs(np.abs(ref.a @ v) - 1.0)) < 1e-10

    def test_full_rank_huge_width_matches_acg(self):
        rng = np.random.default_rng(15)
        ds = gradient_dataset(rng, K=40, d=3)
        n = 4000
        ns = sample_nonlocal(ds, n, 1e9, np.random.default_rng(16), kind="nonlocal-gradient")
        ref = sample_active_subspace(ds, n, np.random.default_rng(17))
        w = rng.standard_normal(3)
        stat = ks_2samp(np.abs(ns.a @ w), np.abs(ref.a @ w))
        assert stat.pvalue > 0.01

    def test_direction_in_gradient_range(self):
        rng = np.random.default_rng(18)
        v1, v2 = np.eye(3)[:2]
        coef = rng.standard_normal((25, 2))
        G = coef @ np.vstack([v1, v2])
        ds = DataSet(X=rng.uniform(-0.4, 0.4, (25, 3)), y=np.zeros(25), G=G)
        ns = sample_nonlocal(ds, 150, 0.05, rng, kind="nonlocal-gradient")
        residual = ns.a.copy()
        residual[:, :2] = 0.0  # range(G) = span(e1, e2)
        assert np.max(np.linalg.norm(residual, axis=1)) < 1e-10

    def test_offset_near_source_point(self):
        rng = np.random.default_rng(19)
        ds = gradient_dataset(rng, K=30)
        delta_w = 0.05
        ns = sample_nonlocal(ds, 400, delta_w, rng, kind="nonlocal-gradient")
        slack = np.abs(ns.a @ ds.X.T + ns.b[:, None]).min(axis=1)
        assert np.max(slack) <= 6.0 * delta_w

    def test_zero_trace(self):
        ds = DataSet(X=np.zeros((3, 2)), y=np.zeros(3), G=np.zeros((3, 2)))
        with pytest.raises(ZeroTraceError):
            sample_nonlocal(ds, 5, 0.1, np.random.default_rng(0), kind="nonlocal-gradient")


class TestNonlocalHessian:
    def test_rank_one_hessian_atoms(self):
        H = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        ds = DataSet(X=np.zeros((1, 2)), y=np.zeros(1), H=H)
        ns = sample_nonlocal(ds, 2000, 1e-9, np.random.default_rng(20), kind="nonlocal-hessian")
        assert np.max(np.abs(np.abs(ns.a[:, 0]) - 1.0)) < 1e-12
        frac = np.mean(ns.a[:, 0] > 0)
        assert abs(frac - 0.5) <= 3.0 * 0.5 / np.sqrt(2000)

    def test_linear_function_everywhere_fails(self):
        H = np.zeros((4, 2, 2))
        ds = DataSet(X=np.zeros((4, 2)), y=np.zeros(4), H=H)
        with pytest.raises(ZeroTraceError):
            sample_nonlocal(ds, 5, 0.1, np.random.default_rng(0), kind="nonlocal-hessian")

    def test_direction_in_hessian_span(self):
        rng = np.random.default_rng(21)
        K = 12
        H = np.zeros((K, 3, 3))
        for k in range(K):  # all Hessians act on span(e1, e2)
            M = np.zeros((3, 3))
            M[:2, :2] = rng.standard_normal((2, 2))
            H[k] = M + M.T
        ds = DataSet(X=rng.uniform(-0.4, 0.4, (K, 3)), y=np.zeros(K), H=H)
        ns = sample_nonlocal(ds, 100, 0.05, rng, kind="nonlocal-hessian")
        assert np.max(np.abs(ns.a[:, 2])) < 1e-10

    def test_requires_hessians(self):
        ds = DataSet(X=np.zeros((2, 2)), y=np.zeros(2))
        with pytest.raises(MissingHessiansError):
            sample_nonlocal(ds, 3, 0.1, np.random.default_rng(0), kind="nonlocal-hessian")

    def test_kind_must_be_nonlocal(self):
        ds = DataSet(X=np.zeros((2, 2)), y=np.zeros(2), G=np.ones((2, 2)), H=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="not a nonlocal sampler kind"):
            sample_nonlocal(ds, 3, 0.1, np.random.default_rng(0), kind="local-gradient")


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def low_rank_factors(rng, K, d, r, hessian):
    """Per-point factors whose columns all lie in the span of a d x r basis B."""
    B = np.linalg.qr(rng.standard_normal((d, r)))[0]
    if hessian:
        M = rng.standard_normal((K, r, r))
        return B, B @ (M + M.transpose(0, 2, 1)) @ B.T
    return B, (rng.standard_normal((K, r)) @ B.T)[:, :, None]


def turning_factors(rng, K, d, hessian):
    """K points in a box of width 0.3, with factors (K x d x 1, or symmetric
    K x d x d) that turn over distances of about 0.1, the mixing scale at
    ``delta_w = 0.05``."""
    X = rng.uniform(-0.15, 0.15, (K, d))
    r = d if hessian else 1
    B = 20.0 * rng.standard_normal((d * r, d))
    F = np.cos(X @ B.T + rng.uniform(0.0, 2.0 * np.pi, d * r)).reshape(K, d, r)
    return X, F + F.transpose(0, 2, 1) if hessian else F


class TestNonlocalProperties:
    """The shared nonlocal construction, for K x d x 1 and K x d x d factors."""

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 40),
        d=st.integers(2, 5),
        rank=st.data(),
        n=st.integers(1, 50),
        log_delta_w=st.floats(-2.5, 1.0),
        hessian=st.booleans(),
    )
    def test_unit_directions_in_span_near_data(self, seed, K, d, rank, n, log_delta_w, hessian):
        r = rank.draw(st.integers(1, d - 1), label="r")
        rng = np.random.default_rng(seed)
        B, F = low_rank_factors(rng, K, d, r, hessian)
        X = rng.uniform(-1.0, 1.0, (K, d)) / np.sqrt(d)
        delta_w = 10.0**log_delta_w
        ds = DataSet(X=X, y=np.zeros(K))
        sqrt_tr = samplers.nonlocal_source_weights(ds, F, delta_w)
        ns = samplers._sample_nonlocal(ds, F, n, delta_w, sqrt_tr, rng)
        assert np.max(np.abs(np.linalg.norm(ns.a, axis=1) - 1.0)) < 1e-12
        off_span = ns.a - (ns.a @ B) @ B.T
        assert np.max(np.linalg.norm(off_span, axis=1)) < 1e-10
        slack = np.abs(ns.a @ X.T + ns.b[:, None]).min(axis=1)
        assert np.max(slack) <= 6.0 * delta_w

    def test_mixing_weights_match_pairwise_formula(self, monkeypatch):
        rng = np.random.default_rng(39)
        X = rng.uniform(-0.5, 0.5, (50, 4))
        delta_w = 0.03
        dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        ref = np.exp(-dist / (2.0 * delta_w))
        ref[ref < 1e-6] = 0.0
        rows = rng.permutation(50)[:20]
        w = samplers._mixing_weights(X[rows], X, delta_w)
        np.testing.assert_allclose(w, ref[rows], rtol=1e-13, atol=0.0)
        assert 0 < np.sum(ref[rows] == 0.0) < ref[rows].size
        # the coordinate layout does not change the bits
        assert np.array_equal(samplers._mixing_weights(X[rows], np.asfortranarray(X), delta_w), w)
        assert np.array_equal(samplers._mixing_weights(X[5:30], np.asfortranarray(X), delta_w),
                              samplers._mixing_weights(X[5:30], X, delta_w))
        # the source-point weights, in several row blocks, for both factor shapes
        monkeypatch.setattr(samplers, "BLOCK_DOUBLES", 7 * 50)
        for hessian in (False, True):
            _, F = low_rank_factors(rng, 50, 4, 2, hessian)
            sqrt_tr = samplers.nonlocal_source_weights(DataSet(X=X, y=np.zeros(50)), F, delta_w)
            np.testing.assert_allclose(
                sqrt_tr, np.sqrt((ref * ref) @ np.sum(F**2, axis=(1, 2))), rtol=1e-13, atol=0.0
            )

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        K=st.integers(1, 60),
        d=st.integers(1, 8),
        log_delta_w=st.floats(-3.0, 0.5),
        fortran=st.booleans(),
    )
    def test_mixing_weights_in_place_match_straightforward_bits(self, seed, rows, K, d,
                                                                log_delta_w, fortran):
        # the in-place pass against the formula written out with temporaries
        rng = np.random.default_rng(seed)
        Xr = rng.uniform(-0.5, 0.5, (rows, d))
        X = rng.uniform(-0.5, 0.5, (K, d))
        delta_w = 10.0**log_delta_w
        sq = np.zeros((rows, K))
        for j in range(d):
            sq = sq + (Xr[:, j][:, None] - X[:, j][None, :]) ** 2
        ref = np.exp(-np.sqrt(sq) / (2.0 * delta_w))
        ref[ref < 1e-6] = 0.0
        w = samplers._mixing_weights(Xr, np.asfortranarray(X) if fortran else X, delta_w)
        assert np.array_equal(w.view(np.int64), ref.view(np.int64))

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 200),
        d=st.integers(1, 4),
        distinct=st.floats(0.1, 1.0),
        log_delta_w=st.floats(-3.0, 0.0),
        hessian=st.booleans(),
        blocks=st.sampled_from(["rows", "mixed", "one"]),
    )
    @example(seed=1, K=200, d=2, distinct=0.5, log_delta_w=-3.0, hessian=True, blocks="mixed")
    @example(seed=2, K=1, d=1, distinct=1.0, log_delta_w=-1.0, hessian=False, blocks="rows")
    def test_half_pass_matches_dense_pass(self, seed, K, d, distinct, log_delta_w, hessian,
                                          blocks):
        # the upper-triangle blocks against the whole K x K weight matrix, with
        # duplicated points and truncated weights, in one-row blocks, in blocks
        # of growing height and in a single block
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, (max(1, round(distinct * K)), d)) / np.sqrt(d)
        X = points[rng.integers(0, len(points), K)]
        M = rng.standard_normal((K, d, d if hessian else 1))
        F = M + M.transpose(0, 2, 1) if hessian else M
        delta_w = 10.0**log_delta_w
        W = samplers._mixing_weights(X, X, delta_w)
        ref = np.sqrt((W * W) @ np.sum(F**2, axis=(1, 2)))
        block_doubles = {"rows": 1, "mixed": 3 * K + 1, "one": K * K}[blocks]
        with mock.patch.object(samplers, "BLOCK_DOUBLES", block_doubles):
            sqrt_tr = samplers.nonlocal_source_weights(DataSet(X=X, y=np.zeros(K)), F, delta_w)
        np.testing.assert_allclose(sqrt_tr, ref, rtol=1e-14, atol=0.0)

    def test_half_pass_blocks_grow_down_the_diagonal(self, monkeypatch):
        # rows lo:hi against columns lo:K, each block within BLOCK_DOUBLES
        shapes = []
        real = samplers._mixing_weights

        def recorded(Xr, X, delta_w):
            shapes.append((len(Xr), len(X)))
            return real(Xr, X, delta_w)

        monkeypatch.setattr(samplers, "_mixing_weights", recorded)
        monkeypatch.setattr(samplers, "BLOCK_DOUBLES", 100)
        X = np.random.default_rng(44).uniform(-0.5, 0.5, (30, 2))
        samplers.nonlocal_source_weights(DataSet(X=X, y=np.zeros(30)), np.ones((30, 2, 1)), 0.1)
        assert shapes == [(3, 30), (3, 27), (4, 24), (5, 20), (6, 15), (9, 9)]

    @pytest.mark.parametrize("hessian", [False, True])
    def test_blocking_does_not_change_draws(self, monkeypatch, hessian):
        rng = np.random.default_rng(37)
        K, d = 30, 3
        _, F = low_rank_factors(rng, K, d, 2, hessian)
        ds = DataSet(X=rng.uniform(-0.5, 0.5, (K, d)), y=np.zeros(K))
        sqrt_tr = samplers.nonlocal_source_weights(ds, F, 0.1)
        whole = samplers._sample_nonlocal(ds, F, 20, 0.1, sqrt_tr, np.random.default_rng(38))
        monkeypatch.setattr(samplers, "BLOCK_DOUBLES", 2 * K * F.shape[2] + 1)
        sqrt_tr = samplers.nonlocal_source_weights(ds, F, 0.1)
        blocked = samplers._sample_nonlocal(ds, F, 20, 0.1, sqrt_tr, np.random.default_rng(38))
        assert np.allclose(blocked.a, whole.a, rtol=0.0, atol=1e-12)
        assert np.allclose(blocked.b, whole.b, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("hessian", [False, True])
    def test_law_at_grid_width_is_the_mixture_covariance(self, d, hessian):
        # from one source point k, at the width the grids use, a = v / |v| with
        # v ~ N(0, C_k), C_k = sum_k' w_kk'^2 F_k' F_k'^T; the reference draws v
        # from C_k's eigen factor on its own stream.  Mixing by w^2, which has
        # the law of delta_w in place of 2 delta_w, fails every case here, each
        # at p < 1e-13 on one u at least.
        rng = np.random.default_rng(3)
        K, n, delta_w = 40, 4000, 0.05
        X, F = turning_factors(rng, K, d, hessian)
        U = rng.standard_normal((3, d))
        k = int(np.argmin(np.linalg.norm(X, axis=1)))
        w = np.exp(-np.linalg.norm(X - X[k], axis=1) / (2.0 * delta_w))
        w[w < 1e-6] = 0.0
        lam, V = np.linalg.eigh(np.einsum("k,kir,kjr->ij", w**2, F, F))
        L = V * np.sqrt(np.maximum(lam, 0.0))
        v = np.random.default_rng(203).standard_normal((n, d)) @ L.T
        ref = v / np.linalg.norm(v, axis=1, keepdims=True)
        ds = DataSet(X=X, y=np.zeros(K))
        ns = samplers._sample_nonlocal(ds, F, n, delta_w, np.eye(K)[k], np.random.default_rng(103))
        for u in U:
            assert ks_2samp(np.abs(ns.a @ u), np.abs(ref @ u)).pvalue > 0.01

    def test_draws_on_one_dataset_share_one_pass(self, source_weight_passes):
        # two draws on one dataset give the bits of one draw each on two fresh
        # copies of it, and the dataset's K x K pass runs once per kind
        rng = np.random.default_rng(40)
        K, d = 60, 3
        _, H = low_rank_factors(rng, K, d, 2, hessian=True)
        ds = DataSet(X=rng.uniform(-0.5, 0.5, (K, d)), y=np.zeros(K),
                     G=rng.standard_normal((K, d)), H=H)
        fresh = [dataclasses.replace(ds) for _ in range(2)]
        for kind in ("nonlocal-gradient", "nonlocal-hessian"):
            spec = SamplerSpec(kind=kind, delta_w=0.07)
            for seed, copy in zip((41, 42), fresh):
                shared, _ = draw(spec, ds, 25, np.random.default_rng(seed))
                alone, _ = draw(spec, copy, 25, np.random.default_rng(seed))
                assert np.array_equal(shared.a, alone.a) and np.array_equal(shared.b, alone.b)
        # one pass per kind on the shared dataset, and one per kind on each copy
        assert sum(args[0] is ds for args in source_weight_passes) == 2
        assert len(source_weight_passes) == 2 + 4

    def test_concurrent_draws_compute_one_pass(self, source_weight_passes):
        # more threads than cores, released at once and switching often: every
        # thread reads the one vector that the first of them computed
        rng = np.random.default_rng(43)
        ds = gradient_dataset(rng, K=600, d=3)
        spec = SamplerSpec(kind="nonlocal-gradient", delta_w=0.05)
        start = threading.Barrier(8)

        def task(_):
            start.wait(timeout=60)
            return draw(spec, ds, 10, np.random.default_rng(44))[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                draws = list(pool.map(task, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(source_weight_passes) == 1
        assert all(np.array_equal(n.a, draws[0].a) and np.array_equal(n.b, draws[0].b)
                   for n in draws)

    @pytest.mark.parametrize("kind", ["nonlocal-gradient", "nonlocal-hessian"])
    def test_zero_factors_give_zero_weights_and_draw_raises(self, kind):
        K, d = 6, 2
        ds = DataSet(X=np.zeros((K, d)), y=np.zeros(K), G=np.zeros((K, d)), H=np.zeros((K, d, d)))
        sqrt_tr = samplers.nonlocal_source_weights(ds, samplers.nonlocal_factor(ds, kind), 0.1)
        assert np.array_equal(sqrt_tr, np.zeros(K))
        spec = SamplerSpec(kind=kind, delta_w=0.1)
        with pytest.raises(ZeroTraceError):
            draw(spec, ds, 5, np.random.default_rng(0))


def gauss1d_dataset(K=1000):
    X = np.linspace(-1.0, 1.0, K)[:, None]
    f = np.exp(-50.0 * X[:, 0] ** 2)
    G = (-100.0 * X[:, 0] * f)[:, None]
    return DataSet(X=X, y=f, G=G)


@pytest.fixture(scope="module")
def psi():
    return make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)


class TestIntegralDensity:

    def test_zero_gradients_give_zero(self, psi):
        ds = DataSet(X=np.zeros((5, 1)), y=np.zeros(5), G=np.zeros((5, 1)))
        val = eval_integral_density(ds, psi, np.array([[1.0]]), np.array([0.3]))
        assert np.array_equal(val, [0.0])

    def test_matches_continuous_quadrature(self, psi):
        # independent quadrature of int a f'(x) psi(a x + b) dx on [-1, 1],
        # times the design density 1/2 that the grid mean carries
        ds = gauss1d_dataset()
        delta = 1.0 / 80.0
        spec = ActivationSpec(1, delta)

        def integrand(x, b):
            return -100.0 * x * np.exp(-50.0 * x * x) * 0.5 * eval_bump(spec, x + b)

        bs = np.linspace(-0.9, 0.9, 25)
        disc = np.array(
            [eval_integral_density(ds, psi, np.array([[1.0]]), np.array([b]))[0] for b in bs]
        )
        cont = 0.5 * np.array(
            [abs(quad(integrand, -1.0, 1.0, args=(b,), limit=300)[0]) for b in bs]
        )
        assert np.max(np.abs(disc - cont)) <= 2e-3 * cont.max()

    def test_peaks_at_inflection_offsets(self, psi):
        ds = gauss1d_dataset()
        bs = np.linspace(-1.0, 1.0, 801)
        vals = eval_integral_density(ds, psi, np.tile([[1.0]], (bs.size, 1)), bs)
        pos = bs[np.argmax(vals * (bs > 0))]
        neg = bs[np.argmax(vals * (bs < 0))]
        assert abs(pos - 0.1) < 0.02 and abs(neg + 0.1) < 0.02
        assert vals[0] <= 1e-6 * vals.max() and vals[-1] <= 1e-6 * vals.max()

    def test_antipodal_symmetry(self, psi):
        ds = gauss1d_dataset(K=200)
        rng = np.random.default_rng(22)
        for _ in range(20):
            b = rng.uniform(-1.0, 1.0)
            (m_plus,) = eval_integral_density(ds, psi, np.array([[1.0]]), np.array([b]))
            (m_minus,) = eval_integral_density(ds, psi, np.array([[-1.0]]), np.array([-b]))
            assert m_plus == pytest.approx(m_minus, abs=1e-12)

    @pytest.mark.parametrize("block_doubles", [1, 3 * 1000, 32 * 1000])
    def test_row_blocks_match_one_product(self, monkeypatch, block_doubles):
        # 301 rows in 150 blocks of 2 and 3 rows (the 2-row floor), in 101
        # blocks of 2 and 3 rows, and in 10 blocks of 30 and 31 rows
        train, _, _ = generate_dataset(
            make_benchmark("planar_wave", 2), 1000, rng=np.random.default_rng(31), test_size=10
        )
        table = make_psi_table(1, 2, 1.0 / 40.0, radius=1.0)
        proposals = sample_uniform(train, 301, np.random.default_rng(32))
        A, B = proposals.a, proposals.b

        def one_product(A, B):
            vals = np.interp(A @ train.X.T + B[:, None], table.grid, table.values, 0.0, 0.0)
            terms = A @ train.G.T
            terms *= vals
            return np.abs(np.mean(terms, axis=1))

        monkeypatch.setattr(samplers, "BLOCK_DOUBLES", block_doubles)
        got = eval_integral_density(train, table, A, B)
        assert np.array_equal(got, one_product(A, B))
        one = eval_integral_density(train, table, A[7:8], B[7:8])
        assert np.array_equal(one, one_product(A[7:8], B[7:8]))

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(10, 400), k=st.integers(-20, 20))
    def test_draw_ignores_a_power_of_two_gradient_scale(self, psi, seed, K, k):
        # scaling every gradient by 2**k scales the density and its envelope
        # exactly, so a constant weight on every point cannot move a draw
        ds = gauss1d_dataset(K)
        base, base_rate = sample_integral_density(ds, psi, 30, np.random.default_rng(seed))
        scaled, rate = sample_integral_density(
            ds.with_gradients(2.0**k * ds.G), psi, 30, np.random.default_rng(seed)
        )
        assert np.array_equal(scaled.a, base.a) and np.array_equal(scaled.b, base.b)
        assert rate == base_rate


def flat_psi_table(T=2.0, value=1.0):
    # constant table => density |a . mean(g)| independent of (a, b) in 1-d
    return PsiTable(m=0, d=1, delta=0.1, half_width=T, values=np.full(101, value))


class TestSampleIntegralDensity:
    def test_flat_target_acceptance_rate(self):
        ds = DataSet(X=np.zeros((4, 1)), y=np.zeros(4), G=np.ones((4, 1)))
        neurons, rate = sample_integral_density(ds, flat_psi_table(), 2000, np.random.default_rng(23))
        assert len(neurons) == 2000
        n_prop = 2000 / rate
        assert abs(rate - 1.0 / samplers.SAFETY) <= 4.0 * np.sqrt(0.25 / n_prop)

    def test_support_of_accepted_samples(self):
        ds = gauss1d_dataset(K=300)
        psi = make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)
        neurons, _ = sample_integral_density(ds, psi, 200, np.random.default_rng(24))
        assert np.max(np.abs(np.abs(neurons.a) - 1.0)) < 1e-12
        assert np.max(np.abs(neurons.b)) <= 1.0

    def test_histogram_matches_density(self):
        ds = gauss1d_dataset(K=500)
        psi = make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)
        neurons, _ = sample_integral_density(ds, psi, 4000, np.random.default_rng(25))
        # pool the sign of a into the offset: law of s*b with s = sign(a)
        t = neurons.a[:, 0] * neurons.b
        edges = np.linspace(-1.0, 1.0, 21)
        counts, _ = np.histogram(t, bins=edges)
        # the density varies on scale delta << bin width; integrate it per bin
        fine = np.linspace(-1.0, 1.0, 8001)
        dens = eval_integral_density(ds, psi, np.ones((fine.size, 1)), fine)
        mass = np.array(
            [
                np.trapezoid(dens[(fine >= lo) & (fine <= hi)], dx=fine[1] - fine[0])
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        keep = mass / mass.sum() * counts.sum() > 5
        expected = mass[keep] / mass[keep].sum() * counts[keep].sum()
        stat = chisquare(counts[keep], expected)
        assert stat.pvalue > 0.01

    def test_acceptance_collapse(self, monkeypatch):
        # an envelope 2e4 times a flat target accepts one proposal in 2e4
        monkeypatch.setattr(samplers, "SAFETY", 2.0e4)
        ds = DataSet(X=np.zeros((2, 1)), y=np.zeros(2), G=np.ones((2, 1)))
        with pytest.raises(AcceptanceCollapseError):
            sample_integral_density(ds, flat_psi_table(), 50, np.random.default_rng(26))

    def test_identically_zero_density(self):
        ds = DataSet(X=np.zeros((2, 1)), y=np.zeros(2), G=np.zeros((2, 1)))
        with pytest.raises(AllZeroGradientsError):
            sample_integral_density(ds, flat_psi_table(), 5, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_neurons_rejected_before_any_evaluation(self, density_rows, n):
        ds = DataSet(X=np.zeros((4, 1)), y=np.zeros(4), G=np.ones((4, 1)))
        with pytest.raises(ValueError, match="at least one neuron"):
            sample_integral_density(ds, flat_psi_table(), n, np.random.default_rng(0))
        assert density_rows == []

    def test_proposals_stop_at_the_block_that_completes_the_draw(self, density_rows):
        # flat target: the acceptance rate is 1/SAFETY, so n * SAFETY proposals
        # are expected; a draw evaluates at most one block beyond what it needs
        K, n = 256, 2000
        ds = DataSet(X=np.zeros((K, 1)), y=np.zeros(K), G=np.ones((K, 1)))
        neurons, rate = sample_integral_density(ds, flat_psi_table(), n, np.random.default_rng(27))
        step = max(2, samplers.BLOCK_DOUBLES // K)
        assert len(neurons) == n and density_rows[0] == samplers.PILOT_SIZE
        assert set(density_rows[1:]) == {step}
        proposed = sum(density_rows[1:])
        assert proposed <= 1.2 * n * samplers.SAFETY + step
        accepted = round(rate * proposed)
        assert n <= accepted < n + step and rate == accepted / proposed


class TestSharedEnvelope:
    """The pilot maximum kept on the dataset, per psi table."""

    def test_draws_on_one_dataset_evaluate_one_pilot(self, density_rows, psi):
        ds = gauss1d_dataset(K=300)
        for seed in (50, 51):
            sample_integral_density(ds, psi, 40, np.random.default_rng(seed))
        assert density_rows.count(samplers.PILOT_SIZE) == 1
        # a copy keeps no memo and computes its own, and another table its own
        sample_integral_density(dataclasses.replace(ds), psi, 40, np.random.default_rng(52))
        assert density_rows.count(samplers.PILOT_SIZE) == 2
        other = make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)
        sample_integral_density(ds, other, 40, np.random.default_rng(53))
        assert density_rows.count(samplers.PILOT_SIZE) == 3

    def test_warm_memo_draw_equals_fresh_draw(self, psi):
        ds = gauss1d_dataset(K=300)
        sample_integral_density(ds, psi, 30, np.random.default_rng(54))
        warm, warm_rate = sample_integral_density(ds, psi, 60, np.random.default_rng(55))
        fresh, fresh_rate = sample_integral_density(
            gauss1d_dataset(K=300), psi, 60, np.random.default_rng(55)
        )
        assert np.array_equal(warm.a, fresh.a) and np.array_equal(warm.b, fresh.b)
        assert warm_rate == fresh_rate

    def test_concurrent_draws_compute_one_pilot(self, density_rows, psi):
        # as test_concurrent_draws_compute_one_pass, for the envelope
        ds = gauss1d_dataset(K=300)
        start = threading.Barrier(8)

        def task(_):
            start.wait(timeout=60)
            return sample_integral_density(ds, psi, 20, np.random.default_rng(56))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                draws = list(pool.map(task, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert density_rows.count(samplers.PILOT_SIZE) == 1
        first, rate = draws[0]
        assert all(np.array_equal(ns.a, first.a) and np.array_equal(ns.b, first.b) and r == rate
                   for ns, r in draws)


class TestPilotMargin:
    """The margin that ``PILOT_SIZE`` rests on, on the training sets of the
    grids that run integral-density: the envelope covers the density
    over many independent proposals, and the grid's draws never double it."""

    @pytest.mark.parametrize(
        "name, d, s, sampling, seed",
        [
            ("planar_wave", 2, 2, "uniform-random", 7),  # relu-density
            ("planar_wave", 2, 2, "uniform-random", 11),
            ("gauss1d", 1, 1, "grid", 12345),  # configs/gauss1d.json
        ],
    )
    def test_envelope_covers_independent_proposals(self, caplog, name, d, s, sampling, seed):
        config = ExperimentConfig(
            benchmark=name, d=d, s=s, sampling=sampling, K=1000, n_grid=[25, 100],
            samplers=["integral-density"], replicates=1, test_size=10, master_seed=seed,
        )
        (spec,) = config.specs
        train, _, _, draw_cell = cli._prepare(config, [0])[0]
        psi = make_psi_table(s - 1, d, config.delta, radius=1.0)  # the bits of the run's table
        proposals = sample_uniform(train, 30_000, np.random.default_rng(seed))
        sup = eval_integral_density(train, psi, proposals.a, proposals.b).max()
        assert sup < samplers.SAFETY * samplers._pilot_peak(train, psi)
        with caplog.at_level(logging.WARNING, logger=samplers.__name__):
            for n in config.n_grid:
                draw_cell(spec, n)
        assert not [r for r in caplog.records if "envelope violated" in r.getMessage()]


RESIDUAL_LOCAL = SamplerSpec(kind="residual", base=SamplerSpec(kind="local-gradient"))


class TestResidual:
    def test_schedule_arithmetic(self):
        assert residual_schedule(50) == [8, 16, 32, 50]
        assert residual_schedule(8) == [8]
        assert residual_schedule(5) == [5]

    @PROPERTY_SETTINGS
    @given(n_target=st.integers(1, 10**6))
    def test_schedule_doubles_from_n0_to_target(self, n_target):
        sched = residual_schedule(n_target)
        assert sched[0] == min(samplers.RESIDUAL_N0, n_target) and sched[-1] == n_target
        assert all(b == min(2 * a, n_target) for a, b in zip(sched, sched[1:]))
        assert all(b > a for a, b in zip(sched, sched[1:]))

    def test_final_stage_dominates_cubic_cost(self):
        sched = residual_schedule(400)
        ops = [n**3 for n in sched]
        assert ops[-1] >= sum(ops[:-1])

    def test_stagewise_fit_and_final_model(self):
        bench = make_benchmark("gauss1d")
        rng = np.random.default_rng(27)
        train, val, _ = generate_dataset(bench, 400, "grid", rng=rng, test_size=50)
        act = ActivationSpec(1, 1.0 / 80.0)
        calls = []

        def fit(neurons):
            from gradfeat.regression import cross_validate

            model, _ = cross_validate(train, val, neurons, act)
            calls.append(len(neurons))
            return model

        neurons = sample_residual(train, RESIDUAL_LOCAL, 50, fit, rng)
        assert len(neurons) == 50
        assert calls == [8, 16, 32]

    def test_exact_fit_stops_early(self):
        rng = np.random.default_rng(28)
        X = rng.uniform(-0.5, 0.5, (40, 2))
        act = ActivationSpec(1, 1.0 / 40.0)
        target = RidgeModel(
            neurons=NeuronSet(np.array([[0.6, 0.8]]), np.array([0.1])),
            c=np.array([1.5]),
            poly=np.zeros(poly_width(act, 2)),
            activation=act,
        )
        ds = DataSet(X=X, y=np.zeros(40), G=eval_model_gradient(target, X))
        neurons = sample_residual(ds, RESIDUAL_LOCAL, 64, lambda _: target, rng)
        assert isinstance(neurons, NeuronSet)
        assert len(neurons) == 8  # residual gradients vanished after stage 0

    def test_delta_zero_rejected(self):
        rng = np.random.default_rng(29)
        ds = gradient_dataset(rng, K=20)
        heaviside = ActivationSpec(1, 0.0)
        heaviside_model = RidgeModel(
            neurons=NeuronSet(np.array([[1.0, 0.0]]), np.array([0.0])),
            c=np.array([1.0]),
            poly=np.zeros(poly_width(heaviside, 2)),
            activation=heaviside,
        )
        with pytest.raises(NonsmoothModelError):
            sample_residual(ds, RESIDUAL_LOCAL, 32, lambda _: heaviside_model, rng)

    def test_bad_base_rejected(self):
        rng = np.random.default_rng(30)
        ds = gradient_dataset(rng)
        with pytest.raises(ValueError):
            sample_residual(ds, SamplerSpec(kind="uniform"), 32, lambda n: None, rng)


class TestSamplerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="bogus")
        with pytest.raises(ValueError):
            SamplerSpec(kind="nonlocal-gradient", delta_w=0.0)
        with pytest.raises(ValueError):
            SamplerSpec(kind="residual", base=SamplerSpec(kind="uniform"))
        with pytest.raises(ValueError, match="delta_w"):
            SamplerSpec(kind="nonlocal-gradient", delta_w=True)

    def test_one_number_rule_with_the_config(self):
        # a Fraction is no number for the spec, as it is none for the config
        with pytest.raises(ValueError, match="delta_w"):
            SamplerSpec(kind="nonlocal-gradient", delta_w=Fraction(1, 20))
        with pytest.raises(cli.ConfigError, match="delta"):
            ExperimentConfig(benchmark="gauss1d", d=1, delta=Fraction(1, 20))
        assert SamplerSpec(kind="nonlocal-gradient", delta_w=np.float64(0.05)).delta_w == 0.05
        assert SamplerSpec(kind="nonlocal-gradient", delta_w=np.int64(1)).delta_w == 1

    def test_labels(self):
        assert SamplerSpec(kind="uniform").label == "uniform"
        base = SamplerSpec(kind="nonlocal-gradient", delta_w=0.1)
        spec = SamplerSpec(kind="residual", base=base)
        assert spec.label == "residual-nonlocal-gradient"


class TestDrawDispatcher:
    def test_seed_replay_identical(self):
        ds = planar_wave_dataset(K=100, seed=31)
        specs = [
            SamplerSpec(kind="uniform"),
            SamplerSpec(kind="active-subspace"),
            SamplerSpec(kind="local-gradient"),
            SamplerSpec(kind="nonlocal-gradient", delta_w=0.05),
        ]
        for spec in specs:
            a, _ = draw(spec, ds, 50, np.random.default_rng(99))
            b, _ = draw(spec, ds, 50, np.random.default_rng(99))
            assert np.array_equal(np.sort(a.a, axis=0), np.sort(b.a, axis=0))
            assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_only_integral_density_has_a_rate(self, psi):
        ds = gauss1d_dataset(K=200)
        for spec in (SamplerSpec(kind="uniform"),
                     SamplerSpec(kind="nonlocal-gradient", delta_w=0.05)):
            assert draw(spec, ds, 10, np.random.default_rng(35))[1] is None
        neurons, rate = draw(SamplerSpec(kind="integral-density"), ds, 10,
                             np.random.default_rng(36), psi_table=psi)
        ref, ref_rate = sample_integral_density(ds, psi, 10, np.random.default_rng(36))
        assert np.array_equal(neurons.a, ref.a) and np.array_equal(neurons.b, ref.b)
        assert rate == ref_rate and 0.0 < rate <= 1.0

    def test_missing_extras_rejected(self):
        ds = planar_wave_dataset(K=50, seed=32)
        with pytest.raises(ValueError):
            draw(SamplerSpec(kind="integral-density"), ds, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw(
                SamplerSpec(kind="residual", base=SamplerSpec(kind="local-gradient")),
                ds,
                5,
                np.random.default_rng(0),
            )


class TestSupportCondition:
    """Every gradient-based sampler keeps a in range(G) and b near the data."""

    @pytest.mark.parametrize(
        "kind", ["active-subspace", "local-gradient", "nonlocal-gradient"]
    )
    def test_range_and_offset(self, kind):
        ds = planar_wave_dataset(K=150, seed=33)
        spec = {
            "active-subspace": SamplerSpec(kind="active-subspace"),
            "local-gradient": SamplerSpec(kind="local-gradient"),
            "nonlocal-gradient": SamplerSpec(kind="nonlocal-gradient", delta_w=0.05),
        }[kind]
        ns, _ = draw(spec, ds, 300, np.random.default_rng(34))
        orth = np.array([np.sqrt(2.0), 1.0]) / np.sqrt(3.0)
        assert np.max(np.abs(ns.a @ orth)) < 1e-10
        if kind == "local-gradient":
            slack = np.abs(ns.a @ ds.X.T + ns.b[:, None]).min(axis=1)
            assert np.max(slack) < 1e-12
        elif kind == "nonlocal-gradient":
            slack = np.abs(ns.a @ ds.X.T + ns.b[:, None]).min(axis=1)
            assert np.max(slack) <= 6.0 * 0.05


def test_export_weights_roundtrip(tmp_path):
    ds = planar_wave_dataset(K=80, seed=35)
    ns = sample_local_gradient(ds, 40, np.random.default_rng(36))
    path = tmp_path / "weights.txt"
    export_weights_text(ns, path)
    rows = np.loadtxt(path)
    assert rows.shape == (40, 3)
    assert np.array_equal(rows[:, :2], ns.a)  # 17 digits round-trips float64
    assert np.array_equal(rows[:, 2], ns.b)


def test_export_weights_bytes(tmp_path):
    # 17 significant digits, as format(v, ".17g") writes them, also for the
    # signed zero, the smallest subnormal, the largest magnitudes and non-finites
    values = np.array([[-0.0, 5e-324, 1e308], [np.nan, np.inf, -np.inf], [0.1, -1.0, 1.0 / 3.0]])
    path = tmp_path / "weights.txt"
    export_weights_text(NeuronSet(values[:, :2], values[:, 2]), path)
    expected = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in values)
    assert path.read_bytes() == expected.encode()


def test_d1_reconstruction_identity():
    # quadrature of the exact 1-d representation density against Heaviside
    # features rebuilds the Gaussian bump
    f = lambda x: np.exp(-50.0 * x * x)
    fp = lambda x: -100.0 * x * np.exp(-50.0 * x * x)
    bgrid = np.linspace(-1.5, 1.5, 6001)
    h = bgrid[1] - bgrid[0]
    xs = np.linspace(-0.9, 0.9, 361)
    recon = np.zeros_like(xs)
    for a in (1.0, -1.0):
        cf = (a / 2.0) * fp(-a * bgrid)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (cf[1:] + cf[:-1]) * h)])
        tail = cum[-1] - cum  # integral of cf over {b >= -a x}
        recon += np.interp(-a * xs, bgrid, tail)
    assert np.max(np.abs(recon - f(xs))) <= 1e-3
