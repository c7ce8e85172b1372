import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare, ks_2samp

from gradfeat.activation import ActivationSpec, PsiTable, eval_bump, make_psi_table
from gradfeat.benchmarks import generate_dataset, make_benchmark
from gradfeat.geometry import NeuronSet
from gradfeat import samplers
from gradfeat.regression import RidgeModel, eval_model_gradient
from gradfeat.samplers import (
    AcceptanceCollapseError,
    AllZeroGradientsError,
    DataSet,
    DeltaZeroError,
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
    sample_nonlocal_gradient,
    sample_nonlocal_hessian,
    sample_residual,
    sample_uniform,
    uniform_parameter_density,
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

    def test_with_gradients_replaces_block(self):
        ds = DataSet(X=np.zeros((2, 2)), y=np.zeros(2))
        ds2 = ds.with_gradients(np.ones((2, 2)))
        assert ds.G is None and np.all(ds2.G == 1.0)


class TestUniform:
    def test_support(self):
        rng = np.random.default_rng(0)
        ds = DataSet.minimal(2, R=1.0)
        ns = sample_uniform(ds, 500, rng)
        assert np.max(np.abs(np.linalg.norm(ns.a, axis=1) - 1.0)) < 1e-12
        assert np.all(np.abs(ns.b) <= 1.0)

    def test_density_constant(self):
        assert uniform_parameter_density(2, 1.0) == pytest.approx(1.0 / (4.0 * np.pi))

    def test_offset_symmetry(self):
        rng = np.random.default_rng(1)
        ds = DataSet.minimal(3, R=1.0)
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
        ns = sample_nonlocal_gradient(ds, 300, 1e-12, np.random.default_rng(11))
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
        ns = sample_nonlocal_gradient(ds, n, 1e9, np.random.default_rng(13))
        ref = sample_active_subspace(ds, n, np.random.default_rng(14))
        # directions live on a rank-1 subspace here; compare sign-invariant law
        v = np.array([1.0, -np.sqrt(2.0)]) / np.sqrt(3.0)
        assert np.max(np.abs(np.abs(ns.a @ v) - 1.0)) < 1e-10
        assert np.max(np.abs(np.abs(ref.a @ v) - 1.0)) < 1e-10

    def test_full_rank_huge_width_matches_acg(self):
        rng = np.random.default_rng(15)
        ds = gradient_dataset(rng, K=40, d=3)
        n = 4000
        ns = sample_nonlocal_gradient(ds, n, 1e9, np.random.default_rng(16))
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
        ns = sample_nonlocal_gradient(ds, 150, 0.05, rng)
        residual = ns.a.copy()
        residual[:, :2] = 0.0  # range(G) = span(e1, e2)
        assert np.max(np.linalg.norm(residual, axis=1)) < 1e-10

    def test_offset_near_source_point(self):
        rng = np.random.default_rng(19)
        ds = gradient_dataset(rng, K=30)
        delta_w = 0.05
        ns = sample_nonlocal_gradient(ds, 400, delta_w, rng)
        slack = np.abs(ns.a @ ds.X.T + ns.b[:, None]).min(axis=1)
        assert np.max(slack) <= 6.0 * delta_w

    def test_zero_trace(self):
        ds = DataSet(X=np.zeros((3, 2)), y=np.zeros(3), G=np.zeros((3, 2)))
        with pytest.raises(ZeroTraceError):
            sample_nonlocal_gradient(ds, 5, 0.1, np.random.default_rng(0))


class TestNonlocalHessian:
    def test_rank_one_hessian_atoms(self):
        H = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        ds = DataSet(X=np.zeros((1, 2)), y=np.zeros(1), H=H)
        ns = sample_nonlocal_hessian(ds, 2000, 1e-9, np.random.default_rng(20))
        assert np.max(np.abs(np.abs(ns.a[:, 0]) - 1.0)) < 1e-12
        frac = np.mean(ns.a[:, 0] > 0)
        assert abs(frac - 0.5) <= 3.0 * 0.5 / np.sqrt(2000)

    def test_linear_function_everywhere_fails(self):
        H = np.zeros((4, 2, 2))
        ds = DataSet(X=np.zeros((4, 2)), y=np.zeros(4), H=H)
        with pytest.raises(ZeroTraceError):
            sample_nonlocal_hessian(ds, 5, 0.1, np.random.default_rng(0))

    def test_direction_in_hessian_span(self):
        rng = np.random.default_rng(21)
        K = 12
        H = np.zeros((K, 3, 3))
        for k in range(K):  # all Hessians act on span(e1, e2)
            M = np.zeros((3, 3))
            M[:2, :2] = rng.standard_normal((2, 2))
            H[k] = M + M.T
        ds = DataSet(X=rng.uniform(-0.4, 0.4, (K, 3)), y=np.zeros(K), H=H)
        ns = sample_nonlocal_hessian(ds, 100, 0.05, rng)
        assert np.max(np.abs(ns.a[:, 2])) < 1e-10

    def test_requires_hessians(self):
        ds = DataSet(X=np.zeros((2, 2)), y=np.zeros(2))
        with pytest.raises(MissingHessiansError):
            sample_nonlocal_hessian(ds, 3, 0.1, np.random.default_rng(0))


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def low_rank_factors(rng, K, d, r, hessian):
    """Per-point factors whose columns all lie in the span of a d x r basis B."""
    B = np.linalg.qr(rng.standard_normal((d, r)))[0]
    if hessian:
        M = rng.standard_normal((K, r, r))
        return B, B @ (M + M.transpose(0, 2, 1)) @ B.T
    return B, (rng.standard_normal((K, r)) @ B.T)[:, :, None]


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
        ns = samplers._sample_nonlocal(DataSet(X=X, y=np.zeros(K)), F, n, delta_w, rng)
        assert np.max(np.abs(np.linalg.norm(ns.a, axis=1) - 1.0)) < 1e-12
        off_span = ns.a - (ns.a @ B) @ B.T
        assert np.max(np.linalg.norm(off_span, axis=1)) < 1e-10
        slack = np.abs(ns.a @ X.T + ns.b[:, None]).min(axis=1)
        assert np.max(slack) <= 6.0 * delta_w

    def test_mixing_weights_match_pairwise_formula(self):
        rng = np.random.default_rng(39)
        X = rng.uniform(-0.5, 0.5, (50, 4))
        delta_w = 0.03
        dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        ref = np.exp(-dist / (2.0 * delta_w))
        ref[ref < 1e-6] = 0.0
        rows = rng.permutation(50)[:20]
        w = samplers._mixing_weights(X, rows, delta_w)
        np.testing.assert_allclose(w, ref[rows], rtol=1e-13, atol=0.0)
        assert 0 < np.sum(ref[rows] == 0.0) < ref[rows].size

    @pytest.mark.parametrize("hessian", [False, True])
    def test_blocking_does_not_change_draws(self, monkeypatch, hessian):
        rng = np.random.default_rng(37)
        K, d = 30, 3
        _, F = low_rank_factors(rng, K, d, 2, hessian)
        ds = DataSet(X=rng.uniform(-0.5, 0.5, (K, d)), y=np.zeros(K))
        whole = samplers._sample_nonlocal(ds, F, 20, 0.1, np.random.default_rng(38))
        monkeypatch.setattr(samplers, "BLOCK_DOUBLES", 2 * K * F.shape[2] + 1)
        blocked = samplers._sample_nonlocal(ds, F, 20, 0.1, np.random.default_rng(38))
        assert np.allclose(blocked.a, whole.a, rtol=0.0, atol=1e-12)
        assert np.allclose(blocked.b, whole.b, rtol=0.0, atol=1e-12)


def gauss1d_dataset(K=1000):
    X = np.linspace(-1.0, 1.0, K)[:, None]
    f = np.exp(-50.0 * X[:, 0] ** 2)
    G = (-100.0 * X[:, 0] * f)[:, None]
    rho = np.full(K, 0.5)  # uniform density on [-1, 1]
    return DataSet(X=X, y=f, G=G, rho=rho)


@pytest.fixture(scope="module")
def psi():
    return make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)


class TestIntegralDensity:

    def test_zero_gradients_give_zero(self, psi):
        ds = DataSet(X=np.zeros((5, 1)), y=np.zeros(5), G=np.zeros((5, 1)))
        val = eval_integral_density(ds, psi, np.array([1.0]), 0.3)
        assert val == 0.0

    def test_matches_continuous_quadrature(self, psi):
        # independent quadrature of int a f'(x) psi(a x + b) dx on [-1, 1]
        ds = gauss1d_dataset()
        delta = 1.0 / 80.0
        spec = ActivationSpec(1, delta)

        def integrand(x, b):
            return -100.0 * x * np.exp(-50.0 * x * x) * 0.5 * eval_bump(spec, x + b)

        bs = np.linspace(-0.9, 0.9, 25)
        disc = np.array(
            [eval_integral_density(ds, psi, np.array([1.0]), b) for b in bs]
        )
        cont = np.array(
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
            m_plus = eval_integral_density(ds, psi, np.array([1.0]), b)
            m_minus = eval_integral_density(ds, psi, np.array([-1.0]), -b)
            assert m_plus == pytest.approx(m_minus, abs=1e-12)


def flat_psi_table(T=2.0, value=1.0):
    # constant table => density |a . mean(g)| independent of (a, b) in 1-d
    grid = np.linspace(-T, T, 101)
    return PsiTable(m=0, d=1, delta=0.1, grid=grid, values=np.full(101, value))


class TestSampleIntegralDensity:
    def test_flat_target_acceptance_rate(self):
        ds = DataSet(X=np.zeros((4, 1)), y=np.zeros(4), G=np.ones((4, 1)), R=1.0)
        safety = 2.0
        neurons, rate = sample_integral_density(
            ds, flat_psi_table(), 2000, safety, np.random.default_rng(23)
        )
        assert len(neurons) == 2000
        n_prop = 2000 / rate
        assert abs(rate - 1.0 / safety) <= 4.0 * np.sqrt(0.25 / n_prop)

    def test_support_of_accepted_samples(self):
        ds = gauss1d_dataset(K=300)
        psi = make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)
        neurons, _ = sample_integral_density(ds, psi, 200, 1.5, np.random.default_rng(24))
        assert np.max(np.abs(np.abs(neurons.a) - 1.0)) < 1e-12
        assert np.max(np.abs(neurons.b)) <= 1.0

    def test_histogram_matches_density(self):
        ds = gauss1d_dataset(K=500)
        psi = make_psi_table(0, 1, 1.0 / 80.0, radius=1.0)
        neurons, _ = sample_integral_density(ds, psi, 4000, 1.5, np.random.default_rng(25))
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

    def test_acceptance_collapse(self):
        ds = DataSet(X=np.zeros((2, 1)), y=np.zeros(2), G=np.ones((2, 1)), R=1.0)
        with pytest.raises(AcceptanceCollapseError):
            sample_integral_density(
                ds, flat_psi_table(), 50, 2.0e4, np.random.default_rng(26)
            )

    def test_identically_zero_density(self):
        ds = DataSet(X=np.zeros((2, 1)), y=np.zeros(2), G=np.zeros((2, 1)))
        with pytest.raises(AllZeroGradientsError):
            sample_integral_density(ds, flat_psi_table(), 5, 1.5, np.random.default_rng(0))


class TestResidual:
    def test_schedule_arithmetic(self):
        assert residual_schedule(2.0, 8, 50) == [8, 16, 32, 50]
        assert residual_schedule(2.0, 8, 8) == [8]
        sched = residual_schedule(1.3, 5, 100)
        assert sched[0] == 5 and sched[-1] == 100
        assert all(b > a for a, b in zip(sched, sched[1:]))

    def test_final_stage_dominates_cubic_cost(self):
        sched = residual_schedule(2.0, 8, 400)
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

        neurons = sample_residual(
            train, SamplerSpec(kind="local-gradient"), 50, 2.0, 8, fit, rng
        )
        assert len(neurons) == 50
        assert calls == [8, 16, 32]

    def test_exact_fit_stops_early(self):
        rng = np.random.default_rng(28)
        X = rng.uniform(-0.5, 0.5, (40, 2))
        act = ActivationSpec(1, 1.0 / 40.0)
        target = RidgeModel(
            neurons=NeuronSet(np.array([[0.6, 0.8]]), np.array([0.1])),
            c=np.array([1.5]),
            poly=None,
            activation=act,
        )
        ds = DataSet(X=X, y=np.zeros(40), G=eval_model_gradient(target, X))
        neurons = sample_residual(
            ds, SamplerSpec(kind="local-gradient"), 64, 2.0, 8, lambda _: target, rng
        )
        assert isinstance(neurons, NeuronSet)
        assert len(neurons) == 8  # residual gradients vanished after stage 0

    def test_delta_zero_rejected(self):
        rng = np.random.default_rng(29)
        ds = gradient_dataset(rng, K=20)
        heaviside_model = RidgeModel(
            neurons=NeuronSet(np.array([[1.0, 0.0]]), np.array([0.0])),
            c=np.array([1.0]),
            poly=None,
            activation=ActivationSpec(1, 0.0),
        )
        with pytest.raises(DeltaZeroError):
            sample_residual(
                ds, SamplerSpec(kind="local-gradient"), 32, 2.0, 8, lambda _: heaviside_model, rng
            )

    def test_bad_base_rejected(self):
        rng = np.random.default_rng(30)
        ds = gradient_dataset(rng)
        with pytest.raises(ValueError):
            sample_residual(ds, SamplerSpec(kind="uniform"), 32, 2.0, 8, lambda n: None, rng)


class TestSamplerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="bogus")
        with pytest.raises(ValueError):
            SamplerSpec(kind="nonlocal-gradient", delta_w=0.0)
        with pytest.raises(ValueError):
            SamplerSpec(kind="residual", base=SamplerSpec(kind="uniform"))
        with pytest.raises(ValueError):
            SamplerSpec(kind="residual", base=SamplerSpec(kind="local-gradient"), kappa=1.0)

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
            a = draw(spec, ds, 50, np.random.default_rng(99)).neurons
            b = draw(spec, ds, 50, np.random.default_rng(99)).neurons
            assert np.array_equal(np.sort(a.a, axis=0), np.sort(b.a, axis=0))
            assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

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
        ns = draw(spec, ds, 300, np.random.default_rng(34)).neurons
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
