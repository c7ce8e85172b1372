import numpy as np
import pytest

from gradfeat.activation import ActivationSpec, eval_bump
from gradfeat.geometry import NeuronSet
from gradfeat.kernels import finite_rank_kernel, mc_kernel, radial_structure_check
from gradfeat.samplers import DataSet, sample_uniform

HEAVISIDE = ActivationSpec(1, 0.0)


def origin(d):
    # geometry-only dataset: the uniform law reads only its dimension
    return DataSet(X=np.zeros((1, d)), y=np.zeros(1))


def closed_form_1d(x, xp, R=1.0):
    # independently derived: k(x, x') = 1/2 - |x - x'| / (4R) for s=1 uniform
    return 0.5 - abs(x - xp) / (4.0 * R)


class TestFiniteRankKernel:
    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(0)
        ds = origin(3)
        neurons = sample_uniform(ds, 64, rng)
        x = rng.uniform(-0.5, 0.5, 3)
        assert finite_rank_kernel(x, x, neurons, HEAVISIDE) >= 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        neurons = sample_uniform(origin(2), 32, rng)
        x, xp = rng.uniform(-0.5, 0.5, (2, 2))
        assert finite_rank_kernel(x, xp, neurons, HEAVISIDE) == finite_rank_kernel(
            xp, x, neurons, HEAVISIDE
        )

    def test_single_neuron_heaviside(self):
        neurons = NeuronSet(np.array([[1.0, 0.0]]), np.array([0.0]))
        assert finite_rank_kernel([0.3, 0.1], [0.5, -0.2], neurons, HEAVISIDE) == 1.0

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        neurons = sample_uniform(origin(3), 200, rng)
        pts = rng.uniform(-0.5, 0.5, (20, 3))
        gram = np.array(
            [[finite_rank_kernel(x, y, neurons, HEAVISIDE) for y in pts] for x in pts]
        )
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * np.trace(gram)


class TestMcKernel:
    def test_closed_form_offset_pair(self):
        est = mc_kernel([0.5], [-0.5], HEAVISIDE, 10**5, np.random.default_rng(3))
        assert abs(est.value - closed_form_1d(0.5, -0.5)) <= 3.0 * est.stderr

    def test_closed_form_origin(self):
        est = mc_kernel([0.0], [0.0], HEAVISIDE, 10**5, np.random.default_rng(4))
        assert abs(est.value - 0.5) <= max(3.0 * est.stderr, 1e-3)

    def test_stderr_scaling(self):
        n = 2 * 10**4
        e1 = mc_kernel([0.3], [-0.2], HEAVISIDE, n, np.random.default_rng(5))
        e2 = mc_kernel([0.3], [-0.2], HEAVISIDE, 4 * n, np.random.default_rng(6))
        assert e1.stderr / e2.stderr == pytest.approx(2.0, rel=0.1)

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_kernel([0.0], [0.0], HEAVISIDE, 10, np.random.default_rng(0))

    def test_finite_rank_converges_to_mc(self):
        # defect |k_N - k_10N| shrinks consistently with the MC rate
        rng = np.random.default_rng(7)
        ds = origin(2)
        pairs = [(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)) for _ in range(9)]
        gaps = []
        for n in (100, 1000, 10000):
            neurons_small = sample_uniform(ds, n, rng)
            neurons_big = sample_uniform(ds, 10 * n, rng)
            gaps.append(
                np.median(
                    [
                        abs(
                            finite_rank_kernel(x, y, neurons_small, HEAVISIDE)
                            - finite_rank_kernel(x, y, neurons_big, HEAVISIDE)
                        )
                        for x, y in pairs
                    ]
                )
            )
        assert gaps[0] > gaps[1] > gaps[2]


class TestRadialStructure:
    def test_rotation_invariance_group(self):
        rng = np.random.default_rng(8)
        theta = 1.1
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        x = np.array([0.4, 0.1])
        xp = np.array([-0.2, 0.3])
        groups = [[(x, xp), (Q @ x, Q @ xp)]]
        assert radial_structure_check(groups, HEAVISIDE, 4 * 10**4, rng)

    def test_equal_triple_different_orientation(self):
        # same (|x|, |x'|, |x-x'|) but not related by applying one rotation to
        # the first pair's layout
        a = 0.45
        x1 = np.array([a, 0.0])
        y1 = np.array([-a, 0.0])
        x2 = np.array([0.0, a])
        y2 = np.array([0.0, -a])
        groups = [[(x1, y1), (x2, y2), (np.array([a / np.sqrt(2)] * 2), -np.array([a / np.sqrt(2)] * 2))]]
        assert radial_structure_check(groups, HEAVISIDE, 4 * 10**4, np.random.default_rng(9))

    def test_radial_slope_fit(self):
        # pairs with equal norms, varying separation: k = p0 - c * dist with c > 0
        rng = np.random.default_rng(10)
        r = 0.5
        seps = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        values, errs = [], []
        for sep, sub in zip(seps, rng.spawn(len(seps))):
            half = sep / 2.0
            y = np.sqrt(r * r - half * half)
            x1 = np.array([half, y])
            x2 = np.array([-half, y])
            assert abs(np.linalg.norm(x1) - r) < 1e-12
            est = mc_kernel(x1, x2, HEAVISIDE, 10**5, sub)
            values.append(est.value)
            errs.append(est.stderr)
        A = np.vstack([np.ones(len(seps)), -np.asarray(seps)]).T
        coef, *_ = np.linalg.lstsq(A, np.asarray(values), rcond=None)
        assert coef[1] > 0.0  # radial part decreases with separation
        resid = np.abs(A @ coef - values)
        assert np.all(resid <= 4.0 * np.asarray(errs))

    def test_group_triple_mismatch_rejected(self):
        groups = [[(np.array([0.4, 0.0]), np.array([0.0, 0.0])),
                   (np.array([0.5, 0.0]), np.array([0.0, 0.0]))]]
        with pytest.raises(ValueError):
            radial_structure_check(groups, HEAVISIDE, 1000, np.random.default_rng(0))

    def test_pair_outside_unit_ball_rejected(self):
        groups = [[(np.array([1.2, 0.0]), np.array([0.0, 0.0]))] * 2]
        with pytest.raises(ValueError, match="unit ball"):
            radial_structure_check(groups, HEAVISIDE, 1000, np.random.default_rng(0))


def test_smoothed_kernel_is_double_mollification():
    # in 1-d the radial mollifier equals the offset bump, so the delta > 0
    # kernel is the delta = 0 closed form convolved on both arguments
    delta = 1.0 / 40.0
    act = ActivationSpec(1, delta)
    spec = ActivationSpec(1, delta)
    R = 1.0

    def direct(x, xp):
        # quadrature of the defining integral over b in [-R, R], a = +-1
        b = np.linspace(-R, R, 4001)
        total = np.zeros_like(b)
        from gradfeat.activation import eval_activation

        for a in (1.0, -1.0):
            total += eval_activation(act, a * x + b) * eval_activation(act, a * xp + b)
        return np.trapezoid(total, b) / (4.0 * R)

    def doubly_smoothed(x, xp):
        u = np.linspace(-12 * delta, 12 * delta, 301)
        wu = eval_bump(spec, u)
        k0 = 0.5 - np.abs((x - u[:, None]) - (xp - u[None, :])) / (4.0 * R)
        w2 = np.outer(wu, wu)
        du = u[1] - u[0]
        return float(np.sum(w2 * k0) * du * du)

    for x, xp in [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.1), (0.45, 0.5)]:
        assert direct(x, xp) == pytest.approx(doubly_smoothed(x, xp), abs=1e-3)
