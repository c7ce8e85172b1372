import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from gradfeat.activation import (
    MAX_TABLE_POINTS,
    ActivationSpec,
    GridResolutionError,
    PsiTable,
    build_psi_table,
    eval_activation,
    eval_bump,
    eval_psi,
    make_psi_table,
)
from psi_moments import psi_moment, spacing, top_moment


def analytic_top_moment(m, d):
    # closed form for odd d where the spectral filter is a pure derivative
    assert d % 2 == 1
    return (-1) ** ((d - 1) // 2) * math.factorial(d + m - 1) / (2 * (2 * math.pi) ** (d - 1))


class TestEvalActivation:
    def test_sigmoid_symmetry(self):
        assert eval_activation(ActivationSpec(1, 0.1), 0.0) == pytest.approx(0.5)

    def test_softplus_at_zero(self):
        spec = ActivationSpec(2, 1.0 / 40.0)
        assert eval_activation(spec, 0.0) == pytest.approx(math.log(2.0) / 40.0, rel=1e-12)

    def test_relu_identity(self):
        assert eval_activation(ActivationSpec(2, 0.0), 3.0) == 3.0

    def test_heaviside_convention(self):
        spec = ActivationSpec(1, 0.0)
        assert eval_activation(spec, 0.0) == 1.0
        assert eval_activation(spec, -1e-300) == 0.0

    def test_extreme_arguments_stable(self):
        for s in (1, 2):
            spec = ActivationSpec(s, 1e-2)
            big = 1e4 * spec.delta
            with np.errstate(over="raise"):
                lo = eval_activation(spec, -big)
                hi = eval_activation(spec, big)
            assert np.isfinite(lo) and np.isfinite(hi)
        assert eval_activation(ActivationSpec(1, 1e-2), 100.0) == pytest.approx(1.0)
        assert eval_activation(ActivationSpec(2, 1e-2), 100.0) == pytest.approx(100.0, rel=1e-10)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ActivationSpec(3, 0.1)
        with pytest.raises(ValueError):
            ActivationSpec(1, -0.5)


class TestEvalBump:
    def test_center_values(self):
        assert eval_bump(ActivationSpec(1, 1.0), 0.0) == pytest.approx(0.25)
        assert eval_bump(ActivationSpec(1, 1.0 / 80.0), 0.0) == pytest.approx(20.0)

    def test_unit_mass(self):
        spec = ActivationSpec(1, 1.0)
        t = np.linspace(-60.0, 60.0, 24001)
        mass = np.trapezoid(eval_bump(spec, t), t)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_rejects_delta_zero(self):
        with pytest.raises(ValueError):
            eval_bump(ActivationSpec(1, 0.0), 0.0)

    def test_matches_sigmoid_derivative(self):
        # finite differences of the sigmoid against the bump, both widths
        rng = np.random.default_rng(5)
        for delta in (1.0 / 40.0, 1.0 / 80.0):
            spec = ActivationSpec(1, delta)
            t = rng.uniform(-10.0 * delta, 10.0 * delta, 100)
            h = 1e-4 * delta
            fd = (eval_activation(spec, t + h) - eval_activation(spec, t - h)) / (2.0 * h)
            direct = eval_bump(spec, t)
            assert np.max(np.abs(fd - direct) / np.abs(direct)) < 1e-6


@pytest.mark.parametrize("s", [1, 2])
def test_convolution_identity(s):
    # sigma_{s,delta} equals the quadrature of sigma_s against the bump
    delta = 1.0 / 40.0
    spec = ActivationSpec(s, delta)
    rng = np.random.default_rng(3)
    for t in rng.uniform(-0.3, 0.3, 20):
        if s == 1:
            conv, _ = quad(lambda tau: eval_bump(spec, t - tau), 0.0, np.inf, limit=200)
        else:
            conv, _ = quad(lambda tau: tau * eval_bump(spec, t - tau), 0.0, np.inf, limit=200)
        assert abs(eval_activation(spec, t) - conv) < 1e-6


class TestPsiTable:
    def test_d1_is_half_bump(self):
        delta = 0.1
        table = build_psi_table(0, 1, delta, 1.0 + 10.0 * delta)
        ref = 0.5 * eval_bump(ActivationSpec(1, delta), table.grid)
        assert np.max(np.abs(table.values - ref)) < 1e-10

    def test_d3_vanishing_moments(self):
        table = make_psi_table(0, 3, 0.05, radius=1.0)
        peak = np.max(np.abs(table.values))
        T = table.half_width
        for k in (0, 1):
            assert abs(psi_moment(table, k)) <= 1e-6 * peak * T

    def test_d3_second_moment_delta_invariant(self):
        tops = [top_moment(make_psi_table(0, 3, delta, radius=1.0)) for delta in (0.05, 0.1)]
        assert tops[0] == pytest.approx(tops[1], rel=1e-4)
        assert tops[0] == pytest.approx(analytic_top_moment(0, 3), rel=1e-6)

    @pytest.mark.parametrize("m,d", [(0, 1), (1, 1), (0, 3), (1, 3), (0, 5)])
    def test_odd_d_top_moment_analytic(self, m, d):
        table = make_psi_table(m, d, 0.05, radius=1.0)
        assert top_moment(table) == pytest.approx(analytic_top_moment(m, d), rel=1e-5)

    @pytest.mark.parametrize("m,d", [(0, 2), (1, 2), (0, 4), (1, 4)])
    def test_even_d_top_moment_vanishes_by_parity(self, m, d):
        # |xi|^(d-1) is an even multiplier, so psi has parity (-1)^m in b and
        # the moment of order d + m - 1 cancels on the symmetric grid
        table = make_psi_table(m, d, 0.05, radius=1.0)
        scale = float(
            np.trapezoid(
                np.abs(table.values) * np.abs(table.grid) ** (m + d - 1), dx=spacing(table)
            )
        )
        assert abs(top_moment(table)) <= 1e-9 * scale

    @pytest.mark.parametrize("m,d", [(0, 2), (1, 2), (0, 3), (1, 4), (0, 5), (1, 5)])
    def test_parity_exact(self, m, d):
        table = make_psi_table(m, d, 0.1, radius=1.0)
        vals = table.values
        flipped = vals[::-1]
        assert np.max(np.abs(vals - (-1.0) ** m * flipped)) <= 1e-12 * np.max(np.abs(vals))

    @pytest.mark.parametrize("m,d", [(0, 2), (1, 3), (0, 4)])
    def test_sub_top_moments_vanish(self, m, d):
        table = make_psi_table(m, d, 0.1, radius=1.0)
        peak = np.max(np.abs(table.values))
        T = table.half_width
        for k in range(d + m - 1):
            assert abs(psi_moment(table, k)) <= 1e-6 * peak * T ** (k + 1)

    def test_end_decay_invariant_enforced(self):
        # T = 10 delta leaves bump tails of relative size ~ 4 e^-10 >> 1e-8
        with pytest.raises(GridResolutionError):
            build_psi_table(0, 1, 0.2, 2.0)

    def test_cap_checked_before_first_build(self):
        # 32 T / delta is far past MAX_TABLE_POINTS at the first T
        with pytest.raises(GridResolutionError, match="does not decay within"):
            make_psi_table(0, 1, 1e-300, radius=1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_bad_width_named_before_the_cap(self, delta):
        # a width that is not > 0 is a bad argument, not a table past the cap
        with pytest.raises(ValueError, match="> 0") as info:
            make_psi_table(0, 1, delta, radius=1.0)
        assert not isinstance(info.value, GridResolutionError)

    @pytest.mark.parametrize("delta", [0.01, 2e-6])
    def test_no_build_past_the_cap(self, monkeypatch, delta):
        # a stub that never decays records each T; at 2e-6 the first table
        # would already hold 2**24 points
        calls = []

        def never_decays(m, d, delta, T):
            calls.append(T)
            raise GridResolutionError("stub")

        monkeypatch.setattr("gradfeat.activation.build_psi_table", never_decays)
        with pytest.raises(GridResolutionError, match="does not decay within"):
            make_psi_table(0, 3, delta, radius=1.0)
        T0 = 1.0 + 10.0 * delta
        assert calls == [T0 * 2.0**i for i in range(len(calls))]
        assert all(32.0 * T / delta <= MAX_TABLE_POINTS for T in calls)
        assert 32.0 * T0 * 2.0 ** len(calls) / delta > MAX_TABLE_POINTS
        assert bool(calls) == (delta == 0.01)

    def test_grid_spacing_invariant(self):
        table = make_psi_table(0, 3, 0.05, radius=1.0)
        assert spacing(table) <= 0.05 / 16.0 + 1e-15
        assert table.half_width >= 1.0 + 10.0 * 0.05

    def test_delta_scaling_law(self):
        # psi_{m,delta}(b) = delta^-(m+d) psi_{m,1}(b / delta)
        m, d = 1, 3
        coarse = build_psi_table(m, d, 1.0, 40.0)
        fine = build_psi_table(m, d, 0.5, 20.0)
        probe = np.linspace(-5.0, 5.0, 101)
        lhs = eval_psi(fine, probe)
        rhs = 0.5 ** -(m + d) * eval_psi(coarse, probe / 0.5)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(lhs))


@pytest.fixture(scope="module")
def table():
    return make_psi_table(0, 3, 0.1, radius=1.0)


class TestEvalPsi:

    def test_exact_at_nodes(self, table):
        idx = len(table.grid) // 3
        assert eval_psi(table, table.grid[idx]) == table.values[idx]

    def test_zero_outside_support(self, table):
        assert eval_psi(table, table.half_width + 1.0) == 0.0
        assert eval_psi(table, -table.half_width - 1.0) == 0.0

    def test_midpoint_is_mean(self, table):
        i = len(table.grid) // 2 + 7
        mid = 0.5 * (table.grid[i] + table.grid[i + 1])
        expect = 0.5 * (table.values[i] + table.values[i + 1])
        assert eval_psi(table, mid) == pytest.approx(expect, rel=1e-12)


def test_psi_table_requires_positive_delta():
    with pytest.raises(ValueError):
        build_psi_table(0, 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_psi_table(3, 3, 0.1, 2.0)


LOOKUP_TABLE_KEYS = [(m, d) for m in (0, 1, 2) for d in (1, 2, 3)] + ["flat", "cos"]


@functools.cache
def lookup_table(key):
    # the tables the samplers build for m in {0, 1, 2}, d in {1, 2, 3}, the
    # table of test_samplers.flat_psi_table, and a varying one on the same
    # grid (which is np.linspace's, test_grid_is_linspace)
    if key in ("flat", "cos"):
        grid = np.linspace(-2.0, 2.0, 101)
        values = np.full(101, 1.0) if key == "flat" else np.cos(grid)
        return PsiTable(m=0, d=1, delta=0.1, half_width=2.0, values=values)
    m, d = key
    return make_psi_table(m, d, 1.0 / 80.0 if d == 1 else 1.0 / 40.0, radius=1.0)


@st.composite
def psi_arguments(draw):
    table = lookup_table(draw(st.sampled_from(LOOKUP_TABLE_KEYS)))
    grid = table.grid
    T = table.half_width
    nodes = draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=30))
    t = grid[nodes]
    t = np.concatenate(
        [
            t,
            np.nextafter(t, np.inf),
            np.nextafter(t, -np.inf),
            draw(st.lists(st.floats(-1.5 * T, 1.5 * T), max_size=30)),
            [T, -T, np.nextafter(T, np.inf), -np.nextafter(T, np.inf), 2.0 * T, -3.0 * T],
            [np.inf, -np.inf, np.nan],
        ]
    )
    return table, draw(st.permutations(t))


def in_range(case):
    """Only the entries in ``[-T, T]``: the lookup that skips the clip and the mask."""
    table, t = case
    t = np.asarray(t, dtype=float)
    T = table.half_width
    return table, t[(-T <= t) & (t <= T)]


def assert_matches_interp(table, t, under="raise"):
    """``eval_psi`` against ``np.interp`` bit for bit, on ``t`` as a 2-row
    array and on single entries, with every floating-point error raising
    except underflow when ``under="ignore"``."""
    t = np.asarray(t, dtype=float)
    if t.size % 2:
        t = np.append(t, t[0])
    t = t.reshape(2, -1)
    ref = np.interp(t, table.grid, table.values, left=0.0, right=0.0)
    with np.errstate(all="raise", under=under):
        got = eval_psi(table, t)
    assert got.shape == t.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for x, r in zip(t[0, :5], ref[0, :5]):
        one = eval_psi(table, np.float64(x))
        assert one.shape == ()
        assert one.view(np.int64) == r.view(np.int64)


class TestEvalPsiProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(psi_arguments())
    def test_matches_interp_bit_for_bit(self, case):
        assert_matches_interp(*case)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(psi_arguments().map(in_range))
    def test_matches_interp_bit_for_bit_in_range(self, case):
        # a subnormal t next to the node at 0 gives a subnormal product, the
        # same bits as np.interp's: underflow is no error here, invalid,
        # overflow and divide still raise
        assert_matches_interp(*case, under="ignore")

    def test_matches_interp_at_nodes_of_the_largest_table(self):
        # as many intervals as the largest table make_psi_table builds, on a
        # half-width whose spacing and nodes are rounded: at, next to and
        # within a few 1e-6 spacings of every 1,000th node, where the lookup
        # trusts floor() only past 1e-6 of a node
        n = MAX_TABLE_POINTS
        values = np.random.default_rng(0).standard_normal(n + 1)
        table = PsiTable(m=0, d=1, delta=1.0, half_width=np.pi, values=values)
        grid = table.grid
        nodes = grid[np.append(np.arange(0, n + 1, 1000), n)]
        h = 2.0 * np.pi / n
        t = np.concatenate(
            [
                nodes,
                np.nextafter(nodes, np.inf),
                np.nextafter(nodes, -np.inf),
                *(nodes + k * h for k in (-2e-6, -1e-6, -5e-7, 5e-7, 1e-6, 2e-6)),
            ]
        )
        assert_matches_interp(*in_range((table, t)))


TINY = 2.2250738585072014e-308  # smallest normal double


@st.composite
def sigmoid_arguments(draw):
    """A width and 2-d arguments ``u * delta`` around the overflow edge of ``exp``."""
    delta = draw(st.floats(1e-3, 1.0))
    u = [
        *draw(st.lists(st.floats(-800.0, 800.0), max_size=30)),
        *draw(st.lists(st.floats(709.0, 746.0) | st.floats(-746.0, -709.0), max_size=10)),
        *draw(st.lists(st.floats(-1e300, 1e300), max_size=5)),
        709.0, -709.0, 745.0, -745.0, 746.0, -746.0, 0.0, -0.0, np.inf, -np.inf, np.nan,
    ]
    u = np.array(draw(st.permutations(u)))
    if u.size % 2:
        u = np.append(u, u[0])
    return delta, (u * delta).reshape(2, -1)


class TestSigmoidProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sigmoid_arguments())
    def test_matches_expit(self, case):
        # within 2 ulps of scipy's expit where that is a normal double, and
        # within 1.3e-308 below it, where the clipped exponent holds the value
        # at 1 / (1 + exp(709)) while expit runs through the subnormals to 0
        delta, t = case
        spec = ActivationSpec(1, delta)
        ref = expit(t / delta)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = eval_activation(spec, t)
            ones = [eval_activation(spec, np.float64(x)) for x in t.flat]
        assert got.shape == t.shape
        assert all(one.shape == () for one in ones)
        for out in (got, np.array(ones).reshape(t.shape)):
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(out), nan)
            normal = ref >= TINY
            err = np.abs(out - ref)
            assert np.all(err[normal] <= 4.5e-16 * ref[normal])
            assert np.all(err[~normal & ~nan] <= 1.3e-308)


def _expression_activation(spec, t):
    # the sigmoid and softplus as whole-array expressions, one temporary per
    # step: the reference for eval_activation's in-place steps
    u = t / spec.delta
    if spec.s == 1:
        return 1.0 / (1.0 + np.exp(np.minimum(-u, 709.0)))
    return spec.delta * (np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u))))


class TestActivationBits:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sigmoid_arguments(), st.sampled_from([1, 2]))
    def test_in_place_steps_match_expressions(self, case, s):
        # bit for bit on 2-d and 0-d input, each against the expression on the
        # same input: numpy's loops differ in which NaN operand they return
        delta, t = case
        spec = ActivationSpec(s, delta)
        ref = _expression_activation(spec, t).view(np.int64)
        got = eval_activation(spec, t)
        assert got.shape == t.shape
        assert np.array_equal(got.view(np.int64), ref)
        for x in t.flat:
            one = eval_activation(spec, np.float64(x))
            assert one.shape == ()
            r = _expression_activation(spec, np.float64(x))
            assert one.view(np.int64) == r.view(np.int64)
        # in place, as feature_matrix evaluates its pre-activations
        inplace = t.copy()
        assert eval_activation(spec, inplace, out=inplace) is inplace
        assert np.array_equal(inplace.view(np.int64), ref)


class TestPsiTableGrid:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.floats(1e-300, 1e300), st.integers(2, 10_000))
    def test_grid_is_linspace(self, T, n):
        # the derived grid is np.linspace's, bit for bit, so references built
        # with np.linspace sit on the table's nodes
        table = PsiTable(m=0, d=1, delta=0.1, half_width=T, values=np.zeros(n))
        assert table.half_width == T
        assert np.array_equal(table.grid.view(np.int64), np.linspace(-T, T, n).view(np.int64))


@pytest.mark.parametrize(
    "half_width, values",
    [
        (2.0, np.ones(1)),
        (0.0, np.ones(101)),
        (-1.0, np.ones(101)),
        (np.inf, np.ones(101)),
        (np.nan, np.ones(101)),
    ],
    ids=["one-point", "half-width-zero", "half-width-negative", "half-width-inf",
         "half-width-nan"],
)
def test_psi_table_rejects_bad_grid(half_width, values):
    with pytest.raises(ValueError):
        PsiTable(m=0, d=1, delta=0.1, half_width=half_width, values=values)
