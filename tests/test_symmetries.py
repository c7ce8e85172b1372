"""Symmetries of a whole cell: draw, cross-validated fit and test error.

Scaling the targets, gradients and Hessians by a power of two scales every
derivative-informed density by a constant, so every sampler draws the same
neurons from the same stream; the ridge path is linear in ``y``, so ``alpha``
is the same and the test RMSE scales by the same power, all bit for bit.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfeat import _blas
from gradfeat.activation import ActivationSpec, make_psi_table
from gradfeat.benchmarks import generate_dataset, make_benchmark
from gradfeat.regression import cross_validate, eval_model, rmse
from gradfeat.samplers import DataSet, SamplerSpec, draw

K, TEST_SIZE, N = 800, 500, 60
# (benchmark, d, s): a Heaviside-like sigmoid, and the ReLU-like order s = 2
SETTINGS = [("checkmark", 3, 1), ("planar_wave", 2, 2)]
DELTA = 1.0 / 40.0
NONLOCAL = SamplerSpec("nonlocal-gradient", delta_w=2 * DELTA)  # a run's default width
SPECS = [  # all 8 labels
    SamplerSpec("uniform"),
    SamplerSpec("active-subspace"),
    SamplerSpec("local-gradient"),
    NONLOCAL,
    SamplerSpec("nonlocal-hessian", delta_w=2 * DELTA),
    SamplerSpec("integral-density"),
    SamplerSpec("residual", base=SamplerSpec("local-gradient")),
    SamplerSpec("residual", base=NONLOCAL),
]


@functools.cache
def setting(name, d, s):
    """The benchmark, the activation and its psi table."""
    activation = ActivationSpec(s=s, delta=DELTA)
    return make_benchmark(name, d), activation, make_psi_table(s - 1, d, DELTA, radius=1.0)


def scaled(ds: DataSet, factor: float) -> DataSet:
    """``ds`` with ``y``, ``G`` and ``H`` times ``factor``."""
    return DataSet(
        X=ds.X,
        y=ds.y * factor,
        G=None if ds.G is None else ds.G * factor,
        H=None if ds.H is None else ds.H * factor,
    )


def run_cell(spec, train, val, test, activation, psi, seed):
    """A run's cell: its neurons, acceptance rate, ``alpha`` and test RMSE."""
    def fit(neurons):
        return cross_validate(train, val, neurons, activation)

    rng = np.random.default_rng([seed, 1])
    neurons, accept = draw(spec, train, N, rng, psi_table=psi, fit_callback=lambda nn: fit(nn)[0])
    model, report = fit(neurons)
    return neurons, accept, report.alpha, rmse(eval_model(model, test.X), test.y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(-3, 5),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(SETTINGS),
    spec=st.sampled_from(SPECS),
)
def test_power_of_two_scale_of_the_target_scales_the_cell(k, seed, where, spec):
    bench, activation, psi = setting(*where)
    data = generate_dataset(bench, K, rng=np.random.default_rng(seed), test_size=TEST_SIZE,
                            with_hessians=True)
    factor = 2.0**k
    with _blas.one_thread():  # as a run holds it: the bits of the fits read BLAS results
        base = run_cell(spec, *data, activation, psi, seed)
        same = run_cell(spec, *(scaled(ds, factor) for ds in data), activation, psi, seed)
    (neurons, accept, alpha, test_rmse), (s_neurons, s_accept, s_alpha, s_test_rmse) = base, same
    assert neurons.a.tobytes() == s_neurons.a.tobytes()
    assert neurons.b.tobytes() == s_neurons.b.tobytes()
    assert accept == s_accept
    assert alpha == s_alpha
    assert s_test_rmse == factor * test_rmse
