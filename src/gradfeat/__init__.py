"""Random-feature ridge regression with derivative-informed weight sampling."""

from .activation import (
    ActivationSpec,
    PsiTable,
    build_psi_table,
    eval_activation,
    eval_bump,
    eval_psi,
    make_psi_table,
)
from .benchmarks import Benchmark, generate_dataset, make_benchmark
from .geometry import NeuronSet, RngStream, sample_acg
from .kernels import KernelEstimate, finite_rank_kernel, mc_kernel, radial_structure_check
from .regression import (
    FitReport,
    RidgeModel,
    cross_validate,
    eval_model,
    eval_model_gradient,
    feature_matrix,
    ridge_solve,
    rmse,
)
from .samplers import (
    DataSet,
    SamplerSpec,
    draw,
    eval_integral_density,
    export_weights_text,
    sample_active_subspace,
    sample_integral_density,
    sample_local_gradient,
    sample_nonlocal,
    sample_residual,
    sample_uniform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
