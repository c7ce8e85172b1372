"""Weight-sampling strategies: given a dataset and a count, produce neurons.

All strategies draw i.i.d. hyperplanes (a, b) with unit normal ``a``:

* ``uniform``            -- a uniform on the sphere, b uniform on [-R, R]
* ``active-subspace``    -- a from the angular central Gaussian of the gradient
                            covariance ``G G^T``, b uniform
* ``local-gradient``     -- a along a data gradient, hyperplane through the
                            point, point picked proportional to ``|g_k|``
* ``nonlocal-gradient``  -- gradients mixed over a spatial radius ``delta_w``
                            before normalizing, offsets jittered
* ``nonlocal-hessian``   -- same construction from Hessian actions (s=2)
* ``integral-density``   -- rejection sampling from the data estimate of the
                            exact representation density
* ``residual``           -- stagewise resampling from the gradients of the
                            current fit's residual

Every unit normal drawn from a Gaussian-type proposal (uniform, active
subspace, nonlocal) goes through ``geometry.unit_rows``, which redraws only
the rows whose norm is below 1e-300 and then divides by the norms.

The two nonlocal samplers share one construction over per-point factors
``F_k``: K x d x 1 for gradients and K x d x d for Hessians.  The spatial
mixing weights are ``w(x, x') = exp(-|x - x'| / (2 delta_w))``, set to zero
below 1e-6, that is for pairs farther apart than ``2 delta_w ln(1e6)``
(about ``27.6 delta_w``).  At ``delta_w = 1/20`` that zeroes 0.014% of the
pairs on borehole (d=8, K=5000), 1.2% on checkmark (d=3, K=2000) and 3.2% on
planar_wave (d=2, K=1000), so it buys no sparsity.  Weights, normals and
mixed factors are built in blocks of rows; a block holds at most
``BLOCK_DOUBLES = 2**15`` doubles (256 KB), or one row when a row alone is
longer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .activation import PsiTable, eval_psi
from .geometry import GaussianFactor, NeuronSet, sample_acg, unit_rows
from .regression import RidgeModel, eval_model_gradient

logger = logging.getLogger(__name__)

WEIGHT_TRUNCATION = 1e-6
BLOCK_DOUBLES = 2**15  # 256 KB: a block and its distance buffer stay in L2
PILOT_SIZE = 10**4  # uniform proposals that calibrate the rejection envelope
SAMPLER_KINDS = (
    "uniform",
    "active-subspace",
    "local-gradient",
    "nonlocal-gradient",
    "nonlocal-hessian",
    "integral-density",
    "residual",
)


class MissingGradientsError(ValueError):
    """Sampler needs gradient data but the dataset has none."""


class MissingHessiansError(ValueError):
    """Sampler needs Hessian data but the dataset has none."""


class AllZeroGradientsError(ValueError):
    """Every gradient is zero; no direction information available."""


class ZeroTraceError(ValueError):
    """All mixture covariances have zero trace."""


class DeltaZeroError(ValueError):
    """Residual sampling needs a smoothed model (delta > 0)."""


class AcceptanceCollapseError(RuntimeError):
    """Rejection sampling acceptance rate fell below 1e-4."""


@dataclass(frozen=True)
class DataSet:
    """Standardized regression data inside the ball of radius ``R``.

    Gradients ``G`` (K x d), Hessians ``H`` (K x d x d) and density values
    ``rho`` are optional; samplers raise when a required block is missing.
    """

    X: np.ndarray
    y: np.ndarray
    G: np.ndarray | None = None
    H: np.ndarray | None = None
    R: float = 1.0
    rho: np.ndarray | None = None

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y lengths differ")
        radii = np.linalg.norm(X, axis=1)
        if radii.size and radii.max() > self.R + 1e-9:
            raise ValueError(f"point at radius {radii.max():.12g} outside ball R={self.R}")
        if self.G is not None:
            G = np.asarray(self.G, dtype=float)
            if G.shape != X.shape:
                raise ValueError(f"gradient block has shape {G.shape}, expected {X.shape}")
            object.__setattr__(self, "G", G)
        if self.H is not None:
            H = np.asarray(self.H, dtype=float)
            if H.shape != (X.shape[0], X.shape[1], X.shape[1]):
                raise ValueError(f"Hessian block has shape {H.shape}")
            if np.max(np.abs(H - np.transpose(H, (0, 2, 1)))) > 1e-10:
                raise ValueError("Hessians are not symmetric")
            object.__setattr__(self, "H", H)
        if self.rho is not None:
            rho = np.asarray(self.rho, dtype=float).ravel()
            if rho.shape[0] != X.shape[0]:
                raise ValueError("rho length differs from X")
            object.__setattr__(self, "rho", rho)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def with_gradients(self, G) -> "DataSet":
        return replace(self, G=np.asarray(G, dtype=float))

    @classmethod
    def minimal(cls, d: int, R: float = 1.0) -> "DataSet":
        """Geometry-only dataset (one point at the origin); for kernel oracles."""
        return cls(X=np.zeros((1, d)), y=np.zeros(1), R=R)


@dataclass(frozen=True)
class SamplerSpec:
    """Tagged sampling strategy with its hyperparameters."""

    kind: str
    delta_w: float | None = None
    order_m: int = 0
    safety: float = 1.5
    kappa: float = 2.0
    n0: int = 8
    base: "SamplerSpec | None" = None

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind in ("nonlocal-gradient", "nonlocal-hessian"):
            if self.delta_w is None or not self.delta_w > 0.0:
                raise ValueError(f"{self.kind} needs delta_w > 0")
        if self.kind == "integral-density":
            if self.safety < 1.0:
                raise ValueError("safety factor must be >= 1")
        if self.kind == "residual":
            if self.base is None or self.base.kind not in ("local-gradient", "nonlocal-gradient"):
                raise ValueError("residual base must be local-gradient or nonlocal-gradient")
            if not self.kappa > 1.0:
                raise ValueError("kappa must exceed 1")
            if self.n0 < 1:
                raise ValueError("n0 must be >= 1")

    @property
    def label(self) -> str:
        if self.kind == "residual":
            return f"residual-{self.base.kind}"
        return self.kind


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def uniform_parameter_density(d: int, R: float) -> float:
    """Constant density 1/m_R of the uniform law, m_R = 2 R |S^(d-1)|."""
    return 1.0 / (2.0 * R * sphere_surface_area(d))


def sample_uniform(ds: DataSet, n: int, rng: np.random.Generator) -> NeuronSet:
    """a uniform on the sphere (normalized Gaussian), b uniform on [-R, R]."""
    A = unit_rows(lambda idx: rng.standard_normal((idx.size, ds.dim)), n)
    b = rng.uniform(-ds.R, ds.R, size=n)
    return NeuronSet(A, b)


def _require_gradients(ds: DataSet) -> np.ndarray:
    if ds.G is None:
        raise MissingGradientsError("dataset has no gradient data")
    return ds.G


def sample_active_subspace(ds: DataSet, n: int, rng: np.random.Generator) -> NeuronSet:
    """a from the angular central Gaussian of ``C = G G^T``, b uniform."""
    G = _require_gradients(ds)
    if not np.any(G):
        raise AllZeroGradientsError("all gradients are zero")
    factor = GaussianFactor.from_matrix(G.T)
    A = sample_acg(factor, rng, size=n)
    b = rng.uniform(-ds.R, ds.R, size=n)
    return NeuronSet(A, b)


def sample_local_gradient(ds: DataSet, n: int, rng: np.random.Generator) -> NeuronSet:
    """Hyperplanes through data points, normal to their gradients.

    The source point is drawn with probability ``|g_k| / sum_k |g_k|`` (zero
    gradients excluded), the overall sign of ``(a, b)`` is symmetrized.
    """
    G = _require_gradients(ds)
    norms = np.linalg.norm(G, axis=1)
    total = norms.sum()
    if total <= 0.0:
        raise AllZeroGradientsError("all gradients are zero")
    idx = np.flatnonzero(norms > 0.0)
    ks = idx[rng.choice(idx.size, size=n, p=norms[idx] / norms[idx].sum())]
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    A = G[ks] / norms[ks, None]
    b = -np.sum(A * ds.X[ks], axis=1)
    return NeuronSet(A * signs[:, None], b * signs)


def _mixing_weights(X: np.ndarray, rows, delta_w: float) -> np.ndarray:
    """``w(x_k, x')`` for the points ``k`` in ``rows`` against every point.

    The squared distances are summed one coordinate at a time, so no array
    holds more than ``len(X[rows]) * K`` doubles.
    """
    Xr = X[rows]
    sq = np.zeros((Xr.shape[0], X.shape[0]))
    for j in range(X.shape[1]):
        diff = np.subtract.outer(Xr[:, j], X[:, j])
        sq += np.square(diff, out=diff)
    w = np.exp(-np.sqrt(sq, out=sq) / (2.0 * delta_w))
    w[w < WEIGHT_TRUNCATION] = 0.0
    return w


def _sample_nonlocal(
    ds: DataSet, F: np.ndarray, n: int, delta_w: float, rng: np.random.Generator
) -> NeuronSet:
    """Directions from spatially mixed per-point factors ``F`` (K x d x r).

    The source point k is picked proportional to ``sqrt(tr C_k)`` with
    ``tr C_k = sum_k' w_{k,k'}^2 |F_k'|_F^2``.  The direction is
    ``a = v/|v|`` with ``v = sum_k' w_{k,k'} F_k' xi_k'`` and standard normal
    ``xi_k'`` in R^r, and the offset is ``b = -a.x_k + eps`` with
    ``eps ~ N(0, delta_w^2)``.
    """
    if not delta_w > 0.0:
        raise ValueError("delta_w must be positive")
    K, d, r = F.shape
    sq_norms = np.sum(F**2, axis=(1, 2))
    step = max(1, BLOCK_DOUBLES // K)
    sqrt_tr = np.concatenate(
        [
            np.sqrt(_mixing_weights(ds.X, slice(lo, lo + step), delta_w) ** 2 @ sq_norms)
            for lo in range(0, K, step)
        ]
    )
    total = sqrt_tr.sum()
    if total <= 0.0:
        raise ZeroTraceError("all mixture covariances are zero")
    ks = rng.choice(K, size=n, p=sqrt_tr / total)
    Ft = F.transpose(0, 2, 1).reshape(K * r, d)
    A = np.empty((n, d))
    step = max(1, BLOCK_DOUBLES // (K * r))
    for lo in range(0, n, step):
        W = _mixing_weights(ds.X, ks[lo : lo + step], delta_w)

        def mixed(idx):
            xi = rng.standard_normal((idx.size, K, r))
            return (W[idx, :, None] * xi).reshape(-1, K * r) @ Ft

        A[lo : lo + step] = unit_rows(mixed, len(W))
    b = -np.sum(A * ds.X[ks], axis=1) + delta_w * rng.standard_normal(n)
    return NeuronSet(A, b)


def sample_nonlocal_gradient(
    ds: DataSet, n: int, delta_w: float, rng: np.random.Generator
) -> NeuronSet:
    """Spatially mixed gradients ``sum_k' w g_k' xi_k'`` (factor K x d x 1)."""
    G = _require_gradients(ds)
    return _sample_nonlocal(ds, G[:, :, None], n, delta_w, rng)


def sample_nonlocal_hessian(
    ds: DataSet, n: int, delta_w: float, rng: np.random.Generator
) -> NeuronSet:
    """Spatially mixed Hessian actions ``sum_k' w H_k' xi_k'`` (factor K x d x d)."""
    if ds.H is None:
        raise MissingHessiansError("dataset has no Hessian data")
    return _sample_nonlocal(ds, ds.H, n, delta_w, rng)


def eval_integral_density(ds: DataSet, psi: PsiTable, a, b) -> float | np.ndarray:
    """Data estimate of the representation density,
    ``|1/K sum_k (a.g_k) psi(a.x_k + b) / rho(x_k)|``.

    ``rho`` is the dataset's stored sampling density, or 1 when it has none;
    a constant ``rho`` only scales the estimate.  Accepts a single ``(a, b)``
    or batches with ``a`` of shape (n, d) and ``b`` of shape (n,).
    """
    G = _require_gradients(ds)
    rho = 1.0 if ds.rho is None else ds.rho
    a = np.asarray(a, dtype=float)
    scalar = a.ndim == 1
    A = np.atleast_2d(a)
    B = np.atleast_1d(np.asarray(b, dtype=float))
    vals = eval_psi(psi, A @ ds.X.T + B[:, None])
    terms = A @ G.T
    terms *= vals
    terms /= rho  # in place: dividing by an array makes no n x K temporary
    out = np.abs(np.mean(terms, axis=1))
    return float(out[0]) if scalar else out


def sample_integral_density(
    ds: DataSet,
    psi: PsiTable,
    n: int,
    safety: float,
    rng: np.random.Generator,
) -> tuple[NeuronSet, float]:
    """Rejection sampling of the integral density under a pilot-calibrated envelope.

    The envelope is ``safety`` times the density maximum over ``PILOT_SIZE``
    uniform pilot proposals (drawn from a dedicated sub-stream).  If a later proposal
    exceeds the envelope, the envelope is doubled and collection restarts.
    Raises :class:`AcceptanceCollapseError` when fewer than one in 1e4
    proposals is accepted over a 1e6-proposal window.  Returns the accepted
    neurons and the realized acceptance rate.
    """
    if safety < 1.0:
        raise ValueError("safety factor must be >= 1")
    pilot_rng = rng.spawn(1)[0]
    pilot = sample_uniform(ds, PILOT_SIZE, pilot_rng)
    envelope = safety * float(np.max(eval_integral_density(ds, psi, pilot.a, pilot.b)))
    if envelope <= 0.0:
        raise AllZeroGradientsError("integral density vanishes identically")

    batch = 8192
    accepted_a: list[np.ndarray] = []
    accepted_b: list[np.ndarray] = []
    n_accepted = 0
    n_proposed = 0
    while n_accepted < n:
        proposals = sample_uniform(ds, batch, rng)
        A, b = proposals.a, proposals.b
        dens = eval_integral_density(ds, psi, A, b)
        peak = float(dens.max())
        if peak > envelope:
            envelope *= 2.0
            while envelope < peak:
                envelope *= 2.0
            logger.warning(
                "integral-density envelope violated (%.3g); doubled to %.3g, restarting",
                peak,
                envelope,
            )
            accepted_a.clear()
            accepted_b.clear()
            n_accepted = 0
            n_proposed = 0
            continue
        keep = rng.uniform(size=batch) < dens / envelope
        accepted_a.append(A[keep])
        accepted_b.append(b[keep])
        n_accepted += int(keep.sum())
        n_proposed += batch
        if n_proposed >= 10**6 and n_accepted / n_proposed < 1e-4:
            raise AcceptanceCollapseError(
                f"acceptance rate {n_accepted / n_proposed:.2e} over {n_proposed} proposals"
            )
    A = np.vstack(accepted_a)[:n]
    b = np.concatenate(accepted_b)[:n]
    return NeuronSet(A, b), n_accepted / n_proposed


def residual_schedule(kappa: float, n0: int, n_target: int) -> list[int]:
    """Cumulative stage sizes ``ceil(kappa^i n0)`` truncated at ``n_target``."""
    counts = []
    i = 0
    while True:
        c = min(math.ceil(kappa**i * n0), n_target)
        if counts and c <= counts[-1]:
            c = min(counts[-1] + 1, n_target)
        counts.append(c)
        if c >= n_target:
            return counts
        i += 1


_NEURON_SAMPLERS = {
    "uniform": sample_uniform,
    "active-subspace": sample_active_subspace,
    "local-gradient": sample_local_gradient,
    "nonlocal-gradient": sample_nonlocal_gradient,
    "nonlocal-hessian": sample_nonlocal_hessian,
}


def _sample_base(spec: SamplerSpec, ds: DataSet, n: int, rng: np.random.Generator) -> NeuronSet:
    """The samplers that return only neurons, dispatched by kind."""
    sample = _NEURON_SAMPLERS[spec.kind]
    if spec.kind.startswith("nonlocal-"):
        return sample(ds, n, spec.delta_w, rng)
    return sample(ds, n, rng)


def sample_residual(
    ds: DataSet,
    base: SamplerSpec,
    n_target: int,
    kappa: float,
    n0: int,
    fit_callback: Callable[[NeuronSet], RidgeModel],
    rng: np.random.Generator,
) -> NeuronSet:
    """Stagewise sampling from the gradients of the current fit's residual.

    Stage 0 uses the data gradients.  Each later stage fits outer weights on
    all neurons so far (via ``fit_callback``, which performs the full
    cross-validated regression), subtracts the model gradient from the data
    gradients, and samples the next batch from the residual gradients.  An
    exactly fitted stage (all residual gradients zero) stops early.  The
    final neurons are returned unfitted.
    """
    _require_gradients(ds)
    if base.kind not in ("local-gradient", "nonlocal-gradient"):
        raise ValueError("residual base must be local-gradient or nonlocal-gradient")
    counts = residual_schedule(kappa, n0, n_target)
    neurons = _sample_base(base, ds, counts[0], rng)
    for target in counts[1:]:
        model = fit_callback(neurons)
        if model.activation.s == 1 and model.activation.delta == 0.0:
            raise DeltaZeroError("residual stages need delta > 0 to evaluate model gradients")
        resid = ds.G - eval_model_gradient(model, ds.X)
        try:
            fresh = _sample_base(base, ds.with_gradients(resid), target - len(neurons), rng)
        except (AllZeroGradientsError, ZeroTraceError):
            logger.info("residual gradients vanished at N=%d; stopping early", len(neurons))
            break
        neurons = neurons.concat(fresh)
    return neurons


@dataclass
class DrawResult:
    """Neurons plus the acceptance rate of rejection sampling."""

    neurons: NeuronSet
    accept_rate: float | None = None


def draw(
    spec: SamplerSpec,
    ds: DataSet,
    n: int,
    rng: np.random.Generator,
    psi_table: PsiTable | None = None,
    fit_callback: Callable[[NeuronSet], RidgeModel] | None = None,
) -> DrawResult:
    """Run the strategy described by ``spec`` and normalize the outputs."""
    if n < 1:
        raise ValueError("need at least one neuron")
    if spec.kind == "integral-density":
        if psi_table is None:
            raise ValueError("integral-density sampling needs a psi table")
        if psi_table.m != spec.order_m:
            raise ValueError(
                f"psi table order {psi_table.m} does not match sampler order {spec.order_m}"
            )
        neurons, rate = sample_integral_density(ds, psi_table, n, spec.safety, rng)
        return DrawResult(neurons, accept_rate=rate)
    if spec.kind == "residual":
        if fit_callback is None:
            raise ValueError("residual sampling needs a regression callback")
        return DrawResult(
            sample_residual(ds, spec.base, n, spec.kappa, spec.n0, fit_callback, rng)
        )
    return DrawResult(_sample_base(spec, ds, n, rng))


def export_weights_text(neurons: NeuronSet, path) -> None:
    """Write one neuron per line, ``a_1 ... a_d b``, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(neurons)):
            row = np.append(neurons.a[i], neurons.b[i])
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
