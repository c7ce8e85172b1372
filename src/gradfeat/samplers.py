"""Weight-sampling strategies: given a dataset and a count, produce neurons.

All strategies draw i.i.d. hyperplanes (a, b) with unit normal ``a``:

* ``uniform``            -- a uniform on the sphere, b uniform on [-1, 1]
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

Both nonlocal kinds draw through ``sample_nonlocal``, over per-point factors
``F_k``: K x d x 1 for gradients and K x d x d for Hessians.  The spatial
mixing weights are ``w(x, x') = exp(-|x - x'| / (2 delta_w))``, set to zero
below 1e-6, that is for pairs farther apart than ``2 delta_w ln(1e6)``
(about ``27.6 delta_w``).  At ``delta_w = 1/20`` that zeroes 0.014% of the
pairs on borehole (d=8, K=5000), 1.2% on checkmark (d=3, K=2000) and 3.2% on
planar_wave (d=2, K=1000), so it buys no sparsity.  Weights, normals and
mixed factors are built in blocks of rows; a block holds at most
``BLOCK_DOUBLES = 2**15`` doubles (256 KB), or one row when a row alone is
longer.  ``_mixing_weights`` gets ``X`` in Fortran order, made once per pass
rather than per block, so each coordinate it reads is a contiguous column.

A draw picks its source points proportional to ``sqrt(tr C_k)``, which
depends only on the points, the factors and ``delta_w``.
``nonlocal_source_weights`` computes it from the K x K weights on or above
the diagonal only, as ``w`` is symmetric: row blocks ``lo:hi`` against columns
``lo:K``, ``max(1, BLOCK_DOUBLES // (K - lo))`` rows high, so blocks grow as
their rows get shorter.  The first nonlocal draw on a ``DataSet`` keeps the
vector there per (kind, ``delta_w``), one pass at a time under a lock, for
every later draw to read.  Residual stages draw on ``with_gradients`` copies,
which keep none, so they take the pass at every stage.  Neither the sharing
nor the column layout changes the arithmetic, so the draws are bit for bit
those of computing everything per draw.

The integral density evaluates its proposals against the K data points in
``regression._row_blocks`` of ``BLOCK_DOUBLES // K`` rows, at least 2.  A
block's pre-activations ``a.x_k + b`` are built in place, by adding the
offsets into the array of the product ``A X^T``, the bits of the sum
``A X^T + b``.  Each row's mean is reduced on its own, so the blocks give the
bits of one n x K evaluation.

The integral-density sampler's rejection envelope is ``SAFETY`` (1.5) times
the density maximum over a fixed pilot design: ``PILOT_SIZE`` uniform
proposals from ``np.random.default_rng(PILOT_SEED)``.  2,500 of them suffice
for that factor: over 24 datasets each (K=1000), the maximum over
1e5 independent proposals was at most 1.37 times the pilot's on planar_wave
d=2 s=2 and 1.07 times on checkmark d=2 and gauss1d, against up to 1.68 for
a pilot of 1,000.  On checkmark d=3 it reached 1.94, so a draw there may
double its envelope.  The pilot maximum depends only on the data and the
psi table, so the first draw on a ``DataSet`` keeps it there per table,
under the same lock as the source-point weights.  A draw then proposes one
row block at a time, from its own stream, until the block in which its
n-th neuron is accepted: about ``n / rate`` proposals, not a fixed batch.
"""

from __future__ import annotations

import functools
import logging
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .activation import PsiTable, eval_psi
from .geometry import NeuronSet, sample_acg, unit_rows
from .regression import RidgeModel, _row_blocks, eval_model_gradient

logger = logging.getLogger(__name__)

WEIGHT_TRUNCATION = 1e-6
BLOCK_DOUBLES = 2**15  # 256 KB: a block and its distance buffer stay in L2
PILOT_SIZE = 2500  # uniform proposals that calibrate the envelope; sized in the docstring
PILOT_SEED = 2410_02132  # seeds that fixed pilot design, the same for every dataset
SAFETY = 1.5  # the envelope over the pilot maximum
RESIDUAL_N0 = 8  # neurons in the first residual stage; each later stage doubles
# The keys a config entry of each kind may carry besides ``kind``: the spec fields, in
# the order its sampler takes them, and ``order_m``, which the parser checks and drops.
# Config parsing, validation and dispatch all read this table.
KIND_FIELDS = {
    "uniform": (),
    "active-subspace": (),
    "local-gradient": (),
    "nonlocal-gradient": ("delta_w",),
    "nonlocal-hessian": ("delta_w",),
    "integral-density": ("order_m",),
    "residual": ("base",),
}


class MissingGradientsError(ValueError):
    """Sampler needs gradient data but the dataset has none."""


class MissingHessiansError(ValueError):
    """Sampler needs Hessian data but the dataset has none."""


class AllZeroGradientsError(ValueError):
    """Every gradient is zero; no direction information available."""


class ZeroTraceError(ValueError):
    """All mixture covariances have zero trace."""


class AcceptanceCollapseError(RuntimeError):
    """Rejection sampling acceptance rate fell below 1e-4."""


@dataclass(frozen=True)
class DataSet:
    """Standardized regression data inside the unit ball.

    Gradients ``G`` (K x d) and Hessians ``H`` (K x d x d) are optional;
    samplers raise when a required block is missing.
    Samplers keep what depends only on the data on the dataset (the nonlocal
    source-point weights, the integral-density envelope), so its arrays must
    not be written after construction.
    """

    X: np.ndarray
    y: np.ndarray
    G: np.ndarray | None = None
    H: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y lengths differ")
        radii = np.linalg.norm(X, axis=1)
        if radii.size and radii.max() > 1.0 + 1e-9:
            raise ValueError(f"point at radius {radii.max():.12g} outside the unit ball")
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

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def with_gradients(self, G) -> "DataSet":
        return replace(self, G=np.asarray(G, dtype=float))


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether ``value`` is a Python or numpy int or float; a bool is not a
    number here.  The one rule for numbers in specs and configs."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _is_positive(value) -> bool:
    """Whether ``value`` is a finite number > 0."""
    return _is_number(value) and 0.0 < value < np.inf


@dataclass(frozen=True)
class SamplerSpec:
    """Tagged sampling strategy with its hyperparameters."""

    kind: str
    delta_w: float | None = None
    base: "SamplerSpec | None" = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        fields = KIND_FIELDS[self.kind]
        if "delta_w" in fields and not _is_positive(self.delta_w):
            raise ValueError(f"{self.kind} needs a finite delta_w > 0, got {self.delta_w!r}")
        if "base" in fields and (
            self.base is None or self.base.kind not in ("local-gradient", "nonlocal-gradient")
        ):
            raise ValueError("residual base must be local-gradient or nonlocal-gradient")

    @property
    def label(self) -> str:
        if self.kind == "residual":
            return f"residual-{self.base.kind}"
        return self.kind


def sample_uniform(ds: DataSet, n: int, rng: np.random.Generator) -> NeuronSet:
    """a uniform on the sphere (normalized Gaussian), b uniform on [-1, 1]."""
    A = unit_rows(lambda idx: rng.standard_normal((idx.size, ds.dim)), n)
    b = rng.uniform(-1.0, 1.0, size=n)
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
    A = sample_acg(G.T, rng, n)
    b = rng.uniform(-1.0, 1.0, size=n)
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


def _mixing_weights(Xr: np.ndarray, X: np.ndarray, delta_w: float) -> np.ndarray:
    """``w(x, x')`` for the row points ``Xr`` against the column points ``X``.

    The squared distances are summed one coordinate at a time, so no array
    holds more than ``len(Xr) * len(X)`` doubles.  Callers pass ``X`` in
    Fortran order, so that each coordinate ``X[:, j]`` is a contiguous column;
    the layout does not change the bits.  The pass works in place in two
    arrays of that size, the sum and one difference buffer.
    """
    sq = np.subtract.outer(Xr[:, 0], X[:, 0])
    np.square(sq, out=sq)
    diff = np.empty_like(sq)
    for j in range(1, X.shape[1]):
        np.subtract.outer(Xr[:, j], X[:, j], out=diff)
        sq += np.square(diff, out=diff)
    np.sqrt(sq, out=sq)
    sq /= -2.0 * delta_w
    w = np.exp(sq, out=sq)
    w[w < WEIGHT_TRUNCATION] = 0.0
    return w


def nonlocal_factor(ds: DataSet, kind: str) -> np.ndarray:
    """The per-point factors ``F_k`` of a nonlocal ``kind``: the gradients as
    K x d x 1 for ``nonlocal-gradient``, the Hessians K x d x d for
    ``nonlocal-hessian``."""
    if kind == "nonlocal-gradient":
        return _require_gradients(ds)[:, :, None]
    if kind != "nonlocal-hessian":
        raise ValueError(f"not a nonlocal sampler kind: {kind!r}")
    if ds.H is None:
        raise MissingHessiansError("dataset has no Hessian data")
    return ds.H


def nonlocal_source_weights(ds: DataSet, F: np.ndarray, delta_w: float) -> np.ndarray:
    """``sqrt(tr C_k)`` with ``tr C_k = sum_k' w_{k,k'}^2 |F_k'|_F^2``, per point k.

    The nonlocal draw picks its source points proportional to this vector.
    It depends only on the points, the factors and ``delta_w``, so one vector
    serves every draw on the same data; an all-zero vector is returned as is
    and the draw raises :class:`ZeroTraceError`.  Only the blocks of ``w`` on
    or above the diagonal are built (module docstring); a block serves its own
    rows and, transposed, the rows below it.
    """
    if not delta_w > 0.0:
        raise ValueError("delta_w must be positive")
    K = F.shape[0]
    sq_norms = np.sum(F**2, axis=(1, 2))
    X = np.asfortranarray(ds.X)
    tr = np.zeros(K)
    lo = 0
    while lo < K:
        hi = min(K, lo + max(1, BLOCK_DOUBLES // (K - lo)))
        W2 = _mixing_weights(X[lo:hi], X[lo:], delta_w)
        W2 *= W2
        tr[lo:hi] += W2 @ sq_norms[lo:]
        tr[hi:] += sq_norms[lo:hi] @ W2[:, hi - lo :]
        lo = hi
    return np.sqrt(tr)


def _sample_nonlocal(
    ds: DataSet,
    F: np.ndarray,
    n: int,
    delta_w: float,
    sqrt_tr: np.ndarray,
    rng: np.random.Generator,
) -> NeuronSet:
    """Directions from spatially mixed per-point factors ``F`` (K x d x r).

    The source point k is picked proportional to ``sqrt_tr``, the
    ``nonlocal_source_weights`` of ``(ds, F, delta_w)``.  The direction is
    ``a = v/|v|`` with ``v = sum_k' w_{k,k'} F_k' xi_k'`` and standard normal
    ``xi_k'`` in R^r, and the offset is ``b = -a.x_k + eps`` with
    ``eps ~ N(0, delta_w^2)``.
    """
    total = sqrt_tr.sum()
    if total <= 0.0:
        raise ZeroTraceError("all mixture covariances are zero")
    K, d, r = F.shape
    ks = rng.choice(K, size=n, p=sqrt_tr / total)
    Ft = F.transpose(0, 2, 1).reshape(K * r, d)
    X = np.asfortranarray(ds.X)
    A = np.empty((n, d))
    # fixed steps: near-equal _row_blocks move rows here (ROADMAP, "Considered and dropped")
    step = max(1, BLOCK_DOUBLES // (K * r))
    for lo in range(0, n, step):
        W = _mixing_weights(X[ks[lo : lo + step]], X, delta_w)

        def mixed(idx):
            xi = rng.standard_normal((idx.size, K, r))
            return (W[idx, :, None] * xi).reshape(-1, K * r) @ Ft

        A[lo : lo + step] = unit_rows(mixed, len(W))
    b = -np.sum(A * ds.X[ks], axis=1) + delta_w * rng.standard_normal(n)
    return NeuronSet(A, b)


_MEMO_LOCK = threading.Lock()


def _memoized(ds: DataSet, key, compute: Callable):
    """``compute()``, run on the first call for ``key`` and kept on the
    dataset; one computation at a time, under a lock."""
    with _MEMO_LOCK:
        if key not in ds._memo:
            ds._memo[key] = compute()
        return ds._memo[key]


def sample_nonlocal(
    ds: DataSet, n: int, delta_w: float, rng: np.random.Generator, *, kind: str
) -> NeuronSet:
    """Spatially mixed factors of a nonlocal ``kind``: gradients ``sum_k' w g_k'
    xi_k'`` for ``nonlocal-gradient``, Hessian actions ``sum_k' w H_k' xi_k'``
    for ``nonlocal-hessian`` (``nonlocal_factor``).  The source-point weights
    are computed on first use and kept on the dataset per (kind, delta_w)."""
    F = nonlocal_factor(ds, kind)
    sqrt_tr = _memoized(ds, (kind, delta_w), lambda: nonlocal_source_weights(ds, F, delta_w))
    return _sample_nonlocal(ds, F, n, delta_w, sqrt_tr, rng)


def _density_block(ds: DataSet) -> int:
    """Rows of proposals per block of the integral density (module docstring)."""
    return max(2, BLOCK_DOUBLES // len(ds.X))


def eval_integral_density(ds: DataSet, psi: PsiTable, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Data estimate of the representation density,
    ``|1/K sum_k (a.g_k) psi(a.x_k + b)|``, at each row ``a`` of ``A`` (n, d)
    and entry ``b`` of ``B`` (n,).

    The paper also weights each term by the inverse design density; the
    design is uniform, so that weight is a constant that cancels in the
    rejection ratio and is left out.  The rows are evaluated in blocks (see
    the module docstring).
    """
    G = _require_gradients(ds)
    out = np.empty(A.shape[0])
    for lo, hi in _row_blocks(A.shape[0], _density_block(ds)):
        Ab = A[lo:hi]
        t = Ab @ ds.X.T
        t += B[lo:hi, None]
        vals = eval_psi(psi, t)
        terms = Ab @ G.T
        terms *= vals
        out[lo:hi] = np.abs(np.mean(terms, axis=1))
    return out


def _pilot_peak(ds: DataSet, psi: PsiTable) -> float:
    """The integral density's maximum over the fixed pilot design on ``ds``,
    computed on first use and kept on the dataset per table."""

    def pilot_max():
        pilot = sample_uniform(ds, PILOT_SIZE, np.random.default_rng(PILOT_SEED))
        return float(np.max(eval_integral_density(ds, psi, pilot.a, pilot.b)))

    return _memoized(ds, ("integral-density", psi), pilot_max)


def sample_integral_density(
    ds: DataSet,
    psi: PsiTable,
    n: int,
    rng: np.random.Generator,
) -> tuple[NeuronSet, float]:
    """Rejection sampling of the integral density under a pilot-calibrated envelope.

    The envelope is ``SAFETY`` times the density maximum over ``PILOT_SIZE``
    uniform pilot proposals.  The pilot is a fixed design, drawn from
    ``np.random.default_rng(PILOT_SEED)``, so its maximum depends only on the
    data and the table; the first draw on a ``DataSet`` keeps it there for
    every later draw with the same table, and ``rng`` serves only the
    proposals and the acceptance draws.  Proposals come in row blocks of the
    size ``eval_integral_density`` evaluates at once, until the block in which
    the n-th neuron is accepted.  If a proposal exceeds the envelope, the
    envelope is doubled and collection restarts.  Raises
    :class:`AcceptanceCollapseError` when fewer than one in 1e4 proposals is
    accepted over a 1e6-proposal window.  Returns the accepted neurons and the
    realized acceptance rate, accepted over proposed.
    """
    if n < 1:
        raise ValueError("need at least one neuron")
    envelope = SAFETY * _pilot_peak(ds, psi)
    if envelope <= 0.0:
        raise AllZeroGradientsError("integral density vanishes identically")

    step = _density_block(ds)
    accepted_a: list[np.ndarray] = []
    accepted_b: list[np.ndarray] = []
    n_accepted = 0
    n_proposed = 0
    while n_accepted < n:
        proposals = sample_uniform(ds, step, rng)
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
        keep = rng.uniform(size=step) < dens / envelope
        accepted_a.append(A[keep])
        accepted_b.append(b[keep])
        n_accepted += int(keep.sum())
        n_proposed += step
        if n_proposed >= 10**6 and n_accepted / n_proposed < 1e-4:
            raise AcceptanceCollapseError(
                f"acceptance rate {n_accepted / n_proposed:.2e} over {n_proposed} proposals"
            )
    A = np.vstack(accepted_a)[:n]
    b = np.concatenate(accepted_b)[:n]
    return NeuronSet(A, b), n_accepted / n_proposed


def residual_schedule(n_target: int) -> list[int]:
    """Cumulative stage sizes ``RESIDUAL_N0 * 2**i``, truncated at ``n_target``."""
    counts = [min(RESIDUAL_N0, n_target)]
    while counts[-1] < n_target:
        counts.append(min(2 * counts[-1], n_target))
    return counts


_NEURON_SAMPLERS = {
    "uniform": sample_uniform,
    "active-subspace": sample_active_subspace,
    "local-gradient": sample_local_gradient,
    "nonlocal-gradient": functools.partial(sample_nonlocal, kind="nonlocal-gradient"),
    "nonlocal-hessian": functools.partial(sample_nonlocal, kind="nonlocal-hessian"),
}


def _sample_base(spec: SamplerSpec, ds: DataSet, n: int, rng: np.random.Generator) -> NeuronSet:
    """The samplers that return only neurons, dispatched by kind."""
    args = (getattr(spec, f) for f in KIND_FIELDS[spec.kind])
    return _NEURON_SAMPLERS[spec.kind](ds, n, *args, rng)


def sample_residual(
    ds: DataSet,
    spec: SamplerSpec,
    n_target: int,
    fit_callback: Callable[[NeuronSet], RidgeModel],
    rng: np.random.Generator,
) -> NeuronSet:
    """Stagewise sampling from the gradients of the current fit's residual.

    Stages draw from ``spec.base`` up to the cumulative sizes
    ``residual_schedule(n_target)``.  Stage 0 uses the
    data gradients.  Each later stage fits outer weights on all neurons so
    far (via ``fit_callback``, which performs the full cross-validated
    regression), subtracts the model gradient from the data gradients, and
    samples the next batch from the residual gradients.  An exactly fitted
    stage (all residual gradients zero) stops early.  The final neurons are
    returned unfitted.  A Heaviside model (s=1, delta=0) has no gradient, so
    the first later stage raises ``NonsmoothModelError``.
    """
    _require_gradients(ds)
    if spec.kind != "residual":
        raise ValueError(f"sample_residual needs a residual spec, got {spec.kind!r}")
    counts = residual_schedule(n_target)
    neurons = _sample_base(spec.base, ds, counts[0], rng)
    for target in counts[1:]:
        resid = ds.G - eval_model_gradient(fit_callback(neurons), ds.X)
        try:
            fresh = _sample_base(spec.base, ds.with_gradients(resid), target - len(neurons), rng)
        except (AllZeroGradientsError, ZeroTraceError):
            logger.info("residual gradients vanished at N=%d; stopping early", len(neurons))
            break
        neurons = neurons.concat(fresh)
    return neurons


def draw(
    spec: SamplerSpec,
    ds: DataSet,
    n: int,
    rng: np.random.Generator,
    psi_table: PsiTable | None = None,
    fit_callback: Callable[[NeuronSet], RidgeModel] | None = None,
) -> tuple[NeuronSet, float | None]:
    """Run the strategy described by ``spec`` (the integral density at the order
    of ``psi_table``); returns the neurons and the realized acceptance rate,
    which only ``integral-density`` has (``None`` for every other kind)."""
    if n < 1:
        raise ValueError("need at least one neuron")
    if spec.kind == "integral-density":
        if psi_table is None:
            raise ValueError("integral-density sampling needs a psi table")
        return sample_integral_density(ds, psi_table, n, rng)
    if spec.kind == "residual":
        if fit_callback is None:
            raise ValueError("residual sampling needs a regression callback")
        return sample_residual(ds, spec, n, fit_callback, rng), None
    return _sample_base(spec, ds, n, rng), None


def export_weights_text(neurons: NeuronSet, path) -> None:
    """Write one neuron per line, ``a_1 ... a_d b``, 17 significant digits."""
    np.savetxt(path, np.column_stack([neurons.a, neurons.b]), fmt="%.17g")
