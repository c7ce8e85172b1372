"""Feature matrices, ridge solves, cross-validation, and model evaluation.

The outer-weight problem is ``min_c ||Phi c - y||^2 / (2K) + alpha N |c|^2 / 2``.
The polynomial columns ``P`` (constant for s=1, affine for s=2) that every
model carries are unregularized.  One R-only Householder QR of
``[P | F | y]`` eliminates them and leaves the ridge problem in blocks
``R_ff``, ``r_fy``; one SVD ``R_ff = U S V^T`` gives the neuron weights for
every alpha as the filter ``c = V diag(s / (s^2 + K alpha N)) U^T r_fy``
without squaring the condition number, and the train error as
``||r_fy - R_ff c||`` with no K-row product.

Each QR runs the LAPACK ``dgeqrt`` of numpy's OpenBLAS in place on its
Fortran-ordered design (``_blas.geqrt``) and keeps ``np.triu`` of the leading
rows.  The fallback ``np.linalg.qr(A, mode="r")`` copies the design three
times and runs ``dgeqrf``, whose last 128 columns are unblocked: 2.1x slower
at 2000 x 152 (``_blas``).  Their Rs differ only by rounding and row signs.

The polynomial part solves the upper-triangular ``R_pp`` with
``np.linalg.solve``, which keeps gradfeat on numpy's one BLAS runtime.  It is
exact back substitution: ``R`` holds zeros below the diagonal, so LU with
partial pivoting never swaps rows (no entry below a pivot is larger than
zero), ``L`` is the identity and ``U`` is ``R_pp`` itself.

No fit or prediction builds the features of more than ``ROW_BLOCK`` (2,500)
rows at once.  ``_row_blocks(n, size)`` splits n rows into ``ceil(n / size)``
blocks of near-equal size, or into ``n // 2`` where that would leave a block
of one row: numpy sends a 1-row product down its matrix-vector path, which
rounds differently.  A split of K rows at ``ROW_BLOCK`` holds at least
``ROW_BLOCK / 2`` rows per block; the integral density in ``samplers`` splits
its proposals by the same rule at its own size.  The fit takes ``R`` of each
block's ``[P | F | y]`` and then ``R`` of the stacked block Rs (TSQR): both
are R factors of the whole design, equal up to the signs of their rows, which
the filter, the solve and the SSE do not see.  At K <= 2,500 the one block is
the whole design and the bits are those of one QR.  Validation residuals and
predictions are written block by block into one array, which is reduced
once, so no sum changes its order; the blocks also give the bits of the
whole product wherever OpenBLAS rounds ``X @ a^T`` the same for any row
count (on SkylakeX kernels up to 192 neurons, and above that at some widths
only).  Two blocks were also faster: ``np.linalg.qr`` took 33.5 against
44.3 ms at 5000 x 153 on one BLAS thread.  The blocks also bound a cell's
feature arrays: ``cross_validate`` at K=5000, d=8, N=300 peaked at 13.8 MB
(tracemalloc) against 49.1 MB for whole matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .activation import ActivationSpec, eval_activation, eval_bump
from .geometry import NeuronSet

DEFAULT_ALPHA_GRID = np.logspace(0.0, -12.0, 25)  # descending, brackets both regimes
ROW_BLOCK = 2500  # most rows of features that a fit or a prediction builds at once


class NonsmoothModelError(ValueError):
    """Model gradient requested for the Heaviside activation (s=1, delta=0)."""


@dataclass(frozen=True)
class RidgeModel:
    """Sampled neurons with fitted outer weights ``c`` and polynomial part.

    ``poly`` holds the unregularized coefficients: ``[p0]`` for s=1,
    ``[p0, p1, ..., pd]`` for s=2 (constant plus linear).
    """

    neurons: NeuronSet
    c: np.ndarray
    poly: np.ndarray
    activation: ActivationSpec

    def __post_init__(self) -> None:
        if len(self.c) != len(self.neurons):
            raise ValueError("outer weight length does not match neuron count")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("non-finite outer weights")
        if not np.all(np.isfinite(self.poly)):
            raise ValueError("non-finite polynomial coefficients")


@dataclass(frozen=True)
class FitReport:
    """Per-alpha errors from cross-validation and the chosen parameter."""

    alpha: float
    alpha_grid: np.ndarray
    train_rmse: np.ndarray
    val_rmse: np.ndarray
    chosen_index: int


def poly_width(activation: ActivationSpec, d: int) -> int:
    """Number of appended polynomial columns: 1 for s=1, d+1 for s=2."""
    return 1 if activation.s == 1 else d + 1


def feature_matrix(X, neurons: NeuronSet, activation: ActivationSpec) -> np.ndarray:
    """Matrix ``Phi[k, n] = sigma(a_n . x_k + b_n)``, poly columns appended last.

    The activations are computed in place in the pre-activation array, whose
    contiguous rows the elementwise loops run fastest on, and copied once into
    the array that also takes the polynomial columns (a constant, and for s=2
    the coordinates).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pre = X @ neurons.a.T
    pre += neurons.b
    eval_activation(activation, pre, out=pre)
    n = len(neurons)
    phi = np.empty((X.shape[0], n + poly_width(activation, X.shape[1])))
    phi[:, :n] = pre
    phi[:, n] = 1.0
    if activation.s == 2:
        phi[:, n + 1:] = X
    return phi


def _row_blocks(n: int, size: int) -> list:
    """Bounds ``(lo, hi)`` of ``ceil(n / size)`` near-equal blocks of n rows,
    or of fewer where that would leave a block of one row (module
    docstring); one block when ``n <= size``."""
    k = max(1, min(-(-n // size), n // 2))
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _design_block(phi: np.ndarray, y: np.ndarray, n_poly: int) -> np.ndarray:
    """One row block of ``[P | F | y]``, ``P`` the last ``n_poly`` columns of
    ``phi``."""
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs to ridge solve")
    n_neurons = phi.shape[1] - n_poly
    # Fortran order: LAPACK's column-major layout, which the QR factors in place
    A = np.empty((phi.shape[0], phi.shape[1] + 1), order="F")
    A[:, :n_poly] = phi[:, n_neurons:]
    A[:, n_poly:-1] = phi[:, :n_neurons]
    A[:, -1] = y
    return A


def _qr_r(A: np.ndarray) -> np.ndarray:
    """``R`` of the Fortran-ordered float64 ``A``, which is overwritten, by
    ``dgeqrt`` in place, or by ``np.linalg.qr`` where it is not found."""
    factor = _blas.geqrt()
    if factor is None:
        return np.linalg.qr(A, mode="r")
    factor(A)
    return np.triu(A[:min(A.shape)])


def _stacked_r(rows, K: int, n_poly: int) -> np.ndarray:
    """``R`` of ``[P | F | y]`` over K rows, where ``rows(lo, hi)`` gives the
    ``(phi, y)`` of a row block: one QR per block, then one of the stacked
    block Rs.  A block's features are dropped once its design is copied out,
    and its design once its QR returns."""
    Rs = [_qr_r(_design_block(*rows(lo, hi), n_poly)) for lo, hi in _row_blocks(K, ROW_BLOCK)]
    if len(Rs) == 1:
        return Rs[0]
    stacked = np.empty((sum(len(R) for R in Rs), Rs[0].shape[1]), order="F")
    return _qr_r(np.concatenate(Rs, out=stacked))


def _filter_path(R: np.ndarray, K: int, n_poly: int, alphas):
    """Coefficients for every alpha, one column each, and their train SSEs,
    from ``R`` of ``[P | F | y]`` over K rows (see :func:`_ridge_path`)."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.all(alphas > 0.0):
        raise ValueError(f"regularization must be positive, got {alphas}")
    p = n_poly
    n_neurons = R.shape[1] - p - 1
    R_ff, r_fy = R[p:, p:-1], R[p:, -1]
    U, sv, Vt = np.linalg.svd(R_ff, full_matrices=False)
    filt = sv[:, None] / (sv[:, None] ** 2 + K * n_neurons * alphas)
    C = Vt.T @ (filt * (U.T @ r_fy)[:, None])
    sse = np.sum((r_fy[:, None] - R_ff @ C) ** 2, axis=0)
    q = np.linalg.solve(R[:p, :p], R[:p, -1:] - R[:p, p:-1] @ C)
    return np.vstack([C, q]), sse


def _ridge_path(phi: np.ndarray, y: np.ndarray, alphas, n_poly: int = 0):
    """Coefficients for every alpha, one column each, and their train SSEs.

    ``R`` of ``[P | F | y]``, with ``P`` the last ``n_poly`` (unregularized)
    columns of ``phi``, has ``R_pp``, ``R_pf``, ``r_py`` in its first ``n_poly``
    rows and ``R_ff``, ``r_fy`` below.  One SVD of ``R_ff`` gives the neuron
    weights ``C``, ``R_pp q = r_py - R_pf C`` the polynomial part, and
    ``||r_fy - R_ff C||^2`` the train SSE; with ``n_poly = 0`` the ``P``
    blocks are empty.  ``R`` is taken from row blocks of ``phi``, as
    :func:`cross_validate` takes it from row blocks of its features.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    R = _stacked_r(lambda lo, hi: (phi[lo:hi], y[lo:hi]), phi.shape[0], n_poly)
    return _filter_path(R, phi.shape[0], n_poly, alphas)


def ridge_solve(phi: np.ndarray, y: np.ndarray, alpha: float, n_poly: int = 0) -> np.ndarray:
    """Solve the ridge problem at one alpha; the last ``n_poly`` columns are unregularized.

    This is the single-column case of the QR path that :func:`cross_validate`
    runs over its whole alpha grid.
    """
    return _ridge_path(phi, y, [alpha], n_poly)[0][:, 0]


def rmse(pred, target) -> float:
    pred = np.asarray(pred, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def cross_validate(
    ds_train,
    ds_val,
    neurons: NeuronSet,
    activation: ActivationSpec,
    alpha_grid=None,
) -> tuple[RidgeModel, FitReport]:
    """Grid-search the ridge parameter with the 5-percent rule.

    The weights and train errors for every alpha come from one QR path of the
    training features, and the error is evaluated on the training plus
    validation points.  The chosen alpha is the largest grid value whose
    validation error is within 5% of the smallest observed one.
    """
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else np.asarray(alpha_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("alpha grid is empty")
    if grid.size > 1 and not np.all(np.diff(grid) < 0):
        raise ValueError("alpha grid must be strictly descending")

    X, y = ds_train.X, ds_train.y
    n_poly = poly_width(activation, X.shape[1])
    R = _stacked_r(
        lambda lo, hi: (feature_matrix(X[lo:hi], neurons, activation), y[lo:hi]), len(y), n_poly
    )
    coefs, sse_train = _filter_path(R, len(y), n_poly, grid)
    res = _predict(ds_val.X, neurons, activation, coefs)
    res -= ds_val.y[:, None]
    sse_val = np.sum(np.square(res, out=res), axis=0)
    train_err = np.sqrt(sse_train / len(ds_train.y))
    val_err = np.sqrt((sse_train + sse_val) / (len(ds_train.y) + len(ds_val.y)))

    chosen = int(np.argmax(val_err <= 1.05 * val_err.min()))  # first = largest alpha
    coef = coefs[:, chosen].copy()
    n_neurons = len(neurons)
    model = RidgeModel(
        neurons=neurons,
        c=coef[:n_neurons],
        poly=coef[n_neurons:],
        activation=activation,
    )
    report = FitReport(
        alpha=float(grid[chosen]),
        alpha_grid=grid,
        train_rmse=train_err,
        val_rmse=val_err,
        chosen_index=chosen,
    )
    return model, report


def _predict(X, neurons: NeuronSet, activation: ActivationSpec, coefs: np.ndarray) -> np.ndarray:
    """``feature_matrix(X) @ coefs``, written one row block at a time into
    one array, so that no more than a block of features exists at once."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty((X.shape[0],) + coefs.shape[1:])
    for lo, hi in _row_blocks(X.shape[0], ROW_BLOCK):
        out[lo:hi] = feature_matrix(X[lo:hi], neurons, activation) @ coefs
    return out


def eval_model(model: RidgeModel, X) -> np.ndarray:
    """Predictions ``sum_n c_n sigma(a_n . x + b_n) + p0(x)``."""
    return _predict(X, model.neurons, model.activation, np.concatenate([model.c, model.poly]))


def eval_model_gradient(model: RidgeModel, X) -> np.ndarray:
    """Model gradient rows ``sum_n c_n sigma'(a_n . x + b_n) a_n``.

    For s=1 the derivative is the bump ``eta_delta`` (requires delta > 0);
    for s=2 it is the s=1 activation at the same delta, plus the linear part
    of the polynomial block.
    """
    act = model.activation
    if act.s == 1 and act.delta == 0.0:
        raise NonsmoothModelError("Heaviside model has no pointwise gradient")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pre = X @ model.neurons.a.T + model.neurons.b
    if act.s == 1:
        slope = eval_bump(act, pre)
    else:
        slope = eval_activation(ActivationSpec(s=1, delta=act.delta), pre)
    grads = (slope * model.c) @ model.neurons.a
    if act.s == 2:
        grads = grads + model.poly[1:]
    return grads
