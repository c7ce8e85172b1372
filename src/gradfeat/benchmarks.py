"""Benchmark functions with analytic gradients, and dataset generation.

All evaluators are vectorized over rows of an (n, d) array in the raw
coordinate box.  Gradients are analytic; every benchmark is checked against
central finite differences on construction (away from nonsmooth sets).
Hessians are analytic where cheap and finite differences of the analytic
gradient otherwise.

Borehole water-flow response, as commonly defined in the surrogate-modeling
benchmark collections::

    f = 2 pi Tu (Hu - Hl) / [ ln(r/rw) (1 + 2 L Tu / (ln(r/rw) rw^2 Kw) + Tu/Tl) ]

with inputs (rw, r, Tu, Hu, Tl, Hl, L, Kw) in the standard ranges
[0.05,0.15], [100,50000], [63070,115600], [990,1110], [63.1,116], [700,820],
[1120,1680], [9855,12045].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .samplers import DataSet

_CORNER_PEAK_A = 2.0  # steepness of the corner_peak benchmark
_FD_CHECK_POINTS = 100  # points per finite-difference check of a gradient


class UnknownBenchmarkError(ValueError):
    """Unsupported (name, dimension) combination."""


class GridSizeError(ValueError):
    """Grid sampling in d >= 2 with a ``K`` that is not an exact ``m**d``."""


@dataclass(frozen=True)
class Benchmark:
    """Test function on a raw box: f, grad f, optionally hess f and a mask of
    points safely away from nonsmooth sets."""

    name: str
    dim: int
    box: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    noise_sigma: float = 0.0
    smooth_mask: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        box = np.asarray(self.box, dtype=float)
        ok = box.shape == (self.dim, 2) and np.all(np.isfinite(box))
        if not ok or np.any(box[:, 1] <= box[:, 0]):
            raise ValueError(
                f"{self.name}: box must be {self.dim} finite rows (low, high) with high > low, "
                f"got {self.box!r}"
            )
        object.__setattr__(self, "box", box)


def huber(t):
    """t^2 for |t| < 1/2, |t| - 1/4 otherwise (C^1 glue)."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 0.5, t * t, np.abs(t) - 0.25)


def huber_prime(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 0.5, 2.0 * t, np.sign(t))


# ---------------------------------------------------------------------------
# function families
# ---------------------------------------------------------------------------

def _gauss1d():
    def f(X):
        return np.exp(-50.0 * X[:, 0] ** 2)

    def grad(X):
        return (-100.0 * X[:, 0] * f(X))[:, None]

    def hess(X):
        return ((10000.0 * X[:, 0] ** 2 - 100.0) * f(X))[:, None, None]

    return Benchmark("gauss1d", 1, np.array([[-1.0, 1.0]]), f, grad, hess, noise_sigma=0.05)


_WAVE_DIR = np.array([1.0, -np.sqrt(2.0)])


def _planar_wave():
    def f(X):
        return np.sin(5.0 * (X @ _WAVE_DIR))

    def grad(X):
        return 5.0 * np.cos(5.0 * (X @ _WAVE_DIR))[:, None] * _WAVE_DIR

    def hess(X):
        outer = np.outer(_WAVE_DIR, _WAVE_DIR)
        return -25.0 * np.sin(5.0 * (X @ _WAVE_DIR))[:, None, None] * outer

    half = np.sqrt(2.0) / 2.0  # centered cube of side sqrt(2)
    box = np.array([[-half, half], [-half, half]])
    return Benchmark("planar_wave", 2, box, f, grad, hess)


def _checkmark(d: int):
    sigma = 8.0 * 2.0 ** (-np.arange(d))  # 8, 4, 2, 1, 1/2, ...

    def parts(X):
        rest = X[:, 1:]
        r = np.linalg.norm(rest, axis=1)
        H = -1.0 / 3.0 + (2.0 / 3.0) * huber(3.0 * r)
        T = X.copy()
        T[:, 0] = X[:, 0] - H
        return T, r

    def f(X):
        T, _ = parts(X)
        return np.exp(-0.5 * np.sum((sigma * T) ** 2, axis=1))

    def grad(X):
        T, r = parts(X)
        val = f(X)
        # dH/dx_j = 2 h'(3r) x_j / r for j >= 2; smooth limit 12 x_j at r -> 0
        with np.errstate(invalid="ignore", divide="ignore"):
            dH = 2.0 * huber_prime(3.0 * r)[:, None] * X[:, 1:] / r[:, None]
        dH = np.where(r[:, None] > 0.0, dH, 0.0)
        g = np.empty_like(X)
        g[:, 0] = -val * sigma[0] ** 2 * T[:, 0]
        g[:, 1:] = val[:, None] * (
            sigma[0] ** 2 * T[:, 0:1] * dH - sigma[1:] ** 2 * T[:, 1:]
        )
        return g

    def mask(X):
        r = np.linalg.norm(X[:, 1:], axis=1)
        return np.abs(r - 1.0 / 6.0) > 1e-4  # Huber kink at 3r = 1/2

    half = 1.0 / np.sqrt(d)
    box = np.tile([[-half, half]], (d, 1))
    return Benchmark("checkmark", d, box, f, grad, None, smooth_mask=mask)


def _corner_max():
    def f(X):
        return np.maximum(0.0, np.maximum(X[:, 0], X[:, 1]))

    def grad(X):
        branches = np.stack([np.zeros(X.shape[0]), X[:, 0], X[:, 1]])
        pick = np.argmax(branches, axis=0)  # first maximizing branch on ties
        g = np.zeros_like(X)
        g[pick == 1, 0] = 1.0
        g[pick == 2, 1] = 1.0
        return g

    def mask(X):
        return (
            np.minimum(
                np.abs(X[:, 0] - X[:, 1]), np.minimum(np.abs(X[:, 0]), np.abs(X[:, 1]))
            )
            > 1e-4
        )

    half = np.sqrt(2.0) / 2.0
    box = np.array([[-half, half], [-half, half]])
    return Benchmark("corner_max", 2, box, f, grad, None, smooth_mask=mask)


def _separable():
    def f(X):
        return np.cos(10.0 * X[:, 0]) + huber(7.0 * X[:, 1])

    def grad(X):
        g = np.empty_like(X)
        g[:, 0] = -10.0 * np.sin(10.0 * X[:, 0])
        g[:, 1] = 7.0 * huber_prime(7.0 * X[:, 1])
        return g

    def mask(X):
        return np.abs(np.abs(X[:, 1]) - 1.0 / 14.0) > 1e-4

    half = np.sqrt(2.0) / 2.0
    box = np.array([[-half, half], [-half, half]])
    return Benchmark("separable", 2, box, f, grad, None, smooth_mask=mask)


def _corner_peak(d: int):
    def f(X):
        return 10.0 * (1.0 + _CORNER_PEAK_A * np.sum(X, axis=1)) ** (-d - 1)

    def grad(X):
        core = (1.0 + _CORNER_PEAK_A * np.sum(X, axis=1)) ** (-d - 2)
        return np.tile((-10.0 * (d + 1) * _CORNER_PEAK_A * core)[:, None], (1, d))

    def hess(X):
        core = (1.0 + _CORNER_PEAK_A * np.sum(X, axis=1)) ** (-d - 3)
        ones = np.ones((d, d))
        return 10.0 * (d + 1) * (d + 2) * _CORNER_PEAK_A**2 * core[:, None, None] * ones

    box = np.tile([[0.0, 1.0]], (d, 1))
    return Benchmark("corner_peak", d, box, f, grad, hess)


def _robot_arm(d: int):
    # coordinates interleaved as (L_1, theta_1, L_2, theta_2, ...)
    segs = d // 2

    def pieces(X):
        L = X[:, 0::2]
        theta = X[:, 1::2]
        Theta = np.cumsum(theta, axis=1)
        u = np.sum(L * np.cos(Theta), axis=1)
        v = np.sum(L * np.sin(Theta), axis=1)
        return L, Theta, u, v

    def f(X):
        _, _, u, v = pieces(X)
        return np.hypot(u, v)

    def grad(X):
        L, Theta, u, v = pieces(X)
        r = np.hypot(u, v)
        safe = np.where(r > 0.0, r, 1.0)
        g = np.zeros_like(X)
        g[:, 0::2] = (u[:, None] * np.cos(Theta) + v[:, None] * np.sin(Theta)) / safe[:, None]
        # d/dtheta_j: angles j..segs rotate; reverse cumulative sums
        ls = L * np.sin(Theta)
        lc = L * np.cos(Theta)
        tail_s = np.cumsum(ls[:, ::-1], axis=1)[:, ::-1]
        tail_c = np.cumsum(lc[:, ::-1], axis=1)[:, ::-1]
        g[:, 1::2] = (-u[:, None] * tail_s + v[:, None] * tail_c) / safe[:, None]
        return np.where(r[:, None] > 0.0, g, 0.0)

    def mask(X):
        return f(X) > 1e-3

    box = np.tile([[0.0, 1.0], [0.0, 2.0 * np.pi]], (segs, 1))
    return Benchmark("robot_arm", d, box, f, grad, None, smooth_mask=mask)


_BOREHOLE_BOX = np.array(
    [
        [0.05, 0.15],        # rw  borehole radius
        [100.0, 50000.0],    # r   radius of influence
        [63070.0, 115600.0], # Tu  upper-aquifer transmissivity
        [990.0, 1110.0],     # Hu  upper-aquifer head
        [63.1, 116.0],       # Tl  lower-aquifer transmissivity
        [700.0, 820.0],      # Hl  lower-aquifer head
        [1120.0, 1680.0],    # L   borehole length
        [9855.0, 12045.0],   # Kw  hydraulic conductivity
    ]
)


def _borehole():
    def split(X):
        return (X[:, i] for i in range(8))

    def f(X):
        rw, r, Tu, Hu, Tl, Hl, L, Kw = split(X)
        ln = np.log(r / rw)
        D = ln + 2.0 * L * Tu / (rw**2 * Kw) + ln * Tu / Tl
        return 2.0 * np.pi * Tu * (Hu - Hl) / D

    def grad(X):
        rw, r, Tu, Hu, Tl, Hl, L, Kw = split(X)
        ln = np.log(r / rw)
        D = ln + 2.0 * L * Tu / (rw**2 * Kw) + ln * Tu / Tl
        N = 2.0 * np.pi * Tu * (Hu - Hl)
        g = np.empty_like(X)
        dD = np.empty_like(X)
        dD[:, 0] = -(1.0 + Tu / Tl) / rw - 4.0 * L * Tu / (rw**3 * Kw)
        dD[:, 1] = (1.0 + Tu / Tl) / r
        dD[:, 2] = 2.0 * L / (rw**2 * Kw) + ln / Tl
        dD[:, 3] = 0.0
        dD[:, 4] = -ln * Tu / Tl**2
        dD[:, 5] = 0.0
        dD[:, 6] = 2.0 * Tu / (rw**2 * Kw)
        dD[:, 7] = -2.0 * L * Tu / (rw**2 * Kw**2)
        dN = np.zeros_like(X)
        dN[:, 2] = 2.0 * np.pi * (Hu - Hl)
        dN[:, 3] = 2.0 * np.pi * Tu
        dN[:, 5] = -2.0 * np.pi * Tu
        for j in range(8):
            g[:, j] = (dN[:, j] * D - N * dD[:, j]) / D**2
        return g

    return Benchmark("borehole", 8, _BOREHOLE_BOX, f, grad, None)


_FACTORIES = {
    "gauss1d": ((1,), lambda d: _gauss1d()),
    "planar_wave": ((2,), lambda d: _planar_wave()),
    "checkmark": ((2, 3, 4), _checkmark),
    "corner_max": ((2,), lambda d: _corner_max()),
    "separable": ((2,), lambda d: _separable()),
    "corner_peak": (tuple(range(1, 11)), _corner_peak),
    "robot_arm": ((6,), _robot_arm),
    "borehole": ((8,), lambda d: _borehole()),
}


def supported_benchmarks() -> dict:
    """Mapping name -> supported dimensions."""
    return {name: dims for name, (dims, _) in _FACTORIES.items()}


def _central_difference(fn: Callable, X: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``(fn(X + h_j e_j) - fn(X - h_j e_j)) / (2 h_j)`` for each coordinate j,
    with ``h_j = steps[j]``, stacked along a new last axis."""
    cols = []
    for j, h in enumerate(steps):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, j] += h
        Xm[:, j] -= h
        cols.append((fn(Xp) - fn(Xm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _fd_gradient_check(bench: Benchmark) -> None:
    rng = np.random.default_rng(0)
    lo, hi = bench.box[:, 0], bench.box[:, 1]
    width = hi - lo
    margin = 1e-3 * width
    X = rng.uniform(lo + margin, hi - margin, size=(4 * _FD_CHECK_POINTS, bench.dim))
    if bench.smooth_mask is not None:
        X = X[bench.smooth_mask(X)]
    X = X[:_FD_CHECK_POINTS]
    G = bench.grad(X)
    # relative steps; absolute ones underflow wide boxes
    fd = _central_difference(bench.f, X, 1e-6 * width)
    norms = np.linalg.norm(G, axis=1)
    # the median from np.sort, as np.median's NaN check imports numpy.ma
    middle = np.sort(norms)[(len(norms) - 1) // 2 : len(norms) // 2 + 1]
    scale = np.maximum(norms, middle.mean() * 1e-3)
    worst = np.max(np.linalg.norm(fd - G, axis=1) / np.maximum(scale, 1e-300))
    if worst > 1e-5:
        raise ValueError(f"{bench.name}: analytic gradient fails FD check ({worst:.2e})")


def _fd_hessian_from_grad(bench: Benchmark) -> Callable[[np.ndarray], np.ndarray]:
    steps = 1e-5 * (bench.box[:, 1] - bench.box[:, 0])

    def hess(X):
        H = _central_difference(bench.grad, np.atleast_2d(np.asarray(X, dtype=float)), steps)
        return 0.5 * (H + np.transpose(H, (0, 2, 1)))

    return hess


def benchmark_dim(name: str, d: int | None = None) -> int:
    """``d``, or the first dimension benchmark ``name`` supports when ``d`` is
    None; :class:`UnknownBenchmarkError` for an unknown name or dimension."""
    dims = supported_benchmarks().get(name)
    if dims is None:
        raise UnknownBenchmarkError(f"unknown benchmark {name!r}; see list-benchmarks")
    if d is None:
        return dims[0]
    if d not in dims:
        raise UnknownBenchmarkError(f"benchmark {name!r} supports d in {dims}, got {d}")
    return d


def make_benchmark(name: str, d: int | None = None) -> Benchmark:
    """Look up a benchmark; the analytic gradient is FD-validated on construction."""
    d = benchmark_dim(name, d)
    bench = _FACTORIES[name][1](d)
    _fd_gradient_check(bench)
    return bench


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def grid_side(K: int, d: int) -> int:
    """The ``m`` with ``m**d == K``; :class:`GridSizeError` when there is none.

    The root is taken in integers (Newton's iteration from above, ending at
    ``floor(K ** (1/d))``), so it is exact for every ``K``, past ``2**53``
    too, and so are the nearest counts of the error.
    """
    K = int(K)
    m = 1 << -(-K.bit_length() // d)  # 2**ceil(bits / d), above the root
    while m > 0 and (step := ((d - 1) * m + K // m ** (d - 1)) // d) < m:
        m = step
    if m**d != K:
        nearest = [c**d for c in (m, m + 1) if c >= 2]
        raise GridSizeError(
            f"grid sampling in d={d} needs K = m**d points; K={K} is not, nearest {nearest}"
        )
    return m


def _grid_points(box: np.ndarray, K: int) -> np.ndarray:
    m = grid_side(K, box.shape[0])
    axes = [np.linspace(lo, hi, m) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def generate_dataset(
    bench: Benchmark,
    K: int,
    sampling: str = "uniform-random",
    noise_sigma: float | None = None,
    *,
    rng: np.random.Generator,
    test_size: int | None = None,
    with_hessians: bool = False,
) -> tuple[DataSet, DataSet, DataSet]:
    """Draw raw points, standardize to the cube of side 2/sqrt(d), and evaluate.

    The standardization ``z = (x - center) * scale`` maps the box onto the
    centered cube whose corners sit on the unit sphere, so every point lies in
    the unit ball.  Returns (train, val, test).  Gaussian noise is added to
    train/val targets only; gradients and Hessians are stored noise-free and
    divided by ``scale`` and ``outer(scale, scale)`` (exact chain rule).  The
    validation set has the same law as training (for grid sampling, the same
    abscissas with fresh noise); the test set is always an independent uniform
    draw with clean targets, of size ``test_size`` (default K).  Grid sampling
    in d >= 2 needs ``K = m**d`` exactly and raises :class:`GridSizeError`
    otherwise.
    """
    if K < 10:
        raise ValueError("need K >= 10")
    if sampling not in ("grid", "uniform-random"):
        raise ValueError(f"unknown sampling mode {sampling!r}")
    noise = bench.noise_sigma if noise_sigma is None else noise_sigma
    test_size = K if test_size is None else test_size
    lo, hi = bench.box[:, 0], bench.box[:, 1]

    if sampling == "grid":
        X_train_raw = _grid_points(bench.box, K)
        X_val_raw = X_train_raw.copy()
    else:
        X_train_raw = rng.uniform(lo, hi, size=(K, bench.dim))
        X_val_raw = rng.uniform(lo, hi, size=(K, bench.dim))
    X_test_raw = rng.uniform(lo, hi, size=(test_size, bench.dim))

    scale = (2.0 / np.sqrt(bench.dim)) / (hi - lo)
    center = 0.5 * (lo + hi)

    def build(X_raw, sigma, size_noise):
        y = bench.f(X_raw)
        if sigma > 0.0:
            y = y + sigma * rng.standard_normal(size_noise)
        G = bench.grad(X_raw) / scale
        H = None
        if with_hessians:
            hess = bench.hess if bench.hess is not None else _fd_hessian_from_grad(bench)
            H = hess(X_raw) / np.outer(scale, scale)
        return DataSet(X=(X_raw - center) * scale, y=y, G=G, H=H)

    train = build(X_train_raw, noise, X_train_raw.shape[0])
    val = build(X_val_raw, noise, X_val_raw.shape[0])
    test = build(X_test_raw, 0.0, 0)
    return train, val, test

