"""Parameter-space geometry: hyperplane weights, sphere sampling, standardization.

A neuron is a hyperplane ``{x : a.x + b = 0}`` with unit normal ``a``.  All
Gaussian sampling on the sphere goes through covariance factors ``F`` with
``C = F F^T``; covariance matrices are never formed explicitly, which handles
rank deficiency without special cases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


class DegenerateGradientError(ValueError):
    """Gradient too close to zero to define a hyperplane normal."""


class ZeroCovarianceError(ValueError):
    """All factor columns are zero; the sphere distribution is undefined."""


class EmptyBoxError(ValueError):
    """A standardization box has zero width in some coordinate."""


@dataclass(frozen=True)
class Neuron:
    """Unit direction ``a`` and offset ``b`` of the hyperplane ``a.x + b = 0``."""

    a: np.ndarray
    b: float


class NeuronSet(Sequence):
    """A batch of neurons stored as arrays ``a`` (N x d) and ``b`` (N,).

    Behaves as an immutable sequence of :class:`Neuron`; samplers and the
    regression layer operate on the arrays directly.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float)).ravel()
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"mismatched lengths: {a.shape[0]} directions, {b.shape[0]} offsets")
        self.a = a
        self.b = b

    @classmethod
    def from_neurons(cls, neurons: Iterable[Neuron]) -> "NeuronSet":
        neurons = list(neurons)
        return cls(np.array([n.a for n in neurons]), np.array([n.b for n in neurons]))

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def __len__(self) -> int:
        return self.a.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice) or isinstance(i, np.ndarray):
            return NeuronSet(self.a[i], self.b[i])
        return Neuron(self.a[i].copy(), float(self.b[i]))

    def __iter__(self) -> Iterator[Neuron]:
        for i in range(len(self)):
            yield self[i]

    def concat(self, other: "NeuronSet") -> "NeuronSet":
        return NeuronSet(np.vstack([self.a, other.a]), np.concatenate([self.b, other.b]))

    def __repr__(self) -> str:
        return f"NeuronSet(n={len(self)}, d={self.dim})"


@dataclass(frozen=True)
class GaussianFactor:
    """Covariance factor ``F`` (d x r, r <= d) representing ``C = F F^T``."""

    columns: np.ndarray

    def __post_init__(self) -> None:
        F = np.asarray(self.columns, dtype=float)
        if F.ndim != 2:
            raise ValueError("factor must be a 2-d array")
        if not np.all(np.isfinite(F)):
            raise ValueError("factor entries must be finite")
        if F.shape[1] > F.shape[0]:
            raise ValueError("factor has more columns than rows; use from_matrix")
        object.__setattr__(self, "columns", F)

    @classmethod
    def from_matrix(cls, F) -> "GaussianFactor":
        """Factor with the same covariance as ``F F^T``, reduced to r <= d columns.

        Wide matrices (e.g. one column per data gradient) are compressed via a
        thin SVD, which leaves the Gaussian law ``F xi`` unchanged.
        """
        F = np.asarray(F, dtype=float)
        if F.ndim != 2:
            raise ValueError("factor must be a 2-d array")
        d, r = F.shape
        if r <= d:
            return cls(F)
        U, s, _ = np.linalg.svd(F, full_matrices=False)
        return cls(U * s)


def hyperplane_from_point_gradient(x, g) -> Neuron:
    """Hyperplane through ``x`` with normal along ``g``: ``(a, b) = (g, -x.g)/|g|``."""
    x = np.asarray(x, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    nrm = np.linalg.norm(g)
    if nrm <= 1e-14 * (1.0 + np.linalg.norm(x)):
        raise DegenerateGradientError(f"gradient norm {nrm:g} too small at x = {x}")
    a = g / nrm
    return Neuron(a=a, b=float(-a @ x))


def sample_acg(factor: GaussianFactor, rng: np.random.Generator, size: int | None = None):
    """Draw from the angular central Gaussian with covariance ``F F^T``.

    Forms ``z = F xi`` with standard normal ``xi`` and returns ``z / |z|``,
    which lies on the unit sphere intersected with ``range(F)``.  Draws with
    ``|z| < 1e-300`` are rejected and redrawn.
    """
    F = factor.columns
    if not np.any(F):
        raise ZeroCovarianceError("all factor columns are zero")
    n = 1 if size is None else int(size)
    out = np.empty((n, F.shape[0]))
    filled = 0
    while filled < n:
        xi = rng.standard_normal((n - filled, F.shape[1]))
        z = xi @ F.T
        norms = np.linalg.norm(z, axis=1)
        ok = norms >= 1e-300
        kept = z[ok] / norms[ok, None]
        out[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    return out[0] if size is None else out


@dataclass(frozen=True)
class AffineMap:
    """Per-coordinate affine map ``z = scale * (x - center)`` and its inverse."""

    scale: np.ndarray
    center: np.ndarray

    def __call__(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.center) * self.scale

    def inverse(self, Z) -> np.ndarray:
        return np.asarray(Z, dtype=float) / self.scale + self.center

    def push_gradient(self, G) -> np.ndarray:
        """Chain rule for gradients of ``f(x(z))``: multiply by ``A^-T``."""
        return np.asarray(G, dtype=float) / self.scale

    def push_hessian(self, H) -> np.ndarray:
        return np.asarray(H, dtype=float) / np.outer(self.scale, self.scale)


def standardize(X_raw, box) -> tuple[np.ndarray, AffineMap]:
    """Map a coordinate box onto the centered cube of side ``2/sqrt(d)``.

    The cube corners then sit exactly on the unit sphere, so the data radius
    is ``R = 1`` afterwards.  Returns the transformed points and the
    invertible map.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must have shape (d, 2)")
    width = box[:, 1] - box[:, 0]
    if np.any(width <= 0.0) or not np.all(np.isfinite(box)):
        raise EmptyBoxError(f"invalid box widths {width}")
    d = box.shape[0]
    scale = (2.0 / np.sqrt(d)) / width
    center = 0.5 * (box[:, 0] + box[:, 1])
    transform = AffineMap(scale=scale, center=center)
    return transform(X_raw), transform


def _stable_hash(tags: tuple) -> int:
    digest = hashlib.sha256(repr(tags).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # keep it positive


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by ``(seed, stream_id)``.

    Equal keys reproduce identical sample sequences; distinct ids give
    statistically independent streams (SeedSequence spawn keys).  Derive
    sub-streams for experiment cells with :meth:`child`, which hashes its
    tags with SHA-256 so ids are stable across processes and runs.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def child(self, *tags) -> "RngStream":
        return RngStream(self.seed, _stable_hash((self.stream_id,) + tags))
