"""Parameter-space geometry: hyperplane weights, sphere sampling, standardization.

A neuron is a hyperplane ``{x : a.x + b = 0}`` with unit normal ``a``.  All
Gaussian sampling on the sphere goes through covariance factors ``F`` with
``C = F F^T``; covariance matrices are never formed explicitly, which handles
rank deficiency without special cases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ZeroCovarianceError(ValueError):
    """All factor columns are zero; the sphere distribution is undefined."""


class EmptyBoxError(ValueError):
    """A standardization box has zero width in some coordinate."""


class NeuronSet:
    """A batch of hyperplanes ``a.x + b = 0``: unit normals ``a`` (N x d), offsets ``b`` (N,)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float)).ravel()
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"mismatched lengths: {a.shape[0]} directions, {b.shape[0]} offsets")
        self.a = a
        self.b = b

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def __len__(self) -> int:
        return self.a.shape[0]

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


def unit_rows(draw: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """The rows of ``draw(np.arange(n))`` divided by their norms.

    ``draw(idx)`` returns one candidate row per index in ``idx``.  Rows whose
    norm is below 1e-300 are drawn again by passing only their indices, until
    none is left; a NaN norm fails that test, so a NaN row is kept.
    """
    Z = draw(np.arange(n))
    norms = np.linalg.norm(Z, axis=1)
    bad = np.flatnonzero(norms < 1e-300)
    while bad.size:
        Z[bad] = draw(bad)
        norms[bad] = np.linalg.norm(Z[bad], axis=1)
        bad = bad[norms[bad] < 1e-300]
    return Z / norms[:, None]


def sample_acg(factor: GaussianFactor, rng: np.random.Generator, size: int | None = None):
    """Draw from the angular central Gaussian with covariance ``F F^T``.

    Forms ``z = F xi`` with standard normal ``xi`` and returns ``z / |z|``,
    which lies on the unit sphere intersected with ``range(F)``.  Draws with
    ``|z| < 1e-300`` are redrawn (:func:`unit_rows`).
    """
    F = factor.columns
    if not np.any(F):
        raise ZeroCovarianceError("all factor columns are zero")
    n = 1 if size is None else int(size)
    out = unit_rows(lambda idx: rng.standard_normal((idx.size, F.shape[1])) @ F.T, n)
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
