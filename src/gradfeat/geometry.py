"""Parameter-space geometry: hyperplane weights, sphere sampling, random streams.

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

    def __len__(self) -> int:
        return self.a.shape[0]

    def concat(self, other: "NeuronSet") -> "NeuronSet":
        return NeuronSet(np.vstack([self.a, other.a]), np.concatenate([self.b, other.b]))


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


def sample_acg(F, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` points from the angular central Gaussian with covariance ``F F^T``.

    A wide d x r factor (r > d, e.g. one column per data gradient) is first
    reduced to ``U s`` by a thin SVD, which leaves the Gaussian law ``F xi``
    unchanged.  Forms ``z = F xi`` with standard normal ``xi`` and returns
    ``z / |z|``, which lies on the unit sphere intersected with ``range(F)``.
    Draws with ``|z| < 1e-300`` are redrawn (:func:`unit_rows`).
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or not np.all(np.isfinite(F)):
        raise ValueError("factor must be a 2-d array of finite entries")
    if not np.any(F):
        raise ZeroCovarianceError("all factor columns are zero")
    if F.shape[1] > F.shape[0]:
        U, s, _ = np.linalg.svd(F, full_matrices=False)
        F = U * s
    return unit_rows(lambda idx: rng.standard_normal((idx.size, F.shape[1])) @ F.T, int(size))


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
