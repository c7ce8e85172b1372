"""Finite-rank kernel evaluation and Monte-Carlo oracles for the uniform law.

With neurons drawn from a law M, ``k_{M,N}(x, x') = (1/N) sum_n phi(x; w_n)
phi(x'; w_n)`` converges to the kernel ``k_M``.  For the uniform law the limit
depends on ``x, x'`` only through ``(|x|, |x'|, |x - x'|)``, which the oracles
check by invariance groups rather than hard-coded constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.linalg import norm

from .activation import ActivationSpec, eval_activation
from .geometry import NeuronSet
from .samplers import DataSet, sample_uniform


@dataclass(frozen=True)
class KernelEstimate:
    value: float
    stderr: float


def _features_at(x, neurons: NeuronSet, activation: ActivationSpec) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    return eval_activation(activation, neurons.a @ x + neurons.b)


def finite_rank_kernel(x, xp, neurons: NeuronSet, activation: ActivationSpec) -> float:
    """(1/N) sum_n phi(x; w_n) phi(x'; w_n)."""
    return float(np.mean(_features_at(x, neurons, activation) * _features_at(xp, neurons, activation)))


def mc_kernel(
    x, xp, activation: ActivationSpec, n_samples: int, rng: np.random.Generator
) -> KernelEstimate:
    """Monte-Carlo estimate of the uniform-law ``k(x, x')`` over fresh neurons."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    neurons = sample_uniform(DataSet(X=np.zeros((1, np.size(x))), y=np.zeros(1)), n_samples, rng)
    products = _features_at(x, neurons, activation) * _features_at(xp, neurons, activation)
    stderr = np.std(products, ddof=1) / np.sqrt(n_samples)
    return KernelEstimate(value=float(np.mean(products)), stderr=float(stderr))


def radial_structure_check(
    groups, activation: ActivationSpec, n_samples: int, rng: np.random.Generator
) -> bool:
    """Whether uniform-law MC kernel values agree within each invariant-triple group.

    ``groups`` is a sequence of groups, each a sequence of point pairs
    ``(x, x')`` inside the unit ball whose triples ``(|x|, |x'|, |x - x'|)``
    match.  Every pair is estimated with an independent sub-stream; each two
    values of a group must agree within ``4 * combined stderr``.
    """
    passed = True
    for group in groups:
        triples = np.array([(norm(x), norm(xp), norm(np.subtract(x, xp))) for x, xp in group])
        if np.max(triples[:, :2]) > 1.0:
            raise ValueError("pair points must lie inside the unit ball")
        if np.max(np.ptp(triples, axis=0)) > 1e-9:
            raise ValueError("pairs within a group must share the invariant triple")
        subs = rng.spawn(len(group))
        est = [mc_kernel(x, xp, activation, n_samples, sub) for (x, xp), sub in zip(group, subs)]
        for e, f in combinations(est, 2):
            if abs(e.value - f.value) > 4.0 * np.hypot(e.stderr, f.stderr):
                passed = False
    return passed
