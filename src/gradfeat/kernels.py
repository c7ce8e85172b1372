"""Finite-rank kernel evaluation and Monte-Carlo oracles for its structure.

With neurons drawn from a distribution M, the empirical kernel
``k_{M,N}(x, x') = (1/N) sum_n phi(x; w_n) phi(x'; w_n)`` converges to the
distribution kernel ``k_M``.  For the uniform law the limit depends on
``x, x'`` only through ``(|x|, |x'|, |x - x'|)``, which is validated here by
invariance groups and a radial-slope fit rather than hard-coded constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activation import ActivationSpec, eval_activation
from .geometry import NeuronSet
from .samplers import DataSet, SamplerSpec, draw


class InsufficientSamplesError(RuntimeError):
    """Monte-Carlo error too large to resolve the requested comparison."""


@dataclass(frozen=True)
class KernelEstimate:
    value: float
    stderr: float
    n_samples: int


def _features_at(x, neurons: NeuronSet, activation: ActivationSpec) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    return eval_activation(activation, neurons.a @ x + neurons.b)


def finite_rank_kernel(x, xp, neurons: NeuronSet, activation: ActivationSpec) -> float:
    """(1/N) sum_n phi(x; w_n) phi(x'; w_n)."""
    return float(np.mean(_features_at(x, neurons, activation) * _features_at(xp, neurons, activation)))


def mc_kernel(
    x,
    xp,
    sampler: SamplerSpec,
    ds: DataSet,
    activation: ActivationSpec,
    n_samples: int,
    rng: np.random.Generator,
) -> KernelEstimate:
    """Monte-Carlo estimate of ``k_M(x, x')`` over freshly sampled neurons."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    neurons = draw(sampler, ds, n_samples, rng).neurons
    products = _features_at(x, neurons, activation) * _features_at(xp, neurons, activation)
    value = float(np.mean(products))
    stderr = float(np.std(products, ddof=1) / np.sqrt(n_samples))
    return KernelEstimate(value=value, stderr=stderr, n_samples=n_samples)


@dataclass
class RadialGroup:
    """MC kernel values for pairs sharing the invariant triple (|x|, |x'|, |x-x'|)."""

    values: np.ndarray
    stderrs: np.ndarray
    max_deviation: float
    tolerance: float
    passed: bool


@dataclass
class RadialStructureReport:
    groups: list
    passed: bool


def radial_structure_check(
    groups,
    sampler: SamplerSpec,
    activation: ActivationSpec,
    n_samples: int,
    rng: np.random.Generator,
    max_stderr: float | None = None,
) -> RadialStructureReport:
    """Check that MC kernel values agree within each invariant-triple group.

    ``groups`` is a sequence of groups, each a sequence of point pairs
    ``(x, x')`` inside the unit ball whose triples ``(|x|, |x'|, |x - x'|)``
    match.  Every pair is estimated with an independent sub-stream;
    agreement is required within ``4 * combined stderr``.  Raises
    :class:`InsufficientSamplesError` if any standard error exceeds
    ``max_stderr`` (when given).
    """
    results = []
    all_passed = True
    for group in groups:
        triples = []
        for x, xp in group:
            x = np.asarray(x, dtype=float)
            xp = np.asarray(xp, dtype=float)
            if np.linalg.norm(x) > 1.0 or np.linalg.norm(xp) > 1.0:
                raise ValueError("pair points must lie inside the unit ball")
            triples.append(
                (np.linalg.norm(x), np.linalg.norm(xp), np.linalg.norm(x - xp))
            )
        triples = np.asarray(triples)
        if np.max(np.ptp(triples, axis=0)) > 1e-9:
            raise ValueError("pairs within a group must share the invariant triple")

        d = len(group[0][0])
        ds = DataSet.minimal(d)
        estimates = [
            mc_kernel(x, xp, sampler, ds, activation, n_samples, sub)
            for (x, xp), sub in zip(group, rng.spawn(len(group)))
        ]
        values = np.array([e.value for e in estimates])
        stderrs = np.array([e.stderr for e in estimates])
        if max_stderr is not None and np.any(stderrs > max_stderr):
            raise InsufficientSamplesError(
                f"stderr up to {stderrs.max():.3g} exceeds requested {max_stderr:.3g}"
            )
        max_dev = 0.0
        tol = np.inf
        passed = True
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                dev = abs(values[i] - values[j])
                lim = 4.0 * float(np.hypot(stderrs[i], stderrs[j]))
                max_dev = max(max_dev, dev)
                tol = min(tol, lim)
                if dev > lim:
                    passed = False
        all_passed &= passed
        results.append(
            RadialGroup(
                values=values,
                stderrs=stderrs,
                max_deviation=max_dev,
                tolerance=float(tol),
                passed=passed,
            )
        )
    return RadialStructureReport(groups=results, passed=all_passed)
