"""Spline activations, their mollified versions, and spectral weight kernels.

The activation family is ``sigma_s(t) = max(0, t)^(s-1) / (s-1)!`` -- Heaviside
for ``s=1``, ReLU for ``s=2`` -- together with smooth versions obtained by
convolving with the bump ``eta(t) = sech(t/2)^2 / 4`` scaled to width ``delta``
(which yields the classical sigmoid and softplus).

The weight kernels ``psi_{m,delta}`` aggregate data around a hyperplane in the
offset variable.  They are built by spectral filtering of the bump: Fourier
multiplier ``|xi|^(d-1) * (i xi)^m * (-1)^m``, scaled by
``c_d = 1 / (2 (2 pi)^(d-1))``.  The multiplier enforces vanishing moments of
order ``k < d + m - 1``; the moment at ``k = d + m - 1`` is recorded on the
table (it is zero by parity when ``d`` is even).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

END_DECAY_TOL = 1e-8
MAX_TABLE_POINTS = 2**23  # make_psi_table gives up beyond this grid size


class GridResolutionError(ValueError):
    """Half-width T is too small: kernel values do not decay at the grid ends."""


@dataclass(frozen=True)
class ActivationSpec:
    """Activation order ``s`` in {1, 2} plus smoothing width ``delta >= 0``.

    ``delta = 0`` selects the nonsmooth activation (Heaviside / ReLU); positive
    ``delta`` selects the mollified one (sigmoid / softplus).
    """

    s: int
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.s not in (1, 2):
            raise ValueError(f"activation order must be 1 or 2, got {self.s}")
        if not self.delta >= 0.0:
            raise ValueError(f"smoothing width must be >= 0, got {self.delta}")


def _maybe_scalar(out: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(out) if scalar else out


def eval_activation(spec: ActivationSpec, t) -> float | np.ndarray:
    """Evaluate ``sigma_s(t)`` (``delta = 0``) or ``sigma_{s,delta}(t)``.

    s=1: Heaviside with the right-continuous convention ``sigma_1(0) = 1``, or
    the sigmoid ``1 / (1 + exp(-t/delta))``.  s=2: ReLU, or softplus
    ``delta * log(1 + exp(t/delta))`` computed via the overflow-safe branch
    ``delta * (max(u, 0) + log1p(exp(-|u|)))``.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    if spec.delta == 0.0:
        out = (t >= 0.0).astype(float) if spec.s == 1 else np.maximum(t, 0.0)
        return _maybe_scalar(out, scalar)
    u = t / spec.delta
    if spec.s == 1:
        return _maybe_scalar(expit(u), scalar)
    out = spec.delta * (np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u))))
    return _maybe_scalar(out, scalar)


def eval_bump(spec: ActivationSpec, t) -> float | np.ndarray:
    """Mollifier ``eta_delta(t) = sech(t/(2 delta))^2 / (4 delta)``.

    Unit mass and vanishing first moment; equals the derivative of the s=1
    sigmoid with the same ``delta``.
    """
    if spec.delta <= 0.0:
        raise ValueError("bump kernel requires delta > 0")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    # sech(u/2)^2/4 = e^{-|u|} / (1 + e^{-|u|})^2, safe for large |u|
    u = np.abs(t) / spec.delta
    e = np.exp(-u)
    return _maybe_scalar(e / (1.0 + e) ** 2 / spec.delta, scalar)


@dataclass(frozen=True)
class PsiTable:
    """Weight kernel ``psi_{m,delta}`` tabulated on a uniform symmetric grid.

    ``grid`` spans ``[-T, T]`` with spacing ``h <= delta/16``.  ``values``
    carry the exact parity ``(-1)^m`` of the spectral construction (enforced
    by symmetrization, so antipodal identities hold to round-off).
    ``top_moment`` is the measured moment of order ``m + d - 1``, the first
    one the multiplier does not force to vanish.
    """

    m: int
    d: int
    delta: float
    grid: np.ndarray
    values: np.ndarray

    @property
    def half_width(self) -> float:
        return float(self.grid[-1])

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def top_moment(self) -> float:
        return psi_moment(self, self.m + self.d - 1)


def psi_moment(table: PsiTable, k: int) -> float:
    """Trapezoid estimate of ``int psi(b) b^k db`` over the table support."""
    return float(np.trapezoid(table.values * table.grid**k, dx=table.spacing))


def build_psi_table(m: int, d: int, delta: float, T: float) -> PsiTable:
    """Tabulate ``psi_{m,delta} = c_d (-d/db)^m Lambda^(d-1) eta_delta``.

    The bump is sampled on a uniform grid over ``[-T, T]``, filtered in
    Fourier space with the multiplier ``|xi|^(d-1) (i xi)^m (-1)^m`` (for
    ``d = 1`` the ``Lambda`` factor is the identity), and scaled by
    ``c_d = 1 / (2 (2 pi)^(d-1))``.  Raises :class:`GridResolutionError` when
    the result has not decayed below ``1e-8 * max|psi|`` at the grid ends,
    which means ``T`` is too small to hold the kernel tails.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"derivative order m must be in {{0, 1, 2}}, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not delta > 0.0:
        raise ValueError(f"width must be > 0, got {delta}")
    if T < 10.0 * delta:
        raise ValueError(f"half-width T={T} too small; need T >= 10*delta")

    n = int(2 ** np.ceil(np.log2(32.0 * T / delta)))  # spacing h <= delta/16
    h = 2.0 * T / n
    b = -T + h * np.arange(n)
    samples = np.exp(-np.abs(b) / delta)
    samples = samples / (1.0 + samples) ** 2 / delta

    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    mult = (-1j * xi) ** m * np.abs(xi) ** (d - 1)
    if d - 1 + m > 0:
        # the bump spectrum decays like exp(-pi delta |xi|); past the cutoff
        # the bins hold only truncation/round-off noise, which a growing
        # |xi|^(d-1+m) factor would amplify (the identity filter keeps all
        # bins so the d=1, m=0 table reproduces the samples exactly)
        mult[np.pi * delta * xi > 64.0] = 0.0
    c_d = 1.0 / (2.0 * (2.0 * np.pi) ** (d - 1))
    vals = c_d * np.fft.irfft(np.fft.rfft(samples) * mult, n=n)

    # project onto the exact parity class of the continuous operator; node 0
    # (b = -T) is its own periodic mirror image
    parity = -1.0 if m % 2 else 1.0
    vals[1:] = 0.5 * (vals[1:] + parity * vals[1:][::-1])
    vals[0] = vals[0] if parity > 0 else 0.0

    peak = np.max(np.abs(vals))
    edge = max(abs(vals[0]), abs(vals[1]), abs(vals[-1]))
    if not edge <= END_DECAY_TOL * peak:
        raise GridResolutionError(
            f"psi_({m},{delta}) for d={d}: edge/peak = {edge / peak:.2e} "
            f"> {END_DECAY_TOL:g} at T = {T:g}; increase T"
        )

    grid = np.append(b, T)
    vals = np.append(vals, parity * vals[0])
    return PsiTable(m=m, d=d, delta=delta, grid=grid, values=vals)


def make_psi_table(m: int, d: int, delta: float, radius: float) -> PsiTable:
    """Build a table wide enough for data in a ball of ``radius``.

    Starts at ``T = radius + 10*delta`` and doubles ``T`` until the end-decay
    requirement of :func:`build_psi_table` is met.  Even ``d`` needs a much
    wider grid than odd ``d`` because the kernel tails then decay only
    algebraically, like ``|b|^-(d+m)``.
    """
    T = radius + 10.0 * delta
    while True:
        try:
            return build_psi_table(m, d, delta, T)
        except GridResolutionError:
            T *= 2.0
            if 32.0 * T / delta > MAX_TABLE_POINTS:
                raise GridResolutionError(
                    f"psi table for (m={m}, d={d}, delta={delta}) does not "
                    f"decay within {MAX_TABLE_POINTS} grid points"
                )


def eval_psi(table: PsiTable, t) -> float | np.ndarray:
    """Linear interpolation on the table grid; zero outside ``[-T, T]``."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    out = np.interp(t, table.grid, table.values, left=0.0, right=0.0)
    return _maybe_scalar(out, scalar)
