"""Spline activations, their mollified versions, and spectral weight kernels.

The activation family is ``sigma_s(t) = max(0, t)^(s-1) / (s-1)!`` -- Heaviside
for ``s=1``, ReLU for ``s=2`` -- together with smooth versions obtained by
convolving with the bump ``eta(t) = sech(t/2)^2 / 4`` scaled to width ``delta``
(which yields the classical sigmoid and softplus).

The weight kernels ``psi_{m,delta}`` aggregate data around a hyperplane in the
offset variable.  They are built by spectral filtering of the bump: Fourier
multiplier ``|xi|^(d-1) * (i xi)^m * (-1)^m``, scaled by
``c_d = 1 / (2 (2 pi)^(d-1))``.  The multiplier enforces vanishing moments of
order ``k < d + m - 1``; the moment at ``k = d + m - 1`` is the first that
can survive (it is zero by parity when ``d`` is even).

``eval_psi`` interpolates a table linearly, with the bits of ``np.interp``.
It checks the range once and clips only when some entry lies outside the
table or is NaN, and it takes the interval from ``floor`` of the scaled
argument.  Only the entries within ``1e-6`` of a node, in units of the grid
spacing, are checked against the nodes: the scaled argument's error is at
most a few ``(n/2) eps`` for ``n`` intervals, below ``4e-9`` even at
``MAX_TABLE_POINTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        if not 0.0 <= self.delta < np.inf:
            raise ValueError(f"smoothing width must be finite and >= 0, got {self.delta}")


def eval_activation(spec: ActivationSpec, t, out=None) -> np.ndarray:
    """Evaluate ``sigma_s(t)`` (``delta = 0``) or ``sigma_{s,delta}(t)``.

    s=1: Heaviside with the right-continuous convention ``sigma_1(0) = 1``, or
    the sigmoid ``1 / (1 + exp(-u))``, ``u = t/delta``, with ``-u`` clipped at
    709 so that ``exp`` cannot overflow (``exp(709)`` is finite); below
    ``u = -709`` the value stays at ``1.2e-308`` instead of falling through
    the subnormals to 0.  s=2: ReLU, or softplus
    ``delta * log(1 + exp(t/delta))`` computed via the overflow-safe branch
    ``delta * (max(u, 0) + log1p(exp(-|u|)))``.

    Every step writes into one array: ``out`` (a float array of ``t``'s
    shape, which may be ``t`` itself; returned) when given, else a new one.
    The softplus needs one more for its ``log1p`` term.  ``u`` is negated
    after the division, not divided by ``-delta``, which would keep the sign
    of a NaN ``t``.
    """
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty_like(t)  # a 0-d array, which ufuncs can write into
    if spec.delta == 0.0:
        if spec.s == 1:
            np.greater_equal(t, 0.0, out=out)
        else:
            np.maximum(t, 0.0, out=out)
        return out
    np.divide(t, spec.delta, out=out)
    if spec.s == 1:
        np.negative(out, out=out)
        np.minimum(out, 709.0, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)
    tail = np.abs(out, out=np.empty_like(out))
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(out, 0.0, out=out)
    np.add(out, tail, out=out)
    return np.multiply(out, spec.delta, out=out)


def eval_bump(spec: ActivationSpec, t) -> np.ndarray:
    """Mollifier ``eta_delta(t) = sech(t/(2 delta))^2 / (4 delta)``.

    Unit mass and vanishing first moment; equals the derivative of the s=1
    sigmoid with the same ``delta``.
    """
    if spec.delta <= 0.0:
        raise ValueError("bump kernel requires delta > 0")
    t = np.asarray(t, dtype=float)
    # sech(u/2)^2/4 = e^{-|u|} / (1 + e^{-|u|})^2, safe for large |u|
    u = np.abs(t) / spec.delta
    e = np.exp(-u)
    return e / (1.0 + e) ** 2 / spec.delta


@dataclass(frozen=True, eq=False)
class PsiTable:
    """Weight kernel ``psi_{m,delta}`` tabulated on a uniform symmetric grid.

    ``values`` (at least two) sit on the ``grid`` of ``len(values)`` points
    that spans ``[-half_width, half_width]``: ``-T + (2T/n) i`` for ``i < n =
    len(values) - 1``, then ``T`` itself, the bits of ``np.linspace(-T, T, n +
    1)``.  ``build_psi_table`` uses spacing ``h <= delta/16``, and its values
    carry the exact parity ``(-1)^m`` of the spectral construction (enforced
    by symmetrization, so antipodal identities hold to round-off).  Tables
    hash by identity, so a table can key what a dataset keeps for it.

    ``slope`` holds the per-interval slopes ``diff(values) / diff(grid)``
    (the formula ``np.interp`` uses), computed once here, followed by
    ``-0.0`` for the last node, so that ``eval_psi`` at ``t = T`` returns
    ``values[-1]`` with the sign of a zero.
    """

    m: int
    d: int
    delta: float
    half_width: float
    values: np.ndarray
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    slope: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"psi values must be 1-d, of length >= 2; got {values.shape}")
        T = self.half_width
        if not 0.0 < T < np.inf:
            raise ValueError(f"psi half-width must be finite and > 0, got {T}")
        n = values.size - 1
        grid = np.append(-T + (2.0 * T / n) * np.arange(n), T)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slope", np.append(np.diff(values) / np.diff(grid), -0.0))


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
    samples = eval_bump(ActivationSpec(1, delta), -T + h * np.arange(n))

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

    vals = np.append(vals, parity * vals[0])
    return PsiTable(m=m, d=d, delta=delta, half_width=T, values=vals)


def make_psi_table(m: int, d: int, delta: float, radius: float) -> PsiTable:
    """Build a table wide enough for data in a ball of ``radius``.

    Starts at ``T = radius + 10*delta`` and doubles ``T`` until the end-decay
    requirement of :func:`build_psi_table` is met.  Even ``d`` needs a much
    wider grid than odd ``d`` because the kernel tails then decay only
    algebraically, like ``|b|^-(d+m)``.  Raises :class:`GridResolutionError`
    instead of any build whose ``32 T / delta`` exceeds ``MAX_TABLE_POINTS``.
    """
    if not delta > 0.0:
        raise ValueError(f"width must be > 0, got {delta}")
    T = radius + 10.0 * delta
    while 32.0 * T <= MAX_TABLE_POINTS * delta:
        try:
            return build_psi_table(m, d, delta, T)
        except GridResolutionError:
            T *= 2.0
    raise GridResolutionError(
        f"psi table for (m={m}, d={d}, delta={delta}) does not decay within "
        f"{MAX_TABLE_POINTS} grid points (T = {T:g})"
    )


def eval_psi(table: PsiTable, t) -> np.ndarray:
    """Linear interpolation on the table grid; zero outside ``[-T, T]``.

    One ``min`` and one ``max`` check the range first: only when some entry
    lies outside ``[-T, T]`` or is NaN are the entries clipped to it and the
    outside ones zeroed at the end.  The interval is then looked up by index
    on the uniform grid: ``j = floor(s)``, ``s = (t - grid[0]) * (n / 2T)``
    for the ``n = len(grid) - 1`` intervals, at most ``n - 1`` (which also
    maps NaN to an index).  ``s`` and the stored nodes each sit within a few
    ``(n/2) eps`` index units of the exact positions, below ``4e-9`` even at
    ``n = MAX_TABLE_POINTS``, so ``floor(s)`` is the interval that holds ``t``
    whenever ``s`` lies farther than ``1e-6`` from an integer.  The few
    entries within ``1e-6`` of a node step once either way, comparing with
    the nodes, so that ``grid[j] <= t < grid[j+1]``.  The value ``slope[j]
    (t - grid[j]) + values[j]`` is ``np.interp``'s, bit for bit (a ``-0.0``
    value at an interior node may come back as ``+0.0``).  ``t = T`` gives
    ``values[-1]`` and NaN stays NaN.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    grid = table.grid
    lo, hi, last = grid[0], grid[-1], grid.size - 1
    inside = flat.size == 0 or lo <= flat.min() <= flat.max() <= hi
    u = flat if inside else np.clip(flat, lo, hi)
    s = u - lo
    s *= last / (hi - lo)
    np.fmin(s, last - 1, out=s)
    j = s.astype(np.intp)
    s -= j
    s -= 0.5
    near = np.flatnonzero(np.abs(s, out=s) > 0.5 - 1e-6)
    if near.size:
        jn, un = j[near], u[near]
        jn -= grid[jn] > un
        jn += grid[jn + 1] <= un
        j[near] = jn
    out = u - grid.take(j)
    out *= table.slope.take(j)
    out += table.values.take(j)
    if not inside:
        out[(flat < lo) | (flat > hi)] = 0.0
    return out.reshape(t.shape)
