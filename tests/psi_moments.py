"""Moments of a tabulated weight kernel, for the psi-table tests and criterion 5."""

import numpy as np


def spacing(table) -> float:
    return float(table.grid[1] - table.grid[0])


def psi_moment(table, k: int) -> float:
    """Trapezoid estimate of ``int psi(b) b^k db`` over the table support."""
    return float(np.trapezoid(table.values * table.grid**k, dx=spacing(table)))


def top_moment(table) -> float:
    """The moment of order ``m + d - 1``, the first one the multiplier does not force to vanish."""
    return psi_moment(table, table.m + table.d - 1)
