import numpy as np
import pytest

from gradfeat import samplers


@pytest.fixture
def source_weight_passes(monkeypatch) -> list:
    """A list that gains the arguments of every ``nonlocal_source_weights``
    call the samplers make, from any thread."""
    calls = []
    real = samplers.nonlocal_source_weights

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(samplers, "nonlocal_source_weights", counted)
    return calls


@pytest.fixture
def density_rows(monkeypatch) -> list:
    """A list that gains the row count of every ``eval_integral_density``
    call the samplers make, from any thread."""
    rows = []
    real = samplers.eval_integral_density

    def counted(ds, psi, a, b):
        rows.append(np.atleast_2d(a).shape[0])
        return real(ds, psi, a, b)

    monkeypatch.setattr(samplers, "eval_integral_density", counted)
    return rows
