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
