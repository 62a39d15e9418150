import pytest

from biasbound import _solve, cgf, orlicz


@pytest.fixture
def no_numeric_search(monkeypatch):
    """Make ``_solve.minimize`` and ``_solve.threshold`` raise, under every
    name a module imported them by."""
    def refuse(*args, **kwargs):
        raise AssertionError("a numeric search ran")
    for module in (_solve, cgf, orlicz):
        for name in ("minimize", "threshold"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
