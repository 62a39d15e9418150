import pytest
from hypothesis import settings

from biasbound import _solve, cgf, orlicz

# property tests draw the same examples on every run, so a run is reproducible;
# each test's own max_examples still applies
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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
