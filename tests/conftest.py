import pytest

from weightlab import GridSpec, Power, WeightFunction, counterexample

# keep hypothesis examples reproducible across runs
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


class _Opaque(WeightFunction):
    """The same function behind a type without a closed form or profile,
    which puts every check on its numeric path."""

    def __init__(self, inner):
        self.inner = inner
        self.nondecreasing = inner.nondecreasing
        self.normalized = inner.normalized

    def _eval(self, t):
        return self.inner._eval(t)


@pytest.fixture(scope="session")
def plateau_profile():
    """The staircase-with-plateaus weight (J=60, default decay)."""
    return counterexample.construct(counterexample.default_delta(60), 0.5, 60)


@pytest.fixture(scope="session")
def plateau_profile_small():
    return counterexample.construct(counterexample.default_delta(20), 0.5, 20)


@pytest.fixture(scope="session")
def short_grid():
    return GridSpec(1e-2, 1e4, 300)


@pytest.fixture(scope="session")
def sqrt_weight():
    return Power(0.5)
