import numpy as np
import pytest

from brainvis_forge.autodiff import active_tape


@pytest.fixture(autouse=True)
def _empty_tape():
    """Start every test on an empty global tape: a test that records a forward
    and never runs backward would otherwise leave entries for the next one."""
    active_tape().clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
