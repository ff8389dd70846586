import numpy as np
import pytest
from hypothesis import settings

from brainvis_forge.autodiff import active_tape

# Print a replayable blob with every falsifying example; every other setting
# keeps Hypothesis's default.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture(autouse=True)
def _empty_tape():
    """Start every test on an empty global tape: a test that records a forward
    and never runs backward would otherwise leave entries for the next one."""
    active_tape().clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
