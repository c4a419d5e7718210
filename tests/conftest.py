import pytest
from hypothesis import settings

from relaycancel.relay import CouplingChannel, RelayParams, scalar_block

# Property tests draw the same examples on every run, so the suite stays
# deterministic; numerical kernels have no meaningful per-example deadline.
settings.register_profile("relaycancel", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("relaycancel")


def make_example_params(a2=1000.0):
    """Parameter set of the worked design example (h=1, f=10 kHz)."""
    return RelayParams(
        h=1.0,
        f=10000.0,
        a1=1.0,
        a2=a2,
        W=scalar_block([1.0], [2.0, 1.0]),
        F=scalar_block([1.0], [1.0]),
        P=scalar_block([1.0], [0.001, 1.0]),
    )


@pytest.fixture
def example_params():
    return make_example_params()


@pytest.fixture
def example_channel():
    return CouplingChannel(r=0.2, L=1.0)
